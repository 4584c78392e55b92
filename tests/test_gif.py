"""GIF codec (functions/gif): palette-exact round-trips, true-color
quantization bound, interlacing, transparency, LZW dictionary growth."""

from __future__ import annotations

import numpy as np
import pytest

from ertransfer_ray.functions.gif import (
    _INTERLACE_PASSES,
    decode_gif,
    encode_gif,
)


def _paletted(shape, n_colors, seed=3):
    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, (n_colors, 3), dtype=np.uint8)
    pal = np.unique(pal, axis=0)
    return pal[rng.integers(0, len(pal), shape)]


@pytest.mark.parametrize("shape,n", [((40, 56), 5), ((23, 17), 2), ((50, 60), 250), ((1, 1), 1)])
def test_palette_exact_roundtrip(shape, n):
    img = _paletted(shape, n)
    out = decode_gif(encode_gif(img))
    assert np.array_equal(out, img)


def test_gif_property_roundtrip():
    """Hypothesis: any ≤256-color uint8 image round-trips exactly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(1, 20),
        w=st.integers(1, 20),
        n_colors=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def check(h, w, n_colors, seed):
        img = _paletted((h, w), n_colors, seed=seed)
        assert np.array_equal(decode_gif(encode_gif(img)), img)

    check()


def test_gray_roundtrip():
    rng = np.random.default_rng(1)
    g = (rng.integers(0, 4, (23, 17)) * 80).astype(np.uint8)
    out = decode_gif(encode_gif(g))
    assert np.array_equal(out, np.stack([g] * 3, axis=-1))


def test_truecolor_quantization_bounded():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    out = decode_gif(encode_gif(img))
    # 6x7x6 cube: worst-case per-channel error is ~half a cube step (<=22)
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 26
    assert np.abs(out.astype(int) - img.astype(int)).mean() <= 14


def test_lzw_dictionary_overflow():
    """>4096 dictionary entries forces the mid-stream CLEAR path."""
    rng = np.random.default_rng(4)
    img = _paletted((200, 300), 200, seed=5)
    out = decode_gif(encode_gif(img))
    assert np.array_equal(out, img)


def test_interlaced_decode():
    """Craft an interlaced file: store rows in pass order + set the flag;
    decode must restore the original row order."""
    img = _paletted((16, 10), 7)
    order = []
    for start, step in _INTERLACE_PASSES:
        order.extend(range(start, 16, step))
    stored = img[np.array(order)]
    data = bytearray(encode_gif(stored))
    # image descriptor follows header(6) + LSD(7) + GCT(3 * 2^size_pow)
    size_pow = (data[10] & 0x07) + 1
    off = 13 + 3 * (1 << size_pow)
    assert data[off] == 0x2C
    data[off + 9] |= 0x40  # interlace flag
    out = decode_gif(bytes(data))
    assert np.array_equal(out, img)


def test_transparency_renders_white():
    img = np.zeros((4, 4, 3), np.uint8)  # single color -> palette index 0
    data = bytearray(encode_gif(img))
    size_pow = (data[10] & 0x07) + 1
    off = 13 + 3 * (1 << size_pow)
    gce = bytes([0x21, 0xF9, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00])
    out = decode_gif(bytes(data[:off]) + gce + bytes(data[off:]))
    assert np.array_equal(out, np.full((4, 4, 3), 255, np.uint8))


def test_animation_compositing_disposal_methods():
    """Partial-rect frames + disposal 1/2/3 composite per the standard
    model (white canvas; 2 = clear rect, 3 = restore previous)."""
    from ertransfer_ray.functions.gif import (
        decode_gif_frames,
        encode_gif_animation,
    )

    base = np.full((10, 12, 3), 200, np.uint8)
    red = np.zeros((4, 4, 3), np.uint8)
    red[..., 0] = 255
    blue = np.zeros((3, 3, 3), np.uint8)
    blue[..., 2] = 255
    data = encode_gif_animation(
        [
            {"img": base, "disposal": 1},
            {"img": red, "left": 2, "top": 2, "disposal": 3},
            {"img": blue, "left": 6, "top": 5, "disposal": 2},
            {"img": red, "left": 0, "top": 0, "disposal": 0},
        ]
    )
    f = list(decode_gif_frames(data))
    assert len(f) == 4 and f[0].shape == (10, 12, 3)
    assert (f[0] == 200).all()
    assert (f[1][2:6, 2:6] == [255, 0, 0]).all() and (f[1][0, 0] == 200).all()
    # disposal 3 after frame 2: red patch restored away
    assert (f[2][2, 2] == 200).all() and (f[2][5:8, 6:9] == [0, 0, 255]).all()
    # disposal 2 after frame 3: blue rect cleared to background white
    assert (f[3][5:8, 6:9] == 255).all() and (f[3][0:4, 0:4] == [255, 0, 0]).all()


def test_animation_transparency_mask():
    from ertransfer_ray.functions.gif import (
        decode_gif_frames,
        encode_gif_animation,
    )

    base = np.full((6, 6, 3), 200, np.uint8)
    red = np.zeros((4, 4, 3), np.uint8)
    red[..., 0] = 255
    m = np.zeros((4, 4), bool)
    m[0, :] = True  # top row transparent -> canvas shows through
    data = encode_gif_animation(
        [{"img": base, "disposal": 1},
         {"img": red, "transparent_mask": m}]
    )
    f = list(decode_gif_frames(data))
    assert (f[1][0, 0:4] == 200).all()
    assert (f[1][1:4, 0:4] == [255, 0, 0]).all()


def test_sniff_and_errors():
    from ertransfer_ray.functions.codecs import sniff_mime

    img = _paletted((8, 8), 3)
    data = encode_gif(img)
    assert data[:6] == b"GIF89a"
    assert sniff_mime(data) == "image/gif"
    assert encode_gif(img) == data  # deterministic
    with pytest.raises(ValueError):
        decode_gif(b"NOTAGIF")
    with pytest.raises(ValueError):
        encode_gif(img.astype(np.float32))
    with pytest.raises(ValueError):
        decode_gif(data[:14] + b"\x3b")  # trailer before any frame


@pytest.mark.parametrize("cut", [7, 12, 20, 40, -3])
def test_corrupt_gifs_raise_valueerror(cut):
    """The codec-family contract: undecodable payloads raise ValueError,
    never KeyError/IndexError/struct.error."""
    img = _paletted((12, 12), 9)
    data = encode_gif(img)
    corrupt = data[:cut] if cut > 0 else data[:cut] + b"\xff\xff\xff"
    try:
        decode_gif(corrupt)
    except ValueError:
        pass  # the documented failure mode (full decode also acceptable)


def test_corrupt_lzw_first_code_raises_valueerror():
    from ertransfer_ray.functions.gif import _lzw_decode

    with pytest.raises(ValueError):
        _lzw_decode(b"\x07", 2, 10)  # out-of-table first code
    with pytest.raises(ValueError):
        _lzw_decode(b"\x00", 200, 10)  # absurd min code size
