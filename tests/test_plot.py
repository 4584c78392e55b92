"""functions/plot.py raster renderer and PNG encoder — the matplotlib-free
closure of the reference's histogram PNG
(clustering/Probabilities/entrypoint.py:108)."""

import struct
import zlib

import numpy as np
import pandas as pd
import pytest

from ertransfer_ray.functions.plot import Canvas, bar_chart, encode_png, save_png


def _read_png(data: bytes) -> np.ndarray:
    """Read back an 8-bit RGB PNG whose scanlines all use the Up filter (2),
    as ``encode_png`` writes them."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, chunks = 8, {}
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype, body = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(ctype + body)
        chunks[ctype] = chunks.get(ctype, b"") + body
        pos += 12 + length
    w, h, depth, color, _, _, interlace = struct.unpack(">IIBBBBB", chunks[b"IHDR"])
    assert (depth, color, interlace) == (8, 2, 0) and b"IEND" in chunks
    raw = np.frombuffer(zlib.decompress(chunks[b"IDAT"]), np.uint8).reshape(h, 1 + 3 * w)
    assert (raw[:, 0] == 2).all()
    # undo Up: each row is the running sum, mod 256, of the rows above it
    rows = np.cumsum(raw[:, 1:], axis=0, dtype=np.uint64) % 256
    return rows.astype(np.uint8).reshape(h, w, 3)


def test_bar_chart_roundtrips_through_own_png(tmp_path):
    bins = np.arange(0.0, 1.0, 0.01)
    rng = np.random.default_rng(0)
    c0, _ = np.histogram(rng.beta(2, 8, 2000), bins=np.arange(0, 1.01, 0.01))
    c1, _ = np.histogram(rng.beta(8, 2, 200), bins=np.arange(0, 1.01, 0.01))
    img = bar_chart(bins, {"0": c0, "1": c1}, 0.01)
    p = str(tmp_path / "h.png")
    save_png(p, img)
    back = _read_png(open(p, "rb").read())
    assert np.array_equal(back, img)
    assert img.shape == (400, 640, 3)


def test_bar_chart_bar_heights_track_counts():
    # two bars, counts 10 vs 1000 on a log axis: the taller bar's colored
    # column must start strictly higher (smaller y) and both must exist
    bins = np.array([0.0, 0.5])
    c = np.array([10, 1000])
    img = bar_chart(bins, {"0": c}, 0.5, log_y=True)
    nonwhite = (img < 250).any(axis=2)
    # exclude axis/legend border rows: look at two x columns inside each bar
    col_low = nonwhite[:, 120].nonzero()[0]
    col_high = nonwhite[:, 400].nonzero()[0]
    assert len(col_low) and len(col_high)
    assert col_high.min() < col_low.min()  # 1000-bar top is higher up


def test_bar_chart_deterministic_bytes():
    bins = np.arange(0.0, 1.0, 0.01)
    c = (np.arange(100) % 7) * 3
    a = bar_chart(bins, {"0": c, "1": c[::-1]}, 0.01)
    b = bar_chart(bins, {"0": c, "1": c[::-1]}, 0.01)
    assert np.array_equal(a, b)
    assert encode_png(a) == encode_png(b)


def test_encode_png_roundtrips_any_rgb_and_rejects_other_layouts():
    # random bytes make the Up filter wrap below zero on most pixels
    img = np.random.default_rng(7).integers(0, 256, (5, 7, 3), dtype=np.uint8)
    assert np.array_equal(_read_png(encode_png(img)), img)
    assert np.array_equal(_read_png(encode_png(img[:1, :1])), img[:1, :1])
    for bad in (np.zeros((4, 4), np.uint8), np.zeros((4, 4, 4), np.uint8)):
        with pytest.raises(ValueError):
            encode_png(bad)


def test_canvas_text_renders_known_glyph():
    cv = Canvas(20, 12)
    cv.text(1, 1, "1")
    ink = (cv.img < 250).any(axis=2)
    assert ink.sum() == sum(bin(b).count("1") for b in (4, 12, 4, 4, 4, 4, 14))


def test_clustering_report_writes_real_histogram_png(tmp_path):
    from ertransfer_ray.pipelines.tuning import write_clustering_report

    preds = pd.DataFrame(
        {
            "left_url": [f"a{i}" for i in range(6)],
            "right_url": [f"b{i}" for i in range(6)],
            "prob": [0.1, 0.2, 0.6, 0.9, 0.95, 0.97],
            "label": [0, 0, 1, 1, 1, 1],
        }
    )
    write_clustering_report(preds, "dX", str(tmp_path), default=True)
    p = tmp_path / "dX_histogram.png"
    assert p.exists()
    img = _read_png(open(p, "rb").read())
    assert img.shape[2] == 3 and (img < 250).any()
