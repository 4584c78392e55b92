"""Pure-stdlib media codecs: PNG + BMP images, WAV audio.

The container ships no codec libraries (no PIL/cv2/soundfile/ffmpeg), but
PNG is just zlib (stdlib) + per-row unfiltering, BMP 24-bit is raw bytes,
and WAV reads with the stdlib ``wave`` module. The numpy forms here are
correct (round-trip property-tested against our own encoders, PNG
unfiltering covers all five filter types) and adequate for moderate sizes.

No query, pipeline stage, CLI command or benchmark calls this module; it
stays until a later change deletes it (ROADMAP item 9). The clustering
report's PNG comes from ``functions/plot.encode_png``.

All decoders take ``bytes`` and return numpy arrays; all are deterministic
pure functions — safe in any Ray task/actor.
"""

from __future__ import annotations

import io
import struct
import wave
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
#: PNG color type -> channel count (bit depth 8 only)
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def sniff_mime(data: bytes) -> str:
    """Magic-byte mime sniff for the formats this module decodes."""
    if data[:8] == _PNG_SIG:
        return "image/png"
    if data[:2] == b"BM":
        return "image/bmp"
    if data[:3] == b"\xff\xd8\xff":
        return "image/jpeg"
    if data[:6] in (b"GIF87a", b"GIF89a"):
        return "image/gif"
    if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
        return "audio/wav"
    if data[:4] == b"RIFF" and data[8:12] == b"AVI ":
        return "video/x-msvideo"
    return "application/octet-stream"


# ---------------------------------------------------------------- PNG


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor, vectorized over a pixel group (int16 inputs)."""
    p = a + b - c
    pa_ = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    return np.where((pa_ <= pb) & (pa_ <= pc), a, np.where(pb <= pc, b, c))


def decode_png(data: bytes) -> np.ndarray:
    """Decode a non-interlaced 8-bit PNG (gray/RGB/palette/GA/RGBA) to a
    ``(h, w)`` or ``(h, w, channels)`` uint8 array. All five scanline
    filter types are handled; Sub/Up are fully vectorized, Average/Paeth
    vectorize across channels within the sequential left-to-right pass.
    """
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    pos, idat, palette = 8, [], None
    width = height = channels = None
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length  # length + type + crc
        if ctype == b"IHDR":
            width, height, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if depth != 8:
                raise ValueError(f"unsupported PNG bit depth {depth}")
            if interlace:
                raise ValueError("interlaced PNG not supported")
            if color not in _PNG_CHANNELS:
                raise ValueError(f"unsupported PNG color type {color}")
            channels = _PNG_CHANNELS[color]
        elif ctype == b"PLTE":
            palette = np.frombuffer(body, np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
    if width is None or not idat:
        raise ValueError("truncated PNG (missing IHDR/IDAT)")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    stride = width * channels
    raw = raw.reshape(height, stride + 1)
    filters, rows = raw[:, 0], raw[:, 1:].astype(np.int16)
    out = np.zeros((height, stride), np.int16)
    prev = np.zeros(stride, np.int16)
    bpp = channels
    for y in range(height):
        f, row = filters[y], rows[y]
        if f == 0:
            rec = row
        elif f == 1:  # Sub: per channel-phase cumulative sum
            rec = row.reshape(width, bpp).cumsum(axis=0).reshape(stride)
        elif f == 2:  # Up
            rec = row + prev
        elif f == 3:  # Average (left is sequential; channels vectorize)
            rec = np.empty(stride, np.int16)
            left = np.zeros(bpp, np.int16)
            px = row.reshape(width, bpp)
            up = prev.reshape(width, bpp)
            for x in range(width):
                left = (px[x] + ((left + up[x]) >> 1)) & 0xFF
                rec[x * bpp : (x + 1) * bpp] = left
        elif f == 4:  # Paeth
            rec = np.empty(stride, np.int16)
            left = np.zeros(bpp, np.int16)
            ul = np.zeros(bpp, np.int16)
            px = row.reshape(width, bpp)
            up = prev.reshape(width, bpp)
            for x in range(width):
                left = (px[x] + _paeth(left, up[x], ul)) & 0xFF
                ul = up[x]
                rec[x * bpp : (x + 1) * bpp] = left
        else:
            raise ValueError(f"bad PNG filter type {f}")
        rec = rec & 0xFF
        out[y] = rec
        prev = rec
    img = out.astype(np.uint8)
    if palette is not None:
        return palette[img.reshape(height, width)]
    if channels == 1:
        return img.reshape(height, width)
    return img.reshape(height, width, channels)


def encode_png(img: np.ndarray, filter_type: int = 0) -> bytes:
    """Encode a uint8 ``(h, w)`` or ``(h, w, {2,3,4})`` array as PNG.
    ``filter_type`` applies one scanline filter to every row (0/1/2/3/4) —
    selectable so decode round-trip tests cover every unfilter path."""
    img = np.ascontiguousarray(img, np.uint8)
    if img.ndim == 2:
        color, channels = 0, 1
    elif img.ndim == 3 and img.shape[2] in (2, 3, 4):
        color = {2: 4, 3: 2, 4: 6}[img.shape[2]]
        channels = img.shape[2]
    else:
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    flat = img.reshape(h, w * channels).astype(np.int16)
    bpp = channels
    lines = []
    prev = np.zeros(w * bpp, np.int16)
    for y in range(h):
        row = flat[y]
        if filter_type == 0:
            enc = row
        elif filter_type == 1:
            left = np.concatenate([np.zeros(bpp, np.int16), row[:-bpp]])
            enc = row - left
        elif filter_type == 2:
            enc = row - prev
        elif filter_type == 3:
            left = np.concatenate([np.zeros(bpp, np.int16), row[:-bpp]])
            enc = row - ((left + prev) >> 1)
        elif filter_type == 4:
            left = np.concatenate([np.zeros(bpp, np.int16), row[:-bpp]])
            upleft = np.concatenate([np.zeros(bpp, np.int16), prev[:-bpp]])
            enc = row - _paeth(left, prev, upleft)
        else:
            raise ValueError(f"bad filter type {filter_type}")
        lines.append(bytes([filter_type]) + (enc & 0xFF).astype(np.uint8).tobytes())
        prev = row

    def chunk(ctype: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    idat = zlib.compress(b"".join(lines))
    return _PNG_SIG + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


# ---------------------------------------------------------------- BMP


def decode_bmp(data: bytes) -> np.ndarray:
    """Decode an uncompressed 24-bit BMP (BITMAPINFOHEADER, BI_RGB) to an
    ``(h, w, 3)`` uint8 RGB array."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    (offset,) = struct.unpack_from("<I", data, 10)
    width, height = struct.unpack_from("<ii", data, 18)
    (bits,) = struct.unpack_from("<H", data, 28)
    (compression,) = struct.unpack_from("<I", data, 30)
    if bits != 24 or compression != 0:
        raise ValueError(f"unsupported BMP (bits={bits}, compression={compression})")
    flip = height > 0
    height = abs(height)
    row_bytes = (width * 3 + 3) & ~3
    px = np.frombuffer(data, np.uint8, row_bytes * height, offset)
    px = px.reshape(height, row_bytes)[:, : width * 3].reshape(height, width, 3)
    if flip:
        px = px[::-1]
    return px[..., ::-1].copy()  # BGR -> RGB


def encode_bmp(img: np.ndarray) -> bytes:
    """Encode a uint8 ``(h, w, 3)`` RGB array as an uncompressed 24-bit BMP
    (bottom-up, BI_RGB)."""
    img = np.ascontiguousarray(img, np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError("encode_bmp needs (h, w, 3) RGB")
    row_bytes = (w * 3 + 3) & ~3
    rows = np.zeros((h, row_bytes), np.uint8)
    rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # bottom-up BGR
    body = rows.tobytes()
    header = struct.pack("<2sIHHI", b"BM", 54 + len(body), 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
    return header + dib + body


# ---------------------------------------------------------------- WAV


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a PCM WAV to ``(samples, sample_rate)``; samples is float32
    in [-1, 1], shape ``(n_frames, n_channels)``. 8/16/32-bit PCM."""
    with wave.open(io.BytesIO(data), "rb") as f:
        rate = f.getframerate()
        n = f.getnframes()
        ch = f.getnchannels()
        width = f.getsampwidth()
        raw = f.readframes(n)
    if width == 2:
        x = np.frombuffer(raw, "<i2").astype(np.float32) / 32768.0
    elif width == 1:  # unsigned in WAV
        x = (np.frombuffer(raw, np.uint8).astype(np.float32) - 128.0) / 128.0
    elif width == 4:
        x = np.frombuffer(raw, "<i4").astype(np.float32) / 2147483648.0
    else:
        raise ValueError(f"unsupported WAV sample width {width}")
    return x.reshape(-1, ch), rate


def encode_wav(samples: np.ndarray, rate: int) -> bytes:
    """Encode float32 [-1, 1] ``(n, ch)`` samples as 16-bit PCM WAV."""
    samples = np.atleast_2d(np.asarray(samples, np.float32))
    if samples.shape[0] == 1 and samples.ndim == 2 and samples.shape[1] > 1:
        pass  # (1, n) mono row is fine — wave writes interleaved bytes
    pcm = np.clip(samples * 32768.0, -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(pcm.shape[1] if pcm.ndim == 2 else 1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())
    return buf.getvalue()


# ------------------------------------------------------- features


def to_gray(img: np.ndarray) -> np.ndarray:
    """uint8 image (any supported layout) -> float32 grayscale (h, w)."""
    img = img.astype(np.float32)
    if img.ndim == 2:
        return img
    c = img.shape[2]
    if c == 2:  # gray + alpha
        return img[..., 0]
    if c == 4:
        img = img[..., :3]
    return img @ np.array([0.299, 0.587, 0.114], np.float32)


def pool_grid(gray: np.ndarray, gh: int, gw: int) -> np.ndarray:
    """Area-average pool a (h, w) array to a (gh, gw) grid — the classic
    thumbnail fingerprint. Exact partial-cell weighting is unnecessary for
    a feature grid; cells are the reduceat row/col buckets."""
    h, w = gray.shape
    ri = (np.arange(gh) * h // gh).astype(np.int64)
    ci = (np.arange(gw) * w // gw).astype(np.int64)
    sums = np.add.reduceat(np.add.reduceat(gray, ri, axis=0), ci, axis=1)
    rc = np.diff(np.append(ri, h)).reshape(-1, 1)
    cc = np.diff(np.append(ci, w)).reshape(1, -1)
    return sums / (rc * cc)


def image_embedding(img: np.ndarray, dim: int) -> np.ndarray:
    """Deterministic unit-norm embedding: mean-centered ``dim``-cell
    grayscale thumbnail (the aHash-style fingerprint), float32."""
    gh = int(np.sqrt(dim))
    while dim % gh:
        gh -= 1
    grid = pool_grid(to_gray(img), gh, dim // gh).reshape(-1)
    grid = grid - grid.mean()
    n = float(np.linalg.norm(grid))
    return (grid / n if n > 1e-9 else grid).astype(np.float32)


def resize_nearest(img: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor resize (uint8 in, uint8 out, any channel count)."""
    h, w = img.shape[:2]
    ri = (np.arange(height) * h // height).astype(np.int64)
    ci = (np.arange(width) * w // width).astype(np.int64)
    return img[ri][:, ci]


def audio_features(samples: np.ndarray, n_features: int) -> np.ndarray:
    """Deterministic unit-norm audio fingerprint: log-energy over
    ``n_features`` equal time segments (mono mixdown), float32."""
    mono = samples.mean(axis=1) if samples.ndim == 2 else samples
    n = len(mono)
    if n == 0:
        return np.zeros(n_features, np.float32)
    bounds = (np.arange(n_features) * n // n_features).astype(np.int64)
    sq = np.add.reduceat(mono.astype(np.float64) ** 2, bounds)
    cnt = np.diff(np.append(bounds, n))
    feats = np.log10(1.0 + sq / np.maximum(cnt, 1))
    feats = feats - feats.mean()
    nr = float(np.linalg.norm(feats))
    return (feats / nr if nr > 1e-9 else feats).astype(np.float32)
