"""Pure-Python GIF87a/89a codec (LZW) for the stdlib-only codec family.

GIFs are still a meaningful slice of crawled web images; like the PNG/BMP
siblings in ``functions/codecs`` this is public-spec only (GIF89a specification + the LZW
variable-code-width scheme it mandates).

- :func:`decode_gif` reads the FIRST image frame (the still-image case;
  a crawl feature-extraction stage wants one representative raster, and
  frame N would need full disposal-method compositing) with global or
  local color tables and interlacing, returning (H, W, 3) uint8 RGB.
  Extension blocks (GCE/comment/application — i.e. animation metadata)
  are skipped structurally.
- :func:`encode_gif` writes a single-frame GIF89a with a 256-entry
  global palette. True-color inputs are quantized to a fixed 6×7×6
  color cube (252 colors) — documented lossy, like every ≤256-color GIF
  write; palette-exact inputs (≤256 distinct colors) round-trip exactly
  because the encoder builds the exact palette when it fits.

The LZW layers run on Python ints over bytearrays — GIF rasters in crawl
thumbnails are small, and corpus-scale parallelism would be across images.

No query, pipeline stage, CLI command or benchmark calls this module; it
stays until a later change deletes it (ROADMAP item 9).
"""

from __future__ import annotations

import struct

import numpy as np


def _lzw_decode(data: bytes, min_code_size: int, expected: int) -> bytearray:
    """GIF-variant LZW: variable code width, CLEAR/EOI codes, dictionary
    capped at 4096 entries. Stops after ``expected`` output bytes."""
    if not 1 <= min_code_size <= 11:
        raise ValueError(f"bad LZW minimum code size {min_code_size}")
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    # bit cursor over the concatenated sub-block data, LSB-first per spec
    acc = 0
    nbits = 0
    pos = 0
    n = len(data)

    def init_dict():
        return {i: bytes([i]) for i in range(clear)}

    table = init_dict()
    code_size = min_code_size + 1
    next_code = eoi + 1
    prev: bytes | None = None
    while len(out) < expected:
        while nbits < code_size:
            if pos >= n:
                return out  # truncated stream: keep what decoded
            acc |= data[pos] << nbits
            nbits += 8
            pos += 1
        code = acc & ((1 << code_size) - 1)
        acc >>= code_size
        nbits -= code_size
        if code == clear:
            table = init_dict()
            code_size = min_code_size + 1
            next_code = eoi + 1
            prev = None
            continue
        if code == eoi:
            break
        if code in table:
            entry = table[code]
        elif prev is not None and code == next_code:
            entry = table_prev + table_prev[:1]  # the KwKwK case
        else:
            raise ValueError("corrupt LZW stream")
        out += entry
        if prev is not None and next_code < 4096:
            table[next_code] = table_prev + entry[:1]
            next_code += 1
            if next_code == (1 << code_size) and code_size < 12:
                code_size += 1
        prev = code
        table_prev = entry
    return out


def _lzw_encode(indices: bytes, min_code_size: int) -> bytes:
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, size: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += size
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    table = {bytes([i]): i for i in range(clear)}
    code_size = min_code_size + 1
    next_code = eoi + 1
    emit(clear, code_size)
    w = b""
    for b in indices:
        wk = w + bytes([b])
        if wk in table:
            w = wk
            continue
        emit(table[w], code_size)
        if next_code < 4096:
            table[wk] = next_code
            next_code += 1
            if next_code == (1 << code_size) + 1 and code_size < 12:
                code_size += 1
        else:
            emit(clear, code_size)
            table = {bytes([i]): i for i in range(clear)}
            code_size = min_code_size + 1
            next_code = eoi + 1
        w = bytes([b])
    if w:
        emit(table[w], code_size)
    emit(eoi, code_size)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _iter_raw_frames(data: bytes):
    """Yield ((sw, sh), left, top, grid, lct, transparent, disposal) per
    image block — index grids with interlacing already undone."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    if len(data) < 13:
        raise ValueError("truncated GIF header")
    sw, sh, flags, _bg, _ar = struct.unpack("<HHBBB", data[6:13])
    i = 13
    gct = None
    if flags & 0x80:
        gct_size = 2 << (flags & 0x07)
        if i + 3 * gct_size > len(data):
            raise ValueError("truncated GIF color table")
        gct = np.frombuffer(data[i : i + 3 * gct_size], np.uint8).reshape(-1, 3)
        i += 3 * gct_size
    transparent = None
    disposal = 0
    while i < len(data):
        b = data[i]
        if b == 0x3B:  # trailer
            break
        if b == 0x21:  # extension: remember GCE fields, skip blocks
            if i + 1 >= len(data):
                raise ValueError("truncated GIF extension")
            label = data[i + 1]
            i += 2
            first = True
            while i < len(data) and data[i] != 0:
                size = data[i]
                if label == 0xF9 and first and size >= 4:
                    disposal = (data[i + 1] >> 2) & 0x07
                    transparent = data[i + 4] if data[i + 1] & 1 else None
                first = False
                i += 1 + size
            i += 1  # block terminator
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02x}")
        if i + 10 > len(data):
            raise ValueError("truncated GIF image descriptor")
        left, top, w, h, iflags = struct.unpack("<HHHHB", data[i + 1 : i + 10])
        i += 10
        lct = gct
        if iflags & 0x80:
            lct_size = 2 << (iflags & 0x07)
            if i + 3 * lct_size > len(data):
                raise ValueError("truncated GIF color table")
            lct = np.frombuffer(data[i : i + 3 * lct_size], np.uint8).reshape(-1, 3)
            i += 3 * lct_size
        if lct is None:
            raise ValueError("GIF frame has no color table")
        if i >= len(data):
            raise ValueError("truncated GIF image data")
        min_code = data[i]
        i += 1
        sub = bytearray()
        while i < len(data) and data[i] != 0:
            size = data[i]
            sub += data[i + 1 : i + 1 + size]
            i += 1 + size
        i += 1
        idx = np.frombuffer(
            bytes(_lzw_decode(bytes(sub), min_code, w * h)), np.uint8
        )
        if len(idx) < w * h:  # truncated: pad with background-ish 0
            idx = np.concatenate([idx, np.zeros(w * h - len(idx), np.uint8)])
        grid = idx[: w * h].reshape(h, w)
        if iflags & 0x40:  # interlaced row order
            de = np.empty_like(grid)
            src = 0
            for start, step in _INTERLACE_PASSES:
                for r in range(start, h, step):
                    de[r] = grid[src]
                    src += 1
            grid = de
        yield (sw, sh), left, top, grid, lct, transparent, disposal
        transparent = None
        disposal = 0


def decode_gif_frames(data: bytes, max_frames: int | None = None):
    """Yield composited (H, W, 3) uint8 RGB frames of a (possibly
    animated) GIF, applying disposal methods over a white canvas:
    0/1 leave in place, 2 restore the frame rect to background (white),
    3 restore the previous canvas. Transparent pixels keep what the
    canvas holds — the standard frame-compositing model."""
    canvas = None
    emitted = 0
    for (sw, sh), left, top, grid, lct, transparent, disposal in _iter_raw_frames(data):
        if canvas is None:
            canvas = np.full((sh, sw, 3), 255, np.uint8)
        h, w = grid.shape
        if left + w > sw or top + h > sh:  # clip out-of-screen rects
            w = min(w, sw - left)
            h = min(h, sh - top)
            if w <= 0 or h <= 0:
                continue
            grid = grid[:h, :w]
        prev = canvas.copy() if disposal == 3 else None
        rgb = lct[np.minimum(grid, len(lct) - 1)]
        region = canvas[top : top + h, left : left + w]
        if transparent is not None:
            mask = (grid != transparent)[..., None]
            region[...] = np.where(mask, rgb, region)
        else:
            region[...] = rgb
        yield canvas.copy()
        emitted += 1
        if max_frames is not None and emitted >= max_frames:
            return
        if disposal == 2:
            canvas[top : top + h, left : left + w] = 255
        elif disposal == 3 and prev is not None:
            canvas = prev
    if emitted == 0:
        raise ValueError("GIF contains no image frame")


def decode_gif(data: bytes) -> np.ndarray:
    """GIF bytes -> (H, W, 3) uint8 RGB of the first (composited) frame."""
    return next(decode_gif_frames(data, max_frames=1))


def encode_gif_animation(frames, screen=None) -> bytes:
    """Multi-frame GIF89a writer (the test/interchange side of
    :func:`decode_gif_frames`). ``frames`` is a list of dicts:
    ``{"img": (h, w, 3) uint8, "left": 0, "top": 0, "disposal": 0,
    "transparent_mask": optional (h, w) bool}``. One global palette is
    built over all frame pixels (must stay ≤ 255 distinct colors — one
    index is reserved for transparency); partial-rect frames + disposal
    methods exercise the compositing model."""
    norm = []
    for f in frames:
        img = np.asarray(f["img"])
        if img.dtype != np.uint8 or img.ndim != 3 or img.shape[2] != 3:
            raise ValueError("animation frames must be uint8 (h, w, 3)")
        norm.append(
            {
                "img": img,
                "left": int(f.get("left", 0)),
                "top": int(f.get("top", 0)),
                "disposal": int(f.get("disposal", 0)),
                "mask": f.get("transparent_mask"),
            }
        )
    if not norm:
        raise ValueError("no frames")
    sw = max(f["left"] + f["img"].shape[1] for f in norm)
    sh = max(f["top"] + f["img"].shape[0] for f in norm)
    if screen is not None:
        sw, sh = max(sw, screen[0]), max(sh, screen[1])
    colors = np.unique(
        np.concatenate([f["img"].reshape(-1, 3) for f in norm]), axis=0
    )
    if len(colors) > 255:
        raise ValueError("animation palette over 255 colors; quantize first")
    trans_idx = len(colors)
    lut = {tuple(c): i for i, c in enumerate(colors)}
    size_pow = max(1, int(np.ceil(np.log2(max(trans_idx + 1, 2)))))
    table_len = 1 << size_pow
    pal = np.zeros((table_len, 3), np.uint8)
    pal[: len(colors)] = colors

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", sw, sh, 0x80 | (size_pow - 1), 0, 0)
    out += pal.tobytes()
    min_code = max(2, size_pow)
    for f in norm:
        h, w = f["img"].shape[:2]
        flat = f["img"].reshape(-1, 3)
        idx = np.fromiter(
            (lut[tuple(p)] for p in flat), dtype=np.uint8, count=len(flat)
        )
        tflag = 0
        if f["mask"] is not None:
            idx = np.where(f["mask"].reshape(-1), np.uint8(trans_idx), idx)
            tflag = 1
        out += bytes([0x21, 0xF9, 0x04, (f["disposal"] << 2) | tflag, 0, 0,
                      trans_idx, 0x00])
        out += b"\x2c" + struct.pack("<HHHHB", f["left"], f["top"], w, h, 0)
        out.append(min_code)
        lzw = _lzw_encode(idx.tobytes(), min_code)
        for off in range(0, len(lzw), 255):
            chunk = lzw[off : off + 255]
            out.append(len(chunk))
            out += chunk
        out += b"\x00"
    out += b"\x3b"
    return bytes(out)


def encode_gif(img: np.ndarray) -> bytes:
    """uint8 (H, W) gray or (H, W, 3) RGB -> single-frame GIF89a. Inputs
    with ≤256 distinct colors round-trip exactly (exact palette);
    true-color inputs quantize to a 6×7×6 cube (documented lossy)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("encode_gif expects uint8")
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=-1)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("expected (H, W) or (H, W, 3)")
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    flat = img.reshape(-1, 3)
    colors, inv = np.unique(flat, axis=0, return_inverse=True)
    if len(colors) <= 256:
        palette = colors
        indices = inv.astype(np.uint8)
    else:
        # fixed 6x7x6 cube: index = r6*42 + g7*6 + b6
        r = (flat[:, 0].astype(np.int64) * 6) // 256
        g = (flat[:, 1].astype(np.int64) * 7) // 256
        b = (flat[:, 2].astype(np.int64) * 6) // 256
        indices = (r * 42 + g * 6 + b).astype(np.uint8)
        rr = (np.arange(6) * 256 // 6 + 256 // 12).astype(np.uint8)
        gg = (np.arange(7) * 256 // 7 + 256 // 14).astype(np.uint8)
        bb = rr
        palette = np.stack(
            np.meshgrid(rr, gg, bb, indexing="ij"), axis=-1
        ).reshape(-1, 3)
    size_pow = max(1, int(np.ceil(np.log2(max(len(palette), 2)))))
    table_len = 1 << size_pow
    pal = np.zeros((table_len, 3), np.uint8)
    pal[: len(palette)] = palette

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (size_pow - 1), 0, 0)
    out += pal.tobytes()
    out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0)
    min_code = max(2, size_pow)
    out.append(min_code)
    lzw = _lzw_encode(indices.tobytes(), min_code)
    for off in range(0, len(lzw), 255):
        chunk = lzw[off : off + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3b"
    return bytes(out)
