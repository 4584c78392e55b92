"""Dependency-free raster plotting: enough of a renderer, and a PNG
encoder, to emit the reference's probability-histogram PNG from a container
with no matplotlib, so the artifact is a real PNG.

Reference parity target:
  - `clustering/Probabilities/entrypoint.py:108` plot_histogram -> PNG

Deterministic by construction (no fonts, no locale, no backends): the same
inputs produce byte-identical PNGs everywhere. Everything renders into a
uint8 (h, w, 3) canvas; callers pass the array to ``save_png``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# 5x7 bitmap font (rows of 5-bit patterns, MSB = leftmost pixel).
# Lowercase + digits + the punctuation our labels use; text() lowercases.
_FONT: dict[str, tuple[int, ...]] = {
    "0": (0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E),
    "1": (0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "2": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F),
    "3": (0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E),
    "4": (0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02),
    "5": (0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E),
    "6": (0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E),
    "7": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08),
    "8": (0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E),
    "9": (0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C),
    "a": (0x00, 0x00, 0x0E, 0x01, 0x0F, 0x11, 0x0F),
    "b": (0x10, 0x10, 0x1E, 0x11, 0x11, 0x11, 0x1E),
    "c": (0x00, 0x00, 0x0E, 0x11, 0x10, 0x11, 0x0E),
    "d": (0x01, 0x01, 0x0F, 0x11, 0x11, 0x11, 0x0F),
    "e": (0x00, 0x00, 0x0E, 0x11, 0x1F, 0x10, 0x0E),
    "f": (0x06, 0x09, 0x08, 0x1C, 0x08, 0x08, 0x08),
    "g": (0x00, 0x0F, 0x11, 0x11, 0x0F, 0x01, 0x0E),
    "h": (0x10, 0x10, 0x1E, 0x11, 0x11, 0x11, 0x11),
    "i": (0x04, 0x00, 0x0C, 0x04, 0x04, 0x04, 0x0E),
    "j": (0x02, 0x00, 0x06, 0x02, 0x02, 0x12, 0x0C),
    "k": (0x10, 0x10, 0x12, 0x14, 0x18, 0x14, 0x12),
    "l": (0x0C, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "m": (0x00, 0x00, 0x1A, 0x15, 0x15, 0x15, 0x15),
    "n": (0x00, 0x00, 0x1E, 0x11, 0x11, 0x11, 0x11),
    "o": (0x00, 0x00, 0x0E, 0x11, 0x11, 0x11, 0x0E),
    "p": (0x00, 0x00, 0x1E, 0x11, 0x1E, 0x10, 0x10),
    "q": (0x00, 0x00, 0x0F, 0x11, 0x0F, 0x01, 0x01),
    "r": (0x00, 0x00, 0x16, 0x19, 0x10, 0x10, 0x10),
    "s": (0x00, 0x00, 0x0F, 0x10, 0x0E, 0x01, 0x1E),
    "t": (0x08, 0x08, 0x1C, 0x08, 0x08, 0x09, 0x06),
    "u": (0x00, 0x00, 0x11, 0x11, 0x11, 0x13, 0x0D),
    "v": (0x00, 0x00, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "w": (0x00, 0x00, 0x11, 0x11, 0x15, 0x15, 0x0A),
    "x": (0x00, 0x00, 0x11, 0x0A, 0x04, 0x0A, 0x11),
    "y": (0x00, 0x00, 0x11, 0x11, 0x0F, 0x01, 0x0E),
    "z": (0x00, 0x00, 0x1F, 0x02, 0x04, 0x08, 0x1F),
    ".": (0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C),
    "-": (0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00),
    "+": (0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00),
    "_": (0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1F),
    "=": (0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00),
    ":": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00),
    "/": (0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10),
    "%": (0x18, 0x19, 0x02, 0x04, 0x08, 0x13, 0x03),
    " ": (0, 0, 0, 0, 0, 0, 0),
}

#: categorical series colors (RGB) — label-0 blue, label-1 orange, then
#: green/red/purple for series beyond two
PALETTE = (
    (31, 119, 180),
    (255, 127, 14),
    (44, 160, 44),
    (214, 39, 40),
    (148, 103, 189),
)


class Canvas:
    """A white uint8 (h, w, 3) canvas with integer-pixel primitives."""

    def __init__(self, width: int, height: int):
        self.w = int(width)
        self.h = int(height)
        self.img = np.full((self.h, self.w, 3), 255, np.uint8)

    def _clip(self, x0: int, x1: int, y0: int, y1: int):
        return (
            max(0, min(self.w, x0)),
            max(0, min(self.w, x1)),
            max(0, min(self.h, y0)),
            max(0, min(self.h, y1)),
        )

    def fill_rect(self, x0, y0, x1, y1, color, alpha: float = 1.0):
        """Fill [x0,x1) x [y0,y1); alpha blends over what's already there."""
        x0, x1, y0, y1 = self._clip(int(x0), int(x1), int(y0), int(y1))
        if x0 >= x1 or y0 >= y1:
            return
        c = np.asarray(color, np.float64)
        if alpha >= 1.0:
            self.img[y0:y1, x0:x1] = c.astype(np.uint8)
        else:
            base = self.img[y0:y1, x0:x1].astype(np.float64)
            self.img[y0:y1, x0:x1] = (base * (1 - alpha) + c * alpha).astype(np.uint8)

    def hline(self, y, x0, x1, color):
        self.fill_rect(x0, y, x1, y + 1, color)

    def vline(self, x, y0, y1, color):
        self.fill_rect(x, y0, x + 1, y1, color)

    def text(self, x, y, s, color=(0, 0, 0), scale: int = 1):
        """Render ``s`` (lowercased; unknown chars become spaces) with the
        glyph's top-left at (x, y). Advance = 6*scale px per char."""
        x = int(x)
        y = int(y)
        for ch in str(s).lower():
            rows = _FONT.get(ch, _FONT[" "])
            for ry, bits in enumerate(rows):
                for rx in range(5):
                    if bits & (1 << (4 - rx)):
                        self.fill_rect(
                            x + rx * scale,
                            y + ry * scale,
                            x + (rx + 1) * scale,
                            y + (ry + 1) * scale,
                            color,
                        )
            x += 6 * scale


def _fmt(v: float) -> str:
    """Short tick label: 3 significant digits, no exponent for tame values."""
    if v == 0:
        return "0"
    a = abs(v)
    if 0.001 <= a < 100000:
        s = f"{v:.4g}"
    else:
        s = f"{v:.2e}"
    return s


_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 12, 16, 28


def _axes(cv: Canvas, x_lo, x_hi, y_lo, y_hi, y_ticks, x_ticks):
    """Draw the plot frame + tick labels; return the data->pixel mappers."""
    black = (0, 0, 0)
    px0, px1 = _MARGIN_L, cv.w - _MARGIN_R
    py0, py1 = _MARGIN_T, cv.h - _MARGIN_B
    cv.hline(py1, px0, px1, black)
    cv.vline(px0, py0, py1 + 1, black)

    def to_px(x):
        return px0 + (np.asarray(x, np.float64) - x_lo) / max(x_hi - x_lo, 1e-300) * (
            px1 - px0
        )

    def to_py(y):
        return py1 - (np.asarray(y, np.float64) - y_lo) / max(y_hi - y_lo, 1e-300) * (
            py1 - py0
        )

    for tv, lab in y_ticks:
        y = int(to_py(tv))
        cv.hline(y, px0 - 3, px0, black)
        cv.text(2, y - 3, lab, black)
    for tv, lab in x_ticks:
        x = int(to_px(tv))
        cv.vline(x, py1, py1 + 4, black)
        cv.text(x - 3 * len(lab), py1 + 6, lab, black)
    return to_px, to_py


def bar_chart(
    bin_lo: np.ndarray,
    series: dict[str, np.ndarray],
    bin_width: float,
    width: int = 640,
    height: int = 400,
    log_y: bool = True,
) -> np.ndarray:
    """Grouped translucent bar chart over shared bins (the reference
    histogram's shape: one bar series per label, alpha 0.5, log y)."""
    bin_lo = np.asarray(bin_lo, np.float64)
    cv = Canvas(width, height)
    max_count = max(int(np.max(s)) if len(s) else 0 for s in series.values())
    max_count = max(max_count, 1)
    if log_y:
        # log scale with 0-counts drawn as zero-height (floor at 1)
        y_hi = np.log10(max_count) or 1.0
        y_ticks = [
            (e, _fmt(10.0**e)) for e in range(0, int(np.ceil(y_hi)) + 1)
        ]
        y_lo_v, y_hi_v = 0.0, max(y_hi, 1e-9)
    else:
        y_lo_v, y_hi_v = 0.0, float(max_count)
        y_ticks = [(v, _fmt(v)) for v in np.linspace(0, max_count, 5)]
    x_lo, x_hi = float(bin_lo[0]), float(bin_lo[-1] + bin_width)
    x_ticks = [(v, _fmt(v)) for v in np.linspace(x_lo, x_hi, 6)]
    to_px, to_py = _axes(cv, x_lo, x_hi, y_lo_v, y_hi_v, y_ticks, x_ticks)

    for i, (name, counts) in enumerate(series.items()):
        counts = np.asarray(counts, np.float64)
        color = PALETTE[i % len(PALETTE)]
        vals = np.where(
            counts > 0, np.log10(np.maximum(counts, 1.0)), np.nan
        ) if log_y else counts
        zero_y = to_py(y_lo_v)
        for j, lo in enumerate(bin_lo):
            if counts[j] <= 0:
                continue
            x0 = int(to_px(lo)) + 1
            x1 = int(to_px(lo + bin_width))
            y = int(to_py(vals[j]))
            cv.fill_rect(x0, y, max(x1, x0 + 1), int(zero_y), color, alpha=0.5)
        # legend swatch + label, top-right
        ly = _MARGIN_T + 2 + i * 12
        cv.fill_rect(cv.w - 90, ly, cv.w - 78, ly + 8, color, alpha=0.5)
        cv.text(cv.w - 74, ly, name)
    return cv.img


def encode_png(img: np.ndarray) -> bytes:
    """Encode a uint8 ``(h, w, 3)`` RGB canvas as an 8-bit PNG. Every
    scanline uses the Up filter (each byte minus the one above it), which
    turns a chart's repeated rows into zeros for zlib."""
    img = np.ascontiguousarray(img, np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected an (h, w, 3) image, got shape {img.shape}")
    h, w = img.shape[:2]
    rows = img.reshape(h, w * 3)
    up = np.diff(rows, axis=0, prepend=np.zeros((1, w * 3), np.uint8))
    lines = np.hstack([np.full((h, 1), 2, np.uint8), up])

    def chunk(ctype: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # depth 8, color type RGB
    idat = zlib.compress(lines.tobytes())
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", idat)
        + chunk(b"IEND", b"")
    )


def save_png(path: str, img: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(encode_png(img))
