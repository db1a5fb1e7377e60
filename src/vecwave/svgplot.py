"""Deterministic SVG emitters for sampled functions and 2D rasters.

Output bytes depend only on the numeric input: floats are printed with a
fixed format, nothing is timestamped, and rasters are embedded as
uncompressed BMP data URIs so no codec enters the picture.
"""

import base64
import math
import struct
import sys

import numpy as np

from .scalar import SampledFunction

__all__ = ["raster_svg", "step_polyline_svg"]

_WIDTH = 640.0
_HEIGHT = 360.0
_ML, _MR, _MT, _MB = 56.0, 14.0, 24.0, 32.0


def _f(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".6g")


def _text(x, y, s, anchor="start") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="monospace" font-size="11" '
        f'fill="#444" text-anchor="{anchor}">{s}</text>'
    )


def _header(parts: list):
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_WIDTH)}" '
        f'height="{_f(_HEIGHT)}" viewBox="0 0 {_f(_WIDTH)} {_f(_HEIGHT)}">'
    )
    parts.append(f'<rect x="0" y="0" width="{_f(_WIDTH)}" height="{_f(_HEIGHT)}" fill="#ffffff"/>')


def step_polyline_svg(f: SampledFunction, caption: str = "") -> str:
    """Piecewise-constant plot: one horizontal segment per sample cell."""
    values = np.asarray(f.values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError(f"need a nonempty 1D sample, got shape {values.shape}")
    n = len(values)
    step = f.step
    xs = (f.start + np.arange(n + 1)) * step
    # The y axis runs in units of 2**e, a power of two at least the largest
    # magnitude, so its span stays finite for any finite samples.  Scaling
    # by a power of two is exact (short of samples 2**-1022 times the
    # largest, which no pixel shows), so every coordinate and label is the
    # one the unscaled span gives wherever that span is finite.
    e = math.frexp(max(-float(values.min()), float(values.max()), 0.0))[1]
    values = np.ldexp(values, -e)
    ymin = min(float(values.min()), 0.0)
    ymax = max(float(values.max()), 0.0)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    def sx(x):
        return _ML + (x - xs[0]) / (xs[-1] - xs[0]) * (_WIDTH - _ML - _MR)

    def sy(y):
        return _HEIGHT - _MB - (y - ymin) / (ymax - ymin) * (_HEIGHT - _MT - _MB)

    def label(y):
        try:
            y = math.ldexp(y, e)
        except OverflowError:  # a padded bound rounded past the largest float
            y = math.copysign(sys.float_info.max, y)
        return _f(y)

    parts = []
    _header(parts)
    if caption:
        parts.append(_text(_ML, 15, caption))
    if ymin < 0.0 < ymax:
        y0 = sy(0.0)
        parts.append(
            f'<line x1="{_f(_ML)}" y1="{_f(y0)}" x2="{_f(_WIDTH - _MR)}" '
            f'y2="{_f(y0)}" stroke="#999999" stroke-width="1"/>'
        )
    if xs[0] < 0.0 < xs[-1]:
        x0 = sx(0.0)
        parts.append(
            f'<line x1="{_f(x0)}" y1="{_f(_MT)}" x2="{_f(x0)}" '
            f'y2="{_f(_HEIGHT - _MB)}" stroke="#999999" stroke-width="1"/>'
        )
    pts = []
    for i, v in enumerate(values):
        pts.append(f"{_f(sx(xs[i]))},{_f(sy(v))}")
        pts.append(f"{_f(sx(xs[i + 1]))},{_f(sy(v))}")
    parts.append(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#0a62a8" stroke-width="1.5"/>'
    )
    parts.append(_text(_ML, _HEIGHT - 10, _f(xs[0])))
    parts.append(_text(_WIDTH - _MR, _HEIGHT - 10, _f(xs[-1]), anchor="end"))
    parts.append(_text(_ML - 6, _HEIGHT - _MB, label(ymin + pad), anchor="end"))
    parts.append(_text(_ML - 6, _MT + 9, label(ymax - pad), anchor="end"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bmp_gray(gray: np.ndarray) -> bytes:
    # 24-bit bottom-up BMP; row j of the stored image is y index j, so the
    # displayed image keeps y increasing upward.
    nx, ny = gray.shape
    rows = np.repeat(gray.T[:, :, None], 3, axis=2).reshape(ny, 3 * nx)
    rowsize = (3 * nx + 3) // 4 * 4
    padded = np.zeros((ny, rowsize), dtype=np.uint8)
    padded[:, : 3 * nx] = rows
    data = padded.tobytes()
    header = struct.pack("<2sIHHI", b"BM", 54 + len(data), 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, nx, ny, 1, 24, 0, len(data), 2835, 2835, 0, 0)
    return header + info + data


def raster_svg(values: np.ndarray, start: tuple, level: int, caption: str = "") -> str:
    """Grayscale cell raster of a 2D sample grid (black = min, white = max)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"need a nonempty 2D sample, got shape {values.shape}")
    lo = float(values.min())
    hi = float(values.max())
    if hi > lo:
        gray = np.rint((values - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        gray = np.full(values.shape, 128, dtype=np.uint8)
    uri = "data:image/bmp;base64," + base64.b64encode(_bmp_gray(gray)).decode("ascii")
    step = 2.0**-level
    x0, y0 = start[0] * step, start[1] * step
    x1, y1 = x0 + values.shape[0] * step, y0 + values.shape[1] * step
    side = min(_WIDTH - _ML - _MR, _HEIGHT - _MT - _MB)
    parts = []
    _header(parts)
    if caption:
        parts.append(_text(_ML, 15, caption))
    parts.append(
        f'<image x="{_f(_ML)}" y="{_f(_MT)}" width="{_f(side)}" height="{_f(side)}" '
        f'preserveAspectRatio="none" image-rendering="pixelated" href="{uri}"/>'
    )
    parts.append(
        f'<rect x="{_f(_ML)}" y="{_f(_MT)}" width="{_f(side)}" height="{_f(side)}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    parts.append(_text(_ML, _HEIGHT - 10, f"x: [{_f(x0)}, {_f(x1)})"))
    parts.append(_text(_ML + side + 8, _HEIGHT - _MB, f"y: [{_f(y0)}, {_f(y1)})"))
    parts.append(_text(_ML + side + 8, _MT + 9, f"range [{_f(lo)}, {_f(hi)}]"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
