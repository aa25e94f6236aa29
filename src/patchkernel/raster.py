"""Grayscale raster container, geometric transform generators, and PGM I/O.

All pixel data is float64 in [0, 1], row-major. The three generators
(translate / scale / rotate) are the single-transform probes used by the
sensitivity harness and the synthetic corpus builder.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError

# Sources entering the pipeline (PGM files, synthetic corpora) must be at
# least this large; derived rasters (crops, rotation crops) may be smaller.
MIN_SOURCE_SIDE = 8
_MIN_RASTER_SIDE = 4

SCALE_MIN = 0.25
SCALE_MAX = 4.0

# One PGM header field: the whitespace and "#" comments (each to the end of
# its line) before it, then the field itself, empty at the end of the data.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


@dataclass(frozen=True)
class Image:
    """Immutable 2-D grayscale raster with values in [0, 1]."""

    pixels: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        pix = np.asarray(self.pixels, dtype=np.float64)
        if pix.ndim != 2:
            raise ValueError(f"image must be 2-D, got shape {pix.shape}")
        if pix.shape[0] < _MIN_RASTER_SIDE or pix.shape[1] < _MIN_RASTER_SIDE:
            raise ValueError(f"image too small: {pix.shape}, need >= {_MIN_RASTER_SIDE} per side")
        if not np.all(np.isfinite(pix)):
            raise ValueError("image contains non-finite pixels")
        if pix.min() < 0.0 or pix.max() > 1.0:
            raise ValueError("image pixels must lie in [0, 1]")
        pix = pix.copy()
        pix.flags.writeable = False
        object.__setattr__(self, "pixels", pix)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def translate_circular(img: Image, t: int) -> Image:
    """Shift the image t pixels to the left on an edge-padded double canvas.

    Column j of the output is column t+j of an M x 2N canvas whose left half
    is the image and whose right half replicates the rightmost column, so the
    result keeps the input size. t=0 is a bit-exact identity.
    """
    t = int(t)
    n = img.width
    if not 0 <= t <= n:
        raise ValueError(f"translation {t} out of range [0, {n}]")
    if t == 0:
        return Image(img.pixels)
    cols = np.minimum(np.arange(n) + t, n - 1)
    return Image(img.pixels[:, cols])


def scale_same_size(img: Image, s: float) -> Image:
    """Rescale by factor s about the image center, keeping the input size.

    Bilinear resampling; for s < 1 the region outside the shrunken content is
    edge-replicated, for s > 1 the output is the center crop of the enlarged
    image. s=1 is a bit-exact identity.
    """
    s = float(s)
    if not SCALE_MIN <= s <= SCALE_MAX:
        raise ValueError(f"scale {s} out of range [{SCALE_MIN}, {SCALE_MAX}]")
    if s == 1.0:
        return Image(img.pixels)
    m, n = img.pixels.shape
    cy, cx = (m - 1) / 2.0, (n - 1) / 2.0
    rows = cy + (np.arange(m) - cy) / s
    cols = cx + (np.arange(n) - cx) / s
    yy, xx = np.meshgrid(rows, cols, indexing="ij")
    return Image(_bilinear_sample(img.pixels, yy, xx))


def rotate_center_crop(img: Image, theta: float) -> Image:
    """Rotate by theta degrees about the center and crop the inscribed square.

    The output is the axis-aligned square of side floor(min(M, N)/sqrt(2))
    (forced even) centered on the image center, so no sample falls outside
    the source raster.
    """
    theta = float(theta)
    if not 0.0 <= theta < 360.0:
        raise ValueError(f"rotation {theta} out of range [0, 360)")
    return Image(_rotate_crop_array(img.pixels, theta))


def rotation_crop_side(height: int, width: int) -> int:
    """Side of the inscribed-square crop used by rotate_center_crop."""
    side = int(min(height, width) / math.sqrt(2.0))
    if side % 2 == 1:
        side -= 1
    return side


def _bilinear_sample(pix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample the last two axes of pix at fractional (row, col) positions, edge-replicated."""
    m, n = pix.shape[-2:]
    rows = np.clip(rows, 0.0, m - 1.0)
    cols = np.clip(cols, 0.0, n - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, m - 1)
    c1 = np.minimum(c0 + 1, n - 1)
    fr = rows - r0
    fc = cols - c0
    top = pix[..., r0, c0] * (1.0 - fc) + pix[..., r0, c1] * fc
    bot = pix[..., r1, c0] * (1.0 - fc) + pix[..., r1, c1] * fc
    return top * (1.0 - fr) + bot * fr


def _rotate_crop_array(pix: np.ndarray, theta: float) -> np.ndarray:
    """Inscribed-square rotation of the last two axes; theta in degrees CCW."""
    m, n = pix.shape[-2:]
    side = rotation_crop_side(m, n)
    if side < _MIN_RASTER_SIDE:
        raise ValueError(f"{m}x{n} raster too small to rotate-crop")
    cy, cx = (m - 1) / 2.0, (n - 1) / 2.0
    off_r = (m - side) // 2
    off_c = (n - side) // 2
    dr = np.arange(side)[:, None] + off_r - cy
    dc = np.arange(side)[None, :] + off_c - cx
    rad = math.radians(theta)
    cos_t, sin_t = math.cos(rad), math.sin(rad)
    # Inverse map of a visually counterclockwise rotation in (row, col)
    # coordinates; theta=90 reproduces np.rot90 exactly.
    src_r = cy + sin_t * dc + cos_t * dr
    src_c = cx + cos_t * dc - sin_t * dr
    return _bilinear_sample(pix, src_r, src_c)


def resize_bilinear(pix: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the last two axes of an array with corner-aligned bilinear sampling.

    Corner alignment keeps every sample inside the source raster, so no
    border pixel is ever extrapolated.
    """
    m, n = pix.shape[-2:]
    if (m, n) == (out_h, out_w):
        return pix.copy()
    rows = np.linspace(0.0, m - 1.0, out_h)
    cols = np.linspace(0.0, n - 1.0, out_w)
    yy, xx = np.meshgrid(rows, cols, indexing="ij")
    return _bilinear_sample(pix, yy, xx)


def read_pgm(path: str | Path) -> Image:
    """Read a binary PGM (P5, maxval 255); intensities map to v/255."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise FormatError(f"{path}: not a P5 PGM (bad magic at byte offset 0)")
    pos = 2
    fields: list[int] = []
    offsets: list[int] = []
    for _ in range(3):
        token = _PGM_TOKEN.match(data, pos)
        if not token[1].isdigit():
            raise FormatError(f"{path}: bad header token at byte offset {token.start(1)}")
        fields.append(int(token[1]))
        offsets.append(token.start(1))
        pos = token.end()
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(
            f"{path}: unsupported maxval {maxval} at byte offset {offsets[2]}, expected 255"
        )
    if height < MIN_SOURCE_SIDE or width < MIN_SOURCE_SIDE:
        offset = offsets[0] if width < MIN_SOURCE_SIDE else offsets[1]
        raise FormatError(
            f"{path}: {width}x{height} below minimum source size {MIN_SOURCE_SIDE} "
            f"at byte offset {offset}"
        )
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    raw = data[pos : pos + expected]
    if len(raw) != expected:
        raise FormatError(
            f"{path}: truncated pixel data at byte offset {pos + len(raw)}, "
            f"expected {expected} bytes"
        )
    pix = np.frombuffer(raw, dtype=np.uint8).reshape(height, width)
    return Image(pix.astype(np.float64) / 255.0)


def write_pgm(path: str | Path, img: Image) -> None:
    """Write a binary PGM (P5, maxval 255); intensities map as round(v*255)."""
    pix = np.clip(np.rint(img.pixels * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pix.tobytes())
