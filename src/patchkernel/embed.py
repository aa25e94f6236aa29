"""Patch descriptors: gradient-orientation histograms on a fixed grid.

The built-in embedder turns any P x P raster into a 128-D unit vector
(4 x 4 spatial cells x 8 orientation bins, magnitude weighted, soft-binned
in orientation). Externally computed descriptors can be ingested through
the KDESC container instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import check_header, check_length, refuse_first
from .raster import Image, resize_bilinear

PATCH_SIDE = 32
GRID_CELLS = 4
ORIENT_BINS = 8
DESCRIPTOR_DIM = GRID_CELLS * GRID_CELLS * ORIENT_BINS
ROTATION_COUNT = 8  # rotated copies per patch; KDESC rotation indices lie below it

KDESC_MAGIC = b"KDSC"
KDESC_VERSION = 1

# Spatial cell of each pixel is fixed by position; precompute the flat
# (cell * ORIENT_BINS) offset once.
_CELL_OFFSET = (
    (np.arange(PATCH_SIDE)[:, None] // (PATCH_SIDE // GRID_CELLS)) * GRID_CELLS
    + np.arange(PATCH_SIDE)[None, :] // (PATCH_SIDE // GRID_CELLS)
) * ORIENT_BINS


def _quarter_turn_columns() -> np.ndarray:
    """Row m is the column index T applied m times, where embed_patches(rot90(x))
    equals embed_patches(x)[:, T] up to rounding: cell (r, c) takes cell
    (c, 3 - r) of the unturned raster and bin b takes its bin b + 2."""
    r, c, b = np.ogrid[:GRID_CELLS, :GRID_CELLS, :ORIENT_BINS]
    turn = ((c * GRID_CELLS + GRID_CELLS - 1 - r) * ORIENT_BINS + (b + 2) % ORIENT_BINS).ravel()
    rows = [np.arange(DESCRIPTOR_DIM)]
    for _ in range(3):
        rows.append(rows[-1][turn])
    return np.stack(rows)


_TURN_COLUMNS = _quarter_turn_columns()

# Rasters embedded per block. Whole-stack temporaries (~20 of them, each
# n x P x P float64) are faulted in afresh for every image; at 32 rasters
# each is 256 KB, stays in L2, and the allocator reuses its heap pages.
_EMBED_BLOCK = 32


def embed_patches(rasters: np.ndarray) -> np.ndarray:
    """Embed a batch of (n, P, P) rasters into (n, DESCRIPTOR_DIM) unit rows.

    Gradient orientations are soft-assigned to the two nearest of 8 bins with
    magnitude weighting; rows with no gradient at all (constant patches) map
    to the uniform unit vector so cosine stays well defined.
    """
    rasters = np.asarray(rasters, dtype=np.float64)
    if rasters.ndim != 3 or rasters.shape[1:] != (PATCH_SIDE, PATCH_SIDE):
        raise ValueError(
            f"expected rasters of shape (n, {PATCH_SIDE}, {PATCH_SIDE}), got {rasters.shape}"
        )
    # Every row depends on its own raster only, so blocks give the same bits.
    out = np.empty((rasters.shape[0], DESCRIPTOR_DIM))
    for start in range(0, len(rasters), _EMBED_BLOCK):
        block = rasters[start : start + _EMBED_BLOCK]
        out[start : start + len(block)] = _embed_block(block)
    return out


def _embed_block(rasters: np.ndarray) -> np.ndarray:
    """The histogram embedding of a few (n, P, P) float64 rasters."""
    n = rasters.shape[0]
    gy = np.gradient(rasters, axis=1)
    gx = np.gradient(rasters, axis=2)
    mag = np.sqrt(gx * gx + gy * gy)  # symmetric in gx, gy and their signs: quarter turns keep it exact
    orient = np.arctan2(gy, gx)  # [-pi, pi]

    bin_pos = orient / (2.0 * np.pi / ORIENT_BINS)
    low = np.floor(bin_pos)
    frac = bin_pos - low
    low_bin = low.astype(np.int64) & (ORIENT_BINS - 1)  # == % ORIENT_BINS, a power of two
    high_bin = (low_bin + 1) & (ORIENT_BINS - 1)

    base = (
        np.arange(n, dtype=np.int64)[:, None, None] * DESCRIPTOR_DIM + _CELL_OFFSET
    )
    hist = np.bincount(
        (base + low_bin).ravel(),
        weights=(mag * (1.0 - frac)).ravel(),
        minlength=n * DESCRIPTOR_DIM,
    )
    hist += np.bincount(
        (base + high_bin).ravel(),
        weights=(mag * frac).ravel(),
        minlength=n * DESCRIPTOR_DIM,
    )
    hist = hist.reshape(n, DESCRIPTOR_DIM)

    norms = np.linalg.norm(hist, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        hist[zero] = 1.0 / np.sqrt(DESCRIPTOR_DIM)
        norms[zero] = 1.0
    return hist / norms[:, None]


def quarter_turn_copies(desc_pairs: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """The (n, 8, D) descriptors of every patch's 8 rotated copies from its 2 embedded rasters.

    desc_pairs (n, 2, D) embeds each patch's canonical quarter turn rot90(base, k)
    and its 45 degree tilt; turns (n,) holds k (see proposals.augment_rotations).
    Copy j, the base turned by 45 j degrees, is pair j % 2 with the quarter-turn
    column permutation applied (j // 2 - k) mod 4 times, within ~1e-14 of
    embedding that copy's own raster.
    """
    desc_pairs = np.asarray(desc_pairs, dtype=np.float64)
    if desc_pairs.ndim != 3 or desc_pairs.shape[1:] != (2, DESCRIPTOR_DIM):
        raise ValueError(
            f"expected pairs of shape (n, 2, {DESCRIPTOR_DIM}), got {desc_pairs.shape}"
        )
    copies = np.arange(ROTATION_COUNT)
    steps = (copies // 2 - np.asarray(turns)[:, None]) % 4
    return np.take_along_axis(desc_pairs[:, copies % 2], _TURN_COLUMNS[steps], axis=2)


def embed_patch(raster: np.ndarray) -> np.ndarray:
    """Embed one P x P raster; wrong size raises a shape error."""
    raster = np.asarray(raster, dtype=np.float64)
    if raster.shape != (PATCH_SIDE, PATCH_SIDE):
        raise ValueError(f"expected a {PATCH_SIDE}x{PATCH_SIDE} raster, got {raster.shape}")
    return embed_patches(raster[None])[0]


def embed_image_global(img: Image) -> np.ndarray:
    """Whole-image descriptor: resize to P x P and embed as a single patch."""
    return embed_patch(resize_bilinear(img.pixels, PATCH_SIDE, PATCH_SIDE))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two (unit) descriptors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    return float(np.dot(a, b))


def sum_pool(descriptors: np.ndarray) -> np.ndarray:
    """Order-independent sum of descriptor rows.

    Rows are summed in canonical (lexicographic) order, so any permutation of
    the same multiset produces a bit-identical result.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    order = np.lexsort(descriptors.T[::-1])
    return descriptors[order].sum(axis=0)


# Provenance of one descriptor row: its source patch and rotation copy. A KDESC
# record is these fields followed by the f32 values.
META_DTYPE = np.dtype(
    [
        ("patch_id", "<u4"),
        ("x", "<u4"),
        ("y", "<u4"),
        ("w", "<u4"),
        ("h", "<u4"),
        ("rotation_index", "u1"),
        ("objectness", "<f4"),
    ]
)


@dataclass
class DescriptorSet:
    """All descriptors of one image, ordered by (patch_id, rotation_index)."""

    image_id: str
    meta: np.recarray  # (n,) records of META_DTYPE
    values: np.ndarray  # (n, dim); float32 or float64 as given, any other dtype widens to float64

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.dtype not in (np.float32, np.float64):
            self.values = self.values.astype(np.float64)
        if self.values.ndim != 2 or self.values.shape[0] == 0:
            raise ValueError("descriptor set must be a non-empty (n, dim) matrix")
        if not isinstance(self.meta, np.recarray) or self.meta.dtype != META_DTYPE:
            raise ValueError("descriptor metadata must be a record array of META_DTYPE")
        if len(self.meta) != self.values.shape[0]:
            raise ValueError(
                f"metadata rows ({len(self.meta)}) != descriptor rows ({self.values.shape[0]})"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[1]


_KDESC_HEADER = struct.Struct("<4sIII")


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype(META_DTYPE.descr + [("values", "<f4", (dim,))])


def _checked_values(path: Path, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """KDESC records' float64 values and row norms. Refuses, naming the record
    and its byte offset, a rotation index above 7, a non-finite objectness and
    a non-finite or all-zero row."""

    def refuse(bad: np.ndarray, field: str, problem: Callable[[int], str]) -> None:
        at = _KDESC_HEADER.size + records.dtype.fields[field][1]
        size = records.dtype.itemsize
        refuse_first(path, bad, lambda i: (f"record {i}: {problem(i)}", at + i * size))

    rotation = records["rotation_index"]
    refuse(rotation >= ROTATION_COUNT, "rotation_index",
           lambda i: f"rotation index {rotation[i]} not in 0..{ROTATION_COUNT - 1}")
    refuse(~np.isfinite(records["objectness"]), "objectness", lambda i: "non-finite objectness")
    finite = np.isfinite(records["values"]).all(axis=1)
    with np.errstate(invalid="ignore"):  # a signalling NaN row is refused below
        values = records["values"].astype(np.float64)
    norms = np.linalg.norm(values, axis=1)
    refuse(~finite | (norms == 0.0), "values",
           lambda i: f"{'zero-norm' if finite[i] else 'non-finite'} descriptor values")
    return values, norms


def save_descriptors(path: str | Path, dset: DescriptorSet) -> None:
    """Write a KDESC file (little-endian, f32 descriptor payload); a record that
    load_descriptors would refuse is refused before the file is created."""
    records = np.empty(len(dset.meta), dtype=_record_dtype(dset.dim))
    records[list(META_DTYPE.names)] = dset.meta
    with np.errstate(over="ignore"):  # a value beyond f32 range becomes inf, refused below
        records["values"] = dset.values
    _checked_values(Path(path), records)
    header = _KDESC_HEADER.pack(KDESC_MAGIC, KDESC_VERSION, dset.dim, len(records))
    Path(path).write_bytes(header + records.tobytes())


def load_descriptors(path: str | Path) -> DescriptorSet:
    """Read a KDESC file; every descriptor is re-normalized to unit L2.

    The image id is taken from the file stem (the format carries none).
    Malformed input raises a parse error naming the failing byte offset.
    """
    path = Path(path)
    data = path.read_bytes()
    dim, count = check_header(
        path, data, _KDESC_HEADER, KDESC_MAGIC, KDESC_VERSION,
        ("descriptor dimension", "record count"),
    )
    # Sized in Python ints first: a huge dim in a short file must not reach
    # the record dtype, whose shape has to fit a C int.
    check_length(path, len(data), _KDESC_HEADER.size + count * (_record_dtype(0).itemsize + 4 * dim))
    records = np.frombuffer(data, dtype=_record_dtype(dim), count=count, offset=_KDESC_HEADER.size)
    values, norms = _checked_values(path, records)
    # Rows already unit within the descriptor invariant are kept verbatim so
    # export -> import -> export is byte-stable; anything else is rescaled.
    off_unit = np.abs(norms - 1.0) > 1e-6
    values[off_unit] /= norms[off_unit, None]

    meta = records[list(META_DTYPE.names)].astype(META_DTYPE).view(np.recarray)
    return DescriptorSet(image_id=path.stem, meta=meta, values=values)
