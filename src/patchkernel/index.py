"""Persisted linear-scan retrieval index scored by inner product.

Entries are held in image-id order, so query results never depend on
insertion order, and the KIDX serialization is canonical. Rows are held
as f32, as KIDX stores them, and scored in float64 a block of rows at a time.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import FormatError, check_header, check_length, refuse_first

KIDX_MAGIC = b"KIDX"
KIDX_VERSION = 1


@dataclass(frozen=True)
class IndexEntry:
    """One indexed image: unique id plus its (normalized) vector."""

    image_id: str
    values: np.ndarray


class Index:
    """Immutable exact-search index; scan cost is linear in the entry count."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        self._ids = ids
        self._matrix = matrix
        self._row_of = {image_id: row for row, image_id in enumerate(ids)}

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int | None:
        return self._matrix.shape[1] if len(self._ids) else None

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def __contains__(self, image_id: str) -> bool:
        return image_id in self._row_of

    def vector(self, image_id: str) -> np.ndarray:
        if image_id not in self._row_of:
            raise KeyError(f"image id {image_id!r} not in index")
        return self._matrix[self._row_of[image_id]].astype(np.float64)


def build(entries: list[IndexEntry]) -> Index:
    """Build an index; duplicate ids, dim mismatches and empty or non-finite
    vectors (once rounded to f32) name the offender."""
    rows: dict[str, np.ndarray] = {}
    dim: int | None = None
    for entry in entries:
        with np.errstate(over="ignore"):  # a value beyond f32 range becomes inf, refused below
            values = np.asarray(entry.values, dtype=np.float32)
        if values.ndim != 1:
            raise ValueError(f"entry {entry.image_id!r}: vector must be 1-D")
        if not values.size or not np.isfinite(values).all():
            raise ValueError(f"entry {entry.image_id!r}: vector must be non-empty and finite")
        if entry.image_id in rows:
            raise ValueError(f"duplicate image id {entry.image_id!r}")
        if dim is None:
            dim = values.shape[0]
        elif values.shape[0] != dim:
            raise ValueError(
                f"entry {entry.image_id!r}: dim {values.shape[0]} != index dim {dim}"
            )
        rows[entry.image_id] = values
    ids = sorted(rows)
    matrix = np.empty((len(ids), dim or 0), dtype=np.float32)
    for row, image_id in enumerate(ids):
        matrix[row] = rows[image_id]
    return Index(ids, matrix)


def search(index: Index, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by inner product; ties break by ascending image id."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        return []
    query = np.asarray(query, dtype=np.float64).ravel()
    if query.shape[0] != index.dim:
        raise ValueError(f"query dim {query.shape[0]} != index dim {index.dim}")
    if not np.isfinite(query).all():
        raise ValueError("query vector must be finite")
    scores = _scores(index._matrix, query)
    # Rows are in ascending id order, so a stable sort breaks ties by id.
    order = np.argsort(-scores, kind="stable")[:k]
    return [(index._ids[i], float(scores[i])) for i in order]


def _scores(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """float64 inner products of every f32 row with `query`, block by block."""
    # Eight rows are widened at a time into a float64 block that stays in
    # cache, so a query reads the f32 matrix once and never copies it whole.
    # Every BLAS call gets a full block (the tail is zero-padded), so every
    # row takes the same kernel path: a row's score does not depend on where
    # it sits, and identical rows tie exactly.
    scores = np.empty(len(matrix))
    block = np.empty((8, matrix.shape[1]))
    for start in range(0, len(matrix), len(block)):
        rows = matrix[start : start + len(block)]
        block[: len(rows)] = rows
        block[len(rows) :] = 0.0
        scores[start : start + len(rows)] = (block @ query)[: len(rows)]
    return scores


_KIDX_HEADER = struct.Struct("<4sIII")


def save(path: str | Path, index: Index) -> None:
    """Write the KIDX file; canonical entry order makes output byte-stable."""
    chunks = [_KIDX_HEADER.pack(KIDX_MAGIC, KIDX_VERSION, index._matrix.shape[1], len(index))]
    for row, image_id in enumerate(index._ids):
        encoded = image_id.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(np.ascontiguousarray(index._matrix[row], dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load(path: str | Path) -> Index:
    """Read a KIDX file; corrupt input raises a parse error naming the offset.

    A first pass reads only the ids, seeking past each row. Once it has shown
    that the file holds count x dim values, the matrix is allocated and each
    row is read straight into it, so the file is never held whole.
    """
    path = Path(path)
    with open(path, "rb") as f:
        dim, count = check_header(
            path, f.read(_KIDX_HEADER.size), _KIDX_HEADER, KIDX_MAGIC, KIDX_VERSION,
            ("dimension",), may_be_empty=True,
        )
        size = os.fstat(f.fileno()).st_size
        offset = _KIDX_HEADER.size
        value_offset: dict[str, int] = {}
        for _ in range(count):
            start = offset
            if offset + 4 > size:
                raise FormatError(f"{path}: truncated id length at byte offset {offset}")
            (id_len,) = struct.unpack("<I", _read(f, bytearray(4), path, offset))
            offset += 4
            if offset + id_len + 4 * dim > size:
                raise FormatError(f"{path}: truncated entry at byte offset {offset}")
            try:
                image_id = _read(f, bytearray(id_len), path, offset).decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: image id is not UTF-8 at byte offset {offset}") from None
            if image_id in value_offset:
                raise FormatError(f"{path}: duplicate image id {image_id!r} at byte offset {start}")
            offset += id_len
            value_offset[image_id] = offset
            offset += 4 * dim
        check_length(path, size, offset)
        ids = sorted(value_offset)
        matrix = np.empty((count, dim), "<f4")
        row_bytes = matrix.view(np.uint8)
        for row, image_id in enumerate(ids):
            _read(f, row_bytes[row], path, value_offset[image_id])
    # min and max propagate NaN and expose an infinity without a temporary
    # the size of the matrix; only a file that fails them is searched.
    if matrix.size and not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
        refuse_first(path, ~np.isfinite(matrix), lambda i: (
            "non-finite value", value_offset[ids[i // dim]] + 4 * (i % dim)
        ))
    return Index(ids, matrix)


def _read(f: BinaryIO, buf: bytearray | np.ndarray, path: Path, offset: int):
    """Fill `buf` from `f` at `offset` and return it; a file that ends sooner,
    having shrunk since its size was taken, is refused where it ends."""
    f.seek(offset)
    got = f.readinto(buf)
    if got < len(buf):
        raise FormatError(f"{path}: truncated at byte offset {offset + got}")
    return buf
