"""Retrieval metrics (AP/mAP with junk handling, top-4) and the
transform-sensitivity harness that produces mean/std similarity curves.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import cosine, embed_image_global
from .errors import FormatError
from .raster import Image, rotate_center_crop, scale_same_size, translate_circular

LABELS = ("rel", "nonrel", "junk")

TRANSLATE_GRID_STEPS = 16
SCALE_GRID = tuple(i * 0.125 for i in range(4, 17))  # 0.5 .. 2.0 through 1.0
ROTATE_GRID = tuple(i * 22.5 for i in range(16))


@dataclass
class GroundTruth:
    """Per-query relevance labels: query_id -> {image_id -> label}."""

    relevance: dict[str, dict[str, str]]

    def queries(self) -> list[str]:
        return sorted(self.relevance)

    def labels_for(self, query_id: str) -> dict[str, str]:
        if query_id not in self.relevance:
            raise KeyError(f"unknown query id {query_id!r}")
        return self.relevance[query_id]


def average_precision(ranked_ids: Sequence[str], labels: dict[str, str]) -> float:
    """AP of one ranked list: junk ids are removed first, then the mean of
    precision at each relevant hit over the total relevant count."""
    if len(set(ranked_ids)) != len(ranked_ids):
        raise ValueError("ranked list contains duplicate ids")
    total_relevant = sum(1 for label in labels.values() if label == "rel")
    if total_relevant == 0:
        raise ValueError("query has no relevant images; AP undefined")
    kept = [i for i in ranked_ids if labels.get(i) != "junk"]
    hits = 0
    precision_sum = 0.0
    for rank, image_id in enumerate(kept, start=1):
        if labels.get(image_id) == "rel":
            hits += 1
            precision_sum += hits / rank
    return precision_sum / total_relevant


def top4_score(ranked_ids: Sequence[str], labels: dict[str, str], query_id: str) -> float:
    """Count of relevant images, the query included, among the first four results (0..4)."""
    correct = 0
    for image_id in list(ranked_ids)[:4]:
        if labels.get(image_id) == "rel":
            correct += 1
        elif image_id == query_id:
            correct += 1
    return float(correct)


@dataclass
class SensitivityCurve:
    """Mean/std of self-similarity per transform parameter value."""

    kind: str
    grid: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    count: int = 0

    def __post_init__(self) -> None:
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("parameter grid must be strictly increasing")


_REFERENCE = {"translate": 0, "scale": 1.0, "rotate": 0.0}


def _apply(img: Image, kind: str, value: float) -> Image:
    if kind == "translate":
        return translate_circular(img, int(value))
    if kind == "scale":
        return scale_same_size(img, float(value))
    return rotate_center_crop(img, float(value))


def default_grid(kind: str, width: int) -> list[float]:
    """Harness default grids; translation uses 16 even integer steps of [0, width]."""
    if kind == "translate":
        return sorted({int(round(k * width / TRANSLATE_GRID_STEPS)) for k in range(TRANSLATE_GRID_STEPS)})
    if kind == "scale":
        return list(SCALE_GRID)
    if kind == "rotate":
        return list(ROTATE_GRID)
    raise ValueError(f"unknown transform kind {kind!r}")


def sensitivity_study(
    corpus: Sequence[tuple[str, Image]], kind: str, grid: Sequence[float]
) -> SensitivityCurve:
    """Similarity of each image's feature to its transformed versions.

    For every image the reference feature is extracted at the identity
    parameter (t=0 / s=1 / theta=0), which must therefore be on the grid so
    the curve is anchored at similarity 1.
    """
    if kind not in _REFERENCE:
        raise ValueError(f"unknown transform kind {kind!r}")
    if len(corpus) == 0:
        raise ValueError("sensitivity study needs a non-empty corpus")
    grid = list(grid)
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("parameter grid must be strictly increasing")
    reference = _REFERENCE[kind]
    if reference not in grid:
        raise ValueError(f"grid must contain the reference point {reference} for {kind}")

    sims = np.empty((len(corpus), len(grid)))
    for row, (_, img) in enumerate(corpus):
        ref_feature = embed_image_global(_apply(img, kind, reference))
        for col, value in enumerate(grid):
            sims[row, col] = cosine(ref_feature, embed_image_global(_apply(img, kind, value)))
    return SensitivityCurve(
        kind=kind,
        grid=np.asarray(grid, dtype=np.float64),
        mean=sims.mean(axis=0),
        std=sims.std(axis=0),
        count=len(corpus),
    )


def write_curve_csv(path: str | Path, curve: SensitivityCurve) -> None:
    lines = ["param,mean,std,count"]
    for value, mean, std in zip(curve.grid, curve.mean, curve.std):
        lines.append(f"{value:.6f},{mean:.6f},{std:.6f},{curve.count}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Read the query_id,image_id,label CSV (labels: rel / nonrel / junk)."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    lines = text.strip().splitlines()
    relevance: dict[str, dict[str, str]] = {}
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and line == "query_id,image_id,label":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected query_id,image_id,label")
        query_id, image_id, label = (p.strip() for p in parts)
        if label not in LABELS:
            raise ValueError(f"{path}:{lineno}: unknown label {label!r}")
        relevance.setdefault(query_id, {})[image_id] = label
    if not relevance:
        raise ValueError(f"{path}: ground truth file has no rows")
    return GroundTruth(relevance=relevance)


def save_ground_truth(path: str | Path, gt: GroundTruth) -> None:
    lines = ["query_id,image_id,label"]
    for query_id in gt.queries():
        for image_id, label in sorted(gt.relevance[query_id].items()):
            lines.append(f"{query_id},{image_id},{label}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_metric_report(
    path: str | Path, rows: list[tuple[str, float]], overall: float, mode: str = "map"
) -> None:
    """Per-query metric CSV with a final ALL row holding the dataset mean."""
    header = "query_id,ap" if mode == "map" else "query_id,top4"
    lines = [header]
    for query_id, value in rows:
        lines.append(f"{query_id},{value:.6f}")
    lines.append(f"ALL,{overall:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
