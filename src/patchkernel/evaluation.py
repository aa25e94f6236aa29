"""Retrieval metrics (AP/mAP with junk handling, top-4) and the
transform-sensitivity harness that produces mean/std similarity curves.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .embed import cosine, embed_image_global
from .errors import FormatError, read_utf8
from .raster import Image, rotate_center_crop, scale_same_size, translate_circular

LABELS = ("rel", "nonrel", "junk")

TRANSLATE_GRID_STEPS = 16


class Transform(NamedTuple):
    """A sensitivity transform `apply(img, value)`, the value at which it is
    the identity, and `grid(width)`, its default grid for images `width` px wide."""

    apply: Callable[[Image, float], Image]
    identity: float
    grid: Callable[[int], list[float]]


TRANSFORMS = {  # translation: 16 even integer steps of [0, width]; scale: 0.5 .. 2.0
    "translate": Transform(translate_circular, 0, lambda width: sorted(
        {round(k * width / TRANSLATE_GRID_STEPS) for k in range(TRANSLATE_GRID_STEPS)})),
    "scale": Transform(scale_same_size, 1.0, lambda width: [i * 0.125 for i in range(4, 17)]),
    "rotate": Transform(rotate_center_crop, 0.0, lambda width: [i * 22.5 for i in range(16)]),
}


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


def _transform(kind: str) -> Transform:
    if kind not in TRANSFORMS:
        raise ValueError(f"unknown transform kind {kind!r}")
    return TRANSFORMS[kind]


def default_grid(kind: str, width: int) -> list[float]:
    """The default parameter grid of a transform kind for images `width` px wide."""
    return _transform(kind).grid(width)


def sensitivity_study(
    corpus: Sequence[tuple[str, Image]], kind: str, grid: Sequence[float]
) -> SensitivityCurve:
    """Similarity of each image's feature to its transformed versions.

    Grid values take the type of the identity parameter, so translations are
    whole pixels (7.6 -> 7). The reference feature is the one at the identity
    parameter (t=0 / s=1 / theta=0), which must therefore be on the grid so
    the curve is anchored at similarity 1.
    """
    transform = _transform(kind)
    if len(corpus) == 0:
        raise ValueError("sensitivity study needs a non-empty corpus")
    grid = [type(transform.identity)(value) for value in grid]
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("parameter grid must be strictly increasing")
    if transform.identity not in grid:
        raise ValueError(f"grid must contain the reference point {transform.identity} for {kind}")
    ref = grid.index(transform.identity)

    sims = np.empty((len(corpus), len(grid)))
    for row, (_, img) in enumerate(corpus):
        features = [embed_image_global(transform.apply(img, value)) for value in grid]
        sims[row] = [cosine(features[ref], feature) for feature in features]
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


def load_ground_truth(path: str | Path) -> dict[str, dict[str, str]]:
    """Read the query_id,image_id,label CSV (labels: rel / nonrel / junk)
    into query_id -> {image_id -> label}; a repeated pair is refused."""
    lines = read_utf8(path).strip().splitlines()
    relevance: dict[str, dict[str, str]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and line == "query_id,image_id,label":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected query_id,image_id,label")
        query_id, image_id, label = (p.strip() for p in parts)
        if label not in LABELS:
            raise FormatError(f"{path}:{lineno}: unknown label {label!r}")
        first = first_line.setdefault((query_id, image_id), lineno)
        if first != lineno:
            pair = f"({query_id}, {image_id})"
            raise FormatError(f"{path}:{lineno}: pair {pair} repeats line {first}")
        relevance.setdefault(query_id, {})[image_id] = label
    if not relevance:
        raise FormatError(f"{path}: ground truth file has no rows")
    return relevance


def save_ground_truth(path: str | Path, gt: dict[str, dict[str, str]]) -> None:
    lines = ["query_id,image_id,label"]
    for query_id in sorted(gt):
        for image_id, label in sorted(gt[query_id].items()):
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
