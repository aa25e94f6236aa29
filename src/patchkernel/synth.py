"""Deterministic synthetic retrieval corpus.

Each base image mixes oriented textures, blobs, bars, and a background
ramp; its four relatives apply one exact quarter-turn rotation, one
horizontal translation (at most 25% of the width), one rescale in
[0.8, 1.25], and one combination of all three. Relatives are the relevant
answers for their base in the generated ground truth.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .evaluation import save_ground_truth
from .raster import Image, scale_same_size, translate_circular, write_pgm

IMAGE_SIDE = 128


def make_base_image(rng: np.random.Generator, side: int = IMAGE_SIDE) -> Image:
    """One structured grayscale scene drawn from the given generator."""
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    canvas = np.zeros((side, side))

    # Background ramp with a random orientation.
    angle = rng.uniform(0.0, 2.0 * np.pi)
    canvas += rng.uniform(0.15, 0.4) * (
        (np.cos(angle) * xx + np.sin(angle) * yy) / side
    )

    for _ in range(rng.integers(3, 6)):
        cy, cx = rng.uniform(0.15 * side, 0.85 * side, size=2)
        sigma = rng.uniform(5.0, 14.0)
        amp = rng.uniform(0.35, 0.7) * rng.choice([-1.0, 1.0])
        canvas += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))

    for _ in range(rng.integers(1, 3)):
        cy, cx = rng.uniform(0.2 * side, 0.8 * side, size=2)
        extent = rng.uniform(12.0, 24.0)
        theta = rng.uniform(0.0, np.pi)
        freq = rng.uniform(0.15, 0.35)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        window = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * extent**2))
        stripes = np.sin(
            2.0 * np.pi * freq * (np.cos(theta) * (xx - cx) + np.sin(theta) * (yy - cy))
            + phase
        )
        canvas += rng.uniform(0.25, 0.5) * window * stripes

    for _ in range(rng.integers(1, 3)):
        cy, cx = rng.uniform(0.2 * side, 0.8 * side, size=2)
        theta = rng.uniform(0.0, np.pi)
        thickness = rng.uniform(1.5, 4.0)
        length = rng.uniform(0.2 * side, 0.45 * side)
        along = np.cos(theta) * (xx - cx) + np.sin(theta) * (yy - cy)
        across = -np.sin(theta) * (xx - cx) + np.cos(theta) * (yy - cy)
        bar = (np.abs(across) < thickness) & (np.abs(along) < length / 2.0)
        canvas += rng.uniform(0.3, 0.55) * rng.choice([-1.0, 1.0]) * bar

    lo, hi = canvas.min(), canvas.max()
    canvas = (canvas - lo) / (hi - lo) * 0.9 + 0.05
    return Image(canvas)


def make_relatives(rng: np.random.Generator, base: Image) -> dict[str, Image]:
    """The four transformed variants of a base image, keyed by suffix."""
    quarter_turns = int(rng.integers(1, 4))
    t = int(rng.integers(8, base.width // 4 + 1))
    s = float(rng.uniform(0.8, 1.25))
    mix_turns = int(rng.integers(1, 4))
    mix_t = int(rng.integers(6, 21))
    mix_s = float(rng.uniform(0.85, 1.18))
    return {
        "rot": Image(np.rot90(base.pixels, quarter_turns)),
        "tra": translate_circular(base, t),
        "sca": scale_same_size(base, s),
        "mix": Image(
            np.rot90(scale_same_size(translate_circular(base, mix_t), mix_s).pixels, mix_turns)
        ),
    }


def generate_corpus(out_dir: str | Path, n_base: int = 20, seed: int = 42) -> list[str]:
    """Write n_base * 5 PGM images plus groundtruth.csv; returns image ids.

    The same seed always produces byte-identical output. A base count below 1
    or a negative seed is refused before the directory is created.
    """
    if n_base < 1:
        raise ValueError(f"n_base must be >= 1, got {n_base}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    relevance: dict[str, dict[str, str]] = {}
    image_ids: list[str] = []
    for i in range(n_base):
        base_id = f"img{i:03d}"
        base = make_base_image(rng)
        write_pgm(out_dir / f"{base_id}.pgm", base)
        image_ids.append(base_id)
        labels: dict[str, str] = {}
        for suffix, relative in make_relatives(rng, base).items():
            rel_id = f"{base_id}_{suffix}"
            write_pgm(out_dir / f"{rel_id}.pgm", relative)
            image_ids.append(rel_id)
            labels[rel_id] = "rel"
        relevance[base_id] = labels
    save_ground_truth(out_dir / "groundtruth.csv", relevance)
    return sorted(image_ids)
