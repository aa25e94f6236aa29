"""Synthetic corpus generator tests."""

import numpy as np
import pytest

from patchkernel.evaluation import load_ground_truth
from patchkernel.raster import read_pgm
from patchkernel.synth import generate_corpus


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(a, n_base=3, seed=11)
    generate_corpus(b, n_base=3, seed=11)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(a, n_base=2, seed=1)
    generate_corpus(b, n_base=2, seed=2)
    assert (a / "img000.pgm").read_bytes() != (b / "img000.pgm").read_bytes()


def test_counts(tmp_path):
    out = tmp_path / "corpus"
    ids = generate_corpus(out, n_base=20, seed=42)
    assert len(ids) == 100
    assert len(list(out.glob("*.pgm"))) == 100
    gt = load_ground_truth(out / "groundtruth.csv")
    assert len(sorted(gt)) == 20
    for query in sorted(gt):
        labels = gt[query]
        assert len(labels) == 4
        assert all(v == "rel" for v in labels.values())


def test_referential_integrity_and_image_validity(tmp_path):
    out = tmp_path / "corpus"
    generate_corpus(out, n_base=4, seed=5)
    gt = load_ground_truth(out / "groundtruth.csv")
    for query in sorted(gt):
        assert (out / f"{query}.pgm").exists()
        for image_id in gt[query]:
            assert (out / f"{image_id}.pgm").exists()
    for path in out.glob("*.pgm"):
        img = read_pgm(path)
        assert img.pixels.shape == (128, 128)
        assert np.all(np.isfinite(img.pixels))


@pytest.mark.parametrize(
    "n_base, seed, message",
    [(0, 42, "n_base must be >= 1, got 0"), (2, -1, "seed must be >= 0, got -1")],
    ids=["n-base-0", "seed-minus-1"],
)
def test_bad_arguments_refused_before_the_directory_is_made(n_base, seed, message, tmp_path):
    out = tmp_path / "corpus"
    with pytest.raises(ValueError, match=message):
        generate_corpus(out, n_base=n_base, seed=seed)
    assert not out.exists()
