"""Every loader either reads a mutated file or refuses it with a FormatError."""

import numpy as np
import pytest

from patchkernel import index as index_mod
from patchkernel.embed import META_DTYPE, DescriptorSet, load_descriptors, save_descriptors
from patchkernel.encode import GMMModel, PCAModel, load_model, save_model
from patchkernel.errors import FormatError
from patchkernel.evaluation import load_ground_truth, save_ground_truth
from patchkernel.raster import Image, read_pgm, write_pgm


def write_sample_pgm(path):
    write_pgm(path, Image(np.random.default_rng(8).integers(0, 256, size=(8, 9)) / 255.0))


def write_sample_kdesc(path):
    values = np.random.default_rng(31).random((3, 4))
    values /= np.linalg.norm(values, axis=1, keepdims=True)
    meta = np.rec.fromarrays(
        [[0, 0, 1], [0, 0, 4], [0, 0, 2], [16, 16, 32], [16, 16, 32], [0, 1, 0], [0.5, 0.5, 0.25]],
        dtype=META_DTYPE,
    )
    save_descriptors(path, DescriptorSet("img000", meta, values))


def write_sample_kmdl(path):
    pca = PCAModel(
        mean=np.array([0.5, -1.0, 2.0, 0.25]),
        basis=np.array([[0.5, 0.5, -0.5, 0.5], [1.0, 0.0, 0.0, 0.0]]),
    )
    gmm = GMMModel(
        weights=np.array([0.25, 0.75]),
        means=np.array([[0.0, 1.0], [-2.0, 3.0]]),
        variances=np.array([[0.5, 1.5], [2.0, 0.125]]),
    )
    save_model(path, pca, gmm)


def write_sample_kidx(path):
    entries = [
        index_mod.IndexEntry("a", np.array([0.6, 0.8, 0.0])),
        index_mod.IndexEntry("bc", np.array([0.0, 0.6, -0.8])),
    ]
    index_mod.save(path, index_mod.build(entries))


def write_sample_gt(path):
    save_ground_truth(path, {"q1": {"a": "rel", "b": "junk"}, "q2": {"c": "nonrel"}})


FORMATS = {
    "pgm": (write_sample_pgm, read_pgm),
    "kdesc": (write_sample_kdesc, load_descriptors),
    "kmdl": (write_sample_kmdl, load_model),
    "kidx": (write_sample_kidx, index_mod.load),
    "groundtruth": (write_sample_gt, load_ground_truth),
}


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One random mutation: 1-4 bytes overwritten with random values, a
    truncation, or 1-8 random bytes inserted."""
    kind = rng.integers(3)
    if kind == 0:
        out = bytearray(data)
        for at in rng.integers(len(data), size=rng.integers(1, 5)):
            out[at] = rng.integers(256)
        return bytes(out)
    at = int(rng.integers(len(data) + 1))
    if kind == 1:
        return data[:at]
    return data[:at] + rng.bytes(int(rng.integers(1, 9))) + data[at:]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_mutated_file_loads_or_raises_format_error(fmt, tmp_path):
    write_sample, load = FORMATS[fmt]
    good = tmp_path / "good"
    write_sample(good)
    data = good.read_bytes()
    load(good)
    rng = np.random.default_rng(sorted(FORMATS).index(fmt))
    path = tmp_path / "mutated"
    refused = 0
    for _ in range(400):
        path.write_bytes(mutate(data, rng))
        try:
            load(path)
        except FormatError:
            refused += 1
    assert 0 < refused < 400
