"""Descriptor-set encoding: PCA reduction, diagonal-GMM training by EM,
Fisher-score aggregation, and the brute-force match kernel it factorizes.

The per-descriptor map phi(x) concatenates the soft-assignment-weighted
gradients of the mixture log-density with respect to component means and
variances, scaled by the closed-form inverse-square-root Fisher information
(1/sqrt(w_k) for mean blocks, 1/sqrt(2 w_k) for variance blocks). Summing
phi over a set and taking inner products reproduces the pairwise match
kernel exactly, which is what makes one vector per image sufficient.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, TrainingError

KMDL_MAGIC = b"KMDL"
KMDL_VERSION = 1

EM_MAX_ITER = 100
EM_MAX_SAMPLES = 16_384
EM_REL_TOL = 1e-6
VARIANCE_FLOOR_FACTOR = 1e-4

NORMALIZATION_POLICIES = ("improved", "raw")


@dataclass(frozen=True)
class PCAModel:
    """Affine projection onto the top principal directions.

    With whitening enabled the 1/sqrt(eigenvalue) scaling is folded into the
    basis rows; otherwise rows are orthonormal.
    """

    mean: np.ndarray  # (input_dim,)
    basis: np.ndarray  # (out_dim, input_dim)
    whitened: bool = False

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def out_dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class GMMModel:
    """Diagonal-covariance Gaussian mixture."""

    weights: np.ndarray  # (V,)
    means: np.ndarray  # (V, D)
    variances: np.ndarray  # (V, D)
    log_likelihoods: tuple[float, ...] = field(default=(), compare=False)

    @property
    def components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class FisherVector:
    """Image-level aggregate of per-descriptor Fisher scores, length 2*D*V."""

    values: np.ndarray
    normalized: bool

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("Fisher vector contains non-finite entries")
        object.__setattr__(self, "values", values)


def pca_train(data: np.ndarray, out_dim: int, whiten: bool = False) -> PCAModel:
    """Fit mean-centered PCA; basis rows are top eigenvectors of the covariance.

    Each row's largest-magnitude entry is made positive so the sign is
    reproducible. Raises a training error when there are fewer than
    out_dim + 1 samples or the data rank falls below out_dim.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (n, dim) data, got shape {data.shape}")
    n, dim = data.shape
    if out_dim < 1 or out_dim > dim:
        raise ValueError(f"output dim {out_dim} outside 1..{dim}")
    if n < out_dim + 1:
        raise TrainingError(f"PCA needs at least {out_dim + 1} samples, got {n}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    rank = int(np.sum(eigvals > max(eigvals[0], 0.0) * 1e-10))
    if rank < out_dim:
        raise TrainingError(f"data rank {rank} below requested dimension {out_dim}")
    basis = eigvecs[:, :out_dim].T.copy()
    flip = basis[np.arange(out_dim), np.argmax(np.abs(basis), axis=1)] < 0
    basis[flip] *= -1.0
    if whiten:
        basis /= np.sqrt(eigvals[:out_dim])[:, None]
    return PCAModel(mean=mean, basis=basis, whitened=whiten)


def pca_project(model: PCAModel, vectors: np.ndarray) -> np.ndarray:
    """Project one vector or a batch: basis @ (v - mean)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[-1] != model.input_dim:
        raise ValueError(
            f"vector dim {vectors.shape[-1]} != model input dim {model.input_dim}"
        )
    return (vectors - model.mean) @ model.basis.T


def _kmeanspp_centers(data: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding: each new center is drawn proportionally to the
    squared distance from the nearest already-chosen one."""
    n = data.shape[0]
    centers = np.empty((count, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for k in range(1, count):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[k] = data[idx]
        d2 = np.minimum(d2, np.sum((data - centers[k]) ** 2, axis=1))
    return centers


def _e_step(model: GMMModel, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (n, V) and per-row log-likelihoods (n, 1) of the
    statistics [x, x^2], from one product against [mu/var, -1/(2 var)]."""
    # Degenerate variances make these non-finite; gmm_train and FisherVector
    # turn that into errors, so suppress the warnings.
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_var = 1.0 / model.variances
        const = np.log(model.weights) - 0.5 * (
            model.dim * np.log(2.0 * np.pi)
            + np.sum(np.log(model.variances), axis=1)
            + np.sum(model.means**2 * inv_var, axis=1)
        )
        joint = stats @ np.hstack([model.means * inv_var, -0.5 * inv_var]).T
        joint += const
        peak = joint.max(axis=1, keepdims=True)
        joint -= peak
        np.exp(joint, out=joint)
        total = joint.sum(axis=1, keepdims=True)
        return np.divide(joint, total, out=joint), peak + np.log(total)


def gmm_train(data: np.ndarray, components: int, seed: int) -> GMMModel:
    """Fit a diagonal GMM by EM from a k-means++ seeding.

    With more than EM_MAX_SAMPLES (16,384) rows, EM runs on a sorted random
    subset of that size, drawn from the seed's generator before the
    k-means++ seeding; smaller inputs are used whole. Fewer than 10 fitted
    rows per component is a training error, raised before any EM work.
    Stops when the relative average log-likelihood improvement drops below
    1e-6 or after 100 iterations; the average log-likelihood of every
    iteration is recorded on the returned model. A variance floor of
    1e-4 x (mean per-dimension variance of the fitted rows) is applied at
    every M-step.

    Each iteration is two matrix products over the fixed (n, 2D) statistics
    [x, x^2]: one against [mu/var, -1/(2 var)] for the E-step and one of the
    responsibilities against the statistics for both M-step moments.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"expected (n, dim) data, got shape {data.shape}")
    n, dim = data.shape
    if components < 1:
        raise ValueError(f"component count must be >= 1, got {components}")
    fitted = min(n, EM_MAX_SAMPLES)
    if fitted < 10 * components:
        raise TrainingError(
            f"GMM with {components} components needs at least {10 * components} samples, "
            f"got {fitted} (EM fits at most {EM_MAX_SAMPLES})"
        )
    rng = np.random.default_rng(seed)
    if n > EM_MAX_SAMPLES:
        data = data[np.sort(rng.choice(n, EM_MAX_SAMPLES, replace=False))]
        n = EM_MAX_SAMPLES
    floor = VARIANCE_FLOOR_FACTOR * float(np.mean(np.var(data, axis=0)))

    weights = np.full(components, 1.0 / components)
    means = _kmeanspp_centers(data, components, rng)
    variances = np.maximum(np.tile(np.var(data, axis=0), (components, 1)), floor)
    stats = np.hstack([data, data**2])

    history: list[float] = []
    prev_ll = -np.inf
    for iteration in range(EM_MAX_ITER):
        resp, log_lik = _e_step(GMMModel(weights, means, variances), stats)
        avg_ll = float(np.mean(log_lik))
        if not np.isfinite(avg_ll):
            raise TrainingError(f"non-finite log-likelihood at iteration {iteration}")
        history.append(avg_ll)
        if np.isfinite(prev_ll) and avg_ll - prev_ll < EM_REL_TOL * abs(prev_ll):
            break
        prev_ll = avg_ll

        mass = resp.sum(axis=0)
        moments = resp.T @ stats
        occupied = mass > 1e-10
        new_means = means.copy()
        new_vars = variances.copy()
        new_means[occupied] = moments[occupied, :dim] / mass[occupied, None]
        second = moments[occupied, dim:] / mass[occupied, None]
        new_vars[occupied] = second - new_means[occupied] ** 2
        weights = np.maximum(mass / n, 1e-12)
        weights /= weights.sum()
        means = new_means
        variances = np.maximum(new_vars, floor)

    return GMMModel(
        weights=weights,
        means=means,
        variances=variances,
        log_likelihoods=tuple(history),
    )


def fv_contribution(model: GMMModel, x: np.ndarray) -> np.ndarray:
    """Per-descriptor Fisher score phi(x), unnormalized, length 2*D*V.

    Layout: V mean-gradient blocks of length D, then V variance-gradient
    blocks. Densities are evaluated in the log domain, so far-away points
    cannot underflow into errors.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ValueError(f"expected a vector of length {model.dim}, got shape {x.shape}")
    q = _e_step(model, np.concatenate([x, x**2])[None, :])[0][0]
    sigma = np.sqrt(model.variances)
    z = (x[None, :] - model.means) / sigma
    mean_block = (q / np.sqrt(model.weights))[:, None] * z
    var_block = (q / np.sqrt(2.0 * model.weights))[:, None] * (z**2 - 1.0)
    return np.concatenate([mean_block.ravel(), var_block.ravel()])


def aggregate(model: GMMModel, xs: np.ndarray, normalization: str = "improved") -> FisherVector:
    """Sum phi(x) over a descriptor set and apply the normalization policy.

    "raw" is the plain sum (the exactly separable form); "improved" divides
    by the set size, applies the signed square root, and L2-normalizes.
    """
    if normalization not in NORMALIZATION_POLICIES:
        raise ValueError(f"unknown normalization policy {normalization!r}")
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[0] == 0:
        raise ValueError("cannot aggregate an empty descriptor set")
    if xs.shape[1] != model.dim:
        raise ValueError(f"descriptor dim {xs.shape[1]} != model dim {model.dim}")

    stats = np.hstack([xs, xs**2])
    q, _ = _e_step(model, stats)
    s0 = q.sum(axis=0)
    moments = q.T @ stats
    s1, s2 = moments[:, : model.dim], moments[:, model.dim :]
    sigma = np.sqrt(model.variances)
    mean_block = (s1 - model.means * s0[:, None]) / sigma / np.sqrt(model.weights)[:, None]
    var_block = (
        (s2 - 2.0 * model.means * s1 + model.means**2 * s0[:, None]) / model.variances
        - s0[:, None]
    ) / np.sqrt(2.0 * model.weights)[:, None]
    values = np.concatenate([mean_block.ravel(), var_block.ravel()])

    if normalization == "raw":
        return FisherVector(values=values, normalized=False)
    values = values / xs.shape[0]
    values = np.sign(values) * np.sqrt(np.abs(values))
    norm = np.linalg.norm(values)
    if norm > 0.0:
        values = values / norm
    return FisherVector(values=values, normalized=True)


def match_kernel_bruteforce(model: GMMModel, xs: np.ndarray, ys: np.ndarray) -> float:
    """Explicit double sum of pairwise <phi(x), phi(y)> over two sets."""
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.atleast_2d(np.asarray(ys, dtype=np.float64))
    if xs.shape[0] == 0 or ys.shape[0] == 0:
        raise ValueError("match kernel requires two non-empty sets")
    phis_x = [fv_contribution(model, x) for x in xs]
    phis_y = [fv_contribution(model, y) for y in ys]
    total = 0.0
    for px in phis_x:
        for py in phis_y:
            total += float(np.dot(px, py))
    return total


_KMDL_HEADER = struct.Struct("<4sIIIIB")


def save_model(path: str | Path, pca: PCAModel, gmm: GMMModel) -> None:
    """Write the KMDL codebook file (little-endian, f64 payload)."""
    if pca.out_dim != gmm.dim:
        raise ValueError(f"PCA output dim {pca.out_dim} != GMM dim {gmm.dim}")
    header = _KMDL_HEADER.pack(
        KMDL_MAGIC, KMDL_VERSION, pca.input_dim, pca.out_dim, gmm.components,
        1 if pca.whitened else 0,
    )
    payload = b"".join(
        np.ascontiguousarray(part, dtype="<f8").tobytes()
        for part in (pca.mean, pca.basis, gmm.weights, gmm.means, gmm.variances)
    )
    Path(path).write_bytes(header + payload)


def load_model(path: str | Path) -> tuple[PCAModel, GMMModel]:
    """Read a KMDL file back; bit-exact inverse of save_model.

    Refuses, with the byte offset, what save_model cannot write: a zero
    dimension or component count, an output dim above the input dim, a
    whitened byte other than 0/1, a non-finite value, or a weight or
    variance <= 0.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _KMDL_HEADER.size:
        raise FormatError(f"{path}: truncated header at byte offset {len(data)}")
    magic, version, input_dim, out_dim, comp, whit = _KMDL_HEADER.unpack_from(data, 0)
    if magic != KMDL_MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    if version != KMDL_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    for offset, name, value in ((8, "input dim", input_dim), (12, "output dim", out_dim),
                                (16, "component count", comp)):
        if value == 0:
            raise FormatError(f"{path}: {name} is 0 at byte offset {offset}")
    if out_dim > input_dim:
        raise FormatError(f"{path}: output dim {out_dim} > input dim {input_dim} at byte offset 12")
    if whit > 1:
        raise FormatError(f"{path}: whitened flag {whit} is not 0 or 1 at byte offset 20")
    fields = (  # name, value count, must be > 0
        ("PCA mean", input_dim, False),
        ("PCA basis", out_dim * input_dim, False),
        ("GMM weight", comp, True),
        ("GMM mean", comp * out_dim, False),
        ("GMM variance", comp * out_dim, True),
    )
    expected = _KMDL_HEADER.size + 8 * sum(cnt for _, cnt, _ in fields)
    if len(data) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes, failed at byte offset {min(len(data), expected)}"
        )
    offset = _KMDL_HEADER.size
    parts = []
    for name, cnt, positive in fields:
        part = np.frombuffer(data, dtype="<f8", count=cnt, offset=offset).astype(np.float64)
        bad = ~np.isfinite(part) | (positive & (part <= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            rule = "finite and > 0" if positive else "finite"
            raise FormatError(
                f"{path}: {name} {float(part[i])} is not {rule} at byte offset {offset + 8 * i}"
            )
        parts.append(part)
        offset += 8 * cnt
    mean, basis, weights, means, variances = parts
    pca = PCAModel(
        mean=mean, basis=basis.reshape(out_dim, input_dim), whitened=bool(whit)
    )
    gmm = GMMModel(
        weights=weights,
        means=means.reshape(comp, out_dim),
        variances=variances.reshape(comp, out_dim),
    )
    return pca, gmm
