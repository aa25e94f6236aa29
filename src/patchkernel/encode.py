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

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, TrainingError, check_header, check_length, refuse_first

KMDL_MAGIC = b"KMDL"
KMDL_VERSION = 1

EM_MAX_ITER = 100
EM_MAX_SAMPLES = 16_384
EM_REL_TOL = 1e-4
VARIANCE_FLOOR_FACTOR = 1e-4
# E-step log-joints more than 700 nats below the row's best give a
# responsibility of exactly 0. Their exp would underflow (below -745) or be
# subnormal, both slow FPU paths, and the at most V e^-700 they drop cannot
# change a row total, which is >= 1.
_LOG_RESP_CUT = -700.0
# aggregate gives both blocks of a component whose soft count in the set is
# below this exactly +0.0. A block entry is at most s0 * g, g being its gain
# per unit of soft count, and the improved policy maps it to
# sqrt(s0 * g / |v|_1), |v|_1 the L1 norm of the raw sum. Below 1e-100 that
# is under 2^-150, half of f32's smallest subnormal, so the entry would
# round to a zero of noise sign, as long as g <= 4.9e9 |v|_1; the default
# pipeline on synth seeds 1-3, 8 and 42 has g <= 0.25 |v|_1.
_SOFT_COUNT_CUT = 1e-100

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
    out_dim + 1 samples or the data rank falls below out_dim. f32 data is
    read as it is; any other dtype is widened to f64 first.
    """
    data = np.asarray(data)
    if data.dtype != np.float32:
        data = data.astype(np.float64, copy=False)
    if data.ndim != 2:
        raise ValueError(f"expected (n, dim) data, got shape {data.shape}")
    n, dim = data.shape
    if out_dim < 1 or out_dim > dim:
        raise ValueError(f"output dim {out_dim} outside 1..{dim}")
    if n < out_dim + 1:
        raise TrainingError(f"PCA needs at least {out_dim + 1} samples, got {n}")
    # f32 rows widen exactly inside the f64 sum and the subtraction, so these
    # are the bits of a widened copy, without holding one.
    mean = data.mean(axis=0, dtype=np.float64)
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
    squared distance from the nearest already-chosen one.

    A center's squared distances are |x|^2 - 2 x.c + |c|^2: one matrix-vector
    product against row norms computed once. A distance within rounding of
    zero counts as exactly 0, so a row equal to a chosen center is never
    drawn, and once every row equals one the next center is drawn uniformly.
    """
    n, dim = data.shape
    sq_norms = np.einsum("ij,ij->i", data, data)
    # Rounding bound, to first order in u = 2^-53: |x|^2 errs by at most
    # D u |x|^2, 2 x.c by D u (|x|^2 + |c|^2) (as 2 |x.c| <= |x|^2 + |c|^2)
    # and |c|^2 by D u |c|^2; each of the two additions rounds a result of at
    # most 2 (|x|^2 + |c|^2). In all 2 (D + 2) u (|x|^2 + |c|^2), so a
    # computed distance at or below it may be a true 0.
    slack = (dim + 2) * np.finfo(np.float64).eps  # 2 (D + 2) u

    def sq_dist(center: np.ndarray) -> np.ndarray:
        c2 = center @ center
        d2 = sq_norms - 2.0 * (data @ center) + c2
        d2[d2 <= slack * (sq_norms + c2)] = 0.0
        return d2

    centers = np.empty((count, dim))
    centers[0] = data[rng.integers(n)]
    d2 = sq_dist(centers[0])
    for k in range(1, count):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[k] = data[idx]
        np.minimum(d2, sq_dist(centers[k]), out=d2)
    return centers


def _e_step(model: GMMModel, stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (n, V) and per-row log-likelihoods (n, 1) of the
    statistics [x, x^2], from one product against [mu/var, -1/(2 var)].

    A component more than 700 nats behind the row's best one gets a
    responsibility of exactly 0, so none is subnormal; the row totals and
    log-likelihoods are those of the unclamped sum.
    """
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
        far = joint < _LOG_RESP_CUT
        np.maximum(joint, _LOG_RESP_CUT, out=joint)
        np.exp(joint, out=joint)
        joint[far] = 0.0
        total = joint.sum(axis=1, keepdims=True)
        return np.divide(joint, total, out=joint), peak + np.log(total)


def em_sample(n: int, rng: np.random.Generator) -> np.ndarray | slice:
    """The rows of n that EM fits, in order: every row up to EM_MAX_SAMPLES
    (16,384), else a sorted random subset of that size drawn from rng."""
    if n <= EM_MAX_SAMPLES:
        return slice(None)
    return np.sort(rng.choice(n, EM_MAX_SAMPLES, replace=False))


def gmm_train(data: np.ndarray, components: int, seed: int | np.random.Generator) -> GMMModel:
    """Fit a diagonal GMM by EM from a k-means++ seeding.

    `seed` is an int or a Generator; np.random.default_rng returns a
    Generator unchanged. EM fits the rows that em_sample draws from it
    before the k-means++ seeding: every row up to EM_MAX_SAMPLES (16,384),
    else a sorted random subset of that size. `train_codebook` draws that
    sample before projecting anything and passes only the fitted rows with
    the generator that drew them, so k-means++ draws the centres it would
    draw from every row and the seed. Fewer than 10 fitted
    rows per component is a training error, raised before any EM work.
    Stops at the first iteration whose average log-likelihood gains less
    than EM_REL_TOL (1e-4) of the previous one; EM_MAX_ITER (100) iterations
    are only a guard (20-scene synth corpora stop after 21-39). The average
    log-likelihood of every iteration is recorded on the returned model. A
    variance floor of 1e-4 x (mean per-dimension variance of the fitted
    rows) is applied at every M-step.

    Each iteration is two matrix products over the fixed (n, 2D) statistics
    [x, x^2]: one against [mu/var, -1/(2 var)] for the E-step and one of the
    responsibilities against the statistics for both M-step moments. Once
    they are filled and k-means++ has seeded, the rows themselves are let go.
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
    data = data[em_sample(n, rng)]
    n = fitted
    var = np.var(data, axis=0)
    floor = VARIANCE_FLOOR_FACTOR * float(np.mean(var))

    weights = np.full(components, 1.0 / components)
    means = _kmeanspp_centers(data, components, rng)
    variances = np.maximum(np.tile(var, (components, 1)), floor)
    stats = np.empty((n, 2 * dim))
    stats[:, :dim] = data
    np.square(data, out=stats[:, dim:])
    del data

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
    Both blocks of a component whose soft count in the set is below 1e-100
    are +0.0 under either policy: their entries would round to a zero of
    noise sign in f32.
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
    dead = s0 < _SOFT_COUNT_CUT
    mean_block[dead] = 0.0
    var_block[dead] = 0.0
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
_PART_NAMES = ("PCA mean", "PCA basis", "GMM weight", "GMM mean", "GMM variance")


def _part_shapes(input_dim: int, out_dim: int, comp: int) -> tuple[tuple[int, ...], ...]:
    """The shapes the KMDL header fields give the payload's parts, in file
    order: PCA mean and basis, GMM weights, means and variances."""
    return (input_dim,), (out_dim, input_dim), (comp,), (comp, out_dim), (comp, out_dim)


def save_model(path: str | Path, pca: PCAModel, gmm: GMMModel) -> None:
    """Write the KMDL codebook file (little-endian, f64 payload); a header,
    part shape or value that load_model would refuse is refused before the
    file is created."""
    path = Path(path)
    header = _KMDL_HEADER.pack(
        KMDL_MAGIC, KMDL_VERSION, pca.input_dim, pca.out_dim, gmm.components,
        1 if pca.whitened else 0,
    )
    input_dim, out_dim, comp, _ = _checked_header(path, header)
    parts = (pca.mean, pca.basis, gmm.weights, gmm.means, gmm.variances)
    shapes = _part_shapes(input_dim, out_dim, comp)
    for name, part, shape in zip(_PART_NAMES, parts, shapes):
        if np.shape(part) != shape:
            raise ValueError(f"{name} array has shape {np.shape(part)}, the header implies {shape}")
    payload = np.concatenate([np.ravel(part) for part in parts], dtype="<f8")
    _check_payload(path, payload, tuple(map(math.prod, shapes)))
    path.write_bytes(header + payload.tobytes())


def load_model(path: str | Path) -> tuple[PCAModel, GMMModel]:
    """Read a KMDL file back; bit-exact inverse of save_model.

    Refuses, with the byte offset, what no trained codebook holds: a header
    that _checked_header refuses, a value that is not finite or exceeds
    1e30 in magnitude, or a weight or variance below 1e-30. Within those
    bounds projecting and aggregating unit descriptors cannot overflow.
    """
    path = Path(path)
    data = path.read_bytes()
    input_dim, out_dim, comp, whit = _checked_header(path, data)
    shapes = _part_shapes(input_dim, out_dim, comp)
    sizes = tuple(map(math.prod, shapes))
    check_length(path, len(data), _KMDL_HEADER.size + 8 * sum(sizes))
    payload = np.frombuffer(data, dtype="<f8", offset=_KMDL_HEADER.size).astype(np.float64)
    _check_payload(path, payload, sizes)
    mean, basis, weights, means, variances = (
        part.reshape(shape) for part, shape in zip(np.split(payload, np.cumsum(sizes)[:-1]), shapes)
    )
    return PCAModel(mean, basis, whitened=bool(whit)), GMMModel(weights, means, variances)



def _checked_header(path: Path, data: bytes) -> list[int]:
    """The KMDL header fields (input dim, output dim, component count,
    whitened) at the start of `data`, for the writer and the reader alike.
    Refuses, naming the byte offset, a short header, another magic or
    version, a zero dimension or component count, an output dim above the
    input dim and a whitened byte other than 0/1."""
    fields = check_header(
        path, data, _KMDL_HEADER, KMDL_MAGIC, KMDL_VERSION,
        ("input dim", "output dim", "component count"),
    )
    input_dim, out_dim, _, whit = fields
    if out_dim > input_dim:
        raise FormatError(f"{path}: output dim {out_dim} > input dim {input_dim} at byte offset 12")
    if whit > 1:
        raise FormatError(f"{path}: whitened flag {whit} is not 0 or 1 at byte offset 20")
    return fields


def _check_payload(path: Path, payload: np.ndarray, sizes: tuple[int, ...]) -> None:
    """Refuse a KMDL value that is not finite or exceeds 1e30 in magnitude, or
    a weight or variance below 1e-30, naming its array, index and byte offset."""
    ends = np.cumsum(sizes)
    floor = np.repeat((-1e30, -1e30, 1e-30, -1e30, 1e-30), sizes)
    bad = ~(np.abs(payload) <= 1e30) | ~(payload >= floor)

    def describe(i: int) -> tuple[str, int]:
        part = int(np.searchsorted(ends, i, side="right"))
        name = _PART_NAMES[part]
        at = f"{name}[{i - ends[part] + sizes[part]}] = {payload[i]}"
        return f"{at} is not in [{floor[i]:.0e}, 1e+30]", _KMDL_HEADER.size + 8 * i

    refuse_first(path, bad, describe)
