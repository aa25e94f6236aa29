"""PCA, EM, Fisher-score aggregation, and kernel-identity tests."""

import struct
import warnings

import numpy as np
import pytest

from patchkernel.encode import (
    EM_MAX_ITER,
    EM_MAX_SAMPLES,
    EM_REL_TOL,
    GMMModel,
    PCAModel,
    _e_step,
    _kmeanspp_centers,
    aggregate,
    fv_contribution,
    gmm_train,
    load_model,
    match_kernel_bruteforce,
    pca_project,
    pca_train,
    save_model,
)
from patchkernel.errors import FormatError, TrainingError
from patchkernel.pipeline import PipelineConfig, describe_corpus, load_corpus, train_codebook
from patchkernel.synth import generate_corpus


def random_gmm(rng, dim, components) -> GMMModel:
    weights = rng.uniform(0.2, 1.0, size=components)
    weights /= weights.sum()
    return GMMModel(
        weights=weights,
        means=rng.normal(scale=2.0, size=(components, dim)),
        variances=rng.uniform(0.3, 1.5, size=(components, dim)),
    )


def log_density(model: GMMModel, x: np.ndarray) -> float:
    """Independent mixture log-density used by the finite-difference oracle."""
    total = 0.0
    parts = []
    for k in range(model.components):
        quad = -0.5 * np.sum((x - model.means[k]) ** 2 / model.variances[k])
        norm = -0.5 * np.sum(np.log(2 * np.pi * model.variances[k]))
        parts.append(np.log(model.weights[k]) + norm + quad)
    peak = max(parts)
    total = peak + np.log(sum(np.exp(p - peak) for p in parts))
    return float(total)


def reference_kmeanspp(data: np.ndarray, count: int, rng) -> np.ndarray:
    """k-means++ seeding with each distance summed from the differences."""
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


@pytest.fixture(scope="module")
def seed1_sets(tmp_path_factory):
    """The described 20-scene seed-1 synth corpus at default flags."""
    corpus = tmp_path_factory.mktemp("seed1")
    generate_corpus(corpus, n_base=20, seed=1)
    return describe_corpus(load_corpus(corpus), PipelineConfig())


class TestPcaTrain:
    def test_rank_one_line_recovered(self):
        rng = np.random.default_rng(30)
        direction = np.array([2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        data = rng.normal(size=(200, 1)) * direction + np.array([1.0, 2.0, 3.0])
        model = pca_train(data, 1)
        assert abs(abs(model.basis[0] @ direction) - 1.0) < 1e-6

    def test_full_dimension_reconstructs(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(100, 5))
        model = pca_train(data, 5)
        centered = data - model.mean
        recon = pca_project(model, data) @ model.basis
        np.testing.assert_allclose(recon, centered, atol=1e-8)

    def test_anisotropic_cloud_principal_axis(self):
        rng = np.random.default_rng(60)
        data = rng.normal(size=(10_000, 2)) * np.array([2.0, 1.0])
        model = pca_train(data, 1)
        np.testing.assert_allclose(np.abs(model.basis[0]), [1.0, 0.0], atol=1e-2)

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(33)
        model = pca_train(rng.normal(size=(300, 8)), 5)
        gram = model.basis @ model.basis.T
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-6

    def test_sign_convention(self):
        rng = np.random.default_rng(34)
        model = pca_train(rng.normal(size=(200, 6)), 4)
        for row in model.basis:
            assert row[np.argmax(np.abs(row))] > 0

    def test_whitening_scales_to_unit_variance(self):
        rng = np.random.default_rng(35)
        data = rng.normal(size=(5_000, 3)) * np.array([3.0, 1.0, 0.5])
        model = pca_train(data, 3, whiten=True)
        projected = pca_project(model, data)
        np.testing.assert_allclose(projected.var(axis=0), 1.0, atol=0.05)

    def test_insufficient_samples(self):
        with pytest.raises(TrainingError, match="at least"):
            pca_train(np.zeros((3, 8)), 3)

    def test_rank_deficiency_names_rank(self):
        rng = np.random.default_rng(36)
        line = rng.normal(size=(50, 1)) * np.array([1.0, 1.0, 0.0])
        with pytest.raises(TrainingError, match="rank 1"):
            pca_train(line, 2)


class TestPcaProject:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(37)
        model = pca_train(rng.normal(size=(50, 4)), 2)
        np.testing.assert_allclose(pca_project(model, model.mean), 0.0, atol=1e-12)

    def test_full_rank_projection_preserves_inner_products(self):
        rng = np.random.default_rng(38)
        data = rng.normal(size=(60, 4))
        model = pca_train(data, 4)
        centered = data - model.mean
        projected = pca_project(model, data)
        np.testing.assert_allclose(projected @ projected.T, centered @ centered.T, atol=1e-8)

    def test_hand_case(self):
        model = PCAModel(mean=np.array([1.0, 1.0]), basis=np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(pca_project(model, np.array([3.0, 1.0])), [2.0])

    def test_dim_mismatch(self):
        model = PCAModel(mean=np.zeros(3), basis=np.eye(3))
        with pytest.raises(ValueError, match="dim"):
            pca_project(model, np.zeros(4))


class TestGmmTrain:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(39)
        data = rng.normal(loc=1.5, scale=0.7, size=(500, 3))
        model = gmm_train(data, 1, seed=0)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(model.means[0], data.mean(axis=0), atol=1e-9)
        floor = 1e-4 * np.mean(np.var(data, axis=0))
        np.testing.assert_allclose(
            model.variances[0], np.maximum(np.var(data, axis=0), floor), atol=1e-9
        )

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(40)
        data = np.concatenate(
            [rng.normal(-5.0, 0.1, size=(400, 1)), rng.normal(5.0, 0.1, size=(400, 1))]
        )
        model = gmm_train(data, 2, seed=1)
        means = np.sort(model.means.ravel())
        np.testing.assert_allclose(means, [-5.0, 5.0], atol=0.05)
        np.testing.assert_allclose(model.weights, 0.5, atol=0.05)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            centers = rng.normal(scale=3.0, size=(3, 2))
            data = np.concatenate(
                [rng.normal(c, rng.uniform(0.3, 1.0), size=(60, 2)) for c in centers]
            )
            model = gmm_train(data, 3, seed=trial)
            lls = model.log_likelihoods
            assert len(lls) >= 1
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-9

    def test_insufficient_samples(self):
        with pytest.raises(TrainingError, match="at least 20"):
            gmm_train(np.zeros((19, 2)), 2, seed=0)

    def test_sample_cap_counts_toward_rows_per_component(self, monkeypatch):
        # 17,000 rows cover 1,700 components, but EM fits only 16,384 of them.
        def no_seeding(*args):
            raise AssertionError("EM started")

        monkeypatch.setattr("patchkernel.encode._kmeanspp_centers", no_seeding)
        data = np.linspace(0.0, 1.0, 17_000)[:, None]
        with pytest.raises(TrainingError, match=f"at least 17000 samples, got {EM_MAX_SAMPLES}"):
            gmm_train(data, 1_700, seed=0)

    def test_degenerate_data_raises_numerical_error(self):
        with pytest.raises(TrainingError, match="iteration"):
            gmm_train(np.ones((50, 2)), 1, seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(200, 2))
        a = gmm_train(data, 4, seed=7)
        b = gmm_train(data, 4, seed=7)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.variances, b.variances)

    def test_sampled_fit_is_seed_deterministic(self):
        rng = np.random.default_rng(44)
        data = rng.normal(size=(EM_MAX_SAMPLES + 500, 2))
        a = gmm_train(data, 3, seed=5)
        b = gmm_train(data, 3, seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)
        assert a.log_likelihoods == b.log_likelihoods

    def test_sampled_single_component_mean(self):
        rng = np.random.default_rng(45)
        sigma = np.array([0.5, 2.0, 1.0])
        data = rng.normal(loc=[1.0, -3.0, 0.0], scale=sigma, size=(2 * EM_MAX_SAMPLES, 3))
        model = gmm_train(data, 1, seed=0)
        error = np.abs(model.means[0] - data.mean(axis=0))
        assert np.all(error <= 4 * sigma / np.sqrt(EM_MAX_SAMPLES))
        assert np.any(error > 1e-9)  # fitted on a sample, not on every row

    def test_last_log_likelihood_matches_reference_e_step(self):
        rng = np.random.default_rng(46)
        centers = rng.normal(scale=3.0, size=(4, 5))
        data = centers[rng.integers(4, size=2000)] + rng.normal(size=(2000, 5))
        model = gmm_train(data, 4, seed=2)
        assert len(model.log_likelihoods) < EM_MAX_ITER  # stopped on tolerance
        reference = float(np.mean([log_density(model, x) for x in data]))
        assert model.log_likelihoods[-1] == pytest.approx(reference, rel=1e-12)

    def test_default_build_stops_on_tolerance(self, seed1_sets):
        _, model = train_codebook(seed1_sets, PipelineConfig())
        assert len(model.log_likelihoods) < EM_MAX_ITER

    def test_empty_component_keeps_its_initialisation(self, monkeypatch):
        # the last centre is 1,000 standard deviations from every row, so the
        # E-step gives it a responsibility of exactly 0 in every iteration
        rng = np.random.default_rng(64)
        data = np.concatenate(
            [rng.normal(c, 0.5, size=(150, 2)) for c in ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))]
        )
        seeded = _kmeanspp_centers

        def one_far_center(rows, count, gen):
            centers = seeded(rows, count, gen)
            centers[-1] = (1e3, -1e3)
            return centers

        monkeypatch.setattr("patchkernel.encode._kmeanspp_centers", one_far_center)
        model = gmm_train(data, 4, seed=0)
        for part in (model.weights, model.means, model.variances, model.log_likelihoods):
            assert np.all(np.isfinite(part))
        assert model.weights[-1] == pytest.approx(1e-12, rel=1e-9)
        assert np.array_equal(model.means[-1], [1e3, -1e3])
        floor = 1e-4 * float(np.mean(np.var(data, axis=0)))
        assert np.array_equal(model.variances[-1], np.maximum(np.var(data, axis=0), floor))

        fv = aggregate(model, data[::7])
        assert abs(np.linalg.norm(fv.values) - 1.0) <= 1e-12
        blocks = fv.values.reshape(2, 4, 2)[:, -1]
        assert np.all(blocks == 0.0) and not np.any(np.signbit(blocks))


class RecordingRng:
    """Forwards to a generator and keeps every probability vector drawn from."""

    def __init__(self, seed: int):
        self.gen = np.random.default_rng(seed)
        self.drawn: list[np.ndarray] = []

    def integers(self, n):
        return self.gen.integers(n)

    def choice(self, n, p):
        self.drawn.append(p.copy())
        return self.gen.choice(n, p=p)


class TestKmeansppMatchesReference:
    def assert_same_seeding(self, data: np.ndarray, count: int, rng: RecordingRng, ref_rng) -> None:
        centers = _kmeanspp_centers(data, count, rng)
        assert np.array_equal(centers, reference_kmeanspp(data, count, ref_rng))
        assert rng.gen.random() == ref_rng.random()
        # p is D^2 / total: D^2 is never negative, and exactly 0 on every row
        # equal to a chosen centre, so no such row is drawn. D^2 never grows,
        # so every weighted draw comes before the first uniform one.
        chosen = np.zeros(len(data), dtype=bool)
        for center, p in zip(centers, rng.drawn):
            chosen |= (data == center).all(axis=1)
            assert np.all(p >= 0.0)
            assert np.all(p[chosen] == 0.0)

    @pytest.mark.parametrize("n, dim, count", [(40, 1, 4), (300, 7, 16), (2000, 32, 64), (64, 3, 64)])
    def test_random_data(self, n, dim, count):
        for seed in range(3):
            data = np.random.default_rng(100 + seed).normal(scale=2.0, size=(n, dim))
            self.assert_same_seeding(data, count, RecordingRng(seed), np.random.default_rng(seed))

    @pytest.mark.parametrize("offset", [0.0, 1e3 / np.sqrt(8)])
    def test_fewer_distinct_rows_than_centres(self, offset):
        # Once every distinct row is a centre all distances are 0 and the
        # next centre is drawn uniformly; |x|^2 - 2 x.c + |c|^2 must give
        # exactly 0 there too, not a rounding residue.
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            data = (rng.normal(size=(3, 8)) + offset)[rng.integers(3, size=120)]
            self.assert_same_seeding(data, 6, RecordingRng(seed), np.random.default_rng(seed))

    def test_rows_far_from_the_origin(self):
        # |x| ~ 1e3 with unit spread: the product form cancels ~6 digits
        rng = np.random.default_rng(300)
        data = rng.normal(size=(1000, 8)) + 1e3 / np.sqrt(8)
        for seed in range(3):
            self.assert_same_seeding(data, 32, RecordingRng(seed), np.random.default_rng(seed))

    def test_seed1_em_sample(self, seed1_sets):
        cfg = PipelineConfig()
        pca = pca_train(np.vstack([d.values for d in seed1_sets]), cfg.pca_dim, whiten=cfg.whiten)
        reduced = np.vstack([pca_project(pca, d.values) for d in seed1_sets])
        assert reduced.shape[0] > EM_MAX_SAMPLES
        # gmm_train's sample: drawn from the seed's generator before seeding
        rng = RecordingRng(cfg.seed)
        ref_rng = np.random.default_rng(cfg.seed)
        pick = np.sort(rng.gen.choice(len(reduced), EM_MAX_SAMPLES, replace=False))
        ref_rng.choice(len(reduced), EM_MAX_SAMPLES, replace=False)
        self.assert_same_seeding(reduced[pick], cfg.gmm_components, rng, ref_rng)


def e_step(model: GMMModel, data: np.ndarray):
    return _e_step(model, np.hstack([data, data**2]))


class TestEStep:
    def test_simplex(self):
        rng = np.random.default_rng(43)
        model = random_gmm(rng, 3, 4)
        points = rng.normal(scale=4.0, size=(50, 3))
        q, _ = e_step(model, points)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)

    def test_far_point_does_not_underflow(self):
        rng = np.random.default_rng(44)
        model = random_gmm(rng, 2, 3)
        q, log_lik = e_step(model, np.array([[1e6, -1e6]]))
        np.testing.assert_allclose(q.sum(), 1.0, atol=1e-9)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(log_lik))

    def test_matches_log_density_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            dim = int(rng.integers(1, 7))
            model = random_gmm(rng, dim, int(rng.integers(1, 6)))
            points = rng.normal(scale=2.0, size=(int(rng.integers(1, 20)), dim))
            q, log_lik = e_step(model, points)
            assert q.shape == (len(points), model.components)
            for row, x in enumerate(points):
                total = log_density(model, x)
                # a one-component model of weight w_k has density w_k N_k(x)
                joint = [
                    log_density(GMMModel(model.weights[[k]], model.means[[k]],
                                         model.variances[[k]]), x)
                    for k in range(model.components)
                ]
                np.testing.assert_allclose(q[row], np.exp(np.array(joint) - total), rtol=1e-12)
                assert log_lik[row, 0] == pytest.approx(total, rel=1e-12)


TINY = np.finfo(np.float64).tiny  # smallest normal float64, 2.2e-308


def two_far_clusters() -> np.ndarray:
    """Two unit clusters 40 apart: a row at x of the left one sits
    800 - 40 x nats behind the right component, so rows with x in
    [1.4, 2.3] are 708-745 nats behind it (a subnormal responsibility)."""
    rng = np.random.default_rng(63)
    return np.concatenate([rng.normal(size=(300, 2)), rng.normal((40.0, 0.0), size=(300, 2))])


FAR_MODEL = GMMModel(
    weights=np.array([0.5, 0.5]),
    means=np.array([[0.0, 0.0], [40.0, 0.0]]),
    variances=np.ones((2, 2)),
)


def unclamped_e_step(model: GMMModel, stats: np.ndarray):
    """The E-step without the cut: every exp is taken, subnormal or not.
    Returns the responsibilities, the log-likelihoods and the log-joints
    less each row's best."""
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        inv_var = 1.0 / model.variances
        const = np.log(model.weights) - 0.5 * (
            model.dim * np.log(2.0 * np.pi)
            + np.sum(np.log(model.variances), axis=1)
            + np.sum(model.means**2 * inv_var, axis=1)
        )
        joint = stats @ np.hstack([model.means * inv_var, -0.5 * inv_var]).T
        joint += const
        peak = joint.max(axis=1, keepdims=True)
        shifted = joint - peak
        q = np.exp(shifted)
        total = q.sum(axis=1, keepdims=True)
        return q / total, peak + np.log(total), shifted


class TestEStepCut:
    """Responsibilities more than 700 nats behind a row's best are exactly 0."""

    def test_no_subnormal_responsibility(self):
        data = two_far_clusters()
        ref, _, _ = unclamped_e_step(FAR_MODEL, np.hstack([data, data**2]))
        assert np.any((ref > 0.0) & (ref < TINY))  # the fixture has some
        q, _ = e_step(FAR_MODEL, data)
        assert not np.any((q > 0.0) & (q < TINY))

    def test_equals_unclamped_above_the_cut(self):
        data = two_far_clusters()
        ref, ref_ll, shifted = unclamped_e_step(FAR_MODEL, np.hstack([data, data**2]))
        q, log_lik = e_step(FAR_MODEL, data)
        kept = shifted >= -700.0
        assert np.any(~kept & (ref > 0.0))  # the cut drops non-zero entries
        assert np.array_equal(q[kept], ref[kept])
        assert np.all(q[~kept] == 0.0)
        assert np.array_equal(log_lik, ref_ll)

    def test_no_underflow(self):
        data = two_far_clusters()
        with np.errstate(under="raise"):
            e_step(FAR_MODEL, data)

    def test_em_equals_unclamped_em(self):
        data = two_far_clusters()
        with np.errstate(under="raise"):
            model = gmm_train(data, 2, seed=3)

        # gmm_train's EM loop, step for step, with the unclamped E-step
        rng = np.random.default_rng(3)
        n, dim = data.shape
        floor = 1e-4 * float(np.mean(np.var(data, axis=0)))
        weights = np.full(2, 0.5)
        means = _kmeanspp_centers(data, 2, rng)
        variances = np.maximum(np.tile(np.var(data, axis=0), (2, 1)), floor)
        stats = np.hstack([data, data**2])
        history = []
        for _ in range(EM_MAX_ITER):
            resp, log_lik, _ = unclamped_e_step(GMMModel(weights, means, variances), stats)
            history.append(float(np.mean(log_lik)))
            if len(history) > 1 and history[-1] - history[-2] < EM_REL_TOL * abs(history[-2]):
                break
            mass = resp.sum(axis=0)
            moments = resp.T @ stats
            means = moments[:, :dim] / mass[:, None]
            variances = np.maximum(moments[:, dim:] / mass[:, None] - means**2, floor)
            weights = np.maximum(mass / n, 1e-12)
            weights /= weights.sum()

        assert model.log_likelihoods == tuple(history)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.means, means)
        assert np.array_equal(model.variances, variances)


class TestFvContribution:
    def test_at_mode_of_single_component(self):
        model = GMMModel(
            weights=np.array([1.0]),
            means=np.array([[0.4, -0.2, 1.0]]),
            variances=np.array([[0.5, 1.0, 2.0]]),
        )
        phi = fv_contribution(model, model.means[0])
        np.testing.assert_allclose(phi[:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(phi[3:], -1.0 / np.sqrt(2.0), atol=1e-12)

    def test_mean_block_matches_finite_differences(self):
        # phi mean block k = (1/sqrt(w_k)) * sigma_k * d/d(mu_k) log p(x)
        rng = np.random.default_rng(45)
        model = random_gmm(rng, 2, 2)
        x = np.array([0.3, -1.2])
        phi = fv_contribution(model, x)
        step = 1e-5
        fd = np.zeros((2, 2))
        for k in range(2):
            for d in range(2):
                bump = np.zeros((2, 2))
                bump[k, d] = step
                up = GMMModel(model.weights, model.means + bump, model.variances)
                dn = GMMModel(model.weights, model.means - bump, model.variances)
                fd[k, d] = (log_density(up, x) - log_density(dn, x)) / (2 * step)
        expected = fd * np.sqrt(model.variances) / np.sqrt(model.weights)[:, None]
        analytic = phi[: 2 * 2].reshape(2, 2)
        rel = np.linalg.norm(analytic - expected) / np.linalg.norm(expected)
        assert rel < 1e-4

    def test_far_input_is_finite(self):
        rng = np.random.default_rng(46)
        model = random_gmm(rng, 3, 2)
        phi = fv_contribution(model, np.array([1e5, -1e5, 1e5]))
        assert np.all(np.isfinite(phi))

    def test_wrong_length(self):
        rng = np.random.default_rng(47)
        model = random_gmm(rng, 3, 2)
        with pytest.raises(ValueError, match="length 3"):
            fv_contribution(model, np.zeros(4))


class TestAggregate:
    def test_raw_single_equals_contribution(self):
        rng = np.random.default_rng(48)
        model = random_gmm(rng, 3, 2)
        x = rng.normal(size=3)
        fv = aggregate(model, x[None, :], "raw")
        assert not fv.normalized
        np.testing.assert_allclose(fv.values, fv_contribution(model, x), atol=1e-12)

    def test_duplication_invariance_under_improved_policy(self):
        rng = np.random.default_rng(49)
        model = random_gmm(rng, 2, 3)
        x = rng.normal(size=2)
        one = aggregate(model, x[None, :], "improved")
        two = aggregate(model, np.stack([x, x]), "improved")
        assert np.array_equal(one.values, two.values)

    def test_raw_matches_independent_summation_oracle(self):
        rng = np.random.default_rng(50)
        model = random_gmm(rng, 3, 2)
        xs = rng.normal(size=(5, 3))
        fv = aggregate(model, xs, "raw")
        oracle = np.zeros(2 * 3 * 2)
        for x in xs:
            oracle = oracle + fv_contribution(model, x)
        np.testing.assert_allclose(fv.values, oracle, atol=1e-10)

    def test_improved_has_unit_norm_and_preserves_signs(self):
        rng = np.random.default_rng(51)
        model = random_gmm(rng, 2, 2)
        xs = rng.normal(size=(7, 2))
        raw = aggregate(model, xs, "raw").values / 7
        improved = aggregate(model, xs, "improved")
        assert improved.normalized
        assert abs(np.linalg.norm(improved.values) - 1.0) <= 1e-6
        assert np.array_equal(np.sign(improved.values), np.sign(raw))

    def test_negligible_component_blocks_are_positive_zero(self):
        # the first row lies 699.4 nats behind the far component, just inside
        # the E-step cut, so its soft count is ~2e-304; the other rows are cut
        model = GMMModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [37.4, 0.25]]),
            variances=np.ones((2, 2)),
        )
        xs = np.array([[0.0, 0.25], [-1.0, 0.3], [-0.8, -0.5]])
        s0 = e_step(model, xs)[0].sum(axis=0)
        assert 1e-305 < s0[1] < 1e-303
        fv = aggregate(model, xs)
        blocks = fv.values.reshape(2, 2, 2)[:, 1]
        assert np.all(blocks == 0.0) and not np.any(np.signbit(blocks))
        nudged = xs.copy()
        nudged[0, 1] = np.nextafter(0.25, 0.0)
        moved = aggregate(model, nudged)
        assert moved.values.astype("<f4").tobytes() == fv.values.astype("<f4").tobytes()

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(52)
        model = random_gmm(rng, 2, 2)
        with pytest.raises(ValueError, match="empty"):
            aggregate(model, np.zeros((0, 2)), "raw")

    def test_unknown_policy(self):
        rng = np.random.default_rng(53)
        model = random_gmm(rng, 2, 2)
        with pytest.raises(ValueError, match="policy"):
            aggregate(model, np.zeros((1, 2)), "power")


class TestMatchKernel:
    def test_single_pair_is_squared_norm(self):
        rng = np.random.default_rng(54)
        model = random_gmm(rng, 3, 2)
        x = rng.normal(size=3)
        phi = fv_contribution(model, x)
        value = match_kernel_bruteforce(model, x[None, :], x[None, :])
        assert value == pytest.approx(float(phi @ phi), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(55)
        model = random_gmm(rng, 2, 3)
        xs = rng.normal(size=(4, 2))
        ys = rng.normal(size=(6, 2))
        k_xy = match_kernel_bruteforce(model, xs, ys)
        k_yx = match_kernel_bruteforce(model, ys, xs)
        assert k_xy == pytest.approx(k_yx, rel=1e-9)

    def test_separability_identity(self):
        # the double sum over pairs equals the inner product of raw aggregates
        rng = np.random.default_rng(56)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            comp = int(rng.integers(1, 5))
            model = random_gmm(rng, dim, comp)
            xs = rng.normal(scale=1.5, size=(int(rng.integers(1, 11)), dim))
            ys = rng.normal(scale=1.5, size=(int(rng.integers(1, 11)), dim))
            brute = match_kernel_bruteforce(model, xs, ys)
            fast = float(aggregate(model, xs, "raw").values @ aggregate(model, ys, "raw").values)
            assert abs(brute - fast) <= 1e-6 * max(abs(brute), 1e-12)

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(57)
        model = random_gmm(rng, 2, 2)
        with pytest.raises(ValueError, match="non-empty"):
            match_kernel_bruteforce(model, np.zeros((0, 2)), np.zeros((1, 2)))


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(58)
        data = rng.normal(size=(300, 6))
        pca = pca_train(data, 4, whiten=True)
        gmm = gmm_train(pca_project(pca, data), 2, seed=3)
        path = tmp_path / "model.kmdl"
        save_model(path, pca, gmm)
        pca2, gmm2 = load_model(path)
        assert pca2.whitened == pca.whitened
        assert np.array_equal(pca2.mean, pca.mean)
        assert np.array_equal(pca2.basis, pca.basis)
        assert np.array_equal(gmm2.weights, gmm.weights)
        assert np.array_equal(gmm2.means, gmm.means)
        assert np.array_equal(gmm2.variances, gmm.variances)
        save_model(tmp_path / "again.kmdl", pca2, gmm2)
        assert (tmp_path / "again.kmdl").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kmdl"
        path.write_bytes(b"XXXX" + bytes(17))
        with pytest.raises(FormatError, match="byte offset 0"):
            load_model(path)

    def test_bad_version(self, tmp_path):
        import struct

        path = tmp_path / "v9.kmdl"
        path.write_bytes(struct.pack("<4sIIIIB", b"KMDL", 9, 2, 1, 1, 0) + bytes(48))
        with pytest.raises(FormatError, match="unsupported version"):
            load_model(path)

    def test_truncation(self, tmp_path):
        rng = np.random.default_rng(59)
        data = rng.normal(size=(50, 3))
        pca = pca_train(data, 2)
        gmm = gmm_train(pca_project(pca, data), 1, seed=0)
        path = tmp_path / "full.kmdl"
        save_model(path, pca, gmm)
        (tmp_path / "cut.kmdl").write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="byte offset"):
            load_model(tmp_path / "cut.kmdl")

    @pytest.mark.parametrize(
        "dims, whitened, patch, offset",
        [
            ((0, 0, 1), 0, None, 8),
            ((2, 0, 1), 0, None, 12),
            ((2, 1, 0), 0, None, 16),
            ((1, 2, 1), 0, None, 12),
            ((2, 1, 1), 7, None, 20),
            ((2, 1, 1), 0, (0, np.nan), 21),
            ((2, 1, 1), 0, (3, np.inf), 45),
            ((2, 1, 1), 0, (4, 0.0), 53),
            ((2, 1, 1), 0, (5, -np.inf), 61),
            ((2, 1, 1), 0, (6, -1.0), 69),
            ((2, 1, 1), 0, (6, np.nan), 69),
        ],
        ids=[
            "zero-input-dim", "zero-output-dim", "zero-components", "output-above-input",
            "whitened-7", "nan-pca-mean", "inf-pca-basis", "zero-weight", "inf-gmm-mean",
            "negative-variance", "nan-variance",
        ],
    )
    def test_refuses_what_save_model_cannot_write(self, tmp_path, dims, whitened, patch, offset):
        input_dim, out_dim, comp = dims
        values = np.ones(input_dim + out_dim * input_dim + comp + 2 * comp * out_dim)
        if patch is not None:
            values[patch[0]] = patch[1]
        path = tmp_path / "bad.kmdl"
        header = struct.pack("<4sIIIIB", b"KMDL", 1, input_dim, out_dim, comp, whitened)
        path.write_bytes(header + values.astype("<f8").tobytes())
        with pytest.raises(FormatError, match=f"at byte offset {offset}$"):
            load_model(path)

    def test_fuzz_truncation_and_ff_bytes(self, tmp_path):
        pca = PCAModel(
            mean=np.array([0.5, -1.0, 2.0, 0.25]),
            basis=np.array([[0.5, 0.5, -0.5, 0.5], [1.0, 0.0, 0.0, 0.0]]),
        )
        gmm = GMMModel(
            weights=np.array([0.25, 0.75]),
            means=np.array([[0.0, 1.0], [-2.0, 3.0]]),
            variances=np.array([[0.5, 1.5], [2.0, 0.125]]),
        )
        good = tmp_path / "good.kmdl"
        save_model(good, pca, gmm)
        data = good.read_bytes()
        assert len(data) == 197
        path = tmp_path / "fuzz.kmdl"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="byte offset"):
                load_model(path)
        xs = np.random.default_rng(62).normal(size=(20, 4))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        for at in range(len(data)):
            mutated = data[:at] + b"\xff" + data[at + 1 :]
            path.write_bytes(mutated)
            try:
                pca2, gmm2 = load_model(path)
            except FormatError as exc:
                assert "byte offset" in str(exc)
                continue
            assert min(pca2.input_dim, pca2.out_dim, gmm2.components) >= 1
            for part in (pca2.mean, pca2.basis, gmm2.weights, gmm2.means, gmm2.variances):
                assert np.all(np.isfinite(part))
            assert np.all(gmm2.weights > 0) and np.all(gmm2.variances > 0)
            save_model(tmp_path / "again.kmdl", pca2, gmm2)
            assert (tmp_path / "again.kmdl").read_bytes() == mutated, at
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fv = aggregate(gmm2, pca_project(pca2, xs))
            assert np.all(np.isfinite(fv.values)), at

    @pytest.mark.parametrize(
        "patch, offset",
        [((1, -5.5e303), 29), ((3, 2e30), 45), ((5, 1e31), 61), ((4, 1e-31), 53),
         ((6, 1e-300), 69)],
        ids=["huge-pca-mean", "huge-pca-basis", "huge-gmm-mean", "tiny-weight", "tiny-variance"],
    )
    def test_refuses_values_that_overflow_aggregate(self, tmp_path, patch, offset):
        values = np.ones(7)
        values[patch[0]] = patch[1]
        path = tmp_path / "big.kmdl"
        header = struct.pack("<4sIIIIB", b"KMDL", 1, 2, 1, 1, 0)
        path.write_bytes(header + values.astype("<f8").tobytes())
        with pytest.raises(FormatError, match=f"at byte offset {offset}$"):
            load_model(path)

    @pytest.mark.parametrize(
        "dims, message",
        [((2, 3, 1), r"output dim 3 > input dim 2 at byte offset 12$"),
         ((4, 2, 0), r"component count is 0 at byte offset 16$")],
        ids=["output-above-input", "zero-components"],
    )
    def test_save_refuses_the_header_load_refuses(self, tmp_path, dims, message):
        input_dim, out_dim, comp = dims
        pca = PCAModel(mean=np.zeros(input_dim), basis=np.ones((out_dim, input_dim)))
        means = np.zeros((comp, out_dim))
        gmm = GMMModel(weights=np.ones(comp), means=means, variances=means + 1.0)
        path = tmp_path / "bad.kmdl"
        with pytest.raises(FormatError, match=message) as saved:
            save_model(path, pca, gmm)
        assert not path.exists()
        header = struct.pack("<4sIIIIB", b"KMDL", 1, input_dim, out_dim, comp, 0)
        parts = (pca.mean, pca.basis, gmm.weights, gmm.means, gmm.variances)
        path.write_bytes(header + b"".join(part.astype("<f8").tobytes() for part in parts))
        with pytest.raises(FormatError) as loaded:
            load_model(path)
        assert str(loaded.value) == str(saved.value)

    @pytest.mark.parametrize(
        "array, at, value, message",
        [
            ("weights", 1, 0.0,
             r"GMM weight\[1\] = 0.0 is not in \[1e-30, 1e\+30\] at byte offset 125$"),
            ("variances", (1, 0), np.nan,
             r"GMM variance\[2\] = nan is not in \[1e-30, 1e\+30\] at byte offset 181$"),
            ("basis", (0, 1), -1e31,
             r"PCA basis\[1\] = -1e\+31 is not in \[-1e\+30, 1e\+30\] at byte offset 61$"),
        ],
        ids=["zero-weight", "nan-variance", "huge-basis"],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, array, at, value, message):
        parts = {
            "mean": np.full(4, 0.5), "basis": np.eye(2, 4), "weights": np.full(2, 0.5),
            "means": np.zeros((2, 2)), "variances": np.ones((2, 2)),
        }
        parts[array][at] = value
        pca = PCAModel(mean=parts["mean"], basis=parts["basis"])
        gmm = GMMModel(weights=parts["weights"], means=parts["means"], variances=parts["variances"])
        path = tmp_path / "bad.kmdl"
        with pytest.raises(FormatError, match=message) as saved:
            save_model(path, pca, gmm)
        assert not path.exists()
        header = struct.pack("<4sIIIIB", b"KMDL", 1, 4, 2, 2, 0)
        path.write_bytes(header + b"".join(part.astype("<f8").tobytes() for part in parts.values()))
        with pytest.raises(FormatError) as loaded:
            load_model(path)
        assert str(loaded.value) == str(saved.value)

    @pytest.mark.parametrize(
        "pca, gmm, message",
        [
            (PCAModel(mean=np.zeros(2), basis=np.ones((1, 4))),
             GMMModel(weights=np.ones(1), means=np.zeros((1, 1)), variances=np.ones((1, 1))),
             r"^PCA basis array has shape \(1, 4\), the header implies \(1, 2\)$"),
            (PCAModel(mean=np.zeros(2), basis=np.ones((1, 2))),
             GMMModel(weights=np.full(2, 0.5), means=np.zeros((1, 1)), variances=np.ones((1, 1))),
             r"^GMM mean array has shape \(1, 1\), the header implies \(2, 1\)$"),
        ],
        ids=["basis-wider-than-mean", "more-weights-than-means"],
    )
    def test_save_refuses_parts_whose_shapes_disagree_with_the_header(
        self, tmp_path, pca, gmm, message
    ):
        path = tmp_path / "bad.kmdl"
        with pytest.raises(ValueError, match=message):
            save_model(path, pca, gmm)
        assert not path.exists()
