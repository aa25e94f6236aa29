"""PCA, EM, Fisher-score aggregation, and kernel-identity tests."""

import struct

import numpy as np
import pytest

from patchkernel.encode import (
    EM_MAX_ITER,
    EM_MAX_SAMPLES,
    GMMModel,
    PCAModel,
    _e_step,
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
