"""Pipeline orchestration tests: config, describe stage, evaluation modes."""

import tracemalloc

import numpy as np
import pytest

from patchkernel import encode, index as index_mod, pipeline
from patchkernel.embed import (
    META_DTYPE,
    PATCH_SIDE,
    DescriptorSet,
    embed_patches,
    load_descriptors,
    save_descriptors,
    sum_pool,
)
from patchkernel.errors import StageError
from patchkernel.evaluation import load_ground_truth
from patchkernel.pipeline import (
    PipelineConfig,
    describe_corpus,
    describe_image,
    encode_sets,
    evaluate_index,
    load_corpus,
    run_pipeline,
    stage,
    train_codebook,
)
from patchkernel.proposals import Patch, patch_rasters, propose, rotation_stack
from patchkernel.raster import Image, _rotate_crop_array, resize_bilinear
from patchkernel.synth import generate_corpus


def embedded_copies(img: Image, cfg: PipelineConfig) -> np.ndarray:
    """Every rotated copy of every proposal rasterised and embedded on its own."""
    stacks = rotation_stack(patch_rasters(img, propose(img, cfg)))
    return embed_patches(stacks.reshape(-1, PATCH_SIDE, PATCH_SIDE))


def blob_image() -> Image:
    """A 128 x 128 scene with one bright blob, whose proposals come in several sizes."""
    rng = np.random.default_rng(113)
    yy, xx = np.mgrid[0:128, 0:128]
    blob = 0.8 * np.exp(-((yy - 40) ** 2 + (xx - 88) ** 2) / (2 * 9.0**2))
    return Image(np.clip(blob + 0.05 + 0.1 * rng.random((128, 128)), 0.0, 1.0))


def harmonic_patch(rng: np.random.Generator) -> np.ndarray:
    """Criterion 5's patch: a homogeneous harmonic field, self-similar about the centre."""
    yy, xx = (np.mgrid[0:PATCH_SIDE, 0:PATCH_SIDE] - 15.5) / 16.0
    z = xx + 1j * yy
    degree = int(rng.integers(1, 4))
    field = np.real(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * z**degree)
    return np.clip(0.5 + 0.45 * field / np.abs(field).max(), 0.0, 1.0)


class TestConfig:
    def test_defaults_mirror_reference_operating_point(self):
        cfg = PipelineConfig()
        assert cfg.n_proposals == 127
        assert cfg.pca_dim == 128
        assert cfg.gmm_components == 64
        assert cfg.rotations and cfg.use_proposals
        assert cfg.seed == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_proposals=0)
        with pytest.raises(ValueError):
            PipelineConfig(pca_dim=200)
        with pytest.raises(ValueError):
            PipelineConfig(gmm_components=0)
        with pytest.raises(ValueError):
            PipelineConfig(normalization="power")
        for threads in (0, -4):
            with pytest.raises(ValueError, match=f"thread count must be >= 1, got {threads}"):
                PipelineConfig(threads=threads)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            PipelineConfig(seed=-1)

    @pytest.mark.parametrize("use_proposals", [True, False], ids=["proposals", "global-baseline"])
    def test_proposal_settings_checked_when_built(self, use_proposals):
        with pytest.raises(ValueError, match="proposal count must be >= 1, got 0"):
            PipelineConfig(n_proposals=0, use_proposals=use_proposals)
        for nms_iou in (1.5, 1.0, 0.0):
            with pytest.raises(ValueError, match="nms_iou must lie in"):
                PipelineConfig(nms_iou=nms_iou, use_proposals=use_proposals)
        with pytest.raises(ValueError, match="every scale must be >= 16"):
            PipelineConfig(scales=(8,), use_proposals=use_proposals)
        with pytest.raises(ValueError, match="scales must be non-empty"):
            PipelineConfig(scales=(), use_proposals=use_proposals)


class TestDescribeImage:
    def test_global_baseline_collapse_on_degenerate_input(self):
        # On a constant image the proposal stage returns only the full-frame
        # fallback, so the N=1 rotations-off configuration and the explicit
        # proposals-off baseline produce identical descriptor sets.
        img = Image(np.full((64, 64), 0.5))
        via_fallback = describe_image(
            "img", img, PipelineConfig(n_proposals=1, rotations=False)
        )
        via_baseline = describe_image(
            "img", img, PipelineConfig(rotations=False, use_proposals=False)
        )
        assert np.array_equal(via_fallback.meta, via_baseline.meta)
        assert np.array_equal(via_fallback.values, via_baseline.values)

    def test_rotation_copies_ordered_by_patch_then_rotation(self):
        rng = np.random.default_rng(110)
        img = Image(rng.random((96, 96)))
        dset = describe_image("img", img, PipelineConfig(n_proposals=3, scales=(32, 64)))
        keys = [(m.patch_id, m.rotation_index) for m in dset.meta]
        assert keys == sorted(keys)
        assert dset.values.shape[0] == len(keys)
        assert all(m.rotation_index in range(8) for m in dset.meta)
        assert {m.rotation_index for m in dset.meta} == set(range(8))

    def test_rotations_off_single_copy_per_patch(self):
        rng = np.random.default_rng(111)
        img = Image(rng.random((96, 96)))
        dset = describe_image(
            "img", img, PipelineConfig(n_proposals=3, scales=(32, 64), rotations=False)
        )
        assert all(m.rotation_index == 0 for m in dset.meta)

    def test_rows_match_embedding_every_copy_on_its_own(self):
        img = blob_image()
        cfg = PipelineConfig(n_proposals=40)
        dset = describe_image("img", img, cfg)
        np.testing.assert_allclose(dset.values, embedded_copies(img, cfg), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "cfg",
        [PipelineConfig(n_proposals=40), PipelineConfig(n_proposals=40, rotations=False),
         PipelineConfig(use_proposals=False, rotations=False)],
        ids=["rotations-on", "rotations-off", "global-baseline"],
    )
    def test_meta_columns_repeat_each_patch_per_copy(self, cfg):
        img = blob_image()
        if cfg.use_proposals:
            patches = propose(img, cfg)
            assert len({p.w for p in patches}) > 1
        else:
            patches = [Patch(0, 0, img.width, img.height, 0.0)]
        n, copies = len(patches), 8 if cfg.rotations else 1
        meta = describe_image("img", img, cfg).meta
        assert isinstance(meta, np.recarray) and meta.dtype == META_DTYPE
        assert np.array_equal(meta.patch_id, np.repeat(np.arange(n), copies))
        assert np.array_equal(meta.rotation_index, np.tile(np.arange(copies), n))
        for name in ("x", "y", "w", "h"):
            column = np.repeat([getattr(p, name) for p in patches], copies)
            assert np.array_equal(meta[name], column), name
        objectness = np.repeat(np.float32([p.objectness for p in patches]), copies)
        assert np.array_equal(meta.objectness, objectness)

    def test_two_rasters_embedded_per_patch(self, monkeypatch):
        embedded = []

        def counting(rasters):
            embedded.append(len(rasters))
            return embed_patches(rasters)

        monkeypatch.setattr(pipeline, "embed_patches", counting)
        rng = np.random.default_rng(114)
        dset = describe_image("img", Image(rng.random((96, 96))), PipelineConfig(n_proposals=5))
        assert embedded == [2 * len({m.patch_id for m in dset.meta})]
        assert len(dset.meta) == 4 * embedded[0]

    def test_rotation_augmentation_invariance(self):
        # Acceptance criterion 5's two checks, on the rows describe_image returns.
        rng = np.random.default_rng(1005)
        cfg = PipelineConfig(use_proposals=False)
        worst = 0.0
        for _ in range(50):
            patch = harmonic_patch(rng)
            pooled = sum_pool(describe_image("p", Image(patch), cfg).values)
            for q in (1, 2, 3):
                turned = describe_image("p", Image(np.rot90(patch, q)), cfg)
                assert np.array_equal(sum_pool(turned.values), pooled)
            pre_45 = np.clip(
                resize_bilinear(_rotate_crop_array(patch, 45.0), PATCH_SIDE, PATCH_SIDE), 0.0, 1.0
            )
            pooled_45 = sum_pool(describe_image("p", Image(pre_45), cfg).values)
            worst = max(worst, float(np.linalg.norm(pooled_45 - pooled) / np.linalg.norm(pooled)))
        assert worst <= 0.02

    def test_full_frame_patch(self):
        img = Image(np.full((48, 40), 0.2))
        cfg = PipelineConfig(use_proposals=False, rotations=False)
        (p,) = describe_image("img", img, cfg).meta
        assert (p.x, p.y, p.w, p.h) == (0, 0, 40, 48)

    @pytest.mark.parametrize("use_proposals", [True, False], ids=["proposals", "global-baseline"])
    def test_image_below_patch_minimum_refused_by_size(self, use_proposals):
        rng = np.random.default_rng(21)
        cfg = PipelineConfig(use_proposals=use_proposals)
        for side in (8, 15):
            img = Image(rng.random((side, side + 4)))
            with pytest.raises(ValueError, match=f"image {side + 4}x{side} .*16-px minimum"):
                describe_image("small", img, cfg)
        dset = describe_image("small", Image(rng.random((16, 16))), cfg)
        assert dset.values.shape[1] == 128


class TestDescribeCorpus:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        generate_corpus(out, n_base=1, seed=42)
        return load_corpus(out)[:3]

    def test_float32_sets_give_the_float64_artifacts(self, corpus, tmp_path):
        # Sets kept in float32 train and encode exactly as their float64 widening.
        cfg = PipelineConfig(pca_dim=16, gmm_components=4)
        sets = describe_corpus(corpus, cfg)
        assert all(dset.values.dtype == np.float32 for dset in sets)
        wide = [DescriptorSet(d.image_id, d.meta, d.values.astype(np.float64)) for d in sets]
        written = []
        for name, chosen in (("f32", sets), ("f64", wide)):
            pca, gmm = train_codebook(chosen, cfg)
            encode.save_model(tmp_path / f"{name}.kmdl", pca, gmm)
            entries = encode_sets(pca, gmm, chosen, cfg)
            index_mod.save(tmp_path / f"{name}.kidx", index_mod.build(entries))
            written.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("kmdl", "kidx")])
        assert written[0] == written[1]

    def test_other_dtypes_widen_to_float64(self):
        meta = np.rec.array([(0, 0, 0, 16, 16, 0, 0.0)], dtype=META_DTYPE)
        for given, kept in ((np.float32, np.float32), (np.float64, np.float64),
                            (np.float16, np.float64), (np.int64, np.float64)):
            dset = DescriptorSet("a", meta, np.ones((1, 4), dtype=given))
            assert dset.values.dtype == kept, given

    @pytest.mark.parametrize(
        "cfg",
        [PipelineConfig(), PipelineConfig(rotations=False),
         PipelineConfig(use_proposals=False, rotations=False)],
        ids=["default", "rotations-off", "global-baseline"],
    )
    def test_in_memory_values_equal_kdesc_read_back(self, corpus, cfg, tmp_path):
        for dset in describe_corpus(corpus, cfg):
            path = tmp_path / f"{dset.image_id}.kdesc"
            save_descriptors(path, dset)
            back = load_descriptors(path)
            assert np.array_equal(dset.values, back.values), dset.image_id
            assert isinstance(back.meta, np.recarray) and back.meta.dtype == META_DTYPE
            assert np.array_equal(back.meta, dset.meta), dset.image_id

    def test_peak_beyond_the_sets_does_not_grow_with_the_corpus(self, tmp_path):
        # Each worker rounds its image's rows to f32, so beyond its f32 sets
        # a 30-image corpus holds no more than a 10-image one, give or take
        # three images' f64 rows. Rounding after the pool holds every f64 row
        # at once, and the 30-image figure then exceeds the other by 2.4 MB.
        generate_corpus(tmp_path, n_base=6, seed=42)
        corpus = load_corpus(tmp_path)
        cfg = PipelineConfig(threads=2)
        beyond = []
        for count in (10, 30):
            tracemalloc.start()
            try:
                sets = describe_corpus(corpus[:count], cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond.append(peak - sum(dset.values.nbytes for dset in sets))
        f64_rows = max(2 * dset.values.nbytes for dset in sets)
        assert beyond[1] < beyond[0] + 3 * f64_rows


class TestDescriptorPathsAgree:
    def test_one_codebook_gives_identical_per_query_ap(self, tmp_path):
        generate_corpus(tmp_path, n_base=6, seed=42)
        corpus = load_corpus(tmp_path)
        cfg = PipelineConfig()
        derived = describe_corpus(corpus, cfg)
        embedded = [
            DescriptorSet(dset.image_id, dset.meta, embedded_copies(img, cfg).astype(np.float32))
            for dset, (_, img) in zip(derived, corpus)
        ]
        pca, gmm = train_codebook(derived, cfg)
        entries = [encode_sets(pca, gmm, sets, cfg) for sets in (derived, embedded)]
        for a, b in zip(*entries):
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-6)
        gt = load_ground_truth(tmp_path / "groundtruth.csv")
        rows = [evaluate_index(index_mod.build(e), gt, "map")[0] for e in entries]
        assert len(rows[0]) == 6
        assert rows[0] == rows[1]


class TestTrainCodebook:
    def test_training_matrix_is_freed_before_em(self, monkeypatch):
        # numpy reports its buffers to tracemalloc. When EM starts, only the
        # projected rows (20,000 x 16 f64, 2.6 MB) should remain of training;
        # the stacked input (20,000 x 128 f64) would be another 20.5 MB.
        rng = np.random.default_rng(115)
        meta = np.rec.array([(0, 0, 0, 16, 16, 0, 0.0)] * 2000, dtype=META_DTYPE)
        sets = [
            DescriptorSet(f"im{i}", meta, rng.standard_normal((2000, 128))) for i in range(10)
        ]
        held = []

        def record(data, components, seed):
            held.append(tracemalloc.get_traced_memory()[0] - data.nbytes)

        monkeypatch.setattr(encode, "gmm_train", record)
        tracemalloc.start()
        try:
            train_codebook(sets, PipelineConfig(pca_dim=16))
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < 2**20

    def test_training_holds_the_projection_of_em_sample_only(self, monkeypatch):
        # 40,000 rows, more than EM fits. Beyond the f32 stack and its centred
        # f64 copy, PCA holds nothing large; from the first projection on,
        # the peak is that of 16,384 projected rows and their [x, x^2]
        # statistics, not of a projection of every row (5.1 MB).
        rng = np.random.default_rng(116)
        meta = np.rec.array([(0, 0, 0, 16, 16, 0, 0.0)] * 1000, dtype=META_DTYPE)
        sets = [
            DescriptorSet(f"im{i}", meta, rng.standard_normal((1000, 128)).astype(np.float32))
            for i in range(40)
        ]
        rows = 40 * 1000
        assert rows > encode.EM_MAX_SAMPLES
        pca_dim = 16
        sample = 3 * encode.EM_MAX_SAMPLES * pca_dim * 8
        project = encode.pca_project
        pca_peak = []

        def peak_then_project(model, vectors):
            if not pca_peak:
                pca_peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return project(model, vectors)

        monkeypatch.setattr(encode, "pca_project", peak_then_project)
        tracemalloc.start()
        try:
            train_codebook(sets, PipelineConfig(pca_dim=pca_dim, gmm_components=4))
            em_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The 3 MiB of slack covers EM's responsibilities (16,384 x 4 f64,
        # twice while an E-step replaces them), the per-row scalars, and the
        # sampled rows on an interpreter whose calling frame keeps an
        # argument alive until the call returns (8.1 MB in all then).
        assert pca_peak[0] - rows * 128 * (4 + 8) < sample + 3 * 2**20
        assert em_peak < sample + 3 * 2**20


class TestEvaluateIndex:
    def _index(self):
        v_q = np.array([1.0, 0.0, 0.0])
        v_rel = np.array([0.9, 0.1, 0.0])
        v_rel /= np.linalg.norm(v_rel)
        v_other = np.array([0.0, 1.0, 0.0])
        return index_mod.build(
            [
                index_mod.IndexEntry("q", v_q),
                index_mod.IndexEntry("r", v_rel),
                index_mod.IndexEntry("x", v_other),
            ]
        )

    def test_map_mode_excludes_query_from_ranking(self):
        gt = {"q": {"r": "rel"}}
        rows, overall = evaluate_index(self._index(), gt, "map")
        assert rows == [("q", 1.0)]
        assert overall == 1.0

    def test_top4_mode_counts_query_itself(self):
        gt = {"q": {"r": "rel"}}
        rows, overall = evaluate_index(self._index(), gt, "top4")
        assert rows == [("q", 2.0)]  # the query itself plus its relative

    def test_exact_duplicates_give_perfect_map(self):
        v = np.array([0.6, 0.8])
        idx = index_mod.build(
            [
                index_mod.IndexEntry("q", v),
                index_mod.IndexEntry("dup1", v),
                index_mod.IndexEntry("dup2", v),
                index_mod.IndexEntry("far", np.array([-0.8, 0.6])),
            ]
        )
        gt = {"q": {"dup1": "rel", "dup2": "rel"}}
        _, overall = evaluate_index(idx, gt, "map")
        assert overall == pytest.approx(1.0)

    def test_unknown_query_rejected(self):
        gt = {"ghost": {"r": "rel"}}
        with pytest.raises(ValueError, match="ghost"):
            evaluate_index(self._index(), gt, "map")

    def test_unknown_mode_rejected(self):
        gt = {"q": {"r": "rel"}}
        with pytest.raises(ValueError, match="mode"):
            evaluate_index(self._index(), gt, "recall")


class TestStageTagging:
    def test_stage_wraps_exceptions(self):
        with pytest.raises(StageError) as excinfo:
            with stage("train"):
                raise ValueError("rank 3 below requested dimension 8")
        assert excinfo.value.stage == "train"
        assert "rank 3" in excinfo.value.message

    def test_nested_stage_keeps_innermost(self):
        with pytest.raises(StageError) as excinfo:
            with stage("outer"):
                with stage("inner"):
                    raise RuntimeError("boom")
        assert excinfo.value.stage == "inner"

    def test_load_corpus_empty_dir(self, tmp_path):
        with pytest.raises(ValueError, match="no .pgm images"):
            load_corpus(tmp_path)


class TestRunPipelineErrors:
    def test_training_error_is_stage_tagged(self, tmp_path):
        from patchkernel.raster import write_pgm

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(112)
        for i in range(2):
            write_pgm(corpus / f"im{i}.pgm", Image(rng.random((64, 64))))
        # two images cannot support a 64-component GMM
        cfg = PipelineConfig(n_proposals=4, pca_dim=16, gmm_components=64, scales=(32,))
        with pytest.raises(StageError) as excinfo:
            run_pipeline(corpus, tmp_path / "out", cfg)
        assert excinfo.value.stage == "train"
