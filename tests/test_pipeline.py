"""Pipeline orchestration tests: config, describe stage, evaluation modes."""

import numpy as np
import pytest

from patchkernel import index as index_mod
from patchkernel.embed import load_descriptors, save_descriptors
from patchkernel.errors import StageError
from patchkernel.evaluation import GroundTruth
from patchkernel.pipeline import (
    PipelineConfig,
    describe_corpus,
    describe_image,
    evaluate_index,
    full_frame_patch,
    load_corpus,
    run_pipeline,
    stage,
)
from patchkernel.raster import Image
from patchkernel.synth import generate_corpus


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
        assert via_fallback.meta == via_baseline.meta
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

    def test_full_frame_patch(self):
        img = Image(np.full((48, 40), 0.2))
        p = full_frame_patch(img)
        assert p.rect() == (0, 0, 40, 48)


class TestDescribeCorpus:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("corpus")
        generate_corpus(out, n_base=1, seed=42)
        return load_corpus(out)[:3]

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
            assert np.array_equal(dset.values, load_descriptors(path).values), dset.image_id


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
        gt = GroundTruth(relevance={"q": {"r": "rel"}})
        rows, overall = evaluate_index(self._index(), gt, "map")
        assert rows == [("q", 1.0)]
        assert overall == 1.0

    def test_top4_mode_counts_query_itself(self):
        gt = GroundTruth(relevance={"q": {"r": "rel"}})
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
        gt = GroundTruth(relevance={"q": {"dup1": "rel", "dup2": "rel"}})
        _, overall = evaluate_index(idx, gt, "map")
        assert overall == pytest.approx(1.0)

    def test_unknown_query_rejected(self):
        gt = GroundTruth(relevance={"ghost": {"r": "rel"}})
        with pytest.raises(ValueError, match="ghost"):
            evaluate_index(self._index(), gt, "map")

    def test_unknown_mode_rejected(self):
        gt = GroundTruth(relevance={"q": {"r": "rel"}})
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
