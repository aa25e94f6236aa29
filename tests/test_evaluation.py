"""Retrieval metric and sensitivity-harness tests."""

import re

import numpy as np
import pytest

from patchkernel.errors import FormatError
from patchkernel.evaluation import (
    SensitivityCurve,
    average_precision,
    default_grid,
    load_ground_truth,
    save_ground_truth,
    sensitivity_study,
    top4_score,
    write_curve_csv,
    write_metric_report,
)
from patchkernel.raster import Image
from patchkernel.synth import make_base_image


def pr_area_oracle(ranked_ids, labels) -> float:
    """Independent AP oracle: stepwise area under the precision-recall curve.

    Each relevant hit advances recall by 1/R and contributes a rectangle of
    that width at the precision reached there.
    """
    kept = [i for i in ranked_ids if labels.get(i) != "junk"]
    total_relevant = sum(1 for v in labels.values() if v == "rel")
    area = 0.0
    seen_relevant = 0
    for position, image_id in enumerate(kept, start=1):
        if labels.get(image_id) == "rel":
            seen_relevant += 1
            area += (seen_relevant / position) * (1.0 / total_relevant)
    return area


def random_instance(rng):
    """Random ranked list with rel / nonrel / junk labels, >= 1 relevant."""
    length = int(rng.integers(1, 21))
    ids = [f"i{j}" for j in range(length)]
    labels = {}
    for j, image_id in enumerate(ids):
        labels[image_id] = rng.choice(["rel", "nonrel", "junk"], p=[0.4, 0.4, 0.2])
    labels[ids[int(rng.integers(length))]] = "rel"
    # some relevant items may never be retrieved
    if rng.random() < 0.5:
        labels[f"missing{int(rng.integers(100))}"] = "rel"
    order = rng.permutation(length)
    return [ids[j] for j in order], labels


class TestAveragePrecision:
    def test_perfect_ranking(self):
        labels = {f"r{i}": "rel" for i in range(3)}
        labels.update({f"n{i}": "nonrel" for i in range(4)})
        ranked = ["r0", "r1", "r2", "n0", "n1", "n2", "n3"]
        assert average_precision(ranked, labels) == pytest.approx(1.0)

    def test_two_relevant_at_ranks_one_and_three(self):
        labels = {"a": "rel", "b": "nonrel", "c": "rel", "d": "nonrel"}
        ranked = ["a", "b", "c", "d"]
        assert average_precision(ranked, labels) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_junk_removal_promotes_hit(self):
        labels = {"j": "junk", "r": "rel"}
        assert average_precision(["j", "r"], labels) == pytest.approx(1.0)

    def test_missing_relevant_items_count_in_denominator(self):
        labels = {"a": "rel", "b": "rel"}
        assert average_precision(["a"], labels) == pytest.approx(0.5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            average_precision(["a", "a"], {"a": "rel"})

    def test_no_relevant_rejected(self):
        with pytest.raises(ValueError, match="no relevant"):
            average_precision(["a"], {"a": "nonrel"})

    def test_matches_pr_area_oracle(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            ranked, labels = random_instance(rng)
            assert abs(average_precision(ranked, labels) - pr_area_oracle(ranked, labels)) < 1e-12

    def test_junk_insertion_invariance(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            ranked, labels = random_instance(rng)
            base = average_precision(ranked, labels)
            junked = list(ranked)
            for j in range(3):
                junk_id = f"junk{j}"
                labels[junk_id] = "junk"
                junked.insert(int(rng.integers(len(junked) + 1)), junk_id)
            assert average_precision(junked, labels) == pytest.approx(base, abs=1e-12)

    def test_tail_order_of_nonrelevant_is_irrelevant(self):
        labels = {"a": "rel", "x": "nonrel", "y": "nonrel", "z": "nonrel"}
        assert average_precision(["a", "x", "y", "z"], labels) == (
            average_precision(["a", "z", "x", "y"], labels)
        )

    def test_bounds(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            ranked, labels = random_instance(rng)
            assert 0.0 <= average_precision(ranked, labels) <= 1.0


class TestTop4:
    def test_all_four(self):
        labels = {f"g{i}": "rel" for i in range(4)}
        assert top4_score([f"g{i}" for i in range(4)], labels, "q") == 4.0

    def test_none(self):
        labels = {"g": "rel"}
        assert top4_score(["a", "b", "c", "d"], labels, "q") == 0.0

    def test_query_counts_itself_when_flagged(self):
        labels = {"g1": "rel"}
        ranked = ["q", "g1", "x", "y"]
        assert top4_score(ranked, labels, "q") == 2.0

    def test_range(self):
        rng = np.random.default_rng(93)
        for _ in range(20):
            ranked, labels = random_instance(rng)
            value = top4_score(ranked, labels, "q")
            assert 0.0 <= value <= 4.0


class TestSensitivity:
    def test_reference_point_identity(self):
        rng = np.random.default_rng(94)
        corpus = [(f"im{i}", Image(rng.random((32, 32)))) for i in range(4)]
        for kind, grid in (
            ("translate", [0, 8, 16]),
            ("scale", [0.5, 1.0, 2.0]),
            ("rotate", [0.0, 90.0, 180.0]),
        ):
            curve = sensitivity_study(corpus, kind, grid)
            ref = grid.index({"translate": 0, "scale": 1.0, "rotate": 0.0}[kind])
            assert abs(curve.mean[ref] - 1.0) <= 1e-9
            assert abs(curve.std[ref]) <= 1e-9

    def test_constant_corpus_flat_at_one(self):
        corpus = [("flat", Image(np.full((32, 32), 0.5)))]
        curve = sensitivity_study(corpus, "translate", [0, 8, 16, 24, 32])
        np.testing.assert_allclose(curve.mean, 1.0, atol=1e-9)

    def test_structured_corpus_translation_regression(self):
        # Frozen fixed-seed oracle run: 10 structured images, default grid.
        rng = np.random.default_rng(7)
        corpus = [(f"im{i}", make_base_image(rng)) for i in range(10)]
        grid = default_grid("translate", 128)
        assert 64 in grid
        curve = sensitivity_study(corpus, "translate", grid)
        at_half = curve.mean[grid.index(64)]
        assert at_half < 1.0
        np.testing.assert_allclose(at_half, 0.26289262341554964, atol=1e-9)
        np.testing.assert_allclose(curve.std[grid.index(64)], 0.08674241770696983, atol=1e-9)
        assert np.all(curve.mean >= -1.0) and np.all(curve.mean <= 1.0)
        assert np.all(curve.std >= 0.0)

    @pytest.mark.parametrize(
        "kind, value, mean, std",
        [
            ("scale", 1.5, 0.5798916294674357, 0.0911125151926114),
            ("rotate", 45.0, 0.42979197114030365, 0.07836898694035982),
        ],
        ids=["scale-1.5", "rotate-45"],
    )
    def test_structured_corpus_scale_and_rotation_regression(self, kind, value, mean, std):
        # Frozen fixed-seed oracle run: the corpus of the translation case, default grids.
        rng = np.random.default_rng(7)
        corpus = [(f"im{i}", make_base_image(rng)) for i in range(10)]
        grid = default_grid(kind, 128)
        curve = sensitivity_study(corpus, kind, grid)
        np.testing.assert_allclose(curve.mean[grid.index(value)], mean, atol=1e-9)
        np.testing.assert_allclose(curve.std[grid.index(value)], std, atol=1e-9)

    def test_translation_snaps_to_whole_pixels(self):
        rng = np.random.default_rng(97)
        corpus = [(f"im{i}", Image(rng.random((48, 48)))) for i in range(2)]
        curve = sensitivity_study(corpus, "translate", [0, 7.6, 33])
        snapped = sensitivity_study(corpus, "translate", [0, 7, 33])
        assert curve.grid.tolist() == [0.0, 7.0, 33.0]
        assert np.array_equal(curve.mean, snapped.mean)

    def test_grid_must_contain_reference(self):
        corpus = [("im", Image(np.random.default_rng(95).random((32, 32))))]
        with pytest.raises(ValueError, match="reference"):
            sensitivity_study(corpus, "translate", [4, 8])
        with pytest.raises(ValueError, match="reference"):
            sensitivity_study(corpus, "scale", [0.5, 2.0])

    def test_grid_must_increase(self):
        corpus = [("im", Image(np.random.default_rng(96).random((32, 32))))]
        with pytest.raises(ValueError, match="increasing"):
            sensitivity_study(corpus, "translate", [0, 8, 8])

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="non-empty"):
            sensitivity_study([], "translate", [0, 8])

    def test_default_grids(self):
        translate = default_grid("translate", 128)
        assert translate[0] == 0 and len(translate) == 16
        scale = default_grid("scale", 128)
        assert scale[0] == 0.5 and scale[-1] == 2.0 and 1.0 in scale and len(scale) == 13
        rotate = default_grid("rotate", 128)
        assert rotate == [i * 22.5 for i in range(16)]

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            SensitivityCurve(
                kind="translate",
                grid=np.array([0.0, 0.0]),
                mean=np.ones(2),
                std=np.zeros(2),
            )


class TestCsv:
    def test_curve_csv_format(self, tmp_path):
        curve = SensitivityCurve(
            kind="scale",
            grid=np.array([0.5, 1.0]),
            mean=np.array([0.75, 1.0]),
            std=np.array([0.125, 0.0]),
            count=3,
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,mean,std,count"
        assert lines[1] == "0.500000,0.750000,0.125000,3"
        assert lines[2] == "1.000000,1.000000,0.000000,3"

    def test_ground_truth_roundtrip(self, tmp_path):
        gt = {
            "q1": {"a": "rel", "b": "junk", "c": "nonrel"},
            "q2": {"d": "rel"},
        }
        path = tmp_path / "gt.csv"
        save_ground_truth(path, gt)
        back = load_ground_truth(path)
        assert back == gt
        assert sorted(back) == ["q1", "q2"]

    def test_ground_truth_bad_label(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_id,image_id,label\nq,a,great\n")
        with pytest.raises(ValueError, match="label"):
            load_ground_truth(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("query_id,image_id,label\nq,a,rel\nq,b\n", ":3: expected query_id,image_id,label"),
            ("query_id,image_id,label\nq,a,great\n", ":2: unknown label 'great'"),
            ("query_id,image_id,label\n", ": ground truth file has no rows"),
            # the last label would win silently: rel then junk scored as junk
            ("query_id,image_id,label\nq,a,rel\nq,b,rel\nq, a,junk\n",
             ":4: pair (q, a) repeats line 2"),
        ],
        ids=["two-fields", "unknown-label", "no-rows", "repeated-pair"],
    )
    def test_ground_truth_malformed_is_format_error(self, text, message, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path) + message)}$"):
            load_ground_truth(path)

    def test_ground_truth_not_utf8_names_path_and_offset(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_bytes(b"query_id,image_id,label\nq\xff,a,rel\n")
        message = f"^{re.escape(str(path))}: not UTF-8 at byte offset 25$"
        with pytest.raises(FormatError, match=message):
            load_ground_truth(path)

    def test_ground_truth_fuzz_truncation_and_ff_bytes(self, tmp_path):
        good = tmp_path / "good.csv"
        save_ground_truth(good, {"q1": {"a": "rel", "b": "junk"}, "q2": {"c": "nonrel"}})
        data = good.read_bytes()
        assert len(data) == 55
        path = tmp_path / "fuzz.csv"
        mutations = [data[:cut] for cut in range(len(data))]
        mutations += [data[:at] + b"\xff" + data[at + 1 :] for at in range(len(data))]
        loaded = 0
        for mutated in mutations:
            path.write_bytes(mutated)
            try:
                gt = load_ground_truth(path)
            except FormatError as exc:
                assert str(exc).startswith(f"{path}:"), mutated
                continue
            loaded += 1
            assert sorted(gt) and set(gt) <= {"q1", "q2"}, mutated
            for labels in gt.values():
                assert set(labels.values()) <= {"rel", "nonrel", "junk"}, mutated
        assert loaded > 0

    def test_metric_report_format(self, tmp_path):
        path = tmp_path / "report.csv"
        write_metric_report(path, [("q1", 0.5), ("q2", 1.0)], 0.75, mode="map")
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,ap"
        assert lines[-1] == "ALL,0.750000"
