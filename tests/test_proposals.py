"""Objectness map, window proposals, NMS, and rotation augmentation tests."""

import tracemalloc

import numpy as np
import pytest

from patchkernel.embed import PATCH_SIDE
from patchkernel.pipeline import PipelineConfig
from patchkernel.proposals import (
    Patch,
    _center_ring_score,
    augment_rotations,
    iou,
    objectness_map,
    patch_rasters,
    propose,
    rotation_stack,
    window_sides,
    write_patches_csv,
)
from patchkernel.raster import Image, _rotate_crop_array, resize_bilinear
from patchkernel.synth import make_base_image


def blob_image(side=128, cy=40, cx=88, sigma=9.0) -> Image:
    yy, xx = np.mgrid[0:side, 0:side].astype(float)
    blob = 0.8 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
    return Image(np.clip(blob + 0.05, 0.0, 1.0))


def reference_propose(img: Image, cfg: PipelineConfig) -> list[Patch]:
    """Oracle for propose: every positive window as a Python tuple, one sort on
    (-score, y, x, side), and greedy NMS through iou() against each kept rect."""
    omap = objectness_map(img)
    ii = np.zeros((img.height + 1, img.width + 1))
    np.cumsum(np.cumsum(omap, axis=0), axis=1, out=ii[1:, 1:])
    candidates = []
    for scale in window_sides(img, cfg.scales):
        stride = max(1, scale // 4)
        ys = np.arange(0, img.height - scale + 1, stride)
        xs = np.arange(0, img.width - scale + 1, stride)
        yy, xx = np.meshgrid(ys, xs, indexing="ij")
        scores = _center_ring_score(ii, xx, yy, scale, scale)
        for r, c in zip(*np.nonzero(scores > 0.0)):
            candidates.append((float(scores[r, c]), int(yy[r, c]), int(xx[r, c]), scale))
    candidates.sort(key=lambda cand: (-cand[0], cand[1], cand[2], cand[3]))
    kept = []
    for score, y, x, scale in candidates:
        rect = (x, y, scale, scale)
        if all(iou(rect, other[:4]) < cfg.nms_iou for other in kept):
            kept.append(Patch(x=x, y=y, w=scale, h=scale, objectness=score))
            if len(kept) == cfg.n_proposals:
                return kept
    if (0, 0, img.width, img.height) not in (p[:4] for p in kept):
        score = _center_ring_score(ii, 0, 0, img.width, img.height)
        kept.append(Patch(x=0, y=0, w=img.width, h=img.height, objectness=float(score)))
    return kept


def oracle_images() -> dict[str, Image]:
    """Random, blob, synth and tiled scenes, each square and 96 x 160.

    The tiled scene repeats a 16-px cell in eighths, so its box sums are exact
    and many windows tie on score: the (y, x, side) tie-break decides.
    """
    rng = np.random.default_rng(19)
    images = {}
    for h, w in ((96, 96), (96, 160)):
        yy, xx = np.mgrid[0:h, 0:w]
        blob = 0.05 + 0.8 * np.exp(-((yy - h / 3) ** 2 + (xx - w / 2) ** 2) / 200.0)
        cell = np.cos(2 * np.pi * xx / 16) * np.cos(2 * np.pi * yy / 16)
        images[f"tiled-{h}x{w}"] = Image(np.round(4 + 4 * cell) / 8)
        images[f"random-{h}x{w}"] = Image(rng.random((h, w)))
        images[f"blob-{h}x{w}"] = Image(np.clip(blob + 0.05 * rng.random((h, w)), 0.0, 1.0))
        images[f"synth-{h}x{w}"] = Image(make_base_image(rng, max(h, w)).pixels[:h, :w])
    return images


ORACLE_IMAGES = oracle_images()


def per_patch_crops(img: Image, patches: list[Patch]) -> np.ndarray:
    """Oracle for patch_rasters: crop and resize one window at a time."""
    windows = [img.pixels[p.y : p.y + p.h, p.x : p.x + p.w] for p in patches]
    return np.stack([resize_bilinear(window, PATCH_SIDE, PATCH_SIDE) for window in windows])


def per_patch_pair(base: np.ndarray) -> tuple[np.ndarray, int]:
    """Oracle for one patch's pair: the quarter turn with the smallest bytes
    (the first on a tie) and its 45-degree tilt, both clipped."""
    turn = min(range(4), key=lambda k: np.rot90(base, k).tobytes())
    canonical = np.rot90(base, turn)
    tilted = resize_bilinear(_rotate_crop_array(canonical, 45.0), PATCH_SIDE, PATCH_SIDE)
    return np.clip(np.stack([canonical, tilted]), 0.0, 1.0), turn


def brute_force_best_window(img: Image, scales, stride_of) -> tuple[float, int, int, int]:
    """Independent scoring oracle: loop over every window with plain means."""
    omap = objectness_map(img)
    best = (-np.inf, 0, 0, 0)
    for scale in scales:
        stride = stride_of(scale)
        inner, off = scale // 2, scale // 4
        for y in range(0, img.height - scale + 1, stride):
            for x in range(0, img.width - scale + 1, stride):
                window = omap[y : y + scale, x : x + scale]
                core = omap[y + off : y + off + inner, x + off : x + off + inner]
                ring_sum = window.sum() - core.sum()
                score = core.mean() - ring_sum / (scale * scale - inner * inner)
                if score > best[0]:
                    best = (score, y, x, scale)
    return best


class TestObjectnessMap:
    def test_constant_image_all_zero(self):
        omap = objectness_map(Image(np.full((16, 16), 0.7)))
        assert np.array_equal(omap, np.zeros((16, 16)))

    def test_step_edge_support(self):
        pix = np.zeros((16, 16))
        c = 8
        pix[:, c:] = 1.0
        omap = objectness_map(Image(pix))
        nonzero_cols = np.nonzero(omap.any(axis=0))[0]
        assert set(nonzero_cols) <= {c - 1, c, c + 1}

    def test_ramp_interior_value(self):
        img = Image(np.tile(np.arange(8) / 8.0, (8, 1)))
        omap = objectness_map(img)
        np.testing.assert_allclose(omap[:, 1:-1], 1.0 / 8.0, atol=1e-12)


class TestPropose:
    def test_constant_image_full_frame_fallback(self):
        ps = propose(Image(np.full((64, 64), 0.5)), PipelineConfig(n_proposals=1))
        assert len(ps) == 1
        assert ps[0][:4] == (0, 0, 64, 64)
        assert ps[0].objectness == 0.0

    def test_blob_top_window_matches_bruteforce_argmax(self):
        img = blob_image()
        cfg = PipelineConfig(n_proposals=1)
        scales = window_sides(img, cfg.scales)
        best = brute_force_best_window(img, scales, lambda s: max(1, s // 4))
        top = propose(img, cfg)[0]
        assert (top.objectness, top.y, top.x, top.w) == pytest.approx(best)
        # top patch center lands within half a stride of the blob center
        stride = top.w // 4
        assert abs(top.x + top.w / 2 - 88) <= stride / 2 + 1e-9
        assert abs(top.y + top.h / 2 - 40) <= stride / 2 + 1e-9

    def test_fallback_appended_when_fewer_than_n(self):
        img = blob_image(side=64)
        ps = propose(img, PipelineConfig(n_proposals=127))
        assert len(ps) < 127
        assert ps[-1][:4] == (0, 0, 64, 64)
        survivors = ps[:-1]
        assert all(p[:4] != (0, 0, 64, 64) for p in survivors)

    def test_nms_pairwise_iou_bound(self):
        rng = np.random.default_rng(11)
        img = Image(rng.random((96, 96)))
        cfg = PipelineConfig(n_proposals=40, nms_iou=0.4)
        ps = propose(img, cfg)
        boxes = [p[:4] for p in ps if p[:4] != (0, 0, 96, 96)]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou(boxes[i], boxes[j]) < 0.4

    def test_scores_non_increasing_and_capped_at_n(self):
        rng = np.random.default_rng(12)
        img = Image(rng.random((128, 128)))
        ps = propose(img, PipelineConfig(n_proposals=10))
        assert len(ps) <= 10
        scores = [p.objectness for p in ps]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_image_smaller_than_every_scale(self):
        with pytest.raises(ValueError, match="smaller than every"):
            img = Image(np.zeros((24, 24)) + 0.5)
            propose(img, PipelineConfig(n_proposals=3, scales=(32, 64)))


class TestProposeMatchesReference:
    @pytest.mark.parametrize("scales", [None, (16, 24, 40)], ids=["default-scales", "16-24-40"])
    @pytest.mark.parametrize("name", sorted(ORACLE_IMAGES))
    def test_identical_patches(self, name, scales):
        img = ORACLE_IMAGES[name]
        for n in (1, 5, 127, 300):
            for nms_iou in (0.1, 0.5, 0.9):
                cfg = PipelineConfig(n_proposals=n, scales=scales, nms_iou=nms_iou)
                got = propose(img, cfg)
                assert got == reference_propose(img, cfg), (n, nms_iou)
                assert all(type(v) is int for p in got for v in p[:4])
                assert all(type(p.objectness) is float for p in got)

    def test_iou_at_the_threshold_suppresses(self):
        # A 32-px window inside a 64-px one has an IoU of exactly 0.25.
        cfg = PipelineConfig(nms_iou=0.25)
        for img in ORACLE_IMAGES.values():
            assert propose(img, cfg) == reference_propose(img, cfg)

    def test_constant_image_takes_the_fallback(self):
        img = Image(np.full((96, 160), 0.3))
        for n in (1, 127):
            cfg = PipelineConfig(n_proposals=n)
            got = propose(img, cfg)
            assert got == reference_propose(img, cfg)
            assert [p[:4] for p in got] == [(0, 0, 160, 96)]

    def test_memory_linear_in_window_count(self):
        # ~60k windows at sides 16 and 32; a window-by-window IoU matrix
        # would need gigabytes.
        img = Image(np.random.default_rng(20).random((768, 1024)))
        cfg = PipelineConfig(scales=(16, 32))
        tracemalloc.start()
        try:
            patches = propose(img, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(patches) == cfg.n_proposals
        assert peak < 64 * 2**20


class TestPatchRasters:
    def test_equal_per_patch_resize_bit_exact(self):
        img = ORACLE_IMAGES["synth-96x160"]
        patches = [
            Patch(x=0, y=0, w=160, h=96, objectness=0.0),  # the full frame
            Patch(x=128, y=64, w=32, h=32, objectness=0.0),  # flush right and bottom
            Patch(x=3, y=5, w=PATCH_SIDE, h=PATCH_SIDE, objectness=0.0),
            Patch(x=96, y=32, w=64, h=64, objectness=0.0),  # flush right and bottom
            Patch(x=10, y=7, w=40, h=24, objectness=0.0),
            Patch(x=17, y=0, w=64, h=64, objectness=0.0),
            Patch(x=120, y=70, w=40, h=24, objectness=0.0),
        ]
        got = patch_rasters(img, patches)
        assert got.tobytes() == per_patch_crops(img, patches).tobytes()
        assert np.array_equal(got[2], img.pixels[5 : 5 + PATCH_SIDE, 3 : 3 + PATCH_SIDE])

    def test_gather_memory_bounded_on_a_large_image(self):
        # 127 windows of 128 px would copy 16 MB whole; blocks of at most
        # _GATHER_PIXELS window pixels keep the peak near the 1 MB output
        img = Image(np.random.default_rng(21).random((768, 1024)))
        rng = np.random.default_rng(22)
        patches = [
            Patch(x=int(x), y=int(y), w=128, h=128, objectness=0.0)
            for x, y in zip(rng.integers(0, 897, size=127), rng.integers(0, 641, size=127))
        ]
        tracemalloc.start()
        try:
            got = patch_rasters(img, patches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert got.tobytes() == per_patch_crops(img, patches).tobytes()
        # a window above the block size still makes a block of its own
        full = [Patch(x=0, y=0, w=1024, h=768, objectness=0.0)]
        assert patch_rasters(img, full).tobytes() == per_patch_crops(img, full).tobytes()

    def test_out_of_bounds_patch_named(self):
        img = Image(np.zeros((32, 48)) + 0.5)
        patches = [
            Patch(x=0, y=0, w=16, h=16, objectness=0.0),
            Patch(x=16, y=0, w=32, h=32, objectness=0.0),
            Patch(x=24, y=0, w=32, h=16, objectness=0.0),
        ]
        with pytest.raises(ValueError, match=r"patch \(24, 0, 32, 16\) exceeds 48x32 image"):
            patch_rasters(img, patches)


class TestAugmentRotations:
    def test_constant_patch_eight_identical(self):
        img = Image(np.full((64, 64), 0.6))
        pairs, turns = augment_rotations(img, [Patch(x=8, y=8, w=32, h=32, objectness=0.1)])
        assert pairs.shape == (1, 2, PATCH_SIDE, PATCH_SIDE)
        assert turns.tolist() == [0]  # all four quarter turns tie
        for j in range(8):
            copy = np.rot90(pairs[0, j % 2], j // 2 - turns[0])
            np.testing.assert_allclose(copy, 0.6, atol=1e-12)

    def test_quarter_turn_composition_bit_exact(self):
        rng = np.random.default_rng(13)
        base = rng.random((PATCH_SIDE, PATCH_SIDE))
        stack = rotation_stack(base)
        # applying the 90-degree copy twice reproduces the 180-degree copy
        assert np.array_equal(np.rot90(stack[2]), stack[4])
        assert np.array_equal(np.rot90(base, 1), stack[2])

    def test_fourfold_symmetric_cross(self):
        pix = np.zeros((PATCH_SIDE, PATCH_SIDE))
        pix[14:18, :] = 1.0
        pix[:, 14:18] = 1.0
        stack = rotation_stack(pix)
        for j in (2, 4, 6):
            assert np.array_equal(stack[j], stack[0])

    def test_multiset_invariant_under_quarter_turn_bit_exact(self):
        rng = np.random.default_rng(14)
        base = rng.random((PATCH_SIDE, PATCH_SIDE))
        original = rotation_stack(base)
        pre_rotated = rotation_stack(np.rot90(base))
        for j in range(8):
            assert np.array_equal(pre_rotated[j], original[(j + 2) % 8])

    def test_rasters_in_range(self):
        rng = np.random.default_rng(15)
        img = Image(rng.random((80, 80)))
        pairs, turns = augment_rotations(img, [Patch(x=10, y=6, w=48, h=48, objectness=0.0)])
        assert pairs.shape == (1, 2, PATCH_SIDE, PATCH_SIDE)
        assert turns.shape == (1,)
        assert pairs.min() >= 0.0 and pairs.max() <= 1.0

    def test_quarter_turned_patch_keeps_its_pair_and_shifts_its_turn(self):
        rng = np.random.default_rng(18)
        frame = Patch(x=0, y=0, w=PATCH_SIDE, h=PATCH_SIDE, objectness=0.0)
        for _ in range(8):
            base = rng.random((PATCH_SIDE, PATCH_SIDE))
            pairs, turns = augment_rotations(Image(base), [frame])
            assert pairs.tobytes() == per_patch_pair(base)[0].tobytes()
            for q in (1, 2, 3, -1):
                turned_pairs, turned = augment_rotations(Image(np.rot90(base, q)), [frame])
                assert turned_pairs.tobytes() == pairs.tobytes()
                assert turned.tolist() == [(turns[0] - q) % 4]

    def test_patch_outside_image_rejected(self):
        img = Image(np.zeros((32, 32)) + 0.5)
        with pytest.raises(ValueError, match="exceeds"):
            augment_rotations(img, [Patch(x=8, y=8, w=32, h=32, objectness=0.0)])

    def test_patch_outside_image_rejected_without_rotations(self):
        img = Image(np.zeros((32, 48)) + 0.5)
        inside = Patch(x=0, y=0, w=32, h=32, objectness=0.0)
        with pytest.raises(ValueError, match="exceeds 48x32 image"):
            patch_rasters(img, [inside, Patch(x=0, y=16, w=32, h=32, objectness=0.0)])

    def test_stack_equals_per_slice_bit_exact(self):
        rng = np.random.default_rng(16)
        bases = rng.random((5, PATCH_SIDE, PATCH_SIDE))
        stack = rotation_stack(bases)
        assert stack.shape == (5, 8, PATCH_SIDE, PATCH_SIDE)
        assert np.array_equal(stack, np.stack([rotation_stack(base) for base in bases]))

    def test_image_stack_equals_per_patch_oracle_bit_exact(self):
        rng = np.random.default_rng(17)
        img = Image(np.clip(blob_image().pixels + 0.1 * rng.random((128, 128)), 0.0, 1.0))
        patches = propose(img, PipelineConfig(n_proposals=40))
        assert len({p.w for p in patches}) > 1
        bases = per_patch_crops(img, patches)
        assert np.array_equal(patch_rasters(img, patches), bases)
        pairs, turns = augment_rotations(img, patches)
        oracle = [per_patch_pair(base) for base in bases]
        assert np.array_equal(pairs, np.stack([pair for pair, _ in oracle]))
        assert turns.tolist() == [turn for _, turn in oracle]
        # the canonical raster is one of rotation_stack's own quarter turns
        stacks = rotation_stack(bases)
        assert np.array_equal(pairs[:, 0], stacks[np.arange(len(bases)), 2 * turns])

    def test_patch_validation(self):
        # NaN objectness is refused by the KDESC writer (test_embed); propose yields none.
        img = Image(np.zeros((32, 48)) + 0.5)
        inside = Patch(x=0, y=0, w=32, h=32, objectness=0.0)
        with pytest.raises(ValueError, match=r"patch \(0, 0, 8, 32\) has a side below the 16-px"):
            patch_rasters(img, [inside, Patch(x=0, y=0, w=8, h=32, objectness=0.0)])
        with pytest.raises(ValueError, match=r"patch \(0, 0, 32, 15\) has a side below the 16-px"):
            augment_rotations(img, [inside, Patch(x=0, y=0, w=32, h=15, objectness=0.0)])
        # A negative origin would wrap round in the window view instead of failing.
        with pytest.raises(ValueError, match=r"patch \(-4, 0, 32, 32\) has a negative origin"):
            patch_rasters(img, [inside, Patch(x=-4, y=0, w=32, h=32, objectness=0.0)])
        with pytest.raises(ValueError, match=r"patch \(0, -1, 16, 16\) has a negative origin"):
            # the first bad window is named, though a later one is also too small
            patch_rasters(img, [Patch(0, -1, 16, 16, 0.0), Patch(0, 0, 8, 8, 0.0)])


class TestPatchCsv:
    def test_roundtrip_and_format(self, tmp_path):
        patches = [
            Patch(x=4, y=8, w=32, h=32, objectness=0.123456789),
            Patch(x=0, y=0, w=64, h=48, objectness=-0.5),
        ]
        path = tmp_path / "patches.csv"
        write_patches_csv(path, patches)
        lines = path.read_text().splitlines()
        assert lines[0] == "patch_id,x,y,w,h,score"
        assert lines[1] == "0,4,8,32,32,0.123457"
        assert lines[2] == "1,0,0,64,48,-0.500000"
        assert len(lines) == 3
