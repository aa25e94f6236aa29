"""Descriptor embedder, cosine, sum pooling, and KDESC container tests."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from patchkernel.embed import (
    DESCRIPTOR_DIM,
    ORIENT_BINS,
    META_DTYPE,
    PATCH_SIDE,
    DescriptorSet,
    _record_dtype,
    cosine,
    embed_image_global,
    embed_patch,
    embed_patches,
    load_descriptors,
    quarter_turn_copies,
    save_descriptors,
    sum_pool,
)
from patchkernel.errors import FormatError
from patchkernel.raster import Image, translate_circular


def brute_force_histogram(raster: np.ndarray) -> np.ndarray:
    """Per-pixel loop oracle for the gradient-orientation histogram."""
    gy, gx = np.gradient(raster)
    hist = np.zeros(DESCRIPTOR_DIM)
    cell_px = PATCH_SIDE // 4
    for r in range(PATCH_SIDE):
        for c in range(PATCH_SIDE):
            mag = float(np.hypot(gx[r, c], gy[r, c]))
            ori = float(np.arctan2(gy[r, c], gx[r, c]))
            pos = ori / (2 * np.pi / ORIENT_BINS)
            low = int(np.floor(pos))
            frac = pos - low
            cell = (r // cell_px) * 4 + (c // cell_px)
            hist[cell * ORIENT_BINS + low % ORIENT_BINS] += mag * (1 - frac)
            hist[cell * ORIENT_BINS + (low + 1) % ORIENT_BINS] += mag * frac
    norm = np.linalg.norm(hist)
    if norm == 0:
        return np.full(DESCRIPTOR_DIM, 1 / np.sqrt(DESCRIPTOR_DIM))
    return hist / norm


def unblocked_embedding(rasters: np.ndarray) -> np.ndarray:
    """The embedder's arithmetic over the whole (n, P, P) stack at once."""
    n = rasters.shape[0]
    gy = np.gradient(rasters, axis=1)
    gx = np.gradient(rasters, axis=2)
    mag = np.sqrt(gx * gx + gy * gy)
    bin_pos = np.arctan2(gy, gx) / (2.0 * np.pi / ORIENT_BINS)
    low = np.floor(bin_pos)
    frac = bin_pos - low
    low_bin = low.astype(np.int64) % ORIENT_BINS
    high_bin = (low_bin + 1) % ORIENT_BINS
    cell = np.arange(PATCH_SIDE) // (PATCH_SIDE // 4)
    cell_offset = (cell[:, None] * 4 + cell[None, :]) * ORIENT_BINS
    base = np.arange(n)[:, None, None] * DESCRIPTOR_DIM + cell_offset
    hist = np.bincount(
        (base + low_bin).ravel(), weights=(mag * (1.0 - frac)).ravel(),
        minlength=n * DESCRIPTOR_DIM,
    )
    hist += np.bincount(
        (base + high_bin).ravel(), weights=(mag * frac).ravel(),
        minlength=n * DESCRIPTOR_DIM,
    )
    hist = hist.reshape(n, DESCRIPTOR_DIM)
    norms = np.linalg.norm(hist, axis=1)
    zero = norms == 0.0
    hist[zero] = 1.0 / np.sqrt(DESCRIPTOR_DIM)
    norms[zero] = 1.0
    return hist / norms[:, None]


def pixel_rasters(n: int, seed: int) -> np.ndarray:
    """n rasters of 8-bit intensities, as read from PGM, every 7th constant."""
    rasters = np.random.default_rng(seed).integers(0, 256, (n, PATCH_SIDE, PATCH_SIDE)) / 255.0
    rasters[::7] = rasters[::7, :1, :1]
    return rasters


class TestEmbedPatch:
    def test_constant_patch_maps_to_uniform_unit_vector(self):
        desc = embed_patch(np.full((PATCH_SIDE, PATCH_SIDE), 0.3))
        np.testing.assert_allclose(desc, 1 / np.sqrt(DESCRIPTOR_DIM), atol=1e-12)

    def test_unit_norm_for_random_patches(self):
        rng = np.random.default_rng(20)
        descs = embed_patches(rng.random((10, PATCH_SIDE, PATCH_SIDE)))
        np.testing.assert_allclose(np.linalg.norm(descs, axis=1), 1.0, atol=1e-6)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            raster = rng.random((PATCH_SIDE, PATCH_SIDE))
            np.testing.assert_allclose(
                embed_patch(raster), brute_force_histogram(raster), atol=1e-10
            )

    def test_vertical_stripes_concentrate_in_horizontal_bins(self):
        # period-4 stripes so central differences are nonzero inside each cell
        raster = np.tile((np.arange(PATCH_SIDE) // 2 % 2).astype(float), (PATCH_SIDE, 1))
        desc = embed_patch(raster)
        np.testing.assert_allclose(desc, brute_force_histogram(raster), atol=1e-10)
        per_cell = desc.reshape(16, ORIENT_BINS)
        horizontal_mass = per_cell[:, [0, 4]].sum(axis=1)
        np.testing.assert_allclose(horizontal_mass, np.linalg.norm(per_cell, ord=1, axis=1))
        assert np.all(horizontal_mass > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(22)
        raster = rng.random((PATCH_SIDE, PATCH_SIDE))
        assert np.array_equal(embed_patch(raster), embed_patch(raster.copy()))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="32x32"):
            embed_patch(np.zeros((16, 16)))

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 69, 2544])
    def test_blocks_match_the_whole_stack_bit_for_bit(self, n):
        rasters = pixel_rasters(n, seed=26)
        got = embed_patches(rasters)
        assert got.shape == (n, DESCRIPTOR_DIM)
        assert got.tobytes() == unblocked_embedding(rasters).tobytes()

    def test_temporaries_do_not_grow_with_the_stack(self):
        # numpy reports its array buffers to tracemalloc. Whole-stack
        # temporaries for 2,544 rasters take ~255 MB; blocks stay near 5 MB.
        rasters = pixel_rasters(2544, seed=27)
        tracemalloc.start()
        try:
            out = embed_patches(rasters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 8 * 2**20


def harmonic_rasters(n: int, seed: int) -> np.ndarray:
    """n rasters of Re(e^(i phase) z^d), d in 1..3, on a centred grid, mapped into [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    yy, xx = (np.mgrid[0:PATCH_SIDE, 0:PATCH_SIDE] - (PATCH_SIDE - 1) / 2) / (PATCH_SIDE / 2)
    z = xx + 1j * yy
    out = np.empty((n, PATCH_SIDE, PATCH_SIDE))
    for i in range(n):
        field = np.real(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * z ** int(rng.integers(1, 4)))
        out[i] = 0.5 + 0.45 * field / np.abs(field).max()
    return out


class TestQuarterTurnCopies:
    @pytest.mark.parametrize("make", [pixel_rasters, harmonic_rasters], ids=["random", "harmonic"])
    def test_each_copy_equals_embedding_its_turned_raster(self, make):
        # Two unrelated raster sets stand in for the canonical turn and its tilt.
        sources = [make(40, seed=28), make(40, seed=29)]
        turns = np.arange(40) % 4
        pairs = np.stack([embed_patches(src) for src in sources], axis=1)
        copies = quarter_turn_copies(pairs, turns)
        assert copies.shape == (40, 8, DESCRIPTOR_DIM)
        for j in range(8):
            turned = [np.rot90(x, j // 2 - k) for x, k in zip(sources[j % 2], turns)]
            expected = embed_patches(np.stack(turned))
            np.testing.assert_allclose(copies[:, j], expected, rtol=0, atol=1e-15)

    def test_the_canonical_turn_is_copied_verbatim(self):
        pairs = np.stack([embed_patches(pixel_rasters(8, seed=30 + i)) for i in range(2)], axis=1)
        turns = np.arange(8) % 4
        copies = quarter_turn_copies(pairs, turns)
        rows = np.arange(8)
        assert np.array_equal(copies[rows, 2 * turns], pairs[:, 0])
        assert np.array_equal(copies[rows, 2 * turns + 1], pairs[:, 1])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs of shape"):
            quarter_turn_copies(np.zeros((3, 8, DESCRIPTOR_DIM)), np.zeros(3, dtype=int))


class TestEmbedImageGlobal:
    def test_identical_images_identical_descriptors(self):
        rng = np.random.default_rng(23)
        pix = rng.random((48, 48))
        assert np.array_equal(embed_image_global(Image(pix)), embed_image_global(Image(pix)))

    def test_constant_image(self):
        desc = embed_image_global(Image(np.full((40, 56), 0.8)))
        np.testing.assert_allclose(desc, 1 / np.sqrt(DESCRIPTOR_DIM), atol=1e-12)

    def test_half_width_translation_lowers_similarity(self):
        # Frozen oracle value from a fixed checkerboard-with-blob image.
        yy, xx = np.mgrid[0:64, 0:64].astype(float)
        checker = 0.25 + 0.5 * (((yy // 8) + (xx // 8)) % 2)
        blob = 0.4 * np.exp(-((yy - 20) ** 2 + (xx - 44) ** 2) / (2 * 6.0**2))
        img = Image(np.clip(checker + blob, 0, 1))
        sim = cosine(embed_image_global(img), embed_image_global(translate_circular(img, 32)))
        assert sim < 1.0
        np.testing.assert_allclose(sim, 0.7631675446897196, atol=1e-9)


class TestCosine:
    def test_self_similarity(self):
        rng = np.random.default_rng(24)
        d = embed_patch(rng.random((PATCH_SIDE, PATCH_SIDE)))
        assert cosine(d, d) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine(a, b) == 0.0

    def test_hand_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([np.sqrt(2) / 2, np.sqrt(2) / 2])) == (
            pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        )

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            assert cosine(a, b) == cosine(b, a)
            assert abs(cosine(a, b)) <= 1 + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            cosine(np.zeros(3), np.zeros(4))


class TestSumPool:
    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(26)
        descs = rng.normal(size=(8, DESCRIPTOR_DIM))
        pooled = sum_pool(descs)
        for _ in range(5):
            perm = rng.permutation(8)
            assert np.array_equal(sum_pool(descs[perm]), pooled)


def make_set(rng, count=6, dim=DESCRIPTOR_DIM) -> DescriptorSet:
    values = rng.random((count, dim))
    values /= np.linalg.norm(values, axis=1, keepdims=True)
    i = np.arange(count)
    meta = np.rec.fromarrays(
        [i // 2, 4 * i, 2 * i, np.full(count, 32), np.full(count, 32), i % 2, 0.5 - 0.0625 * i],
        dtype=META_DTYPE,
    )
    return DescriptorSet(image_id="img000", meta=meta, values=values)


class TestKdesc:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(27)
        dset = make_set(rng)
        path = tmp_path / "img000.kdesc"
        save_descriptors(path, dset)
        back = load_descriptors(path)
        assert back.image_id == "img000"
        assert isinstance(back.meta, np.recarray) and back.meta.dtype == META_DTYPE
        assert np.array_equal(back.meta, dset.meta)
        np.testing.assert_allclose(back.values, dset.values, atol=1e-7)
        np.testing.assert_allclose(np.linalg.norm(back.values, axis=1), 1.0, atol=1e-6)

    def test_bytes_equal_per_record_writer(self, tmp_path):
        # the former writer: one structured record assigned per row
        rng = np.random.default_rng(32)
        dset = make_set(rng, count=40)
        dset.meta.x[7] = 2**32 - 1
        dset.meta.objectness[7] = rng.random()
        records = np.empty(len(dset.meta), dtype=_record_dtype(dset.dim))
        for i, m in enumerate(dset.meta):
            records[i] = (m.patch_id, m.x, m.y, m.w, m.h, m.rotation_index, m.objectness, 0.0)
        records["values"] = dset.values.astype("<f4")
        path = tmp_path / "img000.kdesc"
        save_descriptors(path, dset)
        assert path.read_bytes() == struct.pack("<4sIII", b"KDSC", 1, dset.dim, 40) + records.tobytes()

    def test_reexport_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(28)
        save_descriptors(tmp_path / "a.kdesc", make_set(rng))
        save_descriptors(tmp_path / "b.kdesc", load_descriptors(tmp_path / "a.kdesc"))
        assert (tmp_path / "a.kdesc").read_bytes() == (tmp_path / "b.kdesc").read_bytes()

    def test_three_four_five_normalization(self, tmp_path):
        path = tmp_path / "one.kdesc"
        header = struct.pack("<4sIII", b"KDSC", 1, 4, 1)
        record = struct.pack("<IIIIIBf", 0, 1, 2, 16, 16, 0, 0.25)
        values = np.array([3.0, 4.0, 0.0, 0.0], dtype="<f4").tobytes()
        path.write_bytes(header + record + values)
        dset = load_descriptors(path)
        np.testing.assert_allclose(dset.values[0], [0.6, 0.8, 0.0, 0.0], atol=1e-7)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.kdesc"
        path.write_bytes(struct.pack("<4sIII", b"KDSC", 1, 4, 0))
        with pytest.raises(FormatError, match="record count is 0 at byte offset 12$"):
            load_descriptors(path)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.kdesc"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(FormatError, match="byte offset 0"):
            load_descriptors(path)

    def test_bad_version_names_offset(self, tmp_path):
        path = tmp_path / "v2.kdesc"
        path.write_bytes(struct.pack("<4sIII", b"KDSC", 2, 4, 1) + bytes(41))
        with pytest.raises(FormatError, match="byte offset 4"):
            load_descriptors(path)

    def test_nan_values_name_offset(self, tmp_path):
        path = tmp_path / "nan.kdesc"
        header = struct.pack("<4sIII", b"KDSC", 1, 4, 1)
        record = struct.pack("<IIIIIBf", 0, 0, 0, 16, 16, 0, 0.0)
        values = np.array([np.nan, 1.0, 0.0, 0.0], dtype="<f4").tobytes()
        path.write_bytes(header + record + values)
        with pytest.raises(FormatError, match="non-finite .* byte offset 41"):
            load_descriptors(path)

    def test_rotation_index_above_seven_names_offset(self, tmp_path):
        path = tmp_path / "rot.kdesc"
        header = struct.pack("<4sIII", b"KDSC", 1, 4, 2)
        values = np.array([0.6, 0.8, 0.0, 0.0], dtype="<f4").tobytes()
        good = struct.pack("<IIIIIBf", 0, 0, 0, 16, 16, 7, 0.0) + values
        bad = struct.pack("<IIIIIBf", 1, 0, 0, 16, 16, 9, 0.0) + values
        path.write_bytes(header + good + bad)
        with pytest.raises(FormatError, match="rotation index 9 .* byte offset 77"):
            load_descriptors(path)

    def test_huge_dim_in_short_file_names_offset(self, tmp_path):
        path = tmp_path / "dim.kdesc"
        header = struct.pack("<4sIII", b"KDSC", 1, 0xFF000004, 1)
        record = struct.pack("<IIIIIBf", 0, 0, 0, 16, 16, 0, 0.0)
        path.write_bytes(header + record + np.ones(4, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="byte offset 57$"):
            load_descriptors(path)

    def test_signalling_nan_value_names_offset_without_warning(self, tmp_path):
        path = tmp_path / "snan.kdesc"
        header = struct.pack("<4sIII", b"KDSC", 1, 4, 1)
        record = struct.pack("<IIIIIBf", 0, 0, 0, 16, 16, 0, 0.0)
        values = np.array([0x7F800001, 0, 0, 0], dtype="<u4").tobytes()
        path.write_bytes(header + record + values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite .* byte offset 41$"):
                load_descriptors(path)

    @pytest.mark.parametrize("objectness", [np.nan, np.inf, -np.inf])
    def test_non_finite_objectness_names_offset(self, tmp_path, objectness):
        path = tmp_path / "obj.kdesc"
        header = struct.pack("<4sIII", b"KDSC", 1, 4, 2)
        values = np.array([0.6, 0.8, 0.0, 0.0], dtype="<f4").tobytes()
        good = struct.pack("<IIIIIBf", 0, 0, 0, 16, 16, 0, 0.5) + values
        bad = struct.pack("<IIIIIBf", 1, 0, 0, 16, 16, 0, objectness) + values
        path.write_bytes(header + good + bad)
        with pytest.raises(FormatError, match="non-finite objectness at byte offset 78$"):
            load_descriptors(path)

    def test_fuzz_truncation_and_ff_bytes(self, tmp_path):
        good = tmp_path / "good.kdesc"
        save_descriptors(good, make_set(np.random.default_rng(31), count=2, dim=4))
        data = good.read_bytes()
        assert len(data) == 98
        path = tmp_path / "fuzz.kdesc"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="byte offset"):
                load_descriptors(path)
        dtype = np.dtype([("meta", "V25"), ("values", "<f4", (4,))])
        for at in range(len(data)):
            mutated = data[:at] + b"\xff" + data[at + 1 :]
            path.write_bytes(mutated)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    dset = load_descriptors(path)
            except FormatError as exc:
                assert "byte offset" in str(exc)
                continue
            save_descriptors(tmp_path / "again.kdesc", dset)
            again = (tmp_path / "again.kdesc").read_bytes()
            if again == mutated:
                continue
            # Import rescales a row whose f32 norm is off unit by more than
            # 1e-6; only such a row's values may differ, and only by that.
            assert again[:16] == mutated[:16], at
            old = np.frombuffer(mutated, dtype=dtype, offset=16)
            new = np.frombuffer(again, dtype=dtype, offset=16)
            assert np.array_equal(old["meta"], new["meta"]), at
            norms = np.linalg.norm(old["values"].astype(np.float64), axis=1)
            rescaled = np.abs(norms - 1.0) > 1e-6
            assert rescaled.any(), at
            assert np.array_equal(old["values"][~rescaled], new["values"][~rescaled]), at
            np.testing.assert_allclose(
                new["values"][rescaled], old["values"][rescaled] / norms[rescaled, None],
                rtol=1e-6, atol=1e-7,
            )
            save_descriptors(tmp_path / "third.kdesc", load_descriptors(tmp_path / "again.kdesc"))
            assert (tmp_path / "third.kdesc").read_bytes() == again, at

    @pytest.mark.parametrize("rotation_index", [8, 256, -1])
    def test_save_rejects_rotation_index_out_of_range(self, tmp_path, rotation_index):
        rng = np.random.default_rng(30)
        dset = make_set(rng)
        if not 0 <= rotation_index <= 255:
            with pytest.raises(OverflowError):  # the u1 column cannot hold it
                dset.meta.rotation_index[3] = rotation_index
            return
        dset.meta.rotation_index[3] = rotation_index
        dset.meta.rotation_index[5] = 9  # only the first is named
        path = tmp_path / "rot.kdesc"
        with pytest.raises(ValueError, match=f"record 3: rotation index {rotation_index} not in 0..7"):
            save_descriptors(path, dset)
        assert not path.exists()

    @pytest.mark.parametrize(
        "record, field, value, problem",
        [
            (2, "objectness", np.nan, "non-finite objectness"),
            (4, "values", 1e39, "non-finite descriptor values"),  # inf once rounded to f32
            (3, "values", 1e-50, "zero-norm descriptor values"),  # all zero once rounded to f32
        ],
        ids=["nan-objectness", "f32-overflow", "f32-underflow"],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, record, field, value, problem):
        dset = make_set(np.random.default_rng(33))
        if field == "objectness":
            dset.meta.objectness[record] = value
        else:
            dset.values[record] = 0.0
            dset.values[record, 5] = value
        offset = 16 + record * (25 + 4 * DESCRIPTOR_DIM) + (21 if field == "objectness" else 25)
        message = f"record {record}: {problem} at byte offset {offset}$"
        path = tmp_path / "img000.kdesc"
        with pytest.raises(FormatError, match=message) as saved:
            save_descriptors(path, dset)
        assert not path.exists()
        records = np.empty(len(dset.meta), dtype=_record_dtype(dset.dim))
        records[list(META_DTYPE.names)] = dset.meta
        with np.errstate(over="ignore"):
            records["values"] = dset.values
        path.write_bytes(struct.pack("<4sIII", b"KDSC", 1, dset.dim, 6) + records.tobytes())
        with pytest.raises(FormatError) as loaded:
            load_descriptors(path)
        assert str(loaded.value) == str(saved.value)

    def test_truncation_names_offset(self, tmp_path):
        rng = np.random.default_rng(29)
        path = tmp_path / "trunc.kdesc"
        save_descriptors(path, make_set(rng))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FormatError, match="byte offset"):
            load_descriptors(path)

    def test_descriptor_set_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            DescriptorSet(image_id="x", meta=[], values=np.zeros((0, 4)))
        meta = np.zeros(2, META_DTYPE)
        with pytest.raises(ValueError, match="record array of META_DTYPE"):
            DescriptorSet(image_id="x", meta=meta, values=np.ones((2, 4)))
        with pytest.raises(ValueError, match=r"metadata rows \(2\) != descriptor rows \(3\)"):
            DescriptorSet(image_id="x", meta=meta.view(np.recarray), values=np.ones((3, 4)))
