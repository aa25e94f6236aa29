"""Transform generator and PGM container tests."""

import re

import numpy as np
import pytest

from patchkernel.errors import FormatError
from patchkernel.raster import (
    Image,
    _rotate_crop_array,
    read_pgm,
    resize_bilinear,
    rotate_center_crop,
    rotation_crop_side,
    scale_same_size,
    translate_circular,
    write_pgm,
)


def ramp8() -> Image:
    # column ramp with slope 1/8: img[r, c] = c / 8
    return Image(np.tile(np.arange(8) / 8.0, (8, 1)))


def random_image(rng, shape=(32, 48)) -> Image:
    return Image(rng.random(shape))


class TestTranslate:
    def test_zero_is_identity_bit_exact(self):
        img = random_image(np.random.default_rng(0))
        out = translate_circular(img, 0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_invariant(self):
        img = Image(np.full((16, 16), 0.5))
        out = translate_circular(img, 13)
        assert np.array_equal(out.pixels, img.pixels)

    def test_ramp_windowing_rule(self):
        # columns 3..7 of the ramp followed by 3 copies of column 7
        out = translate_circular(ramp8(), 3)
        expected = np.tile(np.array([3, 4, 5, 6, 7, 7, 7, 7]) / 8.0, (8, 1))
        assert np.array_equal(out.pixels, expected)

    def test_full_width_translation_replicates_last_column(self):
        img = ramp8()
        out = translate_circular(img, 8)
        assert np.array_equal(out.pixels, np.full((8, 8), 7 / 8.0))

    @pytest.mark.parametrize("t", [-1, 9])
    def test_out_of_range(self, t):
        with pytest.raises(ValueError, match="out of range"):
            translate_circular(ramp8(), t)


class TestScale:
    def test_unit_scale_is_identity_bit_exact(self):
        img = random_image(np.random.default_rng(1))
        out = scale_same_size(img, 1.0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_invariant(self):
        img = Image(np.full((12, 12), 0.25))
        out = scale_same_size(img, 0.5)
        np.testing.assert_allclose(out.pixels, 0.25, atol=1e-12)

    def test_checkerboard_upscale_matches_reference_resampler(self):
        # Independent oracle: bilinear 16x16 upsampling via an explicit pixel
        # loop, then the center 8x8 crop.
        board = ((np.arange(8)[:, None] + np.arange(8)[None, :]) % 2).astype(float)
        img = Image(board)

        up = np.empty((16, 16))
        for r in range(16):
            for c in range(16):
                sr = min(max((r + 0.5) / 2.0 - 0.5, 0.0), 7.0)
                sc = min(max((c + 0.5) / 2.0 - 0.5, 0.0), 7.0)
                r0, c0 = int(np.floor(sr)), int(np.floor(sc))
                r1, c1 = min(r0 + 1, 7), min(c0 + 1, 7)
                fr, fc = sr - r0, sc - c0
                up[r, c] = (
                    board[r0, c0] * (1 - fr) * (1 - fc)
                    + board[r0, c1] * (1 - fr) * fc
                    + board[r1, c0] * fr * (1 - fc)
                    + board[r1, c1] * fr * fc
                )
        expected = up[4:12, 4:12]
        out = scale_same_size(img, 2.0)
        np.testing.assert_allclose(out.pixels, expected, atol=1e-12)

    @pytest.mark.parametrize("s", [0.2, 4.5, 0.0])
    def test_out_of_range(self, s):
        with pytest.raises(ValueError, match="out of range"):
            scale_same_size(ramp8(), s)


class TestRotate:
    def test_zero_rotation_is_center_crop(self):
        img = random_image(np.random.default_rng(2), shape=(20, 30))
        out = rotate_center_crop(img, 0.0)
        side = rotation_crop_side(20, 30)
        off_r, off_c = (20 - side) // 2, (30 - side) // 2
        assert np.array_equal(out.pixels, img.pixels[off_r : off_r + side, off_c : off_c + side])

    def test_quarter_turns_preserve_radial_symmetry(self):
        yy, xx = np.mgrid[0:33, 0:33].astype(float)
        r2 = (yy - 16.0) ** 2 + (xx - 16.0) ** 2
        img = Image(0.9 * np.exp(-r2 / 60.0))
        base = rotate_center_crop(img, 0.0)
        for theta in (90.0, 180.0, 270.0):
            out = rotate_center_crop(img, theta)
            np.testing.assert_allclose(out.pixels, base.pixels, atol=1e-6)

    def test_arbitrary_angle_on_flat_disk(self):
        # Constant inside the inscribed circle: every rotation samples only
        # the flat region, so the crop is angle independent.
        yy, xx = np.mgrid[0:40, 0:40].astype(float)
        r = np.hypot(yy - 19.5, xx - 19.5)
        img = Image(np.where(r <= 21.0, 0.7, 0.1))
        base = rotate_center_crop(img, 0.0)
        for theta in (33.0, 121.7, 287.4):
            out = rotate_center_crop(img, theta)
            np.testing.assert_allclose(out.pixels, base.pixels, atol=1e-6)

    def test_half_turn_point_mapping_is_exact(self):
        # 8x8 with a single bright pixel offset (+1.5, +1.5) from the center;
        # a 180-degree turn moves it to (-1.5, -1.5), i.e. pixel (2, 2), which
        # is the top-left corner of the 4x4 inscribed crop.
        pix = np.zeros((8, 8))
        pix[5, 5] = 1.0
        out = rotate_center_crop(Image(pix), 180.0)
        assert out.pixels.shape == (4, 4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out.pixels, expected, atol=1e-12)

    def test_output_side(self):
        for m, n in [(8, 8), (64, 64), (20, 30), (128, 100)]:
            side = rotation_crop_side(m, n)
            assert side % 2 == 0
            assert side == int(min(m, n) / np.sqrt(2)) - (int(min(m, n) / np.sqrt(2)) % 2)
            out = rotate_center_crop(Image(np.zeros((m, n)) + 0.5), 45.0)
            assert out.pixels.shape == (side, side)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            rotate_center_crop(ramp8(), 360.0)


class TestInvariants:
    def test_outputs_stay_in_range_and_finite(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            img = random_image(rng, shape=(rng.integers(16, 40), rng.integers(16, 40)))
            outputs = [
                translate_circular(img, int(rng.integers(0, img.width + 1))),
                scale_same_size(img, float(rng.uniform(0.25, 4.0))),
                rotate_center_crop(img, float(rng.uniform(0.0, 360.0))),
            ]
            for out in outputs:
                assert np.all(np.isfinite(out.pixels))
                assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_size_preservation(self):
        img = random_image(np.random.default_rng(5), shape=(24, 36))
        assert translate_circular(img, 7).pixels.shape == (24, 36)
        assert scale_same_size(img, 1.7).pixels.shape == (24, 36)

    def test_image_validation(self):
        with pytest.raises(ValueError, match="too small"):
            Image(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            Image(np.full((8, 8), np.nan))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            Image(np.full((8, 8), 1.5))
        img = Image(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1.0  # immutable


class TestResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(6)
        arr = rng.random((17, 23))
        assert np.array_equal(resize_bilinear(arr, 17, 23), arr)

    def test_constant_preserved(self):
        out = resize_bilinear(np.full((10, 14), 0.42), 32, 32)
        np.testing.assert_allclose(out, 0.42, atol=1e-12)


class TestStacks:
    def test_resize_and_rotate_act_per_slice_bit_exact(self):
        rng = np.random.default_rng(77)
        stack = rng.random((3, 20, 28))
        resized = resize_bilinear(stack, 32, 32)
        rotated = _rotate_crop_array(stack, 45.0)
        assert resized.shape == (3, 32, 32)
        for k in range(3):
            assert np.array_equal(resized[k], resize_bilinear(stack[k], 32, 32))
            assert np.array_equal(rotated[k], _rotate_crop_array(stack[k], 45.0))


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = Image(rng.integers(0, 256, size=(16, 24)).astype(float) / 255.0)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)
        write_pgm(tmp_path / "img2.pgm", back)
        assert (tmp_path / "img.pgm").read_bytes() == (tmp_path / "img2.pgm").read_bytes()

    def test_intensity_mapping(self, tmp_path):
        path = tmp_path / "gray.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + bytes([128] * 64))
        img = read_pgm(path)
        np.testing.assert_allclose(img.pixels, 128 / 255.0)

    def test_header_comment_tolerated(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# comment\n8 8\n255\n" + bytes(64))
        assert read_pgm(path).pixels.shape == (8, 8)

    def test_comment_before_every_field_and_every_separator(self, tmp_path):
        pixels = bytes(range(72))
        plain = tmp_path / "plain.pgm"
        plain.write_bytes(b"P5\n9 8\n255\n" + pixels)
        commented = tmp_path / "commented.pgm"
        commented.write_bytes(b"P5\t#w\n9\r#h\n\x0b8\x0c#m\n\x0c255\r" + pixels)
        assert np.array_equal(read_pgm(commented).pixels, read_pgm(plain).pixels)

    def test_comment_to_end_of_file_refused_at_its_end(self, tmp_path):
        path = tmp_path / "c.pgm"
        data = b"P5\n8 8\n# no maxval"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"bad header token at byte offset {len(data)}$"):
            read_pgm(path)

    def test_hash_inside_a_field_refused_at_its_first_byte(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n8#c 8\n255\n" + bytes(64))
        with pytest.raises(FormatError, match="bad header token at byte offset 3$"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "header, offset",
        [(b"P5\n" + b"9" * 5000 + b" 8\n255\n", 3), (b"P5\n8 " + b"0" * 21 + b"8\n255\n", 5),
         (b"P5\n8 8\n" + b"2" * 21 + b"\n", 7)],
        ids=["width-5000-digits", "height-22-digits", "maxval-21-digits"],
    )
    def test_overlong_header_field_refused_at_its_offset(self, header, offset, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(header + bytes(64))
        with pytest.raises(FormatError, match=f"longer than 20 digits at byte offset {offset}$"):
            read_pgm(path)
        # Twenty digits, leading zeros included, still read as a number.
        path.write_bytes(b"P5\n" + b"0" * 19 + b"8 8\n255\n" + bytes(64))
        assert read_pgm(path).width == 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n8 8\n255\n" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + bytes(10))
        with pytest.raises(FormatError, match="byte offset"):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n8 8\n65535\n" + bytes(128))
        with pytest.raises(FormatError, match="maxval 65535 at byte offset 7,"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "header, offset", [(b"P5\n4 4\n255\n", 3), (b"P5\n8 4\n255\n", 5)]
    )
    def test_below_minimum_size(self, header, offset, tmp_path):
        path = tmp_path / "small.pgm"
        path.write_bytes(header + bytes(64))
        with pytest.raises(FormatError, match=f"size 8 at byte offset {offset}$"):
            read_pgm(path)

    def test_fuzz_truncation_and_ff_bytes(self, tmp_path):
        pixels = np.random.default_rng(8).integers(0, 256, size=(8, 9)) / 255.0
        good = tmp_path / "good.pgm"
        write_pgm(good, Image(pixels))
        data = good.read_bytes()
        assert len(data) == 83
        path = tmp_path / "fuzz.pgm"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match=re.escape(str(path)) + ".* byte offset "):
                read_pgm(path)
        loaded = 0
        for at in range(len(data)):
            mutated = data[:at] + b"\xff" + data[at + 1 :]
            path.write_bytes(mutated)
            try:
                img = read_pgm(path)
            except FormatError as exc:
                assert str(path) in str(exc) and " byte offset " in str(exc), at
                continue
            loaded += 1
            write_pgm(tmp_path / "again.pgm", img)
            assert (tmp_path / "again.pgm").read_bytes() == mutated, at
        assert loaded == 8 * 9
