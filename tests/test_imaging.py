import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerspell.errors import (
    AllZeroImageError,
    ContentLargerThanTargetError,
    DimensionMismatchError,
    WrongInputSizeError,
)
from fingerspell.imaging import (
    MaskAlignment,
    align_mask,
    apply_mask,
    bounding_box_center,
    center_and_sample,
    deinterlace,
    equalize_histogram,
    make_mask,
    min_nonzero_depth,
    normalize_depth,
    normalize_unit,
    remove_background,
    resize,
)


def depth(rows):
    return np.array(rows, dtype=np.int32)


class TestMinNonzeroDepth:
    def test_minimum_over_nonzero(self):
        assert min_nonzero_depth(depth([[0, 1520], [1503, 1600]])) == 1503

    def test_single_pixel(self):
        assert min_nonzero_depth(depth([[7]])) == 7

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroImageError):
            min_nonzero_depth(depth([[0, 0], [0, 0]]))


class TestRemoveBackground:
    def test_threshold_applied_per_pixel(self):
        # threshold t + d = 1623; hand-applied to each pixel
        img = depth([[1503, 1640], [0, 1610]])
        out = remove_background(img, t=120, d=1503)
        assert out.tolist() == [[1503, 0], [0, 1610]]

    def test_unbinding_threshold_is_identity(self):
        img = depth([[1505, 1600], [0, 1620]])
        out = remove_background(img, t=120, d=1503)
        assert np.array_equal(out, img)

    def test_input_not_modified(self):
        img = depth([[1503, 9999]])
        remove_background(img, t=120, d=1503)
        assert img[0, 1] == 9999


class TestNormalizeDepth:
    def test_subtracts_d_minus_one(self):
        out = normalize_depth(depth([[1503, 0], [1523, 1601]]), d=1503)
        assert out.tolist() == [[1, 0], [21, 99]]

    def test_single_nonzero_becomes_one(self):
        out = normalize_depth(depth([[0, 777]]), d=777)
        assert out.tolist() == [[0, 1]]

    def test_offset_cancellation(self):
        img = depth([[1503, 0], [1523, 1601]])
        shifted = img.copy()
        shifted[shifted > 0] += 250
        assert np.array_equal(
            normalize_depth(img, 1503), normalize_depth(shifted, 1753)
        )


class TestMakeMask:
    def test_nonzero_indicator(self):
        assert make_mask(depth([[1, 0], [21, 99]])).tolist() == [[1, 0], [1, 1]]

    def test_all_zero(self):
        assert make_mask(depth([[0, 0]])).sum() == 0

    def test_idempotent_on_mask(self):
        m = make_mask(depth([[1, 0], [21, 99]]))
        assert np.array_equal(make_mask(m), m)


class TestAlignMask:
    def test_identity(self):
        m = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]], dtype=np.uint8)
        assert np.array_equal(align_mask(m, MaskAlignment(), 3, 3), m)

    def test_fully_out_of_bounds(self):
        m = np.ones((4, 4), dtype=np.uint8)
        out = align_mask(m, MaskAlignment(offset_x=4.0), 4, 4)
        assert out.sum() == 0

    def test_half_scale_checkerboard_matches_oracle(self):
        m = (np.indices((4, 4)).sum(axis=0) % 2).astype(np.uint8)
        a = MaskAlignment(scale_x=0.5, scale_y=0.5)
        out = align_mask(m, a, 4, 4)
        # nearest-neighbor oracle: sample (x*0.5, y*0.5), round half up
        expect = np.zeros((4, 4), dtype=np.uint8)
        for y in range(4):
            for x in range(4):
                sx = int(np.floor(x * 0.5 + 0.5))
                sy = int(np.floor(y * 0.5 + 0.5))
                expect[y, x] = m[sy, sx]
        assert np.array_equal(out, expect)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            MaskAlignment(scale_x=0.0)

    @pytest.mark.parametrize("field", ["scale_x", "scale_y", "offset_x", "offset_y"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_scales_and_offsets_must_be_finite(self, field, value):
        with pytest.raises(ValueError):
            MaskAlignment(**{field: value})


class TestApplyMask:
    def test_all_ones_identity(self):
        img = np.array([[10, 20], [30, 40]], dtype=np.uint8)
        assert np.array_equal(apply_mask(img, np.ones((2, 2), np.uint8)), img)

    def test_all_zero(self):
        img = np.array([[10, 20], [30, 40]], dtype=np.uint8)
        assert apply_mask(img, np.zeros((2, 2), np.uint8)).sum() == 0

    def test_elementwise(self):
        img = np.array([[10, 20], [30, 40]], dtype=np.uint8)
        mask = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert apply_mask(img, mask).tolist() == [[10, 0], [0, 40]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_mask(np.ones((2, 2), np.uint8), np.ones((3, 2), np.uint8))


class TestBoundingBoxCenter:
    def test_single_pixel_floor_centered(self):
        # 1x1 box on an 8x8 canvas: margins (8-1)//2 = 3 -> lands at (3, 3)
        for y, x in [(0, 0), (7, 7), (2, 5)]:
            img = np.zeros((8, 8), dtype=np.uint8)
            img[y, x] = 1
            out = bounding_box_center(img, 8, 8)
            assert out[3, 3] == 1 and out.sum() == 1

    def test_centered_content_is_fixpoint(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[3:5, 3:5] = 7
        assert np.array_equal(bounding_box_center(img, 8, 8), img)

    def test_empty_gives_zero_canvas(self):
        out = bounding_box_center(np.zeros((5, 5), np.uint8), 9, 7)
        assert out.shape == (7, 9) and out.sum() == 0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            img = (rng.random((12, 12)) < 0.2).astype(np.uint8)
            once = bounding_box_center(img, 12, 12)
            assert np.array_equal(bounding_box_center(once, 12, 12), once)

    def test_content_larger_than_target(self):
        img = np.ones((6, 6), dtype=np.uint8)
        with pytest.raises(ContentLargerThanTargetError):
            bounding_box_center(img, 4, 4)


class TestCenterAndSample:
    def test_equals_centering_then_nearest_resize(self):
        rng = np.random.default_rng(3)
        for h, w, out_size in [(12, 12, 5), (9, 14, 32), (40, 33, 8)]:
            stack = (rng.random((4, h, w)) < 0.1).astype(np.uint8) * rng.integers(1, 9, (4, h, w), dtype=np.uint8)
            stack[1] = 0
            got = center_and_sample(stack, out_size)
            want = [resize(bounding_box_center(img, w, h), out_size, out_size, "nearest") for img in stack]
            assert got.dtype == stack.dtype and np.array_equal(got, np.stack(want))
            assert not got[1].any()


class TestResize:
    def test_same_size_identity(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        assert np.array_equal(resize(img, 4, 4, "bilinear"), img)
        assert np.array_equal(resize(img, 4, 4, "nearest"), img)

    def test_nearest_upscale_quadrant(self):
        img = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        out = resize(img, 4, 4, "nearest")
        # coordinate oracle: src = floor((dst + 0.5) / 2) -> 0,0,1,1
        assert out[:2, :2].tolist() == [[1, 1], [1, 1]]
        assert out.sum() == 4

    def test_constant_stays_constant(self):
        img = np.full((5, 7), 93, dtype=np.uint8)
        for mode in ("bilinear", "nearest"):
            assert (resize(img, 11, 3, mode) == 93).all()
        imgf = np.full((5, 7), 0.37)
        assert (resize(imgf, 13, 4, "bilinear") == 0.37).all()

    def test_nearest_binary_stays_binary(self):
        rng = np.random.default_rng(1)
        img = (rng.random((9, 9)) < 0.4).astype(np.uint8)
        out = resize(img, 13, 5, "nearest")
        assert set(np.unique(out)) <= {0, 1}

    def test_bilinear_matches_oracle(self):
        rng = np.random.default_rng(2)
        img = rng.random((5, 6))
        out = resize(img, 9, 4, "bilinear")
        h, w = img.shape
        for oy in range(4):
            for ox in range(9):
                fx = min(max((ox + 0.5) * (w / 9) - 0.5, 0), w - 1)
                fy = min(max((oy + 0.5) * (h / 4) - 0.5, 0), h - 1)
                x0, y0 = int(np.floor(fx)), int(np.floor(fy))
                x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
                wx, wy = fx - x0, fy - y0
                top = img[y0, x0] + wx * (img[y0, x1] - img[y0, x0])
                bot = img[y1, x0] + wx * (img[y1, x1] - img[y1, x0])
                assert out[oy, ox] == pytest.approx(top + wy * (bot - top), abs=1e-12)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            resize(np.ones((2, 2)), 0, 4)


class TestDeinterlace:
    def test_constant(self):
        img = np.full((128, 128), 55, dtype=np.uint8)
        out = deinterlace(img)
        assert out.shape == (64, 64) and (out == 55).all()

    def test_keeps_even_rows(self):
        img = np.zeros((128, 128), dtype=np.uint8)
        img[0::2, :] = 1
        out = deinterlace(img)
        assert (out == 1).all()

    def test_output_is_64x64(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (128, 128)).astype(np.uint8)
        assert deinterlace(img).shape == (64, 64)

    def test_wrong_size_raises(self):
        with pytest.raises(WrongInputSizeError):
            deinterlace(np.zeros((64, 64), dtype=np.uint8))


class TestEqualizeHistogram:
    def test_single_hand_value_maps_to_255(self):
        img = np.zeros((6, 6), dtype=np.uint8)
        img[2:4, 2:4] = 77
        out = equalize_histogram(img)
        assert (out[2:4, 2:4] == 255).all()
        assert out.sum() == 4 * 255

    def test_uniform_histogram_matches_formula(self):
        # hand pixels take each value 1..255 once: oracle from the cdf rule
        # (hand values clamp to >= 1 so the zero set never changes)
        img = np.concatenate([[0], np.arange(1, 256)]).astype(np.uint8).reshape(16, 16)
        out = equalize_histogram(img)
        n, cdf_min = 255, 1
        for v in range(1, 256):
            expect = max(1, int(np.floor(255.0 * (v - cdf_min) / (n - cdf_min) + 0.5)))
            assert out.reshape(-1)[v] == expect
        vals = out[img > 0]
        assert vals.min() == 1 and vals.max() == 255
        assert (np.diff(out.reshape(-1)[1:].astype(int)) >= 0).all()

    def test_all_zero_unchanged(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        assert np.array_equal(equalize_histogram(img), img)

    def test_zero_set_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            img = rng.integers(0, 256, (20, 20)).astype(np.uint8)
            out = equalize_histogram(img)
            assert np.array_equal(out == 0, img == 0)

    def test_rejects_float_domain(self):
        with pytest.raises(ValueError):
            equalize_histogram(np.zeros((2, 2)))


class TestNormalizeUnit:
    def test_endpoints_and_fifth(self):
        img = np.array([[255, 0], [51, 255]], dtype=np.uint8)
        out = normalize_unit(img)
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0
        assert out[1, 0] == pytest.approx(0.2)
        assert out.dtype == np.float64


# ---------------------------------------------------------------------------
# pipeline-level properties

@st.composite
def random_depth_images(draw):
    h = draw(st.integers(4, 12))
    w = draw(st.integers(4, 12))
    base = draw(st.integers(200, 4000))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    img = np.where(
        rng.random((h, w)) < 0.7,
        rng.integers(base, base + 300, (h, w)),
        0,
    ).astype(np.int32)
    return img


@settings(max_examples=60, deadline=None)
@given(random_depth_images(), st.integers(1, 5000))
def test_depth_offset_invariance(img, c):
    if not (img > 0).any():
        return
    def pipeline(x):
        d = min_nonzero_depth(x)
        x = remove_background(x, 120, d)
        return normalize_depth(x, d)
    shifted = img.copy()
    shifted[shifted > 0] += c
    assert np.array_equal(pipeline(img), pipeline(shifted))


@settings(max_examples=60, deadline=None)
@given(random_depth_images(), st.integers(0, 2**31 - 1))
def test_background_pixel_invariance(img, seed):
    if not (img > 0).any():
        return
    d = min_nonzero_depth(img)
    cleaned = remove_background(img, 120, d)
    rng = np.random.default_rng(seed)
    modified = img.copy()
    far = modified > 120 + d
    if far.any():
        modified[far] = rng.integers(120 + d + 1, 120 + d + 10_000, int(far.sum()))
    assert np.array_equal(remove_background(modified, 120, d), cleaned)


@settings(max_examples=60, deadline=None)
@given(random_depth_images())
def test_normalized_min_is_one(img):
    if not (img > 0).any():
        return
    d = min_nonzero_depth(img)
    out = normalize_depth(remove_background(img, 120, d), d)
    assert min_nonzero_depth(out) == 1


def test_mask_composition_zeroes_background():
    rng = np.random.default_rng(5)
    d = np.where(rng.random((10, 10)) < 0.5, rng.integers(1, 100, (10, 10)), 0).astype(np.int32)
    img = rng.integers(1, 256, (10, 10)).astype(np.uint8)
    out = apply_mask(img, make_mask(d))
    assert ((out == 0) == (d == 0)).all()
