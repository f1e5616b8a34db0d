import numpy as np
import pytest

from fingerspell.config import config_from_dict
from fingerspell.errors import ConfigError, DimensionMismatchError, FormatError
from fingerspell.features import (
    BAR_ORIENTATIONS,
    COMBINED_DIM,
    DEPTH_DIM,
    GABOR_ORIENTATIONS,
    GABOR_WAVELENGTHS,
    INTENSITY_DIM,
    RAW_DIM,
    _bank_spectra,
    bar_features,
    bar_kernel,
    combined_features,
    depth_feature_vector,
    depth_layers,
    extract_features,
    feature_dim,
    filter_responses,
    gabor_features,
    intensity_feature_vector,
    preprocess_pair,
    raw_features,
    read_features,
    write_features,
)
from fingerspell.imaging import make_mask, min_nonzero_depth


def brute_force_layers(depth, n, t):
    """Independent per-pixel evaluation of the layer rule."""
    h, w = depth.shape
    out = np.zeros((n, h, w), dtype=np.uint8)
    for l in range(1, n + 1):
        for y in range(h):
            for x in range(w):
                v = depth[y, x]
                if v > 0 and v <= (l - 1) * (t / n) + 1:
                    out[l - 1, y, x] = 1
    return out


class TestDepthLayers:
    def test_default_thresholds(self):
        # layers 2 cm apart: cutoffs 1, 21, 41, 61, 81, 101 mm
        img = np.array([[1, 21, 22, 41, 42, 61, 62, 81, 82, 101, 102, 0]], dtype=np.int32)
        stack = depth_layers(img, n=6, t=120)
        counts = stack.sum(axis=(1, 2)).tolist()
        assert counts == [1, 2, 4, 6, 8, 10]

    def test_2x2_example(self):
        img = np.array([[1, 25], [45, 0]], dtype=np.int32)
        stack = depth_layers(img, n=6, t=120)
        assert stack[0].tolist() == [[1, 0], [0, 0]]
        assert stack[1].tolist() == [[1, 0], [0, 0]]
        assert stack[2].tolist() == [[1, 1], [0, 0]]
        for l in (3, 4, 5):
            assert stack[l].tolist() == [[1, 1], [1, 0]]

    def test_flat_hand_every_layer_is_mask(self):
        img = np.array([[1, 0], [1, 1]], dtype=np.int32)
        stack = depth_layers(img, n=6, t=120)
        for layer in stack:
            assert np.array_equal(layer, make_mask(img))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            img = np.where(rng.random((6, 7)) < 0.7, rng.integers(1, 130, (6, 7)), 0).astype(np.int32)
            n = int(rng.integers(1, 8))
            t = int(rng.integers(30, 200))
            assert np.array_equal(depth_layers(img, n, t), brute_force_layers(img, n, t))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64])
    def test_integer_depth_matches_float_comparison(self, dtype):
        # 64-bit values stay below 2**53, where the float form is exact
        info = np.iinfo(dtype)
        hi = min(int(info.max), 2 ** 53)
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        img = rng.integers(max(int(info.min), -(2 ** 53)), hi, (12, 12), endpoint=True).astype(dtype)
        img[0, :4] = (0, 1, hi - 1, hi)
        img[1:11] = np.arange(120).reshape(10, 12)  # every value next to a small threshold
        ts = [1, 7, 120, 119.5, 250, 1e4, 7e4, 5e9, 2.0 ** 40, 2.0 ** 53 - 5, 1e30, 5e-324]
        for t in ts:
            for n in (1, 6, 11):
                thresholds = (np.arange(n) * (t / n) + 1.0)[:, None, None]
                expect = ((img > 0) & (img.astype(np.float64) <= thresholds)).astype(np.uint8)
                assert np.array_equal(depth_layers(img, n, t), expect), (t, n)

    @pytest.mark.parametrize("t", [0, -5, float("nan"), float("inf")])
    def test_bad_max_depth_raises(self, t):
        with pytest.raises(ValueError):
            depth_layers(np.ones((3, 3), np.int32), 6, t)

    def test_nesting_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            img = np.where(rng.random((9, 9)) < 0.6, rng.integers(1, 125, (9, 9)), 0).astype(np.int32)
            stack = depth_layers(img)
            for l in range(len(stack) - 1):
                assert (stack[l] <= stack[l + 1]).all()

    def test_layer_one_is_exactly_depth_one(self):
        img = np.array([[1, 2], [1, 0]], dtype=np.int32)
        stack = depth_layers(img)
        assert np.array_equal(stack[0], (img == 1).astype(np.uint8))

    def test_single_layer_is_closest_surface_regardless_of_t(self):
        # the layer rule puts layer 1's cutoff at exactly 1 for any t/n,
        # so a single layer always marks just the closest surface
        rng = np.random.default_rng(12)
        img = np.where(rng.random((8, 8)) < 0.5, rng.integers(1, 121, (8, 8)), 0).astype(np.int32)
        for t in (120, 10**7):
            stack = depth_layers(img, n=1, t=t)
            assert np.array_equal(stack[0], (img == 1).astype(np.uint8))


class TestDepthFeatureVector:
    def test_all_empty_layers(self):
        stack = np.zeros((6, 64, 64), dtype=np.uint8)
        vec = depth_feature_vector(stack)
        assert vec.shape == (DEPTH_DIM,) and vec.sum() == 0

    def test_length_for_six_layers(self):
        rng = np.random.default_rng(13)
        stack = (rng.random((6, 100, 100)) < 0.3).astype(np.uint8)
        assert depth_feature_vector(stack).shape == (6144,)

    def test_single_pixel_layer_one_hot(self):
        # 64x64 layer with one pixel: centering puts it at (31,31), the
        # 2x downsample samples odd sources, so it lands at (15,15)
        stack = np.zeros((1, 64, 64), dtype=np.uint8)
        stack[0, 5, 60] = 1
        vec = depth_feature_vector(stack)
        assert vec.shape == (1024,)
        assert vec.sum() == 1
        assert vec[15 * 32 + 15] == 1.0

    def test_values_binary(self):
        rng = np.random.default_rng(14)
        stack = (rng.random((6, 50, 50)) < 0.4).astype(np.uint8)
        vec = depth_feature_vector(stack)
        assert set(np.unique(vec)) <= {0.0, 1.0}


class TestIntensityFeatureVector:
    def test_all_zero(self):
        vec = intensity_feature_vector(np.zeros((128, 128), dtype=np.uint8))
        assert vec.shape == (INTENSITY_DIM,) and vec.sum() == 0

    def test_length(self):
        rng = np.random.default_rng(15)
        img = rng.integers(0, 256, (128, 128)).astype(np.uint8)
        assert intensity_feature_vector(img).shape == (4096,)

    def test_constant_hand_becomes_one(self):
        img = np.zeros((128, 128), dtype=np.uint8)
        img[40:80, 40:80] = 130
        vec = intensity_feature_vector(img).reshape(64, 64)
        # single-valued hand histogram equalizes to 255 -> 1.0 after scaling
        assert vec.max() == 1.0
        assert vec[32, 32] == 1.0
        assert vec[0, 0] == 0.0

    def test_range(self):
        rng = np.random.default_rng(16)
        img = rng.integers(0, 256, (128, 128)).astype(np.uint8)
        vec = intensity_feature_vector(img)
        assert vec.min() >= 0.0 and vec.max() <= 1.0


class TestCombinedFeatures:
    def test_zero_concat(self):
        out = combined_features(np.zeros(4096), np.zeros(6144))
        assert out.shape == (COMBINED_DIM,) and out.sum() == 0

    def test_concatenation_order(self):
        fi = np.zeros(4096)
        fd = np.zeros(6144)
        fd[0] = 1.0
        out = combined_features(fi, fd)
        assert out[4096] == 1.0 and out[:4096].sum() == 0

    def test_length_checks(self):
        with pytest.raises(DimensionMismatchError):
            combined_features(np.zeros(4095), np.zeros(6144))
        with pytest.raises(DimensionMismatchError):
            combined_features(np.zeros(4096), np.zeros(6145))


class TestRawFeatures:
    def test_zero_images(self):
        out = raw_features(np.zeros((128, 128), np.int32), np.zeros((128, 128), np.uint8))
        assert out.shape == (RAW_DIM,) and out.sum() == 0

    def test_block_layout_and_scaling(self):
        depth = np.zeros((128, 128), dtype=np.int32)
        depth[0, 0] = 120
        intensity = np.zeros((128, 128), dtype=np.uint8)
        intensity[0, 1] = 255
        out = raw_features(depth, intensity, t=120)
        assert out[1] == 1.0            # intensity block first
        assert out[16384] == 1.0        # depth pixel == t scales to 1.0
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            raw_features(np.zeros((64, 64), np.int32), np.zeros((128, 128), np.uint8))


class TestFilterBanks:
    def test_gabor_feature_length(self):
        rng = np.random.default_rng(17)
        depth = rng.integers(0, 121, (128, 128)).astype(np.int32)
        intensity = rng.integers(0, 256, (128, 128)).astype(np.uint8)
        out = gabor_features(depth, intensity)
        assert out.shape == (2 * 16 * 28 * 28,)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gabor_constant_image_collapses_to_zero(self):
        img = np.full((128, 128), 90, dtype=np.uint8)
        out = gabor_features(np.full((128, 128), 50, np.int32), img)
        assert (out == 0).all()

    def test_gabor_vertical_stripes_peak_at_zero_orientation(self):
        wavelength = 8.0
        stripes = (127.5 + 127.5 * np.cos(2 * np.pi * np.arange(28) / wavelength))[None, :]
        img = np.repeat(stripes, 28, axis=0)
        # kernels run wavelength-major: the second four are the 8 px ones
        assert GABOR_WAVELENGTHS[1] == wavelength
        energies = np.abs(filter_responses(img, "gabor")[4:8]).mean(axis=(1, 2))
        assert int(np.argmax(energies)) == 0

    def test_convolve_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(18)
        img = rng.random((12, 12))
        kernel = bar_kernel(np.pi / 4)  # the bank's second kernel, 9x9
        out = filter_responses(img, "bar")[1]
        padded = np.pad(img, 4, mode="edge")
        for y in range(12):
            for x in range(12):
                acc = 0.0
                for ky in range(9):
                    for kx in range(9):
                        acc += padded[y + 8 - ky, x + 8 - kx] * kernel[ky, kx]
                assert out[y, x] == pytest.approx(acc, abs=1e-9)

    def test_bar_feature_length(self):
        rng = np.random.default_rng(19)
        depth = rng.integers(0, 121, (128, 128)).astype(np.int32)
        intensity = rng.integers(0, 256, (128, 128)).astype(np.uint8)
        out = bar_features(depth, intensity)
        assert out.shape == (2 * 3 * 64 * 64,)

    def test_bar_constant_image_gives_zero(self):
        out = bar_features(np.full((128, 128), 60, np.int32), np.full((128, 128), 120, np.uint8))
        assert (out == 0).all()

    def test_bar_kernels_zero_sum(self):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            assert abs(bar_kernel(theta).sum()) < 1e-12

    def test_horizontal_bar_kernel_prefers_horizontal_bar(self):
        img = np.zeros((40, 40))
        img[19:22, 5:35] = 1.0   # horizontal bar
        responses = np.abs(filter_responses(img, "bar")).max(axis=(1, 2))
        assert int(np.argmax(responses)) == 0

    def test_bank_shape_validation(self):
        # the paper's banks: 4 scales x 4 orientations of Gabor kernels, 3 oriented bars
        assert len(GABOR_WAVELENGTHS) == len(GABOR_ORIENTATIONS) == 4 and len(BAR_ORIENTATIONS) == 3
        img = np.zeros((20, 20))
        assert filter_responses(img, "gabor").shape == (16, 20, 20)
        assert filter_responses(img, "bar").shape == (3, 20, 20)

    @pytest.mark.parametrize("field, value", [
        ("gabor_wavelengths", (4.0, 0.0, 12.0, 16.0)),
        ("gabor_wavelengths", (4.0, 8.0, float("inf"), 16.0)),
        ("gabor_wavelengths", (4.0, 8.0, 12.0, float("nan"))),
        ("gabor_orientations", (0.0, float("nan"), 1.0, 2.0)),
        ("bar_orientations", (0.0, 1.0, float("-inf"))),
        ("gabor_sigma_ratio", 0.0),
        ("gabor_sigma_ratio", float("nan")),
        ("gabor_kernel_size", 0),
        ("gabor_kernel_size", 7.5),
        ("bar_kernel_size", -3),
        ("gabor_out_size", 0),
        ("bar_out_size", 0),
        ("bar_out_size", 4.0),
    ])
    def test_bank_field_validation(self, field, value):
        # the banks are constants, so a config that sets any of their old fields is refused
        with pytest.raises(ConfigError, match="filter_bank"):
            config_from_dict({"filter_bank": {field: list(value) if isinstance(value, tuple) else value}})

    def test_bank_sequences_become_tuples(self):
        # tuples, so no caller can change a bank that the kernel and spectrum caches hold
        assert all(isinstance(v, tuple) for v in (GABOR_WAVELENGTHS, GABOR_ORIENTATIONS, BAR_ORIENTATIONS))
        assert _bank_spectra("bar", (32, 32)) is _bank_spectra("bar", (32, 32))


@pytest.fixture(scope="module")
def sample():
    from fingerspell.dataset import gen_synthetic

    return gen_synthetic(1, 1, rng_seed=100)[0]


class TestExtractFeatures:

    def test_dims_per_kind(self, sample):
        for kind in ("combined", "raw", "gabor", "bar"):
            vec = extract_features(sample.depth, sample.intensity, kind)
            assert vec.shape == (feature_dim(kind),)
            assert vec.min() >= 0.0 and vec.max() <= 1.0

    def test_unknown_kind(self, sample):
        with pytest.raises(ValueError):
            extract_features(sample.depth, sample.intensity, "wavelet")

    def test_combined_depth_block_binary(self, sample):
        vec = extract_features(sample.depth, sample.intensity, "combined")
        assert set(np.unique(vec[4096:])) <= {0.0, 1.0}

    def test_end_to_end_depth_offset_invariance(self, sample):
        v1 = extract_features(sample.depth, sample.intensity, "combined")
        shifted = sample.depth.copy()
        shifted[shifted > 0] += 400
        v2 = extract_features(shifted, sample.intensity, "combined")
        assert v1.tobytes() == v2.tobytes()

    def test_end_to_end_background_invariance(self, sample):
        d = min_nonzero_depth(sample.depth)
        t = 120
        modified = sample.depth.copy()
        far = modified > t + d
        assert far.any()
        modified[far] = 60000
        v1 = extract_features(sample.depth, sample.intensity, "combined")
        v2 = extract_features(modified, sample.intensity, "combined")
        assert v1.tobytes() == v2.tobytes()

    def test_preprocess_shapes_and_domains(self, sample):
        dp, ip = preprocess_pair(sample.depth, sample.intensity)
        assert dp.shape == (128, 128) and ip.shape == (128, 128)
        assert np.issubdtype(dp.dtype, np.integer) and ip.dtype == np.uint8


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        m = rng.random((7, 33)).astype(np.float32)
        p = tmp_path / "f.bin"
        write_features(p, "combined", m)
        kind, back = read_features(p)
        assert kind == "combined"
        assert back.dtype == np.float32 and back.tobytes() == m.tobytes()
        # writing the read-back matrix reproduces the file byte for byte
        p2 = tmp_path / "f2.bin"
        write_features(p2, kind, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_features(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "f.bin"
        write_features(p, "raw", np.zeros((4, 8), dtype=np.float32))
        data = p.read_bytes()
        p.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="truncated"):
            read_features(p)
