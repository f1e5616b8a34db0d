"""The table-driven resampling and filter-bank kernels give the same bytes as the direct forms.

The functions below are the earlier implementations of ``resize``,
``align_mask``, ``depth_feature_vector``, ``convolve_same`` and
``extract_features``, which sampled with 2-D ``np.ix_`` gathers, centered
each depth layer on its own canvas and convolved with one
``scipy.signal.fftconvolve`` call per (image, kernel) pair.  They are kept
here as the reference the production kernels must match byte for byte,
on synthetic captures and on random shapes.
"""

import zlib

import numpy as np
import pytest
from scipy.signal import fftconvolve

from fingerspell.dataset import MAX_SIDE, MIN_SIDE, gen_synthetic
from fingerspell.features import (
    bar_kernel,
    combined_features,
    depth_feature_vector,
    depth_layers,
    extract_features,
    filter_responses,
    gabor_kernel,
    raw_features,
)
from fingerspell.imaging import (
    MaskAlignment,
    align_mask,
    apply_mask,
    bounding_box_center,
    equalize_histogram,
    make_mask,
    min_nonzero_depth,
    normalize_depth,
    normalize_unit,
    remove_background,
    resize,
)


def ref_align_mask(mask, a, target_w, target_h):
    h, w = mask.shape
    xs = np.arange(target_w) * a.scale_x + a.offset_x
    ys = np.arange(target_h) * a.scale_y + a.offset_y
    ix = np.floor(xs + 0.5).astype(np.int64)
    iy = np.floor(ys + 0.5).astype(np.int64)
    ok_x = (ix >= 0) & (ix < w)
    ok_y = (iy >= 0) & (iy < h)
    out = np.zeros((target_h, target_w), dtype=np.uint8)
    if ok_x.any() and ok_y.any():
        out[np.ix_(ok_y, ok_x)] = mask[np.ix_(iy[ok_y], ix[ok_x])]
    return out


def ref_resize(img, target_w, target_h, mode="bilinear"):
    h, w = img.shape
    if (w, h) == (target_w, target_h):
        return img.copy()
    if mode == "nearest":
        ix = np.floor((np.arange(target_w) + 0.5) * (w / target_w)).astype(np.int64)
        iy = np.floor((np.arange(target_h) + 0.5) * (h / target_h)).astype(np.int64)
        np.clip(ix, 0, w - 1, out=ix)
        np.clip(iy, 0, h - 1, out=iy)
        return img[np.ix_(iy, ix)].copy()
    fx = np.clip((np.arange(target_w) + 0.5) * (w / target_w) - 0.5, 0, w - 1)
    fy = np.clip((np.arange(target_h) + 0.5) * (h / target_h) - 0.5, 0, h - 1)
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = fx - x0
    wy = (fy - y0)[:, None]
    src = img.astype(np.float64)
    top = src[np.ix_(y0, x0)] + wx * (src[np.ix_(y0, x1)] - src[np.ix_(y0, x0)])
    bot = src[np.ix_(y1, x0)] + wx * (src[np.ix_(y1, x1)] - src[np.ix_(y1, x0)])
    out = top + wy * (bot - top)
    if np.issubdtype(img.dtype, np.integer):
        out = np.rint(out)
        info = np.iinfo(img.dtype)
        out = np.clip(out, info.min, info.max).astype(img.dtype)
    return out


def ref_depth_feature_vector(stack, out_size=32):
    blocks = []
    for layer in stack:
        centered = bounding_box_center(layer, layer.shape[1], layer.shape[0])
        blocks.append(ref_resize(centered, out_size, out_size, mode="nearest").ravel())
    return np.concatenate(blocks).astype(np.float64)


def ref_preprocess_pair(depth, intensity, t, alignment, out_size=128):
    d = min_nonzero_depth(depth)
    depth = normalize_depth(remove_background(depth, t, d), d)
    mask_i = ref_align_mask(make_mask(depth), alignment, intensity.shape[1], intensity.shape[0])
    intensity = apply_mask(intensity, mask_i)
    depth = bounding_box_center(ref_resize(depth, out_size, out_size), out_size, out_size)
    intensity = bounding_box_center(ref_resize(intensity, out_size, out_size), out_size, out_size)
    return depth, intensity


def convolve_same(img, kernel):
    """FFT convolution with replicate (edge) padding, output same size."""
    ph, pw = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(img.astype(np.float64), ((ph, ph), (pw, pw)), mode="edge")
    return fftconvolve(padded, kernel, mode="valid")


def ref_filter_blocks(images, kernels, out_size):
    blocks = []
    for img in images:
        for kernel in kernels:
            small = ref_resize(np.abs(convolve_same(img, kernel)), out_size, out_size)
            lo, hi = float(small.min()), float(small.max())
            span = hi - lo
            flat = span <= 1e-9 * max(1.0, abs(hi), abs(lo))
            blocks.append((np.zeros_like(small) if flat else (small - lo) / span).ravel())
    return np.concatenate(blocks)


def ref_bank_kernels(kind):
    """The fixed banks: 4 wavelengths x 4 orientations of 31x31 Gabor kernels, 3 orientations of 9x9 bars."""
    if kind == "gabor":
        return [
            gabor_kernel(wl, th, 31, 0.5)
            for wl in (4.0, 8.0, 12.0, 16.0)
            for th in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
        ]
    return [bar_kernel(th, 9) for th in (0.0, np.pi / 4, np.pi / 2)]


def ref_extract_features(depth, intensity, kind, t=120, alignment=MaskAlignment()):
    dp, ip = ref_preprocess_pair(depth, intensity, t, alignment)
    if kind == "combined":
        small = equalize_histogram(ref_resize(ip[0::2, :], 64, 64))
        return combined_features(normalize_unit(small).ravel(), ref_depth_feature_vector(depth_layers(dp, 6, t)))
    if kind == "raw":
        return raw_features(dp, ip, t=t)
    images = (ip.astype(np.float64), dp.astype(np.float64))
    return ref_filter_blocks(images, ref_bank_kernels(kind), 28 if kind == "gabor" else 64)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_side(rng):
    return int(rng.integers(MIN_SIDE, MAX_SIDE + 1))


def random_capture(rng):
    """Depth speckle around a random base, with a random-side intensity image of the same size."""
    h, w = random_side(rng), random_side(rng)
    base = int(rng.integers(300, 3000))
    depth = np.where(rng.random((h, w)) < rng.uniform(0.05, 0.9), rng.integers(base, base + 300, (h, w)), 0)
    depth = depth.astype(np.int32)
    depth[h // 2, w // 2] = base
    return depth, rng.integers(0, 256, (h, w)).astype(np.uint8)


def random_alignment(rng):
    return MaskAlignment(
        scale_x=float(rng.uniform(0.5, 1.6)),
        scale_y=float(rng.uniform(0.5, 1.6)),
        offset_x=float(rng.uniform(-20, 20)),
        offset_y=float(rng.uniform(-20, 20)),
    )


@pytest.fixture(scope="module")
def synthetic():
    return gen_synthetic(1, 1, rng_seed=720)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint16, np.float64])
    @pytest.mark.parametrize("mode", ["bilinear", "nearest"])
    def test_resize_random_shapes(self, dtype, mode):
        rng = np.random.default_rng(zlib.crc32(f"{np.dtype(dtype)}-{mode}".encode()))
        for _ in range(50):
            h, w = random_side(rng), random_side(rng)
            tw, th = int(rng.integers(1, 300)), int(rng.integers(1, 300))
            if np.dtype(dtype).kind == "f":
                img = np.abs(rng.normal(0, 40, (h, w)))
            else:
                img = rng.integers(0, min(np.iinfo(dtype).max, 5000) + 1, (h, w)).astype(dtype)
            assert same_bytes(resize(img, tw, th, mode), ref_resize(img, tw, th, mode)), (h, w, tw, th)

    def test_resize_of_a_strided_view(self):
        img = np.random.default_rng(3).integers(0, 256, (128, 128)).astype(np.uint8)
        assert same_bytes(resize(img[0::2, :], 64, 64), ref_resize(img[0::2, :], 64, 64))

    def test_align_mask_random_alignments(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mask = (rng.random((random_side(rng), random_side(rng))) < 0.5).astype(np.uint8)
            a = random_alignment(rng)
            tw, th = random_side(rng), random_side(rng)
            assert same_bytes(align_mask(mask, a, tw, th), ref_align_mask(mask, a, tw, th))

    def test_align_mask_identity_and_all_out_of_bounds(self):
        mask = (np.random.default_rng(12).random((40, 50)) < 0.5).astype(np.uint8)
        cases = [(MaskAlignment(), 50, 40), (MaskAlignment(), 60, 30), (MaskAlignment(offset_x=500.0), 50, 40)]
        for a, tw, th in cases:
            assert same_bytes(align_mask(mask, a, tw, th), ref_align_mask(mask, a, tw, th))

    def test_depth_feature_vector_random_stacks(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n, h, w = int(rng.integers(1, 8)), random_side(rng), random_side(rng)
            stack = (rng.random((n, h, w)) < rng.uniform(0.0, 0.3)).astype(np.uint8)
            y, x = int(rng.integers(h)), int(rng.integers(w))
            stack[:, : y // 2] = 0  # content in a random sub-rectangle
            stack[:, :, x + (w - x) // 2 :] = 0
            stack[int(rng.integers(n))] = 0  # an empty layer
            out_size = int(rng.choice([8, 32, 40]))
            assert same_bytes(depth_feature_vector(stack, out_size), ref_depth_feature_vector(stack, out_size))


class TestExtractionMatchesReference:
    @pytest.mark.parametrize("kind", ["combined", "raw", "gabor", "bar"])
    def test_synthetic_captures(self, synthetic, kind):
        for s in synthetic[:: 1 if kind in ("combined", "raw") else 6]:
            new = extract_features(s.depth, s.intensity, kind)
            assert same_bytes(new, ref_extract_features(s.depth, s.intensity, kind))

    @pytest.mark.parametrize("kind", ["combined", "raw"])
    def test_random_pairs(self, kind):
        rng = np.random.default_rng(17 if kind == "combined" else 19)
        for i in range(40):
            depth, intensity = random_capture(rng)
            a = MaskAlignment() if i % 2 else random_alignment(rng)
            new = extract_features(depth, intensity, kind, alignment=a)
            assert same_bytes(new, ref_extract_features(depth, intensity, kind, alignment=a))

    @pytest.mark.parametrize("kind", ["gabor", "bar"])
    def test_random_pairs_filter_banks(self, kind):
        rng = np.random.default_rng(23)
        for _ in range(2):
            depth, intensity = random_capture(rng)
            a = random_alignment(rng)
            new = extract_features(depth, intensity, kind, alignment=a)
            assert same_bytes(new, ref_extract_features(depth, intensity, kind, alignment=a))


class TestFilterBanksMatchReference:
    @pytest.mark.parametrize("kind", ["gabor", "bar"])
    @pytest.mark.parametrize("seed", [29, 30, 31, 32], ids=range(4))
    def test_random_128x128_images(self, seed, kind):
        rng = np.random.default_rng(seed)
        for img in (rng.integers(0, 256, (128, 128)).astype(np.uint8), rng.integers(0, 121, (128, 128)).astype(np.int32)):
            new = filter_responses(img, kind)
            ref = np.stack([convolve_same(img, k) for k in ref_bank_kernels(kind)])
            assert same_bytes(new, ref)

    def test_random_shapes(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            img = rng.random((int(rng.integers(1, 80)), int(rng.integers(1, 80))))
            kind = "gabor" if rng.random() < 0.5 else "bar"
            new = filter_responses(img, kind)
            assert same_bytes(new, np.stack([convolve_same(img, k) for k in ref_bank_kernels(kind)]))

    def test_kernel_spectra_are_read_only(self):
        from fingerspell.features import _bank_spectra

        filter_responses(np.zeros((128, 128)), "bar")
        with pytest.raises(ValueError):
            _bank_spectra("bar", (144, 144))[0, 0, 0] = 1.0


def test_index_tables_are_read_only():
    from fingerspell.imaging import _nearest_index

    with pytest.raises(ValueError):
        _nearest_index(100, 32)[0] = 5
