"""Feature vectors for hand-pose classification.

The main extractor decomposes the preprocessed depth image into 6 nested
binary layers (2 cm slices of the hand at the default 120 mm cutoff),
centers and downsamples each layer to 32x32 and concatenates them with a 64x64
equalized intensity image into one flat vector:

* intensity features: 4096 values in [0, 1]
* depth features:     6144 values in {0, 1}   (6 layers x 1024)
* combined:           10240 values

Three baseline extractors (raw pixels, a 4x4 Gabor bank, three oriented
bar filters) share the same preprocessed 128x128 inputs.
"""

import math
from functools import lru_cache

import numpy as np

from fingerspell import container
from fingerspell.errors import DimensionMismatchError
from fingerspell.imaging import (
    DEFAULT_MAX_HAND_DEPTH_MM,
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

N_LAYERS = 6
PROCESSED_SIZE = 128

INTENSITY_DIM = 4096
DEPTH_DIM = 6144
COMBINED_DIM = INTENSITY_DIM + DEPTH_DIM
RAW_DIM = 2 * PROCESSED_SIZE * PROCESSED_SIZE

FEATURE_KINDS = ("combined", "raw", "gabor", "bar")

# the baseline filter banks: 4 scales x 4 orientations of Gabor kernels, and
# 3 oriented bar kernels (horizontal, diagonal, vertical)
GABOR_WAVELENGTHS = (4.0, 8.0, 12.0, 16.0)
GABOR_ORIENTATIONS = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
GABOR_KERNEL_SIZE = 31
GABOR_SIGMA_RATIO = 0.5  # sigma = ratio * wavelength
GABOR_OUT_SIZE = 28
BAR_ORIENTATIONS = (0.0, np.pi / 4, np.pi / 2)
BAR_KERNEL_SIZE = 9
BAR_OUT_SIZE = 64


# ---------------------------------------------------------------------------
# preprocessing pipeline (composition of imaging primitives)

def preprocess_pair(
    depth: np.ndarray,
    intensity: np.ndarray,
    t: int = DEFAULT_MAX_HAND_DEPTH_MM,
    alignment: MaskAlignment = MaskAlignment(),
    out_size: int = PROCESSED_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the full depth-driven preprocessing on one depth/intensity pair.

    Steps: background removal at ``t`` beyond the closest surface, depth
    renormalization (closest pixel becomes 1), masking the intensity image
    through the aligned depth mask, resizing both to ``out_size`` and
    bounding-box centering.  Returns ``(depth, intensity)`` at
    ``out_size x out_size``; depth stays integer mm, intensity stays in
    the integer [0,255] domain.
    """
    d = min_nonzero_depth(depth)
    depth = remove_background(depth, t, d)
    depth = normalize_depth(depth, d)
    mask = make_mask(depth)
    mask_i = align_mask(mask, alignment, intensity.shape[1], intensity.shape[0])
    intensity = apply_mask(intensity, mask_i)

    depth = resize(depth, out_size, out_size, mode="bilinear")
    depth = bounding_box_center(depth, out_size, out_size)
    intensity = resize(intensity, out_size, out_size, mode="bilinear")
    intensity = bounding_box_center(intensity, out_size, out_size)
    return depth, intensity


# ---------------------------------------------------------------------------
# layered depth features

def depth_layers(depth: np.ndarray, n: int = N_LAYERS, t: int = DEFAULT_MAX_HAND_DEPTH_MM) -> np.ndarray:
    """Decompose a renormalized depth image into ``n`` nested binary layers.

    Layer ``l`` (1-based) marks pixels with ``0 < depth <= (l-1)*(t/n) + 1``:
    the first layer is the closest surface, each further layer adds one
    more ``t/n`` slice of the hand.  Background (0) pixels belong to no
    layer.  Returns a ``(n, h, w)`` uint8 stack.
    """
    if n < 1:
        raise ValueError("layer count must be >= 1")
    if not (0 < t < math.inf):
        raise ValueError("maximum hand depth t must be positive and finite")
    thresholds = np.arange(n) * (t / n) + 1.0
    if np.issubdtype(depth.dtype, np.integer):
        # depth <= x equals depth <= floor(x) for integers; cutting in the
        # depth dtype keeps numpy from casting the image to float64 per layer
        top = np.iinfo(depth.dtype).max
        thresholds = np.array([min(math.floor(x), top) for x in thresholds], dtype=depth.dtype)
    return ((depth > 0) & (depth <= thresholds[:, None, None])).astype(np.uint8)


def depth_feature_vector(stack: np.ndarray, out_size: int = 32) -> np.ndarray:
    """Center + downsample each layer and concatenate row-major unrolls.

    Each layer is bounding-box centered on its own canvas, resized to
    ``out_size x out_size`` with nearest sampling (values stay binary) and
    flattened; blocks are concatenated in layer order.  For the default 6
    layers at 32x32 the result has 6144 elements in {0, 1}.
    """
    return center_and_sample(stack, out_size).astype(np.float64).ravel()


def intensity_feature_vector(img: np.ndarray) -> np.ndarray:
    """Unroll the masked 128x128 intensity image into 4096 values in [0,1].

    De-interlaces to 64x64, equalizes the hand histogram, scales to [0,1]
    and flattens row-major.
    """
    small = deinterlace(img)
    small = equalize_histogram(small)
    return normalize_unit(small).ravel()


def combined_features(fi: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """Concatenate intensity (4096) and depth (6144) features, intensity first."""
    if fi.shape != (INTENSITY_DIM,):
        raise DimensionMismatchError(f"intensity features must have length {INTENSITY_DIM}")
    if fd.shape != (DEPTH_DIM,):
        raise DimensionMismatchError(f"depth features must have length {DEPTH_DIM}")
    return np.concatenate([fi, fd])


# ---------------------------------------------------------------------------
# baseline extractors

def raw_features(depth: np.ndarray, intensity: np.ndarray, t: int = DEFAULT_MAX_HAND_DEPTH_MM) -> np.ndarray:
    """Unrolled raw 128x128 pixels, intensity then depth, scaled to [0,1].

    Intensity is divided by 255, depth by ``t``; renormalized depth can
    reach ``t + 1`` so the depth block is clipped into [0, 1].
    """
    if depth.shape != (PROCESSED_SIZE, PROCESSED_SIZE) or intensity.shape != (PROCESSED_SIZE, PROCESSED_SIZE):
        raise DimensionMismatchError("raw features expect 128x128 preprocessed inputs")
    fi = intensity.astype(np.float64).ravel() / 255.0
    fd = np.clip(depth.astype(np.float64).ravel() / float(t), 0.0, 1.0)
    return np.concatenate([fi, fd])


def gabor_kernel(wavelength: float, theta: float, size: int = GABOR_KERNEL_SIZE,
                 sigma_ratio: float = GABOR_SIGMA_RATIO) -> np.ndarray:
    """Even-symmetric Gabor kernel: Gaussian envelope times a cosine carrier.

    ``theta = 0`` puts the carrier along x, so the kernel responds to
    vertical stripes of period ``wavelength``.
    """
    half = size // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    xr = x * np.cos(theta) + y * np.sin(theta)
    yr = -x * np.sin(theta) + y * np.cos(theta)
    sigma = sigma_ratio * wavelength
    envelope = np.exp(-(xr ** 2 + yr ** 2) / (2.0 * sigma ** 2))
    return envelope * np.cos(2.0 * np.pi * xr / wavelength)


def bar_kernel(theta: float, size: int = BAR_KERNEL_SIZE) -> np.ndarray:
    """Zero-sum oriented bar detector (second derivative of a Gaussian).

    ``theta`` is the direction the bar runs along: 0 = horizontal bar,
    pi/4 = diagonal, pi/2 = vertical.  The kernel is mean-subtracted so a
    constant image produces an exactly zero-sum response.
    """
    half = size // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    u = -x * np.sin(theta) + y * np.cos(theta)   # across the bar
    v = x * np.cos(theta) + y * np.sin(theta)    # along the bar
    sigma_u, sigma_v = 1.4, 3.2
    profile = (1.0 - u ** 2 / sigma_u ** 2) * np.exp(-(u ** 2) / (2.0 * sigma_u ** 2))
    kernel = profile * np.exp(-(v ** 2) / (2.0 * sigma_v ** 2))
    return kernel - kernel.mean()


def _bank_kernels(bank: str) -> list:
    if bank == "gabor":
        return [gabor_kernel(wl, th) for wl in GABOR_WAVELENGTHS for th in GABOR_ORIENTATIONS]
    return [bar_kernel(th) for th in BAR_ORIENTATIONS]


@lru_cache(maxsize=8)
def _bank_spectra(bank: str, fshape: tuple) -> np.ndarray:
    """``rfftn`` of each kernel of a bank zero-padded to ``fshape``, stacked (read-only)."""
    from scipy.fft import rfftn

    spectra = np.stack([rfftn(k, fshape) for k in _bank_kernels(bank)])
    spectra.flags.writeable = False  # cached spectra are shared by every caller
    return spectra


def filter_responses(img: np.ndarray, bank: str) -> np.ndarray:
    """Edge-padded same-size convolution of ``img`` with each kernel of a bank.

    ``bank`` is ``"gabor"`` (16 kernels) or ``"bar"`` (3); returns a
    ``(kernels, h, w)`` float64 stack.  These are the operations
    ``scipy.signal.fftconvolve(padded, kernel, mode="valid")`` performs,
    with the padded image transformed once for the whole bank: ``rfftn``
    at the 5-smooth length of the full linear convolution per axis, a
    product with each cached kernel spectrum, ``irfftn``, and the centred
    crop of the "valid" part.
    """
    from scipy.fft import irfftn, next_fast_len, rfftn  # imported here, so the combined and raw kinds never load it

    half = (GABOR_KERNEL_SIZE if bank == "gabor" else BAR_KERNEL_SIZE) // 2  # kernels are 2 * half + 1 square
    padded = np.pad(img.astype(np.float64), half, mode="edge")
    full = [n + 2 * half for n in padded.shape]
    fshape = tuple(next_fast_len(n, real=True) for n in full)
    spectra = _bank_spectra(bank, fshape)
    spectrum = rfftn(padded, fshape)
    h, w = img.shape
    c = 2 * half  # "valid" starts a kernel side minus one into the full convolution
    out = np.empty((len(spectra), h, w))
    for o, kernel_spectrum in zip(out, spectra):
        o[...] = irfftn(spectrum * kernel_spectrum, fshape)[c : c + h, c : c + w]
    return out


def _minmax_map(m: np.ndarray) -> np.ndarray:
    # degenerate (flat) response maps collapse to all zeros
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo
    if span <= 1e-9 * max(1.0, abs(hi), abs(lo)):
        return np.zeros_like(m)
    return (m - lo) / span


def _filter_response_blocks(depth, intensity, bank: str, out_size: int) -> np.ndarray:
    blocks = []
    for img in (intensity, depth):
        for response in np.abs(filter_responses(img, bank)):
            small = resize(response, out_size, out_size, mode="bilinear")
            blocks.append(_minmax_map(small).ravel())
    return np.concatenate(blocks)


def gabor_features(depth: np.ndarray, intensity: np.ndarray) -> np.ndarray:
    """Gabor-bank baseline: 2 images x 16 kernels x 28x28 maps = 25088 values.

    Each 128x128 image is convolved with the 4-scale x 4-orientation bank,
    response magnitudes are resized to 28x28 and min-max scaled per map.
    """
    return _filter_response_blocks(depth, intensity, "gabor", GABOR_OUT_SIZE)


def bar_features(depth: np.ndarray, intensity: np.ndarray) -> np.ndarray:
    """Bar-filter baseline: 2 images x 3 kernels x 64x64 maps = 24576 values."""
    return _filter_response_blocks(depth, intensity, "bar", BAR_OUT_SIZE)


# ---------------------------------------------------------------------------
# one-call extraction

def extract_features(
    depth: np.ndarray,
    intensity: np.ndarray,
    kind: str = "combined",
    t: int = DEFAULT_MAX_HAND_DEPTH_MM,
    alignment: MaskAlignment = MaskAlignment(),
) -> np.ndarray:
    """Preprocess one raw depth/intensity pair and extract ``kind`` features."""
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")
    dp, ip = preprocess_pair(depth, intensity, t=t, alignment=alignment)
    if kind == "combined":
        fi = intensity_feature_vector(ip)
        fd = depth_feature_vector(depth_layers(dp, t=t))
        return combined_features(fi, fd)
    if kind == "raw":
        return raw_features(dp, ip, t=t)
    if kind == "gabor":
        return gabor_features(dp, ip)
    return bar_features(dp, ip)


def feature_dim(kind: str) -> int:
    """Vector length produced by :func:`extract_features` for ``kind``."""
    dims = {
        "combined": COMBINED_DIM,
        "raw": RAW_DIM,
        "gabor": 2 * 16 * GABOR_OUT_SIZE ** 2,   # 16 Gabor kernels on each image
        "bar": 2 * 3 * BAR_OUT_SIZE ** 2,        # 3 bar kernels on each image
    }
    if kind not in dims:
        raise ValueError(f"unknown feature kind {kind!r}")
    return dims[kind]


# ---------------------------------------------------------------------------
# feature matrix file format
#
# A fingerspell.container with magic b"HSFT1", JSON header
# {"kind", "dim", "count"}, then count*dim float32 little-endian values in
# row-major order.

FEATURE_MAGIC = b"HSFT1"


def write_features(path, kind: str, matrix: np.ndarray) -> None:
    """Write a (count, dim) feature matrix to the binary feature format."""
    count, dim = np.shape(matrix)
    container.write(path, FEATURE_MAGIC, "<f4", {"kind": kind, "dim": int(dim), "count": int(count)}, [matrix])


def _feature_layout(header):
    if not isinstance(header["kind"], str):
        raise TypeError("kind must be a string")
    return [("features", (header["count"], header["dim"]))]


def read_features(path) -> tuple[str, np.ndarray]:
    """Read a feature file; returns ``(kind, matrix)`` with the float32 matrix it stores, mapped copy-on-write.

    Raises :class:`FormatError` on a bad magic string, malformed header or
    truncated payload.
    """
    header, (matrix,) = container.read(path, FEATURE_MAGIC, "<f4", _feature_layout)
    return header["kind"], matrix
