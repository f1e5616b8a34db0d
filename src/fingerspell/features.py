"""Feature vectors for hand-pose classification.

The main extractor decomposes the preprocessed depth image into ``n``
nested binary layers (2 cm slices of the hand by default), centers and
downsamples each layer to 32x32 and concatenates them with a 64x64
equalized intensity image into one flat vector:

* intensity features: 4096 values in [0, 1]
* depth features:     6144 values in {0, 1}   (6 layers x 1024)
* combined:           10240 values

Three baseline extractors (raw pixels, a 4x4 Gabor bank, three oriented
bar filters) share the same preprocessed 128x128 inputs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from fingerspell import container
from fingerspell.errors import DimensionMismatchError
from fingerspell.imaging import (
    DEFAULT_MAX_HAND_DEPTH_MM,
    MaskAlignment,
    align_mask,
    apply_mask,
    bounding_box_center,
    deinterlace,
    equalize_histogram,
    make_mask,
    min_nonzero_depth,
    normalize_depth,
    normalize_unit,
    remove_background,
    resize,
)

DEFAULT_N_LAYERS = 6
PROCESSED_SIZE = 128

INTENSITY_DIM = 4096
DEPTH_DIM = 6144
COMBINED_DIM = INTENSITY_DIM + DEPTH_DIM
RAW_DIM = 2 * PROCESSED_SIZE * PROCESSED_SIZE

FEATURE_KINDS = ("combined", "raw", "gabor", "bar")


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

def depth_layers(depth: np.ndarray, n: int = DEFAULT_N_LAYERS, t: int = DEFAULT_MAX_HAND_DEPTH_MM) -> np.ndarray:
    """Decompose a renormalized depth image into ``n`` nested binary layers.

    Layer ``l`` (1-based) marks pixels with ``0 < depth <= (l-1)*(t/n) + 1``:
    the first layer is the closest surface, each further layer adds one
    more ``t/n`` slice of the hand.  Background (0) pixels belong to no
    layer.  Returns a ``(n, h, w)`` uint8 stack.
    """
    if n < 1:
        raise ValueError("layer count must be >= 1")
    if t <= 0:
        raise ValueError("maximum hand depth t must be positive")
    thresholds = (np.arange(n) * (t / n) + 1.0)[:, None, None]
    return ((depth[None, :, :] > 0) & (depth[None, :, :] <= thresholds)).astype(np.uint8)


def depth_feature_vector(stack: np.ndarray, out_size: int = 32) -> np.ndarray:
    """Center + downsample each layer and concatenate row-major unrolls.

    Each layer is bounding-box centered on its own canvas, resized to
    ``out_size x out_size`` with nearest sampling (values stay binary) and
    flattened; blocks are concatenated in layer order.  For the default 6
    layers at 32x32 the result has 6144 elements in {0, 1}.
    """
    blocks = []
    for layer in stack:
        centered = bounding_box_center(layer, layer.shape[1], layer.shape[0])
        small = resize(centered, out_size, out_size, mode="nearest")
        blocks.append(small.ravel())
    return np.concatenate(blocks).astype(np.float64)


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


@dataclass(frozen=True)
class FilterBankConfig:
    """Parameters of the Gabor and bar baseline filter banks."""

    gabor_wavelengths: tuple = (4.0, 8.0, 12.0, 16.0)
    gabor_orientations: tuple = (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
    gabor_kernel_size: int = 31
    gabor_sigma_ratio: float = 0.5       # sigma = ratio * wavelength
    gabor_out_size: int = 28
    bar_orientations: tuple = (0.0, np.pi / 4, np.pi / 2)  # horizontal, diagonal, vertical
    bar_kernel_size: int = 9
    bar_out_size: int = 64

    def __post_init__(self):
        if len(self.gabor_wavelengths) != 4 or len(self.gabor_orientations) != 4:
            raise ValueError("gabor bank uses exactly 4 scales and 4 orientations")
        if len(self.bar_orientations) != 3:
            raise ValueError("bar bank uses exactly 3 kernels")

    @property
    def gabor_dim(self) -> int:
        return 2 * 16 * self.gabor_out_size ** 2

    @property
    def bar_dim(self) -> int:
        return 2 * 3 * self.bar_out_size ** 2

    def to_dict(self) -> dict:
        return {
            "gabor_wavelengths": list(self.gabor_wavelengths),
            "gabor_orientations": list(self.gabor_orientations),
            "gabor_kernel_size": self.gabor_kernel_size,
            "gabor_sigma_ratio": self.gabor_sigma_ratio,
            "gabor_out_size": self.gabor_out_size,
            "bar_orientations": list(self.bar_orientations),
            "bar_kernel_size": self.bar_kernel_size,
            "bar_out_size": self.bar_out_size,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FilterBankConfig":
        kwargs = dict(d)
        for key in ("gabor_wavelengths", "gabor_orientations", "bar_orientations"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def gabor_kernel(wavelength: float, theta: float, size: int = 31, sigma_ratio: float = 0.5) -> np.ndarray:
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


def bar_kernel(theta: float, size: int = 9) -> np.ndarray:
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


def convolve_same(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """FFT convolution with replicate (edge) padding, output same size."""
    ph, pw = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(img.astype(np.float64), ((ph, ph), (pw, pw)), mode="edge")
    return fftconvolve(padded, kernel, mode="valid")


def _minmax_map(m: np.ndarray) -> np.ndarray:
    # degenerate (flat) response maps collapse to all zeros
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo
    if span <= 1e-9 * max(1.0, abs(hi), abs(lo)):
        return np.zeros_like(m)
    return (m - lo) / span


def _filter_response_blocks(images, kernels, out_size) -> np.ndarray:
    blocks = []
    for img in images:
        for kernel in kernels:
            response = np.abs(convolve_same(img, kernel))
            small = resize(response, out_size, out_size, mode="bilinear")
            blocks.append(_minmax_map(small).ravel())
    return np.concatenate(blocks)


def gabor_features(depth: np.ndarray, intensity: np.ndarray, cfg: FilterBankConfig = FilterBankConfig()) -> np.ndarray:
    """Gabor-bank baseline: 2 images x 16 kernels x 28x28 maps = 25088 values.

    Each 128x128 image is convolved with the 4-scale x 4-orientation bank,
    response magnitudes are resized to ``gabor_out_size`` and min-max
    scaled per map.
    """
    kernels = [
        gabor_kernel(wl, th, cfg.gabor_kernel_size, cfg.gabor_sigma_ratio)
        for wl in cfg.gabor_wavelengths
        for th in cfg.gabor_orientations
    ]
    return _filter_response_blocks(
        (intensity.astype(np.float64), depth.astype(np.float64)), kernels, cfg.gabor_out_size
    )


def bar_features(depth: np.ndarray, intensity: np.ndarray, cfg: FilterBankConfig = FilterBankConfig()) -> np.ndarray:
    """Bar-filter baseline: 2 images x 3 kernels x 64x64 maps = 24576 values."""
    kernels = [bar_kernel(th, cfg.bar_kernel_size) for th in cfg.bar_orientations]
    return _filter_response_blocks(
        (intensity.astype(np.float64), depth.astype(np.float64)), kernels, cfg.bar_out_size
    )


# ---------------------------------------------------------------------------
# one-call extraction

def extract_features(
    depth: np.ndarray,
    intensity: np.ndarray,
    kind: str = "combined",
    t: int = DEFAULT_MAX_HAND_DEPTH_MM,
    n_layers: int = DEFAULT_N_LAYERS,
    alignment: MaskAlignment = MaskAlignment(),
    filter_bank: FilterBankConfig = FilterBankConfig(),
) -> np.ndarray:
    """Preprocess one raw depth/intensity pair and extract ``kind`` features."""
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {FEATURE_KINDS}")
    dp, ip = preprocess_pair(depth, intensity, t=t, alignment=alignment)
    if kind == "combined":
        fi = intensity_feature_vector(ip)
        fd = depth_feature_vector(depth_layers(dp, n=n_layers, t=t))
        return combined_features(fi, fd)
    if kind == "raw":
        return raw_features(dp, ip, t=t)
    if kind == "gabor":
        return gabor_features(dp, ip, filter_bank)
    return bar_features(dp, ip, filter_bank)


def feature_dim(kind: str, filter_bank: FilterBankConfig = FilterBankConfig()) -> int:
    """Vector length produced by :func:`extract_features` for ``kind``."""
    dims = {
        "combined": COMBINED_DIM,
        "raw": RAW_DIM,
        "gabor": filter_bank.gabor_dim,
        "bar": filter_bank.bar_dim,
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
    """Read a feature file; returns ``(kind, matrix)`` with a float64 matrix.

    Raises :class:`FormatError` on a bad magic string, malformed header or
    truncated payload.
    """
    header, (matrix,) = container.read(path, FEATURE_MAGIC, "<f4", _feature_layout)
    return header["kind"], matrix.astype(np.float64)
