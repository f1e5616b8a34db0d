"""Pure image operations for the hand preprocessing pipeline.

Array conventions used throughout the package:

* depth image      -- 2D integer array (row-major, shape ``(h, w)``),
  values in millimeters, 0 means "no reading" and is never a valid depth.
* intensity image  -- 2D array; an integer dtype marks the [0, 255]
  domain, a float dtype marks the normalized [0, 1] domain.
* binary image     -- 2D ``uint8`` array with values in {0, 1}.

All functions are pure: inputs are never modified and a fresh array is
returned.  Nearest-neighbor sampling rounds half away from zero
(``floor(x + 0.5)``); bounding-box centering places odd leftover margins
on the right/bottom.  Both conventions are fixed here and relied on by
the feature extractors.

``resize`` and ``center_and_sample`` gather along one axis at a time
through index tables that depend only on the input and output sizes;
the tables are built once, cached and read-only.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from fingerspell.errors import (
    AllZeroImageError,
    ContentLargerThanTargetError,
    DimensionMismatchError,
    WrongInputSizeError,
    check_fields,
)

DEFAULT_MAX_HAND_DEPTH_MM = 120


@dataclass(frozen=True)
class MaskAlignment:
    """Scaling + translation mapping intensity pixel coords into mask coords.

    Output pixel (x, y) of :func:`align_mask` samples the source mask at
    ``(x * scale_x + offset_x, y * scale_y + offset_y)``.  The default is
    the identity (registered cameras / synthetic data).
    """

    scale_x: float = 1.0
    scale_y: float = 1.0
    offset_x: float = 0.0
    offset_y: float = 0.0

    def __post_init__(self):
        check_fields(self, "finite and positive", "scale_x", "scale_y")
        check_fields(self, "finite", "offset_x", "offset_y")


def min_nonzero_depth(img: np.ndarray) -> int:
    """Smallest nonzero value in a depth image (the closest hand surface).

    Raises :class:`AllZeroImageError` when every pixel is 0.
    """
    nonzero = img[img > 0]
    if nonzero.size == 0:
        raise AllZeroImageError("depth image has no nonzero pixel")
    return int(nonzero.min())


def remove_background(img: np.ndarray, t: int, d: int) -> np.ndarray:
    """Zero every pixel farther than ``t + d`` (background elimination).

    ``d`` is the closest hand depth (see :func:`min_nonzero_depth`) and
    ``t`` the maximum hand depth in millimeters.
    """
    if t <= 0:
        raise ValueError("maximum hand depth t must be positive")
    out = img.copy()
    out[out > t + d] = 0
    return out


def normalize_depth(img: np.ndarray, d: int) -> np.ndarray:
    """Subtract ``d - 1`` from every nonzero pixel.

    With ``d`` the minimum nonzero depth of the image, the closest pixel
    of the result is always exactly 1, making images depth-independent.
    """
    out = img.copy()
    out[out > 0] -= d - 1
    return out


def make_mask(img: np.ndarray) -> np.ndarray:
    """Binary mask: 1 where the image is nonzero (hand), 0 elsewhere."""
    return (img > 0).astype(np.uint8)


def align_mask(mask: np.ndarray, a: MaskAlignment, target_w: int, target_h: int) -> np.ndarray:
    """Resample a mask through a scale+offset map with nearest-neighbor lookup.

    Out-of-bounds samples become 0.  With the identity alignment and
    matching target size the output equals the input.
    """
    h, w = mask.shape
    if a == MaskAlignment() and (h, w) == (target_h, target_w):
        return mask.astype(np.uint8)
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


def apply_mask(img: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Element-wise multiply an image by a {0,1} mask (hand segmentation)."""
    if img.shape != mask.shape:
        raise DimensionMismatchError(
            f"image {img.shape} and mask {mask.shape} differ in size"
        )
    return img * mask.astype(img.dtype)


def _bounds(img: np.ndarray):
    """First and last nonzero row and column of each image in a ``(..., h, w)`` array.

    Returns ``(y0, y1, x0, x1, found)``; where ``found`` is false the
    image has no nonzero pixel and the bounds are meaningless.
    """
    h, w = img.shape[-2:]
    nonzero = img != 0
    rows, cols = nonzero.any(axis=-1), nonzero.any(axis=-2)
    y0, x0 = rows.argmax(axis=-1), cols.argmax(axis=-1)
    y1 = h - 1 - rows[..., ::-1].argmax(axis=-1)
    x1 = w - 1 - cols[..., ::-1].argmax(axis=-1)
    return y0, y1, x0, x1, rows.any(axis=-1)


def _box_offset(target, lo, hi):
    """Canvas position of a box spanning ``lo..hi``: odd leftover margins go right/bottom."""
    return (target - (hi - lo + 1)) // 2


def bounding_box_center(img: np.ndarray, target_w: int, target_h: int) -> np.ndarray:
    """Center the nonzero content on a ``target_h x target_w`` zero canvas.

    The tight bounding box of nonzero pixels is pasted with its top-left
    corner at ``((target - box) // 2)``, so odd leftover margins get the
    extra pixel on the right/bottom.  An image with no nonzero pixel
    yields an all-zero canvas.
    """
    canvas = np.zeros((target_h, target_w), dtype=img.dtype)
    y0, y1, x0, x1, found = (int(v) for v in _bounds(img))
    if not found:
        return canvas
    bh = y1 - y0 + 1
    bw = x1 - x0 + 1
    if bh > target_h or bw > target_w:
        raise ContentLargerThanTargetError(
            f"content {bw}x{bh} exceeds target {target_w}x{target_h}"
        )
    oy = _box_offset(target_h, y0, y1)
    ox = _box_offset(target_w, x0, x1)
    canvas[oy : oy + bh, ox : ox + bw] = img[y0 : y1 + 1, x0 : x1 + 1]
    return canvas


def center_and_sample(stack: np.ndarray, out_size: int) -> np.ndarray:
    """Center each image of an ``(n, h, w)`` stack and nearest-resize it to ``out_size``.

    Equals ``resize(bounding_box_center(img, w, h), out_size, out_size,
    "nearest")`` for every image, done as one gather over the stack:
    output pixel ``(r, c)`` reads canvas pixel ``(iy[r], ix[c])``, which
    holds image pixel ``(iy[r] - oy + y0, ix[c] - ox + x0)`` inside the
    pasted box and 0 outside it.
    """
    n, h, w = stack.shape
    y0, y1, x0, x1, found = _bounds(stack)
    sy = _nearest_index(h, out_size) + (y0 - _box_offset(h, y0, y1))[:, None]
    sx = _nearest_index(w, out_size) + (x0 - _box_offset(w, x0, x1))[:, None]
    in_y = (sy >= y0[:, None]) & (sy <= y1[:, None]) & found[:, None]
    in_x = (sx >= x0[:, None]) & (sx <= x1[:, None])
    np.clip(sy, 0, h - 1, out=sy)
    np.clip(sx, 0, w - 1, out=sx)
    flat = (np.arange(n)[:, None, None] * h + sy[:, :, None]) * w + sx[:, None, :]
    small = np.take(stack, flat)
    small[~(in_y[:, :, None] & in_x[:, None, :])] = 0
    return small


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # cached tables are shared by every caller
    return a


@lru_cache(maxsize=256)
def _nearest_index(n_in: int, n_out: int) -> np.ndarray:
    """Source index ``floor((i + 0.5) * n_in / n_out)`` of each nearest-sampled output (read-only)."""
    idx = np.floor((np.arange(n_out) + 0.5) * (n_in / n_out)).astype(np.int64)
    np.clip(idx, 0, n_in - 1, out=idx)
    return _read_only(idx)


@lru_cache(maxsize=256)
def _bilinear_index(n_in: int, n_out: int):
    """``(i0, i1, weight)`` of each bilinear output along one axis (read-only)."""
    f = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0, n_in - 1)
    i0 = np.floor(f).astype(np.int64)
    return _read_only(i0), _read_only(np.minimum(i0 + 1, n_in - 1)), _read_only(f - i0)


def resize(img: np.ndarray, target_w: int, target_h: int, mode: str = "bilinear") -> np.ndarray:
    """Resize to ``target_w x target_h`` with bilinear or nearest sampling.

    Bilinear is meant for depth/intensity images, nearest for binary ones
    (the output then stays in {0, 1}).  Integer inputs are rounded back to
    their integer dtype; float inputs stay float.  Pixel centers are
    aligned: source coordinate of output pixel ``i`` is
    ``(i + 0.5) * in/out - 0.5`` (bilinear) or ``floor((i + 0.5) * in/out)``
    (nearest).
    """
    if target_w <= 0 or target_h <= 0:
        raise ValueError("target dimensions must be positive")
    if mode not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resize mode {mode!r}")
    h, w = img.shape
    if (w, h) == (target_w, target_h):
        return img.copy()

    if mode == "nearest":
        return img.take(_nearest_index(h, target_h), axis=0).take(_nearest_index(w, target_w), axis=1)

    x0, x1, wx = _bilinear_index(w, target_w)
    y0, y1, wy = _bilinear_index(h, target_h)
    src = img.astype(np.float64)
    # lerp form keeps constant regions exactly constant in float arithmetic.
    # Every source row is lerped along x, then rows y0/y1 of that along y,
    # in place: IEEE + and * commute, so each value rounds as a + w * (b - a)
    left = src.take(x0, axis=1)
    rows = src.take(x1, axis=1)
    rows -= left
    rows *= wx
    rows += left
    top = rows.take(y0, axis=0)
    out = rows.take(y1, axis=0)
    out -= top
    out *= wy[:, None]
    out += top

    if np.issubdtype(img.dtype, np.integer):
        np.rint(out, out=out)
        info = np.iinfo(img.dtype)
        out = np.clip(out, info.min, info.max, out=out).astype(img.dtype)
    return out


def deinterlace(img: np.ndarray) -> np.ndarray:
    """Drop the odd scan lines of a 128x128 image and resize back to 64x64.

    Keeps rows 0, 2, ..., 126 (interlacing artifacts live on the dropped
    field), giving a 128x64 image that is then bilinearly resized to 64x64.
    """
    if img.shape != (128, 128):
        raise WrongInputSizeError(f"deinterlace expects 128x128, got {img.shape}")
    kept = img[0::2, :]
    return resize(kept, 64, 64, mode="bilinear")


def equalize_histogram(img: np.ndarray) -> np.ndarray:
    """Histogram-equalize the hand (nonzero) pixels of a [0,255] image.

    Background zeros are excluded from the histogram and stay 0; hand
    pixels are remapped with the standard 256-bin rule
    ``v -> round(255 * (cdf(v) - cdf_min) / (n_hand - cdf_min))``, clamped
    to at least 1 so the hand/background partition survives (the textbook
    rule would send the darkest hand bin to 0).  When all hand pixels
    share a single value the rule degenerates (0/0) and they map to 255.
    An image without hand pixels is returned unchanged.
    """
    if not np.issubdtype(img.dtype, np.integer):
        raise ValueError("equalize_histogram expects the integer [0,255] domain")
    hand = img[img > 0]
    if hand.size == 0:
        return img.copy()
    hist = np.bincount(hand.astype(np.int64).ravel(), minlength=256)
    cdf = hist.cumsum()
    vmin = int(np.nonzero(hist)[0][0])
    cdf_min = cdf[vmin]
    n_hand = hand.size
    lut = np.zeros(256, dtype=img.dtype)
    if n_hand == cdf_min:
        lut[hist > 0] = 255
    else:
        mapped = np.floor(255.0 * (cdf - cdf_min) / (n_hand - cdf_min) + 0.5)
        lut[:] = np.clip(mapped, 1, 255).astype(img.dtype)
    lut[0] = 0
    return lut[img]


def normalize_unit(img: np.ndarray) -> np.ndarray:
    """Map the integer [0,255] domain to the normalized [0,1] float domain."""
    if not np.issubdtype(img.dtype, np.integer):
        raise ValueError("normalize_unit expects the integer [0,255] domain")
    return img.astype(np.float64) / 255.0
