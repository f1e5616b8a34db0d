"""Binary restricted Boltzmann machine trained with CD-1.

One update step: hidden probabilities are computed from the data and
sampled once; the reconstruction uses visible *probabilities* (no
sampling) and the negative hidden phase is again a probability pass.
Momentum and L1/L2 weight decay follow the usual practical recipe; weight
decay is applied to the weights only, never to the biases.
:func:`param_step` applies such an update in place, a block of rows at a
time, for CD-1 and for the supervised stages alike.
"""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from fingerspell.errors import ConfigError, DimensionMismatchError, EmptyDataError, NumericError, check_fields


@dataclass
class RbmTrainConfig:
    learning_rate: float = 0.1
    epochs: int = 60
    batch_size: int = 100
    momentum: float = 0.9            # after the switch epoch
    initial_momentum: float = 0.5    # first epochs train with lower momentum
    momentum_switch_epoch: int = 5
    l1_coeff: float = 1e-5
    l2_coeff: float = 2e-4
    convergence_tol: float = 1e-4    # relative reconstruction-error improvement
    convergence_window: int = 5      # consecutive below-tol epochs that stop training
    rng_seed: int = 0

    def __post_init__(self):
        check_fields(self, "finite and positive", "learning_rate")
        check_fields(self, "in [0, 1)", "momentum", "initial_momentum")
        check_fields(self, "an integer >= 1", "batch_size", "convergence_window")
        check_fields(self, "an integer >= 0", "epochs", "momentum_switch_epoch", "rng_seed")
        check_fields(self, "finite and >= 0", "l1_coeff", "l2_coeff", "convergence_tol")


# Rows per block of param_step.  A 10240x200 step with L1 and L2 on one
# thread of a 2-vCPU x86 host took a median 9.9 ms with 256-row blocks,
# 8.9 ms with 128, 9.2 ms with 64 and 12.3 ms with 512.  256 stays: CD-1's
# weight gradient is made of block products of this many rows, so another
# size changes the model bytes.
BLOCK_ROWS = 256


def _blocks(n, size) -> list:
    """``(start, stop)`` of ``n`` rows in blocks of ``size``; a lone last row joins the block before it.

    numpy takes a one-row matrix product as a matrix-vector product, which
    sums in another order than the whole-array product that a block must
    match.
    """
    starts = [start for start in range(0, n, size) if start == 0 or n - start > 1]
    return list(zip(starts, starts[1:] + [n]))


def _in_two(executor, fn, lower: tuple, upper: tuple) -> None:
    """``fn(*upper)`` on ``executor`` while this thread runs ``fn(*lower)``.

    Returns once both have ended, then raises an exception from either.
    """
    other = executor.submit(fn, *upper)
    try:
        fn(*lower)
    finally:
        wait((other,))
    other.result()


def param_step(param, velocity, grad, momentum, rate, l2=None, l1=None, executor=None) -> None:
    """``velocity = momentum*velocity + rate*(grad + l2*param + l1*sign(param)); param += velocity``.

    Runs in place over ``BLOCK_ROWS`` rows of ``param`` at a time (a vector
    is one row), so no temporary as large as ``param`` is made; every
    element rounds as in the whole-array expression.  ``grad`` is an array
    shaped like ``param`` or a function ``grad(start, stop, out, tmp)``
    returning its rows ``start:stop`` written into ``out`` (``tmp`` is free
    scratch).  ``l2``/``l1`` of ``None`` leave the term out: biases are not
    decayed, and adding ``0*param`` could turn a ``-0.0`` into ``0.0``.
    CD-1 climbs its gradient (``rate > 0``, negative decay coefficients);
    the supervised stages descend (``rate < 0``).

    With an ``executor``, a ``param`` of two or more blocks is split: the
    upper half of the blocks runs there, on its own pair of block buffers,
    while the caller runs the lower half.  The halves write disjoint rows
    with the same calls, so the bytes do not depend on the split or its
    timing.  The call returns once both halves have ended and then raises
    an exception from either.  ``grad`` must be safe to call from another
    thread.  A ``grad`` built from block products, as CD-1's is, need not
    give the bytes of the whole product: on one random batch of 100, the
    256-row blocks of CD-1's weight gradient differed from it in 449 of
    15,360,000 elements at 10240x1500 and 72 of 1,050,000 at 1500x700, and
    equalled it at 10240x200, 700x400 and 200x100.
    """
    rows = lambda a: a if a.ndim == 2 else a[np.newaxis]
    p, v = rows(param), rows(velocity)
    n = p.shape[0]
    blocks = _blocks(n, BLOCK_ROWS)

    def steps(part, out_rows, tmp_rows):
        for start, stop in part:
            out, tmp = out_rows[: stop - start], tmp_rows[: stop - start]
            g = grad(start, stop, out, tmp) if callable(grad) else rows(grad)[start:stop]
            pb, vb = p[start:stop], v[start:stop]
            if l2 is not None:
                np.multiply(pb, l2, out=tmp)
                g = np.add(g, tmp, out=out)
            if l1 is not None:
                np.sign(pb, out=tmp)
                tmp *= l1
                g = np.add(g, tmp, out=out)
            np.multiply(g, rate, out=out)
            vb *= momentum
            vb += out
            pb += vb

    def pair():  # a half's (out, tmp) block buffers; a lone last row makes a block of BLOCK_ROWS + 1
        return [np.empty((min(n, BLOCK_ROWS + 1), p.shape[1])) for _ in range(2)]

    if executor is None or len(blocks) < 2:
        steps(blocks, *pair())
        return
    mid = (len(blocks) + 1) // 2
    buffers = pair(), pair()  # both made on this thread: made on the helper, they raised peak RSS
    _in_two(executor, steps, (blocks[:mid], *buffers[0]), (blocks[mid:], *buffers[1]))


# A product of fewer multiply-adds than this runs whole.  Handing a block
# to the helper thread costs about 0.1 ms: at one BLAS thread on two cores,
# 216x200 @ 200x100 (4.3 million) took 0.41 ms whole and 0.63 ms split,
# while 100x700 @ 700x400 (28 million) took 1.78 and 1.08 ms, and the
# benchmark's 36x10240 @ 10240x200 (74 million) 5.2 and 3.6 ms.  The size
# of the output says little: 216x100 @ 100x200 has a larger one than
# 36x10240 @ 10240x200 and gained nothing.
SPLIT_MIN_WORK = 2**24
# The split point is a multiple of this many columns.  At one BLAS thread,
# column blocks split at a multiple of 8 gave every byte of the whole
# product at each RBM shape tried (10240x1500, 1500x700, 700x400 and
# 10240x200, both ways round); an unaligned split did not.
SPLIT_ALIGN = 32
# A product over rows gathered from a stored matrix (``rows`` of
# _activation) runs on chunks of this many rows.  On 96 to 300 rows, 48-row
# chunks gave every byte of the whole product at 10240x200 at one and two
# BLAS threads and at 10240x1500 at one; 10240x1500 at two threads and
# 200x100 at either did not.
CHUNK_ROWS = 48
# The key of a product computed in parts -> whether the parts gave the whole
# product's bytes, found by the first product of that key in this process:
# (shape, layout) of both factors for a column split, ("rows", row count, w's
# shape and layout) for row chunks.  The answer depends only on the shapes,
# the layouts and the process's BLAS, so every caller shares it.  At two BLAS
# threads some aligned splits differ (100x1500 @ 1500x700 does).
_SPLIT_EXACT = {}


def _check_parts(key, out, whole) -> None:
    """Record whether ``out``, just computed in parts, equals ``whole(out)``, which overwrites it with the whole product."""
    parts = hashlib.sha256(out).digest()
    _SPLIT_EXACT[key] = hashlib.sha256(whole(out)).digest() == parts


def _activation(x, w, bias, out=None, executor=None, rows=None) -> np.ndarray:
    """``sigmoid(x @ w + bias)``, written into the C-ordered ``out`` if given.

    With an ``executor``, a batch product of ``SPLIT_MIN_WORK`` or more
    multiply-adds runs as two column blocks split at a multiple of
    ``SPLIT_ALIGN``: the executor computes the right block (product, bias
    and sigmoid) while this thread computes the left one.  The first such
    product of each shape and layout is computed split and then whole; the
    whole result is used, and later products of that shape are split only
    if the two gave the same bytes.

    With ``rows``, the batch is those rows of the stored matrix ``x``, to
    the bit as their float64 copy (:func:`copy_rows`).  They are gathered
    ``CHUNK_ROWS`` at a time into one buffer, each chunk's product filling
    its rows of ``out``, under the split's check keyed by the row count and
    ``w``'s shape and layout; a refused count and shape multiply the copy.
    ``executor`` is not used then.
    """
    if rows is not None:
        out = np.empty((len(rows), w.shape[1])) if out is None else out
        key = ("rows", len(rows), w.shape, w.strides)
        whole = lambda o: np.matmul(copy_rows(x, rows), w, out=o)
        exact = _SPLIT_EXACT.get(key)
        if exact is False:
            whole(out)
        else:
            chunk = np.empty((min(len(rows), CHUNK_ROWS + 1), x.shape[1]))
            for start, stop in _blocks(len(rows), CHUNK_ROWS):
                np.matmul(copy_rows(x, rows[start:stop], out=chunk[: stop - start]), w, out=out[start:stop])
            if exact is None:
                _check_parts(key, out, whole)
        out += bias
        return sigmoid(out, out)
    if out is None:
        out = np.empty(x.shape[:-1] + w.shape[1:])
    cut = w.shape[1] // 2 // SPLIT_ALIGN * SPLIT_ALIGN
    key = (x.shape, x.strides, w.shape, w.strides)
    exact = _SPLIT_EXACT.get(key)
    if executor is not None and x.ndim == 2 and x.size * w.shape[1] >= SPLIT_MIN_WORK and cut and exact is not False:

        def block(cols):
            o = out[:, cols]
            np.matmul(x, w[:, cols], out=o)
            if exact:
                o += bias[cols]
                sigmoid(o, o)

        _in_two(executor, block, (slice(None, cut),), (slice(cut, None),))
        if exact:
            return out
        _check_parts(key, out, lambda o: np.matmul(x, w, out=o))
    else:
        np.matmul(x, w, out=out)
    out += bias
    return sigmoid(out, out)


# Elements per chunk of sigmoid's complex buffer (64 KiB), which each call
# makes for itself, so both halves of a split product can run it at once.
# Chunks of 2**15 ran a 36x10240 batch about 10% faster (4.1 against 4.6
# ms), but their 512 KiB buffer is more than a reconstruction-error pass
# may add to its own buffers (80 KiB; tests/test_rbm.py).
SIGMOID_CHUNK = 2**12


def sigmoid(x, out) -> np.ndarray:
    """``1 / (1 + exp(-x))`` of a 1-D or 2-D float64 ``x``, written into ``out`` (which may be ``x``); returns ``out``.

    The bytes are those of ``scipy.special.expit``, which calls the C
    library's ``exp``; scipy is not imported.  numpy's float64 ``exp`` is
    a SIMD kernel of its own that differs from it in the last bit on some
    values.  numpy's complex ``exp`` calls the C library's ``cexp``, whose
    real part at a zero imaginary part is that ``exp`` except where glibc
    scales an argument above 709 (and returns the largest double, not
    infinity, above 2127).  So ``-x`` goes into the real part of a
    zero-imaginary complex buffer, ``SIGMOID_CHUNK`` elements at a time,
    each element with ``-x > 709`` or a NaN is recomputed by ``math.exp``,
    and ``1 + exp(-x)`` goes into ``out``, which one division then turns
    into the result.  On a 2-vCPU x86 host a 36x10240 batch took about
    twice as long as with ``expit`` (4.6 against 2.1 ms).
    """
    xs, outs = np.atleast_2d(x, out)
    n, width = outs.shape
    cols = min(width, SIGMOID_CHUNK) or 1
    step = SIGMOID_CHUNK // cols
    buf = np.zeros((min(n, step), cols), dtype=np.complex128)
    for r in range(0, n, step):
        for c in range(0, width, cols):
            src = xs[r : r + step, c : c + cols]
            z = buf[: src.shape[0], : src.shape[1]]
            e = z.real
            np.negative(src, out=e)
            if src.min() >= -709:  # False for a NaN too
                np.exp(z, out=z)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    np.exp(z, out=z)
                for i in zip(*np.nonzero(~(src >= -709))):
                    try:
                        e[i] = math.exp(-src[i])
                    except OverflowError:
                        e[i] = math.inf
                    z.imag[i] = 0  # so the buffer stays zero-imaginary, whatever cexp left here
            np.add(e, 1, out=outs[r : r + step, c : c + cols])
    return np.divide(1, out, out=out)


def sample_bernoulli(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Element-wise Bernoulli draws; exactly one ``rng.random(p.shape)`` call."""
    return (rng.random(p.shape) < p).astype(np.float64)


class Rbm:
    """RBM with binary units; weights shape (n_visible, n_hidden)."""

    def __init__(self, n_visible, n_hidden, rng=None, weights=None, visible_bias=None, hidden_bias=None):
        self.n_visible = int(n_visible)
        self.n_hidden = int(n_hidden)
        if weights is None:
            rng = np.random.default_rng(0) if rng is None else rng
            try:
                weights = rng.normal(0.0, 0.01, size=(self.n_visible, self.n_hidden))
            except (MemoryError, ValueError) as exc:  # ValueError: a dimension numpy cannot index
                raise ConfigError(f"no {self.n_visible} x {self.n_hidden} weight matrix fits in memory: {exc}") from exc
        self.weights = np.asarray(weights, dtype=np.float64)
        self.visible_bias = np.zeros(self.n_visible) if visible_bias is None else np.asarray(visible_bias, dtype=np.float64)
        self.hidden_bias = np.zeros(self.n_hidden) if hidden_bias is None else np.asarray(hidden_bias, dtype=np.float64)
        if self.weights.shape != (self.n_visible, self.n_hidden):
            raise DimensionMismatchError("weight matrix shape disagrees with unit counts")
        if self.visible_bias.shape != (self.n_visible,) or self.hidden_bias.shape != (self.n_hidden,):
            raise DimensionMismatchError("bias length disagrees with unit counts")

    def hidden_probabilities(self, v: np.ndarray, out=None, executor=None, rows=None) -> np.ndarray:
        """P(h=1 | v) = sigmoid(v W + hidden_bias); accepts a vector or a batch.

        ``out``, if given, is a C-ordered buffer of the result's shape that
        receives it, so the call allocates nothing of that size.  An
        ``executor`` shares a large batch product with this thread, and
        ``rows`` makes the batch the rows ``rows`` of the stored matrix
        ``v``, read in row chunks; both keep the bytes (see
        :func:`_activation`).
        """
        v = np.asarray(v) if rows is not None else np.asarray(v, dtype=np.float64)
        if v.shape[-1] != self.n_visible:
            raise DimensionMismatchError(f"visible vector length {v.shape[-1]} != {self.n_visible}")
        return _activation(v, self.weights, self.hidden_bias, out, executor, rows)

    def visible_probabilities(self, h: np.ndarray, out=None, executor=None) -> np.ndarray:
        """P(v=1 | h) = sigmoid(h W^T + visible_bias); ``out`` and ``executor`` as for :meth:`hidden_probabilities`."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape[-1] != self.n_hidden:
            raise DimensionMismatchError(f"hidden vector length {h.shape[-1]} != {self.n_hidden}")
        return _activation(h, self.weights.T, self.visible_bias, out, executor)

    @property
    def params(self) -> tuple:
        return self.weights, self.visible_bias, self.hidden_bias

    def reconstruction_error(self, data: np.ndarray, rows=None, executor=None) -> float:
        """``np.mean((x - v1) ** 2)`` for the rows ``x = data[rows]`` and their reconstruction ``v1``, bit for bit.

        ``rows`` of None means every row.  ``x`` is gathered into a float64
        buffer ``v`` (:func:`copy_rows`), the reconstruction overwrites
        ``v``, and ``x - v1`` reads ``data`` again row by row, so only ``v``
        and the hidden probabilities are allocated.  ``executor`` as for
        :meth:`hidden_probabilities`.
        """
        data = np.atleast_2d(np.asarray(data))
        rows = range(len(data)) if rows is None else rows
        v = copy_rows(data, rows)
        self.visible_probabilities(self.hidden_probabilities(v, executor=executor), out=v, executor=executor)
        for dst, r in zip(v, rows):
            np.subtract(data[r], dst, out=dst)
        np.square(v, out=v)
        return float(np.mean(v))

    def cd1_update(
        self,
        batch: np.ndarray,
        cfg: RbmTrainConfig,
        velocity: list,
        rng: np.random.Generator,
        momentum: float | None = None,
        executor=None,
    ) -> None:
        """One CD-1 parameter update from a (B, n_visible) batch, in place.

        ``velocity`` holds the momentum buffer of each :attr:`params` entry,
        in order, carried from one update to the next.  ``momentum``
        overrides ``cfg.momentum`` (used for the early-epoch schedule).
        Draws a single (B, n_hidden) uniform block from ``rng``.
        ``executor`` runs half of each large product (see
        :func:`_activation`) and of the weight step (see :func:`param_step`).
        """
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[1] != self.n_visible:
            raise DimensionMismatchError(f"batch width {batch.shape[1]} != {self.n_visible}")
        mom = cfg.momentum if momentum is None else momentum
        b = batch.shape[0]

        h0 = self.hidden_probabilities(batch, executor=executor)
        h0_sample = sample_bernoulli(h0, rng)
        v1 = self.visible_probabilities(h0_sample, executor=executor)
        h1 = self.hidden_probabilities(v1, executor=executor)

        def dw(start, stop, out, tmp):  # rows start:stop of (batch.T @ h0 - v1.T @ h1) / b
            np.matmul(batch.T[start:stop], h0, out=out)
            out -= np.matmul(v1.T[start:stop], h1, out=tmp)
            out /= b
            return out

        lr = cfg.learning_rate
        param_step(self.weights, velocity[0], dw, mom, lr, l2=-cfg.l2_coeff, l1=-cfg.l1_coeff, executor=executor)
        # the weight step has read v1 and h1, so the bias gradients may overwrite them
        param_step(self.visible_bias, velocity[1], np.subtract(batch, v1, out=v1).mean(axis=0), mom, lr)
        param_step(self.hidden_bias, velocity[2], np.subtract(h0, h1, out=h1).mean(axis=0), mom, lr)

    def check_finite(self) -> None:
        if not all(np.isfinite(a).all() for a in self.params):
            raise NumericError("non-finite RBM parameter after update")


def copy_rows(data, rows, out=None):
    """``data[rows].astype(np.float64)``, written into ``out`` if given: the one way stored rows become float64 rows.

    Row by row, so no gathered copy of ``data`` is made.
    """
    if out is None:
        out = np.empty((len(rows), data.shape[1]))
    for dst, r in zip(out, rows):
        dst[...] = data[r]
    return out


def train_rbm(data: np.ndarray, cfg: RbmTrainConfig, n_hidden: int, on_epoch=None, rows=None) -> Rbm:
    """Train an RBM with CD-1 mini-batches for ``cfg.epochs`` or until convergence.

    The RBM learns the rows ``rows`` of ``data`` (all when None), read by
    index: each batch is gathered by :func:`copy_rows` on its own, so a
    float32 ``data`` is never copied whole.  The bytes are those of
    training on ``data[rows].astype(np.float64)``.

    Rows are reshuffled every epoch with the seeded generator.  After each
    epoch the full-data reconstruction error is computed and reported as
    ``on_epoch(epoch, recon_error)``; training stops early once its
    relative improvement stays below ``cfg.convergence_tol`` for
    ``cfg.convergence_window`` consecutive epochs.  Deterministic for a
    fixed seed, data and config.

    One helper thread takes half of each large product and of each weight
    step (:func:`_activation`, :func:`param_step`), so both cores share
    every epoch and its error; the bytes are those of one thread.  The
    helper is joined before the call returns or raises.
    """
    data = np.atleast_2d(np.asarray(data))
    rows = np.arange(data.shape[0]) if rows is None else np.asarray(rows)
    n = len(rows)
    if n == 0:
        raise EmptyDataError("training data is empty")

    rng = np.random.default_rng(cfg.rng_seed)
    rbm = Rbm(data.shape[1], n_hidden, rng=rng)
    velocity = [np.zeros_like(a) for a in rbm.params]

    prev_err = None
    stall = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        for epoch in range(cfg.epochs):
            mom = cfg.initial_momentum if epoch < cfg.momentum_switch_epoch else cfg.momentum
            picks = rows[rng.permutation(n)]
            for start in range(0, n, cfg.batch_size):
                batch = copy_rows(data, picks[start : start + cfg.batch_size])
                rbm.cd1_update(batch, cfg, velocity, rng, momentum=mom, executor=helper)
            rbm.check_finite()

            err = rbm.reconstruction_error(data, rows, executor=helper)
            if on_epoch is not None:
                on_epoch(epoch, err)
            if prev_err is not None:
                improvement = (prev_err - err) / prev_err if prev_err > 0 else 0.0
                stall = stall + 1 if improvement < cfg.convergence_tol else 0
                if stall >= cfg.convergence_window:
                    break
            prev_err = err
    return rbm
