"""Binary restricted Boltzmann machine trained with CD-1.

One update step: hidden probabilities are computed from the data and
sampled once; the reconstruction uses visible *probabilities* (no
sampling) and the negative hidden phase is again a probability pass.
Momentum and L1/L2 weight decay follow the usual practical recipe; weight
decay is applied to the weights only, never to the biases.
:func:`param_step` applies such an update in place, a block of rows at a
time, for CD-1 and for the supervised stages alike.
"""

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

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


BLOCK_ROWS = 256  # rows per block of param_step; 64 to 512 time the same


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
    thread.
    """
    rows = lambda a: a if a.ndim == 2 else a[np.newaxis]
    p, v = rows(param), rows(velocity)
    n = p.shape[0]
    # a lone last row joins the block before it: numpy takes a one-row matrix
    # product as a matrix-vector product, which sums in another order than
    # the whole-array product that a block gradient must match
    starts = [start for start in range(0, n, BLOCK_ROWS) if start == 0 or n - start > 1]
    blocks = list(zip(starts, starts[1:] + [n]))

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
    upper = executor.submit(steps, blocks[mid:], *buffers[1])
    try:
        steps(blocks[:mid], *buffers[0])
    finally:
        wait((upper,))
    upper.result()


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

    def hidden_probabilities(self, v: np.ndarray, out=None) -> np.ndarray:
        """P(h=1 | v) = sigmoid(v W + hidden_bias); accepts a vector or a batch.

        ``out``, if given, is a C-ordered buffer of the result's shape that
        receives it, so the call allocates nothing of that size.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1] != self.n_visible:
            raise DimensionMismatchError(f"visible vector length {v.shape[-1]} != {self.n_visible}")
        out = np.matmul(v, self.weights, out=out)
        out += self.hidden_bias
        return sigmoid(out, out=out)

    def visible_probabilities(self, h: np.ndarray, out=None) -> np.ndarray:
        """P(v=1 | h) = sigmoid(h W^T + visible_bias); ``out`` as for :meth:`hidden_probabilities`."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape[-1] != self.n_hidden:
            raise DimensionMismatchError(f"hidden vector length {h.shape[-1]} != {self.n_hidden}")
        out = np.matmul(h, self.weights.T, out=out)
        out += self.visible_bias
        return sigmoid(out, out=out)

    @property
    def params(self) -> tuple:
        return self.weights, self.visible_bias, self.hidden_bias

    def reconstruction_error(self, data: np.ndarray) -> float:
        """Mean squared error between data and its one-pass reconstruction."""
        data = np.atleast_2d(np.asarray(data))
        return _reconstruction_error(self, data, np.empty((data.shape[0], self.n_hidden)), np.empty(data.shape))

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
        ``executor`` runs half of the weight step (see :func:`param_step`).
        """
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[1] != self.n_visible:
            raise DimensionMismatchError(f"batch width {batch.shape[1]} != {self.n_visible}")
        mom = cfg.momentum if momentum is None else momentum
        b = batch.shape[0]

        h0 = self.hidden_probabilities(batch)
        h0_sample = sample_bernoulli(h0, rng)
        v1 = self.visible_probabilities(h0_sample)
        h1 = self.hidden_probabilities(v1)

        def dw(start, stop, out, tmp):  # rows start:stop of (batch.T @ h0 - v1.T @ h1) / b
            np.matmul(batch.T[start:stop], h0, out=out)
            out -= np.matmul(v1.T[start:stop], h1, out=tmp)
            out /= b
            return out

        lr = cfg.learning_rate
        param_step(self.weights, velocity[0], dw, mom, lr, l2=-cfg.l2_coeff, l1=-cfg.l1_coeff, executor=executor)
        param_step(self.visible_bias, velocity[1], (batch - v1).mean(axis=0), mom, lr)
        param_step(self.hidden_bias, velocity[2], (h0 - h1).mean(axis=0), mom, lr)

    def check_finite(self) -> None:
        if not all(np.isfinite(a).all() for a in self.params):
            raise NumericError("non-finite RBM parameter after update")

    def copy(self) -> "Rbm":
        return Rbm(
            self.n_visible,
            self.n_hidden,
            weights=self.weights.copy(),
            visible_bias=self.visible_bias.copy(),
            hidden_bias=self.hidden_bias.copy(),
        )


def copy_rows(data, rows, out=None):
    """``data[rows].astype(np.float64)``, written into ``out`` if given.

    Row by row, so no gathered copy of ``data`` is made.
    """
    if out is None:
        out = np.empty((len(rows), data.shape[1]))
    for dst, r in zip(out, rows):
        dst[...] = data[r]
    return out


def _reconstruction_error(rbm: Rbm, data, h, v, rows=None) -> float:
    """``np.mean((x - v1) ** 2)`` for the rows ``x = data[rows]`` and their one-pass reconstruction ``v1``, bit for bit.

    ``rows`` of None means every row.  ``v1`` is
    ``rbm.visible_probabilities(rbm.hidden_probabilities(x))`` with ``x``
    upcast.  ``x`` is copied into the C-ordered buffer ``v``
    (n, n_visible), the passes write into ``h`` (n, n_hidden) and ``v``,
    and ``x - v1`` reads ``data`` again row by row, so nothing of their
    size is allocated here: a helper thread runs this on buffers its
    caller owns.
    """
    rows = range(len(data)) if rows is None else rows
    rbm.hidden_probabilities(copy_rows(data, rows, out=v), out=h)
    rbm.visible_probabilities(h, out=v)
    for dst, r in zip(v, rows):
        np.subtract(data[r], dst, out=dst)
    np.square(v, out=v)
    return float(np.mean(v))


def train_rbm(data: np.ndarray, cfg: RbmTrainConfig, n_hidden: int, on_epoch=None, rows=None) -> Rbm:
    """Train an RBM with CD-1 mini-batches for ``cfg.epochs`` or until convergence.

    The RBM learns the rows ``rows`` of ``data`` (all when None), read by
    index: each batch is gathered and upcast on its own, so a float32
    ``data`` is never copied whole.  The bytes are those of training on
    ``data[rows].astype(np.float64)``.

    Rows are reshuffled every epoch with the seeded generator; training
    stops early once the relative reconstruction-error improvement stays
    below ``cfg.convergence_tol`` for ``cfg.convergence_window``
    consecutive epochs.  ``on_epoch(epoch, recon_error)`` is called after
    every epoch.  Deterministic for a fixed seed, data and config.

    Each epoch's full-data reconstruction error is computed on one helper
    thread, from a snapshot of that epoch's parameters, while this thread
    trains the next epoch.  The error is then reported and the stopping
    rule applied; a stop returns the snapshot and discards the epoch
    trained meanwhile.  The generator is private to the call, so the
    parameters and the ``on_epoch`` calls are those of a sequential loop.
    The pool has a second thread for half of every weight step
    (:func:`param_step`), so a half never waits behind the error.  Both
    threads are joined before the call returns or raises.
    """
    data = np.atleast_2d(np.asarray(data))
    rows = np.arange(data.shape[0]) if rows is None else np.asarray(rows)
    n = len(rows)
    if n == 0:
        raise EmptyDataError("training data is empty")

    rng = np.random.default_rng(cfg.rng_seed)
    rbm = Rbm(data.shape[1], n_hidden, rng=rng)
    if cfg.epochs == 0:
        return rbm
    velocity = [np.zeros_like(a) for a in rbm.params]
    snapshot = rbm.copy()
    h, v = np.empty((n, n_hidden)), np.empty((n, data.shape[1]))

    prev_err = None
    stall = 0

    def stops(epoch, err) -> bool:
        """Report ``epoch``'s error; true when the convergence rule ends training there."""
        nonlocal prev_err, stall
        if on_epoch is not None:
            on_epoch(epoch, err)
        if prev_err is not None:
            improvement = (prev_err - err) / prev_err if prev_err > 0 else 0.0
            stall = stall + 1 if improvement < cfg.convergence_tol else 0
            if stall >= cfg.convergence_window:
                return True
        prev_err = err
        return False

    pending = None  # the previous epoch's error, being computed on the helper
    with ThreadPoolExecutor(max_workers=2) as helper:
        for epoch in range(cfg.epochs):
            mom = cfg.initial_momentum if epoch < cfg.momentum_switch_epoch else cfg.momentum
            try:
                picks = rows[rng.permutation(n)]
                for start in range(0, n, cfg.batch_size):
                    # cd1_update upcasts the batch, and only the batch
                    rbm.cd1_update(data[picks[start : start + cfg.batch_size]], cfg, velocity, rng, momentum=mom,
                                   executor=helper)
                rbm.check_finite()
            except Exception:
                # a sequential loop would have settled the previous epoch first
                if pending is not None and stops(epoch - 1, pending.result()):
                    return snapshot
                raise
            if pending is not None and stops(epoch - 1, pending.result()):
                return snapshot
            for dst, src in zip(snapshot.params, rbm.params):
                np.copyto(dst, src)
            pending = helper.submit(_reconstruction_error, snapshot, data, h, v, rows)
        stops(cfg.epochs - 1, pending.result())
    return rbm
