"""Binary restricted Boltzmann machine trained with CD-1.

One update step: hidden probabilities are computed from the data and
sampled once; the reconstruction uses visible *probabilities* (no
sampling) and the negative hidden phase is again a probability pass.
Momentum and L1/L2 weight decay follow the usual practical recipe; weight
decay is applied to the weights only, never to the biases.
:func:`param_step` applies such an update in place, a block of rows at a
time, for CD-1 and for the supervised stages alike.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from scipy.special import expit as sigmoid

from fingerspell.errors import DimensionMismatchError, EmptyDataError, NumericError


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
        # written so that NaN fails every check
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not (isinstance(self.batch_size, Integral) and self.batch_size >= 1):
            raise ValueError("batch_size must be an integer >= 1")
        if not (0 <= self.momentum < 1 and 0 <= self.initial_momentum < 1):
            raise ValueError("momentum must lie in [0, 1)")
        if not (isinstance(self.epochs, Integral) and self.epochs >= 0):
            raise ValueError("epochs must be an integer >= 0")
        if not all(math.isfinite(c) and c >= 0 for c in (self.l1_coeff, self.l2_coeff)):
            raise ValueError("l1_coeff and l2_coeff must be finite and >= 0")


BLOCK_ROWS = 256  # rows per block of param_step; 64 to 512 time the same


class StepScratch:
    """Two block-sized work buffers for :func:`param_step`, owned by one training call."""

    def __init__(self):
        self._flat = (np.empty(0), np.empty(0))

    def pair(self, shape):
        n = shape[0] * shape[1]
        if self._flat[0].size < n:
            self._flat = (np.empty(n), np.empty(n))
        return tuple(f[:n].reshape(shape) for f in self._flat)


def param_step(param, velocity, grad, momentum, rate, l2=None, l1=None, scratch=None) -> None:
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
    """
    scratch = StepScratch() if scratch is None else scratch
    rows = lambda a: a if a.ndim == 2 else a[np.newaxis]
    p, v = rows(param), rows(velocity)
    for start in range(0, p.shape[0], BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, p.shape[0])
        out, tmp = scratch.pair((stop - start, p.shape[1]))
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


@dataclass
class CdState:
    """Momentum buffers carried between CD-1 updates, and the step's scratch."""

    d_weights: np.ndarray
    d_visible_bias: np.ndarray
    d_hidden_bias: np.ndarray
    scratch: StepScratch = field(default_factory=StepScratch)

    @classmethod
    def zeros(cls, rbm: "Rbm") -> "CdState":
        return cls(*(np.zeros_like(a) for a in (rbm.weights, rbm.visible_bias, rbm.hidden_bias)))


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
            weights = rng.normal(0.0, 0.01, size=(self.n_visible, self.n_hidden))
        self.weights = np.asarray(weights, dtype=np.float64)
        self.visible_bias = np.zeros(self.n_visible) if visible_bias is None else np.asarray(visible_bias, dtype=np.float64)
        self.hidden_bias = np.zeros(self.n_hidden) if hidden_bias is None else np.asarray(hidden_bias, dtype=np.float64)
        if self.weights.shape != (self.n_visible, self.n_hidden):
            raise DimensionMismatchError("weight matrix shape disagrees with unit counts")
        if self.visible_bias.shape != (self.n_visible,) or self.hidden_bias.shape != (self.n_hidden,):
            raise DimensionMismatchError("bias length disagrees with unit counts")

    def hidden_probabilities(self, v: np.ndarray) -> np.ndarray:
        """P(h=1 | v) = sigmoid(v W + hidden_bias); accepts a vector or a batch."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1] != self.n_visible:
            raise DimensionMismatchError(f"visible vector length {v.shape[-1]} != {self.n_visible}")
        return sigmoid(v @ self.weights + self.hidden_bias)

    def visible_probabilities(self, h: np.ndarray) -> np.ndarray:
        """P(v=1 | h) = sigmoid(h W^T + visible_bias)."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape[-1] != self.n_hidden:
            raise DimensionMismatchError(f"hidden vector length {h.shape[-1]} != {self.n_hidden}")
        return sigmoid(h @ self.weights.T + self.visible_bias)

    def reconstruction_error(self, data: np.ndarray) -> float:
        """Mean squared error between data and its one-pass reconstruction."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        v1 = self.visible_probabilities(self.hidden_probabilities(data))
        return float(np.mean((data - v1) ** 2))

    def cd1_update(
        self,
        batch: np.ndarray,
        cfg: RbmTrainConfig,
        state: CdState,
        rng: np.random.Generator,
        momentum: float | None = None,
    ) -> None:
        """One CD-1 parameter update from a (B, n_visible) batch, in place.

        ``momentum`` overrides ``cfg.momentum`` (used for the early-epoch
        schedule).  Draws a single (B, n_hidden) uniform block from ``rng``.
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

        lr, sc = cfg.learning_rate, state.scratch
        param_step(self.weights, state.d_weights, dw, mom, lr, l2=-cfg.l2_coeff, l1=-cfg.l1_coeff, scratch=sc)
        param_step(self.visible_bias, state.d_visible_bias, (batch - v1).mean(axis=0), mom, lr, scratch=sc)
        param_step(self.hidden_bias, state.d_hidden_bias, (h0 - h1).mean(axis=0), mom, lr, scratch=sc)

    def check_finite(self) -> None:
        if not all(np.isfinite(a).all() for a in (self.weights, self.visible_bias, self.hidden_bias)):
            raise NumericError("non-finite RBM parameter after update")

    def copy(self) -> "Rbm":
        return Rbm(
            self.n_visible,
            self.n_hidden,
            weights=self.weights.copy(),
            visible_bias=self.visible_bias.copy(),
            hidden_bias=self.hidden_bias.copy(),
        )


def train_rbm(data: np.ndarray, cfg: RbmTrainConfig, n_hidden: int | None = None, on_epoch=None) -> Rbm:
    """Train an RBM with CD-1 mini-batches for ``cfg.epochs`` or until convergence.

    Rows are reshuffled every epoch with the seeded generator; training
    stops early once the relative reconstruction-error improvement stays
    below ``cfg.convergence_tol`` for ``cfg.convergence_window``
    consecutive epochs.  ``on_epoch(epoch, recon_error)`` is called after
    every epoch.  Deterministic for a fixed seed, data and config.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[0] == 0:
        raise EmptyDataError("training data is empty")
    if n_hidden is None:
        raise ValueError("n_hidden is required")

    rng = np.random.default_rng(cfg.rng_seed)
    rbm = Rbm(data.shape[1], n_hidden, rng=rng)
    state = CdState.zeros(rbm)

    prev_err = None
    stall = 0
    for epoch in range(cfg.epochs):
        mom = cfg.initial_momentum if epoch < cfg.momentum_switch_epoch else cfg.momentum
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            rbm.cd1_update(data[order[start : start + cfg.batch_size]], cfg, state, rng, momentum=mom)
        rbm.check_finite()

        err = rbm.reconstruction_error(data)
        if on_epoch is not None:
            on_epoch(epoch, err)
        if prev_err is not None:
            improvement = (prev_err - err) / prev_err if prev_err > 0 else 0.0
            stall = stall + 1 if improvement < cfg.convergence_tol else 0
            if stall >= cfg.convergence_window:
                break
        prev_err = err
    return rbm
