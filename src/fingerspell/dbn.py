"""Deep belief network: stacked RBMs plus a softmax translation layer.

Training runs in three stages.  The hidden layers are first pretrained
greedily with CD-1 (:func:`pretrain`), feeding each layer's activations
to the next.  Stage two fits only the randomly initialized translation
layer with backpropagation (cross-entropy, momentum, L2 decay, Gaussian
input noise, early stopping on a validation set) while the pretrained
layers stay frozen.  Stage three fine-tunes the whole network at a lower
learning rate.  Hidden activations use the same sigmoid as the RBM
conditionals in every stage.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from fingerspell import container
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.errors import (
    DimensionMismatchError,
    EmptyDataError,
    LabelOutOfRangeError,
    NumericError,
    check_fields,
)
from fingerspell.rbm import Rbm, RbmTrainConfig, copy_rows, param_step, train_rbm

DEFAULT_LAYER_SIZES = (1500, 700, 400)

MODEL_MAGIC = b"HSDBN1"


@dataclass
class StageConfig:
    """Hyperparameters of one supervised training stage."""

    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 100
    l2_coeff: float = 2e-4
    momentum: float = 0.9
    input_noise_sigma: float = 0.0
    early_stopping_patience: int = 10

    def __post_init__(self):
        check_fields(self, "finite and positive", "learning_rate")
        check_fields(self, "an integer >= 1", "epochs", "batch_size", "early_stopping_patience")
        check_fields(self, "in [0, 1)", "momentum")
        check_fields(self, "finite and >= 0", "l2_coeff", "input_noise_sigma")


@dataclass
class SupervisedTrainConfig:
    stage2: StageConfig = field(default_factory=lambda: StageConfig(input_noise_sigma=0.1))
    # fine-tuning runs at a tenth of the stage-2 rate with halved decay
    stage3: StageConfig = field(default_factory=lambda: StageConfig(learning_rate=0.01, l2_coeff=1e-4))
    rng_seed: int = 0

    def __post_init__(self):
        if not self.stage3.learning_rate < self.stage2.learning_rate:
            raise ValueError("fine-tuning must use a lower learning rate than stage 2")
        check_fields(self, "an integer >= 0", "rng_seed")


@dataclass
class Prediction:
    scores: np.ndarray          # 24 softmax probabilities
    label: str                  # argmax letter, lowest index wins ties


def softmax(logits: np.ndarray) -> np.ndarray:
    """Class probabilities; raises :class:`NumericError` unless all are finite."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(probs)):
        raise NumericError("non-finite class scores (NaN or Inf in the input or the model)")
    return probs


def top_activation(layers, x: np.ndarray, rows=None) -> np.ndarray:
    """The sigmoid activations after the last of ``layers`` (``x`` for none); each is dropped once the next is made.

    With ``rows``, the input is those rows of the stored matrix ``x`` (:meth:`Rbm.hidden_probabilities`).
    """
    for rbm in layers:
        x, rows = rbm.hidden_probabilities(x, rows=rows), None
    return x if rows is None else copy_rows(x, rows)


class Dbn:
    """Feed-forward classifier assembled from pretrained RBM layers."""

    def __init__(self, rbm_layers, translation_w, translation_b, class_labels=STATIC_LETTERS):
        self.rbm_layers = list(rbm_layers)
        self.translation_w = np.asarray(translation_w, dtype=np.float64)
        self.translation_b = np.asarray(translation_b, dtype=np.float64)
        self.class_labels = tuple(class_labels)
        for a, b in zip(self.rbm_layers, self.rbm_layers[1:]):
            if a.n_hidden != b.n_visible:
                raise DimensionMismatchError("adjacent RBM layers do not chain")
        top = self.rbm_layers[-1].n_hidden if self.rbm_layers else self.translation_w.shape[0]
        if self.translation_w.shape != (top, len(self.class_labels)):
            raise DimensionMismatchError("translation weights do not match top layer / classes")
        if self.translation_b.shape != (len(self.class_labels),):
            raise DimensionMismatchError("translation bias length != class count")

    @classmethod
    def from_rbms(cls, rbms, rng=None, class_labels=STATIC_LETTERS) -> "Dbn":
        """Attach a randomly initialized translation layer to pretrained RBMs."""
        rng = np.random.default_rng(0) if rng is None else rng
        top = rbms[-1].n_hidden
        w = rng.normal(0.0, 0.01, size=(top, len(class_labels)))
        return cls(rbms, w, np.zeros(len(class_labels)), class_labels)

    @property
    def input_dim(self) -> int:
        return self.rbm_layers[0].n_visible if self.rbm_layers else self.translation_w.shape[0]

    def scores(self, x: np.ndarray, rows=None) -> np.ndarray:
        """Softmax class probabilities for a vector or a batch, or for the rows ``rows`` of a stored matrix ``x``.

        A float64 copy of a float32 ``x`` lives only until the first layer's
        activations exist; ``rows`` reach that layer in row chunks.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.input_dim:
            raise DimensionMismatchError(f"input length {x.shape[-1]} != {self.input_dim}")
        top = top_activation(self.rbm_layers, x if rows is not None else x.astype(np.float64, copy=False), rows)
        return softmax(top @ self.translation_w + self.translation_b)

    def forward(self, x: np.ndarray) -> Prediction:
        """Classify one feature vector."""
        s = self.scores(np.asarray(x).reshape(-1))
        return Prediction(scores=s, label=self.class_labels[int(np.argmax(s))])


# ---------------------------------------------------------------------------
# greedy pretraining

def pretrain(features: np.ndarray, layer_sizes, cfg: RbmTrainConfig, on_epoch=None, rows=None) -> list:
    """Train the RBM chain: each layer learns the previous layer's activations.

    Layer ``i`` trains with ``cfg`` and the seed ``cfg.rng_seed + i``.
    ``on_epoch(layer_index, epoch, recon_error)`` reports progress.
    Returns the list of trained RBMs.  ``rows`` selects the training rows
    of ``features`` (all when None): the first layer reads them by index
    (:func:`train_rbm`), and the second layer's input comes from their
    float64 copy (:func:`copy_rows`), which lives only for that one product.
    """
    data = np.atleast_2d(np.asarray(features))
    rows = np.arange(data.shape[0]) if rows is None else np.asarray(rows)
    if len(rows) == 0:
        raise EmptyDataError("pretraining data is empty")

    rbms = []
    for i, size in enumerate(layer_sizes):
        cb = (lambda e, err, _i=i: on_epoch(_i, e, err)) if on_epoch is not None else None
        rbm = train_rbm(data, replace(cfg, rng_seed=cfg.rng_seed + i), n_hidden=size, on_epoch=cb, rows=rows)
        rbms.append(rbm)
        if i + 1 < len(layer_sizes):  # the last layer's activations feed nothing
            data = rbm.hidden_probabilities(copy_rows(data, rows))
            rows = np.arange(data.shape[0])
    return rbms


# ---------------------------------------------------------------------------
# supervised loss and gradients

def labels_to_indices(labels, class_labels) -> np.ndarray:
    """Map letter labels to class indices."""
    index = {c: i for i, c in enumerate(class_labels)}
    out = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in index:
            raise LabelOutOfRangeError(f"unknown class label {lab!r}")
        out[i] = index[lab]
    return out


def _mean_nll(probs: np.ndarray, y_idx: np.ndarray) -> float:
    picked = probs[np.arange(len(y_idx)), y_idx]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def cross_entropy_loss(dbn: Dbn, x: np.ndarray, y_idx: np.ndarray, rows=None) -> float:
    """Mean softmax cross-entropy of a labeled batch (no decay terms).

    The batch is ``x``, or with ``rows`` the rows ``rows`` of the stored
    matrix ``x``; the first layer then reads them in row chunks, checked
    once per process against the whole product (:func:`rbm._activation`),
    so the loss is that of their float64 copy to the last bit.
    """
    return _mean_nll(dbn.scores(np.atleast_2d(x), rows=rows), y_idx)


def _row_blocks(left, right):
    """``left @ right`` as a block function ``(start, stop, out, tmp)`` of its rows."""
    return lambda start, stop, out, tmp: np.matmul(left[start:stop], right, out=out)


def backprop_gradients(dbn: Dbn, x: np.ndarray, y_idx: np.ndarray):
    """Gradients of the mean cross-entropy w.r.t. every network parameter.

    Returns ``(rbm_w_grads, rbm_hb_grads, trans_w_grad, trans_b_grad, loss)``;
    visible biases take no part in the feed-forward pass.  ``loss`` is the
    value :func:`cross_entropy_loss` gives on the same batch, and
    non-finite class scores raise :class:`NumericError` as they do there.
    Each RBM weight gradient ``activations[k].T @ dz`` is a block function
    ``grad(start, stop, out, tmp)`` writing its rows ``start:stop`` into
    ``out``, the form :func:`param_step` takes, so the whole matrix is
    never built.  The function reads only arrays made here, so it can run
    on any thread, after the parameters have changed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    b = x.shape[0]
    activations = [x]
    for rbm in dbn.rbm_layers:
        activations.append(rbm.hidden_probabilities(activations[-1]))
    top = activations[-1]
    dlogits = softmax(top @ dbn.translation_w + dbn.translation_b)
    loss = _mean_nll(dlogits, y_idx)
    dlogits[np.arange(b), y_idx] -= 1.0
    dlogits /= b

    gw_t = top.T @ dlogits
    gb_t = dlogits.sum(axis=0)

    rbm_w_grads = [None] * len(dbn.rbm_layers)
    rbm_hb_grads = [None] * len(dbn.rbm_layers)
    da = dlogits @ dbn.translation_w.T
    for k in range(len(dbn.rbm_layers) - 1, -1, -1):
        a = activations[k + 1]
        dz = da * a * (1.0 - a)
        rbm_w_grads[k] = _row_blocks(activations[k].T, dz)
        rbm_hb_grads[k] = dz.sum(axis=0)
        if k > 0:  # the input itself takes no gradient
            da = dz @ dbn.rbm_layers[k].weights.T
    return rbm_w_grads, rbm_hb_grads, gw_t, gb_t, loss


# ---------------------------------------------------------------------------
# supervised stages

def _validate_labeled(data, dbn):
    """``(x, y, rows)`` of ``(features, labels)`` or ``(features, labels, rows)``: ``x`` as stored, the class
    indices, and the rows of ``x`` that the labels belong to (all rows when not given)."""
    x, labels, rows = data if len(data) == 3 else (*data, None)
    x = np.atleast_2d(np.asarray(x))
    rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows)
    if len(rows) == 0:
        raise EmptyDataError("labeled feature set is empty")
    if x.shape[1] != dbn.input_dim:
        raise DimensionMismatchError(f"feature width {x.shape[1]} != network input {dbn.input_dim}")
    y = labels_to_indices(labels, dbn.class_labels)
    if len(y) != len(rows):
        raise DimensionMismatchError("feature rows and labels differ in count")
    return x, y, rows


def _draws(n, s: StageConfig, rng, noise):
    """Every draw the stage makes from ``rng``, batch by batch, as ``(row indices, noise)``.

    One permutation of the ``n`` training rows per epoch, then each
    batch's standard normal noise (``None`` when the stage adds none), the
    shorter last batch included: the order of a sequential loop.  Batch
    ``k``'s noise is drawn into ``noise[k % 2]``, so it stays valid until
    batch ``k + 2`` is drawn.  Only ``rng`` is called, so a helper thread
    can run this.
    """
    k = 0
    for _ in range(s.epochs):
        order = rng.permutation(n)
        for start in range(0, n, s.batch_size):
            idx = order[start : start + s.batch_size]
            z = None if noise is None else rng.standard_normal(out=noise[k % 2, : len(idx)])
            k += 1
            yield idx, z


def _run_stage(net: Dbn, frozen, train, valid, s: StageConfig, rng, on_epoch) -> None:
    """Fit every parameter of ``net`` by backprop on the output of the ``frozen`` RBM layers.

    The shared loop of both supervised stages.  Each epoch reshuffles the
    rows; each presentation adds fresh Gaussian noise
    (``input_noise_sigma``) to the input, clamped back to [0, 1].  Weights
    take momentum and L2 decay, biases momentum only.  Validation
    cross-entropy (no noise) is evaluated after every epoch; after
    ``early_stopping_patience`` epochs without improvement the loop stops,
    and the best-validation parameters are restored in place.
    ``on_epoch(epoch, train_loss, valid_loss)``.

    A network with RBM layers never holds the validation rows as a float64
    copy.  With ``frozen`` layers their activations are computed once, at
    the start; with RBM layers to train, :func:`cross_entropy_loss` gets
    the rows by keyword each epoch.  Either way the first layer reads them
    in row chunks, checked against the whole product the first time their
    count and shape come up in the process (:func:`rbm._activation`);
    stage 2 makes that check, before any best-parameter snapshot exists.
    A network without them holds that copy, its loss's input.

    One helper thread makes the next batch's draws (:func:`_draws`) while
    this thread trains on the current batch, so the draws hide behind the
    batch's arithmetic.  Only the helper draws from ``rng``, in
    the order a sequential loop would, so the parameters do not depend on
    the timing.  The pool has a second thread for half of every weight
    step (:func:`param_step`), so a half never waits behind the draws.
    Both threads are joined before the stage returns or raises.  The RBM
    parameters are checked once per epoch, before the validation loss; a
    NaN that appears mid-epoch makes the next batch's class scores NaN, and
    :func:`softmax` raises there.
    """
    (xt, yt, rt), (xv, yv, rv) = train, valid
    n = len(rt)
    params = [p for r in net.rbm_layers for p in (r.weights, r.hidden_bias)] + [net.translation_w, net.translation_b]
    decay = [s.l2_coeff, None] * (len(params) // 2)
    velocity = [np.zeros_like(p) for p in params]
    noise = np.empty((2, min(s.batch_size, n), xt.shape[1])) if s.input_noise_sigma > 0 else None
    draws = _draws(n, s, rng, noise)
    with ThreadPoolExecutor(max_workers=2) as helper:
        ahead = helper.submit(next, draws, None)
        if frozen or not net.rbm_layers:  # the loss's input is the same every epoch
            xv, rv = top_activation(frozen, xv, rv), None
        best_loss = cross_entropy_loss(net, xv, yv, rows=rv)
        best = [p.copy() for p in params]
        since_best = 0
        for epoch in range(s.epochs):
            losses = []
            for _ in range(0, n, s.batch_size):
                idx, z = ahead.result()
                ahead = helper.submit(next, draws, None)
                xb = copy_rows(xt, rt[idx])  # a new array, so the noise goes in place
                if z is not None:
                    z *= s.input_noise_sigma
                    xb += z
                    np.clip(xb, 0.0, 1.0, out=xb)
                rw, rb, gw, gb, loss = backprop_gradients(net, top_activation(frozen, xb), yt[idx])
                losses.append(loss)
                grads = [g for pair in zip(rw, rb) for g in pair] + [gw, gb]
                for p, v, g, l2 in zip(params, velocity, grads, decay):
                    param_step(p, v, g, s.momentum, -s.learning_rate, l2=l2, executor=helper)

            for rbm in net.rbm_layers:
                rbm.check_finite()
            if not np.all(np.isfinite(net.translation_w)):
                raise NumericError("non-finite translation weights")
            val_loss = cross_entropy_loss(net, xv, yv, rows=rv)
            if on_epoch is not None:
                on_epoch(epoch, float(np.mean(losses)), val_loss)
            if val_loss < best_loss:
                best_loss = val_loss
                for b, p in zip(best, params):
                    np.copyto(b, p)
                since_best = 0
            else:
                since_best += 1
                if since_best >= s.early_stopping_patience:
                    break
    for p, b in zip(params, best):
        np.copyto(p, b)


def train_translation_layer(dbn: Dbn, train, valid, cfg: SupervisedTrainConfig, on_epoch=None) -> Dbn:
    """Stage 2: fit the translation layer only, RBM layers frozen.

    ``train`` and ``valid`` are ``(features, labels)`` pairs, or
    ``(features, labels, rows)`` when the labels belong to the rows
    ``rows`` of ``features``.  The stage trains a network made of the
    translation layer alone on the RBM stack's activations, so the RBM
    parameters are never written.  See :func:`_run_stage` for noise,
    early stopping and best-validation restore.
    ``on_epoch(epoch, train_loss, valid_loss)``.
    """
    train, valid = _validate_labeled(train, dbn), _validate_labeled(valid, dbn)
    head = Dbn([], dbn.translation_w, dbn.translation_b, dbn.class_labels)
    _run_stage(head, dbn.rbm_layers, train, valid, cfg.stage2, np.random.default_rng(cfg.rng_seed), on_epoch)
    return dbn


def fine_tune(dbn: Dbn, train, valid, cfg: SupervisedTrainConfig, on_epoch=None) -> Dbn:
    """Stage 3: backpropagate through the whole network at the stage-3 rate.

    Updates every RBM weight matrix and hidden bias plus the translation
    layer (visible biases are not part of the feed-forward net).  Early
    stopping and best-validation restore as in stage 2.
    """
    train, valid = _validate_labeled(train, dbn), _validate_labeled(valid, dbn)
    _run_stage(dbn, [], train, valid, cfg.stage3, np.random.default_rng(cfg.rng_seed + 1), on_epoch)
    return dbn


# ---------------------------------------------------------------------------
# model file
#
# A fingerspell.container with magic b"HSDBN1", JSON header
# {"layers": [[n_visible, n_hidden], ...], "class_labels": [...]} (plus
# "input_dim", the translation layer's width, when there are no layers),
# then the tensors as little-endian float64 blocks in a fixed order: per RBM
# weights, visible_bias, hidden_bias; then translation weights and bias.
# The round trip is bit-exact.

def save_model(dbn: Dbn, path) -> None:
    header = {"layers": [[r.n_visible, r.n_hidden] for r in dbn.rbm_layers], "class_labels": list(dbn.class_labels)}
    if not dbn.rbm_layers:
        header["input_dim"] = dbn.input_dim
    tensors = [t for r in dbn.rbm_layers for t in (r.weights, r.visible_bias, r.hidden_bias)]
    container.write(path, MODEL_MAGIC, "<f8", header, tensors + [dbn.translation_w, dbn.translation_b])


def _model_layout(header):
    layers = [(nv, nh) for nv, nh in header["layers"]]
    labels = header["class_labels"]
    if not isinstance(labels, list) or not all(isinstance(c, str) for c in labels):
        raise TypeError("class_labels must be a list of strings")
    if not labels or len(set(labels)) != len(labels):
        raise ValueError(f"class_labels must be non-empty and distinct, got {labels}")
    for (_, nh), (nv2, _) in zip(layers, layers[1:]):
        if nh != nv2:
            raise ValueError("header layer sizes do not chain")
    for i, (nv, nh) in enumerate(layers, start=1):
        yield f"rbm{i}.weights", (nv, nh)
        yield f"rbm{i}.visible_bias", (nv,)
        yield f"rbm{i}.hidden_bias", (nh,)
    top = layers[-1][1] if layers else header["input_dim"]
    yield "translation.weights", (top, len(labels))
    yield "translation.bias", (len(labels),)


def load_model(path) -> Dbn:
    """Read a model file as copy-on-write views of its mapping; raises :class:`FormatError` on any corruption."""
    header, arrays = container.read(path, MODEL_MAGIC, "<f8", _model_layout)
    per_layer = iter(arrays[:-2])  # weights, visible_bias, hidden_bias per RBM
    rbms = [Rbm(*w.shape, weights=w, visible_bias=vb, hidden_bias=hb) for w, vb, hb in zip(*[per_layer] * 3)]
    return Dbn(rbms, arrays[-2], arrays[-1], header["class_labels"])
