"""The supervised stages give the same bytes with their batches drawn one ahead.

``ref_run_stage`` below is the earlier, sequential ``dbn._run_stage``: it
drew each epoch's permutation and each batch's noise on the training
thread, just before using them.  It is kept here as the reference the
pipelined stage must match byte for byte, with each weight step split
between the calling thread and a helper wherever a weight matrix has two
or more blocks of rows.  The other tests check that the stage's helper
threads are gone when the stage returns or raises, and that only the
calling thread runs the network.  A stage fed float32 rows picked by
index must give the bytes of the sequential loop on their float64 copy,
whether the first layer scores the validation rows in row chunks or, where
the chunks' check finds other bytes, whole; and stage 3 must not hold the
validation rows' float64 copy.
"""

import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.special import expit as sigmoid

import fingerspell.dbn as dbn_mod
import fingerspell.rbm as rbm_mod
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.dbn import (
    Dbn,
    StageConfig,
    SupervisedTrainConfig,
    backprop_gradients,
    cross_entropy_loss,
    fine_tune,
    train_translation_layer,
)
from fingerspell.errors import NumericError
from fingerspell.rbm import CHUNK_ROWS, Rbm, param_step


def ref_top_activations(layers, x):
    """The last activations of the frozen layers, one ``sigmoid(x @ W + b)`` per layer."""
    for rbm in layers:
        x = sigmoid(x @ rbm.weights + rbm.hidden_bias)
    return x


def ref_run_stage(net, frozen, train, valid, s, rng, on_epoch):
    (xt, yt, rt), (xv, yv, rv) = train, valid
    xt, xv = xt[rt].astype(np.float64), xv[rv].astype(np.float64)  # every row upcast before the stage
    top_v = ref_top_activations(frozen, xv)
    params = [p for r in net.rbm_layers for p in (r.weights, r.hidden_bias)] + [net.translation_w, net.translation_b]
    decay = [s.l2_coeff, None] * (len(params) // 2)
    velocity = [np.zeros_like(p) for p in params]
    noise = np.empty((min(s.batch_size, xt.shape[0]), xt.shape[1])) if s.input_noise_sigma > 0 else None

    best_loss = cross_entropy_loss(net, top_v, yv)
    best = [p.copy() for p in params]
    since_best = 0
    for epoch in range(s.epochs):
        order = rng.permutation(xt.shape[0])
        losses = []
        for start in range(0, xt.shape[0], s.batch_size):
            idx = order[start : start + s.batch_size]
            xb = xt[idx]
            if s.input_noise_sigma > 0:
                z = rng.standard_normal(out=noise[: len(idx)])
                z *= s.input_noise_sigma
                xb += z
                np.clip(xb, 0.0, 1.0, out=xb)
            rw, rb, gw, gb, loss = backprop_gradients(net, ref_top_activations(frozen, xb), yt[idx])
            losses.append(loss)
            grads = [g for pair in zip(rw, rb) for g in pair] + [gw, gb]
            for p, v, g, l2 in zip(params, velocity, grads, decay):
                param_step(p, v, g, s.momentum, -s.learning_rate, l2=l2)
            for rbm in net.rbm_layers:
                rbm.check_finite()

        if not np.all(np.isfinite(net.translation_w)):
            raise NumericError("non-finite translation weights")
        val_loss = cross_entropy_loss(net, top_v, yv)
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


def small_net(dims=(40, 12, 8), seed=0):
    rng = np.random.default_rng(seed)
    rbms = [
        Rbm(nv, nh, weights=rng.normal(0, 0.3, (nv, nh)), hidden_bias=rng.normal(0, 0.1, nh))
        for nv, nh in zip(dims, dims[1:])
    ]
    return Dbn.from_rbms(rbms, rng=rng)


def labeled(rows, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.random((rows, dim)), [STATIC_LETTERS[i % 24] for i in range(rows)]


def float32_rows(rows, dim, seed):
    """A labeled set whose ``rows`` feature rows are picked by index from a larger float32 matrix."""
    rng = np.random.default_rng(seed)
    x = rng.random((2 * rows + 3, dim), dtype=np.float32)
    return x, [STATIC_LETTERS[i % 24] for i in range(rows)], rng.permutation(len(x))[:rows]


def skewed_rows(rows, dim, seed):
    """``float32_rows``' set with two labels in three an "A", so that a stage lowers the validation loss."""
    x, labels, idx = float32_rows(rows, dim, seed)
    return x, [label if i % 3 == 2 else "A" for i, label in enumerate(labels)], idx


def float64_copy(rows, dim, seed, data=float32_rows):
    """``data``'s set as the float64 copy of its rows."""
    x, labels, idx = data(rows, dim, seed)
    return x[idx].astype(np.float64), labels


# 45 training rows in batches of 10 leave a short last batch of 5
CASES = {
    "stage2_noise_short_last_batch": (
        train_translation_layer,
        StageConfig(learning_rate=0.3, epochs=6, batch_size=10, input_noise_sigma=0.2),
    ),
    # the labels are random, so the validation loss soon climbs and patience ends the stage
    "stage2_stops_on_patience": (
        train_translation_layer,
        StageConfig(learning_rate=0.3, epochs=60, batch_size=10, input_noise_sigma=0.1, early_stopping_patience=2),
    ),
    "stage3_no_frozen_layers": (
        fine_tune,
        StageConfig(learning_rate=0.05, epochs=5, batch_size=10, input_noise_sigma=0.1),
    ),
    # 1100 visible units are five blocks of rows: the bottom weight step is split
    "stage3_split_weight_step": (
        fine_tune,
        StageConfig(learning_rate=0.05, epochs=4, batch_size=10, input_noise_sigma=0.1),
        (1100, 12, 8),
    ),
}


def run_stage(stage, stage_cfg, dims=(40, 12, 8), data=labeled, n_valid=20):
    net = small_net(dims)
    log = []
    if stage is fine_tune:
        cfg = SupervisedTrainConfig(stage3=stage_cfg, rng_seed=8)
    else:
        cfg = SupervisedTrainConfig(stage2=stage_cfg, stage3=StageConfig(learning_rate=0.01), rng_seed=8)
    stage(net, data(45, dims[0], seed=1), data(n_valid, dims[0], seed=2), cfg, on_epoch=lambda *a: log.append(a))
    return net, log


@pytest.mark.parametrize("name", sorted(CASES))
def test_pipelined_stage_matches_sequential_loop(name, monkeypatch, models_equal):
    _, stage_cfg, *dims = CASES[name]
    net, log = run_stage(*CASES[name])
    monkeypatch.setattr(dbn_mod, "_run_stage", ref_run_stage)
    ref_net, ref_log = run_stage(*CASES[name])
    assert models_equal(net, ref_net)
    assert log == ref_log  # the same losses to the last bit, epoch by epoch
    assert not models_equal(net, small_net(*dims))  # the stage took steps
    if name == "stage2_stops_on_patience":
        assert len(log) < stage_cfg.epochs


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_rows_match_sequential_loop_on_their_float64_copy(name, monkeypatch, models_equal):
    _, stage_cfg, *dims = CASES[name]
    net, log = run_stage(*CASES[name], data=float32_rows)
    monkeypatch.setattr(dbn_mod, "_run_stage", ref_run_stage)
    ref_net, ref_log = run_stage(*CASES[name], data=float64_copy)
    assert models_equal(net, ref_net)
    assert log == ref_log
    assert not models_equal(net, small_net(*dims))
    if name == "stage2_stops_on_patience":
        assert len(log) < stage_cfg.epochs


class RefusedChunks(dict):
    """A record of product checks in which every row-chunk check found other bytes than the whole product."""

    def __setitem__(self, key, exact):
        super().__setitem__(key, exact and key[0] != "rows")


def row_chunk_checks():
    """The row-chunk entries of the process's record of product checks."""
    return [exact for key, exact in rbm_mod._SPLIT_EXACT.items() if key[0] == "rows"]


@pytest.mark.parametrize("checks", [dict, RefusedChunks], ids=["checked", "refused"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_chunked_validation_rows_match_sequential_loop(name, checks, monkeypatch, models_equal):
    # 101 validation rows are two chunks of 48 and a short one; the first layer's product over them is checked
    # once, here, and then chunked or, where the check refused it, computed whole
    _, stage_cfg, *dims = CASES[name]
    assert 101 % CHUNK_ROWS
    monkeypatch.setattr(rbm_mod, "_SPLIT_EXACT", checks())
    net, log = run_stage(*CASES[name], data=skewed_rows, n_valid=101)
    chunked = row_chunk_checks()
    assert len(chunked) == 1
    if checks is RefusedChunks:
        assert chunked == [False]
    monkeypatch.setattr(dbn_mod, "_run_stage", ref_run_stage)
    ref_net, ref_log = run_stage(*CASES[name], data=partial(float64_copy, data=skewed_rows), n_valid=101)
    assert models_equal(net, ref_net)
    assert log == ref_log
    assert not models_equal(net, small_net(*dims))
    if name == "stage2_stops_on_patience":
        assert len(log) < stage_cfg.epochs


def test_stage3_allocates_no_float64_copy_of_the_validation_rows(monkeypatch):
    # stage 2 checks the first layer's row chunks over the 250 validation rows; where the chunks gave the whole
    # product's bytes, stage 3 scores the rows chunk by chunk, in a 49-row buffer (100 kB), and never holds
    # their float64 copy (512 kB) as it used to. The class scores and their softmax take about 0.9 kB a row
    monkeypatch.setattr(rbm_mod, "_SPLIT_EXACT", {})
    net = small_net((256, 12, 8))
    train, valid = float32_rows(45, 256, seed=1), float32_rows(250, 256, seed=2)
    cfg = SupervisedTrainConfig(
        stage2=StageConfig(learning_rate=0.3, epochs=2, batch_size=10, input_noise_sigma=0.1),
        stage3=StageConfig(learning_rate=0.05, epochs=3, batch_size=10, input_noise_sigma=0.1),
        rng_seed=8,
    )
    train_translation_layer(net, train, valid, cfg)
    (exact,) = row_chunk_checks()
    if not exact:
        pytest.skip("this BLAS gives other bytes for the chunks of 250 x 256 @ 256 x 12, so stage 3 scores them whole")
    tracemalloc.start()
    try:
        fine_tune(net, train, valid, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(valid[2]) * valid[0].shape[1] * 8, peak


def count_helper_threads(call):
    before = threading.active_count()
    call()
    return threading.active_count() - before


def nan_net():
    net = small_net()
    net.rbm_layers[0].weights[0, 0] = np.nan
    return net


@pytest.mark.parametrize("name", sorted(CASES))
def test_helper_joined_when_stage_returns(name):
    assert count_helper_threads(lambda: run_stage(*CASES[name])) == 0


@pytest.mark.parametrize("stage", [train_translation_layer, fine_tune])
def test_helper_joined_when_stage_raises(stage):
    cfg = SupervisedTrainConfig(stage2=StageConfig(epochs=3, batch_size=10, input_noise_sigma=0.1), rng_seed=8)

    def call():
        with pytest.raises(NumericError):
            stage(nan_net(), labeled(45, 40, seed=1), labeled(20, 40, seed=2), cfg)

    assert count_helper_threads(call) == 0


def test_helper_joined_when_a_batch_goes_non_finite(monkeypatch):
    # a weight turns NaN before the 7th batch (the 2nd of epoch 2), so its class
    # scores raise inside the batch loop, with the next batch already being drawn
    original, calls = dbn_mod.backprop_gradients, []

    def poisoning(net, x, y):
        calls.append(x)
        if len(calls) == 7:
            net.rbm_layers[0].weights[0, 0] = np.nan
        return original(net, x, y)

    monkeypatch.setattr(dbn_mod, "backprop_gradients", poisoning)
    for name in ("stage3_no_frozen_layers", "stage3_split_weight_step"):
        calls.clear()

        def call():
            with pytest.raises(NumericError, match="non-finite class scores"):
                run_stage(*CASES[name])

        assert count_helper_threads(call) == 0
        assert len(calls) == 7


def test_network_runs_only_on_the_calling_thread(monkeypatch):
    threads = {}

    def recording(owner, name):
        original = getattr(owner, name)

        def record(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.current_thread())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)

    recording(dbn_mod, "backprop_gradients")
    recording(dbn_mod, "cross_entropy_loss")
    recording(Rbm, "check_finite")
    for case in CASES.values():
        run_stage(*case)
    names = ("backprop_gradients", "cross_entropy_loss", "check_finite")
    assert threads == {name: {threading.current_thread()} for name in names}
