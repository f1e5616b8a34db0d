"""The supervised stages give the same bytes with their batches drawn one ahead.

``ref_run_stage`` below is the earlier, sequential ``dbn._run_stage``: it
drew each epoch's permutation and each batch's noise on the training
thread, just before using them.  It is kept here as the reference the
pipelined stage must match byte for byte.  The other tests check that
the stage's helper thread is gone when the stage returns or raises, and
that only the calling thread runs the network.
"""

import threading

import numpy as np
import pytest

import fingerspell.dbn as dbn_mod
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.dbn import (
    Dbn,
    StageConfig,
    SupervisedTrainConfig,
    _top_activations,
    backprop_gradients,
    cross_entropy_loss,
    fine_tune,
    train_translation_layer,
)
from fingerspell.errors import NumericError
from fingerspell.rbm import Rbm, StepScratch, param_step


def ref_run_stage(net, frozen, train, valid, s, rng, on_epoch):
    (xt, yt), (xv, yv) = train, valid
    top_v = _top_activations(frozen, xv)
    params = [p for r in net.rbm_layers for p in (r.weights, r.hidden_bias)] + [net.translation_w, net.translation_b]
    decay = [s.l2_coeff, None] * (len(params) // 2)
    velocity = [np.zeros_like(p) for p in params]
    w_grads = [np.empty_like(r.weights) for r in net.rbm_layers]
    scratch = StepScratch()
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
            rw, rb, gw, gb, loss = backprop_gradients(net, _top_activations(frozen, xb), yt[idx], w_out=w_grads)
            losses.append(loss)
            grads = [g for pair in zip(rw, rb) for g in pair] + [gw, gb]
            for p, v, g, l2 in zip(params, velocity, grads, decay):
                param_step(p, v, g, s.momentum, -s.learning_rate, l2=l2, scratch=scratch)
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
}


def run_stage(stage, stage_cfg):
    net = small_net()
    log = []
    if stage is fine_tune:
        cfg = SupervisedTrainConfig(stage3=stage_cfg, rng_seed=8)
    else:
        cfg = SupervisedTrainConfig(stage2=stage_cfg, stage3=StageConfig(learning_rate=0.01), rng_seed=8)
    stage(net, labeled(45, 40, seed=1), labeled(20, 40, seed=2), cfg, on_epoch=lambda *a: log.append(a))
    return net, log


@pytest.mark.parametrize("name", sorted(CASES))
def test_pipelined_stage_matches_sequential_loop(name, monkeypatch, models_equal):
    stage, stage_cfg = CASES[name]
    net, log = run_stage(stage, stage_cfg)
    monkeypatch.setattr(dbn_mod, "_run_stage", ref_run_stage)
    ref_net, ref_log = run_stage(stage, stage_cfg)
    assert models_equal(net, ref_net)
    assert log == ref_log  # the same losses to the last bit, epoch by epoch
    assert not models_equal(net, small_net())  # the stage took steps
    if name == "stage2_stops_on_patience":
        assert len(log) < stage_cfg.epochs


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
    # raise from inside the batch loop, with the next batch already being drawn
    calls = []

    def failing(rbm):
        calls.append(rbm)
        if len(calls) == 7:
            raise NumericError("non-finite RBM parameters")

    monkeypatch.setattr(Rbm, "check_finite", failing)

    def call():
        with pytest.raises(NumericError):
            run_stage(*CASES["stage3_no_frozen_layers"])

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
    for stage, stage_cfg in CASES.values():
        run_stage(stage, stage_cfg)
    names = ("backprop_gradients", "cross_entropy_loss", "check_finite")
    assert threads == {name: {threading.current_thread()} for name in names}
