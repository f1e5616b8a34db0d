"""Pretraining gives the bytes of a sequential, one-thread loop.

``ref_train_rbm`` below is that loop: it computes each epoch's full-data
reconstruction error straight after the epoch, before training the next
one, with every product whole.  ``rbm.train_rbm`` must match it byte for
byte, in its parameters and in its ``on_epoch`` calls, while a helper
thread takes half of each large product and of each weight step.  The
other tests check the in-place error against the whole-array expression,
that the helper thread is gone when training returns or raises, that
only the calling thread trains, checks or reports, and that training
never copies the RBM.  Training on float32 rows picked by index must give
the bytes of training on their float64 copy.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerspell.dbn as dbn_mod
import fingerspell.rbm as rbm_mod
from fingerspell.dbn import pretrain
from fingerspell.errors import NumericError
from fingerspell.rbm import Rbm, RbmTrainConfig, train_rbm


def ref_reconstruction_error(rbm, data):
    v1 = rbm.visible_probabilities(rbm.hidden_probabilities(data))
    return float(np.mean((data - v1) ** 2))


def ref_train_rbm(data, cfg, n_hidden=None, on_epoch=None, rows=None):
    data = np.atleast_2d(np.asarray(data if rows is None else data[rows], dtype=np.float64))
    rng = np.random.default_rng(cfg.rng_seed)
    rbm = Rbm(data.shape[1], n_hidden, rng=rng)
    velocity = [np.zeros_like(a) for a in rbm.params]

    prev_err = None
    stall = 0
    for epoch in range(cfg.epochs):
        mom = cfg.initial_momentum if epoch < cfg.momentum_switch_epoch else cfg.momentum
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            rbm.cd1_update(data[order[start : start + cfg.batch_size]], cfg, velocity, rng, momentum=mom)
        rbm.check_finite()

        err = ref_reconstruction_error(rbm, data)
        if on_epoch is not None:
            on_epoch(epoch, err)
        if prev_err is not None:
            improvement = (prev_err - err) / prev_err if prev_err > 0 else 0.0
            stall = stall + 1 if improvement < cfg.convergence_tol else 0
            if stall >= cfg.convergence_window:
                break
        prev_err = err
    return rbm


def rows(n=90, width=24, seed=0):
    rng = np.random.default_rng(seed)
    templates = (rng.random((6, width)) < 0.5).astype(float)
    return np.abs(templates[np.arange(n) % 6] - (rng.random((n, width)) < 0.05))


# a vanishing learning rate plateaus the error at once, so the window rule
# stops after 1 + convergence_window epochs
PLATEAU = dict(learning_rate=1e-12, momentum=0.0, initial_momentum=0.0, convergence_tol=1e-4)

# 90 rows in batches of 20 leave a short last batch of 10
CASES = {
    "full_budget": RbmTrainConfig(epochs=12, batch_size=20, momentum_switch_epoch=3, rng_seed=5),
    "stops_after_1_stalled_epoch": RbmTrainConfig(epochs=30, batch_size=20, convergence_window=1, rng_seed=5, **PLATEAU),
    "stops_after_2_stalled_epochs": RbmTrainConfig(epochs=30, batch_size=20, convergence_window=2, rng_seed=5, **PLATEAU),
    # the error plateaus, then falls fast, then levels off: the stop comes after 38 epochs
    "stops_after_several_epochs": RbmTrainConfig(epochs=60, batch_size=20, convergence_tol=0.005,
                                                 convergence_window=3, rng_seed=5),
    "stops_on_the_last_epoch": RbmTrainConfig(epochs=2, batch_size=20, convergence_window=1, rng_seed=5, **PLATEAU),
    "zero_epochs": RbmTrainConfig(epochs=0, rng_seed=5),
    "one_epoch": RbmTrainConfig(epochs=1, batch_size=20, rng_seed=5),
}

EPOCHS_REPORTED = {
    "full_budget": 12,
    "stops_after_1_stalled_epoch": 2,
    "stops_after_2_stalled_epochs": 3,
    "stops_after_several_epochs": 38,
    "stops_on_the_last_epoch": 2,
    "zero_epochs": 0,
    "one_epoch": 1,
}


def float32_rows(data, seed=0):
    """``(x, idx)``: a float32 matrix, larger than ``data``, whose rows ``idx`` (shuffled) are ``data``."""
    rng = np.random.default_rng(seed)
    x = rng.random((2 * len(data) + 3, data.shape[1]), dtype=np.float32)
    idx = rng.permutation(len(x))[: len(data)]
    x[idx] = data
    assert np.array_equal(x[idx], data)  # data is exact in float32
    return x, idx


def params_bytes(rbm):
    return [a.tobytes() for a in (rbm.weights, rbm.visible_bias, rbm.hidden_bias)]


def run(train, cfg, data=None, idx=None):
    log = []
    rbm = train(rows() if data is None else data, cfg, n_hidden=8, on_epoch=lambda e, err: log.append((e, err)),
                rows=idx)
    return rbm, log


@pytest.mark.parametrize("name", sorted(CASES))
def test_overlapped_loop_matches_sequential_loop(name):
    cfg = CASES[name]
    rbm, log = run(train_rbm, cfg)
    ref, ref_log = run(ref_train_rbm, cfg)
    assert params_bytes(rbm) == params_bytes(ref)
    assert log == ref_log  # the same errors to the last bit, epoch by epoch
    assert len(log) == EPOCHS_REPORTED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_float32_rows_match_sequential_loop_on_their_float64_copy(name):
    cfg = CASES[name]
    rbm, log = run(train_rbm, cfg, *float32_rows(rows()))
    ref, ref_log = run(ref_train_rbm, cfg)
    assert params_bytes(rbm) == params_bytes(ref)
    assert log == ref_log
    assert len(log) == EPOCHS_REPORTED[name]


def test_split_weight_step_matches_sequential_loop():
    # 1100 visible units are five blocks of rows, so every CD-1 weight step is split
    data = rows(n=60, width=1100, seed=4)
    cfg = RbmTrainConfig(epochs=5, batch_size=20, momentum_switch_epoch=2, rng_seed=5)
    rbm, log = run(train_rbm, cfg, data)
    ref, ref_log = run(ref_train_rbm, cfg, data)
    assert params_bytes(rbm) == params_bytes(ref)
    assert log == ref_log
    assert len(log) == 5
    assert count_helper_threads(lambda: run(train_rbm, cfg, data)) == 0


def test_split_products_match_sequential_loop(monkeypatch):
    # 1100 visible and 1100 hidden units at batches of 30: every CD-1 and reconstruction product takes
    # SPLIT_MIN_WORK or more multiply-adds, and the weight steps split too
    checks = {}
    monkeypatch.setattr(rbm_mod, "_SPLIT_EXACT", checks)
    data = rows(n=90, width=1100, seed=6)
    cfg = RbmTrainConfig(epochs=3, batch_size=30, momentum_switch_epoch=1, rng_seed=5)
    log, ref_log = [], []
    rbm = train_rbm(data, cfg, n_hidden=1100, on_epoch=lambda e, err: log.append((e, err)))
    # the check records each product's shape: (30, 1100) and (90, 1100) inputs, against W and W.T
    assert len(checks) == 4
    ref = ref_train_rbm(data, cfg, n_hidden=1100, on_epoch=lambda e, err: ref_log.append((e, err)))
    assert params_bytes(rbm) == params_bytes(ref)
    assert log == ref_log
    assert len(log) == 3


def test_split_weight_step_on_float32_rows_of_any_value_matches_sequential_loop():
    x = np.random.default_rng(4).random((150, 1100), dtype=np.float32)
    idx = np.random.default_rng(5).permutation(150)[:60]
    cfg = RbmTrainConfig(epochs=5, batch_size=20, momentum_switch_epoch=2, rng_seed=5)
    rbm, log = run(train_rbm, cfg, x, idx)
    ref, ref_log = run(ref_train_rbm, cfg, x[idx].astype(np.float64))
    assert params_bytes(rbm) == params_bytes(ref)
    assert log == ref_log
    assert len(log) == 5


def test_pretrain_over_two_layers_matches_sequential_loop(monkeypatch):
    # one config trains both layers, each from its own seed; the convergence rule stops a layer early
    data = rows(n=70, width=30, seed=3)
    cfg = RbmTrainConfig(epochs=40, batch_size=16, convergence_tol=0.02, convergence_window=2, rng_seed=11)

    def layers():
        log = []
        return pretrain(data, [12, 6], cfg, on_epoch=lambda *a: log.append(a)), log

    rbms, log = layers()
    monkeypatch.setattr(dbn_mod, "train_rbm", ref_train_rbm)
    ref_rbms, ref_log = layers()
    assert [params_bytes(r) for r in rbms] == [params_bytes(r) for r in ref_rbms]
    assert log == ref_log
    epochs_run = [sum(layer == i for layer, _, _ in log) for i in (0, 1)]
    assert all(epochs_run) and min(epochs_run) < cfg.epochs


def ref_pretrain(data, layer_sizes, cfg, on_epoch):
    """Greedy pretraining on the whole float64 array: each layer learns all of the previous layer's activations."""
    rbms = []
    for i, size in enumerate(layer_sizes):
        cb = lambda e, err, _i=i: on_epoch(_i, e, err)
        rbms.append(ref_train_rbm(data, replace(cfg, rng_seed=cfg.rng_seed + i), n_hidden=size, on_epoch=cb))
        data = rbms[-1].hidden_probabilities(data)
    return rbms


def test_pretrain_over_two_layers_on_float32_rows_matches_their_float64_copy():
    # rows picked by index, and every row (rows=None) of float32 and of float64 input, give the bytes of the
    # whole-array loop on the float64 copy of those rows; the second layer learns from a copy pretrain makes
    x = np.random.default_rng(3).random((150, 30), dtype=np.float32)
    idx = np.random.default_rng(4).permutation(150)[:70]
    cfg = RbmTrainConfig(epochs=40, batch_size=16, convergence_tol=0.02, convergence_window=2, rng_seed=11)
    ref_log = []
    ref_rbms = ref_pretrain(x[idx].astype(np.float64), [12, 6], cfg, on_epoch=lambda *a: ref_log.append(a))
    assert {layer for layer, _, _ in ref_log} == {0, 1}
    for data, rows in ((x, idx), (x[idx], None), (x[idx].astype(np.float64), None)):
        log = []
        rbms = pretrain(data, [12, 6], cfg, on_epoch=lambda *a: log.append(a), rows=rows)
        assert [params_bytes(r) for r in rbms] == [params_bytes(r) for r in ref_rbms]
        assert log == ref_log


CHECK_FINITE = Rbm.check_finite


def failing_check_finite(monkeypatch, on_call):
    """Make ``Rbm.check_finite`` raise ``NumericError`` on its ``on_call``-th call from now."""
    calls = []

    def check(rbm):
        calls.append(rbm)
        if len(calls) == on_call:
            raise NumericError("non-finite RBM parameter after update")
        CHECK_FINITE(rbm)

    monkeypatch.setattr(Rbm, "check_finite", check)
    return calls


def test_no_epoch_runs_after_a_stop(monkeypatch):
    # the stop comes after epoch 1, so the check that would fail, after epoch 2, is never reached
    cfg = CASES["stops_after_1_stalled_epoch"]
    calls = failing_check_finite(monkeypatch, on_call=3)
    ref, ref_log = run(ref_train_rbm, cfg)
    assert len(calls) == 2
    calls = failing_check_finite(monkeypatch, on_call=3)
    rbm, log = run(train_rbm, cfg)
    assert len(calls) == 2
    assert params_bytes(rbm) == params_bytes(ref)
    assert log == ref_log


def test_failure_in_an_epoch_that_would_run_raises_after_reporting_the_previous_one(monkeypatch):
    cfg = CASES["full_budget"]
    ref_log, log = [], []
    failing_check_finite(monkeypatch, on_call=4)
    with pytest.raises(NumericError):
        ref_train_rbm(rows(), cfg, n_hidden=8, on_epoch=lambda e, err: ref_log.append((e, err)))
    failing_check_finite(monkeypatch, on_call=4)
    with pytest.raises(NumericError):
        train_rbm(rows(), cfg, n_hidden=8, on_epoch=lambda e, err: log.append((e, err)))
    assert log == ref_log
    assert [e for e, _ in log] == [0, 1, 2]


def check_in_place_error(n, visible, hidden, seed):
    rng = np.random.default_rng(seed)
    rbm = Rbm(visible, hidden, weights=rng.normal(0, 0.5, (visible, hidden)),
              visible_bias=rng.normal(0, 0.5, visible), hidden_bias=rng.normal(0, 0.5, hidden))
    data = rng.random((n, visible))
    assert rbm.reconstruction_error(data) == ref_reconstruction_error(rbm, data)
    data32 = data.astype(np.float32)
    expected = ref_reconstruction_error(rbm, data32.astype(np.float64))
    x, idx = float32_rows(data32, seed)  # the same rows, picked by index from a larger float32 matrix
    assert rbm.reconstruction_error(x, idx) == expected
    assert rbm.reconstruction_error(data32) == expected
    with ThreadPoolExecutor(max_workers=1) as executor:
        for call in range(2):  # the first call checks the split, the second uses it where it gives the same bytes
            assert rbm.reconstruction_error(x, idx, executor) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 80), st.integers(1, 300), st.integers(1, 60), st.integers(0, 2**31 - 1))
def test_in_place_error_matches_whole_array_expression_on_random_shapes(n, visible, hidden, seed):
    check_in_place_error(n, visible, hidden, seed)


@pytest.mark.parametrize("n,visible,hidden", [(7, 33, 5), (431, 200, 100), (64, 10240, 200)])
def test_in_place_error_matches_whole_array_expression(n, visible, hidden):
    check_in_place_error(n, visible, hidden, seed=n + visible + hidden)


def count_helper_threads(call):
    before = threading.active_count()
    call()
    return threading.active_count() - before


@pytest.mark.parametrize("name", ["full_budget", "stops_after_1_stalled_epoch", "one_epoch", "zero_epochs"])
def test_helper_joined_when_training_returns(name):
    assert count_helper_threads(lambda: run(train_rbm, CASES[name])) == 0


@pytest.mark.parametrize("on_call", [1, 2, 5])
def test_helper_joined_when_training_raises(monkeypatch, on_call):
    failing_check_finite(monkeypatch, on_call)

    def call():
        with pytest.raises(NumericError):
            run(train_rbm, CASES["full_budget"])

    assert count_helper_threads(call) == 0


def test_training_and_reporting_run_only_on_the_calling_thread(monkeypatch):
    threads = {}

    def record(name):
        threads.setdefault(name, set()).add(threading.current_thread())

    def recording(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            record(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("cd1_update", "check_finite", "reconstruction_error"):
        recording(Rbm, name)
    for name in ("full_budget", "stops_after_1_stalled_epoch"):
        train_rbm(rows(), CASES[name], n_hidden=8, on_epoch=lambda e, err: record("on_epoch"))
    names = ("cd1_update", "check_finite", "reconstruction_error", "on_epoch")
    assert threads == {name: {threading.current_thread()} for name in names}


def test_training_never_copies_the_rbm(monkeypatch):
    # the loop used to keep a second copy of the weights for an error computed one epoch behind
    made = []
    init = Rbm.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rbm, "__init__", counting_init)
    for name in ("full_budget", "stops_after_1_stalled_epoch"):
        made.clear()
        rbm, _ = run(train_rbm, CASES[name])
        assert made == [rbm]
