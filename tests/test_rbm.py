import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import expit

from fingerspell.errors import DimensionMismatchError, EmptyDataError
from fingerspell.rbm import (
    BLOCK_ROWS, Rbm, RbmTrainConfig, _reconstruction_error, param_step, sample_bernoulli,
    train_rbm,
)


def make_rbm(w, vb=None, hb=None):
    w = np.asarray(w, dtype=np.float64)
    return Rbm(w.shape[0], w.shape[1], weights=w, visible_bias=vb, hidden_bias=hb)


class TestConditionals:
    def test_zero_parameters_give_half(self):
        r = make_rbm(np.zeros((3, 4)))
        assert np.allclose(r.hidden_probabilities(np.array([1.0, 0.0, 1.0])), 0.5)
        assert np.allclose(r.visible_probabilities(np.array([1.0, 0.0, 1.0, 0.5])), 0.5)

    def test_bias_saturation(self):
        r = make_rbm(np.zeros((2, 2)), hb=np.array([50.0, -50.0]))
        h = r.hidden_probabilities(np.zeros(2))
        assert h[0] > 1 - 1e-12 and h[1] < 1e-12

    def test_two_visible_one_hidden_toy(self):
        r = make_rbm(np.array([[1.0], [-1.0]]))
        assert r.hidden_probabilities(np.array([1.0, 1.0]))[0] == pytest.approx(0.5)

    def test_1x1_scalar(self):
        r = make_rbm(np.array([[2.0]]), vb=np.array([-2.0]))
        assert r.visible_probabilities(np.array([1.0]))[0] == pytest.approx(0.5)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(4, 3))
        r = make_rbm(w)
        r_t = make_rbm(w.T)
        h = rng.random(3)
        assert np.allclose(r.visible_probabilities(h), r_t.hidden_probabilities(h))

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        r = make_rbm(rng.normal(0, 0.5, (10, 8)), vb=rng.normal(0, 1, 10), hb=rng.normal(0, 1, 8))
        for _ in range(10):
            h = r.hidden_probabilities(rng.random(10))
            assert (h > 0).all() and (h < 1).all()

    def test_dimension_mismatch(self):
        r = make_rbm(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            r.hidden_probabilities(np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            r.visible_probabilities(np.zeros(3))

    def test_batch_shape(self):
        r = make_rbm(np.zeros((3, 2)))
        out = r.hidden_probabilities(np.zeros((5, 3)))
        assert out.shape == (5, 2)

    def test_out_buffer_receives_the_same_bytes(self):
        rng = np.random.default_rng(4)
        r = make_rbm(rng.normal(0, 0.5, (30, 7)), vb=rng.normal(0, 0.5, 30), hb=rng.normal(0, 0.5, 7))
        v = rng.random((9, 30))
        h_out, v_out = np.empty((9, 7)), np.empty((9, 30))
        h = r.hidden_probabilities(v, out=h_out)
        assert h is h_out and h.tobytes() == r.hidden_probabilities(v).tobytes()
        back = r.visible_probabilities(h, out=v_out)
        assert back is v_out and back.tobytes() == r.visible_probabilities(h).tobytes()


class TestSampleBernoulli:
    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(2)
        assert sample_bernoulli(np.zeros(100), rng).sum() == 0
        assert sample_bernoulli(np.ones(100), rng).sum() == 100

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(3)
        draws = sample_bernoulli(np.full(100_000, 0.3), rng)
        assert abs(draws.mean() - 0.3) < 0.01

    def test_deterministic_given_state(self):
        a = sample_bernoulli(np.full(50, 0.5), np.random.default_rng(7))
        b = sample_bernoulli(np.full(50, 0.5), np.random.default_rng(7))
        assert np.array_equal(a, b)


def scalar_cd1_oracle(w, vb, hb, batch, lr, l1, l2, uniforms):
    """Plain-loop re-implementation of one CD-1 step (no momentum buffers)."""
    nv, nh = w.shape
    b = len(batch)
    h0 = np.zeros((b, nh))
    for i in range(b):
        for j in range(nh):
            acc = hb[j]
            for k in range(nv):
                acc += batch[i][k] * w[k][j]
            h0[i, j] = 1.0 / (1.0 + np.exp(-acc))
    h0s = (uniforms < h0).astype(float)
    v1 = np.zeros((b, nv))
    for i in range(b):
        for k in range(nv):
            acc = vb[k]
            for j in range(nh):
                acc += h0s[i, j] * w[k][j]
            v1[i, k] = 1.0 / (1.0 + np.exp(-acc))
    h1 = np.zeros((b, nh))
    for i in range(b):
        for j in range(nh):
            acc = hb[j]
            for k in range(nv):
                acc += v1[i, k] * w[k][j]
            h1[i, j] = 1.0 / (1.0 + np.exp(-acc))
    dw = np.zeros((nv, nh))
    for k in range(nv):
        for j in range(nh):
            pos = sum(batch[i][k] * h0[i, j] for i in range(b))
            neg = sum(v1[i, k] * h1[i, j] for i in range(b))
            dw[k, j] = (pos - neg) / b
    dvb = (np.asarray(batch) - v1).mean(axis=0)
    dhb = (h0 - h1).mean(axis=0)
    new_w = w + lr * (dw - l2 * w - l1 * np.sign(w))
    return new_w, vb + lr * dvb, hb + lr * dhb


class TestCd1Update:
    def test_fixed_point_batch_no_decay_change(self):
        # all-0.5 data on a zero-parameter model: v1 == v0 and h1 == h0,
        # so positive and negative statistics cancel exactly
        r = make_rbm(np.zeros((4, 3)))
        cfg = RbmTrainConfig(learning_rate=0.5, momentum=0.0, initial_momentum=0.0, l1_coeff=0.0, l2_coeff=0.0)
        velocity = [np.zeros_like(a) for a in r.params]
        r.cd1_update(np.full((6, 4), 0.5), cfg, velocity, np.random.default_rng(4))
        assert (r.weights == 0).all() and (r.visible_bias == 0).all() and (r.hidden_bias == 0).all()

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        w = rng.normal(0, 0.3, (2, 2))
        vb = rng.normal(0, 0.2, 2)
        hb = rng.normal(0, 0.2, 2)
        batch = rng.random((3, 2))
        cfg = RbmTrainConfig(learning_rate=0.07, momentum=0.0, initial_momentum=0.0, l1_coeff=1e-3, l2_coeff=1e-2)

        r = make_rbm(w.copy(), vb=vb.copy(), hb=hb.copy())
        velocity = [np.zeros_like(a) for a in r.params]
        r.cd1_update(batch, cfg, velocity, np.random.default_rng(99), momentum=0.0)

        uniforms = np.random.default_rng(99).random((3, 2))
        ew, evb, ehb = scalar_cd1_oracle(w, vb, hb, batch.tolist(), 0.07, 1e-3, 1e-2, uniforms)
        assert np.allclose(r.weights, ew, atol=1e-12)
        assert np.allclose(r.visible_bias, evb, atol=1e-12)
        assert np.allclose(r.hidden_bias, ehb, atol=1e-12)

    def test_step_linear_in_learning_rate(self):
        # with no momentum/decay the update is lr * (CD-1 gradient):
        # halving lr exactly halves the parameter delta
        rng = np.random.default_rng(6)
        w0 = rng.normal(0, 0.2, (5, 4))
        batch = (rng.random((8, 5)) < 0.5).astype(float)
        deltas = []
        for lr in (1e-3, 5e-4):
            r = make_rbm(w0.copy())
            cfg = RbmTrainConfig(learning_rate=lr, momentum=0.0, initial_momentum=0.0, l1_coeff=0.0, l2_coeff=0.0)
            r.cd1_update(batch, cfg, [np.zeros_like(a) for a in r.params], np.random.default_rng(42), momentum=0.0)
            deltas.append((r.weights - w0) / lr)
        assert np.allclose(deltas[0], deltas[1], atol=1e-12)

    def test_analytic_gradient_direction(self):
        # same normalized delta equals the hand-computed CD-1 gradient
        rng = np.random.default_rng(7)
        w0 = rng.normal(0, 0.2, (3, 2))
        batch = (rng.random((4, 3)) < 0.5).astype(float)
        lr = 1e-4
        r = make_rbm(w0.copy())
        cfg = RbmTrainConfig(learning_rate=lr, momentum=0.0, initial_momentum=0.0, l1_coeff=0.0, l2_coeff=0.0)
        r.cd1_update(batch, cfg, [np.zeros_like(a) for a in r.params], np.random.default_rng(11), momentum=0.0)

        h0 = expit(batch @ w0)
        h0s = (np.random.default_rng(11).random(h0.shape) < h0).astype(float)
        v1 = expit(h0s @ w0.T)
        h1 = expit(v1 @ w0)
        grad = (batch.T @ h0 - v1.T @ h1) / len(batch)
        assert np.allclose((r.weights - w0) / lr, grad, atol=1e-12)


# below one block, exactly one, one plus a lone row (which joins the block), one plus 3
ROW_COUNTS = (5, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 3)


def step_inputs(rows, seed, cols=7):
    rng = np.random.default_rng(seed)
    w, vel, grad = (rng.normal(0, s, (rows, cols)) for s in (0.1, 1e-3, 1e-2))
    grad[0, :3] = (0.0, -0.0, 0.0)  # zero gradients keep their sign bit through the step
    w[1, 0] = 0.0  # sign(0) in the L1 term
    vb, vel_b, grad_b = (rng.normal(0, s, rows) for s in (0.1, 1e-3, 1e-2))
    grad_b[:3] = (-0.0, 0.0, -0.0)  # with these, some bias velocities come out as -0.0
    vel_b[:3] = (-0.0, -0.0, 0.0)
    return w, vel, grad, vb, vel_b, grad_b


def bytes_of(*arrays):
    return [a.tobytes() for a in arrays]


class TestParamStep:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_cd1_form_matches_whole_array_expression(self, rows):
        w, vel, grad, vb, vel_b, grad_b = step_inputs(rows, seed=rows)
        mom, lr, l1, l2 = 0.9, 0.1, 1e-5, 2e-4
        expect_vel = mom * vel + lr * (grad - l2 * w - l1 * np.sign(w))
        expect_w = w + expect_vel
        expect_vel_b = mom * vel_b + lr * grad_b
        expect_vb = vb + expect_vel_b

        param_step(w, vel, grad, mom, lr, l2=-l2, l1=-l1)
        param_step(vb, vel_b, grad_b, mom, lr)
        assert bytes_of(w, vel, vb, vel_b) == bytes_of(expect_w, expect_vel, expect_vb, expect_vel_b)

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_supervised_form_matches_whole_array_expression(self, rows):
        w, vel, grad, b, vel_b, grad_b = step_inputs(rows, seed=100 + rows)
        grad_copy = grad.copy()
        mom, lr, l2 = 0.9, 0.01, 1e-4
        expect_vel = mom * vel - lr * (grad + l2 * w)
        expect_w = w + expect_vel
        expect_vel_b = mom * vel_b - lr * grad_b
        expect_b = b + expect_vel_b

        param_step(w, vel, grad, mom, -lr, l2=l2)
        param_step(b, vel_b, grad_b, mom, -lr)
        assert bytes_of(w, vel, b, vel_b) == bytes_of(expect_w, expect_vel, expect_b, expect_vel_b)
        assert np.array_equal(grad, grad_copy)  # the caller's gradient is left as it was

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_cd1_update_matches_whole_array_update(self, rows):
        # the weight gradient is built one block of rows at a time inside the step
        rng = np.random.default_rng(200 + rows)
        w0, vb0, hb0 = rng.normal(0, 0.1, (rows, 9)), rng.normal(0, 0.1, rows), rng.normal(0, 0.1, 9)
        batch = (rng.random((36, rows)) < 0.5).astype(float)
        cfg = RbmTrainConfig(learning_rate=0.1, l1_coeff=1e-5, l2_coeff=2e-4)
        r = make_rbm(w0.copy(), vb=vb0.copy(), hb=hb0.copy())
        velocity = [np.zeros_like(a) for a in r.params]
        velocity[0][:] = rng.normal(0, 1e-3, w0.shape)
        vel0 = velocity[0].copy()
        r.cd1_update(batch, cfg, velocity, np.random.default_rng(7), momentum=0.5)

        h0 = expit(batch @ w0 + hb0)
        h0s = (np.random.default_rng(7).random(h0.shape) < h0).astype(float)
        v1 = expit(h0s @ w0.T + vb0)
        h1 = expit(v1 @ w0 + hb0)
        dw = (batch.T @ h0 - v1.T @ h1) / len(batch)
        vel = 0.5 * vel0 + cfg.learning_rate * (dw - cfg.l2_coeff * w0 - cfg.l1_coeff * np.sign(w0))
        vel_vb = 0.5 * 0.0 + cfg.learning_rate * (batch - v1).mean(axis=0)
        vel_hb = 0.5 * 0.0 + cfg.learning_rate * (h0 - h1).mean(axis=0)
        assert bytes_of(r.weights, velocity[0]) == bytes_of(w0 + vel, vel)
        assert bytes_of(r.visible_bias, r.hidden_bias) == bytes_of(vb0 + vel_vb, hb0 + vel_hb)


class CountingExecutor(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def split_inputs(rows, seed, cols=7):
    rng = np.random.default_rng(seed)
    w, vel, grad = (rng.normal(0, s, (rows, cols)) for s in (0.1, 1e-3, 1e-2))
    w[::89, 2] = 0.0  # sign(0) in the L1 term
    vel[::97, 1] = grad[::97, 1] = -0.0  # -0.0 velocities in both halves of a split step
    b, vel_b, grad_b = (rng.normal(0, s, cols) for s in (0.1, 1e-3, 1e-2))
    vel_b[::2] = grad_b[::2] = -0.0  # with these, some bias velocities come out as -0.0
    left, right = rng.random((rows, 12)), rng.normal(0, 1e-2, (12, cols))

    def grad_blocks(start, stop, out, tmp):  # rows start:stop of left @ right, as CD-1 and stage 3 build them
        return np.matmul(left[start:stop], right, out=out)

    return w, vel, grad, grad_blocks, b, vel_b, grad_b


class TestSplitStep:
    """A step split between the caller and an executor gives the bytes of the unsplit step."""

    @pytest.mark.parametrize("rows", (1, 255, 256, 257, 511, 512, 10240))
    def test_split_step_matches_unsplit_step(self, rows):
        for form in ("array", "callable"):
            for rate, l2, l1 in ((0.1, -2e-4, -1e-5), (-0.01, 1e-4, None), (0.1, None, None), (-0.01, None, None)):
                results = []
                for executor in (None, CountingExecutor()):
                    w, vel, grad, grad_blocks, b, vel_b, grad_b = split_inputs(rows, seed=rows)
                    g = grad if form == "array" else grad_blocks
                    param_step(w, vel, g, 0.9, rate, l2=l2, l1=l1, executor=executor)
                    param_step(b, vel_b, grad_b, 0.9, rate, executor=executor)
                    results.append(bytes_of(w, vel, b, vel_b))
                    if executor is not None:
                        executor.shutdown()
                        # only a weight matrix of two or more blocks is split (a lone
                        # last row joins its block); a bias is one row
                        assert executor.submitted == (rows > BLOCK_ROWS + 1)
                assert results[0] == results[1]

    def test_split_step_repeats_under_frequent_thread_switches(self):
        # at the first layer's size the two halves overlap, so a buffer they shared would show
        w0, vel0, _, grad_blocks, *_ = split_inputs(10240, seed=3, cols=200)
        w, vel = w0.copy(), vel0.copy()
        param_step(w, vel, grad_blocks, 0.9, 0.1, l2=-2e-4, l1=-1e-5)
        expected = bytes_of(w, vel)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=1) as executor:
                for _ in range(10):
                    w, vel = w0.copy(), vel0.copy()
                    param_step(w, vel, grad_blocks, 0.9, 0.1, l2=-2e-4, l1=-1e-5, executor=executor)
                    assert bytes_of(w, vel) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_split_step_allocates_only_its_two_buffer_pairs(self):
        w, vel, _, grad_blocks, *_ = split_inputs(10240, seed=5, cols=200)
        pairs_bytes = 2 * 2 * (BLOCK_ROWS + 1) * w.shape[1] * w.itemsize  # an (out, tmp) pair per half
        with ThreadPoolExecutor(max_workers=1) as executor:
            tracemalloc.start()
            try:
                param_step(w, vel, grad_blocks, 0.9, 0.1, l2=-2e-4, l1=-1e-5, executor=executor)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < pairs_bytes + 2**16  # 1.6 MB, plus the call's small objects
        assert pairs_bytes < w.nbytes / 8  # 16.4 MB

    @pytest.mark.parametrize("failing_half", ["caller", "executor"])
    def test_exception_comes_out_after_both_halves_end(self, failing_half):
        # four blocks: the caller steps blocks 0 and 1, the executor blocks 2 and 3
        fail_at = 0 if failing_half == "caller" else 2 * BLOCK_ROWS
        done = []

        def grad(start, stop, out, tmp):
            if start == fail_at:
                raise ValueError("gradient failed")
            time.sleep(0.05)  # the half that does not fail is the slow one
            done.append(start)
            out[:] = 1.0
            return out

        w, vel = np.zeros((4 * BLOCK_ROWS, 3)), np.zeros((4 * BLOCK_ROWS, 3))
        before = threading.active_count()
        with ThreadPoolExecutor(max_workers=1) as executor:
            with pytest.raises(ValueError, match="gradient failed"):
                param_step(w, vel, grad, 0.9, 0.1, executor=executor)
            other_half = [2 * BLOCK_ROWS, 3 * BLOCK_ROWS] if failing_half == "caller" else [0, BLOCK_ROWS]
            assert sorted(done) == other_half  # the other half had run to its end
            assert np.all(w[other_half[0] : other_half[1] + BLOCK_ROWS] == 0.1)
            assert not np.any(w[fail_at : fail_at + 2 * BLOCK_ROWS])  # the failing half stopped at its first block
        assert threading.active_count() == before


class TestReconstructionError:
    def test_perfect_reconstruction_is_zero(self):
        r = make_rbm(np.zeros((4, 2)))
        assert r.reconstruction_error(np.full((5, 4), 0.5)) == 0.0

    def test_zero_model_binary_data_is_quarter(self):
        rng = np.random.default_rng(8)
        data = (rng.random((10, 6)) < 0.5).astype(float)
        r = make_rbm(np.zeros((6, 3)))
        assert r.reconstruction_error(data) == pytest.approx(0.25)

    def test_in_place_error_allocates_no_pass_buffer(self):
        # the helper thread of train_rbm runs this on buffers its caller owns
        rng = np.random.default_rng(9)
        r = make_rbm(rng.normal(0, 0.1, (2000, 100)))
        data = rng.random((200, 2000))
        h, v = np.empty((200, 100)), np.empty(data.shape)
        tracemalloc.start()
        try:
            _reconstruction_error(r, data, h, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes  # 160 kB; np.mean's own buffer takes 64 kB


def template_dataset(n=200, n_templates=16, width=64, flip=0.02, seed=0):
    rng = np.random.default_rng(seed)
    templates = (rng.random((n_templates, width)) < 0.5).astype(float)
    rows = templates[np.arange(n) % n_templates]
    flips = rng.random(rows.shape) < flip
    return np.abs(rows - flips.astype(float))


class TestTrainRbm:
    def test_zero_epochs_returns_initialized_model(self):
        data = template_dataset(50)
        cfg = RbmTrainConfig(epochs=0, rng_seed=123)
        r = train_rbm(data, cfg, n_hidden=8)
        expect = Rbm(data.shape[1], 8, rng=np.random.default_rng(123))
        assert np.array_equal(r.weights, expect.weights)
        assert (r.visible_bias == 0).all() and (r.hidden_bias == 0).all()

    def test_deterministic_given_seed(self):
        data = template_dataset(120)
        cfg = RbmTrainConfig(epochs=5, batch_size=40, rng_seed=7)
        a = train_rbm(data, cfg, n_hidden=12)
        b = train_rbm(data, cfg, n_hidden=12)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.visible_bias.tobytes() == b.visible_bias.tobytes()
        assert a.hidden_bias.tobytes() == b.hidden_bias.tobytes()

    def test_reconstruction_error_decreases(self):
        data = template_dataset(200)
        errs = []
        cfg = RbmTrainConfig(epochs=15, batch_size=50, rng_seed=1)
        train_rbm(data, cfg, n_hidden=24, on_epoch=lambda e, err: errs.append(err))
        assert errs[-1] < 0.6 * errs[0]

    def test_empty_data_raises(self):
        with pytest.raises(EmptyDataError):
            train_rbm(np.zeros((0, 4)), RbmTrainConfig(), n_hidden=2)

    def test_parameters_finite(self):
        data = template_dataset(100)
        r = train_rbm(data, RbmTrainConfig(epochs=8, rng_seed=2), n_hidden=10)
        assert np.isfinite(r.weights).all()
        assert np.isfinite(r.visible_bias).all() and np.isfinite(r.hidden_bias).all()

    def test_convergence_stop(self):
        # a vanishing learning rate plateaus the error immediately, so the
        # window rule stops after 1 + convergence_window epochs
        data = template_dataset(60, width=12)
        epochs_seen = []
        cfg = RbmTrainConfig(
            learning_rate=1e-12,
            momentum=0.0,
            initial_momentum=0.0,
            epochs=200,
            batch_size=20,
            rng_seed=3,
            convergence_tol=1e-4,
            convergence_window=3,
        )
        train_rbm(data, cfg, n_hidden=6, on_epoch=lambda e, err: epochs_seen.append(e))
        assert len(epochs_seen) == 1 + cfg.convergence_window


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RbmTrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RbmTrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            RbmTrainConfig(momentum=1.0)
