import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit as sigmoid

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.dbn import (
    Dbn,
    StageConfig,
    SupervisedTrainConfig,
    backprop_gradients,
    cross_entropy_loss,
    fine_tune,
    load_model,
    pretrain,
    save_model,
    softmax,
    top_activation,
    train_translation_layer,
)
from fingerspell.errors import (
    DimensionMismatchError,
    EmptyDataError,
    FormatError,
    LabelOutOfRangeError,
    NumericError,
)
from fingerspell.rbm import BLOCK_ROWS, Rbm, RbmTrainConfig, train_rbm


def per_layer_activations(layers, x):
    """``[x, a1, ..., aL]``: the input, then ``sigmoid(a @ W + b)`` after each of ``layers``."""
    activations = [x]
    for rbm in layers:
        activations.append(sigmoid(activations[-1] @ rbm.weights + rbm.hidden_bias))
    return activations


def toy_dbn(layer_dims=(6, 4, 3), n_classes=24, seed=0, scale=0.8):
    """Small random network with decently sized weights for gradient checks."""
    rng = np.random.default_rng(seed)
    rbms = []
    for nv, nh in zip(layer_dims, layer_dims[1:]):
        rbms.append(
            Rbm(
                nv,
                nh,
                weights=rng.normal(0, scale, (nv, nh)),
                visible_bias=np.zeros(nv),
                hidden_bias=rng.normal(0, scale, nh),
            )
        )
    w = rng.normal(0, scale, (layer_dims[-1], n_classes))
    b = rng.normal(0, 0.1, n_classes)
    return Dbn(rbms, w, b, STATIC_LETTERS[:n_classes])


class TestForward:
    def test_zero_translation_gives_uniform(self):
        net = toy_dbn()
        net.translation_w[:] = 0.0
        net.translation_b[:] = 0.0
        pred = net.forward(np.linspace(0, 1, 6))
        assert np.allclose(pred.scores, 1 / 24)
        assert pred.label == STATIC_LETTERS[0]  # tie broken by lowest index

    def test_logit_shift_invariance(self):
        net = toy_dbn(seed=1)
        x = np.linspace(0, 1, 6)
        before = net.forward(x)
        net.translation_b += 13.7
        after = net.forward(x)
        assert np.allclose(before.scores, after.scores, atol=1e-12)
        assert before.label == after.label

    def test_hand_computed_2_2_2(self):
        w1 = np.array([[1.0, -1.0], [0.5, 0.25]])
        hb1 = np.array([0.1, -0.2])
        tw = np.array([[2.0, -1.0], [0.5, 1.5]])
        tb = np.array([0.3, -0.3])
        net = Dbn([Rbm(2, 2, weights=w1, hidden_bias=hb1)], tw, tb, ("A", "B"))
        x = np.array([1.0, 0.5])
        a = 1 / (1 + np.exp(-(x @ w1 + hb1)))
        logits = a @ tw + tb
        e = np.exp(logits - logits.max())
        expect = e / e.sum()
        pred = net.forward(x)
        assert np.allclose(pred.scores, expect, atol=1e-12)
        assert pred.label == ("A" if expect[0] >= expect[1] else "B")

    def test_scores_sum_to_one_and_positive(self):
        net = toy_dbn(seed=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = net.forward(rng.random(6)).scores
            assert abs(s.sum() - 1.0) < 1e-9
            assert (s > 0).all()

    def test_forward_is_pure(self):
        net = toy_dbn(seed=4)
        x = np.random.default_rng(5).random(6)
        a = net.forward(x)
        b = net.forward(x)
        assert np.array_equal(a.scores, b.scores) and a.label == b.label

    def test_dim_mismatch(self):
        net = toy_dbn()
        with pytest.raises(DimensionMismatchError):
            net.forward(np.zeros(7))

    def test_non_finite_scores_raise(self):
        # argmax over NaN scores would silently pick the first letter
        net = toy_dbn(seed=6)
        with pytest.raises(NumericError):
            net.forward(np.full(6, np.nan))
        net.rbm_layers[0].weights[0, 0] = np.nan
        with pytest.raises(NumericError):
            net.forward(np.linspace(0, 1, 6))
        with pytest.raises(NumericError):
            net.scores(np.ones((3, 6)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=4), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_top_activation_equals_per_layer_loop(self, dims, rows, seed):
        # zero to three layers; the top activation is the same bytes as sigmoid(x @ W + b), layer by layer
        rng = np.random.default_rng(seed)
        layers = [Rbm(nv, nh, rng=rng, hidden_bias=rng.normal(size=nh)) for nv, nh in zip(dims, dims[1:])]
        x = rng.random((rows, dims[0]))
        got = top_activation(layers, x)
        assert got.tobytes() == per_layer_activations(layers, x)[-1].tobytes()
        assert (got is x) == (not layers)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=4), st.integers(1, 64), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_scores_equal_softmax_of_per_layer_loop(self, dims, rows, float32, seed):
        # scores holds only the current activation; the bytes are those of the per-layer loop that keeps
        # every activation, for a batch and a vector, float32 input upcast
        rng = np.random.default_rng(seed)
        layers = [Rbm(nv, nh, rng=rng, hidden_bias=rng.normal(size=nh)) for nv, nh in zip(dims, dims[1:])]
        net = Dbn(layers, rng.normal(0, 0.5, (dims[-1], 24)), rng.normal(size=24))
        x = rng.random((rows, dims[0]), dtype=np.float32 if float32 else np.float64)
        for a in (x, x[0]):
            top = per_layer_activations(layers, a.astype(np.float64))[-1]
            assert net.scores(a).tobytes() == softmax(top @ net.translation_w + net.translation_b).tobytes()

    def test_softmax_stability(self):
        s = softmax(np.array([1000.0, 1000.0, -1000.0]))
        assert np.isfinite(s).all() and abs(s.sum() - 1) < 1e-12


class TestPretrain:
    def test_single_layer_equals_train_rbm(self):
        rng = np.random.default_rng(6)
        data = (rng.random((40, 10)) < 0.5).astype(float)
        cfg = RbmTrainConfig(epochs=3, batch_size=20, rng_seed=9)
        chain = pretrain(data, [5], cfg)
        solo = train_rbm(data, cfg, n_hidden=5)
        assert chain[0].weights.tobytes() == solo.weights.tobytes()

    def test_layer_two_sees_open_unit_interval(self):
        rng = np.random.default_rng(7)
        data = (rng.random((30, 8)) < 0.5).astype(float)
        cfg = RbmTrainConfig(epochs=2, batch_size=15, rng_seed=1)
        chain = pretrain(data, [6, 4], cfg)
        h = chain[0].hidden_probabilities(data)
        assert (h > 0).all() and (h < 1).all()
        assert chain[1].n_visible == 6 and chain[1].n_hidden == 4

    def test_default_layer_sizes(self):
        from fingerspell.dbn import DEFAULT_LAYER_SIZES

        assert DEFAULT_LAYER_SIZES == (1500, 700, 400)

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            pretrain(np.zeros((0, 4)), [2], RbmTrainConfig())


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        # toy 6-4-3 network with the full 24-way output
        net = toy_dbn((6, 4, 3), 24, seed=8)
        rng = np.random.default_rng(9)
        x = rng.random((7, 6))
        y = rng.integers(0, 24, 7)
        rw, rb, gw_t, gb_t, _ = backprop_gradients(net, x, y)
        # each weight gradient comes as a block function; take all its rows as one block
        rw = [g(0, r.n_visible, np.empty_like(r.weights), np.empty_like(r.weights)) for g, r in zip(rw, net.rbm_layers)]

        eps = 1e-4

        def fd(param, idx):
            old = param[idx]
            param[idx] = old + eps
            up = cross_entropy_loss(net, x, y)
            param[idx] = old - eps
            down = cross_entropy_loss(net, x, y)
            param[idx] = old
            return (up - down) / (2 * eps)

        for k, rbm in enumerate(net.rbm_layers):
            for idx in np.ndindex(rbm.weights.shape):
                assert relative_error(rw[k][idx], fd(rbm.weights, idx)) < 1e-5
            for idx in np.ndindex(rbm.hidden_bias.shape):
                assert relative_error(rb[k][idx], fd(rbm.hidden_bias, idx)) < 1e-5
        for idx in np.ndindex(net.translation_w.shape):
            assert relative_error(gw_t[idx], fd(net.translation_w, idx)) < 1e-5
        for idx in np.ndindex(net.translation_b.shape):
            assert relative_error(gb_t[idx], fd(net.translation_b, idx)) < 1e-5

    def test_translation_gradient_is_softmax_minus_onehot(self):
        net = toy_dbn((5, 3), 24, seed=10)
        x = np.random.default_rng(11).random((4, 5))
        y = np.array([0, 5, 11, 23])
        _, _, gw_t, gb_t, _ = backprop_gradients(net, x, y)
        top = per_layer_activations(net.rbm_layers, x)[-1]
        probs = net.scores(x)
        dl = probs.copy()
        dl[np.arange(4), y] -= 1
        dl /= 4
        assert np.allclose(gw_t, top.T @ dl, atol=1e-12)
        assert np.allclose(gb_t, dl.sum(axis=0), atol=1e-12)


    def test_returned_loss_is_cross_entropy(self):
        net = toy_dbn((6, 4, 3), 24, seed=40)
        rng = np.random.default_rng(41)
        x = rng.random((9, 6))
        y = rng.integers(0, 24, 9)
        *_, loss = backprop_gradients(net, x, y)
        assert loss == cross_entropy_loss(net, x, y)

    def test_non_finite_scores_raise(self):
        net = toy_dbn(seed=42)
        with pytest.raises(NumericError):
            backprop_gradients(net, np.full((2, 6), np.nan), np.array([0, 1]))


class TestStage2:
    def setup_data(self, seed=12, n=60, dim=6):
        rng = np.random.default_rng(seed)
        x = rng.random((n, dim))
        y = [STATIC_LETTERS[i % 24] for i in range(n)]
        return (x[: n // 2], y[: n // 2]), (x[n // 2 :], y[n // 2 :])

    def test_zero_learning_rate_keeps_parameters(self):
        net = toy_dbn(seed=13)
        train, valid = self.setup_data()
        cfg = SupervisedTrainConfig(
            stage2=StageConfig(learning_rate=1e-30, epochs=3, input_noise_sigma=0.0),
            stage3=StageConfig(learning_rate=1e-31),
        )
        w0 = net.translation_w.copy()
        vals = []
        train_translation_layer(net, train, valid, cfg, on_epoch=lambda e, tl, vl: vals.append(vl))
        assert np.allclose(net.translation_w, w0, atol=1e-20)
        assert len(set(np.round(vals, 12))) == 1  # constant validation loss

    def test_rbm_layers_bit_frozen(self):
        net = toy_dbn(seed=14)
        train, valid = self.setup_data()
        before = [
            (r.weights.tobytes(), r.visible_bias.tobytes(), r.hidden_bias.tobytes())
            for r in net.rbm_layers
        ]
        cfg = SupervisedTrainConfig(stage2=StageConfig(epochs=5), rng_seed=3)
        train_translation_layer(net, train, valid, cfg)
        after = [
            (r.weights.tobytes(), r.visible_bias.tobytes(), r.hidden_bias.tobytes())
            for r in net.rbm_layers
        ]
        assert before == after

    def test_deterministic(self):
        train, valid = self.setup_data()
        cfg = SupervisedTrainConfig(stage2=StageConfig(epochs=4), rng_seed=5)
        a = train_translation_layer(toy_dbn(seed=15), train, valid, cfg)
        b = train_translation_layer(toy_dbn(seed=15), train, valid, cfg)
        assert a.translation_w.tobytes() == b.translation_w.tobytes()

    def test_label_out_of_range(self):
        net = toy_dbn(seed=16)
        x = np.zeros((2, 6))
        with pytest.raises(LabelOutOfRangeError):
            train_translation_layer(net, (x, ["A", "Z"]), (x, ["A", "B"]), SupervisedTrainConfig())

    def test_empty_data(self):
        net = toy_dbn(seed=17)
        with pytest.raises(EmptyDataError):
            train_translation_layer(net, (np.zeros((0, 6)), []), (np.zeros((1, 6)), ["A"]), SupervisedTrainConfig())

    def test_default_epoch_budget_is_200(self):
        assert StageConfig().epochs == 200

    def test_best_validation_not_worse_than_initial(self):
        net = toy_dbn(seed=18)
        train, valid = self.setup_data(seed=19)
        xv, yv = valid
        from fingerspell.dbn import labels_to_indices

        yv_idx = labels_to_indices(yv, net.class_labels)
        initial = cross_entropy_loss(net, np.asarray(xv), yv_idx)
        cfg = SupervisedTrainConfig(stage2=StageConfig(epochs=10), rng_seed=20)
        train_translation_layer(net, train, valid, cfg)
        assert cross_entropy_loss(net, np.asarray(xv), yv_idx) <= initial + 1e-12


class TestStage3:
    def test_zero_learning_rate_identity(self, models_equal):
        net = toy_dbn(seed=21)
        rng = np.random.default_rng(22)
        x = rng.random((30, 6))
        y = [STATIC_LETTERS[i % 24] for i in range(30)]
        cfg = SupervisedTrainConfig(
            stage2=StageConfig(learning_rate=1.0),
            stage3=StageConfig(learning_rate=1e-30, epochs=3, input_noise_sigma=0.0),
        )
        before = copy.deepcopy(net)
        fine_tune(net, (x[:20], y[:20]), (x[20:], y[20:]), cfg)
        assert models_equal(net, before)

    def test_validation_never_degrades(self):
        net = toy_dbn(seed=23)
        rng = np.random.default_rng(24)
        x = rng.random((40, 6))
        y = [STATIC_LETTERS[i % 24] for i in range(40)]
        valid = (x[30:], y[30:])
        from fingerspell.dbn import labels_to_indices

        yv_idx = labels_to_indices(valid[1], net.class_labels)
        initial = cross_entropy_loss(net, np.asarray(valid[0]), yv_idx)
        cfg = SupervisedTrainConfig(
            stage2=StageConfig(),
            stage3=StageConfig(learning_rate=0.05, epochs=8),
            rng_seed=25,
        )
        fine_tune(net, (x[:30], y[:30]), valid, cfg)
        assert cross_entropy_loss(net, np.asarray(valid[0]), yv_idx) <= initial + 1e-12

    def test_full_pipeline_learns_separable_classes(self):
        # 4 binary template classes through the real pretrain + stage2/3 path
        rng = np.random.default_rng(27)
        templates = (rng.random((4, 12)) < 0.5).astype(float)
        y_idx = rng.integers(0, 4, 160)
        x = templates[y_idx]
        flips = rng.random(x.shape) < 0.03
        x = np.abs(x - flips)
        y = [STATIC_LETTERS[i] for i in y_idx]
        train = (x[:120], y[:120])
        valid = (x[120:], y[120:])

        rbms = pretrain(x[:120], [10, 8], RbmTrainConfig(epochs=15, batch_size=30, rng_seed=29))
        net = Dbn.from_rbms(rbms, rng=np.random.default_rng(30))
        cfg = SupervisedTrainConfig(
            stage2=StageConfig(epochs=60, learning_rate=0.3, input_noise_sigma=0.05),
            stage3=StageConfig(epochs=20, learning_rate=0.03),
            rng_seed=28,
        )
        train_translation_layer(net, train, valid, cfg)
        fine_tune(net, train, valid, cfg)
        preds = [net.forward(v).label for v in valid[0]]
        acc = np.mean([p == t for p, t in zip(preds, valid[1])])
        assert acc > 0.9

    @pytest.mark.parametrize("rows", (5, 256, 259, 600))
    def test_weight_gradient_blocks_match_whole_product(self, rows):
        # stage 3 builds each weight gradient a block of rows at a time inside the step
        rng = np.random.default_rng(300 + rows)
        net = toy_dbn((rows, 7, 5), 24, seed=rows, scale=0.1)
        x, y = rng.random((16, rows)), rng.integers(0, 24, 16)
        activations = per_layer_activations(net.rbm_layers, x)
        dlogits = softmax(activations[-1] @ net.translation_w + net.translation_b)
        dlogits[np.arange(16), y] -= 1.0
        dlogits /= 16
        da = dlogits @ net.translation_w.T
        whole = [None, None]
        for k in (1, 0):
            a = activations[k + 1]
            dz = da * a * (1.0 - a)
            whole[k] = activations[k].T @ dz
            da = dz @ net.rbm_layers[k].weights.T

        rw, *_ = backprop_gradients(net, x, y)
        for r in net.rbm_layers:  # the blocks read only arrays of the backward pass
            r.weights[:] = np.nan
        for grad, expected in zip(rw, whole):
            for start in range(0, expected.shape[0], BLOCK_ROWS):
                stop = min(start + BLOCK_ROWS, expected.shape[0])
                out, tmp = (np.full((stop - start, expected.shape[1]), np.nan) for _ in range(2))
                assert grad(start, stop, out, tmp) is out
                assert out.tobytes() == expected[start:stop].tobytes()

    def test_stage3_rate_must_be_lower(self):
        with pytest.raises(ValueError):
            SupervisedTrainConfig(
                stage2=StageConfig(learning_rate=0.1),
                stage3=StageConfig(learning_rate=0.1),
            )


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path, models_equal):
        net = toy_dbn(seed=29)
        p = tmp_path / "model.hsdbn"
        save_model(net, p)
        back = load_model(p)
        assert models_equal(net, back)
        # and byte-for-byte on re-save
        p2 = tmp_path / "model2.hsdbn"
        save_model(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_layerless_round_trip(self, tmp_path, models_equal):
        rng = np.random.default_rng(43)
        net = Dbn([], rng.normal(size=(5, 24)), rng.normal(size=24))
        p = tmp_path / "m.hsdbn"
        save_model(net, p)
        back = load_model(p)
        assert back.rbm_layers == [] and back.input_dim == 5
        assert models_equal(net, back)

    def test_layered_header_has_no_input_dim(self, tmp_path):
        # the input width follows from the layers, so layered files keep their bytes
        p = tmp_path / "m.hsdbn"
        save_model(toy_dbn(seed=44), p)
        assert b"input_dim" not in p.read_bytes()

    @pytest.mark.parametrize("bad", [-1, 2.5, "5", None])
    def test_layerless_bad_input_dim(self, tmp_path, bad):
        p = tmp_path / "m.hsdbn"
        save_model(Dbn([], np.zeros((5, 24)), np.zeros(24)), p)
        data = p.read_bytes()
        header_len = int.from_bytes(data[6:10], "little")
        header = json.loads(data[10 : 10 + header_len])
        header["input_dim"] = bad
        raw = json.dumps(header).encode()
        p.write_bytes(data[:6] + len(raw).to_bytes(4, "little") + raw + data[10 + header_len :])
        with pytest.raises(FormatError):
            load_model(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.hsdbn"
        save_model(toy_dbn(seed=30), p)
        data = bytearray(p.read_bytes())
        data[:6] = b"XXDBN1"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_model(p)

    def test_truncated_tensor_names_offender(self, tmp_path):
        net = toy_dbn(seed=31)
        p = tmp_path / "m.hsdbn"
        save_model(net, p)
        data = p.read_bytes()
        # cut into the first RBM's weight block
        header_len = 6 + 4 + int.from_bytes(data[6:10], "little")
        p.write_bytes(data[: header_len + 16])
        with pytest.raises(FormatError, match="rbm1.weights"):
            load_model(p)

    def test_truncated_translation_tensor(self, tmp_path):
        net = toy_dbn(seed=32)
        p = tmp_path / "m.hsdbn"
        save_model(net, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="translation.bias"):
            load_model(p)

    def test_trailing_data_rejected(self, tmp_path):
        net = toy_dbn(seed=33)
        p = tmp_path / "m.hsdbn"
        save_model(net, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_model(p)

    def test_fine_tune_runs_on_loaded_model(self, tmp_path):
        # loaded parameters must be writable arrays that training updates in place, never in the mapped file
        p = tmp_path / "m.hsdbn"
        save_model(toy_dbn(seed=34), p)
        saved = p.read_bytes()
        net = load_model(p)
        rng = np.random.default_rng(35)
        x = rng.random((30, 6))
        y = [STATIC_LETTERS[i % 24] for i in range(30)]
        cfg = SupervisedTrainConfig(stage3=StageConfig(learning_rate=0.05, epochs=2, batch_size=10), rng_seed=36)
        fine_tune(net, (x[:20], y[:20]), (x[20:], y[20:]), cfg)
        train_translation_layer(net, (x[:20], y[:20]), (x[20:], y[20:]), cfg)
        assert not np.array_equal(net.rbm_layers[0].weights, load_model(p).rbm_layers[0].weights)
        assert p.read_bytes() == saved
