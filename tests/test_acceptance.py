"""Acceptance suite: one numbered test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines (add ``-s`` to see the progress prints).  Criteria 6 and
7 perform the full synthetic end-to-end run through the CLI and dominate
the runtime (several minutes on one desktop core).
"""

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.cli import main
from fingerspell.dataset import Sample, SplitSpec, split_dataset
from fingerspell.dbn import (
    Dbn,
    StageConfig,
    SupervisedTrainConfig,
    backprop_gradients,
    cross_entropy_loss,
    load_model,
    pretrain,
    save_model,
    train_translation_layer,
)
from fingerspell.errors import FormatError
from fingerspell.features import depth_layers, extract_features, read_features, write_features
from fingerspell.metrics import EvalReport, precision_recall, write_comparison
from fingerspell.rbm import Rbm, RbmTrainConfig, train_rbm

RESULTS: dict = {}


def report(criterion: int, message: str) -> None:
    print(f"\ncriterion {criterion:02d}: PASS ({message})")


def random_pair(rng, size_lo=36, size_hi=72):
    """Random speckle depth image + random intensity image."""
    h = int(rng.integers(size_lo, size_hi))
    w = int(rng.integers(size_lo, size_hi))
    base = int(rng.integers(300, 3000))
    depth = np.where(
        rng.random((h, w)) < 0.5,
        rng.integers(base, base + 400, (h, w)),
        0,
    ).astype(np.int32)
    if not (depth > 0).any():
        depth[h // 2, w // 2] = base
    intensity = rng.integers(0, 256, (h, w)).astype(np.uint8)
    return depth, intensity


def test_criterion_01_feature_invariance_suite():
    start = time.monotonic()
    rng = np.random.default_rng(20240601)
    n = 1000
    for i in range(n):
        depth, intensity = random_pair(rng)
        baseline = extract_features(depth, intensity, "combined")

        offset = int(rng.integers(1, 5000))
        shifted = depth.copy()
        shifted[shifted > 0] += offset
        assert extract_features(shifted, intensity, "combined").tobytes() == baseline.tobytes()

        d = int(depth[depth > 0].min())
        modified = depth.copy()
        far = modified > 120 + d
        if far.any():
            modified[far] = rng.integers(121 + d, 121 + d + 9000, int(far.sum()))
            assert extract_features(modified, intensity, "combined").tobytes() == baseline.tobytes()

        # layer nesting before any centering, every pixel
        cleaned = np.where(depth > 120 + d, 0, depth)
        cleaned = np.where(cleaned > 0, cleaned - (d - 1), 0)
        stack = depth_layers(cleaned, n=6, t=120)
        assert (stack[:-1] <= stack[1:]).all()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"invariance suite took {elapsed:.1f}s (budget 60s)"
    report(1, f"{n} randomized images, bit-identical under offset/background edits, {elapsed:.1f}s")


def test_criterion_02_layer_rule_brute_force_oracle():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(120):
        h, w = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        img = np.where(rng.random((h, w)) < 0.7, rng.integers(1, 140, (h, w)), 0).astype(np.int32)
        n = int(rng.integers(1, 9))
        t = int(rng.integers(20, 200))
        expected = np.zeros((n, h, w), dtype=np.uint8)
        for l in range(1, n + 1):
            for y in range(h):
                for x in range(w):
                    v = img[y, x]
                    if v > 0 and v <= (l - 1) * (t / n) + 1:
                        expected[l - 1, y, x] = 1
        assert np.array_equal(depth_layers(img, n, t), expected)
        checked += 1
    report(2, f"{checked} random images match the per-pixel brute-force evaluation exactly")


def test_criterion_03_gradient_checks():
    rng = np.random.default_rng(3001)
    rbms = [
        Rbm(6, 4, weights=rng.normal(0, 0.8, (6, 4)), hidden_bias=rng.normal(0, 0.5, 4)),
        Rbm(4, 3, weights=rng.normal(0, 0.8, (4, 3)), hidden_bias=rng.normal(0, 0.5, 3)),
    ]
    net = Dbn(rbms, rng.normal(0, 0.8, (3, 24)), rng.normal(0, 0.1, 24), STATIC_LETTERS)
    x = rng.random((9, 6))
    y = rng.integers(0, 24, 9)
    rw, rb, gw_t, gb_t, _ = backprop_gradients(net, x, y)
    # each weight gradient comes as a block function; take all its rows as one block
    rw = [g(0, r.n_visible, np.empty_like(r.weights), np.empty_like(r.weights)) for g, r in zip(rw, net.rbm_layers)]

    eps = 1e-4
    worst = 0.0
    count = 0

    def check(param, idx, analytic):
        nonlocal worst, count
        old = param[idx]
        param[idx] = old + eps
        up = cross_entropy_loss(net, x, y)
        param[idx] = old - eps
        down = cross_entropy_loss(net, x, y)
        param[idx] = old
        fd = (up - down) / (2 * eps)
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
        worst = max(worst, rel)
        count += 1
        assert rel < 1e-5, f"gradient mismatch at {idx}: {analytic} vs {fd}"

    # stage-2 path: translation parameters
    for idx in np.ndindex(net.translation_w.shape):
        check(net.translation_w, idx, gw_t[idx])
    for idx in np.ndindex(net.translation_b.shape):
        check(net.translation_b, idx, gb_t[idx])
    # stage-3 path: every hidden-layer parameter as well
    for k, rbm in enumerate(net.rbm_layers):
        for idx in np.ndindex(rbm.weights.shape):
            check(rbm.weights, idx, rw[k][idx])
        for idx in np.ndindex(rbm.hidden_bias.shape):
            check(rbm.hidden_bias, idx, rb[k][idx])
    report(3, f"{count} parameters checked against central differences, worst rel err {worst:.2e}")


def test_criterion_04_cd1_sanity():
    rng = np.random.default_rng(404)
    templates = (rng.random((16, 64)) < 0.5).astype(float)
    rows = templates[np.arange(500) % 16]
    flips = rng.random(rows.shape) < 0.02
    data = np.abs(rows - flips.astype(float))

    cfg = RbmTrainConfig(epochs=60, rng_seed=6060)
    errors = []
    rbm_a = train_rbm(data, cfg, n_hidden=32, on_epoch=lambda e, err: errors.append(err))
    assert errors[-1] < 0.3 * errors[0], f"reconstruction error {errors[-1]:.4f} vs epoch-1 {errors[0]:.4f}"

    rbm_b = train_rbm(data, cfg, n_hidden=32)
    assert rbm_a.weights.tobytes() == rbm_b.weights.tobytes()
    assert rbm_a.visible_bias.tobytes() == rbm_b.visible_bias.tobytes()
    assert rbm_a.hidden_bias.tobytes() == rbm_b.hidden_bias.tobytes()
    report(4, f"error {errors[0]:.4f} -> {errors[-1]:.4f} ({errors[-1] / errors[0]:.1%}), repeat bit-identical")


def test_criterion_05_frozen_layer_contract():
    rng = np.random.default_rng(505)
    templates = (rng.random((8, 20)) < 0.5).astype(float)
    x = templates[np.arange(160) % 8]
    y = [STATIC_LETTERS[i % 24] for i in range(160)]

    rbms = pretrain(x[:120], [12, 8], RbmTrainConfig(epochs=10, batch_size=40, rng_seed=1))
    net = Dbn.from_rbms(rbms, rng=np.random.default_rng(2))
    before = [
        (r.weights.tobytes(), r.visible_bias.tobytes(), r.hidden_bias.tobytes())
        for r in net.rbm_layers
    ]
    cfg = SupervisedTrainConfig(stage2=StageConfig(epochs=15), rng_seed=3)
    train_translation_layer(net, (x[:120], y[:120]), (x[120:], y[120:]), cfg)
    after = [
        (r.weights.tobytes(), r.visible_bias.tobytes(), r.hidden_bias.tobytes())
        for r in net.rbm_layers
    ]
    assert before == after
    report(5, "all RBM parameter bytes identical after translation-layer training")


def _criterion6_config(base: Path, out: str, split: dict) -> Path:
    cfg = {
        "paths": {
            "manifest": str(base / "data" / "manifest.csv"),
            "output_dir": str(base / out),
            "model": str(base / out / "model.hsdbn"),
        },
        "feature_kind": "combined",
        "layer_sizes": [200, 100, 50],
        "rbm": {"epochs": 20},
        "supervised": {"stage2": {"epochs": 50}, "stage3": {"epochs": 20, "learning_rate": 0.01}},
        "split": split,
        "rng_seed": 4242,
    }
    path = base / f"config_{out}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.slow
def test_criterion_06_end_to_end_synthetic_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("endtoend")
    start = time.monotonic()

    cfg_allseen = _criterion6_config(base, "out_allseen", {"mode": "allseen"})
    assert main(["gen-synthetic", "--config", str(cfg_allseen), "--users", "3", "--per-class", "40"]) == 0
    assert main(["extract", "--config", str(cfg_allseen)]) == 0
    assert main(["train", "--config", str(cfg_allseen)]) == 0
    assert main(["eval", "--config", str(cfg_allseen)]) == 0
    rep_allseen = EvalReport.load_json(base / "out_allseen" / "report.json")

    # unseen variant on the same data and features (strictly harder split)
    cfg_unseen = _criterion6_config(base, "out_unseen", {"mode": "unseen", "test_user": "u00"})
    (base / "out_unseen").mkdir(exist_ok=True)
    for name in ("features_combined.bin", "labels.csv"):
        shutil.copy(base / "out_allseen" / name, base / "out_unseen" / name)
    assert main(["train", "--config", str(cfg_unseen)]) == 0
    assert main(["eval", "--config", str(cfg_unseen)]) == 0
    rep_unseen = EvalReport.load_json(base / "out_unseen" / "report.json")

    elapsed = time.monotonic() - start
    RESULTS["base"] = base
    RESULTS["allseen_report"] = rep_allseen

    assert rep_allseen.macro_recall >= 0.95, f"allseen macro recall {rep_allseen.macro_recall:.4f}"
    assert rep_allseen.macro_precision >= 0.95, f"allseen macro precision {rep_allseen.macro_precision:.4f}"
    assert rep_unseen.macro_recall >= 0.80, f"unseen macro recall {rep_unseen.macro_recall:.4f}"
    assert rep_allseen.macro_recall > rep_unseen.macro_recall, "expected allseen > unseen ordering"
    assert elapsed < 600.0, f"end-to-end run took {elapsed:.0f}s (budget 600s)"
    report(
        6,
        f"allseen {rep_allseen.macro_recall:.3f}/{rep_allseen.macro_precision:.3f}, "
        f"unseen {rep_unseen.macro_recall:.3f}/{rep_unseen.macro_precision:.3f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_07_feature_kind_comparison():
    assert "base" in RESULTS, "criterion 6 must run first"
    base = RESULTS["base"]

    cfg_raw = _criterion6_config(base, "out_raw", {"mode": "allseen"})
    raw = json.loads(cfg_raw.read_text())
    raw["feature_kind"] = "raw"
    cfg_raw.write_text(json.dumps(raw))

    assert main(["extract", "--config", str(cfg_raw)]) == 0
    assert main(["train", "--config", str(cfg_raw)]) == 0
    assert main(["eval", "--config", str(cfg_raw)]) == 0
    rep_raw = EvalReport.load_json(base / "out_raw" / "report.json")

    table = write_comparison(
        [("layered", RESULTS["allseen_report"]), ("raw", rep_raw)],
        base / "comparison.csv",
        base / "comparison.json",
    )
    assert table["names"] == ["layered", "raw"]
    assert (base / "comparison.csv").exists() and (base / "comparison.json").exists()
    assert len(table["rows"]) == 24
    report(
        7,
        f"raw run complete (macro recall {rep_raw.macro_recall:.3f}); 2-run comparison table emitted",
    )


def test_criterion_08_metric_oracle():
    rng = np.random.default_rng(808)
    for _ in range(100):
        cm = rng.integers(0, 40, (24, 24)).astype(np.int64)
        for _ in range(int(rng.integers(0, 5))):
            cm[int(rng.integers(0, 24)), :] = 0
        for _ in range(int(rng.integers(0, 5))):
            cm[:, int(rng.integers(0, 24))] = 0
        rep = precision_recall(cm)
        for i in range(24):
            row = int(cm[i].sum())
            col = int(cm[:, i].sum())
            if row == 0:
                assert rep.recall[i] is None
            else:
                assert abs(rep.recall[i] - cm[i, i] / row) < 1e-12
            if col == 0:
                assert rep.precision[i] is None
            else:
                assert abs(rep.precision[i] - cm[i, i] / col) < 1e-12
    report(8, "100 random confusion matrices agree with per-class counting within 1e-12")


def _fake_samples(rng, n_users=5):
    samples = []
    for u in range(n_users):
        for letter in STATIC_LETTERS:
            for _ in range(int(rng.integers(1, 8))):
                samples.append(
                    Sample(f"u{u:02d}", letter, np.ones((32, 32), np.int32), np.ones((32, 32), np.uint8))
                )
    return samples


def test_criterion_09_split_properties():
    rng = np.random.default_rng(909)
    trials = 0

    for _ in range(400):
        samples = _fake_samples(rng)
        spec = SplitSpec(mode="allseen", rng_seed=int(rng.integers(0, 2**31)))
        train, valid, test = split_dataset(samples, spec)
        ids = lambda part: {id(s) for s in part}
        assert ids(train) | ids(valid) | ids(test) == ids(samples)
        assert len(train) + len(valid) + len(test) == len(samples)
        strata: dict = {}
        for part_name, part in (("train", train), ("valid", valid), ("test", test)):
            for s in part:
                strata.setdefault((s.user_id, s.letter), {"train": 0, "valid": 0, "test": 0})
                strata[(s.user_id, s.letter)][part_name] += 1
        for counts in strata.values():
            n = sum(counts.values())
            assert abs(counts["test"] - n / 4) <= 1
            assert abs(counts["valid"] - n / 4) <= 1
            assert abs(counts["train"] - n / 2) <= 1
        trials += 1

    for _ in range(400):
        samples = _fake_samples(rng)
        user = f"u{int(rng.integers(0, 5)):02d}"
        spec = SplitSpec(mode="unseen", test_user=user, rng_seed=int(rng.integers(0, 2**31)))
        train, valid, test = split_dataset(samples, spec)
        assert {s.user_id for s in test} == {user}
        assert user not in {s.user_id for s in train} | {s.user_id for s in valid}
        trials += 1

    for _ in range(200):
        samples = _fake_samples(rng)
        seed = int(rng.integers(0, 2**31))
        seen = []
        for u in range(5):
            spec = SplitSpec(mode="unseen", test_user=f"u{u:02d}", rng_seed=seed)
            _, _, test = split_dataset(samples, spec)
            seen.extend(id(s) for s in test)
        assert sorted(seen) == sorted(id(s) for s in samples)
        trials += 1

    report(9, f"{trials} seeded trials: stratified partition, no leakage, exact leave-one-out coverage")


def test_criterion_10_serialization(tmp_path, models_equal):
    rng = np.random.default_rng(1010)
    rbms = [
        Rbm(10, 6, weights=rng.normal(0, 0.2, (10, 6)), visible_bias=rng.normal(size=10), hidden_bias=rng.normal(size=6)),
        Rbm(6, 4, weights=rng.normal(0, 0.2, (6, 4)), hidden_bias=rng.normal(size=4)),
    ]
    net = Dbn(rbms, rng.normal(0, 0.2, (4, 24)), rng.normal(size=24), STATIC_LETTERS)

    model_path = tmp_path / "m.hsdbn"
    save_model(net, model_path)
    assert models_equal(net, load_model(model_path))
    twice = tmp_path / "m2.hsdbn"
    save_model(load_model(model_path), twice)
    assert model_path.read_bytes() == twice.read_bytes()

    corrupted = bytearray(model_path.read_bytes())
    corrupted[:6] = b"BOGUS!"
    bad = tmp_path / "bad.hsdbn"
    bad.write_bytes(bytes(corrupted))
    with pytest.raises(FormatError, match="magic"):
        load_model(bad)
    trunc = tmp_path / "trunc.hsdbn"
    trunc.write_bytes(model_path.read_bytes()[:-4])
    with pytest.raises(FormatError, match="translation.bias"):
        load_model(trunc)

    feat_path = tmp_path / "f.bin"
    matrix = rng.random((17, 40)).astype(np.float32)
    write_features(feat_path, "combined", matrix)
    kind, back = read_features(feat_path)
    assert kind == "combined" and back.astype(np.float32).tobytes() == matrix.tobytes()
    feat2 = tmp_path / "f2.bin"
    write_features(feat2, kind, back)
    assert feat_path.read_bytes() == feat2.read_bytes()
    broken = bytearray(feat_path.read_bytes())
    broken[0] = 0
    feat_bad = tmp_path / "fbad.bin"
    feat_bad.write_bytes(bytes(broken))
    with pytest.raises(FormatError, match="magic"):
        read_features(feat_bad)
    report(10, "model and feature files round-trip bit-exactly; corruption raises named FormatError")


def test_criterion_11_full_scale_recipe_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "1500" in readme and "700" in readme and "400" in readme
    assert "99" in readme and "77" in readme and "79" in readme
    assert "tolerance" in readme.lower()
    report(11, "README documents the full-scale recipe and its unspecified tolerance")
