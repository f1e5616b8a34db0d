"""Command-line entry point: ``fingerspell <command> [--config run.json] ...``.

Commands
--------
gen-synthetic   write a deterministic synthetic PGM dataset + manifest
extract         preprocess every manifest sample and write a feature file
train           split, pretrain the RBM stack, fit and fine-tune the net
eval            classify the test split and write confusion/report files
predict         classify one depth/intensity PGM pair

Every command reads one JSON config (all fields optional), and each flag in
``OVERRIDES`` sets one of its fields.  All but predict echo the resolved
config into the output directory, so a run can be reproduced from its
artifacts alone.  Exits: 0 success, 2 usage/config, 3 data, 4 numeric.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from fingerspell import dataset as ds
from fingerspell import dbn as dbn_mod
from fingerspell import metrics
from fingerspell.config import RunConfig, config_from_dict, read_config_file, save_config
from fingerspell.errors import (ConfigError, EmptyDataError, FingerspellError, FormatError, MissingFileError,
                                NumericError)
from fingerspell.features import FEATURE_KINDS, extract_features, feature_dim, read_features, write_features
from fingerspell.pgm import read_pgm
from fingerspell.rbm import copy_rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class FeatureRow:
    """Label row aligned with one feature-matrix row."""

    user_id: str
    letter: str
    index: int


# ---------------------------------------------------------------------------
# shared plumbing

# The one override rule: flag -> (config field it sets, argparse options, commands that read the field).
OVERRIDES = {
    "--seed": ("rng_seed", {"type": int, "help": "override the global rng seed"}, ("gen-synthetic", "train", "eval")),
    "--workers": ("workers", {"type": int, "help": "parallel workers for feature extraction"}, ("extract",)),
    "--feature-kind": ("feature_kind", {"choices": FEATURE_KINDS}, ("extract", "train", "eval", "predict")),
    "--split": ("split.mode", {"choices": ["allseen", "unseen"]}, ("train", "eval")),
    "--test-user": ("split.test_user", {}, ("train", "eval")),
    "--model": ("paths.model", {"help": "model file (overrides paths.model)"}, ("eval", "predict")),
}


def _load_config_with_overrides(args) -> RunConfig:
    raw = {} if args.config is None else read_config_file(args.config)
    for name, _, _ in OVERRIDES.values():
        value = getattr(args, name, None)  # the flag's dest is its field; absent on commands without it
        if value is not None:
            section, _, key = name.rpartition(".")
            target = raw.setdefault(section, {}) if section else raw
            if isinstance(target, dict):  # any other section value is refused by config_from_dict
                target[key] = value
    return config_from_dict(raw)


def _echo_config(cfg: RunConfig) -> None:
    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.effective.json")


def _feature_paths(cfg: RunConfig) -> tuple[Path, Path]:
    out = Path(cfg.paths.output_dir)
    return out / f"features_{cfg.feature_kind}.bin", out / "labels.csv"


def _load_features(cfg: RunConfig):
    """The feature matrix and its label rows, checked against the config and against each other."""
    feat_path, label_path = _feature_paths(cfg)
    if not feat_path.exists():
        raise MissingFileError(f"feature file not found: {feat_path} (run extract first)")
    kind, x = read_features(feat_path)
    if kind != cfg.feature_kind:
        raise ConfigError(f"feature file holds {kind!r} features, config wants {cfg.feature_kind!r}")
    if x.shape[1] != feature_dim(cfg.feature_kind):
        raise ConfigError(f"feature dimension {x.shape[1]} does not match kind {cfg.feature_kind!r}")
    labels = ds.read_rows(label_path, "labels file")
    rows = [FeatureRow(rec["user"], rec["letter"], i) for i, (_, rec) in enumerate(labels)]
    if len(rows) != x.shape[0]:
        raise ConfigError("labels file and feature file disagree on sample count")
    if not rows:
        raise EmptyDataError(f"{feat_path} holds no samples")
    return x, rows


def _check_values(cfg: RunConfig, x, indices) -> None:
    """Raise :class:`FormatError` unless the rows ``indices`` of ``x`` are finite and in [0, 1]; no row is copied."""
    for i in indices:
        if not (x[i].min() >= 0 and x[i].max() <= 1):  # NaN fails both comparisons
            raise FormatError(f"{_feature_paths(cfg)[0]}: feature row {i} is not finite and in [0, 1]")


def _models(cfg: RunConfig, rows) -> list:
    """``(split, model path, file suffix)`` of each model that train fits and eval scores.

    An unseen split with no test user holds out each user in turn, one model (and suffix) per user.
    """
    if cfg.split.mode == "unseen" and cfg.split.test_user is None:
        p = Path(cfg.paths.model)
        return [(replace(cfg.split, test_user=user), p.with_name(f"{p.stem}_{user}{p.suffix}"), f"_{user}")
                for user in sorted({r.user_id for r in rows})]
    return [(cfg.split, Path(cfg.paths.model), "")]


def _print_users(samples, prefix: str) -> None:
    counts = ds.dataset_counts(samples)
    for user in sorted(counts):
        print(f"{prefix}{user}: {sum(counts[user].values())} samples over {len(counts[user])} letters")


# ---------------------------------------------------------------------------
# gen-synthetic

def cmd_gen_synthetic(cfg: RunConfig, n_users: int, per_class: int) -> int:
    if n_users < 1 or per_class < 1:
        raise ConfigError("--users and --per-class must be >= 1")
    manifest = Path(cfg.paths.manifest)
    if manifest.is_dir():
        raise IsADirectoryError(f"manifest path {manifest} is a directory")
    _echo_config(cfg)  # both output directories are made, or refused, before any capture is rendered
    (manifest.parent / "images").mkdir(parents=True, exist_ok=True)
    samples = ds.gen_synthetic(n_users, per_class, cfg.rng_seed)
    ds.write_dataset(manifest, samples)
    print(f"wrote {len(samples)} samples to {manifest}")
    _print_users(samples, "  ")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract

def _extract(cfg: RunConfig, depth, intensity):
    pre = cfg.preprocessing
    return extract_features(depth, intensity, cfg.feature_kind, t=pre.max_hand_depth_mm, alignment=pre.alignment)


def cmd_extract(cfg: RunConfig) -> int:
    samples = ds.load_dataset(cfg.paths.manifest)
    if not samples:
        raise EmptyDataError(f"manifest {cfg.paths.manifest} holds no samples")
    _print_users(samples, "loaded ")
    feat_path, label_path = _feature_paths(cfg)
    feat_path.parent.mkdir(parents=True, exist_ok=True)
    # rows go straight into the float32 matrix the feature file stores
    matrix = np.empty((len(samples), feature_dim(cfg.feature_kind)), dtype=np.float32)
    job, depths, intensities = partial(_extract, cfg), [s.depth for s in samples], [s.intensity for s in samples]
    with ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else nullcontext() as pool:
        vectors = map(job, depths, intensities) if pool is None else pool.map(job, depths, intensities, chunksize=16)
        for i, vec in enumerate(vectors):
            matrix[i] = vec

    write_features(feat_path, cfg.feature_kind, matrix)
    with open(label_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "letter"])
        for s in samples:
            writer.writerow([s.user_id, s.letter])
    _echo_config(cfg)
    print(f"extracted {matrix.shape[0]} x {matrix.shape[1]} {cfg.feature_kind} features -> {feat_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def _train_one_model(cfg: RunConfig, x, train_rows, valid_rows):
    """The trained network and its log rows; every stage reads the rows of the float32 ``x`` by index."""
    train = x, [r.letter for r in train_rows], np.array([r.index for r in train_rows])
    valid = x, [r.letter for r in valid_rows], np.array([r.index for r in valid_rows])
    log_rows = []

    def rbm_log(layer, epoch, err):
        log_rows.append((f"rbm{layer + 1}", epoch, "", "", f"{err:.6f}"))

    rbms = dbn_mod.pretrain(x, cfg.layer_sizes, cfg.rbm, on_epoch=rbm_log, rows=train[2])
    net = dbn_mod.Dbn.from_rbms(rbms, rng=np.random.default_rng(cfg.supervised.rng_seed + 3))

    def stage_log(stage):
        def cb(epoch, train_loss, valid_loss):
            log_rows.append((stage, epoch, f"{train_loss:.6f}", f"{valid_loss:.6f}", ""))
        return cb

    dbn_mod.train_translation_layer(net, train, valid, cfg.supervised, on_epoch=stage_log("stage2"))
    dbn_mod.fine_tune(net, train, valid, cfg.supervised, on_epoch=stage_log("stage3"))
    return net, log_rows


def _release_freed_heap() -> None:
    """Return the heap pages that training freed to the OS (glibc's ``malloc_trim``; a no-op elsewhere).

    Otherwise they stay resident, and a later ``eval`` or ``predict`` in
    the same process maps its model file on top of them.
    """
    import ctypes  # only train pays for the import

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc, or no process handle on this platform
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def cmd_train(cfg: RunConfig) -> int:
    x, rows = _load_features(cfg)
    models = _models(cfg, rows)
    for _, model_path, _ in models:
        if model_path.is_dir():
            raise ConfigError(f"model path {model_path} is a directory")
        model_path.parent.mkdir(parents=True, exist_ok=True)
    splits = [ds.split_dataset(rows, spec)[:2] for spec, _, _ in models]
    for (spec, _, _), split in zip(models, splits):
        for name, part in zip(("train", "validation"), split):
            if not part:
                who = "" if spec.test_user is None else f" with {spec.test_user} held out"
                raise EmptyDataError(f"{spec.mode} split{who} leaves the {name} set empty")
    _check_values(cfg, x, sorted({r.index for split in splits for part in split for r in part}))
    _echo_config(cfg)
    if models[0][2]:  # one model per held-out user
        print(f"unseen split with no test user set: training {len(models)} hold-out models")
    sizes = "/".join(str(s) for s in cfg.layer_sizes)
    for (spec, model_path, suffix), (train_rows, valid_rows) in zip(models, splits):
        if spec.test_user is not None:
            print(f"held-out user: {spec.test_user}")
        net, log_rows = _train_one_model(cfg, x, train_rows, valid_rows)
        dbn_mod.save_model(net, model_path)
        with open(Path(cfg.paths.output_dir) / f"train_log{suffix}.csv", "w", newline="") as fh:
            fh.write(f"# layer_sizes={sizes} feature_kind={cfg.feature_kind} split={cfg.split.mode}\n")
            if spec.test_user is not None:
                fh.write(f"# held_out_user={spec.test_user}\n")
            writer = csv.writer(fh)
            writer.writerow(["stage", "epoch", "train_loss", "valid_loss", "recon_error"])
            writer.writerows(log_rows)
        print(f"saved {model_path}")
    del x, rows, models, splits, net, log_rows  # freed first, so the trim returns their pages too
    _release_freed_heap()
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval

def cmd_eval(cfg: RunConfig) -> int:
    x, rows = _load_features(cfg)
    _echo_config(cfg)
    out = Path(cfg.paths.output_dir)
    models = _models(cfg, rows)
    tests = [ds.split_dataset(rows, spec)[2] for spec, _, _ in models]
    _check_values(cfg, x, sorted({r.index for part in tests for r in part}))
    reports = {}  # held-out user (None for a single model) -> report
    for (spec, path, suffix), test_rows in zip(models, tests):
        if not path.exists():
            raise MissingFileError(f"model not found: {path} (train with the same split first)")
        net = dbn_mod.load_model(path)
        scores = net.scores(copy_rows(x, [r.index for r in test_rows]))
        preds = [net.class_labels[i] for i in np.argmax(scores, axis=1)]
        cm = metrics.confusion(preds, [r.letter for r in test_rows], labels=net.class_labels)
        split_name = spec.mode if spec.test_user is None else f"unseen:{spec.test_user}"
        report = metrics.precision_recall(cm, split=split_name, labels=net.class_labels)
        metrics.confusion_to_csv(cm, out / f"confusion{suffix}.csv", labels=net.class_labels)
        report.save_json(out / f"report{suffix}.json")
        report.save_csv(out / f"report{suffix}.csv")
        reports[spec.test_user] = report
        print(f"{split_name}: {report.total} samples, macro recall {report.macro_recall:.4f} "
              f"precision {report.macro_precision:.4f}")
    if models[0][2]:  # one model per held-out user
        users = {u: {"macro_recall": r.macro_recall, "macro_precision": r.macro_precision} for u, r in reports.items()}
        averaged = {
            "split": "unseen:averaged",
            "users": users,
            "macro_recall": float(np.mean([r.macro_recall for r in reports.values()])),
            "macro_precision": float(np.mean([r.macro_precision for r in reports.values()])),
        }
        with open(out / "report_unseen_averaged.json", "w") as fh:
            json.dump(averaged, fh, indent=2)
        print(f"averaged over {len(reports)} hold-outs: macro recall {averaged['macro_recall']:.4f} "
              f"precision {averaged['macro_precision']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict

def _read_capture(cfg: RunConfig, depth_path, intensity_path):
    """The feature vector of one checked depth/intensity PGM pair, rounded to float32 as the feature file stores it.

    So ``predict`` scores the vector that ``train`` and ``eval`` read for the same capture.
    """
    depth, intensity = read_pgm(depth_path), read_pgm(intensity_path)
    ds.check_pair(depth, intensity, f"{depth_path}, {intensity_path}")
    return _extract(cfg, depth.astype(np.int32), intensity).astype(np.float32)


def cmd_predict(cfg: RunConfig, depth_path, intensity_path) -> int:
    for p in (depth_path, intensity_path):
        if not Path(p).exists():
            raise MissingFileError(f"input image not found: {p}")
    if not Path(cfg.paths.model).exists():
        raise MissingFileError(f"model not found: {cfg.paths.model}")
    x = _read_capture(cfg, depth_path, intensity_path)  # so a capture fault is reported before a model fault
    net = dbn_mod.load_model(cfg.paths.model)
    prediction = net.forward(x)
    print(f"predicted: {prediction.label}")
    for i in np.argsort(-prediction.scores, kind="stable"):  # tied scores in class order, on any SIMD level
        print(f"  {net.class_labels[i]} {prediction.scores[i]:.12f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` keeps no state between calls, so ``main`` reuses it."""
    parser = argparse.ArgumentParser(prog="fingerspell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, help_text):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        for flag, (name, options, readers) in OVERRIDES.items():
            if command in readers:
                p.add_argument(flag, dest=name, **options)
        return p

    p = add("gen-synthetic", "generate a synthetic dataset")
    p.add_argument("--users", type=int, default=3)
    p.add_argument("--per-class", dest="per_class", type=int, default=10)
    add("extract", "extract feature vectors from the manifest")
    add("train", "train the network on extracted features")
    add("eval", "evaluate a trained model on the test split")
    p = add("predict", "classify one depth/intensity pair")
    p.add_argument("depth", help="depth PGM (16-bit, mm)")
    p.add_argument("intensity", help="intensity PGM (8-bit)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config_with_overrides(args)
        if args.command == "gen-synthetic":
            return cmd_gen_synthetic(cfg, args.users, args.per_class)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        return cmd_predict(cfg, args.depth, args.intensity)  # the subcommand is required
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FingerspellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
