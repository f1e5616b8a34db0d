"""Command-line entry point: ``fingerspell <command> [--config run.json] ...``.

Commands
--------
gen-synthetic   write a deterministic synthetic PGM dataset + manifest
extract         preprocess every manifest sample and write a feature file
train           split, pretrain the RBM stack, fit and fine-tune the net
eval            classify the test split and write confusion/report files
predict         classify one depth/intensity PGM pair

Every command reads the same JSON config (all fields optional, flags
override) and echoes the fully resolved configuration into the output
directory, so a run can be reproduced from its artifacts alone.  Exit
codes: 0 success, 2 usage/config error, 3 data error, 4 numeric failure.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fingerspell import dataset as ds
from fingerspell import dbn as dbn_mod
from fingerspell import metrics
from fingerspell.config import RunConfig, config_from_dict, config_to_dict
from fingerspell.errors import ConfigError, FingerspellError, MissingFileError, NumericError
from fingerspell.features import extract_features, feature_dim, read_features, write_features
from fingerspell.pgm import read_pgm

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

def _load_config_with_overrides(args) -> RunConfig:
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    else:
        raw = {}
    if getattr(args, "seed", None) is not None:
        raw["rng_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        raw["workers"] = args.workers
    if getattr(args, "feature_kind", None) is not None:
        raw["feature_kind"] = args.feature_kind
    split = dict(raw.get("split", {}))
    if getattr(args, "split", None) is not None:
        split["mode"] = args.split
    if getattr(args, "test_user", None) is not None:
        split["test_user"] = args.test_user
    if split:
        raw["split"] = split
    return config_from_dict(raw)


def _echo_config(cfg: RunConfig) -> None:
    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "config.effective.json", "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)


def _feature_paths(cfg: RunConfig) -> tuple[Path, Path]:
    out = Path(cfg.paths.output_dir)
    return out / f"features_{cfg.feature_kind}.bin", out / "labels.csv"


def _read_labels(path) -> list:
    if not Path(path).exists():
        raise MissingFileError(f"labels file not found: {path}")
    rows = []
    with open(path, newline="") as fh:
        for i, rec in enumerate(csv.DictReader(fh)):
            rows.append(FeatureRow(rec["user"], rec["letter"], i))
    return rows


def _model_path_for_user(model_path, user_id: str) -> Path:
    p = Path(model_path)
    return p.with_name(f"{p.stem}_{user_id}{p.suffix}")


# ---------------------------------------------------------------------------
# gen-synthetic

def cmd_gen_synthetic(cfg: RunConfig, n_users: int, per_class: int) -> int:
    if n_users < 1 or per_class < 1:
        raise ConfigError("--users and --per-class must be >= 1")
    samples = ds.gen_synthetic(n_users, per_class, cfg.rng_seed)
    manifest = ds.write_dataset(cfg.paths.manifest, samples)
    _echo_config(cfg)
    counts = ds.dataset_counts(samples)
    print(f"wrote {len(samples)} samples to {manifest}")
    for user in sorted(counts):
        total = sum(counts[user].values())
        print(f"  {user}: {total} samples over {len(counts[user])} letters")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract

def _extract_one(job):
    depth, intensity, kind, t, n_layers, alignment, filter_bank = job
    return extract_features(
        depth, intensity, kind, t=t, n_layers=n_layers, alignment=alignment, filter_bank=filter_bank
    )


def cmd_extract(cfg: RunConfig) -> int:
    samples = ds.load_dataset(cfg.paths.manifest)
    if not samples:
        print("manifest is empty; nothing to extract")
        return EXIT_OK
    counts = ds.dataset_counts(samples)
    for user in sorted(counts):
        total = sum(counts[user].values())
        print(f"loaded {user}: {total} samples over {len(counts[user])} letters")
    pre = cfg.preprocessing
    jobs = [
        (s.depth, s.intensity, cfg.feature_kind, pre.max_hand_depth_mm, pre.n_layers, pre.alignment, cfg.filter_bank)
        for s in samples
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            vectors = list(pool.map(_extract_one, jobs, chunksize=16))
    else:
        vectors = [_extract_one(job) for job in jobs]
    matrix = np.vstack(vectors)

    feat_path, label_path = _feature_paths(cfg)
    feat_path.parent.mkdir(parents=True, exist_ok=True)
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

def _train_one_model(cfg: RunConfig, x, rows, split_spec, log_rows):
    train_rows, valid_rows, _ = ds.split_dataset(rows, split_spec)
    xt = x[[r.index for r in train_rows]]
    yt = [r.letter for r in train_rows]
    xv = x[[r.index for r in valid_rows]]
    yv = [r.letter for r in valid_rows]

    def rbm_log(layer, epoch, err):
        log_rows.append((f"rbm{layer + 1}", epoch, "", "", f"{err:.6f}"))

    rbms = dbn_mod.pretrain(xt, cfg.layer_sizes, cfg.rbm_configs(), on_epoch=rbm_log)
    net = dbn_mod.Dbn.from_rbms(rbms, rng=np.random.default_rng(cfg.supervised.rng_seed + 3))

    def stage_log(stage):
        def cb(epoch, train_loss, valid_loss):
            log_rows.append((stage, epoch, f"{train_loss:.6f}", f"{valid_loss:.6f}", ""))
        return cb

    dbn_mod.train_translation_layer(net, (xt, yt), (xv, yv), cfg.supervised, on_epoch=stage_log("stage2"))
    dbn_mod.fine_tune(net, (xt, yt), (xv, yv), cfg.supervised, on_epoch=stage_log("stage3"))
    return net


def cmd_train(cfg: RunConfig) -> int:
    feat_path, label_path = _feature_paths(cfg)
    if not feat_path.exists():
        raise MissingFileError(f"feature file not found: {feat_path} (run extract first)")
    kind, x = read_features(feat_path)
    if kind != cfg.feature_kind:
        raise ConfigError(f"feature file holds {kind!r} features, config wants {cfg.feature_kind!r}")
    if x.shape[1] != feature_dim(cfg.feature_kind, cfg.filter_bank):
        raise ConfigError(f"feature dimension {x.shape[1]} does not match kind {cfg.feature_kind!r}")
    rows = _read_labels(label_path)
    if len(rows) != x.shape[0]:
        raise ConfigError("labels file and feature file disagree on sample count")

    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg)
    sizes = "/".join(str(s) for s in cfg.layer_sizes)

    if cfg.split.mode == "unseen" and cfg.split.test_user is None:
        users = sorted({r.user_id for r in rows})
        print(f"unseen split with no test user set: training {len(users)} hold-out models")
        for user in users:
            log_rows: list = []
            spec = ds.SplitSpec(mode="unseen", test_user=user, rng_seed=cfg.split.rng_seed)
            print(f"held-out user: {user}")
            net = _train_one_model(cfg, x, rows, spec, log_rows)
            model_path = _model_path_for_user(cfg.paths.model, user)
            Path(model_path).parent.mkdir(parents=True, exist_ok=True)
            dbn_mod.save_model(net, model_path)
            _write_train_log(out / f"train_log_{user}.csv", sizes, cfg, log_rows, held_out=user)
            print(f"saved {model_path}")
        return EXIT_OK

    log_rows = []
    held_out = cfg.split.test_user if cfg.split.mode == "unseen" else None
    if held_out is not None:
        print(f"held-out user: {held_out}")
    net = _train_one_model(cfg, x, rows, cfg.split, log_rows)
    Path(cfg.paths.model).parent.mkdir(parents=True, exist_ok=True)
    dbn_mod.save_model(net, cfg.paths.model)
    _write_train_log(out / "train_log.csv", sizes, cfg, log_rows, held_out=held_out)
    print(f"saved {cfg.paths.model}")
    return EXIT_OK


def _write_train_log(path, sizes, cfg, log_rows, held_out=None):
    with open(path, "w", newline="") as fh:
        fh.write(f"# layer_sizes={sizes} feature_kind={cfg.feature_kind} split={cfg.split.mode}\n")
        if held_out is not None:
            fh.write(f"# held_out_user={held_out}\n")
        writer = csv.writer(fh)
        writer.writerow(["stage", "epoch", "train_loss", "valid_loss", "recon_error"])
        writer.writerows(log_rows)


# ---------------------------------------------------------------------------
# eval

def _evaluate_model(net, x, rows, split_name):
    scores = net.scores(x[[r.index for r in rows]])
    preds = [net.class_labels[i] for i in np.argmax(scores, axis=1)]
    truths = [r.letter for r in rows]
    cm = metrics.confusion(preds, truths, labels=net.class_labels)
    return cm, metrics.precision_recall(cm, split=split_name, labels=net.class_labels)


def cmd_eval(cfg: RunConfig, model_path=None) -> int:
    feat_path, label_path = _feature_paths(cfg)
    if not feat_path.exists():
        raise MissingFileError(f"feature file not found: {feat_path} (run extract first)")
    _, x = read_features(feat_path)
    rows = _read_labels(label_path)
    out = Path(cfg.paths.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = Path(model_path) if model_path is not None else Path(cfg.paths.model)
    _echo_config(cfg)

    if cfg.split.mode == "unseen" and cfg.split.test_user is None:
        users = sorted({r.user_id for r in rows})
        reports = []
        for user in users:
            per_user = _model_path_for_user(model_path, user)
            if not per_user.exists():
                raise MissingFileError(
                    f"per-user model not found: {per_user} (train with split=unseen and no test user)"
                )
            net = dbn_mod.load_model(per_user)
            spec = ds.SplitSpec(mode="unseen", test_user=user, rng_seed=cfg.split.rng_seed)
            _, _, test_rows = ds.split_dataset(rows, spec)
            cm, report = _evaluate_model(net, x, test_rows, f"unseen:{user}")
            metrics.confusion_to_csv(cm, out / f"confusion_{user}.csv", labels=net.class_labels)
            report.save_json(out / f"report_{user}.json")
            report.save_csv(out / f"report_{user}.csv")
            reports.append((user, report))
            print(f"{user}: macro recall {report.macro_recall:.4f} precision {report.macro_precision:.4f}")
        averaged = {
            "split": "unseen:averaged",
            "users": {u: {"macro_recall": r.macro_recall, "macro_precision": r.macro_precision} for u, r in reports},
            "macro_recall": float(np.mean([r.macro_recall for _, r in reports])),
            "macro_precision": float(np.mean([r.macro_precision for _, r in reports])),
        }
        with open(out / "report_unseen_averaged.json", "w") as fh:
            json.dump(averaged, fh, indent=2)
        print(
            f"averaged over {len(reports)} hold-outs: macro recall {averaged['macro_recall']:.4f} "
            f"precision {averaged['macro_precision']:.4f}"
        )
        return EXIT_OK

    net = dbn_mod.load_model(model_path)
    _, _, test_rows = ds.split_dataset(rows, cfg.split)
    split_name = cfg.split.mode if cfg.split.test_user is None else f"unseen:{cfg.split.test_user}"
    cm, report = _evaluate_model(net, x, test_rows, split_name)
    metrics.confusion_to_csv(cm, out / "confusion.csv", labels=net.class_labels)
    report.save_json(out / "report.json")
    report.save_csv(out / "report.csv")
    print(f"{split_name}: {report.total} samples, macro recall {report.macro_recall:.4f} "
          f"precision {report.macro_precision:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict

def cmd_predict(cfg: RunConfig, model_path, depth_path, intensity_path) -> int:
    for p in (depth_path, intensity_path):
        if not Path(p).exists():
            raise MissingFileError(f"input image not found: {p}")
    depth = read_pgm(depth_path).astype(np.int32)
    intensity = read_pgm(intensity_path)
    net = dbn_mod.load_model(model_path if model_path is not None else cfg.paths.model)
    pre = cfg.preprocessing
    vec = extract_features(
        depth,
        intensity,
        cfg.feature_kind,
        t=pre.max_hand_depth_mm,
        n_layers=pre.n_layers,
        alignment=pre.alignment,
        filter_bank=cfg.filter_bank,
    )
    prediction = net.forward(vec)
    print(f"predicted: {prediction.label}")
    order = np.argsort(prediction.scores)[::-1]
    for i in order:
        print(f"  {net.class_labels[i]} {prediction.scores[i]:.12f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fingerspell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the global rng seed")
        p.add_argument("--workers", type=int, help="parallel workers for feature extraction")
        p.add_argument("--feature-kind", dest="feature_kind", choices=["combined", "raw", "gabor", "bar"])
        p.add_argument("--split", choices=["allseen", "unseen"])
        p.add_argument("--test-user", dest="test_user")

    p = sub.add_parser("gen-synthetic", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--users", type=int, default=3)
    p.add_argument("--per-class", dest="per_class", type=int, default=10)

    p = sub.add_parser("extract", help="extract feature vectors from the manifest")
    common(p)

    p = sub.add_parser("train", help="train the network on extracted features")
    common(p)

    p = sub.add_parser("eval", help="evaluate a trained model on the test split")
    common(p)
    p.add_argument("--model", help="model file (defaults to config paths.model)")

    p = sub.add_parser("predict", help="classify one depth/intensity pair")
    common(p)
    p.add_argument("--model", help="model file (defaults to config paths.model)")
    p.add_argument("depth", help="depth PGM (16-bit, mm)")
    p.add_argument("intensity", help="intensity PGM (8-bit)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config_with_overrides(args)
        if args.command == "gen-synthetic":
            return cmd_gen_synthetic(cfg, args.users, args.per_class)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.model)
        if args.command == "predict":
            return cmd_predict(cfg, args.model, args.depth, args.intensity)
        parser.error(f"unknown command {args.command!r}")
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
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
