"""fingerspell benchmark: synthetic PGMs -> extract -> train -> eval -> predict loop.

    python3 perfbench/run.py --workload train-combined --seed 4242 --seconds 12 --trace 0

Every phase goes through the public entry point ``fingerspell.cli.main``,
called in this process.  Set-up (``gen-synthetic``) runs in a child
process, so its samples do not set the peak RSS of the timed phases.
After eval a closed loop of sequential ``predict`` calls from one client
runs over the test-split captures.  A workload runs in rounds: each
extracts again and runs a share of the loop, the first ones also train
and eval; the loop takes ``--seconds`` in all.  Time metrics are medians of
wall times brought to reference host speed (see hostspeed.py).

The last stdout line is one JSON object.  With ``--trace 0`` it holds the
end-to-end metrics.  With ``--trace 1`` the pipeline first runs untraced,
then again with every public function of the program wrapped in a timing
span; the line holds the per-layer metrics, the traced and untraced
feature and model hashes must agree, and the spans are written to
``.bench_work/<workload>/spans.json``.  README.md beside this file says
why each workload exists and which end-to-end metric each layer metric
should move.
"""

import os

# Pinned before numpy loads: model bytes differ between BLAS thread counts.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import csv
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed
from spans import LAYER_UNITS, Tracer, call_cli, instrument, layer_metrics, merge

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 4242          # criterion 6's dataset
SETUP_REPEATS = 5            # setup_s is the median of this many gen-synthetic calls
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "extract_s": "s",
    "train_s": "s",
    "pipeline_s": "s",
    "predict_ms_p50": "ms",
    "predict_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "test_macro_recall": "ratio",
    "test_macro_precision": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """Dataset size, training recipe and measurement rounds of one workload."""

    users: int
    per_class: int
    feature_kind: str
    layer_sizes: tuple
    rbm: dict
    stage2: dict
    stage3: dict
    min_quality: float     # floor on allseen macro recall and precision
    # Each round runs extract and a 1/rounds share of the predict loop; the
    # first train_rounds rounds also train and eval after extracting.  Phase
    # times are medians over the rounds that ran them.  The host's speed
    # moves in steps of a few seconds, so spreading the samples of the
    # cheap phases over the whole run steadies them.
    rounds: int
    train_rounds: int


WORKLOADS = {
    # Criterion 6's network, epochs and thresholds on 7 of its 40 samples
    # per class and signer, which keeps a run inside the time budget.
    # Batches of 36 give enough updates per epoch on the smaller set
    # (batches of 50 missed the 0.95 floor on one seed in ten).  Training
    # is about 90% of pipeline_s.
    "train-combined": Workload(
        users=3, per_class=7, feature_kind="combined", layer_sizes=(200, 100, 50),
        rbm={"epochs": 20, "batch_size": 36},
        stage2={"epochs": 50, "batch_size": 36},
        stage3={"epochs": 20, "learning_rate": 0.01, "batch_size": 36},
        min_quality=0.95, rounds=6, train_rounds=1,
    ),
    # Mostly the predict loop: load_model, one-capture extraction and the
    # forward pass.  The model keeps the 10240x200 first layer that makes
    # up 99.8% of the criterion-6 model's weights.  A brief training
    # cannot make the 100- and 50-unit layers useful (recall 0.04-0.9 by
    # seed), so the one hidden layer keeps its initial weights and the
    # model still reaches full recall.
    "predict-stream": Workload(
        users=3, per_class=6, feature_kind="combined", layer_sizes=(200,),
        rbm={"epochs": 0},
        stage2={"epochs": 30, "batch_size": 25},
        stage3={"epochs": 5, "learning_rate": 0.01, "batch_size": 25},
        min_quality=0.5, rounds=6, train_rounds=2,
    ),
}

# Plumbing-sized variants for selfcheck.py; quality floors do not apply.
SMOKE = {
    name: replace(
        wl, users=1, per_class=4, rounds=2, train_rounds=1,
        rbm={**wl.rbm, "epochs": min(wl.rbm["epochs"], 1)},
        stage2={**wl.stage2, "epochs": 2}, stage3={**wl.stage3, "epochs": 1},
        min_quality=0.0,
    )
    for name, wl in WORKLOADS.items()
}


class RunFailed(Exception):
    """A phase failed, so the phases after it cannot run."""


class Ops:
    """Attempted and failed operations (CLI commands and predict calls)."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy as np
    import scipy

    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def write_config(wl, seed, work):
    out = work / "out"
    cfg = {
        "paths": {
            "manifest": str(work / "data" / "manifest.csv"),
            "output_dir": str(out),
            "model": str(out / "model.hsdbn"),
        },
        "feature_kind": wl.feature_kind,
        "layer_sizes": list(wl.layer_sizes),
        "rbm": wl.rbm,
        "supervised": {"stage2": wl.stage2, "stage3": wl.stage3},
        "split": {"mode": "allseen"},
        "workers": 1,
        "rng_seed": seed,
    }
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run_setup(cfg_path, wl, work, repeats, trace):
    out = work / "setup.json"
    cmd = [sys.executable, str(BENCH_DIR / "setup_child.py"), str(cfg_path), str(wl.users), str(wl.per_class),
           str(repeats), "1" if trace else "0", str(out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"set-up process killed after {SETUP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunFailed(f"set-up process exited with {proc.returncode}")
    return json.loads(out.read_text())


def prepare(wl, seed, work, ops, tracer=None, setup_repeats=SETUP_REPEATS):
    """Write the config and run set-up; returns the run's files and set-up times."""
    cfg_path = write_config(wl, seed, work)
    setup = run_setup(cfg_path, wl, work, setup_repeats, tracer is not None)
    for code in setup["codes"]:
        ops.record("gen-synthetic", code == 0)
    if any(setup["codes"]):
        raise RunFailed("gen-synthetic failed")
    out = work / "out"
    return {
        "config": cfg_path,
        "setup_seconds": setup["scaled_seconds"],
        "raw_setup_seconds": setup["seconds"],
        "setup_kernel_seconds": setup["kernel_seconds"],
        "setup_spans": setup["spans"],
        "features": out / f"features_{wl.feature_kind}.bin",
        "model": out / "model.hsdbn",
    }


def run_phases(run, wl, ops, tracer=None, train=True, host=None):
    """Extract, then train and eval if ``train``; returns their wall times.

    With ``host`` the times are at reference host speed and the raw ones
    are appended to ``run["raw_seconds"]``.  Stores the eval report in
    ``run`` and checks that every extract writes the same feature bytes.
    """
    from fingerspell.cli import main

    seconds = {}
    for cmd in ("extract", "train", "eval") if train else ("extract",):
        code, _, seconds[cmd] = call_cli(main, [cmd, "--config", str(run["config"])], tracer)
        if host:
            run["raw_seconds"].append({cmd: seconds[cmd]})
            seconds[cmd] = host.scale(seconds[cmd])
        if code != 0:
            ops.record(cmd, False)
            raise RunFailed(f"{cmd} exited with {code}")
        if cmd == "extract":
            digest = sha256(run["features"])
            ops.record(f"extract wrote features {digest}, first extract {run.setdefault('features_sha', digest)}",
                       digest == run["features_sha"])
        elif cmd == "train":
            ops.record(cmd, True)
    if not train:
        return seconds

    report = json.loads((run["model"].parent / "report.json").read_text())
    quality_ok = min(report["macro_recall"], report["macro_precision"]) >= wl.min_quality
    ops.record("eval (allseen recall and precision)", quality_ok)
    run["report"] = report
    return seconds


def eval_captures(run):
    """Test-split captures as ``(row index, depth path, intensity path)``, in split order."""
    from fingerspell import dataset as ds
    from fingerspell.cli import FeatureRow
    from fingerspell.config import load_config

    cfg = load_config(run["config"])
    manifest = Path(cfg.paths.manifest)
    with open(manifest, newline="") as fh:
        pairs = [(str(manifest.parent / r["depth_path"]), str(manifest.parent / r["intensity_path"]))
                 for r in csv.DictReader(fh)]
    with open(Path(cfg.paths.output_dir) / "labels.csv", newline="") as fh:
        rows = [FeatureRow(r["user"], r["letter"], i) for i, r in enumerate(csv.DictReader(fh))]
    _, _, test = ds.split_dataset(rows, cfg.split)
    return [(r.index, *pairs[r.index]) for r in test]


def batch_eval_labels(run, indices):
    """Labels the batch eval path (``Dbn.scores`` over the feature file) gives these rows."""
    import numpy as np

    from fingerspell.dbn import load_model
    from fingerspell.features import read_features

    _, x = read_features(run["features"])
    net = load_model(run["model"])
    scores = net.scores(x[indices])
    return dict(zip(indices, (net.class_labels[i] for i in np.argmax(scores, axis=1))))


def predict_loop(run, captures, seconds, tracer=None):
    """Sequential predict calls for ``seconds``; returns ``[(row, code, label, seconds)]``."""
    from fingerspell.cli import main

    calls = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        row, depth, intensity = captures[len(calls) % len(captures)]
        code, out, dt = call_cli(main, ["predict", "--config", str(run["config"]), depth, intensity], tracer)
        label = out.split("predicted: ", 1)[1].split("\n", 1)[0] if "predicted: " in out else None
        calls.append((row, code, label, dt))
    return calls


def check_predicts(run, calls, ops):
    expected = batch_eval_labels(run, sorted({row for row, *_ in calls}))
    for row, code, label, _ in calls:
        if code != 0:
            ops.record(f"predict of row {row} exited with {code}", False)
        elif label != expected[row]:
            ops.record(f"predict of row {row} gave {label}, batch eval {expected[row]}", False)
        else:
            ops.record("predict", True)


def tail(latencies):
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns ``(value, percentile, samples above)``; below 11 samples it is the maximum.
    """
    ordered = sorted(latencies)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def measured_run(wl, seed, seconds, work, ops):
    run = prepare(wl, seed, work, ops)
    run["raw_seconds"] = []
    host = HostSpeed()
    rounds, chunks, raw_chunks = [], [], []
    for i in range(wl.rounds):
        rounds.append(run_phases(run, wl, ops, train=i < wl.train_rounds, host=host))
        raw_chunks.append(predict_loop(run, eval_captures(run), seconds / wl.rounds))
        factor = host.scale(1.0)
        chunks.append([(row, code, label, dt * factor) for row, code, label, dt in raw_chunks[-1]])
    # read before the checks below load the feature file again
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    calls = [call for chunk in chunks for call in chunk]
    check_predicts(run, calls, ops)

    phase = {cmd: statistics.median(r[cmd] for r in rounds if cmd in r) for cmd in ("extract", "train", "eval")}
    latencies = [dt * 1000.0 for *_, dt in calls]
    # one tail per round, so a slow spell of the host moves one sample of the median
    tails = [tail([dt * 1000.0 for *_, dt in chunk]) for chunk in chunks]
    metrics = {
        "setup_s": statistics.median(run["setup_seconds"]),
        "extract_s": phase["extract"],
        "train_s": phase["train"],
        "pipeline_s": sum(phase.values()),
        "predict_ms_p50": statistics.median(latencies),
        "predict_ms_tail": statistics.median(t[0] for t in tails),
        "peak_rss_mb": peak_rss_mb,
        "test_macro_recall": run["report"]["macro_recall"],
        "test_macro_precision": run["report"]["macro_precision"],
    }
    raw_phase = {cmd: statistics.median(r[cmd] for r in run["raw_seconds"] if cmd in r) for cmd in phase}
    raw = {
        "setup_s": statistics.median(run["raw_setup_seconds"]),
        **{f"{cmd}_s": value for cmd, value in raw_phase.items()},
        "predict_ms_p50": statistics.median(dt * 1000.0 for chunk in raw_chunks for *_, dt in chunk),
    }
    record = {
        "hashes": {"features": sha256(run["features"]), "model": sha256(run["model"])},
        "host": {
            "reference_s": REFERENCE_S,
            "setup_kernel_seconds": run["setup_kernel_seconds"],
            "kernel_seconds": host.samples,
            "raw_medians": raw,
        },
        "setup_seconds": run["setup_seconds"],
        "raw_setup_seconds": run["raw_setup_seconds"],
        "phase_seconds": rounds,
        "raw_phase_seconds": run["raw_seconds"],
        "predict": {
            "calls": len(calls),
            "round_p50_ms": [statistics.median(dt * 1000.0 for *_, dt in chunk) for chunk in chunks],
            "round_tails": [{"ms": ms, "percentile": pct, "samples_above": above} for ms, pct, above in tails],
        },
    }
    pcts = [t[1] for t in tails]
    notes = [
        f"predict: {len(calls)} sequential calls in {len(chunks)} rounds; predict_ms_tail is the median of "
        f"per-round tails at p{min(pcts):.2f}-p{max(pcts):.2f} ({min(t[2] for t in tails)}+ samples above each)",
        f"reference kernel: median {statistics.median(host.samples):.4f} s over {len(host.samples)} samples, "
        f"reference speed {REFERENCE_S} s; raw wall-time medians: "
        + ", ".join(f"{name} {value:.4f}" for name, value in raw.items()),
        f"sha256 features {record['hashes']['features']}",
        f"sha256 model    {record['hashes']['model']}",
    ]
    return metrics, record, notes, True


def traced_run(wl, seed, seconds, work, ops):
    # one round per pass: the traced pass must repeat the untraced one exactly
    reference = prepare(wl, seed, work / "untraced", ops, setup_repeats=1)
    reference_seconds = run_phases(reference, wl, ops)
    tracer = Tracer()
    instrument(tracer)
    try:
        run = prepare(wl, seed, work / "traced", ops, tracer, setup_repeats=1)
        run_seconds = run_phases(run, wl, ops, tracer)
        calls = predict_loop(run, eval_captures(run), seconds, tracer)
    finally:
        tracer.restore()
    check_predicts(run, calls, ops)

    hashes = {
        kind: {"untraced": sha256(reference[kind]), "traced": sha256(run[kind])} for kind in ("features", "model")
    }
    same = all(h["untraced"] == h["traced"] for h in hashes.values())
    pipeline = {"untraced": sum(reference_seconds.values()), "traced": sum(run_seconds.values())}
    spans = merge(run["setup_spans"], tracer.spans)
    spans_path = work / "spans.json"
    spans_path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "attrs"], "spans": spans}))

    measured = layer_metrics(
        spans, run["features"].stat().st_size, run["model"].stat().st_size, pipeline["traced"] - pipeline["untraced"]
    )
    metrics = {name: measured[name] for name in LAYER_UNITS}
    record = {"hashes": hashes, "hashes_equal": same, "pipeline_s": pipeline, "spans": str(spans_path)}
    notes = [
        f"traced pipeline_s {pipeline['traced']:.3f} s, untraced {pipeline['untraced']:.3f} s",
        f"traced and untraced feature and model hashes {'agree' if same else 'DIFFER'}",
        f"spans: {spans_path} ({len(spans)} spans)",
    ]
    return metrics, record, notes, same


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="picks the synthetic dataset")
    parser.add_argument("--seconds", type=float, default=12.0, help="length of the predict loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny data for the benchmark's self-checks")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fingerspell" / "cli.py").is_file():
        print(f"fingerspell sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = (SMOKE if args.scale == "smoke" else WORKLOADS)[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print(f"workload {args.workload} ({args.scale}), seed {args.seed}, predict loop {args.seconds} s, "
          f"trace {args.trace}")
    print(f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']['name']} {env['blas']['version']}, "
          f"BLAS threads {BLAS_THREADS}, nproc {env['nproc']}, python {env['python']}, commit {env['git_commit']}")

    ops = Ops()
    measure = traced_run if args.trace else measured_run
    units = LAYER_UNITS if args.trace else END_TO_END
    try:
        metrics, record, notes, checks_ok = measure(wl, args.seed, args.seconds, work, ops)
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        metrics, record, notes, checks_ok = {}, {"error": str(exc)}, [], False

    error_rate = len(ops.failures) / ops.attempted if ops.attempted else 1.0
    correct = checks_ok and not ops.failures and bool(metrics)
    for line in notes + [f"failed: {f}" for f in ops.failures]:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  {'error_rate':<36} {error_rate:>16.6f} ratio ({len(ops.failures)} of {ops.attempted} operations)")

    (work / "run.json").write_text(json.dumps({
        "workload": args.workload, "scale": args.scale, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "workload_config": wl.__dict__, "correct": correct,
        "attempted": ops.attempted, "failures": ops.failures, "error_rate": error_rate,
        "metrics": metrics, **record,
    }, indent=2, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
