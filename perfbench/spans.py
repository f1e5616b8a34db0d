"""Timing spans around the public functions of fingerspell's modules.

`instrument` replaces each function at the module or class attribute where
its callers look it up, so the program runs unchanged while every call is
timed.  Spans are kept in memory as ``[id, name, start, end, parent,
attrs]`` lists and written out once the run ends; `layer_metrics` turns
them into the per-layer numbers listed in BENCHMARK.json.
"""

import contextlib
import functools
import io
import sys
import time
import traceback
from collections import defaultdict

ID, NAME, START, END, PARENT, ATTRS = range(6)

CLI_COMMANDS = ("gen-synthetic", "extract", "train", "eval", "predict")

# unit of every metric `layer_metrics` returns; lower is better for all of them
LAYER_UNITS = {
    "pgm.read_ms": "ms",
    "dataset.load_ms_per_sample": "ms",
    "dataset.gen_ms_per_sample": "ms",
    "dataset.write_ms_per_sample": "ms",
    "features.preprocess_ms_per_sample": "ms",
    "features.depth_ms_per_sample": "ms",
    "features.intensity_ms_per_sample": "ms",
    "features.filterbank_ms_per_sample": "ms",
    "features.extract_ms_per_sample": "ms",
    "features.write_s": "s",
    "features.read_s": "s",
    "features.file_mb": "MB",
    **{f"rbm.layer{k}.{m}": u for k in (1, 2, 3) for m, u in (("epochs", "count"), ("s_per_epoch", "s"))},
    "rbm.cd1_update_s": "s",
    "rbm.recon_error_s": "s",
    "rbm.check_finite_calls": "count",
    "dbn.stage2_s": "s",
    "dbn.stage2_epochs": "count",
    "dbn.stage2_valid_loss_s": "s",
    "dbn.stage2_self_s": "s",
    "dbn.stage3_s": "s",
    "dbn.stage3_epochs": "count",
    "dbn.stage3_backprop_s": "s",
    "dbn.stage3_loss_s": "s",
    "dbn.stage2.wasted_epoch_ratio": "ratio",
    "dbn.stage3.wasted_epoch_ratio": "ratio",
    "dbn.load_ms": "ms",
    "dbn.forward_ms": "ms",
    "dbn.scores_ms_per_sample": "ms",
    "dbn.save_ms": "ms",
    "dbn.model_mb": "MB",
    "metrics.report_ms": "ms",
    "cli.eval_s": "s",
    **{f"cli.{cmd}.self_s": "s" for cmd in CLI_COMMANDS},
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects nested spans in memory; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def begin(self, name):
        span = [len(self.spans), name, time.perf_counter(), None, self._stack[-1][ID] if self._stack else None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, note=None, epochs=False):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``note(args, result)`` returns attributes stored on the span.  With
        ``epochs`` the call's ``on_epoch`` callback is wrapped too, and each
        epoch's arguments and timestamp are kept on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            s = tracer.begin(name)
            if epochs:
                log = s[ATTRS]["epochs"] = []
                callback = kwargs.get("on_epoch")

                def on_epoch(*cb_args):
                    log.append([time.perf_counter(), *cb_args])
                    if callback is not None:
                        callback(*cb_args)

                kwargs["on_epoch"] = on_epoch
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(s)
            if note is not None:
                s[ATTRS].update(note(args, result))
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def instrument(tracer):
    """Wrap the public functions of every fingerspell module that does work."""
    from fingerspell import cli, dataset, dbn, features, metrics, rbm

    w = tracer.wrap
    count = lambda args, result: {"n": len(result)}
    w(dataset, "read_pgm", "pgm.read_pgm")
    w(cli, "read_pgm", "pgm.read_pgm")
    w(dataset, "load_dataset", "dataset.load_dataset", note=count)
    w(dataset, "gen_synthetic", "dataset.gen_synthetic", note=count)
    w(dataset, "write_dataset", "dataset.write_dataset", note=lambda args, result: {"n": len(args[1])})
    w(cli, "extract_features", "features.extract_features")
    for name in ("preprocess_pair", "depth_layers", "depth_feature_vector", "intensity_feature_vector",
                 "gabor_features", "bar_features"):
        w(features, name, f"features.{name}")
    w(cli, "write_features", "features.write_features")
    w(cli, "read_features", "features.read_features")
    w(dbn, "pretrain", "dbn.pretrain", epochs=True)
    w(dbn, "train_rbm", "rbm.train_rbm")
    w(rbm.Rbm, "cd1_update", "rbm.cd1_update")
    w(rbm.Rbm, "reconstruction_error", "rbm.reconstruction_error")
    w(rbm.Rbm, "check_finite", "rbm.check_finite")
    w(dbn, "train_translation_layer", "dbn.stage2", epochs=True)
    w(dbn, "fine_tune", "dbn.stage3", epochs=True)
    w(dbn, "cross_entropy_loss", "dbn.cross_entropy_loss", note=lambda args, result: {"loss": result})
    w(dbn, "backprop_gradients", "dbn.backprop_gradients")
    w(dbn.Dbn, "scores", "dbn.scores", note=lambda args, result: {"n": len(result) if result.ndim == 2 else 1})
    w(dbn.Dbn, "forward", "dbn.forward")
    w(dbn, "load_model", "dbn.load_model")
    w(dbn, "save_model", "dbn.save_model")
    for name in ("confusion", "precision_recall", "confusion_to_csv"):
        w(metrics, name, f"metrics.{name}")
    w(metrics.EvalReport, "save_json", "metrics.save_json")
    w(metrics.EvalReport, "save_csv", "metrics.save_csv")


def call_cli(main, argv, tracer=None):
    """Run ``main(argv)`` with its output captured; returns ``(code, stdout, seconds)``.

    With a tracer the call is the root span ``cli.<command>``.  An
    exception that escapes ``main`` is a failed operation: its traceback
    goes to stderr and the code is -1.
    """
    out = io.StringIO()
    span = tracer.begin(f"cli.{argv[0]}") if tracer is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception:  # the benchmark counts it as failed and goes on
        traceback.print_exc(file=sys.stderr)
        code = -1
    finally:
        seconds = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
    return code, out.getvalue(), seconds


def merge(*span_lists):
    """Concatenate span lists from several tracers, renumbering ids."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        for s in spans:
            merged.append([s[ID] + offset, s[NAME], s[START], s[END], None if s[PARENT] is None else s[PARENT] + offset, s[ATTRS]])
    return merged


def _best_epoch(stage_span, children):
    """Index of the epoch whose parameters the stage restores (-1: the initial ones)."""
    losses = [c[ATTRS]["loss"] for c in children[stage_span[ID]] if c[NAME] == "dbn.cross_entropy_loss"]
    best, best_epoch = losses[0], -1
    for i, (_, _, _, valid_loss) in enumerate(stage_span[ATTRS]["epochs"]):
        if valid_loss < best:
            best, best_epoch = valid_loss, i
    return best_epoch


def layer_metrics(spans, feature_file_bytes, model_file_bytes, overhead_s):
    """Per-layer metrics (see LAYER_UNITS) from one run's spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def dur(s):
        return s[END] - s[START]

    def total(name, under=None):
        """Seconds in spans called ``name``; with ``under``, only direct children of those spans."""
        parents = None if under is None else {p[ID] for p in under}
        return sum(dur(s) for s in by_name[name] if parents is None or s[PARENT] in parents)

    def mean_ms(name):
        calls = by_name[name]
        return 1000.0 * total(name) / len(calls) if calls else 0.0

    def self_s(s):
        return dur(s) - sum(dur(c) for c in children[s[ID]])

    def ms_per(names, per):
        # spans without an "n" attribute handle one sample each
        n = sum(s[ATTRS].get("n", 1) for s in by_name[per])
        return 1000.0 * sum(total(x) for x in names) / n if n else 0.0

    samples = "features.extract_features"
    m = {
        "pgm.read_ms": mean_ms("pgm.read_pgm"),
        "dataset.load_ms_per_sample": ms_per(["dataset.load_dataset"], "dataset.load_dataset"),
        "dataset.gen_ms_per_sample": ms_per(["dataset.gen_synthetic"], "dataset.gen_synthetic"),
        "dataset.write_ms_per_sample": ms_per(["dataset.write_dataset"], "dataset.write_dataset"),
        "features.preprocess_ms_per_sample": ms_per(["features.preprocess_pair"], samples),
        "features.depth_ms_per_sample": ms_per(["features.depth_layers", "features.depth_feature_vector"], samples),
        "features.intensity_ms_per_sample": ms_per(["features.intensity_feature_vector"], samples),
        "features.filterbank_ms_per_sample": ms_per(["features.gabor_features", "features.bar_features"], samples),
        "features.extract_ms_per_sample": ms_per([samples], samples),
        "features.write_s": total("features.write_features"),
        "features.read_s": mean_ms("features.read_features") / 1000.0,
        "features.file_mb": feature_file_bytes / 1e6,
        "rbm.cd1_update_s": total("rbm.cd1_update"),
        "rbm.recon_error_s": total("rbm.reconstruction_error"),
        "rbm.check_finite_calls": float(len(by_name["rbm.check_finite"])),
        "dbn.load_ms": mean_ms("dbn.load_model"),
        "dbn.forward_ms": mean_ms("dbn.forward"),
        "dbn.save_ms": mean_ms("dbn.save_model"),
        "dbn.model_mb": model_file_bytes / 1e6,
        "trace.overhead_s": overhead_s,
    }

    layers = [s for p in by_name["dbn.pretrain"] for s in children[p[ID]] if s[NAME] == "rbm.train_rbm"]
    epoch_log = [e for p in by_name["dbn.pretrain"] for e in p[ATTRS]["epochs"]]
    for k in (1, 2, 3):
        stamps = [e[0] for e in epoch_log if e[1] == k - 1]
        m[f"rbm.layer{k}.epochs"] = float(len(stamps))
        m[f"rbm.layer{k}.s_per_epoch"] = (stamps[-1] - layers[k - 1][START]) / len(stamps) if stamps else 0.0

    for stage in ("stage2", "stage3"):
        runs = by_name[f"dbn.{stage}"]
        epochs = sum(len(s[ATTRS]["epochs"]) for s in runs)
        wasted = sum(len(s[ATTRS]["epochs"]) - 1 - _best_epoch(s, children) for s in runs)
        m[f"dbn.{stage}_s"] = sum(dur(s) for s in runs)
        m[f"dbn.{stage}_epochs"] = float(epochs)
        m[f"dbn.{stage}.wasted_epoch_ratio"] = wasted / epochs if epochs else 0.0
    stage2, stage3 = by_name["dbn.stage2"], by_name["dbn.stage3"]
    m["dbn.stage2_valid_loss_s"] = total("dbn.cross_entropy_loss", under=stage2)
    m["dbn.stage2_self_s"] = sum(self_s(s) for s in stage2)
    m["dbn.stage3_backprop_s"] = total("dbn.backprop_gradients", under=stage3)
    m["dbn.stage3_loss_s"] = total("dbn.cross_entropy_loss", under=stage3)

    evals = by_name["cli.eval"]
    eval_rows = sum(s[ATTRS]["n"] for e in evals for s in children[e[ID]] if s[NAME] == "dbn.scores")
    m["dbn.scores_ms_per_sample"] = 1000.0 * total("dbn.scores", under=evals) / eval_rows if eval_rows else 0.0
    report_s = sum(dur(c) for e in evals for c in children[e[ID]] if c[NAME].startswith("metrics."))
    m["metrics.report_ms"] = 1000.0 * report_s / len(evals) if evals else 0.0
    m["cli.eval_s"] = sum(dur(s) for s in evals)
    for cmd in CLI_COMMANDS:
        calls = by_name[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_s"] = sum(self_s(s) for s in calls) / len(calls) if calls else 0.0
    return m
