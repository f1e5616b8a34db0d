"""Desk-scale end-to-end run: generate, extract, train, evaluate, predict.

Uses a reduced network and epoch budget so the whole thing finishes in
about a minute.  The same flow at full defaults is what `fingerspell`
exposes on the command line.

Run:  python3 demos/04_end_to_end.py
"""

import json
import tempfile
from pathlib import Path

from fingerspell.cli import main as cli


def run(base: Path):
    config = {
        "paths": {
            "manifest": str(base / "data" / "manifest.csv"),
            "output_dir": str(base / "out"),
            "model": str(base / "out" / "model.hsdbn"),
        },
        "feature_kind": "combined",
        "layer_sizes": [200, 100, 50],
        "rbm": {"epochs": 15},
        "supervised": {"stage2": {"epochs": 40}, "stage3": {"epochs": 15, "learning_rate": 0.01}},
        "split": {"mode": "allseen"},
        "rng_seed": 99,
    }
    cfg = base / "run.json"
    cfg.write_text(json.dumps(config, indent=2))
    print(f"workspace: {base}")

    def command(argv):
        print(f"\n$ fingerspell {' '.join(argv)}")
        code = cli(argv)
        if code != 0:
            raise SystemExit(f"command failed with exit code {code}")

    command(["gen-synthetic", "--config", str(cfg), "--users", "3", "--per-class", "12"])
    command(["extract", "--config", str(cfg)])
    command(["train", "--config", str(cfg)])
    command(["eval", "--config", str(cfg)])

    report = json.loads((base / "out" / "report.json").read_text())
    print(f"\nheld-out quarter: macro recall {report['macro_recall']:.3f}, "
          f"macro precision {report['macro_precision']:.3f}")
    if report["confused_pairs"]:
        true_l, pred_l, count = report["confused_pairs"][0]
        print(f"most confused pair: {true_l} -> {pred_l} ({count}x)")

    depth = next((base / "data" / "images").glob("u00_A_000_depth.pgm"))
    intensity = Path(str(depth).replace("_depth", "_intensity"))
    command(["predict", "--config", str(cfg), str(depth), str(intensity)])


def main():
    # the workspace (about 77 MB of images, features and model) is removed when the run ends
    with tempfile.TemporaryDirectory(prefix="fingerspell_demo_") as base:
        run(Path(base))


if __name__ == "__main__":
    main()
