"""Self-checks of the benchmark at smoke size (about a minute on two cores).

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json, run.py runs at ``--scale smoke``,
untraced and traced.  The checks:

* the last stdout line has exactly the keys correct, attempted, failed and
  metrics; the run is correct and no operation failed (error_rate 0);
* untraced, the metrics are exactly BENCHMARK.json's end-to-end names and
  units; traced, exactly its per-layer names and units;
* the traced run's feature and model hashes equal its untraced pass's;
* README.md says why each workload exists and names every per-layer
  metric with the end-to-end metric it should move;
* in a directory holding only BENCHMARK.json and the benchmark's files,
  run.py exits non-zero without printing a result.

Exits 0 when every check holds and prints each failure otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4242", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False)


def check_result(proc, expected, label):
    problems = []
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: no JSON result line (exit {proc.returncode}): {proc.stderr[-500:]}"]
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"{label}: metrics missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} value {m.get('value')!r} is not a number")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    readme = (BENCH_DIR / "README.md").read_text()
    problems = []

    for wl in spec["workloads"]:
        name = wl["name"]
        if f"### `{name}`" not in readme:
            problems.append(f"README.md has no section for workload {name}")
        problems += check_result(run_bench(ROOT, name, 0), end_to_end, f"{name} untraced")
        problems += check_result(run_bench(ROOT, name, 1), per_layer, f"{name} traced")
        record = json.loads((ROOT / ".bench_work" / name / "run.json").read_text())
        if record.get("hashes_equal") is not True:
            problems.append(f"{name}: traced and untraced hashes differ: {record.get('hashes')}")
        print(f"{name}: checked", flush=True)

    for metric in per_layer:
        rows = [line for line in readme.splitlines() if line.startswith(f"| `{metric}` |")]
        if len(rows) != 1 or not any(f"`{e}`" in rows[0] for e in end_to_end):
            problems.append(f"README.md does not name the end-to-end target of {metric}")

    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck passed" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
