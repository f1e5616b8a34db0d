"""Set-up phase of the benchmark, run in a process of its own.

Runs ``fingerspell gen-synthetic`` a given number of times into the same
manifest and writes the exit codes, the wall time of each call, the same
at reference host speed (see hostspeed.py) and, when traced, the spans as
JSON.  A separate process keeps the generated
samples out of the peak RSS of the timed phases.

    python3 perfbench/setup_child.py CONFIG USERS PER_CLASS REPEATS TRACE OUT_JSON
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fingerspell.cli import main

from hostspeed import HostSpeed
from spans import Tracer, call_cli, instrument


def run(config, users, per_class, repeats, trace):
    tracer = None
    if trace:
        tracer = Tracer()
        instrument(tracer)
    argv = ["gen-synthetic", "--config", config, "--users", str(users), "--per-class", str(per_class)]
    host = HostSpeed()
    codes, seconds, scaled = [], [], []
    for _ in range(repeats):
        code, _, dt = call_cli(main, argv, tracer)
        codes.append(code)
        seconds.append(dt)
        scaled.append(host.scale(dt))
    return {"codes": codes, "seconds": seconds, "scaled_seconds": scaled, "kernel_seconds": host.samples,
            "spans": tracer.spans if tracer else []}


if __name__ == "__main__":
    config, users, per_class, repeats, trace, out = sys.argv[1:7]
    result = run(config, int(users), int(per_class), int(repeats), trace == "1")
    Path(out).write_text(json.dumps(result))
