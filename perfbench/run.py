"""The repository's benchmark of record: end-to-end host time and layer shares.

Run from the repository root::

    python3 perfbench/run.py --workload office --seed 2 --seconds 20 --trace 0

One run is one fresh interpreter on one thread.  It re-executes itself once
(``os.execve``, same process) so that ``PYTHONHASHSEED`` follows the
workload seed, then repeats the workload -- setup, warm-up and measured
phase, each repetition on a freshly compiled scenario -- until
``--seconds`` is spent, checking every repetition's simulated outputs.
Timings are host wall time; each end-to-end metric is the median over the
repetitions.  The garbage collector keeps the interpreter's defaults.

``--trace 1`` adds one repetition under ``cProfile`` after the untraced
ones and reports the per-layer metrics instead (see ``harness.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A repetition whose
outputs fail a check counts all its operations as failed, and the run exits
with status 1.  ``perfbench/README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["office", "ring", "bridge-ttcp"])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"error: no package source at {SRC_DIR / 'repro'}", file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(harness.report_lines(args.workload, result)))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
