"""Benchmark of maplink's three pipeline stages, driven through its CLI.

    python3 perfbench/run.py --workload {bank,map,toy,all} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports maplink from `src/` and
writes only under `.perfbench_work/`. Workloads (BENCHMARK.json gives the
reason for each):

* `bank`: `maplink simulate` with the default configuration and a small J.
* `map`: `maplink weight` then `maplink project` for chunks of pixels
  against a synthetic bank of J=30,000 that set-up writes once.
* `toy`: `maplink toy-validate` at M=J=2,000, the paper's replication table.

Every command runs in this process with `--workers 1` and one BLAS thread. Inputs come from
`--seed` alone (default 1) and reach maplink only as files and arguments.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones (`setup_s`, `wall_s`, `peak_rss_mb`, `ops_per_s`); the lines
before it also print `failed_fraction` and the workload's own rates. With
`--trace 1` the metrics are the per-layer ones, from spans recorded around
calls into each maplink module. `--workload all` runs the three workloads
one after another, each in its own process.

Tests of the output checks: `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("bank", "map", "toy")
DEFAULT_SEED = 1


def run_all(args) -> int:
    """Each workload in a child process; their lines, then one combined result."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if child.returncode != 0:
            return child.returncode
        *lines, last = child.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines))
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "maplink" / "cli.py").is_file():
        print(f"perfbench: no maplink sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread, as every command also runs with `--workers 1`: the
    # proposal adaptation is no faster on two threads, and a second busy core
    # makes timings on a small shared machine spread.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # needs maplink, which the check above found

    return workloads.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
