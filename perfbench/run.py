"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs each chosen workload (all of them when ``--workload`` is left out) in
a fresh Python process with BLAS pinned to one thread, so that one
workload's allocator and thread-pool state never leaks into the next. Each
workload prints a report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Run it from the
root of a feedrank source tree; it imports the package from ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fit-ite", "train-bert-si", "eval-bert")
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="run the feedrank benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: every workload, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "feedrank" / "__init__.py").is_file():
        print(f"error: no feedrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT),
                                                      env.get("PYTHONPATH")]))
    for workload in [args.workload] if args.workload else WORKLOADS:
        cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        with subprocess.Popen(cmd, cwd=ROOT, env=env) as child:
            try:
                code = child.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                print(f"error: {workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
                return 3
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
