"""Closed-loop benchmark of the bisense command line.

    python3 perfbench/run.py --workload map_peb --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its `src`
directory. With --trace 0 it times the workload and prints the end-to-end
metrics; with --trace 1 it runs a fixed list of the workload's operations
under per-layer tracing, then the hard-case panel, and prints the per-layer
metrics. Either way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Output checks run on every
operation; `correct` is false if any operation failed one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MAX_PROBLEMS_SHOWN = 20


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("map_peb", "solve_wideband", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import bisense from this checkout's source tree, never from elsewhere."""
    package = SRC / "bisense"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no bisense sources at {package}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import bisense

    if Path(bisense.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported bisense from {bisense.__file__}, not from {package}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    os.environ.pop("BISENSE_OUT_DIR", None)
    import_program()

    import bench
    from inputs import Inputs

    inputs = Inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        inputs.write(work)
        if args.trace:
            verdict, metrics, notes = bench.traced_run(inputs, work)
        else:
            verdict, metrics, notes = bench.timed_run(inputs, work, args.seconds, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = bench.environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "environment": env,
                 "metrics": metrics, "problems": verdict.problems},
                indent=1,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    for problem in verdict.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.ops,
        "failed": verdict.failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
