"""Workload runner: the timed closed loop, the traced run and the hard-case
panel. Every operation is an in-process call of `bisense.cli.main`, so
argument parsing, config loading, the solver and the CSV/JSON writers are all
inside the timed region; the output checks run after the loop.

`run.py` is the entry point; it pins BLAS to one thread and puts the
checkout's `src` on the import path before importing this module.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import dataclasses
import glob
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bisense.cli
import checks
from inputs import PANEL, Inputs, Op, config_with, write_config
from speed import SPEED_WINDOW_S, SpeedSampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh interpreters per run at least; setup_s is their median
MIN_ROUNDS = 2
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples above it
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    op: Op
    out_dir: Path
    exit_code: int | None  # None when the call raised
    stdout: str
    stderr: str
    start: float  # perf_counter at the call and at its return
    end: float


def run_op(op: Op, work: Path, name: str) -> Outcome:
    out_dir = work / name
    argv = [*op.args, "--config", str(work / op.config_name)]
    if op.kind != "validate":
        argv += ["--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bisense.cli.main(argv)
    except Exception:
        code, err = None, io.StringIO(traceback.format_exc())
    return Outcome(op, out_dir, code, out.getvalue(), err.getvalue(), start, time.perf_counter())


def check(outcome: Outcome, doc: dict, rng: random.Random) -> checks.CheckReport:
    if outcome.exit_code is None:
        return checks.CheckReport(1, 1, [f"raised:\n{outcome.stderr}"])
    if outcome.op.kind == "map":
        return checks.check_map(outcome.out_dir, doc, outcome.exit_code, rng)
    if outcome.op.kind == "point":
        return checks.check_point(outcome.out_dir, doc, outcome.exit_code)
    return checks.check_validate(outcome.stdout, outcome.exit_code)


@dataclass
class Verdict:
    ops: int = 0
    failed_ops: int = 0
    units: int = 0
    failed_units: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def add(self, name: str, report: checks.CheckReport) -> None:
        self.ops += 1
        self.units += report.attempted
        self.failed_units += report.failed
        if report.problems:
            self.failed_ops += 1
            self.problems.extend(f"{name}: {p}" for p in report.problems)

    @property
    def failed_frac(self) -> float:
        return self.failed_units / max(self.units, 1)


def check_all(outcomes: list[Outcome], inputs: Inputs, verdict: Verdict) -> None:
    rng = random.Random(f"check:{inputs.workload}:{inputs.seed}")
    for outcome in outcomes:
        doc = inputs.configs[outcome.op.config_name]
        verdict.add(outcome.out_dir.name, check(outcome, doc, rng))


def run_round(ops: list[Op], work: Path) -> list[Outcome]:
    """Run every operation once, in order; each writes to its own directory,
    which the next round overwrites."""
    return [run_op(op, work, f"op{i:03d}") for i, op in enumerate(ops)]


@dataclass
class Loop:
    calls: list[list[Outcome]]  # per operation, its call in every round
    probes: list[float]  # set-up probe times
    problems: list[str]

    @property
    def last(self) -> list[Outcome]:
        """The final round, whose outputs are on disk."""
        return [calls[-1] for calls in self.calls]


def closed_loop(inputs: Inputs, work: Path, seconds: float, probe_cmd: list[str]) -> Loop:
    """One client: each operation starts when the previous one returns.

    The list repeats in rounds until `seconds` have passed, and at least
    MIN_ROUNDS times. A set-up probe runs after each round, outside the
    timed calls, so that its median also spans the run.
    """
    loop = Loop([[] for _ in inputs.ops], [], [])
    start = time.perf_counter()
    while len(loop.calls[0]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for calls, outcome in zip(loop.calls, run_round(inputs.ops, work)):
            if calls and calls[-1].exit_code != outcome.exit_code:
                loop.problems.append(f"{outcome.out_dir.name}: exit code changed between rounds")
            calls.append(outcome)
        loop.probes.append(setup_probe(probe_cmd))
    while len(loop.probes) < SETUP_PROBES:
        loop.probes.append(setup_probe(probe_cmd))
    return loop


def warm_up(inputs: Inputs, work: Path) -> None:
    """One cheap call down the workload's code path, untimed, so that lazy
    imports and first-call set-up are not charged to the first operation."""
    op = inputs.ops[0]
    doc = copy.deepcopy(inputs.configs[op.config_name])
    doc["solver"]["max_iters"] = 20
    doc["grid"].update(x_min_m=10.0, x_max_m=12.0, nx=2)
    write_config(work / "warmup.yaml", doc)
    run_op(dataclasses.replace(op, config_name="warmup.yaml"), work, "warmup")


def probe_command(inputs: Inputs, work: Path, src: Path) -> list[str]:
    """Command of a set-up probe: a fresh interpreter imports the package and
    builds the workload's config, scenario and grid, timing itself."""
    op = inputs.ops[0]
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(src), str(work / op.config_name)]
    return cmd + [arg.split("=", 1)[1] for arg in op.args if arg.startswith("--target=")]


def setup_probe(cmd: list[str]) -> float:
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest whole percentile at or above the
    median that leaves TAIL_BEYOND samples above it (nearest rank)."""
    n = len(latencies)
    q = (100 * (n - TAIL_BEYOND)) // n if n > TAIL_BEYOND else 0
    if q < 50:
        return None
    rank = -(-q * n // 100)  # ceil(q n / 100), 1-based
    return q, sorted(latencies)[rank - 1]


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -----------------------------------------------------------------------------
# per-layer metric catalogue


def panel_metrics(results: dict[str, dict]) -> dict[str, tuple[float, str]]:
    out = {}
    for name, _, _ in PANEL:
        res = results.get(name, {})
        out[f"panel.{name}.converged"] = (int(bool(res.get("converged", False))), "bool")
        out[f"panel.{name}.iterations"] = (res.get("iterations", 0), "count")
        out[f"panel.{name}.kkt_residual"] = (res.get("kkt_residual", 0.0), "1")
        out[f"panel.{name}.gap"] = (res.get("optimality_gap_rel", 0.0), "1")
        out[f"panel.{name}.wall_s"] = (res.get("wall_s", 0.0), "s")
    return out


def run_metrics(verdict: Verdict, untraced: float, traced: float) -> dict[str, tuple[float, str]]:
    return {
        "run.units_attempted": (verdict.units, "count"),
        "run.units_failed": (verdict.failed_units, "count"),
        "run.failed_frac": (verdict.failed_frac, "1"),
        "trace.ops_per_s_untraced": (untraced, "1/s"),
        "trace.ops_per_s_traced": (traced, "1/s"),
        "trace.overhead_ops_per_s": (traced - untraced, "1/s"),
    }


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    names = {**Tracer().metrics(), **run_metrics(Verdict(), 0.0, 0.0), **panel_metrics({})}
    return {name: unit for name, (_, unit) in names.items()}


# -----------------------------------------------------------------------------
# runs


def run_panel(work: Path, sampler: SpeedSampler) -> tuple[dict[str, dict], Verdict]:
    """Solve each fixed hard case once, cold, through `optimize-point`."""
    results = {}
    verdict = Verdict()
    rng = random.Random("panel")
    for name, overrides, (x, y) in PANEL:
        doc = config_with(scenario=overrides)
        write_config(work / f"panel_{name}.yaml", doc)
        op = Op("point", ("optimize-point", f"--target={x!r},{y!r}"), f"panel_{name}.yaml")
        outcome = run_op(op, work, f"panel_{name}")
        verdict.add(f"panel_{name}", check(outcome, doc, rng))
        try:
            res = json.loads((outcome.out_dir / "optimize_point.json").read_text())["result"]
        except (OSError, KeyError, ValueError):
            continue  # the check above has already recorded the problem
        results[name] = {key: res[key] for key in ("converged", "iterations", "kkt_residual", "optimality_gap_rel")}
        results[name]["wall_s"] = sampler.scaled(outcome.start, outcome.end)
    return results, verdict


def timed_run(inputs: Inputs, work: Path, seconds: float, src: Path) -> tuple[Verdict, dict, list[str]]:
    warm_up(inputs, work)
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        loop = closed_loop(inputs, work, seconds, probe_command(inputs, work, src))
        run_factor = sampler.factor(start, time.perf_counter())
    verdict = Verdict()
    check_all(loop.last, inputs, verdict)
    verdict.problems += loop.problems
    # each operation's median over the rounds, at reference speed
    latencies = [statistics.median(sampler.scaled(c.start, c.end) for c in calls) for calls in loop.calls]
    values = {
        # Scaled by the whole run's speed: interpreter start-up follows the
        # host's speed over a run, but not the kernel samples next to it.
        "setup_s": statistics.median(loop.probes) * run_factor,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    every = [c for calls in loop.calls for c in calls]
    factors = [sampler.factor(c.start - SPEED_WINDOW_S, c.end + SPEED_WINDOW_S) for c in every]
    notes = [
        f"{len(latencies)} ops x {len(loop.calls[0])} rounds, closed loop with one client",
        f"unscaled: ops_per_s {len(every) / sum(c.end - c.start for c in every):.6g} 1/s over every call, "
        f"setup_s {statistics.median(loop.probes):.6g} s",
        f"speed factor per call: min {min(factors):.4g}, median {statistics.median(factors):.4g}, "
        f"max {max(factors):.4g}, whole run {run_factor:.4g} ({len(sampler.samples)} samples)",
        "op latencies, scaled (ms): " + " ".join(f"{1e3 * v:.1f}" for v in latencies),
    ]
    tail_at = tail(latencies)
    if tail_at is None:
        notes.append(f"op_tail_ms omitted: {len(latencies)} ops, a tail needs at least {2 * TAIL_BEYOND}")
    else:
        q, value = tail_at
        notes.append(f"op_tail_ms {1e3 * value:.6g} ms (p{q} of {len(latencies)} ops, {TAIL_BEYOND}+ above)")
    notes.append(f"failed_frac {verdict.failed_frac:.6g} ({verdict.failed_units} of {verdict.units} units)")
    return verdict, metrics, notes


def traced_run(inputs: Inputs, work: Path) -> tuple[Verdict, dict, list[str]]:
    """One untraced and one traced round of the operation list, then the
    hard-case panel. Counts from the traced round repeat exactly."""
    ops = inputs.ops
    warm_up(inputs, work)
    with SpeedSampler() as sampler:
        plain = run_round(ops, work)
        with Tracer() as tracer:
            traced = run_round(ops, work)
        panel, panel_verdict = run_panel(work, sampler)
    missing = tracer.missing(inputs.workload)
    if missing:
        raise RuntimeError(f"traced wrappers recorded zero calls on {inputs.workload}: {missing}")
    verdict = Verdict()
    check_all(traced, inputs, verdict)
    verdict.problems += panel_verdict.problems
    plain_s = sum(sampler.scaled(o.start, o.end) for o in plain)
    traced_s = sum(sampler.scaled(o.start, o.end) for o in traced)
    metrics = {
        **tracer.metrics(),
        **run_metrics(verdict, len(ops) / plain_s, len(ops) / traced_s),
        **panel_metrics(panel),
    }
    notes = [
        f"{len(ops)} ops traced in {traced_s:.3f} s, untraced in {plain_s:.3f} s (scaled)",
        f"failed_frac {verdict.failed_frac:.6g} ({verdict.failed_units} of {verdict.units} units)",
    ]
    return verdict, metrics, notes
