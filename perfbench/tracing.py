"""Per-layer tracing by wrapping the package's public functions from outside.

A `Tracer` replaces each traced function at every module binding inside the
`bisense` package (a function imported with `from .x import f` is bound in
several modules), records one span per call, and puts the originals back on
exit. A span's self time is its duration minus the time of the traced spans
it directly contains. The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

from bisense.beamform_opt import OptOptions

# (module, function) pairs; the module is relative to the bisense package.
VALIDATE_CHECKS = (
    "check_fim_cross_routes",
    "check_gradient_finite_difference",
    "check_objective_convexity",
    "check_optimal_structure",
    "check_known_gain_bound",
    "check_subcarrier_symmetry",
    "check_narrowband_consistency",
)
TRACED = (
    ("cli", "main"),
    ("beamform_opt", "optimize"),
    ("beamform_opt", "project_feasible"),
    ("sweep", "sweep"),
    ("fisher", "fim_entrywise"),
    ("fisher", "fim_xform"),
    ("fisher", "fim_from_derivatives"),
    ("fisher", "precoder"),
    ("array_manifold", "steering"),
    ("geometry", "derive_geometry"),
    ("config", "build_scenario"),
    ("config", "load_config"),
) + tuple(("validate", name) for name in VALIDATE_CHECKS)

_COMMON = (
    "cli.main",
    "beamform_opt.optimize",
    "beamform_opt.project_feasible",
    "array_manifold.steering",
    "geometry.derive_geometry",
    "config.build_scenario",
    "config.load_config",
)
# Wrappers each workload must hit; a rename in the package then fails the
# traced run instead of silently reporting zeros.
EXPECTED = {
    "map_peb": _COMMON + ("sweep.sweep",),
    "solve_wideband": _COMMON,
    "validate": _COMMON
    + ("fisher.fim_entrywise", "fisher.fim_xform", "fisher.fim_from_derivatives", "fisher.precoder")
    + tuple(f"validate.{name}" for name in VALIDATE_CHECKS),
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class SolveStats:
    """What `optimize` returned, call by call."""

    iterations: list[int] = field(default_factory=list)
    max_iters_hits: int = 0
    unconverged: int = 0


@dataclass
class SweepStats:
    cells_attempted: int = 0
    warm_solves: int = 0
    cold_restarts: int = 0


class Tracer:
    """Context manager that wraps every function in TRACED while active."""

    def __init__(self):
        self.layers = {f"{mod}.{fn}": LayerStats() for mod, fn in TRACED}
        self.solves = SolveStats()
        self.sweeps = SweepStats()
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._bindings: list[tuple[object, str, object]] = []
        self._last_solve: tuple | None = None  # (sweep span, warm, converged, target)

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        package = [
            module
            for name, module in list(sys.modules.items())
            if name == "bisense" or name.startswith("bisense.")
        ]
        try:
            for mod, fn in TRACED:
                original = getattr(importlib.import_module(f"bisense.{mod}"), fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._bindings:
            module, attr, original = self._bindings.pop()
            setattr(module, attr, original)

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, original):
        stats = self.layers[name]
        stack = self._stack
        on_solve = self._on_solve if name == "beamform_opt.optimize" else None
        signature = inspect.signature(original)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if on_solve is not None:
                on_solve(signature.bind(*args, **kwargs), result, parent)
            return result

        return wrapper

    def _on_solve(self, bound, result, parent) -> None:
        bound.apply_defaults()
        options = bound.arguments["options"]
        max_iters = (options or OptOptions()).max_iters
        self.solves.iterations.append(result.iterations)
        self.solves.max_iters_hits += result.iterations >= max_iters
        self.solves.unconverged += not result.converged
        if parent is None or parent[0] != "sweep.sweep":
            return
        warm = bound.arguments["initial"] is not None
        target = bound.arguments["scenario"].p_s
        last = self._last_solve
        if not warm and last is not None and last[0] is parent and last[1] and not last[2] and last[3] == target:
            self.sweeps.cold_restarts += 1
        else:
            self.sweeps.cells_attempted += 1
            self.sweeps.warm_solves += warm
        self._last_solve = (parent, warm, result.converged, target)

    # -- results ------------------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Wrappers the workload should hit that recorded no calls."""
        return [name for name in EXPECTED[workload] if self.layers[name].calls == 0]

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name, st in self.layers.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_s, "s")
        iters = self.solves.iterations
        total_iters = sum(iters)
        opt = self.layers["beamform_opt.optimize"]
        out["beamform_opt.optimize.iters_p50"] = (statistics.median(iters) if iters else 0, "count")
        out["beamform_opt.optimize.iters_max"] = (max(iters, default=0), "count")
        out["beamform_opt.optimize.max_iters_hits"] = (self.solves.max_iters_hits, "count")
        out["beamform_opt.optimize.unconverged"] = (self.solves.unconverged, "count")
        out["beamform_opt.optimize.us_per_iter"] = (1e6 * opt.total_s / max(total_iters, 1), "us")
        projections = self.layers["beamform_opt.project_feasible"].calls
        out["beamform_opt.project_feasible.per_iter"] = (projections / max(total_iters, 1), "1")
        out["sweep.sweep.cells_attempted"] = (self.sweeps.cells_attempted, "count")
        out["sweep.sweep.warm_solves"] = (self.sweeps.warm_solves, "count")
        out["sweep.sweep.cold_restarts"] = (self.sweeps.cold_restarts, "count")
        return out
