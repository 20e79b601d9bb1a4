"""Per-layer tracing by rebinding the toolkit's public functions.

While a ``Tracer`` is installed, every module of the ``urllc_mc`` package
that holds one of the hooked functions under some name (its defining
module and every module that imported it) sees a timing wrapper instead.
The wrappers aggregate calls, total time and self time per span (self
time excludes time spent in hooked callees) and a few counters read from
return values. A hooked name that no longer exists is recorded as missing
and its metrics read 0; the traced run still completes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


def _estimate_span(args, kwargs) -> str:
    metric = args[0] if args else kwargs.get("metric")
    return f"sim.estimate.{getattr(metric, 'value', metric)}"


def _observe_solve(counters: Counter, result) -> None:
    counters["solver.iterations"] += getattr(result, "iterations", 0)


def _observe_simulate(counters: Counter, agg) -> None:
    trials = getattr(agg, "trials", 0)
    counters["sim.simulate_run.trials"] += trials
    counters["sim.outage_events"] += trials - getattr(agg, "n_success", trials)
    latencies = getattr(agg, "success_latencies_ttis", None)
    counters["sim.latency_bytes"] += getattr(latencies, "nbytes", 0)


@dataclass(frozen=True)
class Hook:
    module: str  # the urllc_mc submodule that defines the function
    name: str
    span: Optional[Callable] = None  # span name from the call's arguments
    observe: Optional[Callable] = None  # adds counters from the return value


HOOKS = (
    Hook("cli", "main"),
    Hook("config", "load_scenario"),
    Hook("solver", "solve_bler", observe=_observe_solve),
    Hook("solver", "outage_at"),
    Hook("solver", "build_profile"),
    Hook("resources", "usage_at_reliability"),
    Hook("resources", "normalized_usage"),
    Hook("outage", "mc_outage"),
    Hook("outage", "sc_outage"),
    Hook("outage", "chase_bler"),
    Hook("fbl", "channel_use"),
    Hook("fbl", "achieved_bler"),
    Hook("fbl", "q_inv"),
    Hook("sim", "simulate_run", observe=_observe_simulate),
    Hook("sim", "estimate_from_aggregate", span=_estimate_span),
)

SPANS = [f"{h.module}.{h.name}" for h in HOOKS if h.span is None] + [
    f"sim.estimate.{metric}" for metric in ("outage", "mean_usage", "latency_quantile")
]
COUNTERS = ("solver.iterations", "sim.simulate_run.trials", "sim.outage_events",
            "sim.latency_bytes")


def _time_key(span: str) -> str:
    return "cli.main.self_s" if span == "cli.main" else f"{span}.s"


# Per-layer metric -> unit, in report order.
LAYER_UNITS: Dict[str, str] = {}
for _span in SPANS:
    LAYER_UNITS[f"{_span}.calls"] = "count"
    LAYER_UNITS[_time_key(_span)] = "s"
LAYER_UNITS.update({
    "solver.iterations": "count",
    "sim.simulate_run.trials": "count",
    "sim.outage_events": "count",
    "sim.latency_bytes": "bytes",
    "sim.parallel_speedup": "ratio",
    "trace.overhead_s": "s",
    "trace.hooks_missing": "count",
})

# Which end-to-end metric each per-layer metric should move, and where.
PREDICTIONS = {
    "config.load_scenario.s": "setup_s on all workloads",
    "cli.main.self_s": "points_per_s on sweep_dimension (argparse, row formatting, "
                       "CSV rendering, file writes); negligible on sim_*",
    "solver.solve_bler.calls, solver.solve_bler.s, solver.iterations, "
    "solver.outage_at.calls": "points_per_s and wall_s on sweep_dimension; about one "
                              "solve per command on sim_*",
    "resources.usage_at_reliability.calls, resources.usage_at_reliability.s":
        "points_per_s and wall_s on sweep_dimension",
    "outage.mc_outage.calls, outage.mc_outage.s, outage.sc_outage.calls":
        "sweep_dimension, mostly the p_d leg",
    "fbl.channel_use.calls, fbl.channel_use.s, fbl.achieved_bler.calls, "
    "fbl.achieved_bler.s, fbl.q_inv.calls": "sweep_dimension, mostly the "
                                            "finite_blocklength legs",
    "sim.simulate_run.s, sim.simulate_run.trials": "trials_per_s, wall_s and "
        "time_to_10pct_s on both sim_* workloads; zero on sweep_dimension",
    "sim.outage_events": "explains time_to_10pct_s (exact count)",
    "sim.latency_bytes, sim.estimate.latency_quantile.s": "peak_mem_mb and wall_s on sim_*",
    "sim.estimate.outage.s, sim.estimate.mean_usage.s": "sanity checks; stay negligible",
    "sim.parallel_speedup": "trials_per_s on sim_dup3_parallel only",
    "trace.overhead_s": "none: traced minus untraced wall_s per workload",
}


class Tracer:
    """Span and counter aggregates for the hooked functions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.missing: List[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        name = f"{hook.module}.{hook.name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = hook.span(args, kwargs) if hook.span else name
            stack = self._stack()
            stack.append(0.0)  # time spent in hooked callees
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    record = self.spans.setdefault(span, [0, 0.0, 0.0])
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += elapsed - children
            if hook.observe is not None:
                with self._lock:
                    hook.observe(self.counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every hooked name in the loaded ``urllc_mc`` modules."""
        undo = []
        self.missing = []
        try:
            for hook in HOOKS:
                try:
                    module = importlib.import_module(f"urllc_mc.{hook.module}")
                except ImportError:
                    module = None
                fn = getattr(module, hook.name, None)
                if not callable(fn):
                    self.missing.append(f"{hook.module}.{hook.name}")
                    continue
                wrapper = self._wrap(hook, fn)
                holders = [m for n, m in sys.modules.items()
                           if n == "urllc_mc" or n.startswith("urllc_mc.")]
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            undo.append((holder, attr, fn))
            yield self
        finally:
            for holder, attr, fn in reversed(undo):
                setattr(holder, attr, fn)

    def layer_metrics(self) -> Dict[str, float]:
        """Span and counter metrics accumulated since the last reset."""
        out: Dict[str, float] = {}
        for span in SPANS:
            calls, _total, self_s = self.spans.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls"] = calls
            out[_time_key(span)] = self_s
        for counter in COUNTERS:
            out[counter] = self.counters[counter]
        return out

    def total_s(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[1]
