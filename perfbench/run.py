"""Benchmark of the urllc-mc toolkit, run through its CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The toolkit is imported from ``src/`` of
that checkout; without it the benchmark exits with code 2.

Each workload (see ``workloads.py``) is a list of ``urllc_mc.cli.main``
commands, run in-process with stdout captured, repeated for ``--seconds``
seconds (at least three times) with fresh inputs per repetition. Every
command's output is checked (``checks.py``); a command that exits non-zero,
raises or fails a check counts as failed. With ``--trace 0``, each
simulate scenario's outage, averaged over all repetitions, is checked once
more against the closed form (``checks.check_pooled_outage``). Once per
run, the ``sim_dup3_parallel`` scenario is also simulated at jobs=2,
jobs=1 and jobs=2 again, and the three outputs must be byte-identical.

Times are scaled to a reference machine speed. The speed of a shared
machine drifts by tens of percent over seconds, and the drift moves
interpreter-bound and NumPy-bound code alike. So a fixed reference kernel
(``_reference_kernel``) is timed just before and just after every command
and set-up process, and its wall time is multiplied by ``REFERENCE_S``
over the mean of the two reference times. The unscaled wall time and the
machine speed are printed as well. Set-up is scaled likewise, by the
interpreter half of the reference kernel timed inside the set-up process.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over ``SETUP_PROCESSES`` fresh processes of the
  scaled time to import ``urllc_mc.cli`` and parse the workload's
  scenario files;
- ``wall_s``: one repetition's wall time, as the sum over its commands of
  each command's median scaled wall time;
- ``throughput_per_s``: median simulated trials per second on ``sim_*``,
  sweep rows per second on ``sweep_dimension``;
- ``time_to_answer_s``: on ``sim_*``, the projected time for the
  workload's simulate commands to reach a 10% relative 95% half-width on
  the outage; on ``sweep_dimension``, whose closed forms need no
  sampling, ``wall_s``;
- ``peak_mem_mb``: tracemalloc peak of one repetition in a separate,
  untimed pass.

``--trace 1`` runs the workload untraced for half the time and traced
(``tracing.py``) for the other half, on the inputs of the first
repetition, and reports the per-layer metrics of ``tracing.LAYER_UNITS``
as medians over the traced repetitions.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.random import Generator, Philox

import checks
import workloads
from tracing import LAYER_UNITS, Tracer
from workloads import Simulate, Sweep

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "time_to_answer_s": "s",
    "peak_mem_mb": "MB",
}
MIN_REPS = 3
MIN_TRACE_REPS = 2
SETUP_PROCESSES = 13
SPEEDUP_PAIRS = 3
TARGET_REL_HALF_WIDTH = 0.10
REFERENCE_RUNS = 5  # reference-kernel timings between two commands
# Reference-kernel time at the speed all times are scaled to: its median
# on a 2-core Xeon VM at that machine's typical speed.
REFERENCE_S = 0.0065
# The same for the interpreter half of the reference kernel, timed inside a
# fresh process.
REFERENCE_PY_S = 0.0016

# Prints the set-up time and the median time of the reference kernel's
# interpreter half before and after it. The reference stays in this
# process, next to the set-up, because the speed of a fresh process
# differs from the parent's.
_SETUP_CODE = """
import math, sys, time

def reference():
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 20_001):
        total += math.sqrt(i)
    return time.perf_counter() - start

before = sorted(reference() for _ in range(5))[2]
start = time.perf_counter()
import urllc_mc.cli
from urllc_mc.config import load_scenario
for path in sys.argv[1:]:
    load_scenario(path)
wall = time.perf_counter() - start
after = sorted(reference() for _ in range(5))[2]
print(repr(wall), repr(before), repr(after))
"""


class Tally:
    """Commands attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _reference_kernel() -> float:
    """Fixed interpreter and NumPy work, the latter on arrays larger than a
    core's L2 cache, as in the simulator; about 6 ms."""
    total = 0.0
    for i in range(1, 20_001):
        total += math.sqrt(i)
    draws = Generator(Philox(key=0)).random((40_000, 12))
    return total + float(np.count_nonzero(draws < 0.5))


def reference_seconds() -> float:
    """Median time of ``REFERENCE_RUNS`` runs of the reference kernel, now."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor that scales a time taken between two reference timings to the
    reference speed."""
    return REFERENCE_S / (0.5 * (before + after))


@dataclass
class Rep:
    """One repetition: per command its stdout, wall time and the wall time
    scaled to the reference speed."""

    commands: list
    stdouts: List[str] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def _execute(cli, command, work: Path) -> Tuple[str, float, List[str]]:
    """Run one command; returns its stdout, wall time and problems."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(command.argv(work))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a failed run
        wall = time.perf_counter() - start
        return "", wall, ["raised " + "".join(traceback.format_exception_only(exc)).strip()]
    wall = time.perf_counter() - start
    if code != 0:
        return out.getvalue(), wall, [f"exit code {code}: {err.getvalue().strip()}"]
    return out.getvalue(), wall, command.check(out.getvalue(), work)


def run_rep(cli, commands, work: Path, tally: Tally) -> Rep:
    """Run and check ``commands``, timing the reference kernel between them."""
    gc.collect()
    rep = Rep(commands)
    before = reference_seconds()
    for command in commands:
        stdout, wall, problems = _execute(cli, command, work)
        after = reference_seconds()
        tally.add(command.argv(work)[0], problems)
        rep.stdouts.append(stdout)
        rep.walls.append(wall)
        rep.scaled.append(wall * speed_scale(before, after))
        before = after
    return rep


def timed_reps(cli, make_commands, seconds: float, min_reps: int, work: Path,
               tally: Tally) -> List[Rep]:
    """Repeat ``make_commands(rep_index)`` until ``seconds`` have passed."""
    reps: List[Rep] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        reps.append(run_rep(cli, make_commands(len(reps)), work, tally))
    return reps


def setup_seconds(root: Path, work: Path, workload: str) -> float:
    """Median scaled fresh-process time to import the CLI and parse the
    scenarios."""
    paths = [str(work / f"{name}.json") for name in workloads.scenario_names(workload)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, *paths], cwd=root,
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        wall, before, after = map(float, proc.stdout.split()[-3:])
        times.append(wall * REFERENCE_PY_S / (0.5 * (before + after)))
    return statistics.median(times)


def check_determinism(cli, seed: int, work: Path, tally: Tally) -> None:
    """jobs=2, jobs=1 and a jobs=2 repeat must print the same bytes."""
    commands = workloads.determinism_commands(seed)
    rep = run_rep(cli, commands, work, tally)
    same = len(set(rep.stdouts)) == 1
    tally.add("determinism", [] if same else
              ["simulate stdout differs between jobs=2, jobs=1 and a repeat"])


def peak_memory_mb(cli, commands, work: Path, tally: Tally) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        for command in commands:
            tally.add(command.argv(work)[0], _execute(cli, command, work)[2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def _outage_estimate(stdout: str) -> Optional[Tuple[float, float]]:
    """(outage, 95% half-width) from a simulate output's first row, or
    None when the command failed to print one (already counted as failed)."""
    try:
        fields = stdout.splitlines()[1].split(",")
        return float(fields[1]), float(fields[2])
    except (IndexError, ValueError):
        return None


def check_pooled_outage(reps: List[Rep], tally: Tally) -> None:
    """Each simulate command's outage, averaged over the repetitions, against
    the closed form; the repetitions simulate the same scenarios with new
    seeds."""
    for i, command in enumerate(reps[0].commands):
        if isinstance(command, Simulate):
            estimates = [e for e in (_outage_estimate(rep.stdouts[i]) for rep in reps) if e]
            doc = workloads.SCENARIOS[command.scenario]
            tally.add(f"pooled {command.scenario}",
                      checks.check_pooled_outage(doc, [o for o, _ in estimates]))


def time_to_10pct(reps: List[Rep]) -> float:
    """Projected time for each simulate command to reach a 10% relative
    half-width, summed over the workload's commands.

    Each repetition simulates the same scenarios with new seeds, so the
    estimates are pooled: the pooled single-command half-width is the root
    mean square of the reported half-widths, against the mean outage.
    """
    total = 0.0
    for i, command in enumerate(reps[0].commands):
        if not isinstance(command, Simulate):
            continue
        estimates = [e for e in (_outage_estimate(rep.stdouts[i]) for rep in reps) if e]
        outage = statistics.fmean([o for o, _ in estimates] or [0.0])
        half_width = math.sqrt(statistics.fmean([h * h for _, h in estimates] or [0.0]))
        # no outage seen: count the interval as wide as the estimate
        rel = half_width / outage if outage > 0 and half_width > 0 else 1.0
        wall = statistics.median(rep.scaled[i] for rep in reps)
        total += wall * (rel / TARGET_REL_HALF_WIDTH) ** 2
    return total


def end_to_end(cli, root: Path, work: Path, args, tally: Tally):
    workload = args.workload
    setup_s = setup_seconds(root, work, workload)
    reps = timed_reps(cli, lambda k: workloads.commands(workload, args.seed, k),
                      args.seconds, MIN_REPS, work, tally)
    check_pooled_outage(reps, tally)
    commands = reps[0].commands
    trials = sum(c.trials for c in commands if isinstance(c, Simulate))
    points = sum(c.points for c in commands if isinstance(c, Sweep))
    # per-command medians: a slow spell of the machine then spoils one
    # command's sample, not a whole repetition's
    wall_s = sum(statistics.median(rep.scaled[i] for rep in reps)
                 for i in range(len(commands)))
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "throughput_per_s": (trials or points) / wall_s,
        "time_to_answer_s": time_to_10pct(reps) if trials else wall_s,
        "peak_mem_mb": peak_memory_mb(cli, commands, work, tally),
    }
    check_determinism(cli, args.seed, work, tally)

    shown = [("setup_s", metrics["setup_s"], "s"), ("wall_s", wall_s, "s")]
    if trials:
        shown += [("trials_per_s", metrics["throughput_per_s"] / 1e6, "M trials/s"),
                  ("time_to_10pct_s", metrics["time_to_answer_s"], "s")]
    else:
        shown += [("points_per_s", metrics["throughput_per_s"], "rows/s")]
    shown += [("peak_mem_mb", metrics["peak_mem_mb"], "MB"),
              ("failed_frac", tally.failed / tally.attempted, "ratio"),
              ("repetitions", len(reps), "count"),
              ("unscaled wall_s", sum(statistics.median(rep.walls[i] for rep in reps)
                                      for i in range(len(commands))), "s"),
              ("machine speed (reference = 1)",
               statistics.median(r.scaled_wall / r.wall for r in reps), "ratio")]
    return metrics, END_TO_END, shown


def _parallel_speedup(cli, commands, tracer: Tracer, work: Path, tally: Tally) -> float:
    """simulate_run time at jobs=1 over time at the workload's jobs."""
    parallel = [c for c in commands if isinstance(c, Simulate) and c.jobs > 1]
    if not parallel:
        return 0.0
    serial = [replace(c, jobs=1) if c in parallel else c for c in commands]
    times: Dict[str, List[float]] = {"serial": [], "parallel": []}
    for _ in range(SPEEDUP_PAIRS):
        for key, cmds in (("serial", serial), ("parallel", commands)):
            tracer.reset()
            run_rep(cli, cmds, work, tally)
            times[key].append(tracer.total_s("sim.simulate_run"))
    parallel_s = statistics.median(times["parallel"])
    return statistics.median(times["serial"]) / parallel_s if parallel_s > 0 else 0.0


def per_layer(cli, root: Path, work: Path, args, tally: Tally):
    commands = workloads.commands(args.workload, args.seed, 0)
    half = args.seconds / 2.0
    plain = timed_reps(cli, lambda k: commands, half, MIN_TRACE_REPS, work, tally)
    tracer = Tracer()
    samples: List[Dict[str, float]] = []
    traced: List[Rep] = []
    with tracer.installed():
        deadline = time.perf_counter() + half
        while len(samples) < MIN_TRACE_REPS or time.perf_counter() < deadline:
            tracer.reset()
            traced.append(run_rep(cli, commands, work, tally))
            samples.append(tracer.layer_metrics())
        speedup = _parallel_speedup(cli, commands, tracer, work, tally)
    check_determinism(cli, args.seed, work, tally)

    # counts repeat exactly across repetitions of the same inputs
    metrics = {key: (statistics.median if LAYER_UNITS[key] == "s" else statistics.median_low)(
        s[key] for s in samples) for key in samples[0]}
    metrics["sim.parallel_speedup"] = speedup
    metrics["trace.overhead_s"] = (statistics.median(r.scaled_wall for r in traced)
                                   - statistics.median(r.scaled_wall for r in plain))
    metrics["trace.hooks_missing"] = len(tracer.missing)
    metrics = {key: metrics[key] for key in LAYER_UNITS}
    shown = [(key, value, LAYER_UNITS[key]) for key, value in metrics.items()]
    shown.append(("failed_frac", tally.failed / tally.attempted, "ratio"))
    if tracer.missing:
        print("missing hooks: " + ", ".join(tracer.missing))
    return metrics, LAYER_UNITS, shown


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "urllc_mc" / "cli.py").is_file():
        print(f"error: no urllc_mc sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # inside the checkout: the benchmark writes nowhere else
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        workloads.write_scenarios(work)
        from urllc_mc import cli

        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics, units, shown = measure(cli, root, work, args, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    for name, value, unit in shown:
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
