"""The benchmark's workloads: which CLI commands each one runs, on which inputs.

A workload is a list of commands for ``urllc_mc.cli.main``. The benchmark
seed and a repetition index choose every simulation seed and a sub-step
offset of the sweep grids, so the same seed always gives the same inputs
and every repetition of a run simulates fresh trials.

All scenarios use the default numerology and the ``equal`` metadata
policy; the reference closed forms in ``checks.py`` rely on both.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Union

import checks

PAPER_TRIALS = 5_000_000
DUP3_TRIALS = 3_000_000
# Three full simulator batches and a partial one, so that jobs=2 really
# splits the work in the determinism check.
DETERMINISM_TRIALS = 3 * (1 << 17) + 7

SINR_GRID = (-5.0, 25.0, 2001)  # dB, linear scale
P_D_GRID = (1e-5, 0.3, 20001)  # log10 scale
M_GRID = (1, 8, 8)

SCENARIOS: Dict[str, dict] = {
    # Table 2 operating points: solved p_d, shared alignment, no combining loss.
    "paper_sc": {
        "scheme": "SC", "target_outage": 1e-5, "sinr_db": 10, "policy": "equal",
        "chase": "zero", "shared_frame_alignment": True, "trials": PAPER_TRIALS,
    },
    "paper_mc2": {
        "scheme": "MC", "m_nodes": 2, "target_outage": 1e-5, "sinr_db": 10,
        "policy": "equal", "chase": "zero", "shared_frame_alignment": True,
        "trials": PAPER_TRIALS,
    },
    "dup3": {
        "scheme": "MC", "m_nodes": 3, "sinr_db": [0, 5, 10], "chase": "product",
        "p_d": 0.2, "shared_frame_alignment": False, "target_outage": 1e-5,
        "trials": DUP3_TRIALS,
    },
    "dup3_determinism": {
        "scheme": "MC", "m_nodes": 3, "sinr_db": [0, 5, 10], "chase": "product",
        "p_d": 0.2, "shared_frame_alignment": False, "target_outage": 1e-5,
        "trials": DETERMINISM_TRIALS,
    },
    "dim_zero": {
        "scheme": "MC", "m_nodes": 2, "sinr_db": 10, "target_outage": 1e-5,
        "policy": "equal", "chase": "zero",
    },
    "dim_fbl": {
        "scheme": "MC", "m_nodes": 2, "sinr_db": 10, "target_outage": 1e-5,
        "policy": "equal", "chase": "finite_blocklength",
    },
}

WORKLOADS = ("sim_paper_point", "sim_dup3_parallel", "sweep_dimension")


@dataclass(frozen=True)
class Simulate:
    """``simulate`` on one scenario; checked against the closed form."""

    scenario: str
    seed: int
    jobs: int = 1

    def argv(self, work: Path) -> List[str]:
        return ["simulate", "--config", str(work / f"{self.scenario}.json"),
                "--seed", str(self.seed), "--jobs", str(self.jobs),
                "--format", "csv"]

    def check(self, stdout: str, work: Path) -> List[str]:
        return checks.check_simulate(SCENARIOS[self.scenario], self.seed, stdout)

    @property
    def trials(self) -> int:
        return SCENARIOS[self.scenario]["trials"]


@dataclass(frozen=True)
class Sweep:
    """``sweep`` of one variable; every row is checked."""

    scenario: str
    variable: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def argv(self, work: Path) -> List[str]:
        return ["sweep", "--config", str(work / f"{self.scenario}.json"),
                "--variable", self.variable, "--start", repr(self.start),
                "--stop", repr(self.stop), "--points", str(self.points),
                "--scale", self.scale, "--format", "csv"]

    def check(self, stdout: str, work: Path) -> List[str]:
        return checks.check_sweep(SCENARIOS[self.scenario], self, stdout)


@dataclass(frozen=True)
class Reproduce:
    """``reproduce``; the CSVs must match the reference bytes."""

    def argv(self, work: Path) -> List[str]:
        return ["reproduce", "--out", str(work / "reproduce")]

    def check(self, stdout: str, work: Path) -> List[str]:
        return checks.check_reproduce(work / "reproduce", stdout)


Command = Union[Simulate, Sweep, Reproduce]


def _offset_grid(lo: float, hi: float, points: int, shift: float, log: bool):
    """Grid bounds moved up by ``shift`` (in [0, 1)) of one grid step."""
    if log:
        step = (hi / lo) ** (1.0 / (points - 1))
        factor = step**shift
        return lo * factor, hi * factor
    step = (hi - lo) / (points - 1)
    return lo + shift * step, hi + shift * step


def commands(workload: str, seed: int, rep: int) -> List[Command]:
    """The commands of one repetition of ``workload``."""
    rng = random.Random(f"{workload}/{seed}/{rep}")
    if workload == "sim_paper_point":
        return [Simulate("paper_sc", rng.randrange(2**31)),
                Simulate("paper_mc2", rng.randrange(2**31))]
    if workload == "sim_dup3_parallel":
        return [Simulate("dup3", rng.randrange(2**31), jobs=2)]
    if workload == "sweep_dimension":
        shift = rng.random()
        s_lo, s_hi = _offset_grid(*SINR_GRID, shift, log=False)
        p_lo, p_hi = _offset_grid(*P_D_GRID, shift, log=True)
        return [
            Sweep("dim_zero", "sinr_db", s_lo, s_hi, SINR_GRID[2]),
            Sweep("dim_fbl", "sinr_db", s_lo, s_hi, SINR_GRID[2]),
            Sweep("dim_fbl", "p_d", p_lo, p_hi, P_D_GRID[2], scale="log10"),
            Sweep("dim_zero", "m", *M_GRID),
            Reproduce(),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def determinism_commands(seed: int) -> List[Simulate]:
    """``sim_dup3_parallel``'s scenario at jobs=2, jobs=1 and jobs=2 again."""
    sim_seed = random.Random(f"determinism/{seed}").randrange(2**31)
    first = Simulate("dup3_determinism", sim_seed, jobs=2)
    return [first, dataclasses.replace(first, jobs=1), first]


def scenario_names(workload: str) -> List[str]:
    """Names of the scenarios ``workload`` parses."""
    return sorted({c.scenario for c in commands(workload, 0, 0) if hasattr(c, "scenario")})


def write_scenarios(work: Path) -> None:
    for name, doc in SCENARIOS.items():
        (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
