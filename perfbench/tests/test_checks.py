"""Tests of the benchmark's own output checks and tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from urllc_mc import cli  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("work")
    workloads.write_scenarios(path)
    return path


@pytest.fixture(scope="module")
def reps(work):
    """First repetition of every workload on the untouched toolkit."""
    tally = run.Tally()
    out = {w: run.run_rep(cli, workloads.commands(w, SEED, 0), work, tally)
           for w in workloads.WORKLOADS}
    assert tally.problems == []
    return out


def failed_frac(rep, work, index=None, stdout=None) -> float:
    """Score a repetition, with command ``index`` printing ``stdout``."""
    tally = run.Tally()
    for i, (command, out) in enumerate(zip(rep.commands, rep.stdouts)):
        tally.add(str(i), command.check(stdout if i == index else out, work))
    return tally.failed / tally.attempted


def _edit_field(stdout: str, row: int, col: int, edit) -> str:
    lines = stdout.splitlines()
    fields = lines[row].split(",")
    fields[col] = repr(edit(float(fields[col])))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_untouched_seed_scores_zero(reps, work):
    for rep in reps.values():
        assert failed_frac(rep, work) == 0.0
    tally = run.Tally()
    run.check_determinism(cli, SEED, work, tally)
    assert (tally.failed, tally.problems) == (0, [])


def test_tampered_simulate_outage_fails(reps, work):
    rep = reps["sim_paper_point"]
    tampered = _edit_field(rep.stdouts[0], 1, 1, lambda v: 3.0 * v)
    assert failed_frac(rep, work, 0, tampered) > 0.0


@pytest.mark.parametrize("factor, failed", [(1.0, 0), (0.5, 1), (2.0, 1)])
def test_pooled_outage_catches_what_one_command_cannot(reps, work, factor, failed):
    rep = reps["sim_paper_point"]
    ref = checks.reference_outage(workloads.SCENARIOS["paper_sc"])[1]
    # nine repetitions, each reporting the SC outage as factor x the closed
    # form and MC2's as the closed form itself
    stdouts = [_edit_field(rep.stdouts[0], 1, 1, lambda v: factor * ref),
               _edit_field(rep.stdouts[1], 1, 1, lambda v: ref)]
    nine = [run.Rep(rep.commands, stdouts, rep.walls) for _ in range(9)]
    assert failed_frac(nine[0], work) == 0.0
    tally = run.Tally()
    run.check_pooled_outage(nine, tally)
    assert (tally.attempted, tally.failed) == (2, failed)


@pytest.mark.parametrize("col", [3, 4, 5], ids=["bler_target", "channel_use", "total_usage"])
def test_tampered_sweep_row_fails(reps, work, col):
    rep = reps["sweep_dimension"]
    tampered = _edit_field(rep.stdouts[0], 1000, col, lambda v: v * 1.001)
    assert failed_frac(rep, work, 0, tampered) > 0.0


def test_tampered_p_d_sweep_outage_fails(reps, work):
    rep = reps["sweep_dimension"]
    tampered = _edit_field(rep.stdouts[2], 15000, 4, lambda v: v * 1.0001)
    assert failed_frac(rep, work, 2, tampered) > 0.0


def test_changed_reproduce_csv_fails(reps, work, tmp_path):
    rep = reps["sweep_dimension"]
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    fig3 = copy / "reproduce" / "fig3.csv"
    fig3.write_text(fig3.read_text(encoding="utf-8").replace("MC,3", "MC,3 ", 1),
                    encoding="utf-8")
    assert failed_frac(rep, copy) > 0.0


@pytest.mark.parametrize("stdouts, failed", [(["a", "a", "a"], 0), (["a", "b", "a"], 1)])
def test_determinism_check_compares_bytes(work, monkeypatch, stdouts, failed):
    monkeypatch.setattr(run, "run_rep", lambda *args: run.Rep([], stdouts, [0.0] * 3))
    tally = run.Tally()
    run.check_determinism(cli, SEED, work, tally)
    assert tally.failed == failed


def test_missing_hook_is_reported_not_fatal(work, monkeypatch):
    hooks = tracing.HOOKS + (tracing.Hook("solver", "no_such_function"),)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    tracer = tracing.Tracer()
    original = cli.solve_bler
    tally = run.Tally()
    with tracer.installed():
        assert cli.solve_bler is not original
        run.run_rep(cli, [workloads.Sweep("dim_zero", "m", *workloads.M_GRID)], work, tally)
    assert cli.solve_bler is original
    assert tracer.missing == ["solver.no_such_function"]
    assert tally.failed == 0
    metrics = tracer.layer_metrics()
    assert metrics["solver.solve_bler.calls"] > 0 and metrics["solver.iterations"] > 0
    assert metrics["cli.main.calls"] == 1


def test_benchmark_json_names_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS
