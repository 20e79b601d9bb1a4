"""End-to-end tests of the command-line interface.

main() is invoked in-process with argv lists; stdout/stderr are captured
through capsys. Exit codes: 0 ok, 2 parse, 3 validation, 4 solver,
5 domain, 6 I/O.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import urllc_mc
from urllc_mc.cli import _fmt, _linspace, _logspace, cmd_simulate, main
from urllc_mc.config import load_scenario
from urllc_mc.fbl import FblContext, channel_use, db_to_linear
from urllc_mc.outage import ChaseModel, chase_bler
from urllc_mc.sim import latency_budget_check
from urllc_mc.solver import BlerPolicy, solve_bler


@pytest.fixture()
def config_path(tmp_path):
    def write(**overrides):
        doc = {"scheme": "SC", "target_outage": 1e-5, "sinr_db": 10}
        doc.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def _rows(output: str) -> list[dict]:
    lines = output.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# solve / resource / outage


def test_solve_reproduces_sc_reference(config_path, capsys):
    code = main(["solve", "--config", config_path(), "--format", "csv"])
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["p_d"]) == pytest.approx(0.001826, abs=2e-5)
    assert float(row["achieved_outage"]) == pytest.approx(1e-5, rel=1e-3)


def test_solve_reproduces_mc_reference(config_path, capsys):
    code = main(["solve", "--config", config_path(scheme="MC"), "--format", "csv"])
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["p_d"]) == pytest.approx(0.0328, abs=2e-4)


def test_resource_reports_table_row(config_path, capsys):
    code = main(["resource", "--config", config_path(), "--format", "csv"])
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["channel_use"]) == pytest.approx(85.14, abs=0.05)
    assert float(row["total_usage"]) == pytest.approx(85.44, abs=0.10)
    assert row["metadata_channel_use"] == ""


def test_resource_prints_configured_scheme(config_path, capsys):
    code = main([
        "resource", "--config", config_path(scheme="MC", m_nodes=1),
        "--format", "csv",
    ])
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    assert (row["scheme"], row["m"]) == ("MC", "1")


def test_resource_with_metadata_report(config_path, capsys):
    code = main([
        "resource", "--config", config_path(metadata_bits=128),
        "--format", "csv",
    ])
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["metadata_channel_use"]) > 0


@pytest.mark.parametrize("overrides, filled", [({}, False), ({"metadata_bits": 128}, True)])
def test_metadata_channel_use_reported_iff_metadata_bits_given(config_path, capsys,
                                                               overrides, filled):
    code = main([
        "resource", "--config", config_path(scheme="MC", **overrides), "--format", "csv",
    ])
    assert code == 0
    cell = _rows(capsys.readouterr().out)[0]["metadata_channel_use"]
    assert (float(cell) > 0) if filled else cell == ""


def test_report_metadata_use_is_rejected_by_name(config_path, capsys):
    # giving metadata_bits is the request; there is no separate switch
    code = main([
        "resource", "--config", config_path(metadata_bits=128, report_metadata_use=True),
    ])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "VALIDATION_ERROR: unknown key 'report_metadata_use'" in err


def test_metadata_bler_past_the_sizable_range_names_metadata_bits(config_path, capsys):
    # the solve succeeds; only a metadata BLER below 0.5 can be sized
    code = main([
        "resource", "--config", config_path(scheme="MC", target_outage=0.2, metadata_bits=64,
                                            policy="fixed_meta", fixed_meta=0.6),
    ])
    assert code == 5
    assert capsys.readouterr() == ("", "error: DOMAIN_ERROR: metadata_bits: cannot size "
                                       "the metadata at BLER 0.6, which must be below 0.5\n")


@pytest.mark.parametrize("doc", [
    {"scheme": "MC", "m_nodes": 3, "sinr_db": [0, 5, 10], "chase": "finite_blocklength",
     "policy": "half"},
    {"scheme": "MC", "m_nodes": 2, "sinr_db": 10, "policy": "half"},
], ids=["per_node_sinr", "equal_links"])
def test_metadata_channel_use_is_the_node_average_beside_the_data_cells(config_path, capsys,
                                                                         doc):
    # resource sizes the metadata itself, at the solved metadata BLER (half
    # the data BLER here); the data cells are those of the same document
    # without metadata_bits
    rows = []
    for extra in ({}, {"metadata_bits": 128}):
        path = config_path(**doc, **extra)
        assert main(["resource", "--config", path, "--format", "csv"]) == 0
        rows.append(_rows(capsys.readouterr().out)[0])
    plain, with_meta = rows
    cfg = load_scenario(config_path(**doc))
    p_m = solve_bler(cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase,
                     cfg.contexts()).p_m
    meta = [channel_use(FblContext(128, c.sinr_linear), p_m) for c in cfg.contexts()]
    assert with_meta["metadata_channel_use"] == _fmt(math.fsum(meta) / cfg.m_nodes)
    assert plain["metadata_channel_use"] == ""
    for column in ("bler_target", "channel_use", "total_usage"):
        assert with_meta[column] == plain[column]


@pytest.mark.parametrize(
    "command, p_d",
    [(["outage"], 0.6), (["simulate"], 0.6),
     (["sweep", "--variable", "p_d", "--start", "0.1", "--stop", "0.9", "--points", "5"], 0.5)],
    ids=["outage", "simulate", "sweep"],
)
def test_finite_blocklength_data_bler_past_the_sizable_range_names_p_d(
        config_path, capsys, command, p_d):
    # the combined BLER is evaluated over the channel uses of one copy at p_d
    doc = {"scheme": "MC", "chase": "finite_blocklength"}
    if command[0] != "sweep":  # a sweep sets p_d itself
        doc["p_d"] = p_d
    code = main([*command, "--config", config_path(**doc)])
    assert code == 5
    assert capsys.readouterr() == ("", "error: DOMAIN_ERROR: p_d: finite_blocklength chase "
                                       f"needs a BLER in (0, 0.5), got {p_d!r}\n")


@pytest.mark.parametrize("name", ["t_up_ttis", "t_bp_initial_ttis"])
def test_negative_numerology_delay_names_its_value(config_path, capsys, name):
    code = main(["solve", "--config", config_path(scheme="MC", numerology={name: -1})])
    assert code == 3
    assert capsys.readouterr() == (
        "", f"error: VALIDATION_ERROR: {name} must be nonnegative, got -1.0\n")


def test_outage_breakdown_at_fixed_bler(config_path, capsys):
    code = main([
        "outage", "--config", config_path(p_d=0.1, policy="fixed_meta",
                                           fixed_meta=0.01),
        "--format", "csv",
    ])
    assert code == 0
    row = _rows(capsys.readouterr().out)[0]
    assert float(row["p_succ_first"]) == pytest.approx(0.891, rel=1e-9)
    assert float(row["p_out_link"]) == float(row["p_out_total"])


def test_outage_requires_p_d(config_path, capsys):
    code = main(["outage", "--config", config_path()])
    assert code == 3
    assert "VALIDATION_ERROR" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_emits_estimate_set(config_path, capsys):
    code = main([
        "simulate", "--config", config_path(p_d=0.1, trials=20000, seed=7),
        "--format", "csv",
    ])
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    metrics = [r["metric"] for r in rows]
    assert metrics == [
        "outage", "mean_usage_multiples", "latency_ttis_q0.99", "latency_ms_q0.99",
    ]
    outage = float(rows[0]["value"])
    assert outage == pytest.approx(3 * 0.1**2 - 2 * 0.1**3, abs=0.005)


def test_simulate_rejects_zero_trials(config_path, capsys):
    code = main(["simulate", "--config", config_path(trials=0)])
    assert code == 3
    assert "VALIDATION_ERROR" in capsys.readouterr().err


def test_simulate_deterministic_and_thread_invariant(config_path, capsys):
    argv = ["simulate", "--config", config_path(p_d=0.05, trials=30000, seed=42),
            "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert main(argv + ["--jobs", "4"]) == 0
    threaded = capsys.readouterr().out
    assert first == second == threaded


@pytest.mark.parametrize("via_flag", [False, True])
def test_simulate_seed_bounded_by_philox_key(config_path, capsys, via_flag):
    # the seed is the 128-bit Philox key
    for seed, code in ((2**128 - 1, 0), (2**128, 3)):
        if via_flag:
            argv = ["simulate", "--config", config_path(p_d=0.1, trials=10),
                    "--seed", str(seed)]
        else:
            argv = ["simulate", "--config", config_path(p_d=0.1, trials=10, seed=seed)]
        assert main(argv) == code
        if code:
            err = capsys.readouterr().err
            assert "VALIDATION_ERROR" in err and "seed" in err


@pytest.mark.parametrize("command", [
    ["outage"], ["solve"], ["resource"], ["simulate"],
    ["sweep", "--variable", "p_d", "--start", "0.01", "--stop", "0.1", "--points", "2"],
], ids=lambda argv: argv[0])
def test_document_seed_bounded_on_every_command(config_path, capsys, command):
    # a document's seed is checked when it is parsed, whether or not the
    # command draws with it
    for seed, code in ((2**128 - 1, 0), (2**128, 3)):
        path = config_path(p_d=0.1, trials=10, seed=seed)
        assert main([command[0], "--config", path, *command[1:]]) == code
        err = capsys.readouterr().err
        if code:
            assert "VALIDATION_ERROR: seed: must be <=" in err


def test_simulate_ms_row_is_the_budget_worst_case_at_quantile_one(config_path):
    # one TTIs-to-ms conversion: the q = 1 row is latency_budget_check's
    # worst case to the last bit, not only to the 9 printed digits
    cfg = load_scenario(config_path(
        p_d=0.1, trials=2000, latency_quantile=1,
        numerology={"t_up_ttis": 0, "harq_rtt_ttis": 7, "symbols_per_tti": 2, "scs_khz": 15},
    ))
    _, rows = cmd_simulate(cfg, argparse.Namespace(seed=None, jobs=1))
    assert rows[3][0] == "latency_ms_q1"
    assert rows[3][1] == latency_budget_check(cfg.numerology, 1.0)[0]


def test_simulate_prints_nan_latency_when_nothing_is_delivered(config_path, capsys):
    # ttis_to_ms refuses NaN, so the ms row passes it on without converting
    assert main(["simulate", "--config", config_path(p_d=0.999999, trials=10),
                 "--format", "csv"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0]["value"] == "1"
    assert [r["value"] for r in rows[2:]] == ["nan", "nan"]


def test_simulate_seed_override_changes_stream(config_path, capsys):
    path = config_path(p_d=0.05, trials=30000, seed=42)
    assert main(["simulate", "--config", path, "--format", "csv"]) == 0
    base = capsys.readouterr().out
    assert main(["simulate", "--config", path, "--format", "csv",
                 "--seed", "43"]) == 0
    other = capsys.readouterr().out
    assert base != other


# ---------------------------------------------------------------------------
# sweep


def test_sweep_p_d_outage_monotone_in_m(config_path, capsys):
    outputs = {}
    for m in (2, 3):
        code = main([
            "sweep", "--config", config_path(scheme="MC", m_nodes=m, policy="half"),
            "--variable", "p_d", "--start", "1e-4", "--stop", "1e-1",
            "--points", "13", "--scale", "log10", "--format", "csv",
        ])
        assert code == 0
        outputs[m] = _rows(capsys.readouterr().out)
    out2 = np.array([float(r["outage"]) for r in outputs[2]])
    out3 = np.array([float(r["outage"]) for r in outputs[3]])
    # more duplication never hurts, and outage grows with the BLER target
    assert np.all(out3 <= out2)
    assert np.all(np.diff(out2) >= 0)


def test_sweep_m_solves_each_node_count(config_path, capsys):
    code = main([
        "sweep", "--config", config_path(scheme="MC"), "--variable", "m",
        "--start", "1", "--stop", "3", "--points", "3", "--format", "csv",
    ])
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["m"] for r in rows] == ["1", "2", "3"]
    blers = [float(r["bler_target"]) for r in rows]
    assert blers[0] < blers[1] < blers[2]
    ctx = FblContext(256, db_to_linear(10.0))
    for m, row in enumerate(rows, start=1):
        result = solve_bler(m, 1e-5, BlerPolicy(), ChaseModel.ZERO, [ctx] * m)
        assert row["achieved_outage"] == f"{result.achieved_outage:.9g}"


def test_sweep_m_rejects_differing_node_sinrs(config_path, capsys):
    code = main([
        "sweep", "--config", config_path(scheme="MC", m_nodes=3, sinr_db=[0, 5, 10]),
        "--variable", "m", "--start", "1", "--stop", "3", "--points", "3",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "VALIDATION_ERROR" in captured.err and "sinr_db" in captured.err


@pytest.mark.parametrize("variable", ["p_d", "sinr_db", "m"])
def test_sweep_rejects_non_finite_bounds_by_name(config_path, capsys, variable):
    for start, stop, name in (("1", "inf", "stop"), ("nan", "3", "start")):
        code = main([
            "sweep", "--config", config_path(), "--variable", variable,
            "--start", start, "--stop", stop, "--points", "3",
        ])
        assert code == 3
        assert f"VALIDATION_ERROR: sweep {name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("huge", ["-1e400", "1e5000"])
def test_sweep_rejects_huge_bounds_by_name(config_path, capsys, huge):
    # argparse reads a literal past the float range as an infinity; the
    # equals form lets a negative one through as a value
    inf = repr(float(huge))
    for start, stop, name in (("0.1", huge, "stop"), (huge, "0.5", "start")):
        code = main([
            "sweep", "--config", config_path(), "--variable", "p_d",
            f"--start={start}", f"--stop={stop}", "--points", "3",
        ])
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error: VALIDATION_ERROR: sweep {name} must be finite, got {inf}\n")


@pytest.mark.parametrize(
    "variable, start, stop, points, message",
    [
        # capacity rounds to 0 / overflow in linear scale
        ("sinr_db", "-400", "-200", "3", "sinr_db sweep value -400.0: capacity"),
        ("sinr_db", "0", "1e300", "3", "sinr_db sweep value 5e+299: must be finite"),
        # no node count of at least 1, and one beyond MAX_NODES
        ("m", "-5", "0.2", "3", "m sweep value -5 outside [1, 64]"),
        ("m", "1", "1e9", "2", "m sweep value 1000000000 outside [1, 64]"),
        ("p_d", "1e-4", "0.1", "100000000000000000000", "sweep points must be at most"),
        ("p_d", "1e-4", "0.1", "1000001", "sweep points must be at most 1000000"),
        # a BLER grid value of 1 or more
        ("p_d", "0.5", "1.5", "3", "p_d sweep value 1.0 outside (0, 1)"),
    ],
)
def test_sweep_rejects_grid_values_outside_the_domain_by_name(
    config_path, capsys, variable, start, stop, points, message
):
    code = main([
        "sweep", "--config", config_path(), "--variable", variable,
        "--start", start, "--stop", stop, "--points", points,
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"VALIDATION_ERROR: {message}" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--points", "1"], "sweep needs at least 2 points, got 1"),
        (["--start", "0.1"], "sweep start must be below stop, got [0.1, 0.1]"),
        (["--start", "0", "--scale", "log10"], "log-scale sweep requires start > 0"),
        (["--points", "-3"], "sweep needs at least 2 points, got -3"),
        (["--start", "0.2"], "sweep start must be below stop, got [0.2, 0.1]"),
        (["--start", "-1", "--scale", "log10"], "log-scale sweep requires start > 0"),
        (["--start", "0.1", "--points", "1"], "sweep start must be below stop, got [0.1, 0.1]"),
    ],
    ids=["one-point", "start-at-stop", "log-start-zero", "negative-points",
         "start-above-stop", "log-start-negative", "bounds-before-points"],
)
def test_sweep_flags_argparse_accepts_are_rejected_by_name(config_path, capsys, flags,
                                                          message):
    # a later flag overrides an earlier one
    code = main([
        "sweep", "--config", config_path(), "--variable", "p_d",
        "--start", "1e-4", "--stop", "0.1", "--points", "10", *flags,
    ])
    assert code == 3
    assert capsys.readouterr() == ("", f"error: VALIDATION_ERROR: {message}\n")


def test_sweep_takes_the_most_points(config_path, capsys):
    code = main([
        "sweep", "--config", config_path(), "--variable", "m",
        "--start", "1", "--stop", "3", "--points", "1000000", "--format", "csv",
    ])
    assert code == 0
    assert [r["m"] for r in _rows(capsys.readouterr().out)] == ["1", "2", "3"]


def test_sweep_m_rejects_the_log_scale(config_path, capsys):
    code = main([
        "sweep", "--config", config_path(), "--variable", "m",
        "--start", "1", "--stop", "4", "--points", "4", "--scale", "log10",
    ])
    assert code == 3
    assert "VALIDATION_ERROR: m sweep supports only the linear scale" in capsys.readouterr().err


def test_sweep_takes_a_negative_exponent_bound_in_the_equals_form(config_path, capsys):
    # argparse reads "-1e1" after "--start" as an option, so a negative
    # bound in exponent form goes in as "--start=-1e1"
    config = config_path(scheme="MC")
    sweep = ["sweep", "--config", config, "--variable", "sinr_db", "--stop", "10",
             "--points", "5", "--format", "csv"]
    assert main([*sweep, "--start", "-10"]) == 0
    plain = capsys.readouterr()
    assert main([*sweep, "--start=-1e1"]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.splitlines()[1].startswith("-10,MC,2,")


def test_sweep_sinr_usage_decreases(config_path, capsys):
    code = main([
        "sweep", "--config", config_path(), "--variable", "sinr_db",
        "--start", "0", "--stop", "10", "--points", "3", "--format", "csv",
    ])
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    usages = [float(r["total_usage"]) for r in rows]
    assert usages[0] > usages[1] > usages[2]


def test_sinr_past_the_dispersion_overflow_is_sized(config_path, capsys):
    # (1 + sinr)^2 overflows a double between about 1,541 and 3,083 dB
    assert main(["solve", "--config", config_path(sinr_db=2000)]) == 0
    capsys.readouterr()
    code = main([
        "sweep", "--config", config_path(), "--variable", "sinr_db",
        "--start", "0", "--stop", "2000", "--points", "3", "--format", "csv",
    ])
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["sinr_db"] for r in rows] == ["0", "1000", "2000"]


# ---------------------------------------------------------------------------
# errors and exit codes


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["solve", "--config", str(bad)])
    assert code == 2
    assert "PARSE_ERROR" in capsys.readouterr().err
    # an integer literal past the int-to-string digit limit
    bad.write_text('{"scheme": "SC", "target_outage": 1e-5, "sinr_db": 1' + "0" * 5000 + "}")
    code = main(["solve", "--config", str(bad)])
    assert code == 2
    assert "PARSE_ERROR" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (b'{"scheme": "SC", "target_outage": 1e-5, "sinr_db": 10, "x": "\xff"}',
     "can't decode byte 0xff"),
    (b"[" * 100_000, "maximum recursion depth exceeded"),
    (b'\xef\xbb\xbf{"scheme": "SC", "target_outage": 1e-5, "sinr_db": 10}',
     "Unexpected UTF-8 BOM"),
], ids=["not-utf8", "nested", "bom"])
def test_unreadable_document_is_a_parse_error(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["solve", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PARSE_ERROR: ") and err.count("\n") == 1
    assert message in err


def test_solver_error_exit_code(config_path, capsys):
    # fixed 1% metadata BLER floors the outage at 1e-4, above the target
    code = main([
        "solve", "--config", config_path(policy="fixed_meta", fixed_meta=0.01),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert "SOLVER_ERROR" in err
    assert "NO_BRACKET" in err


def test_domain_error_exit_code(config_path, capsys):
    # parses fine (in (0,1)) but lies outside the solver's target domain
    code = main(["solve", "--config", config_path(target_outage=0.3)])
    assert code == 5
    assert "DOMAIN_ERROR" in capsys.readouterr().err


def test_outage_emits_one_row_per_node(config_path, capsys):
    code = main([
        "outage",
        "--config", config_path(scheme="MC", m_nodes=2, sinr_db=[0, 10], p_d=0.1,
                                chase="finite_blocklength"),
        "--format", "csv",
    ])
    assert code == 0
    rows = _rows(capsys.readouterr().out)
    assert [r["node"] for r in rows] == ["1", "2"]
    assert rows[0]["p_out_total"] == rows[1]["p_out_total"]
    # each node's combined decode is sized from its own SINR
    assert rows[0]["p_c"] != rows[1]["p_c"]
    for row, sinr_db in zip(rows, (0.0, 10.0)):
        ctx = FblContext(256, db_to_linear(sinr_db))
        p_c = chase_bler(ChaseModel.FINITE_BLOCKLENGTH, 0.1, ctx)
        assert row["p_c"] == f"{p_c:.9g}"


def test_integer_beyond_float_range_exit_code(config_path, capsys):
    code = main(["solve", "--config", config_path(sinr_db=10**400)])
    assert code == 3
    err = capsys.readouterr().err
    assert "VALIDATION_ERROR: sinr_db: must be finite" in err


def test_number_given_as_a_string_is_one_validation_line(config_path, capsys):
    code = main(["solve", "--config", config_path(target_outage="1e-5")])
    assert code == 3
    assert capsys.readouterr() == (
        "", "error: VALIDATION_ERROR: target_outage: must be a number, got '1e-5'\n")


@pytest.mark.parametrize(
    "command, overrides",
    [(["resource"], {"payload_bits": 10**308}),
     (["resource"], {"metadata_bits": 10**308}),
     (["sweep", "--variable", "sinr_db", "--start", "0", "--stop", "10", "--points", "3"],
      {"payload_bits": 10**308})],
)
def test_channel_use_overflow_exit_code(config_path, capsys, command, overrides):
    # a bit count that fits a float can still overflow the channel use
    code = main([*command, "--config", config_path(**overrides), "--format", "csv"])
    assert code == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert f"DOMAIN_ERROR: channel use of a {10**308}-bit payload overflows" in err


@pytest.mark.parametrize(
    "overrides, field",
    [({"scheme": "MC", "m_nodes": 65}, "m_nodes"),
     ({"scheme": "MC", "m_nodes": 10**30}, "m_nodes"),
     ({"sinr_db": -200}, "sinr_db"),
     ({"sinr_db": 1e300}, "sinr_db"),
     # finite timing whose worst-case latency overflows in ms or in TTIs
     ({"numerology": {"scs_khz": 1e-310}}, "numerology"),
     ({"numerology": {"t_tx_ttis": 1e308, "t_up_ttis": 1e308}}, "numerology")],
)
def test_out_of_domain_scenario_values_exit_code(config_path, capsys, overrides, field):
    code = main(["resource", "--config", config_path(**overrides)])
    assert code == 3
    assert f"VALIDATION_ERROR: {field}: " in capsys.readouterr().err


def test_simulate_trials_bounded_by_name(config_path, capsys):
    # more trials than the int64 tallies hold
    code = main(["simulate", "--config", config_path(p_d=0.1, trials=10**30)])
    assert code == 3
    assert "VALIDATION_ERROR: trials: must be <= 9223372036854775807" in capsys.readouterr().err


def test_simulate_jobs_bounded_before_any_thread(config_path, capsys):
    code = main(["simulate", "--config", config_path(p_d=0.1, trials=10), "--jobs", "65"])
    assert code == 3
    assert "VALIDATION_ERROR: jobs must be at most 64" in capsys.readouterr().err


def test_missing_config_file_exit_code(capsys):
    code = main(["solve", "--config", "/nonexistent/path.json"])
    assert code == 6
    assert "IO_ERROR" in capsys.readouterr().err


def test_missing_config_flag(capsys):
    code = main(["solve"])
    assert code == 3


def test_subcommands_reject_flags_they_ignore(config_path, capsys):
    # --jobs and --seed belong to simulate, --out to reproduce
    for argv in (
        ["outage", "--config", config_path(p_d=0.1), "--jobs", "2"],
        ["solve", "--config", config_path(), "--seed", "3"],
        ["reproduce", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _probe(code: str, *args: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = Path(urllc_mc.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_only_stdlib():
    # the package declares only numpy, and only the simulator and the exact
    # success mix import it, when they run: the Q-function pair comes from
    # the standard library, and scipy, mpmath and hypothesis serve the
    # benchmark's oracle and the tests
    added = ast.literal_eval(_probe(
        "import sys; before = set(sys.modules); import urllc_mc.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"))
    assert [m for m in added if m not in sys.stdlib_module_names] == ["urllc_mc"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the value types are typing.NamedTuple records; dataclasses imports
    # inspect, which imports ast, dis and tokenize, a third of the set-up time
    loaded = ast.literal_eval(_probe(
        "import sys, urllc_mc.cli; "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"))
    assert loaded == []


_SIMULATOR_MODULES = ("numpy", "numpy.random", "concurrent.futures")

# Runs every closed-form command through cli.main in one process, then
# simulate; prints which simulator modules were loaded after each.
_COMMANDS_PROBE = """
import os, sys
from urllc_mc.cli import main

config, out = sys.argv[1:]
loaded = lambda: [m for m in %r if m in sys.modules]
sweep = ["sweep", "--config", config, "--format", "csv"]
for argv in (
    ["outage", "--config", config],
    ["solve", "--config", config],
    ["resource", "--config", config],
    [*sweep, "--variable", "p_d", "--start", "1e-4", "--stop", "0.1", "--points", "41",
     "--scale", "log10"],
    [*sweep, "--variable", "sinr_db", "--start", "-5", "--stop", "15", "--points", "21"],
    [*sweep, "--variable", "m", "--start", "1", "--stop", "4", "--points", "4"],
    ["reproduce", "--out", out],
):
    with open(os.devnull, "w") as sys.stdout:
        assert main(argv) == 0, argv
sys.stdout = sys.__stdout__
print(loaded())
with open(os.devnull, "w") as sys.stdout:
    assert main(["simulate", "--config", config, "--jobs", "2"]) == 0
sys.stdout = sys.__stdout__
print(loaded())
""" % (_SIMULATOR_MODULES,)


def test_only_simulate_loads_numpy_and_the_thread_pool(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"scheme": "MC", "target_outage": 1e-5, "sinr_db": 10,
                                  "p_d": 0.01, "trials": 20_000}))
    closed_form, simulate = map(ast.literal_eval, _probe(
        _COMMANDS_PROBE, str(config), str(tmp_path / "repro")).splitlines())
    assert closed_form == []
    assert simulate == list(_SIMULATOR_MODULES)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _bits(values) -> list:  # sign, NaN and every bit count
    return [float.hex(float(v)) for v in values]


@settings(max_examples=500, deadline=None)
@given(_FLOATS, _FLOATS, st.integers(2, 300))
@example(0.0, 1e-323, 6)  # the step underflows to 0, yet 2 / 5 * 1e-323 does not
@example(1.0, 1.0, 4)  # no range at all
@example(-sys.float_info.max, sys.float_info.max, 5)  # the range overflows
@example(sys.float_info.max, -sys.float_info.max, 2)
@example(-1e-4, 0.1, 20_001)
def test_linspace_repeats_numpy_value_for_value(start, stop, n):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(start, stop, n)
    assert _bits(_linspace(start, stop, n)) == _bits(expected)


@settings(max_examples=300, deadline=None)
@given(st.floats(-300, 300), st.floats(-300, 300), st.integers(2, 100))
def test_log_grid_is_libm_pow_within_one_ulp_of_numpy(start, stop, n):
    exponents = _linspace(start, stop, n)
    grid = _logspace(start, stop, n)
    assert grid == [10.0 ** x for x in exponents]
    for value, reference in zip(grid, np.logspace(start, stop, n).tolist()):
        assert abs(value - reference) <= math.ulp(reference)


def test_log_grid_overflows_to_inf():
    assert _logspace(300.0, 400.0, 3) == [1e300, math.inf, math.inf]
    assert _logspace(-400.0, 0.0, 2) == [0.0, 1.0]


def test_log_sweep_past_the_float_range_is_a_grid_value_error(config_path, capsys):
    # 10 ** log10(max float) overflows; the point is inf, outside (0, 1)
    code = main([
        "sweep", "--config", config_path(), "--variable", "p_d", "--scale", "log10",
        "--start", "0.5", "--stop", repr(sys.float_info.max), "--points", "2",
    ])
    assert code == 3
    assert capsys.readouterr() == (
        "", "error: VALIDATION_ERROR: p_d sweep value inf outside (0, 1)\n")


@pytest.mark.parametrize(
    "variable, message",
    [
        ("m", "m sweep value nan outside [1, 64]"),
        ("p_d", "p_d sweep value nan outside (0, 1)"),
        ("sinr_db", "sinr_db sweep value nan: x_db must be a finite number, got nan"),
    ],
)
def test_linear_sweep_across_the_float_range_is_a_grid_value_error(config_path, capsys,
                                                                   variable, message):
    # stop - start overflows, so the first point is 0 * inf + start = nan;
    # the m sweep names it instead of rounding it
    huge = repr(sys.float_info.max)
    code = main([
        "sweep", "--config", config_path(), "--variable", variable,
        f"--start=-{huge}", "--stop", huge, "--points", "3",
    ])
    assert code == 3
    assert capsys.readouterr() == ("", f"error: VALIDATION_ERROR: {message}\n")


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "repro"
    code = main(["reproduce", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"table2.csv", "fig3.csv", "fig4.csv", "fig5.csv"}

    table2 = _rows((out / "table2.csv").read_text())
    sc = next(r for r in table2 if r["scheme"] == "SC")
    mc = next(r for r in table2 if r["scheme"] == "MC")
    assert float(sc["bler_target"]) == pytest.approx(0.001826, abs=2e-5)
    assert float(sc["channel_use"]) == pytest.approx(85.14, abs=0.05)
    assert float(sc["usage_eq"]) == pytest.approx(85.44, abs=0.10)
    assert sc["discrepancy_flag"] == "no"
    assert float(mc["channel_use"]) == pytest.approx(80.88, abs=0.05)
    assert float(mc["usage_eq"]) == pytest.approx(172.20, abs=0.10)
    assert float(mc["usage_paper"]) == 166.12
    assert mc["discrepancy_flag"] == "yes"

    fig4 = _rows((out / "fig4.csv").read_text())
    assert float(fig4[0]["normalized_usage"]) == pytest.approx(1.109, abs=1e-3)
    assert float(fig4[1]["normalized_usage"]) == pytest.approx(2.218, abs=2e-3)

    fig5 = _rows((out / "fig5.csv").read_text())
    for row in fig5:
        assert 0.46 <= float(row["sc_savings"]) <= 0.52

    fig3 = _rows((out / "fig3.csv").read_text())
    assert len(fig3) == 61 * 2 * 3
    assert fig3[0]["p_d"] == "0.0001"


def test_reproduce_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["reproduce", "--out", str(out_a)]) == 0
    assert main(["reproduce", "--out", str(out_b)]) == 0
    for name in ("table2.csv", "fig3.csv", "fig4.csv", "fig5.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


REPRODUCE_SHA256 = {
    "table2.csv": "5d3a365f5c49ffd88cbd9ee7e5ea171d1182ad185186774a78b447132b63ed3e",
    "fig3.csv": "c72067be69b679bd95c59f98804aec67cf1ccd760389aec017fe3036db27e3da",
    "fig4.csv": "45de6cdf68066136017e869ab33c59cf9dfaf097acaf45c060dd961497ae6270",
    "fig5.csv": "3b5bbeb44538ed008d9ea046662fd291375667811deae7911e5cd090b6406aa4",
}


def test_reproduce_bytes_are_pinned(tmp_path, capsys):
    # the reference CSVs must not move by a single byte
    assert main(["reproduce", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in REPRODUCE_SHA256}
    assert digests == REPRODUCE_SHA256


# simulate --seed 2024 --format csv on 1e5-trial documents: the Table 2 SC
# and MC2 points, and three per-node links under product combining with
# one frame alignment per link. The digests move only with the random
# stream's layout, that is with a bump of urllc_mc.sim.STREAM_VERSION.
SIMULATE_SHA256 = {
    "sc": ({"scheme": "SC", "target_outage": 1e-5, "sinr_db": 10},
           "60caaff47a227f26737c19e5d459e5c2a7ea2ad0145133af081bd02699ef0154"),
    "mc2": ({"scheme": "MC", "m_nodes": 2, "target_outage": 1e-5, "sinr_db": 10},
            "b03d3dfdee3e85f73b645e35a1a0f3bdecf9406c157a6647e054f59c613f8068"),
    "dup3": ({"scheme": "MC", "m_nodes": 3, "sinr_db": [0, 5, 10], "chase": "product",
              "p_d": 0.2, "shared_frame_alignment": False, "target_outage": 1e-5},
             "8225a52603bacc8a3a85b6d5cb675105a204e77205ca4dbd5a848fc9e78eb2ad"),
}


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_stdout_is_pinned(name, tmp_path, capsys):
    doc, digest = SIMULATE_SHA256[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**doc, "trials": 100_000}))
    argv = ["simulate", "--config", str(path), "--seed", "2024", "--format", "csv"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_pretty_format_renders_header(config_path, capsys):
    code = main(["solve", "--config", config_path()])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("scheme")


# One digest per (document, command) pair in csv: the exit code, stdout and
# stderr of the closed-form commands over six documents. In pretty, one digest
# per document covers its six commands in order. The m sweep rejects a
# document whose SINRs differ per node, and a fixed metadata BLER cannot
# bracket the target at every m, so those digests pin the error instead.
BATTERY_DOCUMENTS = {
    "zero_m2": {"scheme": "MC", "m_nodes": 2, "sinr_db": 10, "p_d": 0.01},
    "fbl_3": {"scheme": "MC", "m_nodes": 3, "sinr_db": [0, 5, 10],
              "chase": "finite_blocklength", "p_d": 0.01},
    "fbl_4": {"scheme": "MC", "m_nodes": 4, "sinr_db": [0, 5, 0, 5],
              "chase": "finite_blocklength", "p_d": 0.01},
    "sc": {"scheme": "SC", "sinr_db": 10, "p_d": 0.01},
    "half_product_3": {"scheme": "MC", "m_nodes": 3, "sinr_db": 5, "policy": "half",
                       "chase": "product", "p_d": 0.01},
    "fixed_meta": {"scheme": "MC", "m_nodes": 2, "sinr_db": 10, "policy": "fixed_meta",
                   "fixed_meta": 0.01, "metadata_bits": 128, "p_d": 0.1},
}
BATTERY_COMMANDS = {
    "outage": ["outage"],
    "solve": ["solve"],
    "resource": ["resource"],
    "sweep_p_d": ["sweep", "--variable", "p_d", "--start", "1e-4", "--stop", "0.1",
                  "--points", "41", "--scale", "log10"],
    "sweep_sinr": ["sweep", "--variable", "sinr_db", "--start", "-5", "--stop", "15",
                   "--points", "21"],
    "sweep_m": ["sweep", "--variable", "m", "--start", "1", "--stop", "4", "--points", "4"],
}
BATTERY_SHA256 = {
    "fbl_3": {
        "outage": "af24e324cea9e5a8bf79d4b36ec16127e6c2cb07952bd4b869ae4e83e81a0943",
        "solve": "279d96d6e4103ff404873e544cc4bfa805f3b59dc17dbf736c7c62d71da4fc41",
        "resource": "a64e8c9fc3773265bcbd1a44b6c154cdfc269a0032e7fbdea6f64a5cd6396f6b",
        "sweep_p_d": "40ce2043b9c76a846b75b3ab1515ee1e03bdcdc700edf6cb9a10e8ef68765ad3",
        "sweep_sinr": "4d34bca3ecae7c74fe9cd708f273c34179f26dd41bb2f696ca88935e65827047",
        "sweep_m": "d8039d32ff2126379ffad38b06ffce83d0039a0e4a92750606c8e7188799615f",
    },
    "fbl_4": {
        "outage": "d692eb98152ca7a4f9bb38c015b856dce4e1c6a99da248dc76abba3caed09ef3",
        "solve": "a0a31c11342adec2d22a2e507aedf3324dfbc0735ff444ea23888ccb417a599e",
        "resource": "d453a7a4c128b8c0652440b072ad01e11a85faf2c39c4c21162881ca9ee3f3f0",
        "sweep_p_d": "611c0f52aa57b641e7a833f0cb37272afe01c3b6b62b6c28df10c7799ebcd8bf",
        "sweep_sinr": "5e6fb85620a32bffd5c00e8c7590bfaf7a55b27180d7ba4a647f893809faa9ad",
        "sweep_m": "21ede2366be7509a171005dff5c4f9d9dd25db72574a83226a2e523cdc75e6ec",
    },
    "fixed_meta": {
        "outage": "301b11dfc4df62e00fd8a21c14f493918aed3dfa8930c78fd71869996c9ee045",
        "solve": "5fcaa6a54f03fced8dd6760db22f610568cb83085d12f5540e40be1a2d6635cf",
        "resource": "6ed4a95896af603da9920fe7e7581c911345f9420b98b717ddb34bbe943c79c3",
        "sweep_p_d": "60648df5675c5de5c9d32144268f2b68fa33105c7b78b610a727ec2e2edb367d",
        "sweep_sinr": "fc98a7db9664a8c23e5a3587399380cf88b138251dfdba316166c536d9d98715",
        "sweep_m": "be613562a661d99f2760da69d939df146b6b662d1980911fdd08a6fcfbd07173",
    },
    "half_product_3": {
        "outage": "14211b24f972f64f554e6e7fcfbffb801e5dcebac626dfe9ab9eb80146c846d9",
        "solve": "2fa6d92fa588e06730e72dd5fb120a89dc08eb6ef370da2783cfdb9ec4840ac8",
        "resource": "6576b27c42b47e4f1917f50b3a778019a6af981e3af8357a4bdad36705c50e9f",
        "sweep_p_d": "3f18ce37224ba2d4944866a8eeb0761a64b800688104e424ed9659443b07215e",
        "sweep_sinr": "62b037b83bb6ccfcf703cf75616bbbb66a448e18f3be852535ab478ad02a16db",
        "sweep_m": "8e57e69017f053f2ed7d2660afbb6d117e67738e047485b02fcc0feff0499005",
    },
    "sc": {
        "outage": "662a6ee979c763125d845121aafabbefc1fbd982292c8f5668a205ea093f8631",
        "solve": "37901712770d6eb298fcd1bdeea621306c7be1cb7cf2d09c32ca9c8b00f47e56",
        "resource": "d0ba97b2b301bb7deb72bb82bc3087eaceebb56a21a112050af7cd261c574b00",
        "sweep_p_d": "ac38d8d028f34c5dcc45f90a46015a43daf104c68884d8843b6d7c47640ff209",
        "sweep_sinr": "4ee40ea95ec6b06d7460a17fa9ca5be81a3022e8da55962f2353d2b706099970",
        "sweep_m": "23d049668e8c0ef215d7c83c01ff9281b708ada3417071bc71e56f27adafaf0c",
    },
    "zero_m2": {
        "outage": "04de4642ea83381f954ec315df914207176223d6df52e8032a955ca302489476",
        "solve": "076f7e9702dece5332abad83a8de20d18b89796f672c6d6e0704655fd2b33965",
        "resource": "bae85acf518d14fdb479b7320e17dc28d1a729f3872557bdf995cb90f7c9a1a6",
        "sweep_p_d": "d1563bd4ca2967e6f02769203e3aa2e9829372f8131e2b045f4fa69bb98f44a8",
        "sweep_sinr": "f5874bfbefb016dccfb1f708cce2f16e7f3d88702131e9e3e816005bc39d4c03",
        "sweep_m": "23d049668e8c0ef215d7c83c01ff9281b708ada3417071bc71e56f27adafaf0c",
    },
}

BATTERY_PRETTY_SHA256 = {
    "fbl_3": "20a4abd11300a45c9e6baca47e7e9d782f7d43ce8fe763955ac37cb2451b83da",
    "fbl_4": "fd715c2062d4f4b6ff480caa0b43897cd8453bfeaae34195099f3a32d68e0455",
    "fixed_meta": "43414f48ff0a5cb2e9d1a6db4be5b85c225109ad3a18512774cf378a6548d24c",
    "half_product_3": "bf605f218eb764d1cbbcec96cd31f10476a28e188e6d8307509bbfbe8716930c",
    "sc": "4c7c8d06718379be1679679f785a1bf5d2783909aca1a354662bac41f9f876cc",
    "zero_m2": "833e1ba42372c25a9c9802b9c1c414d9c6bd3e1addb99145d5a29bddfc833566",
}


def _battery_run(document: str, command: str, fmt: str, tmp_path, capsys) -> str:
    path = tmp_path / f"{document}.json"
    path.write_text(json.dumps({"target_outage": 1e-5, **BATTERY_DOCUMENTS[document]}))
    code = main([*BATTERY_COMMANDS[command], "--config", str(path), "--format", fmt])
    out, err = capsys.readouterr()
    return f"{code}\n{out}\n{err}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("document", sorted(BATTERY_DOCUMENTS))
def test_closed_form_commands_bytes_are_pinned(document, tmp_path, capsys):
    digests = {command: _sha256(_battery_run(document, command, "csv", tmp_path, capsys))
               for command in BATTERY_COMMANDS}
    assert digests == BATTERY_SHA256[document]
    pretty = "".join(_battery_run(document, command, "pretty", tmp_path, capsys)
                     for command in BATTERY_COMMANDS)
    assert _sha256(pretty) == BATTERY_PRETTY_SHA256[document]
