"""Solve once, size many: the closed-form layer shares work and not results.

A link equal to the one before it shares that link's profile and its
outage factor, sizing is a separate step from solving, and a SINR sweep
solves once unless the chase model reads the SINR. Every test here
compares with ``==``: the shared work must give exactly the numbers of
the one-link-at-a-time computation it replaces.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import urllc_mc.outage as outage_mod
import urllc_mc.solver as solver_mod
from urllc_mc.cli import main
from urllc_mc.errors import ValidationError
from urllc_mc.fbl import FblContext, channel_use, db_to_linear
from urllc_mc.outage import ChaseModel, LinkBlerProfile, mc_outage, sc_outage
from urllc_mc.resources import usage_at_solution
from urllc_mc.solver import (
    BlerPolicy,
    PolicyKind,
    build_profile,
    link_profiles,
    outage_at,
    solve_bler,
)

EQUAL = BlerPolicy(PolicyKind.EQUAL)
HALF = BlerPolicy(PolicyKind.HALF)
P_D_GRID = [float(p) for p in np.logspace(-6, np.log10(0.45), 23)]


def _per_link_outage(p_d, policy, chase, contexts):
    """The outage as computed before links were shared: one profile and
    one factor per link, multiplied in link order."""
    out = 1.0
    for ctx in contexts:
        out *= sc_outage(build_profile(p_d, policy, chase, ctx)).p_out
    return out


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# equal adjacent links once


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("m", range(1, 9))
def test_outage_at_over_equal_distinct_contexts_matches_per_link_product(chase, m):
    # equal by value, distinct objects: what ScenarioConfig.contexts() returns
    contexts = [FblContext(256, db_to_linear(4.0)) for _ in range(m)]
    assert len({id(c) for c in contexts}) == m
    for policy in (EQUAL, HALF):
        for p_d in P_D_GRID:
            assert outage_at(p_d, policy, chase, contexts) == _per_link_outage(
                p_d, policy, chase, contexts
            )


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("sinr_db", [[0.0, 5.0, 10.0], [0.0, 5.0, 0.0, 5.0], [3.0, 3.0, 7.0, 3.0]])
def test_outage_at_over_per_node_sinrs_matches_per_link_product(chase, sinr_db):
    contexts = [FblContext(256, db_to_linear(s)) for s in sinr_db]
    for p_d in P_D_GRID:
        assert outage_at(p_d, HALF, chase, contexts) == _per_link_outage(
            p_d, HALF, chase, contexts
        )


def test_link_profiles_shares_a_build_along_equal_adjacent_links(monkeypatch):
    a, b = FblContext(256, db_to_linear(0.0)), FblContext(256, db_to_linear(9.0))
    contexts = [a, FblContext(256, a.sinr_linear), b, b, a]
    builds = _counting(monkeypatch, solver_mod, "build_profile")
    profiles = link_profiles(0.05, EQUAL, ChaseModel.FINITE_BLOCKLENGTH, contexts)
    # a link equal to the one before it reuses its build; a later repeat
    # that is not adjacent is built again
    assert [args[3] for args in builds] == [a, b, a]
    assert profiles == [
        build_profile(0.05, EQUAL, ChaseModel.FINITE_BLOCKLENGTH, c) for c in contexts
    ]
    assert profiles[0] is profiles[1]
    assert profiles[2] is profiles[3]
    assert profiles[4] == profiles[0] and profiles[4] is not profiles[0]
    assert profiles[0] != profiles[2]


def test_link_profiles_without_contexts_builds_once(monkeypatch):
    builds = _counting(monkeypatch, solver_mod, "build_profile")
    profiles = link_profiles(0.01, EQUAL, ChaseModel.ZERO, [None] * 4)
    assert len(builds) == 1
    assert profiles == [build_profile(0.01, EQUAL, ChaseModel.ZERO)] * 4


@pytest.mark.parametrize("m", range(1, 9))
def test_mc_outage_of_repeated_profile_is_the_sequential_product(m, monkeypatch):
    for p in (0.3, 0.0328, 0.00183, 0.2):
        profile = LinkBlerProfile(p_m=p, p_d=p, p_c=p * p)
        p_out = sc_outage(profile).p_out
        expected = 1.0
        for _ in range(m):
            expected *= p_out
        # one per-link outage evaluation per run of one profile object
        evaluations = _counting(monkeypatch, outage_mod, "_leaves")
        assert mc_outage([profile] * m) == expected
        assert evaluations == [(profile.p_m, profile.p_d, profile.p_c)]
        # equal by value but distinct objects: evaluated per link, same product
        evaluations.clear()
        assert mc_outage([LinkBlerProfile(p, p, p * p) for _ in range(m)]) == expected
        assert len(evaluations) == m
        monkeypatch.undo()


def test_mc_outage_keeps_link_order_over_distinct_profiles():
    a = LinkBlerProfile(0.1, 0.1, 0.0)
    b = LinkBlerProfile(0.3, 0.2, 0.04)
    c = LinkBlerProfile(0.01, 0.07, 0.001)
    links = [a, b, a, c, b, a]
    expected = 1.0
    for profile in links:
        expected *= sc_outage(profile).p_out
    assert mc_outage(links) == expected


# ---------------------------------------------------------------------------
# solve, then size


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_solve_reads_the_sinr_exactly_when_the_chase_model_says_so(chase, m):
    # the SINR sweep reuses one solve when reads_sinr is false: a chase
    # model added to the enum fails here unless it is classified right
    low = [FblContext(256, db_to_linear(-5.0))] * m
    high = [FblContext(256, db_to_linear(25.0))] * m
    differ = solve_bler(m, 1e-5, EQUAL, chase, low) != solve_bler(m, 1e-5, EQUAL, chase, high)
    assert differ == chase.reads_sinr


def test_only_finite_blocklength_combining_reads_the_sinr():
    assert [c for c in ChaseModel if c.reads_sinr] == [ChaseModel.FINITE_BLOCKLENGTH]


def test_usage_at_solution_requires_contexts():
    solved = solve_bler(1, 1e-5, EQUAL, ChaseModel.ZERO)
    for contexts in (None, []):
        with pytest.raises(ValidationError):
            usage_at_solution(solved, contexts)


@pytest.mark.parametrize("solved_m, sized_m", [(2, 1), (1, 2), (2, 3), (3, 2)])
def test_usage_at_solution_rejects_a_link_count_other_than_the_solve(solved_m, sized_m):
    # p_d solved for m links does not size a different number of links
    ctx = FblContext(256, db_to_linear(10.0))
    solved = solve_bler(solved_m, 1e-5, EQUAL, ChaseModel.ZERO, [ctx] * solved_m)
    assert solved.m_nodes == solved_m
    with pytest.raises(ValidationError, match=f"the {solved_m} solved links"):
        usage_at_solution(solved, [ctx] * sized_m)
    assert usage_at_solution(solved, [ctx] * solved_m).solve is solved


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("sinr_db", [[10.0], [0.0, 0.0], [0.0, 5.0, 10.0], [3.0] * 4,
                                     [0.0, 0.0, 9.0, 9.0, 0.0]])
@pytest.mark.parametrize("policy", [EQUAL, HALF])
def test_usage_at_solution_sums_the_links_sized_one_at_a_time(chase, sinr_db, policy):
    m = len(sinr_db)
    contexts = [FblContext(256, db_to_linear(s)) for s in sinr_db]
    solved = solve_bler(m, 1e-5, policy, chase, contexts)
    uses = [channel_use(c, solved.p_d) for c in contexts]
    meta = [channel_use(FblContext(128, c.sinr_linear), solved.p_m) for c in contexts]
    report = usage_at_solution(solved, contexts, metadata_bits=128)
    assert report.solve is solved
    assert report.channel_use_single == math.fsum(uses) / m
    p_first = (1.0 - solved.p_m) * (1.0 - solved.p_d)
    assert report.total_usage == (2.0 - p_first) * math.fsum(uses)
    assert report.metadata_channel_use == math.fsum(meta) / m
    assert usage_at_solution(solved, contexts).metadata_channel_use is None


# ---------------------------------------------------------------------------
# the SINR sweep: one solve, sized per point


def _write(tmp_path, **doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("chase", [c.value for c in ChaseModel])
@pytest.mark.parametrize("m", [2, 3])
def test_sinr_sweep_rows_equal_a_solve_and_a_sizing_per_point(tmp_path, capsys, chase, m):
    config = _write(tmp_path, scheme="MC", m_nodes=m, sinr_db=10, target_outage=1e-5,
                    chase=chase)
    code = main(["sweep", "--config", config, "--variable", "sinr_db", "--start", "-5",
                 "--stop", "25", "--points", "41", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sinr_db,scheme,m,bler_target,channel_use,total_usage"
    grid = np.linspace(-5.0, 25.0, 41)
    assert len(lines) == 1 + len(grid)
    for line, value in zip(lines[1:], grid):
        sinr_db = float(value)
        ctx = FblContext(256, db_to_linear(sinr_db))
        links = [ctx] * m
        report = usage_at_solution(solve_bler(m, 1e-5, EQUAL, ChaseModel(chase), links), links)
        expected = [f"{sinr_db:.9g}", "MC", str(m), f"{report.solve.p_d:.9g}",
                    f"{report.channel_use_single:.9g}", f"{report.total_usage:.9g}"]
        assert line.split(",") == expected


@pytest.mark.parametrize("chase", [c.value for c in ChaseModel])
def test_sinr_sweep_checks_a_point_before_solving_at_it(tmp_path, capsys, chase):
    # fixed_meta = 0.4 puts a 1e-11 outage out of reach at every SINR
    config = _write(tmp_path, scheme="SC", sinr_db=10, target_outage=1e-11,
                    policy="fixed_meta", fixed_meta=0.4, chase=chase)
    sweep = ["sweep", "--config", config, "--variable", "sinr_db", "--points", "5"]

    # the first point's SINR is out of domain: a validation error, not the solver's
    assert main([*sweep, "--start", "-400", "--stop", "25"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: VALIDATION_ERROR: sinr_db sweep value -400.0")

    # the first point is valid and its solve fails before a later point
    # overflows in linear scale
    assert main([*sweep, "--start", "-5", "--stop", "4000"]) == 4
    assert "NO_BRACKET" in capsys.readouterr().err
