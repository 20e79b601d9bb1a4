"""Solve once, size many: the closed-form layer shares work and not results.

A scenario's equal links are one context object, the solver's outage
kernel ``_outage_of`` reuses a link's outage factor along a run of that
object and no other code reuses work across links, a solve and a p_d sweep
resolve that kernel once, sizing is a separate step from solving, and a
SINR sweep solves once unless the chase model reads the SINR. The public
``outage_at`` is the outage of built profiles, the reference that the
kernel must match inside its contract (p_d in (0, 1), 1 to ``MAX_NODES``
links). Every test here compares with ``==``: the shared work must give
exactly the numbers of the one-link-at-a-time computation it replaces.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urllc_mc.cli as cli_mod
import urllc_mc.fbl as fbl_mod
import urllc_mc.outage as outage_mod
import urllc_mc.solver as solver_mod
from urllc_mc.cli import main
from urllc_mc.config import parse_scenario
from urllc_mc.errors import DomainError, ValidationError, real
from urllc_mc.fbl import (FblContext, channel_dispersion, channel_use, db_to_linear,
                          shannon_capacity)
from urllc_mc.outage import (MAX_NODES, ChaseModel, LinkBlerProfile, chase_bler, mc_outage,
                             sc_outage)
from urllc_mc.solver import usage_at_solution
from urllc_mc.solver import (
    MAX_ITERATIONS,
    P_D_BRACKET,
    BlerPolicy,
    PolicyKind,
    SolveResult,
    build_profile,
    outage_at,
    solve_bler,
)

EQUAL = BlerPolicy(PolicyKind.EQUAL)
HALF = BlerPolicy(PolicyKind.HALF)
FIXED = BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.02)
FBL = ChaseModel.FINITE_BLOCKLENGTH
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
# equal links are one object, and the outage kernel alone reuses along it


@pytest.mark.parametrize("sinr_db, groups", [
    (10, [0, 0, 0]),
    ([0, 5, 0], [0, 1, 0]),
    ([0.0, -0.0], [0, 0]),  # both are 1.0 in linear scale
])
def test_scenario_contexts_are_one_object_per_distinct_sinr(sinr_db, groups):
    cfg = parse_scenario(json.dumps(
        {"scheme": "MC", "m_nodes": len(groups), "sinr_db": sinr_db, "target_outage": 1e-5}
    ))
    contexts = cfg.contexts()
    for ctx, g in zip(contexts, groups):
        assert [ctx is other for other in contexts] == [g == h for h in groups]
    for ctx, s in zip(contexts, cfg.sinr_db):
        assert ctx == FblContext(cfg.payload_bits, db_to_linear(s))


_A, _B = FblContext(256, db_to_linear(0.0)), FblContext(256, db_to_linear(9.0))


def _doubled(ctx):
    """The capacity and dispersion at twice the context's SINR."""
    return shannon_capacity(2.0 * ctx.sinr_linear), channel_dispersion(2.0 * ctx.sinr_linear)


@pytest.mark.parametrize("links, evaluated", [
    *(([_A] * m, [_A]) for m in range(1, 5)),
    ([_A, _B, _B, _A], [_A, _B, _A]),
])
def test_outage_at_evaluates_the_chase_once_per_run_of_one_object(links, evaluated, monkeypatch):
    # one finite-blocklength chase is one _bler call at its link's doubled pair
    calls = _counting(monkeypatch, outage_mod, "_bler")
    solver_mod._outage_of(EQUAL, FBL, links)(0.01)
    assert [args[1:3] for args in calls] == [_doubled(ctx) for ctx in evaluated]


def test_a_p_d_sweep_evaluates_one_chase_per_point(tmp_path, capsys, monkeypatch):
    # config's one object per SINR reaches the solver's reuse end to end
    config = _write(tmp_path, scheme="MC", m_nodes=2, sinr_db=10, target_outage=1e-5,
                    chase="finite_blocklength")
    calls = _counting(monkeypatch, outage_mod, "_bler")
    assert main(["sweep", "--config", config, "--variable", "p_d", "--start", "1e-6",
                 "--stop", "0.1", "--points", "11", "--scale", "log10"]) == 0
    capsys.readouterr()
    assert len(calls) == 11


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("policy", [EQUAL, HALF, FIXED])
def test_a_solve_resolves_its_outage_model_once(chase, policy, monkeypatch):
    resolved = _counting(monkeypatch, solver_mod, "_outage_of")
    solved = solve_bler(2, 1e-5, policy, chase, [_A, _B])
    assert solved.iterations > 1
    assert resolved == [(policy, chase, [_A, _B])]


def test_a_p_d_sweep_resolves_its_outage_model_once(tmp_path, capsys, monkeypatch):
    config = _write(tmp_path, scheme="MC", m_nodes=2, sinr_db=[0, 9], target_outage=1e-5,
                    chase="finite_blocklength", policy="half")
    resolved = _counting(monkeypatch, cli_mod, "_outage_of")
    assert main(["sweep", "--config", config, "--variable", "p_d", "--start", "1e-6",
                 "--stop", "0.1", "--points", "11", "--scale", "log10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 12
    assert len(resolved) == 1


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("m", range(1, 9))
def test_outage_at_over_equal_distinct_contexts_matches_per_link_product(chase, m):
    # equal by value, distinct objects: what a library caller may pass
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


def test_mc_outage_keeps_link_order_over_distinct_profiles():
    a = LinkBlerProfile(0.1, 0.1, 0.0)
    b = LinkBlerProfile(0.3, 0.2, 0.04)
    c = LinkBlerProfile(0.01, 0.07, 0.001)
    inputs = [[a, b, a, c, b, a]]
    for p in (0.3, 0.0328, 0.00183, 0.2):
        profile = LinkBlerProfile(p_m=p, p_d=p, p_c=p * p)
        for m in range(1, 9):
            # repeated, and equal by value but distinct objects
            inputs += [[profile] * m, [LinkBlerProfile(p, p, p * p) for _ in range(m)]]
    for links in inputs:
        expected = 1.0
        for profile in links:
            expected *= sc_outage(profile).p_out
        assert mc_outage(links) == expected


# ---------------------------------------------------------------------------
# one evaluation, no profile objects: the kernel _outage_of against its
# reference outage_at, mc_outage over one build_profile per link


def _outcome(evaluate):
    """A float's exact bits, or the type and message of what it raised."""
    try:
        value = evaluate()
    except Exception as exc:  # compared by the caller, never swallowed
        return type(exc), str(exc)
    return type(value), value.hex()


def _via_profiles(p_d, policy, chase, contexts):
    return mc_outage([build_profile(p_d, policy, chase, c) for c in contexts])


_SINR_POOL = [db_to_linear(s) for s in (-3.0, 0.0, 4.0, 10.0, 25.0)]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(
    policy=st.sampled_from([EQUAL, HALF, FIXED]),
    chase=st.sampled_from(list(ChaseModel)),
    links=st.lists(
        st.tuples(st.sampled_from(range(len(_SINR_POOL))), st.booleans()),
        min_size=1, max_size=8,
    ),
    log_p_d=st.floats(-9.0, math.log10(0.4999)),
)
def test_outage_at_is_the_outage_of_the_built_profiles_bit_for_bit(policy, chase, links, log_p_d):
    # a small pool makes repeats, adjacent and not; a drawn flag swaps in an
    # equal but distinct copy of the pool's context
    pool = [FblContext(256, s) for s in _SINR_POOL]
    contexts = [FblContext(256, pool[i].sinr_linear) if copy else pool[i] for i, copy in links]
    p_d = 10.0**log_p_d
    got = _outcome(lambda: solver_mod._outage_of(policy, chase, contexts)(p_d))
    assert got == _outcome(lambda: _via_profiles(p_d, policy, chase, contexts))
    assert got[0] is float


def _bisect_over_profiles(m, target, policy, chase, contexts):
    """solve_bler's bisection, written out over mc_outage of built profiles."""
    lo_log, hi_log = (math.log10(p) for p in P_D_BRACKET)
    assert _via_profiles(P_D_BRACKET[0], policy, chase, contexts) <= target
    assert target <= _via_profiles(P_D_BRACKET[1], policy, chase, contexts)
    for iteration in range(1, MAX_ITERATIONS + 1):
        mid_log = 0.5 * (lo_log + hi_log)
        p_d = 10.0**mid_log
        f = _via_profiles(p_d, policy, chase, contexts)
        if abs(f - target) <= 1e-3 * target:
            return SolveResult(p_d, policy.meta_bler(p_d), f, iteration, m)
        if f >= target:
            hi_log = mid_log
        else:
            lo_log = mid_log
    raise AssertionError("no convergence")


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("policy", [EQUAL, HALF, FIXED])
@pytest.mark.parametrize("sinr_db", [[10.0], [0.0, 0.0], [0.0, 5.0, 10.0], [3.0, 3.0, 7.0, 3.0]])
@pytest.mark.parametrize("depth", [0.3, 0.55, 0.8])
def test_solve_bler_equals_a_bisection_over_built_profiles(chase, policy, sinr_db, depth):
    m = len(sinr_db)
    contexts = [FblContext(256, db_to_linear(s)) for s in sinr_db]
    # a target inside the reachable outage range, ``depth`` of the way up
    # its log axis, and inside the range solve_bler accepts
    f_lo, f_hi = (_via_profiles(p, policy, chase, contexts) for p in P_D_BRACKET)
    target = min(max(f_lo ** (1.0 - depth) * f_hi**depth, 2e-12), 0.2)
    assert solve_bler(m, target, policy, chase, contexts) == _bisect_over_profiles(
        m, target, policy, chase, contexts
    )


_CTX = FblContext(256, db_to_linear(10.0))


@pytest.mark.parametrize("p_d, chase, contexts, policy", [*((*case, EQUAL) for case in [
    (0.1, ChaseModel.ZERO, []),
    (0.1, FBL, []),
    (float("nan"), FBL, []),
    (0.1, ChaseModel.ZERO, [_CTX] * 65),
    (0.1, FBL, [_CTX] * 65),
    (0.0, ChaseModel.ZERO, [_CTX] * 2),
    (1.0, ChaseModel.PRODUCT, [_CTX] * 2),
    (float("nan"), FBL, [_CTX] * 2),
    (True, ChaseModel.ZERO, [_CTX] * 2),
    ("0.1", FBL, [_CTX] * 2),
    (0.0, ChaseModel.ZERO, [_CTX] * 65),
    (0.5, FBL, [_CTX] * 2),
    (0.7, FBL, [_CTX, FblContext(256, 1.0)]),
    (0.1, FBL, [None] * 2),
    (0.1, FBL, [_CTX, None]),
    (0.1, FBL, [None] * 65),
    # twice this SINR overflows to inf: the context builds, the chase fails
    (0.1, FBL, [FblContext(256, 1e308)] * 2),
    # the p_d checks come before a link's type and the pair's overflow
    (0.6, FBL, [FblContext(256, 1e308)] * 2),
    (0.0, FBL, [None] * 65),
    # each link's errors in link order
    (0.7, FBL, [None, _CTX]),
    (0.1, "product", [_CTX] * 2),
]),
    (0.6, FBL, [_CTX] * 2, FIXED),
    (0.1, FBL, [_CTX, None], FIXED),
])
def test_the_kernel_raises_what_outage_at_raises(p_d, chase, contexts, policy):
    got = _outcome(lambda: outage_at(p_d, policy, chase, contexts))
    assert got[0] in (DomainError, ValidationError)
    # inside its contract the kernel raises the same, at resolution or evaluation
    if 1 <= len(contexts) <= MAX_NODES and real(p_d) and 0.0 < p_d < 1.0:
        assert _outcome(lambda: solver_mod._outage_of(policy, chase, contexts)(p_d)) == got


def test_a_solve_raises_a_later_links_unusable_context_before_evaluating():
    # the kernel resolves every link's chase before its first evaluation, so
    # the second link's missing context comes before the first link's
    # two-copy overflow, which the profile path would raise first
    huge = FblContext(256, 1e308)
    with pytest.raises(ValidationError, match="^FINITE_BLOCKLENGTH chase model requires an "
                                              "FblContext$"):
        solve_bler(2, 1e-5, EQUAL, FBL, [huge, None])
    with pytest.raises(DomainError, match="^sinr_linear must be positive, got inf$"):
        outage_at(0.1, EQUAL, FBL, [huge, None])


def test_the_chase_checks_p_d_before_the_two_copy_pair():
    # the kernel and build_profile share outage._chase_of, so the comparison
    # above cannot tell which of the two errors comes first
    huge = FblContext(256, 1e308)  # twice its SINR overflows to inf
    for evaluate in (lambda p_d: chase_bler(FBL, p_d, huge),
                     lambda p_d: outage_at(p_d, EQUAL, FBL, [huge] * 2),
                     solver_mod._outage_of(EQUAL, FBL, [huge] * 2)):
        with pytest.raises(DomainError, match=r"needs a BLER in \(0, 0\.5\), got 0\.6$"):
            evaluate(0.6)
        with pytest.raises(DomainError, match="^sinr_linear must be positive, got inf$"):
            evaluate(0.1)


@pytest.mark.parametrize("start, code, message", [
    (0.0, 3, "VALIDATION_ERROR: p_d sweep value 0.0 outside (0, 1)"),
    (0.1, 5, "DOMAIN_ERROR: sinr_linear must be positive, got inf"),
])
def test_a_p_d_sweep_checks_its_grid_before_the_doubled_pair(tmp_path, capsys, start, code,
                                                             message):
    # at 3080 dB twice the SINR overflows: resolving the chase must not raise,
    # or a bad grid value would exit 5 instead of 3
    config = _write(tmp_path, scheme="MC", m_nodes=2, sinr_db=3080, target_outage=1e-5,
                    chase="finite_blocklength")
    assert main(["sweep", "--config", config, "--variable", "p_d", "--start", str(start),
                 "--stop", "0.4", "--points", "5"]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_outage_at_raises_the_profile_error_when_combining_would_hurt(monkeypatch):
    # no chase model gives p_c > p_d; the kernel reads solver._chase_of, and
    # outage_at, through build_profile and chase_bler, outage._chase_of
    for module in (solver_mod, outage_mod):
        monkeypatch.setattr(module, "_chase_of", lambda chase, ctx: lambda p_d: 2.0 * p_d)
    got = _outcome(lambda: outage_at(0.1, HALF, FBL, [_CTX] * 2))
    assert got[0] is DomainError and "must not exceed" in got[1]
    assert got == _outcome(lambda: solver_mod._outage_of(HALF, FBL, [_CTX] * 2)(0.1))


def _capacities(monkeypatch):
    """Arguments of every shannon_capacity call, wherever it is looked up."""
    calls = []
    original = fbl_mod.shannon_capacity

    def counted(sinr_linear):
        calls.append(sinr_linear)
        return original(sinr_linear)

    monkeypatch.setattr(fbl_mod, "shannon_capacity", counted)
    monkeypatch.setattr(outage_mod, "shannon_capacity", counted, raising=False)
    return calls


@pytest.mark.parametrize("chase, pairs", [(ChaseModel.ZERO, 0), (ChaseModel.PRODUCT, 0),
                                          (FBL, 1)])
def test_the_chase_computes_the_doubled_pair_once_per_resolution(chase, pairs, monkeypatch):
    ctx = FblContext(256, 10.0)
    capacities = _capacities(monkeypatch)
    for _ in range(3):  # however many evaluations read it
        p_c_of = outage_mod._chase_of(chase, ctx)
        values = [p_c_of(p_d) for p_d in P_D_GRID]
        assert capacities.count(20.0) == pairs
        capacities.clear()
    assert values == [chase_bler(chase, p_d, ctx) for p_d in P_D_GRID]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_finite_blocklength_solve_builds_no_profile_and_one_pair_per_context(m, monkeypatch):
    a, b = FblContext(256, db_to_linear(0.0)), FblContext(256, db_to_linear(9.0))
    builds = _counting(monkeypatch, solver_mod, "build_profile")
    capacities = _capacities(monkeypatch)

    def doubled():  # the capacities not at a context's own SINR
        return [s for s in capacities if s not in (a.sinr_linear, b.sinr_linear)]

    solve_bler(m, 1e-5, EQUAL, FBL, [a] * m)
    assert builds == []
    assert doubled() == [2.0 * a.sinr_linear]
    # each solve resolves its chase once: one pair per run of one context
    # object, however many steps read it
    solve_bler(m, 1e-5, EQUAL, FBL, [a] * m)
    solve_bler(m + 1, 1e-5, EQUAL, FBL, [a] + [b] * m)
    assert builds == []
    assert doubled() == [2.0 * a.sinr_linear] * 3 + [2.0 * b.sinr_linear]


def test_a_zero_chase_sinr_sweep_never_computes_the_doubled_pair(tmp_path, capsys, monkeypatch):
    config = _write(tmp_path, scheme="MC", m_nodes=2, sinr_db=10, target_outage=1e-5,
                    chase="zero")
    capacities = _capacities(monkeypatch)
    assert main(["sweep", "--config", config, "--variable", "sinr_db", "--start", "-5",
                 "--stop", "25", "--points", "7"]) == 0
    capsys.readouterr()
    # capacities of the configured SINR's and the points' contexts, each
    # point's read in a run of its own, none at twice a SINR
    points = [db_to_linear(float(v)) for v in np.linspace(-5.0, 25.0, 7)]
    assert [s for s, _ in itertools.groupby(capacities)][-7:] == points
    assert set(capacities) == {db_to_linear(10.0), *points}


def test_the_doubled_pair_leaves_context_equality_and_repr_alone():
    read, fresh = FblContext(256, 10.0), FblContext(256, 10.0)
    shown = repr(fresh)
    chase_bler(FBL, 0.01, read)
    assert read._fields == ("payload_bits", "sinr_linear")
    assert repr(read) == shown == "FblContext(payload_bits=256, sinr_linear=10.0)"
    assert read == fresh and hash(read) == hash(fresh)
    assert read != FblContext(256, 20.0)


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


@pytest.mark.parametrize("chase", list(ChaseModel))
@pytest.mark.parametrize("sinr_db", [[10.0], [0.0, 0.0], [0.0, 5.0, 10.0], [3.0] * 4,
                                     [0.0, 0.0, 9.0, 9.0, 0.0]])
@pytest.mark.parametrize("policy", [EQUAL, HALF])
def test_usage_at_solution_sums_the_links_sized_one_at_a_time(chase, sinr_db, policy,
                                                              monkeypatch):
    m = len(sinr_db)
    contexts = [FblContext(256, db_to_linear(s)) for s in sinr_db]
    solved = solve_bler(m, 1e-5, policy, chase, contexts)
    uses = [channel_use(c, solved.p_d) for c in contexts]
    q_invs = _counting(monkeypatch, fbl_mod, "_q_inv")
    channel_use_single, total_usage = usage_at_solution(solved, contexts)
    assert q_invs == [(solved.p_d,)]  # one q_inv sizes every link
    assert channel_use_single == math.fsum(uses) / m
    p_first = (1.0 - solved.p_m) * (1.0 - solved.p_d)
    assert total_usage == (2.0 - p_first) * math.fsum(uses)


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
        solved = solve_bler(m, 1e-5, EQUAL, ChaseModel(chase), links)
        channel_use_single, total_usage = usage_at_solution(solved, links)
        expected = [f"{sinr_db:.9g}", "MC", str(m), f"{solved.p_d:.9g}",
                    f"{channel_use_single:.9g}", f"{total_usage:.9g}"]
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
