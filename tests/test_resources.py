"""Tests for the sizing half of ``solver.py``: ``usage_sc`` and
``usage_at_solution``, which returns ``(channel_use_single, total_usage)``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from urllc_mc.errors import DomainError
from urllc_mc.fbl import FblContext, db_to_linear
from urllc_mc.outage import ChaseModel, LinkBlerProfile, sc_outage, success_mix
from urllc_mc.solver import usage_at_solution, usage_sc
from urllc_mc.solver import BlerPolicy, PolicyKind, solve_bler

ZERO = ChaseModel.ZERO
EQUAL = BlerPolicy(PolicyKind.EQUAL)


# ---------------------------------------------------------------------------
# expected usage


def test_usage_sc_endpoints():
    assert usage_sc(85.14, 1.0) == 85.14
    assert usage_sc(85.14, 0.0) == 2 * 85.14


def test_usage_sc_table_point():
    p1 = (1 - 0.00183) ** 2
    assert usage_sc(85.14, p1) == pytest.approx(85.44, abs=0.05)


def test_normalized_usage_reduction_and_linearity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = float(rng.uniform(1, 500))
        p_m, p_d = (float(p) for p in rng.uniform(0, 1, 2))
        link = LinkBlerProfile(p_m, p_d, 0.0)
        p = sc_outage(link).p_succ_first
        assert usage_sc(r, p) == pytest.approx(r * usage_sc(1.0, p), rel=1e-15)
        for m in range(1, 7):
            # bit for bit: IEEE products commute
            assert usage_sc(m, p) == m * usage_sc(1.0, p)


def test_duplicated_usage_reference_points():
    assert 2 * usage_sc(1.0, 0.891) == pytest.approx(2.218, abs=1e-12)
    # expected usage at the duplicated operating point; the mean-based
    # formula, not the figure-quoted 166.12 (documented discrepancy)
    p1 = (1 - 0.0328) ** 2
    assert 2 * usage_sc(80.88, p1) == pytest.approx(172.20, abs=0.05)


def test_usage_monotone_in_success_probability():
    ps = np.linspace(0, 1, 50)
    vals = [3 * usage_sc(10.0, float(p)) for p in ps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_usage_domain():
    with pytest.raises(DomainError):
        usage_sc(0.0, 0.5)
    with pytest.raises(DomainError):
        usage_sc(1.0, 1.5)


@pytest.mark.parametrize("huge", [10**400, 10**5000], ids=["1e400", "1e5000"])
def test_usage_rejects_huge_ints_by_name(huge):
    # exact comparisons: no float conversion overflows, no message prints the int
    with pytest.raises(DomainError, match="channel uses .*an int past the float range"):
        usage_sc(huge, 0.5)
    with pytest.raises(DomainError, match="p_succ_first .*an int past the float range"):
        usage_sc(1.0, huge)
    with pytest.raises(DomainError, match="channel uses must be positive and finite"):
        usage_sc(math.inf, 0.5)


# ---------------------------------------------------------------------------
# usage distribution: the exact success mix's row sums


def _usage_distribution(m: int, r: float, p_succ_first: float) -> list:
    """(channel uses, probability) over m equal links: m + k transmissions
    when k links miss the first try, weighted by the reversed row sums of
    the exact success mix."""
    p_fail = 1.0 - p_succ_first
    link = LinkBlerProfile(p_m=0.0, p_d=p_fail, p_c=0.0)
    weights = [sum(row) for row in reversed(success_mix([link] * m))]
    return [((m + k) * r, w) for k, w in enumerate(weights)]


def test_distribution_two_links():
    dist = _usage_distribution(2, 1.0, 0.9)
    assert dist == [(2.0, pytest.approx(0.81)), (3.0, pytest.approx(0.18)),
                    (4.0, pytest.approx(0.01))]


def test_distribution_single_link():
    dist = _usage_distribution(1, 2.5, 0.7)
    assert dist[0] == (2.5, pytest.approx(0.7))
    assert dist[1] == (5.0, pytest.approx(0.3))


def test_distribution_mean_matches_expected_usage():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        r = float(rng.uniform(0.5, 300))
        p = float(rng.uniform(0, 1))
        mean = math.fsum(u * w for u, w in _usage_distribution(m, r, p))
        assert mean == pytest.approx(m * usage_sc(r, p), rel=1e-12)


def test_distribution_three_links_reference_mean():
    mean = math.fsum(u * w for u, w in _usage_distribution(3, 80.88, 0.935476))
    assert mean == pytest.approx(258.30, abs=0.01)


# ---------------------------------------------------------------------------
# normalized usage


def test_normalized_usage_fig4_points():
    profile = LinkBlerProfile(0.01, 0.1, 0)
    assert usage_sc(1, sc_outage(profile).p_succ_first) == pytest.approx(1.109, abs=1e-12)
    assert usage_sc(2, sc_outage(profile).p_succ_first) == pytest.approx(2.218, abs=1e-12)


def test_normalized_usage_perfect_link():
    perfect = LinkBlerProfile(0, 0, 0)
    assert usage_sc(1, sc_outage(perfect).p_succ_first) == 1.0
    for m in range(1, 5):
        assert usage_sc(m, sc_outage(perfect).p_succ_first) == float(m)


# ---------------------------------------------------------------------------
# usage at a solved reliability target


def test_usage_at_solution_sc_table_row():
    ctx = FblContext(256, db_to_linear(10.0))
    solved = solve_bler(1, 1e-5, EQUAL, ZERO, [ctx])
    channel_use_single, total_usage = usage_at_solution(solved, [ctx])
    assert solved.p_d == pytest.approx(0.001826, abs=2e-5)
    assert channel_use_single == pytest.approx(85.14, abs=0.05)
    assert total_usage == pytest.approx(85.44, abs=0.10)
    assert solved.m_nodes == 1


def test_usage_at_solution_mc_table_row():
    ctx = FblContext(256, db_to_linear(10.0))
    solved = solve_bler(2, 1e-5, EQUAL, ZERO, [ctx] * 2)
    channel_use_single, total_usage = usage_at_solution(solved, [ctx] * 2)
    assert solved.p_d == pytest.approx(0.0328, abs=2e-4)
    assert channel_use_single == pytest.approx(80.88, abs=0.05)
    assert total_usage == pytest.approx(172.20, abs=0.10)


def test_usage_at_solution_in_domain_at_loose_target():
    ctx = FblContext(256, db_to_linear(10.0))
    channel_use_single, _ = usage_at_solution(solve_bler(1, 0.249, EQUAL, ZERO, [ctx]), [ctx])
    assert channel_use_single > ctx.payload_bits / ctx.capacity


def test_usage_at_solution_heterogeneous_nodes():
    contexts = [FblContext(256, db_to_linear(10.0)), FblContext(256, db_to_linear(0.0))]
    solved = solve_bler(2, 1e-5, EQUAL, ZERO, contexts)
    _, total_usage = usage_at_solution(solved, contexts)
    # same solved BLER as the homogeneous case (outage ignores SINR under
    # ideal link adaptation); usage sums the two per-node channel uses
    at10, at0 = [contexts[0]] * 2, [contexts[1]] * 2
    solved10 = solve_bler(2, 1e-5, EQUAL, ZERO, at10)
    _, total10 = usage_at_solution(solved10, at10)
    _, total0 = usage_at_solution(solve_bler(2, 1e-5, EQUAL, ZERO, at0), at0)
    assert solved.p_d == pytest.approx(solved10.p_d, rel=1e-12)
    assert total_usage == pytest.approx((total10 + total0) / 2, rel=1e-12)


def test_usage_at_solution_savings_band():
    # duplicated transmission costs roughly twice the single link even
    # after the BLER relaxation: savings in [46%, 52%] at 0 and 10 dB
    for sinr_db in (0.0, 10.0):
        ctx = FblContext(256, db_to_linear(sinr_db))
        _, sc = usage_at_solution(solve_bler(1, 1e-5, EQUAL, ZERO, [ctx]), [ctx])
        _, mc = usage_at_solution(solve_bler(2, 1e-5, EQUAL, ZERO, [ctx] * 2), [ctx] * 2)
        savings = 1.0 - sc / mc
        assert 0.46 <= savings <= 0.52
        assert 0.49 <= sc / mc <= 0.54
