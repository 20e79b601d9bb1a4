"""Tests for the resource-usage model."""

from __future__ import annotations

import numpy as np
import pytest

from urllc_mc.errors import DomainError
from urllc_mc.fbl import FblContext, db_to_linear
from urllc_mc.outage import ChaseModel, LinkBlerProfile
from urllc_mc.resources import (
    UsageDistribution,
    UsageReport,
    normalized_usage,
    usage_at_reliability,
    usage_distribution_mc,
    usage_mc,
    usage_sc,
)
from urllc_mc.solver import BlerPolicy, PolicyKind

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


def test_usage_mc_reduction_and_linearity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = float(rng.uniform(1, 500))
        p = float(rng.uniform(0, 1))
        assert usage_mc(1, r, p) == usage_sc(r, p)
        for m in range(2, 7):
            assert usage_mc(m, r, p) == pytest.approx(m * usage_sc(r, p), rel=1e-15)


def test_usage_mc_reference_points():
    assert usage_mc(2, 1.0, 0.891) == pytest.approx(2.218, abs=1e-12)
    # expected usage at the duplicated operating point; the mean-based
    # formula, not the figure-quoted 166.12 (documented discrepancy)
    p1 = (1 - 0.0328) ** 2
    assert usage_mc(2, 80.88, p1) == pytest.approx(172.20, abs=0.05)


def test_usage_monotone_in_success_probability():
    ps = np.linspace(0, 1, 50)
    vals = [usage_mc(3, 10.0, float(p)) for p in ps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_usage_domain():
    with pytest.raises(DomainError):
        usage_sc(0.0, 0.5)
    with pytest.raises(DomainError):
        usage_sc(1.0, 1.5)
    with pytest.raises(DomainError):
        usage_mc(0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# usage distribution


def test_distribution_two_links():
    dist = usage_distribution_mc(2, 1.0, 0.9)
    assert dist.support == ((2.0, pytest.approx(0.81)), (3.0, pytest.approx(0.18)),
                            (4.0, pytest.approx(0.01)))


def test_distribution_single_link():
    dist = usage_distribution_mc(1, 2.5, 0.7)
    assert dist.support[0] == (2.5, pytest.approx(0.7))
    assert dist.support[1] == (5.0, pytest.approx(0.3))


def test_distribution_mean_matches_expected_usage():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        r = float(rng.uniform(0.5, 300))
        p = float(rng.uniform(0, 1))
        dist = usage_distribution_mc(m, r, p)
        assert dist.mean() == pytest.approx(usage_mc(m, r, p), rel=1e-12)


def test_distribution_three_links_reference_mean():
    dist = usage_distribution_mc(3, 80.88, 0.935476)
    assert dist.mean() == pytest.approx(258.30, abs=0.01)


def test_distribution_validation():
    with pytest.raises(DomainError):
        UsageDistribution(((1.0, 0.5), (2.0, 0.6)))
    with pytest.raises(DomainError):
        UsageDistribution(((2.0, 0.5), (1.0, 0.5)))


# ---------------------------------------------------------------------------
# normalized usage


def test_normalized_usage_fig4_points():
    profile = LinkBlerProfile(0.01, 0.1, 0.01, 0.1, 0)
    assert normalized_usage("SC", 1, profile) == pytest.approx(1.109, abs=1e-12)
    assert normalized_usage("MC", 2, profile) == pytest.approx(2.218, abs=1e-12)


def test_normalized_usage_perfect_link():
    perfect = LinkBlerProfile(0, 0, 0, 0, 0)
    assert normalized_usage("SC", 1, perfect) == 1.0
    for m in range(1, 5):
        assert normalized_usage("MC", m, perfect) == float(m)


# ---------------------------------------------------------------------------
# usage at a reliability target


def test_usage_at_reliability_sc_table_row():
    ctx = FblContext(256, db_to_linear(10.0))
    report = usage_at_reliability("SC", 1, 1e-5, ctx, EQUAL, ZERO)
    assert report.bler_target == pytest.approx(0.001826, abs=2e-5)
    assert report.channel_use_single == pytest.approx(85.14, abs=0.05)
    assert report.total_usage == pytest.approx(85.44, abs=0.10)
    assert report.scheme == "SC" and report.m_nodes == 1
    assert report.metadata_channel_use is None


def test_usage_at_reliability_mc_table_row():
    ctx = FblContext(256, db_to_linear(10.0))
    report = usage_at_reliability("MC", 2, 1e-5, ctx, EQUAL, ZERO)
    assert report.bler_target == pytest.approx(0.0328, abs=2e-4)
    assert report.channel_use_single == pytest.approx(80.88, abs=0.05)
    assert report.total_usage == pytest.approx(172.20, abs=0.10)


def test_usage_at_reliability_in_domain_at_loose_target():
    ctx = FblContext(256, db_to_linear(10.0))
    report = usage_at_reliability("SC", 1, 0.249, ctx, EQUAL, ZERO)
    assert report.channel_use_single > ctx.payload_bits / ctx.capacity


def test_usage_at_reliability_heterogeneous_nodes():
    contexts = [FblContext(256, db_to_linear(10.0)), FblContext(256, db_to_linear(0.0))]
    report = usage_at_reliability("MC", 2, 1e-5, contexts, EQUAL, ZERO)
    # same solved BLER as the homogeneous case (outage ignores SINR under
    # ideal link adaptation); usage sums the two per-node channel uses
    r10 = usage_at_reliability(
        "MC", 2, 1e-5, [contexts[0]] * 2, EQUAL, ZERO
    )
    r0 = usage_at_reliability("MC", 2, 1e-5, [contexts[1]] * 2, EQUAL, ZERO)
    assert report.bler_target == pytest.approx(r10.bler_target, rel=1e-12)
    assert report.total_usage == pytest.approx(
        (r10.total_usage + r0.total_usage) / 2, rel=1e-12
    )


def test_usage_at_reliability_metadata_reported_separately():
    ctx = FblContext(256, db_to_linear(10.0))
    with_meta = usage_at_reliability(
        "SC", 1, 1e-5, ctx, EQUAL, ZERO, metadata_bits=128
    )
    without = usage_at_reliability("SC", 1, 1e-5, ctx, EQUAL, ZERO)
    assert with_meta.metadata_channel_use is not None
    assert with_meta.metadata_channel_use > 0
    # never folded into the headline usage
    assert with_meta.total_usage == without.total_usage


def test_usage_at_reliability_savings_band():
    # duplicated transmission costs roughly twice the single link even
    # after the BLER relaxation: savings in [46%, 52%] at 0 and 10 dB
    for sinr_db in (0.0, 10.0):
        ctx = FblContext(256, db_to_linear(sinr_db))
        sc = usage_at_reliability("SC", 1, 1e-5, ctx, EQUAL, ZERO)
        mc = usage_at_reliability("MC", 2, 1e-5, ctx, EQUAL, ZERO)
        savings = 1.0 - sc.total_usage / mc.total_usage
        assert 0.46 <= savings <= 0.52
        assert 0.49 <= sc.total_usage / mc.total_usage <= 0.54


def test_usage_report_invariants():
    with pytest.raises(DomainError):
        UsageReport(0.01, 1e-5, 100.0, 99.0, "SC", 1)
    with pytest.raises(DomainError):
        UsageReport(0.01, 1e-5, 100.0, 150.0, "MC", 2)
