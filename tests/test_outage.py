"""Tests for the closed-form outage model.

The independent oracle is an explicit enumeration of the seven reception
event-tree leaves (``_enumerate_leaves``); the closed forms must match it
to 1e-14.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urllc_mc.errors import DomainError, ValidationError
from urllc_mc.fbl import FblContext, achieved_bler, channel_use
from urllc_mc.outage import (
    ChaseModel,
    LinkBlerProfile,
    chase_bler,
    mc_outage,
    sc_outage,
    succ_first,
    succ_retx_nack,
    succ_retx_timeout,
    succ_retx_total,
)


def _enumerate_leaves(p: LinkBlerProfile) -> dict:
    """Brute-force enumeration of the reception event tree.

    Leaves: first-try success; timeout path (first metadata lost) with
    retransmission success/failure; NACK path (first data lost) with
    second metadata success and a combined decode that fails with the
    conditional probability p_c/p_d1, or second metadata loss.
    """
    cond_fail = p.p_c / p.p_d1 if p.p_d1 > 0 else 0.0
    leaves = {
        "succ_first": (1 - p.p_m1) * (1 - p.p_d1),
        "to_succ": p.p_m1 * (1 - p.p_m2) * (1 - p.p_d2),
        "to_fail_meta": p.p_m1 * p.p_m2,
        "to_fail_data": p.p_m1 * (1 - p.p_m2) * p.p_d2,
        "nr_succ": (1 - p.p_m1) * p.p_d1 * (1 - p.p_m2) * (1 - cond_fail),
        "nr_fail_meta": (1 - p.p_m1) * p.p_d1 * p.p_m2,
        "nr_fail_combine": (1 - p.p_m1) * p.p_d1 * (1 - p.p_m2) * cond_fail,
    }
    assert sum(leaves.values()) == pytest.approx(1.0, abs=1e-12)
    return leaves


def _random_profiles(n: int, seed: int) -> list[LinkBlerProfile]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p_m1, p_m2 = rng.uniform(0, 1, 2)
        p_d1, p_d2 = rng.uniform(0, 1, 2)
        p_c = rng.uniform(0, min(p_d1, p_d2))
        out.append(LinkBlerProfile(p_m1, p_d1, p_m2, p_d2, p_c))
    return out


# ---------------------------------------------------------------------------
# profile validation


def test_profile_rejects_out_of_range():
    with pytest.raises(DomainError):
        LinkBlerProfile(-0.1, 0.1, 0.1, 0.1, 0.0)
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 1.2, 0.1, 0.1, 0.0)


def test_profile_rejects_combining_worse_than_single():
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.2)
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 0.3, 0.1, 0.1, 0.2)


def test_profile_allows_equality_and_degenerate_values():
    LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.1)
    LinkBlerProfile(1.0, 1.0, 1.0, 1.0, 1.0)
    LinkBlerProfile(0.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# success probabilities


def test_succ_first_examples():
    assert succ_first(LinkBlerProfile(0, 0, 0, 0, 0)) == 1.0
    assert succ_first(LinkBlerProfile(0.01, 0.1, 0.01, 0.1, 0)) == pytest.approx(
        0.891, abs=1e-12
    )
    assert succ_first(
        LinkBlerProfile(0.0328, 0.0328, 0.0328, 0.0328, 0)
    ) == pytest.approx(0.935476, abs=5e-7)


def test_succ_retx_timeout_examples():
    assert succ_retx_timeout(LinkBlerProfile(0, 0.5, 0.2, 0.3, 0.1)) == 0.0
    assert succ_retx_timeout(LinkBlerProfile(0.01, 0.5, 0.01, 0.1, 0.1)) == (
        pytest.approx(0.008910, abs=1e-12)
    )
    assert succ_retx_timeout(LinkBlerProfile(1, 1, 1, 1, 1)) == 0.0


def test_succ_retx_nack_examples():
    assert succ_retx_nack(LinkBlerProfile(0.2, 0.3, 0.1, 0.3, 0.3)) == 0.0
    assert succ_retx_nack(LinkBlerProfile(0.01, 0.1, 0.01, 0.1, 0.01)) == (
        pytest.approx(0.99 * 0.99 * 0.09, abs=1e-12)
    )
    # perfect metadata and perfect combining recover every data failure
    for p in (0.05, 0.3, 0.7):
        assert succ_retx_nack(LinkBlerProfile(0, p, 0, p, 0)) == pytest.approx(
            p, abs=1e-15
        )


def test_succ_retx_total_examples():
    for p in (0.05, 0.3, 0.7):
        assert succ_retx_total(LinkBlerProfile(0, p, 0, p, 0)) == pytest.approx(
            p, abs=1e-15
        )
    p = 0.0328
    assert succ_retx_total(LinkBlerProfile(p, p, p, p, 0)) == pytest.approx(
        2 * p * (1 - p) ** 2, abs=1e-15
    )
    assert succ_retx_total(LinkBlerProfile(p, p, p, p, 0)) == pytest.approx(
        0.061367215104, abs=1e-12
    )
    assert succ_retx_total(LinkBlerProfile(0, 0, 0, 0, 0)) == 0.0


_prob = st.floats(0.0, 1.0)


@st.composite
def _profiles(draw) -> LinkBlerProfile:
    p_m1, p_d1, p_m2, p_d2 = (draw(_prob) for _ in range(4))
    # a fraction of min(p_d1, p_d2) never exceeds it, so the profile is valid
    return LinkBlerProfile(p_m1, p_d1, p_m2, p_d2, draw(_prob) * min(p_d1, p_d2))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_profiles())
def test_succ_retx_total_matches_summed_form(profile):
    total = succ_retx_total(profile)
    assert total == pytest.approx(
        succ_retx_timeout(profile) + succ_retx_nack(profile), abs=1e-15
    )


# ---------------------------------------------------------------------------
# sc_outage


def test_sc_outage_symmetric_closed_form():
    # p_m = p_d = p, p_c = 0  ->  p_out = 3p^2 - 2p^3
    rng = np.random.default_rng(5)
    for p in rng.uniform(0, 1, 100):
        p = float(p)
        got = sc_outage(LinkBlerProfile(p, p, p, p, 0)).p_out
        assert got == pytest.approx(3 * p**2 - 2 * p**3, abs=1e-14)


def test_sc_outage_operating_points():
    out = sc_outage(LinkBlerProfile(1.826e-3, 1.826e-3, 1.826e-3, 1.826e-3, 0)).p_out
    assert out == pytest.approx(1.0e-5, rel=1e-2)
    out = sc_outage(LinkBlerProfile(0.0328, 0.0328, 0.0328, 0.0328, 0)).p_out
    assert out == pytest.approx(3.156944896e-3, rel=1e-9)
    assert out == pytest.approx(3.16e-3, rel=2e-3)
    assert out**2 == pytest.approx(1.0e-5, rel=2e-2)
    assert sc_outage(LinkBlerProfile(1, 1, 1, 1, 1)).p_out == 1.0


def test_sc_outage_matches_event_tree_enumeration():
    for profile in _random_profiles(400, seed=23):
        leaves = _enumerate_leaves(profile)
        bd = sc_outage(profile)
        p_out_oracle = leaves["to_fail_meta"] + leaves["to_fail_data"] + (
            leaves["nr_fail_meta"] + leaves["nr_fail_combine"]
        )
        assert bd.p_out == pytest.approx(p_out_oracle, abs=1e-14)
        assert bd.p_succ_first == pytest.approx(leaves["succ_first"], abs=1e-14)
        assert bd.p_succ_timeout_retx == pytest.approx(leaves["to_succ"], abs=1e-14)
        assert bd.p_succ_nack_retx == pytest.approx(leaves["nr_succ"], abs=1e-14)


def test_breakdown_partition_sums_to_one():
    # probability partition over a large random sample
    rng = np.random.default_rng(101)
    n = 1_000_000
    p_m1 = rng.uniform(0, 1, n)
    p_d1 = rng.uniform(0, 1, n)
    p_m2 = rng.uniform(0, 1, n)
    p_d2 = rng.uniform(0, 1, n)
    p_c = rng.uniform(0, 1, n) * np.minimum(p_d1, p_d2)
    # vectorized mirror of the four breakdown fields
    s1 = (1 - p_m1) * (1 - p_d1)
    s_to = p_m1 * (1 - p_m2) * (1 - p_d2)
    s_nr = (1 - p_m1) * (1 - p_m2) * (p_d1 - p_c)
    s2 = (1 - p_m2) * (p_m1 * (1 - p_d2) + (1 - p_m1) * (p_d1 - p_c))
    total = s1 + s_to + s_nr + np.maximum(0.0, 1.0 - s1 - s2)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    # spot-check the scalar implementation agrees with the vector mirror
    for i in rng.integers(0, n, 200):
        bd = sc_outage(
            LinkBlerProfile(
                float(p_m1[i]), float(p_d1[i]), float(p_m2[i]), float(p_d2[i]),
                float(p_c[i]),
            )
        )
        assert (
            bd.p_succ_first
            + bd.p_succ_timeout_retx
            + bd.p_succ_nack_retx
            + bd.p_out
        ) == pytest.approx(1.0, abs=1e-12)
        assert bd.p_succ_first == float(s1[i])
        assert bd.p_out == float(np.maximum(0.0, 1.0 - s1 - s2)[i])


def test_sc_outage_monotone_in_each_error_probability():
    base = dict(p_m1=0.05, p_d1=0.2, p_m2=0.05, p_d2=0.2, p_c=0.02)
    grid = np.linspace(0.0, 1.0, 21)
    for name in ("p_m1", "p_m2", "p_d2"):
        vals = []
        for x in grid:
            kw = dict(base)
            kw[name] = float(x)
            if kw["p_c"] > min(kw["p_d1"], kw["p_d2"]):
                continue
            vals.append(sc_outage(LinkBlerProfile(**kw)).p_out)
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    vals = []
    for x in np.linspace(0.0, base["p_d1"], 21):
        kw = dict(base)
        kw["p_c"] = float(x)
        vals.append(sc_outage(LinkBlerProfile(**kw)).p_out)
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# mc_outage


def test_mc_outage_single_link_reduces_to_sc():
    profile = LinkBlerProfile(0.05, 0.2, 0.05, 0.2, 0.02)
    assert mc_outage([profile]) == sc_outage(profile).p_out


def test_mc_outage_product_law():
    for profile in _random_profiles(50, seed=31):
        single = sc_outage(profile).p_out
        for k in range(1, 5):
            got = mc_outage([profile] * k)
            if single == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(single**k, rel=1e-13)


def test_mc_outage_identical_cube():
    # three identical links, each at 1e-2 per-link outage
    p = 0.0582  # 3p^2 - 2p^3 close to 1e-2 but value below is what matters
    single = sc_outage(LinkBlerProfile(p, p, p, p, 0)).p_out
    assert mc_outage([LinkBlerProfile(p, p, p, p, 0)] * 3) == pytest.approx(
        single**3, rel=1e-13
    )


def test_mc_outage_heterogeneous_product():
    a = LinkBlerProfile(0.03, 0.03, 0.03, 0.03, 0)
    b = LinkBlerProfile(0.0582, 0.0582, 0.0582, 0.0582, 0)
    assert mc_outage([a, b]) == pytest.approx(
        sc_outage(a).p_out * sc_outage(b).p_out, rel=1e-13
    )


def test_mc_outage_empty_rejected():
    with pytest.raises(DomainError):
        mc_outage([])


# ---------------------------------------------------------------------------
# chase_bler


def test_chase_zero():
    for p in (0.0, 0.1, 0.9):
        assert chase_bler(ChaseModel.ZERO, p) == 0.0


def test_chase_product():
    assert chase_bler(ChaseModel.PRODUCT, 0.1) == pytest.approx(0.01, abs=1e-15)
    # the context plays no part outside the finite-blocklength model
    ctx = FblContext(256, 10.0)
    assert chase_bler(ChaseModel.PRODUCT, 0.1, ctx) == chase_bler(ChaseModel.PRODUCT, 0.1)


def test_chase_finite_blocklength():
    ctx = FblContext(256, 10.0)
    # doubling the SINR at the single-transmission channel-use count
    # (80.88 at this BLER) pushes the combined error far below the original
    p_c = chase_bler(ChaseModel.FINITE_BLOCKLENGTH, 0.0328, ctx)
    assert 0.0 < p_c < 1e-9
    assert p_c == achieved_bler(FblContext(256, 20.0), channel_use(ctx, 0.0328))


def test_chase_finite_blocklength_requires_context():
    with pytest.raises(ValidationError):
        chase_bler(ChaseModel.FINITE_BLOCKLENGTH, 0.0328)
