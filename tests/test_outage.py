"""Tests for the closed-form outage model.

The independent oracle is an explicit enumeration of the seven reception
event-tree leaves (``_enumerate_leaves``); the closed forms must match it
to 1e-14.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urllc_mc.errors import DomainError, ValidationError
from urllc_mc.fbl import FblContext, achieved_bler, channel_use, db_to_linear
from urllc_mc.outage import (
    MAX_NODES,
    ChaseModel,
    LinkBlerProfile,
    _leaves,
    chase_bler,
    mc_outage,
    sc_outage,
    success_mix,
)
from urllc_mc.sim import _thresholds


def _enumerate_leaves(p: LinkBlerProfile) -> dict:
    """Brute-force enumeration of the reception event tree.

    Leaves: first-try success; timeout path (first metadata lost) with
    retransmission success/failure; NACK path (first data lost) with
    second metadata success and a combined decode that fails with the
    conditional probability p_c/p_d, or second metadata loss. Both
    attempts use the link's p_m and p_d.
    """
    cond_fail = p.p_c / p.p_d if p.p_d > 0 else 0  # an int keeps Fractions exact
    leaves = {
        "succ_first": (1 - p.p_m) * (1 - p.p_d),
        "to_succ": p.p_m * (1 - p.p_m) * (1 - p.p_d),
        "to_fail_meta": p.p_m * p.p_m,
        "to_fail_data": p.p_m * (1 - p.p_m) * p.p_d,
        "nr_succ": (1 - p.p_m) * p.p_d * (1 - p.p_m) * (1 - cond_fail),
        "nr_fail_meta": (1 - p.p_m) * p.p_d * p.p_m,
        "nr_fail_combine": (1 - p.p_m) * p.p_d * (1 - p.p_m) * cond_fail,
    }
    assert sum(leaves.values()) == pytest.approx(1.0, abs=1e-12)
    return leaves


def _random_profiles(n: int, seed: int) -> list[LinkBlerProfile]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p_m, p_d = rng.uniform(0, 1, 2)
        out.append(LinkBlerProfile(p_m, p_d, rng.uniform(0, p_d)))
    return out


# ---------------------------------------------------------------------------
# profile validation


def test_profile_rejects_out_of_range():
    with pytest.raises(DomainError):
        LinkBlerProfile(-0.1, 0.1, 0.0)
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 1.2, 0.0)


@pytest.mark.parametrize(
    "huge", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
)
def test_huge_int_probability_rejected_by_name(huge):
    # an int past the float range is compared exactly and never printed
    for i, name in enumerate(("p_m", "p_d", "p_c")):
        probs = [0, 0, 0]
        probs[i] = huge
        with pytest.raises(DomainError, match=f"{name} .*an int past the float range"):
            LinkBlerProfile(*probs)
    with pytest.raises(DomainError, match="p_d .*an int past the float range"):
        chase_bler(ChaseModel.ZERO, huge)


PROB_FIELDS = ("p_m", "p_d", "p_c")
# a profile that passes with any one field replaced by 0, 1 or 0.5
VALID_PROBS = (0.5, 1.0, 0.0)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, True, np.True_, -0.1, 1.0000001]
)
def test_bad_probability_rejected_by_name(bad):
    # LinkBlerProfile checks each field on its own and names the first bad
    # one, with the same exception as chase_bler's check of p_d (huge ints:
    # the test above)
    for i, name in enumerate(PROB_FIELDS):
        probs = list(VALID_PROBS)
        probs[i] = bad
        with pytest.raises(DomainError, match=f"{name} must be a probability"):
            LinkBlerProfile(*probs)
    for model in ChaseModel:
        with pytest.raises(DomainError, match="p_d must be a probability"):
            chase_bler(model, bad, FblContext(256, 10.0))


@pytest.mark.parametrize("good", [np.float64(0.5), 0, 1], ids=["float64", "0", "1"])
def test_plain_and_numpy_probabilities_accepted(good):
    # the per-field checks accept a numpy float64 and the ints 0 and 1, as
    # chase_bler does
    for i, name in enumerate(PROB_FIELDS):
        probs = list(VALID_PROBS)
        probs[i] = good
        assert getattr(LinkBlerProfile(*probs), name) == good
    assert chase_bler(ChaseModel.ZERO, good) == 0.0
    assert chase_bler(ChaseModel.PRODUCT, good) == good * good


def test_profile_rejects_combining_worse_than_single():
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 0.1, 0.2)
    with pytest.raises(DomainError, match="p_c=0.1 must not exceed .* p_d=0.0"):
        LinkBlerProfile(0.1, 0.0, 0.1)


def test_profile_allows_equality_and_degenerate_values():
    LinkBlerProfile(0.1, 0.1, 0.1)
    LinkBlerProfile(1.0, 1.0, 1.0)
    LinkBlerProfile(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# success probabilities


def test_succ_first_examples():
    assert sc_outage(LinkBlerProfile(0, 0, 0)).p_succ_first == 1.0
    assert sc_outage(LinkBlerProfile(0.01, 0.1, 0)).p_succ_first == pytest.approx(
        0.891, abs=1e-12)
    assert sc_outage(LinkBlerProfile(0.0328, 0.0328, 0)).p_succ_first == pytest.approx(
        0.935476, abs=5e-7)


def _retx(profile: LinkBlerProfile) -> float:
    """Retransmission success over both paths, from the breakdown."""
    bd = sc_outage(profile)
    return bd.p_succ_timeout_retx + bd.p_succ_nack_retx


def test_sc_outage_timeout_leaf_examples():
    def timeout(*probs):
        return sc_outage(LinkBlerProfile(*probs)).p_succ_timeout_retx

    assert timeout(0, 0.5, 0.1) == 0.0
    assert timeout(0.01, 0.1, 0.1) == pytest.approx(0.008910, abs=1e-12)
    assert timeout(1, 1, 1) == 0.0


def test_sc_outage_nack_leaf_examples():
    def nack(*probs):
        return sc_outage(LinkBlerProfile(*probs)).p_succ_nack_retx

    assert nack(0.2, 0.3, 0.3) == 0.0
    assert nack(0.01, 0.1, 0.01) == pytest.approx(0.99 * 0.99 * 0.09, abs=1e-12)
    # perfect metadata and perfect combining recover every data failure
    for p in (0.05, 0.3, 0.7):
        assert nack(0, p, 0) == pytest.approx(p, abs=1e-15)


def test_sc_outage_retx_total_examples():
    for p in (0.05, 0.3, 0.7):
        assert _retx(LinkBlerProfile(0, p, 0)) == pytest.approx(p, abs=1e-15)
    p = 0.0328
    assert _retx(LinkBlerProfile(p, p, 0)) == pytest.approx(2 * p * (1 - p) ** 2, abs=1e-15)
    assert _retx(LinkBlerProfile(p, p, 0)) == pytest.approx(0.061367215104, abs=1e-12)
    assert _retx(LinkBlerProfile(0, 0, 0)) == 0.0


_prob = st.floats(0.0, 1.0)


@st.composite
def _profiles(draw) -> LinkBlerProfile:
    p_m, p_d = draw(_prob), draw(_prob)
    # a fraction of p_d never exceeds it, so the profile is valid
    return LinkBlerProfile(p_m, p_d, draw(_prob) * p_d)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_profiles())
def test_sc_outage_leaves_partition_the_round(profile):
    # p_out takes the factored retransmission total, the leaves its two
    # paths; the two forms agree, so the four fields sum to one
    bd = sc_outage(profile)
    total = bd.p_succ_first + bd.p_succ_timeout_retx + bd.p_succ_nack_retx + bd.p_out
    assert total == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# sc_outage


def test_sc_outage_symmetric_closed_form():
    # p_m = p_d = p, p_c = 0  ->  p_out = 3p^2 - 2p^3
    rng = np.random.default_rng(5)
    for p in rng.uniform(0, 1, 100):
        p = float(p)
        got = sc_outage(LinkBlerProfile(p, p, 0)).p_out
        assert got == pytest.approx(3 * p**2 - 2 * p**3, abs=1e-14)


def test_sc_outage_operating_points():
    out = sc_outage(LinkBlerProfile(1.826e-3, 1.826e-3, 0)).p_out
    assert out == pytest.approx(1.0e-5, rel=1e-2)
    out = sc_outage(LinkBlerProfile(0.0328, 0.0328, 0)).p_out
    assert out == pytest.approx(3.156944896e-3, rel=1e-9)
    assert out == pytest.approx(3.16e-3, rel=2e-3)
    assert out**2 == pytest.approx(1.0e-5, rel=2e-2)
    assert sc_outage(LinkBlerProfile(1, 1, 1)).p_out == 1.0


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


def _exact(p_m, p_d, p_c) -> SimpleNamespace:
    # a profile of Fractions, which LinkBlerProfile does not take
    return SimpleNamespace(p_m=Fraction(p_m), p_d=Fraction(p_d), p_c=Fraction(p_c))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_profiles())
def test_simulator_samples_the_tree_exactly_at_its_effective_profile(profile):
    # the law of one link's two uint32 words under the simulator's bands
    w = 2**32
    t_meta, t_fail, t_nack = _thresholds(profile)
    law = {
        "succ_first": Fraction(w - t_fail, w),
        "to_succ": Fraction(t_meta * (w - t_fail), w**2),
        "nr_succ": Fraction((t_fail - t_meta) * (w - t_nack), w**2),
    }
    if t_meta == w:  # every metadata decode fails; p_d' and p_c' go unread
        effective = _exact(1, 0, 0)
    else:
        p_d = Fraction(t_fail - t_meta, w - t_meta)
        effective = _exact(Fraction(t_meta, w), p_d,
                           p_d * Fraction(t_nack - t_meta, w - t_meta))
    exact, near = (
        _enumerate_leaves(p)
        for p in (effective, _exact(profile.p_m, profile.p_d, profile.p_c))
    )
    for leaves in (law, exact, near):  # outage is the rest
        leaves["out"] = 1 - leaves["succ_first"] - leaves["to_succ"] - leaves["nr_succ"]
    for leaf, p in law.items():
        assert p == exact[leaf], leaf
        assert abs(p - near[leaf]) <= Fraction(2, w), leaf
    # the package's own leaves, run at 60 digits at the effective profile, in the law's order
    with mp.workdps(60):
        ours = _leaves(*(mp.mpf(x.numerator) / x.denominator
                         for x in (effective.p_m, effective.p_d, effective.p_c)))
        assert all(abs(v - mp.mpf(p.numerator) / p.denominator) <= 1e-50
                   for v, p in zip(ours, law.values())), (ours, law)


def test_breakdown_partition_sums_to_one():
    # probability partition over a large random sample
    rng = np.random.default_rng(101)
    n = 1_000_000
    p_m = rng.uniform(0, 1, n)
    p_d = rng.uniform(0, 1, n)
    p_c = rng.uniform(0, 1, n) * p_d
    # vectorized mirror of the four breakdown fields
    s1 = (1 - p_m) * (1 - p_d)
    s_to = p_m * (1 - p_m) * (1 - p_d)
    s_nr = (1 - p_m) * (1 - p_m) * (p_d - p_c)
    s2 = (1 - p_m) * (p_m * (1 - p_d) + (1 - p_m) * (p_d - p_c))
    total = s1 + s_to + s_nr + np.maximum(0.0, 1.0 - s1 - s2)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    # spot-check the scalar implementation agrees with the vector mirror
    for i in rng.integers(0, n, 200):
        bd = sc_outage(LinkBlerProfile(float(p_m[i]), float(p_d[i]), float(p_c[i])))
        assert (
            bd.p_succ_first
            + bd.p_succ_timeout_retx
            + bd.p_succ_nack_retx
            + bd.p_out
        ) == pytest.approx(1.0, abs=1e-12)
        assert bd.p_succ_first == float(s1[i])
        assert bd.p_out == float(np.maximum(0.0, 1.0 - s1 - s2)[i])


def test_sc_outage_monotone_in_each_error_probability():
    base = dict(p_m=0.05, p_d=0.2, p_c=0.02)
    grid = np.linspace(0.0, 1.0, 21)
    for name in ("p_m", "p_d"):
        vals = []
        for x in grid:
            kw = dict(base)
            kw[name] = float(x)
            if kw["p_c"] > kw["p_d"]:
                continue
            vals.append(sc_outage(LinkBlerProfile(**kw)).p_out)
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    vals = []
    for x in np.linspace(0.0, base["p_d"], 21):
        kw = dict(base)
        kw["p_c"] = float(x)
        vals.append(sc_outage(LinkBlerProfile(**kw)).p_out)
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# mc_outage


def test_mc_outage_single_link_reduces_to_sc():
    profile = LinkBlerProfile(0.05, 0.2, 0.02)
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
    single = sc_outage(LinkBlerProfile(p, p, 0)).p_out
    assert mc_outage([LinkBlerProfile(p, p, 0)] * 3) == pytest.approx(
        single**3, rel=1e-13
    )


def test_mc_outage_heterogeneous_product():
    a = LinkBlerProfile(0.03, 0.03, 0)
    b = LinkBlerProfile(0.0582, 0.0582, 0)
    assert mc_outage([a, b]) == pytest.approx(
        sc_outage(a).p_out * sc_outage(b).p_out, rel=1e-13
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_profiles(), min_size=1, max_size=4), st.data())
def test_mc_outage_is_the_in_order_product_of_sc_outage(drawn, data):
    # links drawn from the profiles and equal copies of them, so runs of one
    # object, equal distinct objects and unequal links all occur
    copies = [p._replace() for p in drawn]
    assert all(c == p and c is not p for c, p in zip(copies, drawn))
    pool = drawn + copies
    links = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    expected = 1.0
    for profile in links:
        expected *= sc_outage(profile).p_out
    assert mc_outage(links) == expected


def test_mc_outage_empty_rejected():
    for build in (mc_outage, success_mix):
        with pytest.raises(DomainError, match="^at least one link profile is required$"):
            build([])


def test_mc_outage_link_count_is_bounded_like_success_mix():
    # mc_outage is success_mix's cell (0, 0), so both take the same lists
    profile = LinkBlerProfile(0.1, 0.1, 0.0)
    assert mc_outage([profile] * MAX_NODES) == success_mix([profile] * MAX_NODES)[0, 0]
    for build in (mc_outage, success_mix):
        with pytest.raises(ValidationError) as info:
            build([profile] * (MAX_NODES + 1))
        assert str(info.value) == "at most 64 link profiles are allowed, got 65"


# ---------------------------------------------------------------------------
# success_mix


def test_success_mix_matches_outcome_enumeration():
    # every link ends in one of three classes: first try, retransmission,
    # outage; summing the products over all 3^m combinations gives the mix
    profiles = _random_profiles(4, seed=43)
    for m in range(1, 5):
        expected = np.zeros((m + 1, m + 1))
        for outcome in itertools.product(range(3), repeat=m):
            prob = 1.0
            for profile, cls in zip(profiles, outcome):
                bd = sc_outage(profile)
                prob *= (bd.p_succ_first, _retx(profile), bd.p_out)[cls]
            expected[outcome.count(0), outcome.count(1)] += prob
        assert np.allclose(success_mix(profiles[:m]), expected, rtol=0.0, atol=1e-15)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_profiles(), min_size=1, max_size=6))
def test_success_mix_outage_cell_is_mc_outage(profiles):
    # the same products in the same order, so equal bit for bit
    assert success_mix(profiles)[0, 0] == mc_outage(profiles)


def _factored_mix(profiles) -> np.ndarray:
    """The mix with each link's retransmission term in the factored form
    (1 - p_m) * (p_m * (1 - p_d) + (1 - p_m) * (p_d - p_c))."""
    mix = np.zeros((len(profiles) + 1,) * 2)
    mix[0, 0] = 1.0
    for p in profiles:
        retx = (1.0 - p.p_m) * (p.p_m * (1.0 - p.p_d) + (1.0 - p.p_m) * (p.p_d - p.p_c))
        bd = sc_outage(p)
        step = mix * bd.p_out
        step[1:] += mix[:-1] * bd.p_succ_first
        step[:, 1:] += mix[:, :-1] * retx
        mix = step
    return mix


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_profiles(), min_size=1, max_size=6))
def test_success_mix_matches_factored_retx_total(profiles):
    # the summed leaves move a cell by a few ulp at most
    got = success_mix(profiles)
    assert np.max(np.abs(got - _factored_mix(profiles))) <= 1e-15


def test_success_mix_row_sums_are_binomial_over_equal_links():
    for profile in _random_profiles(30, seed=41):
        p = sc_outage(profile).p_succ_first
        for m in range(1, 7):
            # entry k: exactly k links retransmit
            got = success_mix([profile] * m).sum(axis=1)[::-1]
            expected = [math.comb(m, k) * p ** (m - k) * (1.0 - p) ** k for k in range(m + 1)]
            assert np.allclose(got, expected, rtol=0.0, atol=1e-15)


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


def _summed_sinr_bler(ctx, p_d):
    """The combined BLER as a context built at the summed SINR gives it."""
    return achieved_bler(FblContext(ctx.payload_bits, 2.0 * ctx.sinr_linear), channel_use(ctx, p_d))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.integers(1, 10**5),
    st.floats(-20.0, 80.0),
    st.floats(math.log(1e-9), math.log(0.4999)).map(math.exp),
)
def test_chase_finite_blocklength_is_the_summed_sinr_bler(bits, sinr_db, p_d):
    ctx = FblContext(bits, db_to_linear(sinr_db))
    assert chase_bler(ChaseModel.FINITE_BLOCKLENGTH, p_d, ctx) == _summed_sinr_bler(ctx, p_d)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.integers(1, 10**5),
    st.floats(sys.float_info.max / 2, sys.float_info.max, exclude_min=True),
    st.floats(1e-9, 0.4999),
)
def test_chase_finite_blocklength_overflow_is_rejected_as_by_a_context(bits, sinr, p_d):
    # the summed SINR overflows to inf: the same error as building its context
    ctx = FblContext(bits, sinr)
    with pytest.raises(DomainError) as built:
        _summed_sinr_bler(ctx, p_d)
    with pytest.raises(DomainError) as direct:
        chase_bler(ChaseModel.FINITE_BLOCKLENGTH, p_d, ctx)
    assert str(direct.value) == str(built.value) == "sinr_linear must be positive, got inf"


def test_chase_finite_blocklength_requires_context():
    with pytest.raises(ValidationError):
        chase_bler(ChaseModel.FINITE_BLOCKLENGTH, 0.0328)
