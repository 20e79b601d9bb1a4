"""Tests for the Monte Carlo HARQ simulator.

The closed forms from the outage and resource models act as the oracle:
empirical frequencies must land inside wide (99.99%) binomial intervals
around them. Seeds are fixed, so these tests are deterministic.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from urllc_mc import sim, solver
from urllc_mc.errors import DomainError, ValidationError
from urllc_mc.fbl import FblContext, db_to_linear
from urllc_mc.outage import MAX_NODES, ChaseModel, LinkBlerProfile, sc_outage, success_mix
from urllc_mc.solver import usage_sc
from urllc_mc.sim import (
    MAX_JOBS,
    Numerology,
    _stream,
    _tally,
    _threshold,
    _thresholds,
    latency_budget_check,
    latency_quantile,
    simulate_run,
    ttis_to_ms,
)
from urllc_mc.solver import BlerPolicy, PolicyKind, build_profile

Z_9999 = 3.8906  # two-sided 99.99% normal quantile

DEFAULT = Numerology()


def _tail(mix, x: float, numerology: Numerology = DEFAULT,
          shared: bool = True) -> float:
    """Success mass of ``mix`` whose latency exceeds ``x`` TTIs."""
    return sim._latency_tail(mix, numerology, x, shared)


def _within_ci(count: int, n: int, p: float) -> bool:
    sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return abs(count / n - p) <= Z_9999 * sigma + 1e-12


# ---------------------------------------------------------------------------
# numerology and timing


def test_tti_duration_reference_values():
    assert ttis_to_ms(Numerology(scs_khz=30, symbols_per_tti=4), 1.0) == pytest.approx(
        1.0 / 7.0, rel=1e-15
    )
    assert ttis_to_ms(Numerology(scs_khz=30, symbols_per_tti=14), 1.0) == 0.5
    assert ttis_to_ms(Numerology(scs_khz=30, symbols_per_tti=2), 1.0) == pytest.approx(
        1.0 / 14.0, rel=1e-15
    )
    # an int TTI count reads as the float it equals, a huge one included
    assert ttis_to_ms(Numerology(), 7) == ttis_to_ms(Numerology(), 7.0) == 1.0
    assert ttis_to_ms(Numerology(), 10**308) == ttis_to_ms(Numerology(), 1e308) == math.inf


def test_numerology_validation():
    with pytest.raises(ValidationError):
        Numerology(scs_khz=0)
    with pytest.raises(ValidationError):
        Numerology(symbols_per_tti=0)
    with pytest.raises(ValidationError):
        Numerology(t_up_ttis=-1)
    with pytest.raises(ValidationError, match="t_tx_ttis must be positive"):
        Numerology(t_tx_ttis=0)


@pytest.mark.parametrize(
    "overrides",
    [{"scs_khz": 1e-310}, {"scs_khz": 1e-320}, {"harq_rtt_ttis": 10**308},
     {"t_tx_ttis": 1e308, "t_up_ttis": 1e308}, {"t_tx_ttis": 10**308, "t_up_ttis": 10**308}],
    ids=["ms-tiny-scs", "ms-subnormal-scs", "ms-huge-rtt", "ttis", "ttis-int"],
)
def test_numerology_rejects_an_overflowing_worst_case(overrides):
    # every field is finite, but the worst-case latency is not, in ms or in TTIs
    with pytest.raises(ValidationError, match="numerology: the worst-case latency must be finite"):
        Numerology(**overrides)


def test_latency_offsets_are_float_sums():
    # the offsets add the fields in float, so ints past the float range
    # once summed overflow to inf rather than raising; in range they are
    # the sums they always were
    assert sim._latency_offsets(DEFAULT) == (2.0, 6.0)
    numerology = Numerology(harq_rtt_ttis=8, t_up_ttis=0.5, t_tx_ttis=3, t_bp_initial_ttis=5)
    assert sim._latency_offsets(numerology) == (8.5, 16.5)
    assert all(type(o) is float for o in sim._latency_offsets(numerology))


@pytest.mark.parametrize(
    "huge", [10**400, -(10**400), 10**5000], ids=["1e400", "-1e400", "1e5000"]
)
def test_numerology_rejects_huge_ints_by_name(huge):
    # the TTI arithmetic would overflow converting such an int to a float,
    # and its repr may pass the int-to-str digit limit, so it is not printed
    for name in ("scs_khz", "symbols_per_tti", "harq_rtt_ttis", "t_up_ttis", "t_tx_ttis",
                 "t_bp_initial_ttis"):
        with pytest.raises(ValidationError, match=f"{name} .*an int past the float range"):
            Numerology(**{name: huge})


def test_latency_budget_default_fits_exactly():
    worst, fits = latency_budget_check(DEFAULT, 1.0)
    assert worst == 1.0  # bit-exact: 7 TTIs of 1/7 ms
    assert fits


def test_latency_budget_longer_minislot_does_not_fit():
    seven_sym = Numerology(scs_khz=30, symbols_per_tti=7)
    assert ttis_to_ms(seven_sym, 1.0) == 0.25
    worst, fits = latency_budget_check(seven_sym, 1.0)
    assert worst == pytest.approx(1.75, rel=1e-15)
    assert not fits


def test_latency_budget_huge_budget_fits():
    _, fits = latency_budget_check(DEFAULT, 1e9)
    assert fits


def test_latency_budget_must_be_positive():
    with pytest.raises(ValidationError, match="budget_ms must be positive"):
        latency_budget_check(DEFAULT, 0)


# ---------------------------------------------------------------------------
# single rounds, forced down one path with probabilities 0 and 1


def test_sc_trial_perfect_link():
    agg = simulate_run([LinkBlerProfile(0, 0, 0)], 20, seed=0)
    assert agg.n_success == 20
    assert list(agg.leaf_counts[0]) == [20, 0, 0, 0]  # no retransmission
    assert agg.mean_usage() == (1.0, 0.0)  # one transmission each
    # t_fa in [0,1) + tx + up
    mix = agg.success_mix
    assert _tail(mix, 2.0) == 20 and _tail(mix, 3.0) == 0.0


def test_sc_trial_forced_timeout_path():
    # both attempts share p_m, so p_m = 1 loses the retransmission's metadata
    # too and no 0/1 profile forces a timeout success (test_stream_layout_is_pinned
    # reaches that leaf); a retransmission on the NACK path lands in the same band
    lost = simulate_run([LinkBlerProfile(1, 0, 0)], 20, seed=1)
    assert list(lost.leaf_counts[0]) == [0, 0, 0, 20]
    agg = simulate_run([LinkBlerProfile(0, 1, 0)], 20, seed=1)
    assert agg.n_success == 20
    assert list(agg.leaf_counts[0]) == [0, 0, 20, 0]
    assert agg.mean_usage() == (2.0, 0.0)
    # t_fa + rtt 4 + tx + up
    mix = agg.success_mix
    assert _tail(mix, 6.0) == 20 and _tail(mix, 7.0) == 0.0


def test_sc_trial_forced_nack_path():
    # data always fails, combining saves
    agg = simulate_run([LinkBlerProfile(0, 1, 0)], 20, seed=2)
    assert agg.n_success == 20
    assert list(agg.leaf_counts[0]) == [0, 0, 20, 0]
    assert agg.mean_usage() == (2.0, 0.0)
    mix = agg.success_mix
    assert _tail(mix, 6.0) == 20 and _tail(mix, 7.0) == 0.0


def test_sc_trial_certain_outage():
    agg = simulate_run([LinkBlerProfile(1, 1, 1)], 20, seed=3)
    assert agg.n_success == 0
    assert list(agg.leaf_counts[0]) == [0, 0, 0, 20]
    assert agg.mean_usage() == (2.0, 0.0)
    assert math.isnan(latency_quantile(agg.success_mix, DEFAULT, 0.99))
    exact = success_mix([LinkBlerProfile(1, 1, 1)] * 2)  # and the exact mix
    assert exact[0][0] == 1.0
    assert _tail(exact, 3.0) == 0.0  # no success mass at all
    assert math.isnan(latency_quantile(exact, DEFAULT, 0.99))


def test_mc_trial_perfect_links():
    agg = simulate_run([LinkBlerProfile(0, 0, 0)] * 2, 20, seed=4)
    assert agg.n_success == 20 and agg.success_mix[2][0] == 20
    assert agg.mean_usage() == (2.0, 0.0)


def test_mc_trial_takes_first_received_copy():
    # one link always succeeds first-try, one always needs the retx
    fast = LinkBlerProfile(0, 0, 0)
    slow = LinkBlerProfile(0, 1, 0)
    agg = simulate_run([fast, slow], 20, seed=5)
    assert agg.n_success == 20 and agg.success_mix[1][1] == 20
    assert _tail(agg.success_mix, 3.0) == 0.0  # the fast copy always wins
    assert agg.mean_usage() == (3.0, 0.0)  # 1 + 2 each, no cross-link cancel


def test_mc_trial_rejects_empty():
    with pytest.raises(DomainError):
        simulate_run([], 10, seed=0)


@pytest.mark.parametrize(
    "build", [success_mix, lambda profiles: simulate_run(profiles, 10, seed=0).success_mix],
    ids=["success_mix", "simulate_run"],
)
def test_link_count_is_bounded_by_max_nodes(build):
    # the bound of solve_bler and the scenario, now owned by the outage module
    assert MAX_NODES == solver.MAX_NODES == 64
    profile = LinkBlerProfile(0.1, 0.1, 0.0)
    mix = build([profile] * MAX_NODES)
    assert [len(row) for row in mix] == [MAX_NODES + 1] * (MAX_NODES + 1)
    with pytest.raises(ValidationError, match=f"at most {MAX_NODES} link profiles .*got 65"):
        build([profile] * (MAX_NODES + 1))


def test_trial_with_unreachable_nack_branch_is_fine():
    # p_d = 0 with p_c = 0: the NACK branch never fires, nothing to define
    agg = simulate_run([LinkBlerProfile(0.0, 0.0, 0.0)], 20, seed=0)
    assert agg.n_success == 20
    # p_c > 0 with p_d = 0 cannot even be built as a profile
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 0.0, 0.1)


def test_event_threshold_bound():
    rng = np.random.default_rng(12)
    for p in [0.0, 1.0, 2.0**-33, 1e-9, 0.00183, 0.0328, 0.5, *rng.uniform(0, 1, 1000)]:
        t = _threshold(float(p))
        assert isinstance(t, int)
        assert 0.0 <= p - t / 2**32 < 2.0**-32
    assert _threshold(0.0) == 0 and _threshold(1.0) == 2**32
    words = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
    assert not (words < _threshold(0.0)).any()
    assert (words < _threshold(1.0)).all()


def test_attempt_bands_within_two_to_the_minus_32():
    rng = np.random.default_rng(13)
    pairs = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.00183, 0.00183),
             *rng.uniform(0, 1, (500, 2)).tolist()]
    for p_m, p_d in pairs:
        t_meta, t_fail, t_nack = _thresholds(LinkBlerProfile(p_m, p_d, 0.0))
        assert t_nack == t_meta  # p_c = 0: combining always decodes
        p_m, p_d = Fraction(p_m), Fraction(p_d)
        bands = (t_meta, t_fail - t_meta, 2**32 - t_fail)
        targets = (p_m, (1 - p_m) * p_d, (1 - p_m) * (1 - p_d))
        for width, target in zip(bands, targets):
            assert abs(Fraction(width, 2**32) - target) < Fraction(1, 2**32)
    # partial combining, p_c = f * p_d: a NACK retransmission fails with
    # the conditional probability p_c / p_d
    draws = rng.uniform(0, 1, (500, 3))
    draws[:, 1:] = 1 - draws[:, 1:]  # p_d and f in (0, 1]
    for p_m, p_d, f in [(0.0, 1.0, 1.0), (1.0, 0.5, 0.5), (0.00183, 0.00183, 1e-3),
                        *draws.tolist()]:
        profile = LinkBlerProfile(p_m, p_d, f * p_d)
        t_nack = _thresholds(profile)[2]
        p_m, p_d, p_c = (Fraction(p) for p in (profile.p_m, profile.p_d, profile.p_c))
        target = (1 - p_m) * (1 - p_c / p_d)
        assert abs(Fraction(2**32 - t_nack, 2**32) - target) < Fraction(1, 2**32)


# ---------------------------------------------------------------------------
# aggregates against the closed forms


def test_sc_outage_and_leaf_frequencies_match_closed_form():
    profile = LinkBlerProfile(0.0328, 0.0328, 0.0)
    n = 10**7
    agg = simulate_run([profile], n, seed=1001)
    bd = sc_outage(profile)
    n_out = n - agg.n_success
    assert _within_ci(n_out, n, bd.p_out)
    counts = agg.leaf_counts[0]
    assert _within_ci(int(counts[0]), n, bd.p_succ_first)
    assert _within_ci(int(counts[1]), n, bd.p_succ_timeout_retx)
    assert _within_ci(int(counts[2]), n, bd.p_succ_nack_retx)
    assert _within_ci(int(counts[3]), n, bd.p_out)


def test_sc_outage_with_partial_combining():
    profile = LinkBlerProfile(0.02, 0.2, 0.08)
    n = 10**6
    agg = simulate_run([profile], n, seed=77)
    bd = sc_outage(profile)
    assert _within_ci(n - agg.n_success, n, bd.p_out)
    assert _within_ci(int(agg.leaf_counts[0][2]), n, bd.p_succ_nack_retx)


def test_mc_outage_matches_product_of_closed_forms():
    profile = LinkBlerProfile(0.0328, 0.0328, 0.0)
    n = 10**7
    agg = simulate_run([profile] * 2, n, seed=2002)
    p_out = sc_outage(profile).p_out ** 2
    assert _within_ci(n - agg.n_success, n, p_out)


def test_mean_usage_matches_expected_usage():
    profile = LinkBlerProfile(0.01, 0.1, 0.0)
    n = 10**6
    for m, seed in ((1, 31), (2, 32)):
        agg = simulate_run([profile] * m, n, seed=seed)
        mean, _ = agg.mean_usage()
        expected = m * usage_sc(1.0, sc_outage(profile).p_succ_first)
        # 4 sigma of the per-trial multiples spread
        sigma = math.sqrt(m * 0.891 * (1 - 0.891) / n)
        assert abs(mean - expected) <= 4 * sigma


def test_mean_usage_sums_tallies_past_int64():
    # (m + k)**2 * count passes 2**63 - 1 although every tally fits
    agg = sim.SimAggregate(0, ((0, 0, 0, 0),), ((0, 2**61), (2**61, 0)))
    assert agg.mean_usage() == (1.5, 1.96 * math.sqrt(0.25 / 2**62))
    mix = [[0] * 65 for _ in range(65)]
    mix[0][64] = mix[64][0] = 2**57
    agg = sim.SimAggregate(0, ((0, 0, 0, 0),) * 64, tuple(map(tuple, mix)))
    assert agg.mean_usage() == (96.0, 1.96 * 32 / 2**29)


def test_usage_histogram_matches_binomial_distribution():
    profile = LinkBlerProfile(0.05, 0.1, 0.0)
    m, n = 3, 10**6
    agg = simulate_run([profile] * m, n, seed=404)
    # [k]: k links retransmit, counted and exact
    counts = [sum(r) for r in reversed(agg.success_mix)]
    dist = [sum(r) for r in reversed(success_mix([profile] * m))]
    for k, weight in enumerate(dist):
        assert _within_ci(counts[k], n, weight)


def test_latency_bands_default_numerology():
    profile = LinkBlerProfile(0.3, 0.3, 0.0)
    agg = simulate_run([profile], 10**5, seed=55)
    mix, successes = agg.success_mix, agg.n_success
    retx_band = _tail(mix, 3.0)
    assert _tail(mix, 2.0) == successes
    assert _tail(mix, 6.0) == retx_band  # nothing between the bands
    assert _tail(mix, 7.0) == 0.0
    assert 0.0 < retx_band < successes


def test_latency_quantile_forced_retransmission():
    profile = LinkBlerProfile(0, 1, 0)  # every trial retransmits
    agg = simulate_run([profile], 10**5, seed=7)
    assert latency_quantile(agg.success_mix, DEFAULT, 1.0) == 7.0  # the supremum, 7 TTIs = 1 ms


@pytest.mark.parametrize("shared", [True, False])
def test_latency_quantile_one_without_a_lone_retransmission(shared):
    # every trial has a first-try success, so the latest delivery ends the
    # first-try band [2, 3), short of the support's 7 TTIs
    perfect, slow = LinkBlerProfile(0, 0, 0), LinkBlerProfile(0, 1, 0)
    for mix in (success_mix([perfect]), success_mix([perfect] * 2),
                simulate_run([perfect, slow], 20, seed=5).success_mix):
        assert latency_quantile(mix, DEFAULT, 1.0, shared) == 3.0


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("cell, end", [((0, 64), 7.0), ((64, 0), 3.0)])
def test_latency_quantile_one_is_the_support_end_over_many_links(cell, end, shared):
    # 64 links: with independent alignments the tail's 64th powers underflow
    # just short of the end, so q = 1 must not be found by bisecting the tail
    mix = np.zeros((65, 65))
    mix[cell] = 1.0
    assert latency_quantile(mix, DEFAULT, 1.0, shared) == end


def test_latency_quantile_bisects_near_the_float_limit():
    # lo + hi overflows to inf here; lo + 0.5 * (hi - lo) does not
    numerology = Numerology(symbols_per_tti=1, scs_khz=15, t_tx_ttis=9e307,
                            harq_rtt_ttis=int(8e307))
    first, _ = sim._latency_offsets(numerology)
    mix = success_mix([LinkBlerProfile(0, 0, 0)])
    assert latency_quantile(mix, numerology, 0.5) == math.nextafter(first, math.inf)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("t_bp", [0, 1, 5])
def test_latency_support_ends_at_the_budget_worst_case(t_bp, shared, m):
    # the initial buffering delay precedes the first transmission, so it
    # delays the retransmission as well
    numerology = Numerology(t_bp_initial_ttis=t_bp)
    agg = simulate_run([LinkBlerProfile(0.3, 0.3, 0.0)] * m, 10**4, seed=58)
    first = t_bp + numerology.t_tx_ttis + numerology.t_up_ttis
    retx = numerology.harq_rtt_ttis + first
    assert latency_quantile(agg.success_mix, numerology, 1.0, shared) == retx + 1.0
    worst_ms, _ = latency_budget_check(numerology, 1.0)
    assert ttis_to_ms(numerology, retx + 1.0) == worst_ms
    mix, successes = agg.success_mix, agg.n_success
    assert _tail(mix, first, numerology, shared) == successes
    retx_band = _tail(mix, first + 1.0, numerology, shared)
    assert 0.0 < retx_band < successes
    for x in np.linspace(first + 1.0, retx, 7):
        assert _tail(mix, float(x), numerology, shared) == retx_band


def test_latency_quantile_matches_analytic_mixture():
    # shared alignment, one link: a mixture of U[2, 3) and U[6, 7)
    profile = LinkBlerProfile(0.3, 0.3, 0.0)
    agg = simulate_run([profile], 10**5, seed=56)
    w_first = agg.success_mix[1][0] / agg.n_success
    # independent alignment, two links that both succeed first-try (or
    # both on the retransmission): offset + min(U1, U2)
    pairs = [
        (offset, simulate_run([LinkBlerProfile(0, p_d, 0)] * 2, 100, seed=57))
        for offset, p_d in ((2.0, 0), (6.0, 1))
    ]
    for q in (1e-6, 0.01, 0.25, 0.5, 0.7, 0.9, 0.99, 0.999999):
        mixture = 2.0 + q / w_first if q <= w_first else 6.0 + (q - w_first) / (1.0 - w_first)
        got = latency_quantile(agg.success_mix, DEFAULT, q)
        assert got == pytest.approx(mixture, abs=1e-9)
        for offset, pair in pairs:
            got = latency_quantile(pair.success_mix, DEFAULT, q, shared_frame_alignment=False)
            assert got == pytest.approx(offset + 1.0 - math.sqrt(1.0 - q), abs=1e-9)


# ---------------------------------------------------------------------------
# the exact success mix against the counted one


def _per_node_profiles(m: int, chase: ChaseModel) -> list:
    """m links at p_d = 0.1 under the half policy, 256 bits at 0, 5, 10, 3 dB."""
    contexts = [FblContext(256, db_to_linear(s)) for s in (0.0, 5.0, 10.0, 3.0)[:m]]
    return [build_profile(0.1, BlerPolicy(PolicyKind.HALF), chase, c) for c in contexts]


def _half_width(p, n):  # binomial 95% normal-approximation half-width
    return 1.96 * np.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("chase", list(ChaseModel))
def test_exact_mix_matches_simulated_mix(chase):
    n = 10**6
    for m in range(1, 5):
        profiles = _per_node_profiles(m, chase)
        counted = simulate_run(profiles, n, seed=600 + m).success_mix
        exact = success_mix(profiles)
        assert all(abs(c / n - p) <= 4 * _half_width(p, n)
                   for c_row, p_row in zip(counted, exact) for c, p in zip(c_row, p_row))


@pytest.mark.parametrize("shared", [True, False])
def test_latency_tail_of_exact_mix_matches_simulated(shared):
    n = 10**6
    profiles = _per_node_profiles(2, ChaseModel.FINITE_BLOCKLENGTH)
    counted = simulate_run(profiles, n, seed=611).success_mix
    exact = success_mix(profiles)
    successes = n - counted[0][0]

    def late(mix, x):  # P(latency > x | success)
        return _tail(mix, x, DEFAULT, shared) / float(sum(map(sum, mix)) - mix[0][0])

    # inside the first-try band [2, 3) and the retransmission band [6, 7)
    for x in (2.1, 2.5, 2.9, 6.1, 6.5, 6.9):
        p = late(exact, x)
        assert 0.0 < p < 1.0
        assert abs(late(counted, x) - p) <= 4 * _half_width(p, successes)


def _numpy_tail(mix: np.ndarray, numerology: Numerology, x: float, shared: bool) -> float:
    """``_latency_tail`` as it ran on numpy arrays before it moved to plain
    lists (numpy's pairwise summation), the oracle of the list version."""
    o1, o2 = sim._latency_offsets(numerology)
    late1 = 1.0 - min(max(x - o1, 0.0), 1.0)
    late2 = 1.0 - min(max(x - o2, 0.0), 1.0)
    k = np.arange(mix.shape[0])
    if shared:
        late = np.full((k.size, k.size), late1)
        late[0] = late2
    else:
        late = late1 ** k[:, None] * late2 ** k[None, :]
    late[0, 0] = 0.0
    return float(np.sum(mix * late))


def _numpy_quantile(mix, numerology: Numerology, q: float, shared: bool) -> float:
    """``latency_quantile``'s bisection for q < 1 over ``_numpy_tail``, with
    the success mass summed by numpy, as it ran on numpy arrays."""
    mix = np.asarray(mix)
    successes = float(mix.sum() - mix[0, 0])
    if successes == 0:
        return math.nan
    lo, retx = sim._latency_offsets(numerology)
    hi = retx + 1.0
    allowed = (1.0 - q) * successes
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if _numpy_tail(mix, numerology, mid, shared) <= allowed:
            hi = mid
        else:
            lo = mid


def _oracle_mixes() -> list:
    """Exact and counted (2,000 trials) mixes of random profiles over one
    to four links, twenty of each, from a fixed seed."""
    rng = np.random.default_rng(2019)
    mixes = []
    for i in range(20):
        profiles = []
        for _ in range(i % 4 + 1):
            p_m, p_d = 10.0 ** rng.uniform(-4.0, -0.3, 2)
            profiles.append(LinkBlerProfile(float(p_m), float(p_d), float(p_d * rng.uniform())))
        mixes += [success_mix(profiles), simulate_run(profiles, 2_000, seed=i).success_mix]
    return mixes


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("numerology", [
    DEFAULT,
    Numerology(harq_rtt_ttis=5, t_bp_initial_ttis=0.5),
    Numerology(scs_khz=60.0, symbols_per_tti=2, harq_rtt_ttis=3, t_up_ttis=0.5, t_tx_ttis=1.5),
], ids=["default", "rtt5_bp0.5", "scs60"])
def test_latency_quantile_prints_as_the_numpy_oracle(numerology, shared):
    # fsum and numpy's pairwise sum may round a tail apart by an ulp, which
    # moves the bisection's last bits but never the nine printed digits
    for mix in _oracle_mixes():
        for q in (0.9, 0.99, 0.999, 0.9999, 0.99999):
            got = latency_quantile(mix, numerology, q, shared)
            assert f"{got:.9g}" == f"{_numpy_quantile(mix, numerology, q, shared):.9g}"


@pytest.mark.parametrize("m", [1, 3])
def test_tallies_and_mixes_are_tuples_of_python_numbers(m):
    # no numpy object leaves the package: a run's tallies hold Python ints,
    # the exact mix Python floats, and the estimates are Python numbers
    profiles = [LinkBlerProfile(0.2, 0.2, 0.04)] * m  # dense at m = 3
    agg = simulate_run(profiles, 3 * sim.BATCH_SIZE, seed=8, jobs=2)
    exact = success_mix(profiles)
    from_float64 = success_mix([LinkBlerProfile(np.float64(0.2), np.float64(0.2), 0.04)] * m)
    for table, cell in ((agg.leaf_counts, int), (agg.success_mix, int), (exact, float),
                        (from_float64, float)):
        assert type(table) is tuple and {type(row) for row in table} == {tuple}
        assert {type(c) for row in table for c in row} == {cell}
    assert {type(v) for v in (agg.trials, agg.n_success, agg.m_nodes)} == {int}
    estimates = (*agg.outage(), *agg.mean_usage(),
                 latency_quantile(agg.success_mix, DEFAULT, 0.99),
                 latency_quantile(exact, DEFAULT, 0.99))
    assert {type(v) for v in estimates} == {float}


def test_peak_memory_does_not_grow_with_trials(monkeypatch):
    profile = LinkBlerProfile(0.2, 0.2, 0.1)
    batch = 4096
    monkeypatch.setattr(sim, "BATCH_SIZE", batch)
    draw_bytes = batch * 2 * 8  # one 64-bit Philox output per link and trial

    def peak(batches: int) -> int:
        tracemalloc.start()
        try:
            simulate_run([profile] * 2, batches * batch, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm up
    assert abs(peak(32) - peak(4)) < draw_bytes


def test_parallel_peak_memory_does_not_grow_with_batches(monkeypatch):
    # at jobs > 1 the workers add into the run's one pair of tables; no
    # result waits per batch
    profile = LinkBlerProfile(0.2, 0.2, 0.1)
    monkeypatch.setattr(sim, "BATCH_SIZE", 16)

    def peak(batches: int) -> int:
        tracemalloc.start()
        try:
            simulate_run([profile], batches * 16, seed=3, jobs=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    simulate_run([profile], 2 * 16, seed=1, jobs=2)  # warm up: imports the thread pool
    assert peak(4_000) <= 2 * peak(400)


@pytest.mark.parametrize("profile, m", [
    (LinkBlerProfile(0.05, 0.05, 0.01), 1),
    (LinkBlerProfile(0.05, 0.05, 0.01), 2),
    (LinkBlerProfile(0.05, 0.05, 0.01), 3),
    (LinkBlerProfile(0.2, 0.2, 0.04), 3),  # 74% of the trials miss: dense
])
def test_peak_memory_holds_one_batch_of_draws(profile, m):
    # a batch's draws are freed before the next batch's are made; holding
    # the previous ones alive across the next draw reaches two batches
    draw_bytes = 8 * m * sim.BATCH_SIZE
    simulate_run([profile] * m, sim.BATCH_SIZE, seed=1)  # warm up
    tracemalloc.start()
    try:
        simulate_run([profile] * m, 4 * sim.BATCH_SIZE + 5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * draw_bytes


def test_dense_tally_peaks_below_the_draws():
    # each attempt's word copy is freed before the next is made, and a
    # link's masks before the next link's
    m = 3
    thresholds = [sim._thresholds(LinkBlerProfile(0.2, 0.2, 0.04))] * m
    raw = sim._stream(1, m, 0).random_raw(m * sim.BATCH_SIZE)
    leaf_counts = np.zeros((m, 4), dtype=np.int64)
    mix = np.zeros((m + 1, m + 1), dtype=np.int64)
    sim._tally(thresholds, raw, True, leaf_counts, mix)  # warm up
    tracemalloc.start()
    try:
        sim._tally(thresholds, raw, True, leaf_counts, mix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * raw.nbytes
    assert mix.sum() == 2 * sim.BATCH_SIZE


# ---------------------------------------------------------------------------
# estimates and determinism


def test_estimate_outage_trivial():
    agg = simulate_run([LinkBlerProfile(0, 0, 0)], 1000, seed=5)
    assert agg.outage() == (0.0, 0.0)
    assert agg.trials == 1000 and agg.seed == 5


def test_estimate_ci_formula():
    profile = LinkBlerProfile(0.1, 0.1, 0.0)
    agg = simulate_run([profile], 10**5, 6)
    mean, ci = agg.outage()
    expected_ci = 1.96 * math.sqrt(mean * (1 - mean) / agg.trials)
    assert ci == pytest.approx(expected_ci, rel=1e-12)


def test_estimate_validations():
    profile = LinkBlerProfile(0.1, 0.1, 0.0)
    with pytest.raises(ValidationError):
        simulate_run([profile], 0, 5)
    with pytest.raises(ValidationError):
        simulate_run([profile], 10, -1)
    # the seed is the 128-bit Philox key
    with pytest.raises(ValidationError, match="seed"):
        simulate_run([profile], 10, 2**128)
    assert simulate_run([profile], 10, 2**128 - 1).seed == 2**128 - 1
    # MAX_JOBS is checked before any pool is built
    with pytest.raises(ValidationError, match=f"jobs must be at most {MAX_JOBS}"):
        simulate_run([profile], 10, 5, jobs=MAX_JOBS + 1)
    for jobs in (0, 1.5):
        with pytest.raises(ValidationError, match="jobs must be a positive integer"):
            simulate_run([profile], 10**5, 5, jobs=jobs)
    agg = simulate_run([profile], 10, 5)
    with pytest.raises(ValidationError):
        latency_quantile(agg.success_mix, DEFAULT, 0.0)


def test_trials_bounded_by_the_int64_tallies():
    profile = LinkBlerProfile(0.1, 0.1, 0.0)
    # rejected by name before any batch range is built
    for trials in (10**30, sim.MAX_TRIALS + 1, 10**400):
        with pytest.raises(ValidationError, match="trials must be a positive integer at most"):
            simulate_run([profile], trials, 5)
    assert sim.MAX_TRIALS == np.iinfo(np.int64).max


_prob = st.floats(0.0, 1.0)


@st.composite
def _profile(draw) -> LinkBlerProfile:
    p_m, p_d = draw(_prob), draw(_prob)
    # a fraction of p_d never exceeds it, so the profile is valid
    return LinkBlerProfile(p_m, p_d, draw(_prob) * p_d)


@st.composite
def _partitioned_runs(draw, m: int):
    profiles = draw(st.lists(_profile(), min_size=m, max_size=m))
    trials = draw(st.integers(1, 3_000))
    # the batch starts: 0 and up to eight cuts inside [0, trials)
    starts = draw(st.sets(st.integers(0, trials - 1), max_size=8)) | {0}
    return profiles, trials, sorted(starts)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**128 - 1))
def test_any_trial_partition_sums_to_the_run(m, data, seed):
    # batches that start anywhere, mid Philox block included, tally the
    # same trials as one run, whether each batch positions its own stream
    # or one stream positioned at trial 0 is read batch after batch, and
    # whether the misses are gathered first (sparse) or not (dense)
    profiles, trials, starts = data.draw(_partitioned_runs(m))
    thresholds = [_thresholds(p) for p in profiles]
    agg = simulate_run(profiles, trials, seed)
    for positioned, dense in itertools.product((True, False), repeat=2):
        read_on = _stream(seed, m, 0)
        leaves = np.zeros((m, 4), dtype=np.int64)
        mix = np.zeros((m + 1, m + 1), dtype=np.int64)
        for start, stop in zip(starts, [*starts[1:], trials]):
            bits = _stream(seed, m, start) if positioned else read_on
            raw = bits.random_raw(m * (stop - start))
            _tally(thresholds, raw, dense, leaves, mix)
        assert np.array_equal(agg.leaf_counts, leaves)
        assert np.array_equal(agg.success_mix, mix)
    assert agg.trials == trials and agg.m_nodes == m
    for n in range(m):
        assert agg.trials == sum(agg.leaf_counts[n])


def test_batch_size_invariance(monkeypatch):
    profile = LinkBlerProfile(0.2, 0.2, 0.1)
    # a trial reads m of a Philox block's four 64-bit outputs, so batches of
    # 3_333, 257 and 5 trials start mid-block for m = 1, 2 and 3, and an
    # m = 3 trial can straddle two blocks; m = 4 fills whole blocks
    for m in (1, 2, 3, 4):
        monkeypatch.setattr(sim, "BATCH_SIZE", 10_000)
        base = simulate_run([profile] * m, 10_000, seed=99)
        for bs in (1_000, 3_333, 257, 5):
            monkeypatch.setattr(sim, "BATCH_SIZE", bs)
            agg = simulate_run([profile] * m, 10_000, seed=99)
            assert agg.n_success == base.n_success
            assert np.array_equal(agg.leaf_counts, base.leaf_counts)
            assert agg.mean_usage() == base.mean_usage()
            assert np.array_equal(agg.success_mix, base.success_mix)


def test_thread_count_invariance(monkeypatch):
    profile = LinkBlerProfile(0.2, 0.2, 0.1)
    monkeypatch.setattr(sim, "BATCH_SIZE", 4_095)
    for m in (1, 3):
        one = simulate_run([profile] * m, 50_000, seed=123, jobs=1)
        four = simulate_run([profile] * m, 50_000, seed=123, jobs=4)
        assert one.n_success == four.n_success
        assert np.array_equal(one.leaf_counts, four.leaf_counts)
        assert one.mean_usage() == four.mean_usage()
        assert np.array_equal(one.success_mix, four.success_mix)
        assert one.outage() == four.outage()


def _stream_tallies(profiles, trials, seed):
    """Leaf counts and success mix rebuilt one trial at a time from the
    documented stream: trial i of an m-link run reads the uint32 words
    2m * i .. 2m * i + 2m - 1 of Philox(key=seed), and link n compares
    words 2n and 2n + 1 with its attempts' band thresholds; a timeout
    retransmission is a second attempt with the first one's bands."""
    m = len(profiles)
    words = Philox(key=seed).random_raw(m * trials).view(np.uint32).tolist()

    def fails_below(p_meta, p_data):  # floor((p_m + (1 - p_m) * p_d) * 2**32), exactly
        p_meta = Fraction(p_meta)
        return math.floor((p_meta + (1 - p_meta) * Fraction(p_data)) * 2**32)

    bands = [
        (
            math.floor(p.p_m * 2**32),  # the metadata decode fails below
            fails_below(p.p_m, p.p_d),  # an attempt fails below
            fails_below(p.p_m, Fraction(p.p_c) / Fraction(p.p_d)),  # the NACK one
        )
        for p in profiles
    ]
    leaves = np.zeros((m, 4), dtype=np.int64)
    mix = np.zeros((m + 1, m + 1), dtype=np.int64)
    for i in range(trials):
        first = retx = 0
        for n, (meta, attempt, nack) in enumerate(bands):
            word1, word2 = words[2 * m * i + 2 * n], words[2 * m * i + 2 * n + 1]
            if word1 >= attempt:
                leaf = 0
            elif word1 < meta:
                leaf = 1 if word2 >= attempt else 3
            else:
                leaf = 2 if word2 >= nack else 3
            leaves[n, leaf] += 1
            first += leaf == 0
            retx += leaf in (1, 2)
        mix[first, retx] += 1
    return leaves, mix


def test_stream_layout_is_pinned(monkeypatch):
    profiles = [
        LinkBlerProfile(0.2, 0.3, 0.1),
        LinkBlerProfile(0.1, 0.5, 0.2),
        LinkBlerProfile(0.3, 0.1, 0.05),
    ]
    trials = 2_000
    # odd batch sizes, so that at m = 3 the shares of jobs = 2 and 3 start
    # mid Philox block: 257-trial batches at jobs = 3 cut at trials 514 and
    # 1_285, outputs 1_542 and 3_855; 3-trial batches at jobs = 2 at trial
    # 999, output 2_997
    batch_sizes = (1, 3, 257, sim.BATCH_SIZE)
    # m = 1 misses a first try in 44% of the trials and tallies sparse,
    # m = 2 and 3 in 75% and 84% and tally dense: both modes are pinned
    modes = {}
    tally = sim._tally

    def recorded(thresholds, raw, dense, *tables):
        modes.setdefault(len(thresholds), set()).add(dense)
        return tally(thresholds, raw, dense, *tables)

    monkeypatch.setattr(sim, "_tally", recorded)
    for m in (1, 2, 3):
        leaves, mix = _stream_tallies(profiles[:m], trials, seed=2019 + m)
        assert (leaves > 0).all()  # every leaf of every link is reached
        for bs in batch_sizes:
            monkeypatch.setattr(sim, "BATCH_SIZE", bs)
            for jobs in (1, 2, 3):
                agg = simulate_run(profiles[:m], trials, seed=2019 + m, jobs=jobs)
                assert np.array_equal(agg.leaf_counts, leaves)
                assert np.array_equal(agg.success_mix, mix)
    assert modes == {1: {False}, 2: {True}, 3: {True}}


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_each_worker_positions_one_stream(monkeypatch, jobs):
    # a worker positions its generator once, at its share's first trial, and
    # reads its batches in order: one generator per worker, not per batch
    built = []

    def counting_philox(*args, **kwargs):
        built.append(kwargs)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(sim, "BATCH_SIZE", 7)
    profiles = [LinkBlerProfile(0.2, 0.3, 0.1)] * 3
    for batches in (1, 2, 5, 12):
        built.clear()
        simulate_run(profiles, 7 * batches - 3, seed=9, jobs=jobs)
        assert built == [{"key": 9}] * min(jobs, batches)


@pytest.mark.parametrize("jobs", [2, 3])
def test_one_worker_tallies_at_a_time(monkeypatch, jobs):
    # the workers draw side by side but take turns to tally, so that their
    # many short numpy calls do not pass the GIL back and forth
    active = most = 0
    counting = threading.Lock()
    tally = sim._tally

    def watched(*args):
        nonlocal active, most
        with counting:
            active += 1
            most = max(most, active)
        try:
            time.sleep(0.001)  # lets another worker in, if nothing stops it
            return tally(*args)
        finally:
            with counting:
                active -= 1

    monkeypatch.setattr(sim, "_tally", watched)
    monkeypatch.setattr(sim, "BATCH_SIZE", 64)
    profiles = [LinkBlerProfile(0.2, 0.3, 0.1)] * 2
    one = simulate_run(profiles, 64 * 24 - 5, seed=4, jobs=1)
    most = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        agg = simulate_run(profiles, 64 * 24 - 5, seed=4, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert most == 1
    assert np.array_equal(agg.leaf_counts, one.leaf_counts)
    assert np.array_equal(agg.success_mix, one.success_mix)


@pytest.mark.parametrize(
    ("jobs", "trials", "expected_pools"),
    [
        (1, 64 * 6 - 5, []),  # six batches
        (2, 64 * 6 - 5, [{"max_workers": 2}]),
        (2, 64, []),  # one batch
        (8, 64 * 6 - 5, [{"max_workers": 6}]),
    ],
    ids=["jobs1-six-batches", "jobs2-six-batches", "jobs2-one-batch", "jobs8-six-batches"],
)
def test_one_worker_run_starts_no_thread(monkeypatch, jobs, trials, expected_pools):
    # a one-thread pool raises the peak memory of a jobs=1 run, so one
    # worker runs in the calling thread; more build one pool, of at most
    # one thread per batch
    monkeypatch.setattr(sim, "BATCH_SIZE", 64)
    profiles = [LinkBlerProfile(0.2, 0.3, 0.1)] * 2
    one = simulate_run(profiles, trials, seed=5, jobs=1)
    pools = []
    pool_class = concurrent.futures.ThreadPoolExecutor

    def recording_pool(*args, **kwargs):
        pools.append(kwargs)
        return pool_class(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    agg = simulate_run(profiles, trials, seed=5, jobs=jobs)
    assert pools == expected_pools
    assert np.array_equal(one.leaf_counts, agg.leaf_counts)
    assert np.array_equal(one.success_mix, agg.success_mix)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_worker_error_reaches_the_caller(monkeypatch, jobs):
    # an error in any worker leaves through simulate_run, and no worker
    # thread outlives the run
    monkeypatch.setattr(sim, "BATCH_SIZE", 64)
    profiles = [LinkBlerProfile(0.2, 0.3, 0.1)] * 2
    trials = 64 * 6  # six batches
    expected = simulate_run(profiles, trials, seed=6)
    calls = 0
    tally = sim._tally

    def failing(*args):
        nonlocal calls
        calls += 1  # under the tally lock
        if calls == 3:
            raise RuntimeError("third tally")
        return tally(*args)

    monkeypatch.setattr(sim, "_tally", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="third tally"):
        simulate_run(profiles, trials, seed=6, jobs=jobs)
    assert threading.active_count() == threads
    agg = simulate_run(profiles, trials, seed=6, jobs=jobs)
    assert np.array_equal(agg.leaf_counts, expected.leaf_counts)
    assert np.array_equal(agg.success_mix, expected.success_mix)


def test_estimate_repeatable_bit_exact():
    profile = LinkBlerProfile(0.05, 0.15, 0.02)
    a, b = (
        simulate_run([profile], 10**5, 2024).outage()
        for _ in range(2)
    )
    assert a == b


def test_shared_vs_independent_alignment_preserves_outage():
    # alignment sharing shifts only the latency distribution: it is no
    # input to the run, only to the latency estimate
    profile = LinkBlerProfile(0.1, 0.1, 0.0)
    agg = simulate_run([profile] * 2, 10**5, seed=8)
    # the earliest of independent alignments is never later than a shared one
    for q in (0.1, 0.5, 0.9, 0.99, 0.9999, 1.0):
        lat_shared = latency_quantile(agg.success_mix, DEFAULT, q, shared_frame_alignment=True)
        lat_indep = latency_quantile(agg.success_mix, DEFAULT, q, shared_frame_alignment=False)
        assert lat_indep <= lat_shared
