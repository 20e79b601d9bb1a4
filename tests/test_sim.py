"""Tests for the Monte Carlo HARQ simulator.

The closed forms from the outage and resource models act as the oracle:
empirical frequencies must land inside wide (99.99%) binomial intervals
around them. Seeds are fixed, so these tests are deterministic.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from urllc_mc import sim
from urllc_mc.errors import DomainError, ValidationError
from urllc_mc.fbl import FblContext, db_to_linear
from urllc_mc.outage import ChaseModel, LinkBlerProfile, sc_outage, success_mix
from urllc_mc.resources import usage_sc
from urllc_mc.sim import (
    MAX_JOBS,
    Numerology,
    _run_batch,
    _threshold,
    _thresholds,
    latency_budget_check,
    latency_cdf,
    latency_quantile,
    simulate_run,
    tti_duration_ms,
)
from urllc_mc.solver import BlerPolicy, PolicyKind, link_profiles

Z_9999 = 3.8906  # two-sided 99.99% normal quantile

DEFAULT = Numerology()


def _within_ci(count: int, n: int, p: float) -> bool:
    sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return abs(count / n - p) <= Z_9999 * sigma + 1e-12


# ---------------------------------------------------------------------------
# numerology and timing


def test_tti_duration_reference_values():
    assert tti_duration_ms(Numerology(scs_khz=30, symbols_per_tti=4)) == pytest.approx(
        1.0 / 7.0, rel=1e-15
    )
    assert tti_duration_ms(Numerology(scs_khz=30, symbols_per_tti=14)) == 0.5
    assert tti_duration_ms(Numerology(scs_khz=30, symbols_per_tti=2)) == pytest.approx(
        1.0 / 14.0, rel=1e-15
    )


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
     {"t_tx_ttis": 1e308, "t_up_ttis": 1e308}],
    ids=["ms-tiny-scs", "ms-subnormal-scs", "ms-huge-rtt", "ttis"],
)
def test_numerology_rejects_an_overflowing_worst_case(overrides):
    # every field is finite, but the worst-case latency is not, in ms or in TTIs
    with pytest.raises(ValidationError, match="numerology: the worst-case latency must be finite"):
        Numerology(**overrides)


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
    assert tti_duration_ms(seven_sym) == 0.25
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
    agg = simulate_run([LinkBlerProfile(0, 0, 0, 0, 0)], 20, seed=0)
    assert agg.n_success == 20
    assert agg.leaf_counts[0].tolist() == [20, 0, 0, 0]  # no retransmission
    assert agg.mean_usage() == (1.0, 0.0)  # one transmission each
    # t_fa in [0,1) + tx + up
    mix = agg.success_mix
    assert latency_cdf(mix, DEFAULT, 2.0) == 0.0 and latency_cdf(mix, DEFAULT, 3.0) == 1.0


def test_sc_trial_forced_timeout_path():
    agg = simulate_run([LinkBlerProfile(1, 0, 0, 0, 0)], 20, seed=1)
    assert agg.n_success == 20
    assert agg.leaf_counts[0].tolist() == [0, 20, 0, 0]
    assert agg.mean_usage() == (2.0, 0.0)
    # t_fa + rtt 4 + tx + up
    mix = agg.success_mix
    assert latency_cdf(mix, DEFAULT, 6.0) == 0.0 and latency_cdf(mix, DEFAULT, 7.0) == 1.0


def test_sc_trial_forced_nack_path():
    # data always fails, combining saves
    agg = simulate_run([LinkBlerProfile(0, 1, 0, 0, 0)], 20, seed=2)
    assert agg.n_success == 20
    assert agg.leaf_counts[0].tolist() == [0, 0, 20, 0]
    assert agg.mean_usage() == (2.0, 0.0)
    mix = agg.success_mix
    assert latency_cdf(mix, DEFAULT, 6.0) == 0.0 and latency_cdf(mix, DEFAULT, 7.0) == 1.0


def test_sc_trial_certain_outage():
    agg = simulate_run([LinkBlerProfile(1, 1, 1, 1, 1)], 20, seed=3)
    assert agg.n_success == 0
    assert agg.leaf_counts[0].tolist() == [0, 0, 0, 20]
    assert agg.mean_usage() == (2.0, 0.0)
    assert math.isnan(latency_quantile(agg.success_mix, DEFAULT, 0.99))
    exact = success_mix([LinkBlerProfile(1, 1, 1, 1, 1)] * 2)  # and the exact mix
    assert exact[0, 0] == 1.0
    assert math.isnan(latency_cdf(exact, DEFAULT, 3.0))
    assert math.isnan(latency_quantile(exact, DEFAULT, 0.99))


def test_mc_trial_perfect_links():
    agg = simulate_run([LinkBlerProfile(0, 0, 0, 0, 0)] * 2, 20, seed=4)
    assert agg.n_success == 20 and agg.success_mix[2, 0] == 20
    assert agg.mean_usage() == (2.0, 0.0)


def test_mc_trial_takes_first_received_copy():
    # one link always succeeds first-try, one always needs the retx
    fast = LinkBlerProfile(0, 0, 0, 0, 0)
    slow = LinkBlerProfile(1, 0, 0, 0, 0)
    agg = simulate_run([fast, slow], 20, seed=5)
    assert agg.n_success == 20 and agg.success_mix[1, 1] == 20
    assert latency_cdf(agg.success_mix, DEFAULT, 3.0) == 1.0  # the fast copy always wins
    assert agg.mean_usage() == (3.0, 0.0)  # 1 + 2 each, no cross-link cancel


def test_mc_trial_rejects_empty():
    with pytest.raises(DomainError):
        simulate_run([], 10, seed=0)


def test_trial_with_unreachable_nack_branch_is_fine():
    # p_d1 = 0 with p_c = 0: the NACK branch never fires, nothing to define
    agg = simulate_run([LinkBlerProfile(0.0, 0.0, 0.1, 0.5, 0.0)], 20, seed=0)
    assert agg.n_success == 20
    # p_c > 0 with p_d1 = 0 cannot even be built as a profile
    with pytest.raises(DomainError):
        LinkBlerProfile(0.1, 0.0, 0.1, 0.5, 0.1)


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
        t_meta, t_fail, t_timeout, t_nack = _thresholds(LinkBlerProfile(p_m, p_d, p_m, p_d, 0.0))
        assert t_timeout == t_fail and t_nack == t_meta  # p_c = 0: combining always decodes
        p_m, p_d = Fraction(p_m), Fraction(p_d)
        bands = (t_meta, t_fail - t_meta, 2**32 - t_fail)
        targets = (p_m, (1 - p_m) * p_d, (1 - p_m) * (1 - p_d))
        for width, target in zip(bands, targets):
            assert abs(Fraction(width, 2**32) - target) < Fraction(1, 2**32)


# ---------------------------------------------------------------------------
# aggregates against the closed forms


def test_sc_outage_and_leaf_frequencies_match_closed_form():
    profile = LinkBlerProfile(0.0328, 0.0328, 0.0328, 0.0328, 0.0)
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
    profile = LinkBlerProfile(0.02, 0.2, 0.02, 0.2, 0.08)
    n = 10**6
    agg = simulate_run([profile], n, seed=77)
    bd = sc_outage(profile)
    assert _within_ci(n - agg.n_success, n, bd.p_out)
    assert _within_ci(int(agg.leaf_counts[0][2]), n, bd.p_succ_nack_retx)


def test_mc_outage_matches_product_of_closed_forms():
    profile = LinkBlerProfile(0.0328, 0.0328, 0.0328, 0.0328, 0.0)
    n = 10**7
    agg = simulate_run([profile] * 2, n, seed=2002)
    p_out = sc_outage(profile).p_out ** 2
    assert _within_ci(n - agg.n_success, n, p_out)


def test_mean_usage_matches_expected_usage():
    profile = LinkBlerProfile(0.01, 0.1, 0.01, 0.1, 0.0)
    n = 10**6
    for m, seed in ((1, 31), (2, 32)):
        agg = simulate_run([profile] * m, n, seed=seed)
        mean, _ = agg.mean_usage()
        expected = m * usage_sc(1.0, sc_outage(profile).p_succ_first)
        # 4 sigma of the per-trial multiples spread
        sigma = math.sqrt(m * 0.891 * (1 - 0.891) / n)
        assert abs(mean - expected) <= 4 * sigma


def test_usage_histogram_matches_binomial_distribution():
    profile = LinkBlerProfile(0.05, 0.1, 0.05, 0.1, 0.0)
    m, n = 3, 10**6
    agg = simulate_run([profile] * m, n, seed=404)
    # [k]: k links retransmit, counted and exact
    counts = agg.success_mix.sum(axis=1)[::-1]
    dist = success_mix([profile] * m).sum(axis=1)[::-1]
    for k, weight in enumerate(dist):
        assert _within_ci(int(counts[k]), n, float(weight))


def test_latency_bands_default_numerology():
    profile = LinkBlerProfile(0.3, 0.3, 0.3, 0.3, 0.0)
    agg = simulate_run([profile], 10**5, seed=55)
    first_band = latency_cdf(agg.success_mix, DEFAULT, 3.0)
    assert latency_cdf(agg.success_mix, DEFAULT, 2.0) == 0.0
    assert latency_cdf(agg.success_mix, DEFAULT, 6.0) == first_band  # nothing between the bands
    assert latency_cdf(agg.success_mix, DEFAULT, 7.0) == 1.0
    assert 0.0 < first_band < 1.0


def test_latency_quantile_forced_retransmission():
    profile = LinkBlerProfile(0, 1, 0, 0, 0)  # every trial retransmits
    agg = simulate_run([profile], 10**5, seed=7)
    assert latency_quantile(agg.success_mix, DEFAULT, 1.0) == 7.0  # the supremum, 7 TTIs = 1 ms


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("t_bp", [0, 1, 5])
def test_latency_support_ends_at_the_budget_worst_case(t_bp, shared, m):
    # the initial buffering delay precedes the first transmission, so it
    # delays the retransmission as well
    numerology = Numerology(t_bp_initial_ttis=t_bp)
    agg = simulate_run([LinkBlerProfile(0.3, 0.3, 0.3, 0.3, 0.0)] * m, 10**4, seed=58)
    first = t_bp + numerology.t_tx_ttis + numerology.t_up_ttis
    retx = numerology.harq_rtt_ttis + first
    assert latency_quantile(agg.success_mix, numerology, 1.0, shared) == retx + 1.0
    worst_ms, _ = latency_budget_check(numerology, 1.0)
    assert (retx + 1.0) * tti_duration_ms(numerology) == pytest.approx(worst_ms, rel=1e-12)
    assert latency_cdf(agg.success_mix, numerology, first, shared) == 0.0
    band_end = latency_cdf(agg.success_mix, numerology, first + 1.0, shared)
    assert 0.0 < band_end < 1.0
    for x in np.linspace(first + 1.0, retx, 7):
        assert latency_cdf(agg.success_mix, numerology, float(x), shared) == band_end


def test_latency_quantile_matches_analytic_mixture():
    # shared alignment, one link: a mixture of U[2, 3) and U[6, 7)
    profile = LinkBlerProfile(0.3, 0.3, 0.3, 0.3, 0.0)
    agg = simulate_run([profile], 10**5, seed=56)
    w_first = agg.success_mix[1, 0] / agg.n_success
    # independent alignment, two links that both succeed first-try (or
    # both on the retransmission): offset + min(U1, U2)
    pairs = [
        (offset, simulate_run([LinkBlerProfile(p_m1, 0, 0, 0, 0)] * 2, 100, seed=57))
        for offset, p_m1 in ((2.0, 0), (6.0, 1))
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
    return link_profiles(0.1, BlerPolicy(PolicyKind.HALF), chase, contexts)


def _half_width(p, n):  # binomial 95% normal-approximation half-width
    return 1.96 * np.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("chase", list(ChaseModel))
def test_exact_mix_matches_simulated_mix(chase):
    n = 10**6
    for m in range(1, 5):
        profiles = _per_node_profiles(m, chase)
        counted = simulate_run(profiles, n, seed=600 + m).success_mix
        exact = success_mix(profiles)
        assert (np.abs(counted / n - exact) <= 4 * _half_width(exact, n)).all()


@pytest.mark.parametrize("shared", [True, False])
def test_latency_cdf_of_exact_mix_matches_simulated(shared):
    n = 10**6
    profiles = _per_node_profiles(2, ChaseModel.FINITE_BLOCKLENGTH)
    counted = simulate_run(profiles, n, seed=611).success_mix
    exact = success_mix(profiles)
    successes = n - int(counted[0, 0])
    # inside the first-try band [2, 3) and the retransmission band [6, 7)
    for x in (2.1, 2.5, 2.9, 6.1, 6.5, 6.9):
        cdf = latency_cdf(exact, DEFAULT, x, shared)
        assert 0.0 < cdf < 1.0
        got = latency_cdf(counted, DEFAULT, x, shared)
        assert abs(got - cdf) <= 4 * _half_width(cdf, successes)


def test_peak_memory_does_not_grow_with_trials(monkeypatch):
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
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
    # at jobs > 1 each worker sums its own share; no result waits per batch
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
    monkeypatch.setattr(sim, "BATCH_SIZE", 16)

    def peak(batches: int) -> int:
        tracemalloc.start()
        try:
            simulate_run([profile], batches * 16, seed=3, jobs=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4_000) <= 2 * peak(400)


# ---------------------------------------------------------------------------
# estimates and determinism


def test_estimate_outage_trivial():
    agg = simulate_run([LinkBlerProfile(0, 0, 0, 0, 0)], 1000, seed=5)
    assert agg.outage() == (0.0, 0.0)
    assert agg.trials == 1000 and agg.seed == 5


def test_estimate_ci_formula():
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    agg = simulate_run([profile], 10**5, 6)
    mean, ci = agg.outage()
    expected_ci = 1.96 * math.sqrt(mean * (1 - mean) / agg.trials)
    assert ci == pytest.approx(expected_ci, rel=1e-12)


def test_estimate_validations():
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    with pytest.raises(ValidationError):
        simulate_run([profile], 0, 5)
    with pytest.raises(ValidationError):
        simulate_run([profile], 10, -1)
    # the seed is the 128-bit Philox key
    with pytest.raises(ValidationError, match="seed"):
        simulate_run([profile], 10, 2**128)
    assert simulate_run([profile], 10, 2**128 - 1).seed == 2**128 - 1
    # every batch is submitted at once, so the thread count is bounded
    # before any pool exists
    with pytest.raises(ValidationError, match=f"jobs must be at most {MAX_JOBS}"):
        simulate_run([profile], 10, 5, jobs=MAX_JOBS + 1)
    for jobs in (0, 1.5):
        with pytest.raises(ValidationError, match="jobs must be a positive integer"):
            simulate_run([profile], 10**5, 5, jobs=jobs)
    agg = simulate_run([profile], 10, 5)
    with pytest.raises(ValidationError):
        latency_quantile(agg.success_mix, DEFAULT, 0.0)


def test_trials_bounded_by_the_int64_tallies():
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    # rejected by name before any batch range is built
    for trials in (10**30, sim.MAX_TRIALS + 1, 10**400):
        with pytest.raises(ValidationError, match="trials must be a positive integer at most"):
            simulate_run([profile], trials, 5)
    assert sim.MAX_TRIALS == np.iinfo(np.int64).max


_prob = st.floats(0.0, 1.0)


@st.composite
def _profile(draw) -> LinkBlerProfile:
    p_m1, p_d1, p_m2, p_d2 = (draw(_prob) for _ in range(4))
    # a fraction of min(p_d1, p_d2) never exceeds it, so the profile is valid
    return LinkBlerProfile(p_m1, p_d1, p_m2, p_d2, draw(_prob) * min(p_d1, p_d2))


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
    # same trials as one run
    profiles, trials, starts = data.draw(_partitioned_runs(m))
    thresholds = [_thresholds(p) for p in profiles]
    leaves = np.zeros((m, 4), dtype=np.int64)
    mix = np.zeros((m + 1, m + 1), dtype=np.int64)
    for start, stop in zip(starts, [*starts[1:], trials]):
        batch_leaves, batch_mix = _run_batch(thresholds, seed, start, stop - start)
        leaves += batch_leaves
        mix += batch_mix
    agg = simulate_run(profiles, trials, seed)
    assert np.array_equal(agg.leaf_counts, leaves)
    assert np.array_equal(agg.success_mix, mix)
    assert agg.trials == trials and agg.m_nodes == m
    for n in range(m):
        assert agg.trials == agg.leaf_counts[n].sum()


def test_batch_size_invariance(monkeypatch):
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
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
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
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
    words 2n and 2n + 1 with its attempts' band thresholds."""
    m = len(profiles)
    words = Philox(key=seed).random_raw(m * trials).view(np.uint32).tolist()

    def fails_below(p_meta, p_data):  # floor((p_m + (1 - p_m) * p_d) * 2**32), exactly
        p_meta = Fraction(p_meta)
        return math.floor((p_meta + (1 - p_meta) * Fraction(p_data)) * 2**32)

    bands = [
        (
            math.floor(p.p_m1 * 2**32),  # the first metadata decode fails below
            fails_below(p.p_m1, p.p_d1),  # the first attempt fails below
            fails_below(p.p_m2, p.p_d2),  # the timeout retransmission fails below
            fails_below(p.p_m2, Fraction(p.p_c) / Fraction(p.p_d1)),  # the NACK one
        )
        for p in profiles
    ]
    leaves = np.zeros((m, 4), dtype=np.int64)
    mix = np.zeros((m + 1, m + 1), dtype=np.int64)
    for i in range(trials):
        first = retx = 0
        for n, (meta1, attempt1, timeout, nack) in enumerate(bands):
            word1, word2 = words[2 * m * i + 2 * n], words[2 * m * i + 2 * n + 1]
            if word1 >= attempt1:
                leaf = 0
            elif word1 < meta1:
                leaf = 1 if word2 >= timeout else 3
            else:
                leaf = 2 if word2 >= nack else 3
            leaves[n, leaf] += 1
            first += leaf == 0
            retx += leaf in (1, 2)
        mix[first, retx] += 1
    return leaves, mix


def test_stream_layout_is_pinned(monkeypatch):
    profiles = [
        LinkBlerProfile(0.2, 0.3, 0.25, 0.4, 0.1),
        LinkBlerProfile(0.05, 0.5, 0.1, 0.2, 0.2),
        LinkBlerProfile(0.3, 0.1, 0.0, 0.6, 0.05),
    ]
    trials = 2_000
    batch_sizes = (1, 3, 257, sim.BATCH_SIZE)
    for m in (1, 2, 3):
        leaves, mix = _stream_tallies(profiles[:m], trials, seed=2019 + m)
        assert (leaves > 0).all()  # every leaf of every link is reached
        for bs in batch_sizes:
            monkeypatch.setattr(sim, "BATCH_SIZE", bs)
            agg = simulate_run(profiles[:m], trials, seed=2019 + m)
            assert np.array_equal(agg.leaf_counts, leaves)
            assert np.array_equal(agg.success_mix, mix)


def test_estimate_repeatable_bit_exact():
    profile = LinkBlerProfile(0.05, 0.15, 0.05, 0.15, 0.02)
    a, b = (
        simulate_run([profile], 10**5, 2024).outage()
        for _ in range(2)
    )
    assert a == b


def test_shared_vs_independent_alignment_preserves_outage():
    # alignment sharing shifts only the latency distribution: it is no
    # input to the run, only to the latency estimate
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    agg = simulate_run([profile] * 2, 10**5, seed=8)
    # the earliest of independent alignments is never later than a shared one
    for q in (0.1, 0.5, 0.9, 0.99, 0.9999, 1.0):
        lat_shared = latency_quantile(agg.success_mix, DEFAULT, q, shared_frame_alignment=True)
        lat_indep = latency_quantile(agg.success_mix, DEFAULT, q, shared_frame_alignment=False)
        assert lat_indep <= lat_shared
