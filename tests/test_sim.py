"""Tests for the Monte Carlo HARQ simulator.

The closed forms from the outage and resource models act as the oracle:
empirical frequencies must land inside wide (99.99%) binomial intervals
around them. Seeds are fixed, so these tests are deterministic.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from urllc_mc.errors import DomainError, ValidationError
from urllc_mc.outage import LinkBlerProfile, sc_outage
from urllc_mc.resources import usage_distribution_mc, usage_mc
from urllc_mc.sim import (
    Metric,
    Numerology,
    estimate_from_aggregate,
    _threshold,
    latency_budget_check,
    latency_cdf,
    simulate_run,
    tti_duration_ms,
)

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


# ---------------------------------------------------------------------------
# single rounds, forced down one path with probabilities 0 and 1


def test_sc_trial_perfect_link():
    agg = simulate_run([LinkBlerProfile(0, 0, 0, 0, 0)], DEFAULT, 20, seed=0)
    assert agg.n_success == 20
    assert agg.leaf_counts[0].tolist() == [20, 0, 0, 0]  # no retransmission
    assert agg.usage_multiples_sum() == 20  # one transmission each
    # t_fa in [0,1) + tx + up
    assert latency_cdf(agg, 2.0) == 0.0 and latency_cdf(agg, 3.0) == 1.0


def test_sc_trial_forced_timeout_path():
    agg = simulate_run([LinkBlerProfile(1, 0, 0, 0, 0)], DEFAULT, 20, seed=1)
    assert agg.n_success == 20
    assert agg.leaf_counts[0].tolist() == [0, 20, 0, 0]
    assert agg.usage_multiples_sum() == 40
    # t_fa + rtt 4 + tx + up
    assert latency_cdf(agg, 6.0) == 0.0 and latency_cdf(agg, 7.0) == 1.0


def test_sc_trial_forced_nack_path():
    # data always fails, combining saves
    agg = simulate_run([LinkBlerProfile(0, 1, 0, 0, 0)], DEFAULT, 20, seed=2)
    assert agg.n_success == 20
    assert agg.leaf_counts[0].tolist() == [0, 0, 20, 0]
    assert agg.usage_multiples_sum() == 40
    assert latency_cdf(agg, 6.0) == 0.0 and latency_cdf(agg, 7.0) == 1.0


def test_sc_trial_certain_outage():
    agg = simulate_run([LinkBlerProfile(1, 1, 1, 1, 1)], DEFAULT, 20, seed=3)
    assert agg.n_success == 0
    assert agg.leaf_counts[0].tolist() == [0, 0, 0, 20]
    assert agg.usage_multiples_sum() == 40
    assert math.isnan(estimate_from_aggregate(Metric.LATENCY_QUANTILE, agg).mean)


def test_mc_trial_perfect_links():
    agg = simulate_run([LinkBlerProfile(0, 0, 0, 0, 0)] * 2, DEFAULT, 20, seed=4)
    assert agg.n_success == 20 and agg.success_mix[2, 0] == 20
    assert agg.usage_multiples_sum() == 40


def test_mc_trial_takes_first_received_copy():
    # one link always succeeds first-try, one always needs the retx
    fast = LinkBlerProfile(0, 0, 0, 0, 0)
    slow = LinkBlerProfile(1, 0, 0, 0, 0)
    agg = simulate_run([fast, slow], DEFAULT, 20, seed=5)
    assert agg.n_success == 20 and agg.success_mix[1, 1] == 20
    assert latency_cdf(agg, 3.0) == 1.0  # the fast copy always wins
    assert agg.usage_multiples_sum() == 60  # 1 + 2 each, no cross-link cancel


def test_mc_trial_rejects_empty():
    with pytest.raises(DomainError):
        simulate_run([], DEFAULT, 10, seed=0)


def test_trial_with_unreachable_nack_branch_is_fine():
    # p_d1 = 0 with p_c = 0: the NACK branch never fires, nothing to define
    agg = simulate_run([LinkBlerProfile(0.0, 0.0, 0.1, 0.5, 0.0)], DEFAULT, 20, seed=0)
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


# ---------------------------------------------------------------------------
# aggregates against the closed forms


def test_sc_outage_and_leaf_frequencies_match_closed_form():
    profile = LinkBlerProfile(0.0328, 0.0328, 0.0328, 0.0328, 0.0)
    n = 10**7
    agg = simulate_run([profile], DEFAULT, n, seed=1001)
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
    agg = simulate_run([profile], DEFAULT, n, seed=77)
    bd = sc_outage(profile)
    assert _within_ci(n - agg.n_success, n, bd.p_out)
    assert _within_ci(int(agg.leaf_counts[0][2]), n, bd.p_succ_nack_retx)


def test_mc_outage_matches_product_of_closed_forms():
    profile = LinkBlerProfile(0.0328, 0.0328, 0.0328, 0.0328, 0.0)
    n = 10**7
    agg = simulate_run([profile] * 2, DEFAULT, n, seed=2002)
    p_out = sc_outage(profile).p_out ** 2
    assert _within_ci(n - agg.n_success, n, p_out)


def test_mean_usage_matches_expected_usage():
    profile = LinkBlerProfile(0.01, 0.1, 0.01, 0.1, 0.0)
    n = 10**6
    for m, seed in ((1, 31), (2, 32)):
        agg = simulate_run([profile] * m, DEFAULT, n, seed=seed)
        est = estimate_from_aggregate(Metric.MEAN_USAGE, agg)
        expected = usage_mc(m, 1.0, sc_outage(profile).p_succ_first)
        # 4 sigma of the per-trial multiples spread
        sigma = math.sqrt(m * 0.891 * (1 - 0.891) / n)
        assert abs(est.mean - expected) <= 4 * sigma


def test_usage_histogram_matches_binomial_distribution():
    profile = LinkBlerProfile(0.05, 0.1, 0.05, 0.1, 0.0)
    m, n = 3, 10**6
    agg = simulate_run([profile] * m, DEFAULT, n, seed=404)
    dist = usage_distribution_mc(m, 1.0, sc_outage(profile).p_succ_first)
    for k, (_, weight) in enumerate(dist.support):
        assert _within_ci(int(agg.usage_extra_counts[k]), n, weight)


def test_latency_bands_default_numerology():
    profile = LinkBlerProfile(0.3, 0.3, 0.3, 0.3, 0.0)
    agg = simulate_run([profile], DEFAULT, 10**5, seed=55)
    first_band = latency_cdf(agg, 3.0)
    assert latency_cdf(agg, 2.0) == 0.0
    assert latency_cdf(agg, 6.0) == first_band  # nothing between the bands
    assert latency_cdf(agg, 7.0) == 1.0
    assert 0.0 < first_band < 1.0


def test_latency_quantile_forced_retransmission():
    profile = LinkBlerProfile(0, 1, 0, 0, 0)  # every trial retransmits
    agg = simulate_run([profile], DEFAULT, 10**5, seed=7)
    est = estimate_from_aggregate(Metric.LATENCY_QUANTILE, agg, quantile=1.0)
    assert est.mean == 7.0  # the supremum, 7 TTIs = 1 ms


def test_latency_quantile_matches_analytic_mixture():
    # shared alignment, one link: a mixture of U[2, 3) and U[6, 7)
    profile = LinkBlerProfile(0.3, 0.3, 0.3, 0.3, 0.0)
    agg = simulate_run([profile], DEFAULT, 10**5, seed=56)
    w_first = agg.success_mix[1, 0] / agg.n_success
    # independent alignment, two links that both succeed first-try (or
    # both on the retransmission): offset + min(U1, U2)
    pairs = [
        (offset, simulate_run([LinkBlerProfile(p_m1, 0, 0, 0, 0)] * 2, DEFAULT, 100,
                              seed=57, shared_frame_alignment=False))
        for offset, p_m1 in ((2.0, 0), (6.0, 1))
    ]
    for q in (1e-6, 0.01, 0.25, 0.5, 0.7, 0.9, 0.99, 0.999999):
        mixture = 2.0 + q / w_first if q <= w_first else 6.0 + (q - w_first) / (1.0 - w_first)
        got = estimate_from_aggregate(Metric.LATENCY_QUANTILE, agg, quantile=q).mean
        assert got == pytest.approx(mixture, abs=1e-9)
        for offset, pair in pairs:
            got = estimate_from_aggregate(Metric.LATENCY_QUANTILE, pair, quantile=q).mean
            assert got == pytest.approx(offset + 1.0 - math.sqrt(1.0 - q), abs=1e-9)


def test_peak_memory_does_not_grow_with_trials():
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
    batch = 4096
    draw_bytes = batch * 8 * 4  # one Philox block of eight uint32 words per trial

    def peak(batches: int) -> int:
        tracemalloc.start()
        try:
            simulate_run([profile] * 2, DEFAULT, batches * batch, seed=3, batch_size=batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm up
    assert abs(peak(32) - peak(4)) < draw_bytes


# ---------------------------------------------------------------------------
# estimates and determinism


def test_estimate_outage_trivial():
    agg = simulate_run([LinkBlerProfile(0, 0, 0, 0, 0)], DEFAULT, 1000, seed=5)
    est = estimate_from_aggregate(Metric.OUTAGE, agg)
    assert est.mean == 0.0 and est.ci_half_width_95 == 0.0
    assert est.trials == 1000 and est.seed == 5


def test_estimate_ci_formula():
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    est = estimate_from_aggregate(Metric.OUTAGE, simulate_run([profile], DEFAULT, 10**5, 6))
    expected_ci = 1.96 * math.sqrt(est.mean * (1 - est.mean) / est.trials)
    assert est.ci_half_width_95 == pytest.approx(expected_ci, rel=1e-12)


def test_estimate_validations():
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    with pytest.raises(ValidationError):
        simulate_run([profile], DEFAULT, 0, 5)
    with pytest.raises(ValidationError):
        simulate_run([profile], DEFAULT, 10, -1)
    agg = simulate_run([profile], DEFAULT, 10, 5)
    with pytest.raises(ValidationError):
        estimate_from_aggregate(Metric.LATENCY_QUANTILE, agg, quantile=0.0)


def test_batch_size_invariance():
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
    # m = 3 pads each trial to two Philox blocks
    for m in (2, 3):
        base = simulate_run([profile] * m, DEFAULT, 10_000, seed=99, batch_size=10_000)
        for bs in (1_000, 3_333, 257):
            agg = simulate_run([profile] * m, DEFAULT, 10_000, seed=99, batch_size=bs)
            assert agg.n_success == base.n_success
            assert np.array_equal(agg.leaf_counts, base.leaf_counts)
            assert np.array_equal(agg.usage_extra_counts, base.usage_extra_counts)
            assert np.array_equal(agg.success_mix, base.success_mix)


def test_thread_count_invariance():
    profile = LinkBlerProfile(0.2, 0.2, 0.2, 0.2, 0.1)
    one = simulate_run([profile], DEFAULT, 50_000, seed=123, batch_size=4_096, jobs=1)
    four = simulate_run([profile], DEFAULT, 50_000, seed=123, batch_size=4_096, jobs=4)
    assert one.n_success == four.n_success
    assert np.array_equal(one.leaf_counts, four.leaf_counts)
    assert np.array_equal(one.usage_extra_counts, four.usage_extra_counts)
    assert np.array_equal(one.success_mix, four.success_mix)
    est1 = estimate_from_aggregate(Metric.OUTAGE, one)
    est4 = estimate_from_aggregate(Metric.OUTAGE, four)
    assert est1 == est4


def test_estimate_repeatable_bit_exact():
    profile = LinkBlerProfile(0.05, 0.15, 0.05, 0.15, 0.02)
    a, b = (
        estimate_from_aggregate(Metric.OUTAGE, simulate_run([profile], DEFAULT, 10**5, 2024))
        for _ in range(2)
    )
    assert a == b


def test_shared_vs_independent_alignment_preserves_outage():
    # alignment sharing shifts only the latency distribution
    profile = LinkBlerProfile(0.1, 0.1, 0.1, 0.1, 0.0)
    shared = simulate_run(
        [profile] * 2, DEFAULT, 10**5, seed=8, shared_frame_alignment=True
    )
    indep = simulate_run(
        [profile] * 2, DEFAULT, 10**5, seed=8, shared_frame_alignment=False
    )
    assert np.array_equal(shared.leaf_counts, indep.leaf_counts)
    assert np.array_equal(shared.success_mix, indep.success_mix)
    assert shared.n_success == indep.n_success
    # the earliest of independent alignments is never later than a shared one
    for q in (0.1, 0.5, 0.9, 0.99, 0.9999, 1.0):
        lat_shared = estimate_from_aggregate(Metric.LATENCY_QUANTILE, shared, quantile=q)
        lat_indep = estimate_from_aggregate(Metric.LATENCY_QUANTILE, indep, quantile=q)
        assert lat_indep.mean <= lat_shared.mean
