"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failing criterion shows up as a failed test instead).
Monte Carlo criteria use fixed seeds and 99.99% binomial intervals, so
the whole suite is deterministic.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from urllc_mc.cli import main
from urllc_mc.fbl import FblContext, channel_use, db_to_linear, q_func, q_inv
from urllc_mc.outage import (
    ChaseModel,
    LinkBlerProfile,
    mc_outage,
    sc_outage,
    success_mix,
)
from urllc_mc.solver import usage_sc
from urllc_mc.sim import (
    Numerology,
    _latency_tail,
    latency_budget_check,
    simulate_run,
    ttis_to_ms,
)
from urllc_mc.solver import BlerPolicy, PolicyKind, solve_bler

ZERO = ChaseModel.ZERO
EQUAL = BlerPolicy(PolicyKind.EQUAL)
CTX_10DB = FblContext(256, db_to_linear(10.0))

Z_9999 = 3.8906  # two-sided 99.99% normal quantile


def _report(number: int, text: str) -> None:
    print(f"CRITERION {number:2d} PASS — {text}")


def _within_binomial_ci(count: int, n: int, p: float) -> bool:
    sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / n)
    return abs(count / n - p) <= Z_9999 * sigma + 1e-12


def test_criterion_1_table_sc_row():
    t0 = time.perf_counter()
    res = solve_bler(1, 1e-5, EQUAL, ZERO)
    r = channel_use(CTX_10DB, res.p_d)
    usage = usage_sc(r, (1.0 - res.p_m) * (1.0 - res.p_d))
    elapsed = time.perf_counter() - t0
    assert res.p_d * 100 == pytest.approx(0.1826, abs=0.002)
    assert r == pytest.approx(85.14, abs=0.05)
    assert usage == pytest.approx(85.44, abs=0.10)
    assert elapsed < 1.0
    _report(1, f"SC row: p_d={res.p_d:.4%}, R={r:.2f}, usage={usage:.2f} "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_table_mc_row():
    t0 = time.perf_counter()
    res = solve_bler(2, 1e-5, EQUAL, ZERO)
    r = channel_use(CTX_10DB, res.p_d)
    usage = 2 * usage_sc(r, (1.0 - res.p_m) * (1.0 - res.p_d))
    elapsed = time.perf_counter() - t0
    assert res.p_d * 100 == pytest.approx(3.28, abs=0.02)
    assert r == pytest.approx(80.88, abs=0.05)
    # the expected-usage formula gives 172.20; the quoted 166.12 is a
    # known, recorded discrepancy and not a target here
    assert usage == pytest.approx(172.20, abs=0.10)
    assert elapsed < 1.0
    _report(2, f"MC row: p_d={res.p_d:.3%}, R={r:.2f}, usage={usage:.2f} "
               f"(quoted 166.12 flagged as discrepancy)")


def test_criterion_3_symmetric_closed_form():
    rng = np.random.default_rng(303)
    for p in rng.uniform(0.0, 1.0, 100):
        p = float(p)
        got = sc_outage(LinkBlerProfile(p, p, 0.0)).p_out
        assert got == pytest.approx(3 * p**2 - 2 * p**3, abs=1e-14)
    p = 0.1826 / 100
    value = sc_outage(LinkBlerProfile(p, p, 0.0)).p_out
    assert value == pytest.approx(1.00e-5, rel=0.01)
    _report(3, f"3p^2-2p^3 closed form holds; outage({p:.4%})={value:.3e}")


def test_criterion_4_mc_product_law():
    rng = np.random.default_rng(404)
    for _ in range(25):
        p = float(rng.uniform(1e-3, 0.4))
        profile = LinkBlerProfile(p, p, 0.0)
        single = sc_outage(profile).p_out
        for k in range(1, 5):
            assert mc_outage([profile] * k) == pytest.approx(single**k, rel=1e-13)
    p = 0.0328
    duo = mc_outage([LinkBlerProfile(p, p, 0.0)] * 2)
    assert duo == pytest.approx(1.0e-5, rel=0.02)
    _report(4, f"product law to 1e-13 for k=1..4; outage^2({p:.2%})={duo:.3e}")


def test_criterion_5_normalized_usage_points():
    profile = LinkBlerProfile(0.01, 0.1, 0.0)
    sc = usage_sc(1, sc_outage(profile).p_succ_first)
    mc = usage_sc(2, sc_outage(profile).p_succ_first)
    assert sc == pytest.approx(1.109, abs=0.001)
    assert mc == pytest.approx(2.218, abs=0.002)
    _report(5, f"normalized usage at 1%/10% BLERs: SC={sc:.3f}, MC={mc:.3f}")


def test_criterion_6_resource_savings_band():
    t0 = time.perf_counter()
    savings = {}
    for sinr_db in (0.0, 10.0):
        ctx = FblContext(256, db_to_linear(sinr_db))
        res_sc = solve_bler(1, 1e-5, EQUAL, ZERO)
        res_mc = solve_bler(2, 1e-5, EQUAL, ZERO)
        u_sc = usage_sc(
            channel_use(ctx, res_sc.p_d), (1 - res_sc.p_m) * (1 - res_sc.p_d)
        )
        u_mc = 2 * usage_sc(
            channel_use(ctx, res_mc.p_d), (1 - res_mc.p_m) * (1 - res_mc.p_d)
        )
        savings[sinr_db] = 1.0 - u_sc / u_mc
        assert 0.46 <= savings[sinr_db] <= 0.52
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"SC savings: {savings[0.0]:.1%} @ 0 dB, {savings[10.0]:.1%} @ 10 dB")


def test_criterion_7_finite_blocklength_roundtrips():
    rng = np.random.default_rng(707)
    worst_eq9 = 0.0
    for _ in range(10_000):
        payload = int(rng.integers(8, 4097))
        gamma = float(10.0 ** rng.uniform(-1, 3))
        p = float(10.0 ** rng.uniform(-9, math.log10(0.49)))
        ctx = FblContext(payload, gamma)
        r = channel_use(ctx, p)
        rebuilt = r * ctx.capacity - q_inv(p) * math.sqrt(r * ctx.dispersion)
        worst_eq9 = max(worst_eq9, abs(rebuilt - payload) / payload)
    assert worst_eq9 <= 1e-9
    worst_q = 0.0
    for p in 10.0 ** rng.uniform(-12, math.log10(1 - 1e-12), 10_000):
        p = float(p)
        worst_q = max(worst_q, abs(q_func(q_inv(p)) - p) / p)
    assert worst_q <= 1e-12
    _report(7, f"worst reconstruction {worst_eq9:.2e} (<=1e-9), "
               f"worst Q roundtrip {worst_q:.2e} (<=1e-12)")


def test_criterion_8_monte_carlo_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    n = 10**6
    checks = 0
    for _ in range(20):
        p_m, p_d, p_c_raw = rng.uniform(5e-3, 0.3, 3)
        profile = LinkBlerProfile(float(p_m), float(p_d), min(float(p_c_raw), float(p_d)))
        bd = sc_outage(profile)

        agg = simulate_run([profile], n, seed=int(rng.integers(1 << 30)))
        assert _within_binomial_ci(n - agg.n_success, n, bd.p_out)
        leaf_probs = (
            bd.p_succ_first, bd.p_succ_timeout_retx, bd.p_succ_nack_retx, bd.p_out
        )
        for count, prob in zip(agg.leaf_counts[0], leaf_probs):
            assert _within_binomial_ci(int(count), n, prob)
        # mean usage in transmission multiples: 1 + Bernoulli(1 - p_succ_first)
        q = 1.0 - bd.p_succ_first
        mean_hat = agg.mean_usage()[0]
        assert abs(mean_hat - (1.0 + q)) <= Z_9999 * math.sqrt(q * (1 - q) / n)

        agg_mc = simulate_run([profile] * 2, n, seed=int(rng.integers(1 << 30)))
        # k of the two links retransmit: the exact mix's reversed row sums
        counts = [sum(r) for r in reversed(agg_mc.success_mix)]
        dist = [sum(r) for r in reversed(success_mix([profile] * 2))]
        for k, weight in enumerate(dist):
            assert _within_binomial_ci(counts[k], n, weight)
        checks += 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, f"{checks} interval checks over 20 profiles x 2 runs x 1e6 trials "
               f"({elapsed:.1f} s)")


def test_criterion_9_latency_budget_and_bands():
    numerology = Numerology(scs_khz=30.0, symbols_per_tti=4)
    assert ttis_to_ms(numerology, 1.0) == pytest.approx(1.0 / 7.0, rel=1e-15)
    worst, fits = latency_budget_check(numerology, 1.0)
    assert worst == 1.0  # exactly one millisecond
    assert fits
    profile = LinkBlerProfile(0.3, 0.3, 0.0)
    agg = simulate_run([profile], 200_000, seed=909)
    mix, successes = agg.success_mix, agg.n_success

    def tail(x):  # success mass later than x TTIs
        return _latency_tail(mix, numerology, x, True)

    retx_band = tail(3.0)
    assert tail(2.0) == successes
    assert tail(6.0) == retx_band  # no mass between the bands
    assert tail(7.0) == 0.0
    assert 0.0 < retx_band < successes  # mass in both bands
    _report(9, "worst case exactly 1.000 ms; latency CDF mass confined to "
               "[2,3] U [6,7] TTIs")


def test_criterion_10_simulation_determinism(tmp_path, capsys):
    doc = {
        "scheme": "MC", "m_nodes": 2, "sinr_db": 10, "target_outage": 1e-5,
        "p_d": 0.05, "trials": 50_000, "seed": 321,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(path), "--format", "csv"]
    outputs = []
    for extra in ([], [], ["--jobs", "4"]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "simulate CSV byte-identical across runs and 1 vs 4 threads")
