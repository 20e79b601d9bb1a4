"""Tests for the finite-blocklength math.

DERIVED expected values were computed with the independent high-precision
oracle in ``_q_oracle``/``_q_inv_oracle`` (mpmath at 40 digits) and frozen
into the asserts; the oracle is kept here so the numbers can be re-derived.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from urllc_mc.errors import DomainError
from urllc_mc.fbl import (
    DISPERSION_LIMIT,
    FblContext,
    achieved_bler,
    channel_dispersion,
    channel_use,
    db_to_linear,
    linear_to_db,
    q_func,
    q_inv,
    shannon_capacity,
)


def _q_oracle(x, dps: int = 40):
    """High-precision Gaussian tail via mpmath erfc (independent route)."""
    with mp.workdps(dps):
        return mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2


def _q_inv_oracle(p, dps: int = 40):
    """Bisection on the high-precision oracle."""
    with mp.workdps(dps):
        target = mp.mpf(p)
        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(400):
            mid = (lo + hi) / 2
            if _q_oracle(mid, dps) > target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


# ---------------------------------------------------------------------------
# q_func / q_inv


def test_q_func_at_zero():
    assert q_func(0.0) == 0.5


def test_q_func_deep_tail():
    assert q_func(10.0) < 1e-23


def test_q_func_frozen_oracle_value():
    # _q_oracle(2.905) = 0.0018362655010915895238...
    assert q_func(2.905) == pytest.approx(0.0018362655010915895, rel=1e-12)


def test_q_func_symmetry():
    for x in (0.3, 1.7, 4.2):
        assert q_func(-x) == pytest.approx(1.0 - q_func(x), abs=1e-15)


def test_q_func_strictly_decreasing():
    xs = np.linspace(-8.0, 8.0, 200)
    vals = [q_func(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_q_func_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            q_func(bad)


def test_q_inv_median():
    assert q_inv(0.5) == 0.0


def test_q_inv_roundtrip_point():
    assert q_inv(q_func(1.7)) == pytest.approx(1.7, abs=1e-12)


def test_q_inv_frozen_oracle_value():
    # _q_inv_oracle(1.83e-3) = 2.9060696245938366446...
    assert q_inv(1.83e-3) == pytest.approx(2.9060696245938366, rel=1e-12)


def test_q_inv_sign_convention():
    assert q_inv(0.01) > 0.0
    assert q_inv(0.99) < 0.0


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            q_inv(bad)


def test_q_roundtrip_relative_error_grid():
    # mutual inverses to 1e-12 relative over [1e-12, 1 - 1e-12]
    ps = np.concatenate(
        [10.0 ** np.arange(-12, 0), 1.0 - 10.0 ** np.arange(-12, -1), [0.5]]
    )
    for p in ps:
        p = float(p)
        assert abs(q_func(q_inv(p)) - p) <= 1e-12 * p


# ---------------------------------------------------------------------------
# capacity / dispersion / dB conversion


def test_capacity_trivial_points():
    assert shannon_capacity(1.0) == pytest.approx(1.0, abs=1e-15)
    assert shannon_capacity(3.0) == pytest.approx(2.0, abs=1e-15)


def test_capacity_at_10():
    assert shannon_capacity(10.0) == pytest.approx(3.4594316186372973, rel=1e-15)


def test_capacity_domain():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            shannon_capacity(bad)


def test_dispersion_limits_and_value():
    assert channel_dispersion(1e-9) == pytest.approx(0.0, abs=1e-8)
    assert channel_dispersion(1e12) == pytest.approx(DISPERSION_LIMIT, rel=1e-10)
    assert DISPERSION_LIMIT == pytest.approx(2.0813689810056077, rel=1e-12)
    assert channel_dispersion(10.0) == pytest.approx(2.0641675844683714, rel=1e-15)


def test_dispersion_strictly_increasing_and_bounded():
    gammas = np.logspace(-3, 4, 100)
    vals = [channel_dispersion(float(g)) for g in gammas]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < DISPERSION_LIMIT for v in vals)


def test_dispersion_saturates_where_the_square_overflows():
    # (1 + sinr)^2 overflows past about 1,541 dB; 1/(1+sinr)^2 is below
    # 2**-1022 there, so the limit is the correctly rounded value
    assert channel_dispersion(1e200) == DISPERSION_LIMIT
    assert channel_dispersion(db_to_linear(3000.0)) == DISPERSION_LIMIT
    assert channel_dispersion(1e150) == DISPERSION_LIMIT * (1.0 - 1.0 / (1.0 + 1e150) ** 2)


def test_dispersion_domain():
    with pytest.raises(DomainError):
        channel_dispersion(-0.5)


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688796, rel=1e-12)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-40.0, 40.0, 50):
        assert linear_to_db(db_to_linear(float(x))) == pytest.approx(
            float(x), rel=1e-12, abs=1e-12
        )
    with pytest.raises(DomainError):
        linear_to_db(0.0)


# ---------------------------------------------------------------------------
# FblContext


def test_context_derived_fields():
    ctx = FblContext(payload_bits=256, sinr_linear=10.0)
    assert ctx.capacity == shannon_capacity(10.0)
    assert ctx.dispersion == channel_dispersion(10.0)


def test_context_validation():
    with pytest.raises(DomainError):
        FblContext(payload_bits=0, sinr_linear=10.0)
    with pytest.raises(DomainError):
        FblContext(payload_bits=256, sinr_linear=0.0)
    # 1 + sinr rounds to 1: a zero capacity that no channel use can reach
    with pytest.raises(DomainError, match="capacity"):
        FblContext(payload_bits=256, sinr_linear=db_to_linear(-200.0))
    FblContext(payload_bits=256, sinr_linear=db_to_linear(-150.0))
    with pytest.raises(DomainError, match="finite"):
        db_to_linear(1e300)


# ---------------------------------------------------------------------------
# channel_use / achieved_bler


def test_channel_use_table_values():
    ctx = FblContext(256, 10.0)
    # 32-byte payload at 10 dB: the two operating points of the usage table
    assert channel_use(ctx, 0.00183) == pytest.approx(85.14, abs=0.05)
    assert channel_use(ctx, 0.0328) == pytest.approx(80.88, abs=0.05)
    # frozen oracle values at full precision
    assert channel_use(ctx, 0.00183) == pytest.approx(85.136668486812852, rel=1e-12)
    assert channel_use(ctx, 0.0328) == pytest.approx(80.877121146000685, rel=1e-12)


def test_channel_use_collapses_to_shannon_limit():
    ctx = FblContext(256, 3.0)
    assert channel_use(ctx, 0.4999999999) == pytest.approx(128.0, rel=1e-4)


def test_channel_use_domain():
    ctx = FblContext(256, 10.0)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            channel_use(ctx, bad)


def test_channel_use_overflow_is_a_domain_error():
    # the sum under the root overflows at 10**308 bits; at 10**300 bits and
    # a tiny capacity only the square of the root does
    for payload_bits, sinr_linear in ((10**308, 10.0), (10**300, 1e-12)):
        with pytest.raises(DomainError, match=f"{payload_bits}-bit payload overflows"):
            channel_use(FblContext(payload_bits, sinr_linear), 1e-3)


def test_channel_use_exceeds_asymptotic_minimum():
    ctx = FblContext(256, 10.0)
    for p in (1e-9, 1e-5, 0.01, 0.4):
        assert channel_use(ctx, p) > ctx.payload_bits / ctx.capacity


def test_channel_use_monotone_in_bler_and_sinr():
    ctx = FblContext(256, 10.0)
    ps = np.logspace(-9, math.log10(0.49), 40)
    rs = [channel_use(ctx, float(p)) for p in ps]
    assert all(a > b for a, b in zip(rs, rs[1:]))
    gammas = np.logspace(-1, 3, 40)
    rs = [channel_use(FblContext(256, float(g)), 1e-3) for g in gammas]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_achieved_bler_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(300):
        payload = int(rng.integers(8, 4097))
        gamma = float(10.0 ** rng.uniform(-1, 3))
        p = float(10.0 ** rng.uniform(-9, math.log10(0.49)))
        ctx = FblContext(payload, gamma)
        r = channel_use(ctx, p)
        assert achieved_bler(ctx, r) == pytest.approx(p, rel=1e-9)


def test_eq9_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(300):
        payload = int(rng.integers(8, 4097))
        gamma = float(10.0 ** rng.uniform(-1, 3))
        p = float(10.0 ** rng.uniform(-9, math.log10(0.49)))
        ctx = FblContext(payload, gamma)
        r = channel_use(ctx, p)
        rebuilt = r * ctx.capacity - q_inv(p) * math.sqrt(r * ctx.dispersion)
        assert abs(rebuilt - payload) / payload <= 1e-9


def test_achieved_bler_trivial_and_tail():
    ctx = FblContext(256, 10.0)
    assert achieved_bler(ctx, ctx.payload_bits / ctx.capacity) == pytest.approx(
        0.5, abs=1e-12
    )
    assert achieved_bler(ctx, 2 * 85.14) < 1e-9
    # strict decrease checked where the tail is still representable
    rs = np.linspace(60.0, 320.0, 50)
    vals = [achieved_bler(ctx, float(r)) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        achieved_bler(ctx, 0.0)


def test_oracle_agreement_spot_check():
    # the frozen values above really came from the independent oracle
    assert float(_q_oracle(2.905)) == pytest.approx(0.0018362655010915895, rel=1e-15)
    assert float(_q_inv_oracle(1.83e-3)) == pytest.approx(2.9060696245938366, rel=1e-13)
