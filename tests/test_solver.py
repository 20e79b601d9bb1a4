"""Tests for the BLER-target solver.

The cubic oracle: with p_m = p_d = p and perfect combining, the per-link
outage is exactly 3p^2 - 2p^3, so solved targets can be checked against
high-precision roots of that polynomial (frozen below).
"""

from __future__ import annotations

import numpy as np
import pytest

import urllc_mc.solver as solver_mod
from urllc_mc.errors import DomainError, SolverError, ValidationError
from urllc_mc.fbl import FblContext
from urllc_mc.outage import (
    ChaseModel,
    chase_bler,
    LinkBlerProfile,
    mc_outage,
    sc_outage,
)
from urllc_mc.solver import (
    BlerPolicy,
    PolicyKind,
    build_profile,
    solve_bler,
)

ZERO = ChaseModel.ZERO
EQUAL = BlerPolicy(PolicyKind.EQUAL)

# real roots of 3p^2 - 2p^3 = t in (0, 0.5), computed at 50 digits
P_ROOT_1E5 = 0.0018268546632628153  # t = 1e-5
P_ROOT_SQRT_1E5 = 0.032828004764379019  # t = sqrt(1e-5)


# ---------------------------------------------------------------------------
# policy and profile construction


def test_policy_validation():
    BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01)
    with pytest.raises(ValidationError):
        BlerPolicy(PolicyKind.FIXED_META)
    with pytest.raises(ValidationError):
        BlerPolicy(PolicyKind.FIXED_META, fixed_meta=1.5)
    with pytest.raises(ValidationError):
        BlerPolicy(PolicyKind.EQUAL, fixed_meta=0.01)


def test_build_profile_equal_policy():
    profile = build_profile(0.1, EQUAL, ZERO)
    assert profile == LinkBlerProfile(0.1, 0.1, 0.0)


def test_build_profile_half_policy():
    profile = build_profile(0.1, BlerPolicy(PolicyKind.HALF), ZERO)
    assert profile.p_m == pytest.approx(0.05)
    assert profile.p_d == 0.1


def test_build_profile_fixed_meta_product_chase():
    policy = BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01)
    profile = build_profile(0.1, policy, ChaseModel.PRODUCT)
    assert profile.p_m == 0.01
    assert profile.p_c == pytest.approx(0.01, abs=1e-15)  # p_d^2


def test_build_profile_finite_blocklength_chase():
    fbl = ChaseModel.FINITE_BLOCKLENGTH
    ctx = FblContext(256, 10.0)
    profile = build_profile(0.0328, EQUAL, fbl, ctx)
    assert 0.0 < profile.p_c < 1e-9
    assert profile.p_c == chase_bler(fbl, 0.0328, ctx)
    # each link's p_c follows its own context
    profile2 = build_profile(0.0328, EQUAL, fbl, ctx=FblContext(256, 1.0))
    assert profile2.p_c != profile.p_c
    assert 0.0 < profile2.p_c < 1e-9
    # the model cannot size the combined decode without a context
    with pytest.raises(ValidationError):
        build_profile(0.0328, EQUAL, fbl)


def test_build_profile_domain():
    with pytest.raises(DomainError):
        build_profile(0.0, EQUAL, ZERO)
    with pytest.raises(DomainError):
        build_profile(1.0, EQUAL, ZERO)


# ---------------------------------------------------------------------------
# solve_bler


def test_solve_sc_reference_target():
    res = solve_bler(1, 1e-5, EQUAL, ZERO)
    assert res.p_d == pytest.approx(P_ROOT_1E5, rel=1e-3)
    assert res.p_d == pytest.approx(0.001826, abs=2e-5)  # 0.1826% +- 0.002pp
    assert res.p_m == res.p_d
    assert abs(res.achieved_outage - 1e-5) <= 1e-3 * 1e-5
    assert 0 < res.iterations <= 200


def test_solve_mc_reference_target():
    res = solve_bler(2, 1e-5, EQUAL, ZERO)
    assert res.p_d == pytest.approx(P_ROOT_SQRT_1E5, rel=1e-3)
    assert res.p_d == pytest.approx(0.0328, abs=2e-4)  # 3.28% +- 0.02pp
    assert abs(res.achieved_outage - 1e-5) <= 1e-3 * 1e-5


def test_solve_recovers_known_profile():
    p = 0.07
    target = mc_outage([LinkBlerProfile(p, p, 0)] * 2)
    res = solve_bler(2, target, EQUAL, ZERO)
    assert res.p_d == pytest.approx(p, rel=1e-3)


def test_solve_roundtrip_random_cases():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        # indexed, not rng.choice: numpy reads a list of records as a 2-D array
        policy = [
            EQUAL,
            BlerPolicy(PolicyKind.HALF),
            BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01),
        ][int(rng.integers(3))]
        target = float(10.0 ** rng.uniform(-8, -2))
        try:
            res = solve_bler(m, target, policy, ZERO)
        except SolverError:
            # fixed-meta floor can make very low targets unreachable
            assert policy.kind is PolicyKind.FIXED_META
            continue
        profile = build_profile(res.p_d, policy, ZERO)
        forward = mc_outage([profile] * m)
        assert forward == pytest.approx(target, rel=1e-3)


def test_solve_mc_allows_looser_bler_than_sc():
    for target in (1e-6, 1e-5, 1e-4):
        sc = solve_bler(1, target, EQUAL, ZERO)
        mc2 = solve_bler(2, target, EQUAL, ZERO)
        mc3 = solve_bler(3, target, EQUAL, ZERO)
        assert sc.p_d < mc2.p_d < mc3.p_d


def test_solve_with_finite_blocklength_chase():
    ctx = FblContext(256, 10.0)
    fbl = ChaseModel.FINITE_BLOCKLENGTH
    res = solve_bler(1, 1e-5, EQUAL, fbl, [ctx])
    profile = build_profile(res.p_d, EQUAL, fbl, ctx=ctx)
    assert sc_outage(profile).p_out == pytest.approx(1e-5, rel=1e-3)


def test_solve_no_bracket_below_fixed_meta_floor():
    # with a fixed 1% metadata BLER the outage floor is p_m^2 = 1e-4
    policy = BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01)
    with pytest.raises(SolverError, match="NO_BRACKET"):
        solve_bler(1, 1e-5, policy, ZERO)


def test_solve_non_monotone_detected(monkeypatch):
    def upside_down(p_d, policy, chase, contexts):
        return 1e-3 / p_d  # decreasing in p_d

    monkeypatch.setattr(solver_mod, "outage_at", upside_down)
    with pytest.raises(SolverError, match="NON_MONOTONE"):
        solver_mod.solve_bler(1, 1e-5, EQUAL, ZERO)


def test_solve_without_convergence_raises(monkeypatch):
    def step(p_d, policy, chase, contexts):
        return 0.0 if p_d < 1e-3 else 0.2  # brackets 1e-5 but never comes near it

    monkeypatch.setattr(solver_mod, "outage_at", step)
    with pytest.raises(SolverError, match="no convergence .* in 200 iterations"):
        solver_mod.solve_bler(1, 1e-5, EQUAL, ZERO)


def test_solve_validations():
    with pytest.raises(ValidationError, match="positive integer"):
        solve_bler(0, 1e-5, EQUAL, ZERO)
    ctx = FblContext(256, 10.0)
    with pytest.raises(ValidationError, match="expected 2 per-node contexts, got 3"):
        solve_bler(2, 1e-5, EQUAL, ZERO, [ctx] * 3)
    with pytest.raises(DomainError):
        solve_bler(1, 0.3, EQUAL, ZERO)
    with pytest.raises(DomainError):
        solve_bler(1, 1e-13, EQUAL, ZERO)


def test_solve_bounds_the_node_count():
    limit = solver_mod.MAX_NODES
    for m in (limit + 1, 10**400):
        with pytest.raises(ValidationError, match=f"m must be a positive integer at most {limit}"):
            solve_bler(m, 1e-5, EQUAL, ZERO)


def test_solve_deterministic():
    a = solve_bler(2, 1e-5, EQUAL, ZERO)
    b = solve_bler(2, 1e-5, EQUAL, ZERO)
    assert a == b
