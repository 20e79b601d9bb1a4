"""The package's public surface: ``urllc_mc.__all__`` is pinned, so a name
is added or removed only by editing the list below."""

from __future__ import annotations

import numpy as np
import pytest

import urllc_mc
from urllc_mc import (
    BlerPolicy,
    ChaseModel,
    FblContext,
    LinkBlerProfile,
    Numerology,
    UrllcMcError,
    achieved_bler,
    channel_dispersion,
    db_to_linear,
    latency_budget_check,
    latency_quantile,
    q_func,
    shannon_capacity,
    simulate_run,
    solve_bler,
    success_mix,
    usage_sc,
)

PUBLIC_NAMES = [
    "BlerPolicy",
    "ChaseModel",
    "DomainError",
    "FblContext",
    "LinkBlerProfile",
    "Numerology",
    "OutageBreakdown",
    "ParseError",
    "PolicyKind",
    "ScenarioConfig",
    "SimAggregate",
    "SolveResult",
    "SolverError",
    "UrllcMcError",
    "UsageReport",
    "ValidationError",
    "achieved_bler",
    "build_profile",
    "channel_dispersion",
    "channel_use",
    "chase_bler",
    "db_to_linear",
    "latency_budget_check",
    "latency_quantile",
    "mc_outage",
    "parse_scenario",
    "q_func",
    "q_inv",
    "sc_outage",
    "shannon_capacity",
    "simulate_run",
    "solve_bler",
    "succ_first",
    "success_mix",
    "ttis_to_ms",
    "usage_at_solution",
    "usage_sc",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 37
    assert sorted(urllc_mc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in urllc_mc.__all__:
        assert getattr(urllc_mc, name) is not None, name


PERFECT = LinkBlerProfile(0, 0, 0)

# (the name the error gives, a call with the bool in that argument)
BOOL_ARGUMENTS = {
    "solve_bler.m": ("m must", lambda b: solve_bler(b, 1e-5, BlerPolicy(), ChaseModel.ZERO)),
    "simulate_run.trials": ("trials", lambda b: simulate_run([PERFECT], b, 1)),
    "simulate_run.seed": ("seed", lambda b: simulate_run([PERFECT], 10, b)),
    "simulate_run.jobs": ("jobs", lambda b: simulate_run([PERFECT], 10, 1, jobs=b)),
    **{f"Numerology.{name}": (name, lambda b, name=name: Numerology(**{name: b}))
       for name in ("scs_khz", "symbols_per_tti", "harq_rtt_ttis", "t_up_ttis",
                    "t_tx_ttis", "t_bp_initial_ttis")},
    "usage_sc.r": ("channel uses", lambda b: usage_sc(b, 0.5)),
    "usage_sc.p_succ_first": ("p_succ_first", lambda b: usage_sc(2, b)),
    "latency_quantile.q": ("q must", lambda b: latency_quantile(
        success_mix([PERFECT]), Numerology(), b)),
    "latency_budget_check.budget_ms": ("budget_ms", lambda b: latency_budget_check(
        Numerology(), b)),
    "achieved_bler.channel_uses": ("channel_uses", lambda b: achieved_bler(
        FblContext(256, 10.0), b)),
    "q_func.x": ("q_func argument", q_func),
    "shannon_capacity.sinr_linear": ("sinr_linear", shannon_capacity),
    "channel_dispersion.sinr_linear": ("sinr_linear", channel_dispersion),
    "db_to_linear.x_db": ("x_db", db_to_linear),
}


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_],
                         ids=["True", "False", "np.True_", "np.False_"])
@pytest.mark.parametrize("argument", sorted(BOOL_ARGUMENTS))
def test_numeric_arguments_reject_bool_by_name(argument, flag):
    # bool is an int subclass and numpy's bool compares as 0 or 1, so only
    # an exact type test against errors.BOOL_TYPES tells them apart
    name, call = BOOL_ARGUMENTS[argument]
    with pytest.raises(UrllcMcError, match=f"{name}.*{flag}"):
        call(flag)
