"""The package's public surface: ``urllc_mc.__all__`` is pinned, so a name
is added or removed only by editing the list below."""

from __future__ import annotations

import urllc_mc

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
    "SweepScale",
    "SweepSpec",
    "SweepVariable",
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
    "latency_cdf",
    "latency_quantile",
    "linear_to_db",
    "mc_outage",
    "normalized_usage",
    "parse_scenario",
    "q_func",
    "q_inv",
    "sc_outage",
    "shannon_capacity",
    "simulate_run",
    "solve_bler",
    "succ_first",
    "success_mix",
    "tti_duration_ms",
    "usage_at_solution",
    "usage_sc",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 43
    assert sorted(urllc_mc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in urllc_mc.__all__:
        assert getattr(urllc_mc, name) is not None, name
