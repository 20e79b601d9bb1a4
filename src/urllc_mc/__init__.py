"""Dimensioning toolkit for single- and multi-connectivity URLLC links.

Closed-form outage with HARQ and Chase combining, finite-blocklength
resource sizing, BLER-target solving, and a Monte Carlo event simulator
that validates the closed forms.
"""

from .errors import (
    DomainError,
    ParseError,
    SolverError,
    UrllcMcError,
    ValidationError,
)
from .fbl import (
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
from .outage import (
    ChaseModel,
    LinkBlerProfile,
    OutageBreakdown,
    chase_bler,
    mc_outage,
    sc_outage,
    succ_first,
    success_mix,
)
from .resources import (
    UsageReport,
    normalized_usage,
    usage_at_solution,
    usage_sc,
)
from .solver import (
    BlerPolicy,
    PolicyKind,
    SolveResult,
    build_profile,
    solve_bler,
)
from .sim import (
    Numerology,
    SimAggregate,
    latency_budget_check,
    latency_cdf,
    latency_quantile,
    simulate_run,
    tti_duration_ms,
)
from .config import ScenarioConfig, SweepScale, SweepSpec, SweepVariable, parse_scenario

__version__ = "0.1.0"

__all__ = [
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
    "chase_bler",
    "channel_dispersion",
    "channel_use",
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
