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
    success_mix,
)
from .solver import (
    BlerPolicy,
    PolicyKind,
    SolveResult,
    build_profile,
    solve_bler,
    usage_at_solution,
    usage_sc,
)
from .sim import (
    Numerology,
    SimAggregate,
    latency_budget_check,
    latency_quantile,
    simulate_run,
    ttis_to_ms,
)
from .config import ScenarioConfig, parse_scenario

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
    "UrllcMcError",
    "ValidationError",
    "achieved_bler",
    "build_profile",
    "chase_bler",
    "channel_dispersion",
    "channel_use",
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
    "success_mix",
    "ttis_to_ms",
    "usage_at_solution",
    "usage_sc",
]
