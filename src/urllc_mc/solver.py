"""Numerical inversion of the outage model.

Finds the per-transmission data BLER target that achieves a requested
end-to-end outage, with the metadata BLER linked to the data BLER by a
policy. Bisection on a log axis: the outage spans many decades in the
BLER and is monotone, so bisection is slow but certain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from .errors import DomainError, SolverError, ValidationError
from .fbl import FblContext
from .outage import ChaseModel, LinkBlerProfile, chase_bler, mc_outage

P_D_BRACKET = (1e-9, 0.4999)  # upper end stays inside the channel-use domain
MAX_ITERATIONS = 200


class PolicyKind(Enum):
    EQUAL = "equal"  # p_m = p_d
    HALF = "half"  # p_m = p_d / 2
    FIXED_META = "fixed_meta"  # p_m held constant


@dataclass(frozen=True)
class BlerPolicy:
    """Linkage between the metadata BLER and the data BLER."""

    kind: PolicyKind = PolicyKind.EQUAL
    fixed_meta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.FIXED_META:
            if self.fixed_meta is None or not 0.0 < self.fixed_meta < 1.0:
                raise ValidationError(
                    f"FIXED_META policy requires fixed_meta in (0, 1), "
                    f"got {self.fixed_meta!r}"
                )
        elif self.fixed_meta is not None:
            raise ValidationError(f"{self.kind.name} policy takes no fixed_meta value")

    def meta_bler(self, p_d: float) -> float:
        if self.kind is PolicyKind.EQUAL:
            return p_d
        if self.kind is PolicyKind.HALF:
            return p_d / 2.0
        return float(self.fixed_meta)


@dataclass(frozen=True)
class SolveResult:
    p_d: float
    p_m: float
    achieved_outage: float
    iterations: int


def build_profile(
    p_d: float,
    policy: BlerPolicy,
    chase: ChaseModel,
    ctx: Optional[FblContext] = None,
) -> LinkBlerProfile:
    """Link profile at a candidate data BLER.

    BLER targets are held equal across the initial transmission and the
    retransmission (the time between them is short). ``ctx`` is the
    link's own context, needed only by the FINITE_BLOCKLENGTH chase
    model.
    """
    if not 0.0 < p_d < 1.0:
        raise DomainError(f"p_d must be in (0, 1), got {p_d!r}")
    p_m = policy.meta_bler(p_d)
    p_c = chase_bler(chase, p_d, ctx)
    return LinkBlerProfile(p_m1=p_m, p_d1=p_d, p_m2=p_m, p_d2=p_d, p_c=p_c)


ContextArg = Union[FblContext, Sequence[FblContext], None]


def _node_contexts(ctx: ContextArg, m: int) -> list:
    if ctx is None or isinstance(ctx, FblContext):
        return [ctx] * m
    contexts = list(ctx)
    if len(contexts) == 1:
        return contexts * m
    if len(contexts) != m:
        raise ValidationError(
            f"expected 1 or {m} per-node contexts, got {len(contexts)}"
        )
    return contexts


def _validate_scheme(scheme: str, m: int) -> None:
    if scheme not in ("SC", "MC"):
        raise ValidationError(f"scheme must be 'SC' or 'MC', got {scheme!r}")
    if not (isinstance(m, int) and m >= 1):
        raise ValidationError(f"m must be a positive integer, got {m!r}")
    if scheme == "SC" and m != 1:
        raise ValidationError("SC carries a single link (m must be 1)")


def outage_at(
    p_d: float,
    m: int,
    policy: BlerPolicy,
    chase: ChaseModel,
    contexts: Sequence,
) -> float:
    """Forward outage over m links at a shared data BLER target."""
    profiles = [build_profile(p_d, policy, chase, c) for c in contexts]
    return mc_outage(profiles)


def solve_bler(
    scheme: str,
    m: int,
    target: float,
    policy: BlerPolicy,
    chase: ChaseModel,
    ctx: ContextArg = None,
) -> SolveResult:
    """Data BLER target achieving the requested end-to-end outage.

    Bisection on log10(p_d) over the fixed bracket, to an absolute
    outage tolerance of 0.1% of the target (ample for three significant
    digits) within at most 200 iterations. Ties on an exact midpoint hit
    resolve toward the lower half.
    """
    _validate_scheme(scheme, m)
    if scheme == "SC":
        m = 1
    if not 1e-12 < target < 0.25:
        raise DomainError(f"target outage must be in (1e-12, 0.25), got {target!r}")
    contexts = _node_contexts(ctx, m)

    lo_p, hi_p = P_D_BRACKET
    f_lo = outage_at(lo_p, m, policy, chase, contexts)
    f_hi = outage_at(hi_p, m, policy, chase, contexts)
    if f_lo > f_hi:
        raise SolverError(
            f"NON_MONOTONE: outage at bracket ends is decreasing "
            f"({f_lo:.3e} at p_d={lo_p:g}, {f_hi:.3e} at p_d={hi_p:g})"
        )
    if not f_lo <= target <= f_hi:
        raise SolverError(
            f"NO_BRACKET: target {target:.3e} outside reachable outage range "
            f"[{f_lo:.3e}, {f_hi:.3e}] for p_d in [{lo_p:g}, {hi_p:g}]"
        )

    tol = 1e-3 * target
    lo_log, hi_log = math.log10(lo_p), math.log10(hi_p)
    for iteration in range(1, MAX_ITERATIONS + 1):
        mid_log = 0.5 * (lo_log + hi_log)
        p_d = 10.0**mid_log
        f = outage_at(p_d, m, policy, chase, contexts)
        if abs(f - target) <= tol:
            return SolveResult(
                p_d=p_d,
                p_m=policy.meta_bler(p_d),
                achieved_outage=f,
                iterations=iteration,
            )
        if f >= target:
            hi_log = mid_log
        else:
            lo_log = mid_log
    raise SolverError(
        f"no convergence to |outage - {target:.3e}| <= {tol:.3e} "
        f"in {MAX_ITERATIONS} iterations"
    )
