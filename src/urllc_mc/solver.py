"""Dimensioning: numerical inversion of the outage model, then sizing.

Finds the per-transmission data BLER target that achieves a requested
end-to-end outage, with the metadata BLER linked to the data BLER by a
policy, by bisection on a log axis: the outage spans many decades in the
BLER and is monotone, so bisection is slow but certain. ``outage_at``, the
outage of built profiles, is the reference; a solve resolves it once into
the kernel ``_outage_of``, then evaluates that at one p_d per step.

Sizing prices a ``SolveResult`` in the channel uses of the data alone, as
the paper prices duplication (``usage_at_solution``). Every link finishes
its own retransmission when its first try fails, even if another link
delivered, so m links sharing a profile use ``usage_sc(m,
sc_outage(profile).p_succ_first)`` in expectation (fig. 4's normalized usage).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, SolverError, ValidationError, checked, integer, real, shown
from .fbl import FblContext, _sized_q_inv, _uses
from .outage import (MAX_NODES, ChaseModel, LinkBlerProfile, _chase_of, _leaves, chase_bler,
                     mc_outage)

P_D_BRACKET = (1e-9, 0.4999)  # upper end stays inside the channel-use domain
MAX_ITERATIONS = 200


class PolicyKind(Enum):
    EQUAL = "equal"  # p_m = p_d
    HALF = "half"  # p_m = p_d / 2
    FIXED_META = "fixed_meta"  # p_m held constant


@checked
class BlerPolicy(NamedTuple):
    """Linkage between the metadata BLER and the data BLER."""

    kind: PolicyKind = PolicyKind.EQUAL
    fixed_meta: Optional[float] = None

    def _check(self) -> None:
        if not isinstance(self.kind, PolicyKind):
            raise ValidationError(f"policy kind must be a PolicyKind, got {self.kind!r}")
        if self.kind is PolicyKind.FIXED_META:
            if not (real(self.fixed_meta) and 0.0 < self.fixed_meta < 1.0):
                raise ValidationError(
                    f"FIXED_META policy requires fixed_meta in (0, 1), "
                    f"got {shown(self.fixed_meta)}"
                )
        elif self.fixed_meta is not None:
            raise ValidationError(f"{self.kind.name} policy takes no fixed_meta value")

    def meta_bler(self, p_d: float) -> float:
        return self._meta_rule()(p_d)

    def _meta_rule(self) -> Callable[[float], float]:  # meta_bler, the policy read once
        if self.kind is PolicyKind.EQUAL:
            return lambda p_d: p_d
        if self.kind is PolicyKind.HALF:
            return lambda p_d: p_d / 2.0
        fixed = float(self.fixed_meta)
        return lambda p_d: fixed


class SolveResult(NamedTuple):
    p_d: float
    p_m: float
    achieved_outage: float
    iterations: int
    m_nodes: int  # links solved over


def build_profile(
    p_d: float,
    policy: BlerPolicy,
    chase: ChaseModel,
    ctx: Optional[FblContext] = None,
) -> LinkBlerProfile:
    """Link profile at a candidate data BLER.

    ``ctx`` is the link's own context, needed only by the
    FINITE_BLOCKLENGTH chase model.
    """
    if not (real(p_d) and 0.0 < p_d < 1.0):
        raise DomainError(f"p_d must be in (0, 1), got {shown(p_d)}")
    p_m = policy.meta_bler(p_d)
    p_c = chase_bler(chase, p_d, ctx)
    return LinkBlerProfile(p_m=p_m, p_d=p_d, p_c=p_c)


def outage_at(p_d: float, policy: BlerPolicy, chase: ChaseModel,
              contexts: Sequence[Optional[FblContext]]) -> float:
    """Outage over one link per context at data BLER p_d; ``_outage_of``'s checked reference."""
    return mc_outage([build_profile(p_d, policy, chase, c) for c in contexts])


def _outage_of(policy: BlerPolicy, chase: ChaseModel, contexts: Sequence[Optional[FblContext]]):
    """``outage_at`` as a function of p_d, for callers that checked p_d in (0, 1)
    and 1 to ``MAX_NODES`` links. The policy's rule and each run of one context
    object's chase resolve once, in link order, so an unusable model or link raises
    here; an evaluation checks computed values: the chase's, then p_c <= p_d."""
    meta = policy._meta_rule()
    # a link's chase, or None where it repeats the previous link's object
    links = [None if i and c is contexts[i - 1] else _chase_of(chase, c)
             for i, c in enumerate(contexts)]

    def outage(p_d: float) -> float:
        out = 1.0
        for p_c_of in links:
            if p_c_of is not None:
                p_m, p_c = meta(p_d), p_c_of(p_d)
                if not 0.0 <= p_c <= p_d:
                    LinkBlerProfile(p_m=p_m, p_d=p_d, p_c=p_c)  # raises its error
                p_out = _leaves(p_m, p_d, p_c)[3]
            out *= p_out
        return out

    return outage


def solve_bler(
    m: int,
    target: float,
    policy: BlerPolicy,
    chase: ChaseModel,
    contexts: Optional[Sequence[Optional[FblContext]]] = None,
) -> SolveResult:
    """Data BLER target achieving the requested end-to-end outage over m
    duplicating links (m = 1 is single connectivity).

    ``contexts`` holds one context per link, or is None when the chase
    model needs none.

    Bisection on log10(p_d) over the fixed bracket, to an absolute
    outage tolerance of 0.1% of the target (ample for three significant
    digits) within at most 200 iterations. Ties on an exact midpoint hit
    resolve toward the lower half.
    """
    if not (integer(m) and 1 <= m <= MAX_NODES):
        raise ValidationError(f"m must be a positive integer at most {MAX_NODES}, got {shown(m)}")
    contexts = [None] * m if contexts is None else list(contexts)
    if len(contexts) != m:
        raise ValidationError(f"expected {m} per-node contexts, got {len(contexts)}")
    if not (real(target) and 1e-12 < target < 0.25):
        raise DomainError(f"target outage must be in (1e-12, 0.25), got {shown(target)}")

    outage = _outage_of(policy, chase, contexts)
    lo_p, hi_p = P_D_BRACKET
    f_lo, f_hi = outage(lo_p), outage(hi_p)
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
        f = outage(p_d)
        if abs(f - target) <= tol:
            return SolveResult(p_d, policy.meta_bler(p_d), f, iteration, m)
        if f >= target:
            hi_log = mid_log
        else:
            lo_log = mid_log
    raise SolverError(
        f"no convergence to |outage - {target:.3e}| <= {tol:.3e} "
        f"in {MAX_ITERATIONS} iterations"
    )


def usage_sc(r: float, p_succ_first: float) -> float:
    """Expected channel uses of a single link: r plus r more when the
    first transmission fails, i.e. (2 - p_succ_first) * r."""
    if not (real(r) and r > 0.0):
        raise DomainError(f"channel uses must be positive and finite, got {shown(r)}")
    if not (real(p_succ_first) and 0.0 <= p_succ_first <= 1.0):
        raise DomainError(f"p_succ_first must be in [0, 1], got {shown(p_succ_first)}")
    return (2.0 - p_succ_first) * r


def usage_at_solution(result: SolveResult, contexts: Sequence[FblContext]) -> Tuple[float, float]:
    """Size a transmission at a solve over the links ``contexts``, one per
    node: ``(channel_use_single, total_usage)``, the finite-blocklength
    channel use of one transmission at ``result.p_d`` (node average when
    per-node SINRs differ), and that summed over the nodes plus the
    expected retransmissions. Both count the data's channel uses only.
    Every link is sized from one ``q_inv(result.p_d)``, as ``channel_use``
    sizes it. A solve holds at other SINRs only if its chase model reads
    none (``ChaseModel.reads_sinr``)."""
    if contexts is None or len(contexts) != result.m_nodes:
        raise ValidationError(f"usage_at_solution needs the {result.m_nodes} solved links")
    for c in contexts:
        if not isinstance(c, FblContext):
            raise ValidationError(f"contexts: usage_at_solution sizes FblContexts, got {c!r}")
    qi = _sized_q_inv(result.p_d)
    uses = [_uses(c.payload_bits, c.capacity, c.dispersion, qi) for c in contexts]
    # the first-try leaf reads only the BLER targets (no p_c), shared by all nodes
    p1 = _leaves(result.p_m, result.p_d, 0.0)[0]
    r_sum = math.fsum(uses)
    return r_sum / len(uses), usage_sc(r_sum, p1)
