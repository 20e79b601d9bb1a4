"""Dimensioning: numerical inversion of the outage model, then sizing.

Finds the per-transmission data BLER target that achieves a requested
end-to-end outage, with the metadata BLER linked to the data BLER by a
policy. Bisection on a log axis: the outage spans many decades in the
BLER and is monotone, so bisection is slow but certain. Its steps call
``outage_at``, which multiplies the links' outage leaves and builds no
``LinkBlerProfile``; ``build_profile`` builds one for the other commands.

Sizing is the step after a solve: ``usage_at_solution`` prices a
``SolveResult`` in channel uses, as the pair of one transmission's
channel use and the expected total usage, and sizes the data alone (the
paper prices duplication by the channel uses of the duplicated data). Every
link finishes its own retransmission when its first transmission fails,
even if another link already delivered the packet, so a round uses m + k
transmissions when k links miss the first try. The expected usage needs
only the per-link first-try probability, and ``usage_sc`` is its one
formula: m links sharing a profile use
``usage_sc(m, sc_outage(profile).p_succ_first)`` transmissions in
expectation (the paper's normalized usage, fig. 4).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, SolverError, ValidationError, checked, integer, real, shown
from .fbl import FblContext, channel_use
from .outage import MAX_NODES, ChaseModel, LinkBlerProfile, _leaves, _link_count, chase_bler

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
        if self.kind is PolicyKind.EQUAL:
            return p_d
        if self.kind is PolicyKind.HALF:
            return p_d / 2.0
        return float(self.fixed_meta)


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


def outage_at(
    p_d: float,
    policy: BlerPolicy,
    chase: ChaseModel,
    contexts: Sequence[Optional[FblContext]],
) -> float:
    """Forward outage over one link per context at a shared data BLER target.

    ``mc_outage`` over one ``build_profile`` per context, bit for bit,
    errors included, without building the profiles: ``p_m`` is computed
    once, a link whose context is the previous link's object reuses its
    outage factor, and the product takes one factor per link, in order. No
    other code reuses work across links, and ``ScenarioConfig.contexts()``
    makes equal links one object.
    """
    out = 1.0
    for i, c in enumerate(contexts):
        if not i:
            if not (real(p_d) and 0.0 < p_d < 1.0):
                raise DomainError(f"p_d must be in (0, 1), got {shown(p_d)}")
            p_m = policy.meta_bler(p_d)
        elif c is contexts[i - 1]:
            out *= p_out
            continue
        p_c = chase_bler(chase, p_d, c)
        if not 0.0 <= p_c <= p_d:
            LinkBlerProfile(p_m=p_m, p_d=p_d, p_c=p_c)  # raises its error
        p_out = _leaves(p_m, p_d, p_c)[3]
        out *= p_out
    _link_count(contexts)  # last, as mc_outage counts the built profiles
    return out


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

    lo_p, hi_p = P_D_BRACKET
    f_lo = outage_at(lo_p, policy, chase, contexts)
    f_hi = outage_at(hi_p, policy, chase, contexts)
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
        f = outage_at(p_d, policy, chase, contexts)
        if abs(f - target) <= tol:
            return SolveResult(
                p_d=p_d,
                p_m=policy.meta_bler(p_d),
                achieved_outage=f,
                iterations=iteration,
                m_nodes=m,
            )
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
    Each link is sized on its own, equal links too: a ``channel_use`` call
    costs about 1 us, and only ``outage_at`` reuses work across links. A
    solve holds at other SINRs only if its chase model reads none
    (``ChaseModel.reads_sinr``).
    """
    if contexts is None or len(contexts) != result.m_nodes:
        raise ValidationError(f"usage_at_solution needs the {result.m_nodes} solved links")
    for c in contexts:
        if not isinstance(c, FblContext):
            raise ValidationError(f"contexts: usage_at_solution sizes FblContexts, got {c!r}")
    uses = [channel_use(c, result.p_d) for c in contexts]
    # the first-try leaf reads only the BLER targets (no p_c), shared by all nodes
    p1 = _leaves(result.p_m, result.p_d, 0.0)[0]
    r_sum = math.fsum(uses)
    return r_sum / len(uses), usage_sc(r_sum, p1)
