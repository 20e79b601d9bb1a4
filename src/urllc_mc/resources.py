"""Expected and distributional radio-resource usage with one retransmission.

Every link always completes its own retransmission when its first
transmission fails, even if another link already delivered the packet,
so the total channel usage of a duplicated transmission is a binomial
mixture over the per-link first-transmission outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DomainError, ValidationError
from .fbl import FblContext, channel_use
from .outage import ChaseModel, LinkBlerProfile, succ_first
from .solver import BlerPolicy, SolveResult, solve_bler


@dataclass(frozen=True)
class UsageDistribution:
    """Discrete distribution of the total channel uses of one round."""

    support: Tuple[Tuple[float, float], ...]  # (channel_uses, probability)

    def __post_init__(self) -> None:
        total = math.fsum(p for _, p in self.support)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities must sum to 1, got {total!r}")
        uses = [u for u, _ in self.support]
        if any(a >= b for a, b in zip(uses, uses[1:])):
            raise DomainError("support points must be strictly increasing")

    def mean(self) -> float:
        return math.fsum(u * p for u, p in self.support)


@dataclass(frozen=True)
class UsageReport:
    """Dimensioning summary at a reliability target.

    ``channel_use_single`` is the per-transmission channel-use count
    (node average when per-node SINRs differ); ``total_usage`` includes
    the expected retransmissions over all links. ``achieved_outage`` is
    the outage the solver reached at ``bler_target``. When requested, the
    metadata's own channel-use count is reported alongside and is never
    added into ``total_usage``.
    """

    bler_target: float
    achieved_outage: float
    channel_use_single: float
    total_usage: float
    m_nodes: int
    metadata_channel_use: Optional[float] = None

    def __post_init__(self) -> None:
        slack = 1e-9 * self.channel_use_single
        if self.total_usage < self.channel_use_single - slack:
            raise DomainError("total usage cannot undercut a single transmission")
        if self.total_usage < self.m_nodes * self.channel_use_single - slack:
            raise DomainError("total usage cannot undercut one transmission per node")


def usage_sc(r: float, p_succ_first: float) -> float:
    """Expected channel uses of a single link: r plus r more when the
    first transmission fails, i.e. (2 - p_succ_first) * r."""
    if not r > 0.0:
        raise DomainError(f"channel uses must be positive, got {r!r}")
    if not 0.0 <= p_succ_first <= 1.0:
        raise DomainError(f"p_succ_first must be in [0, 1], got {p_succ_first!r}")
    return (2.0 - p_succ_first) * r


def usage_mc(m: int, r: float, p_succ_first: float) -> float:
    """Expected channel uses over m duplicating links."""
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"m must be a positive integer, got {m!r}")
    return m * usage_sc(r, p_succ_first)


def usage_distribution_mc(m: int, r: float, p_succ_first: float) -> UsageDistribution:
    """Distribution of total channel uses over m links.

    n of the m first transmissions fail (binomially), adding n
    retransmissions: (m + n) * r with weight C(m,n) p^(m-n) (1-p)^n.
    """
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"m must be a positive integer, got {m!r}")
    if not r > 0.0:
        raise DomainError(f"channel uses must be positive, got {r!r}")
    if not 0.0 <= p_succ_first <= 1.0:
        raise DomainError(f"p_succ_first must be in [0, 1], got {p_succ_first!r}")
    p = p_succ_first
    support = tuple(
        ((m + n) * r, math.comb(m, n) * p ** (m - n) * (1.0 - p) ** n)
        for n in range(m + 1)
    )
    return UsageDistribution(support)


def normalized_usage(m: int, profile: LinkBlerProfile) -> float:
    """Expected usage over m links in multiples of one transmission's
    resources."""
    return usage_mc(m, 1.0, succ_first(profile))


def _per_link(f: Callable[[FblContext], float], contexts: Sequence[FblContext]) -> List[float]:
    """``[f(c) for c in contexts]``, with one call of ``f`` per run of equal
    adjacent contexts (identity, then value), as ``solver.link_profiles``
    shares profiles."""
    values: List[float] = []
    for i, c in enumerate(contexts):
        if i and (c is contexts[i - 1] or c == contexts[i - 1]):
            values.append(values[-1])
        else:
            values.append(f(c))
    return values


def usage_at_solution(result: SolveResult, contexts: Sequence[FblContext],
                      metadata_bits: Optional[int] = None) -> UsageReport:
    """Size a transmission at a solve over the links ``contexts``, one per
    node: the finite-blocklength channel use at ``result.p_d`` plus the
    expected retransmissions, summed node-wise. A solve holds at other
    SINRs only if its chase model reads none (``ChaseModel.reads_sinr``).
    """
    if contexts is None or len(contexts) != result.m_nodes:
        raise ValidationError(f"usage_at_solution needs the {result.m_nodes} solved links")
    uses = _per_link(lambda c: channel_use(c, result.p_d), contexts)
    # first-try success depends only on the BLER targets, shared by all nodes
    p1 = (1.0 - result.p_m) * (1.0 - result.p_d)
    r_sum = math.fsum(uses)
    meta_use = None
    if metadata_bits is not None:
        meta_use = math.fsum(_per_link(
            lambda c: channel_use(FblContext(metadata_bits, c.sinr_linear), result.p_m),
            contexts,
        )) / len(contexts)
    return UsageReport(
        bler_target=result.p_d,
        achieved_outage=result.achieved_outage,
        channel_use_single=r_sum / len(uses),
        total_usage=usage_sc(r_sum, p1),
        m_nodes=result.m_nodes,
        metadata_channel_use=meta_use,
    )


def usage_at_reliability(m: int, target_outage: float, contexts: Sequence[FblContext],
                         policy: BlerPolicy, chase: ChaseModel,
                         metadata_bits: Optional[int] = None) -> UsageReport:
    """Dimension a transmission for a reliability target: solve the BLER
    target over one link per context, then size at it (``usage_at_solution``)."""
    if contexts is None:
        raise ValidationError("usage_at_reliability requires one FblContext per link")
    result = solve_bler(m, target_outage, policy, chase, contexts)
    return usage_at_solution(result, contexts, metadata_bits)
