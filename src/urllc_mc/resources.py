"""Expected and distributional radio-resource usage with one retransmission.

Every link always completes its own retransmission when its first
transmission fails, even if another link already delivered the packet,
so a duplicated transmission uses m + k transmissions when k links miss
the first try. The distribution of k is the reversed row sums of the
success mix (``outage.success_mix``); the expected usage needs only the
per-link first-try probability, and ``usage_sc`` is its one formula: m
links sharing a profile use ``usage_sc(m, succ_first(profile))``
transmissions in expectation (the paper's normalized usage, fig. 4).

Sizing is a step after solving: ``usage_at_solution`` sizes the links at
a ``solver.SolveResult``, and the ``UsageReport`` it returns holds that
solve, so a report says which BLER target, outage and iteration count it
was sized at.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BOOL_TYPES, DomainError, ValidationError, shown
from .fbl import FblContext, channel_use
from .outage import _leaves
from .solver import SolveResult


@dataclass(frozen=True)
class UsageReport:
    """Dimensioning summary at a solve.

    ``solve`` is the solve the links were sized at: its BLER target
    ``p_d``, the outage it reached and its link count. ``channel_use_single``
    is the per-transmission channel-use count (node average when per-node
    SINRs differ); ``total_usage`` includes the expected retransmissions
    over all links. When requested, the metadata's own channel-use count
    is reported alongside and is never added into ``total_usage``.
    """

    solve: SolveResult
    channel_use_single: float
    total_usage: float
    metadata_channel_use: Optional[float] = None

    def __post_init__(self) -> None:
        slack = 1e-9 * self.channel_use_single
        if self.total_usage < self.channel_use_single - slack:
            raise DomainError("total usage cannot undercut a single transmission")
        if self.total_usage < self.solve.m_nodes * self.channel_use_single - slack:
            raise DomainError("total usage cannot undercut one transmission per node")


def usage_sc(r: float, p_succ_first: float) -> float:
    """Expected channel uses of a single link: r plus r more when the
    first transmission fails, i.e. (2 - p_succ_first) * r."""
    # exact tests, so a bool or an int too large for a float fails too
    if type(r) in BOOL_TYPES or not 0.0 < r <= sys.float_info.max:
        raise DomainError(f"channel uses must be positive and finite, got {shown(r)}")
    if type(p_succ_first) in BOOL_TYPES or not 0.0 <= p_succ_first <= 1.0:
        raise DomainError(f"p_succ_first must be in [0, 1], got {shown(p_succ_first)}")
    return (2.0 - p_succ_first) * r


def usage_at_solution(result: SolveResult, contexts: Sequence[FblContext],
                      metadata_bits: Optional[int] = None) -> UsageReport:
    """Size a transmission at a solve over the links ``contexts``, one per
    node: the finite-blocklength channel use at ``result.p_d`` plus the
    expected retransmissions, summed node-wise. Each link is sized on its
    own, equal links too: a ``channel_use`` call costs about 1 us, and only
    ``solver.link_profiles`` shares work between equal links. A solve
    holds at other SINRs only if its chase model reads none
    (``ChaseModel.reads_sinr``).
    """
    if contexts is None or len(contexts) != result.m_nodes:
        raise ValidationError(f"usage_at_solution needs the {result.m_nodes} solved links")
    uses = [channel_use(c, result.p_d) for c in contexts]
    # the first-try leaf reads only the BLER targets (no p_c), shared by all nodes
    p1 = _leaves(result.p_m, result.p_d, 0.0)[0]
    r_sum = math.fsum(uses)
    meta_use = None
    if metadata_bits is not None:
        if not result.p_m < 0.5:  # channel_use sizes a BLER in (0, 0.5) only
            raise DomainError(f"metadata_bits: cannot size the metadata at BLER "
                              f"{result.p_m!r}, which must be below 0.5")
        meta_use = math.fsum(
            channel_use(FblContext(metadata_bits, c.sinr_linear), result.p_m)
            for c in contexts
        ) / len(contexts)
    return UsageReport(
        solve=result,
        channel_use_single=r_sum / len(uses),
        total_usage=usage_sc(r_sum, p1),
        metadata_channel_use=meta_use,
    )
