"""Closed-form success and outage probabilities for one HARQ round.

Single link: first transmission, retransmission after a feedback timeout
(metadata lost, no combining) and retransmission after a NACK (Chase
combining with the first data copy). Duplicated transmission: product of
the per-link outages, since every link runs its own independent HARQ
round and copies are never combined across links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import DomainError, ValidationError
from .fbl import FblContext, achieved_bler, channel_use


def _check_prob(name: str, value) -> None:
    ok = (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and 0.0 <= value <= 1.0
    )
    if not ok:
        raise DomainError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class LinkBlerProfile:
    """The five error probabilities of one link.

    Metadata and data block error rates for the first and second
    transmission, plus the data error probability after Chase combining.
    Combining can only help, so p_c may not exceed p_d1 or p_d2.
    """

    p_m1: float
    p_d1: float
    p_m2: float
    p_d2: float
    p_c: float

    def __post_init__(self) -> None:
        for name in ("p_m1", "p_d1", "p_m2", "p_d2", "p_c"):
            _check_prob(name, getattr(self, name))
        if self.p_c > self.p_d1 or self.p_c > self.p_d2:
            raise DomainError(
                f"post-combining error p_c={self.p_c!r} must not exceed the "
                f"single-transmission data BLERs ({self.p_d1!r}, {self.p_d2!r})"
            )


class ChaseModel(Enum):
    """How the post-combining data error probability p_c is obtained."""

    ZERO = "zero"
    PRODUCT = "product"
    FINITE_BLOCKLENGTH = "finite_blocklength"


@dataclass(frozen=True)
class OutageBreakdown:
    """Probabilities of the three success classes and of outage.

    The four fields partition the event space: they sum to one within
    1e-12.
    """

    p_succ_first: float
    p_succ_timeout_retx: float
    p_succ_nack_retx: float
    p_out: float


def succ_first(profile: LinkBlerProfile) -> float:
    """Probability that metadata and data decode on the first attempt."""
    return (1.0 - profile.p_m1) * (1.0 - profile.p_d1)


def succ_retx_timeout(profile: LinkBlerProfile) -> float:
    """Success via the retransmission that follows a feedback timeout.

    Reached when the first metadata is lost; no combining is possible
    because the first copy could not be identified.
    """
    return profile.p_m1 * (1.0 - profile.p_m2) * (1.0 - profile.p_d2)


def succ_retx_nack(profile: LinkBlerProfile) -> float:
    """Success via the NACK-triggered retransmission with Chase combining.

    The combined decode fails with the conditional probability
    p_c / p_d1 given the first data decode failed, which contracts to
    the (p_d1 - p_c) factor below.
    """
    return (1.0 - profile.p_m1) * (1.0 - profile.p_m2) * (profile.p_d1 - profile.p_c)


def succ_retx_total(profile: LinkBlerProfile) -> float:
    """Total retransmission success probability (both paths).

    The factored form of the sum of the timeout-path and NACK-path
    probabilities; the two are algebraically identical.
    """
    return (1.0 - profile.p_m2) * (
        profile.p_m1 * (1.0 - profile.p_d2)
        + (1.0 - profile.p_m1) * (profile.p_d1 - profile.p_c)
    )


def sc_outage(profile: LinkBlerProfile) -> OutageBreakdown:
    """Full per-link outage breakdown for at most one retransmission."""
    p1 = succ_first(profile)
    p2 = succ_retx_total(profile)
    p_out = max(0.0, 1.0 - p1 - p2)
    return OutageBreakdown(
        p_succ_first=p1,
        p_succ_timeout_retx=succ_retx_timeout(profile),
        p_succ_nack_retx=succ_retx_nack(profile),
        p_out=p_out,
    )


def mc_outage(profiles: Sequence[LinkBlerProfile]) -> float:
    """Outage of a packet duplicated over all given links.

    The copies are decoded independently and never combined across
    links, so the packet is lost only if every link's own HARQ round
    fails.
    """
    if len(profiles) < 1:
        raise DomainError("at least one link profile is required")
    out = 1.0
    for profile in profiles:
        out *= sc_outage(profile).p_out
    return out


def chase_bler(
    model: ChaseModel, p_d: float, ctx: Optional[FblContext] = None
) -> float:
    """Post-combining data error probability p_c under the chosen model.

    ZERO: combining always succeeds. PRODUCT: the combined decode fails
    only if both copies would fail independently. FINITE_BLOCKLENGTH:
    re-evaluate the block error rate at the summed SINR of the two
    equal-power copies, same payload, over the channel uses that ``ctx``
    needs for a single copy at ``p_d``; requires ``ctx``.
    """
    _check_prob("p_d", p_d)
    if model is ChaseModel.ZERO:
        return 0.0
    if model is ChaseModel.PRODUCT:
        return p_d * p_d
    if ctx is None:
        raise ValidationError("FINITE_BLOCKLENGTH chase model requires an FblContext")
    combined = FblContext(ctx.payload_bits, 2.0 * ctx.sinr_linear)
    return achieved_bler(combined, channel_use(ctx, p_d))
