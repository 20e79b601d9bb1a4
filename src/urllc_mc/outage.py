"""Closed-form success and outage probabilities for one HARQ round.

Single link: first transmission, retransmission after a feedback timeout
(metadata lost, no combining) and retransmission after a NACK (Chase
combining with the first data copy). Duplicated transmission: product of
the per-link outages, since every link runs its own independent HARQ
round and copies are never combined across links. Its success mix holds
every per-round distribution: outage, retransmissions and latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError, shown
from .fbl import FblContext, _bler, channel_dispersion, channel_use, shannon_capacity

# Most duplicating links a solve, a scenario, an m sweep, a simulation or an
# exact success mix may use. The paper evaluates m <= 3 and the benchmark
# sweeps to 8; past about m = 40 the solver cannot bracket even a 1e-12
# outage target.
MAX_NODES = 64

# Exact types of the common case: a value of either type in [0, 1] needs no
# further check (bool, a subclass of int, is not one of them).
_PLAIN = (float, int)


def _check_prob(name: str, value) -> None:
    # the chained comparison rejects NaN and +-inf, and compares ints exactly
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0
    if not ok:
        raise DomainError(f"{name} must be a probability in [0, 1], got {shown(value)}")


@dataclass(frozen=True)
class LinkBlerProfile:
    """The three error probabilities of one link.

    Metadata and data block error rates, held equal across the initial
    transmission and the retransmission (the time between them is short),
    plus the data error probability after Chase combining. Combining can
    only help, so p_c may not exceed p_d.
    """

    p_m: float
    p_d: float
    p_c: float

    def __post_init__(self) -> None:
        p_m, p_d, p_c = self.p_m, self.p_d, self.p_c
        # the common case in one expression; the checks below name the culprit
        if (type(p_m) in _PLAIN and type(p_d) in _PLAIN and type(p_c) in _PLAIN
                and 0.0 <= p_m <= 1.0 and 0.0 <= p_c <= p_d <= 1.0):
            return
        for name in ("p_m", "p_d", "p_c"):
            _check_prob(name, getattr(self, name))
        if self.p_c > self.p_d:
            raise DomainError(
                f"post-combining error p_c={self.p_c!r} must not exceed the "
                f"single-transmission data BLER p_d={self.p_d!r}"
            )


class ChaseModel(Enum):
    """How the post-combining data error probability p_c is obtained."""

    ZERO = "zero"
    PRODUCT = "product"
    FINITE_BLOCKLENGTH = "finite_blocklength"

    @property
    def reads_sinr(self) -> bool:  # may p_c depend on the link's SINR?
        return self not in (ChaseModel.ZERO, ChaseModel.PRODUCT)


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


def _link_count(profiles: Sequence[LinkBlerProfile]) -> int:
    """The number of links, at least one and at most ``MAX_NODES``, checked
    before a run or a mix builds anything per link."""
    m = len(profiles)
    if m < 1:
        raise DomainError("at least one link profile is required")
    if m > MAX_NODES:
        raise ValidationError(f"at most {MAX_NODES} link profiles are allowed, got {m}")
    return m


def succ_first(profile: LinkBlerProfile) -> float:
    """Probability that metadata and data decode on the first attempt."""
    return (1.0 - profile.p_m) * (1.0 - profile.p_d)


def _link_outage(p: LinkBlerProfile) -> float:
    # the one place p_out is written: one minus the first-try success and
    # the factored sum of the two retransmission paths
    p2 = (1.0 - p.p_m) * (p.p_m * (1.0 - p.p_d) + (1.0 - p.p_m) * (p.p_d - p.p_c))
    return max(0.0, 1.0 - succ_first(p) - p2)


def sc_outage(profile: LinkBlerProfile) -> OutageBreakdown:
    """Full per-link outage breakdown for at most one retransmission.

    The timeout path is reached when the first metadata is lost; no
    combining is possible because the first copy could not be identified.
    On the NACK path the combined decode fails with the conditional
    probability p_c / p_d given the first data decode failed, which
    contracts to the (p_d - p_c) factor. ``p_out`` is computed by
    ``_link_outage``, which ``mc_outage`` calls too.
    """
    p_m, p_d, p_c = profile.p_m, profile.p_d, profile.p_c
    return OutageBreakdown(
        p_succ_first=succ_first(profile),
        p_succ_timeout_retx=p_m * (1.0 - p_m) * (1.0 - p_d),
        p_succ_nack_retx=(1.0 - p_m) * (1.0 - p_m) * (p_d - p_c),
        p_out=_link_outage(profile),
    )


def mc_outage(profiles: Sequence[LinkBlerProfile]) -> float:
    """Outage of a packet duplicated over all given links.

    The copies are decoded independently and never combined across
    links, so the packet is lost only if every link's own HARQ round
    fails. Each factor is ``sc_outage(profile).p_out``, computed by its
    ``_link_outage`` alone; a link holding the previous link's profile
    object reuses it, and the product takes one factor per link, in order.
    """
    if len(profiles) < 1:
        raise DomainError("at least one link profile is required")
    out, last = 1.0, None
    for profile in profiles:
        if profile is not last:
            p_out, last = _link_outage(profile), profile
        out *= p_out
    return out


def success_mix(profiles: Sequence[LinkBlerProfile]) -> np.ndarray:
    """Exact success mix of a packet duplicated over the given links.

    Cell (a, b) is the probability that exactly ``a`` links succeed on the
    first try and ``b`` on the retransmission, the exact counterpart of
    ``SimAggregate.success_mix``; its reversed row sums are the
    distribution of the number of retransmitting links. Each link enters
    as its outage factor plus the shifted success terms, so cell (0, 0)
    takes the products of ``mc_outage`` and equals it bit for bit.
    """
    m = _link_count(profiles)
    mix = np.zeros((m + 1, m + 1))
    mix[0, 0] = 1.0
    for profile in profiles:
        bd = sc_outage(profile)
        step = mix * bd.p_out
        step[1:] += mix[:-1] * bd.p_succ_first
        step[:, 1:] += mix[:, :-1] * (bd.p_succ_timeout_retx + bd.p_succ_nack_retx)
        mix = step
    return mix


def chase_bler(
    model: ChaseModel, p_d: float, ctx: Optional[FblContext] = None
) -> float:
    """Post-combining data error probability p_c under the chosen model.

    ZERO: combining always succeeds. PRODUCT: the combined decode fails
    only if both copies would fail independently. FINITE_BLOCKLENGTH:
    re-evaluate the block error rate at the summed SINR of the two
    equal-power copies, same payload, over the channel uses that ``ctx``
    needs for a single copy at ``p_d``; requires ``ctx``. That BLER is
    computed by ``fbl._bler``, as in ``achieved_bler``, from the capacity
    and dispersion at the summed SINR; no context is built for it.
    """
    _check_prob("p_d", p_d)
    if model is ChaseModel.ZERO:
        return 0.0
    if model is ChaseModel.PRODUCT:
        return p_d * p_d
    if ctx is None:
        raise ValidationError("FINITE_BLOCKLENGTH chase model requires an FblContext")
    sinr = 2.0 * ctx.sinr_linear
    capacity, dispersion = shannon_capacity(sinr), channel_dispersion(sinr)
    return _bler(ctx.payload_bits, capacity, dispersion, channel_use(ctx, p_d))
