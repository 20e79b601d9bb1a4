"""Closed-form success and outage probabilities for one HARQ round.

Single link: first transmission, retransmission after a feedback timeout
(metadata lost, no combining) and retransmission after a NACK (Chase
combining with the first data copy), an event tree that ``_leaves``
alone writes. Duplicated transmission: product of the per-link outages,
since every link runs its own independent HARQ round and copies are
never combined across links. Its success mix holds every per-round
distribution: outage, retransmissions and latency.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError, ValidationError, checked, real, shown
from .fbl import FblContext, _bler, _q_inv, _uses, channel_dispersion, shannon_capacity

# Most duplicating links a solve, a scenario, an m sweep, a simulation or an
# exact success mix may use. The paper evaluates m <= 3 and the benchmark
# sweeps to 8; past about m = 40 the solver cannot bracket even a 1e-12
# outage target.
MAX_NODES = 64

def _check_prob(name: str, value) -> None:
    if not (real(value) and 0.0 <= value <= 1.0):
        raise DomainError(f"{name} must be a probability in [0, 1], got {shown(value)}")


@checked
class LinkBlerProfile(NamedTuple):
    """The three error probabilities of one link.

    Metadata and data block error rates, held equal across the initial
    transmission and the retransmission (the time between them is short),
    plus the data error probability after Chase combining. Combining can
    only help, so p_c may not exceed p_d.
    """

    p_m: float
    p_d: float
    p_c: float

    def _check(self) -> None:
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


class OutageBreakdown(NamedTuple):
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


def _leaves(p_m: float, p_d: float, p_c: float) -> tuple:
    """A link's leaves in ``OutageBreakdown`` order: first-try, timeout and
    NACK success, and outage, one minus the others in factored form and
    clamped at 0. Floats (or ints) in, floats out; it runs on mpmath too."""
    q_m, q_d = 1.0 - p_m, 1.0 - p_d
    first = q_m * q_d
    out = 1.0 - first - q_m * (p_m * q_d + q_m * (p_d - p_c))
    return first, p_m * q_m * q_d, q_m * q_m * (p_d - p_c), out if out > 0.0 else 0.0


def sc_outage(profile: LinkBlerProfile) -> OutageBreakdown:
    """Full per-link outage breakdown for at most one retransmission.

    The timeout path follows a lost first metadata, with no combining as
    the first copy cannot be identified. On the NACK path the combined
    decode fails with probability p_c / p_d given a failed first data
    decode, which contracts to the (p_d - p_c) factor.
    """
    return OutageBreakdown(*_leaves(profile.p_m, profile.p_d, profile.p_c))


def mc_outage(profiles: Sequence[LinkBlerProfile]) -> float:
    """Outage of a packet duplicated over all given links.

    The copies are decoded independently and never combined across
    links, so the packet is lost only if every link's own HARQ round
    fails. The product takes one outage factor per link, in order.
    """
    _link_count(profiles)
    out = 1.0
    for profile in profiles:
        out *= _leaves(profile.p_m, profile.p_d, profile.p_c)[3]
    return out


def success_mix(profiles: Sequence[LinkBlerProfile]) -> Tuple[Tuple[float, ...], ...]:
    """Exact success mix of a packet duplicated over the given links.

    Cell [a][b] is the probability that exactly ``a`` links succeed on the
    first try and ``b`` on the retransmission, the exact counterpart of
    ``SimAggregate.success_mix``; its reversed row sums are the
    distribution of the number of retransmitting links. Each link enters
    as its outage factor plus the shifted success terms, so cell [0][0]
    takes the products of ``mc_outage`` and equals it bit for bit.
    """
    m = _link_count(profiles)
    zero = [0.0] * (m + 1)
    mix = [[1.0, *zero[1:]], *[zero] * m]
    for profile in profiles:
        first, timeout, nack, out = map(float, _leaves(profile.p_m, profile.p_d, profile.p_c))
        retx = timeout + nack
        # a missing neighbour (row a - 1 or column b - 1) adds an exact 0.0
        mix = [[(x * out + up * first) + left * retx
                for x, up, left in zip(row, above, [0.0, *row])]
               for row, above in zip(mix, [zero, *mix])]
    return tuple(map(tuple, mix))


def chase_bler(model: ChaseModel, p_d: float, ctx: Optional[FblContext] = None) -> float:
    """Post-combining data error probability p_c under the chosen model.

    ZERO: combining always succeeds. PRODUCT: the combined decode fails
    only if both copies would fail independently. FINITE_BLOCKLENGTH:
    re-evaluate the block error rate at the summed SINR of the two
    equal-power copies, same payload, over the channel uses that ``ctx``
    needs for a single copy at ``p_d`` < 0.5; requires ``ctx``; computed by
    ``fbl._bler``, as in ``achieved_bler``, with no context built for it.
    """
    _check_prob("p_d", p_d)
    return _chase_of(model, ctx)(p_d)


def _chase_of(model: ChaseModel, ctx: Optional[FblContext]) -> Callable[[float], float]:
    """``chase_bler`` at one model and link as a function of p_d, the link's
    constants and the pair at twice its SINR (two combined copies) computed
    once, here; an unusable model or link raises here, not in it, except a
    doubled SINR that overflows to inf, which raises after the p_d check."""
    if model is ChaseModel.ZERO:
        return lambda p_d: 0.0
    if model is ChaseModel.PRODUCT:
        return lambda p_d: p_d * p_d
    if not isinstance(model, ChaseModel):
        raise ValidationError(f"chase model must be a ChaseModel, got {model!r}")
    if not isinstance(ctx, FblContext):
        raise ValidationError("FINITE_BLOCKLENGTH chase model requires an FblContext")
    bits, capacity, dispersion = ctx.payload_bits, ctx.capacity, ctx.dispersion
    two = 2.0 * ctx.sinr_linear  # the summed SINR of two combined copies
    capacity2 = dispersion2 = None  # None where it overflows to inf
    if real(two):
        capacity2, dispersion2 = shannon_capacity(two), channel_dispersion(two)

    def finite_blocklength(p_d: float) -> float:
        if not 0.0 < p_d < 0.5:  # the BLER range that channel_use sizes
            raise DomainError(
                f"p_d: finite_blocklength chase needs a BLER in (0, 0.5), got {p_d!r}")
        if capacity2 is None:
            shannon_capacity(two)  # raises its error
        return _bler(bits, capacity2, dispersion2, _uses(bits, capacity, dispersion, _q_inv(p_d)))

    return finite_blocklength
