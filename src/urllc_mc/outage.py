"""Closed-form success and outage probabilities for one HARQ round.

Single link: first transmission, retransmission after a feedback timeout
(metadata lost, no combining) and retransmission after a NACK (Chase
combining with the first data copy), an event tree that ``_leaves``
alone writes. Duplicated transmission: product of the per-link outages,
since every link runs its own independent HARQ round and copies are
never combined across links. Its success mix holds every per-round
distribution: outage, retransmissions and latency.

Only ``success_mix`` reads numpy, and imports it when called: the closed
forms run on the standard library.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .errors import DomainError, ValidationError, checked, real, shown
from .fbl import FblContext, _bler, channel_use

if TYPE_CHECKING:
    import numpy as np

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


def success_mix(profiles: Sequence[LinkBlerProfile]) -> np.ndarray:
    """Exact success mix of a packet duplicated over the given links.

    Cell (a, b) is the probability that exactly ``a`` links succeed on the
    first try and ``b`` on the retransmission, the exact counterpart of
    ``SimAggregate.success_mix``; its reversed row sums are the
    distribution of the number of retransmitting links. Each link enters
    as its outage factor plus the shifted success terms, so cell (0, 0)
    takes the products of ``mc_outage`` and equals it bit for bit.
    """
    import numpy as np

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
    needs for a single copy at ``p_d`` < 0.5; requires ``ctx``. That BLER is
    computed by ``fbl._bler``, as in ``achieved_bler``, from the capacity
    and dispersion at the summed SINR, which ``ctx`` computes once; no
    context is built for it.
    """
    _check_prob("p_d", p_d)
    if model is ChaseModel.ZERO:
        return 0.0
    if model is ChaseModel.PRODUCT:
        return p_d * p_d
    if not isinstance(model, ChaseModel):
        raise ValidationError(f"chase model must be a ChaseModel, got {model!r}")
    if not isinstance(ctx, FblContext):
        raise ValidationError("FINITE_BLOCKLENGTH chase model requires an FblContext")
    if not 0.0 < p_d < 0.5:  # the BLER range that channel_use sizes
        raise DomainError(f"p_d: finite_blocklength chase needs a BLER in (0, 0.5), got {p_d!r}")
    capacity, dispersion = ctx._two_copy
    return _bler(ctx.payload_bits, capacity, dispersion, channel_use(ctx, p_d))
