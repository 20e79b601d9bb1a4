"""Finite-blocklength channel-coding math for AWGN links.

Normal-approximation machinery: Gaussian Q-function and its inverse,
Shannon capacity, channel dispersion, and the closed-form channel-use
count for a payload at a target block error rate (plus its inverse).
All functions are pure and scalar. ``FblContext`` is a link's payload and
SINR, with ``capacity`` and ``dispersion`` as read-only properties.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import NamedTuple

from .errors import DomainError, checked, integer, real, shown

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()

# Supremum of V(gamma), reached as gamma -> inf.
DISPERSION_LIMIT = 1.0 / math.log(2.0) ** 2


def q_func(x: float) -> float:
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    if not real(x):
        raise DomainError(f"q_func argument must be finite, got {shown(x)}")
    return _q(x)


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / _SQRT2)


def q_inv(p: float) -> float:
    """Inverse of q_func on (0, 1).

    Wichura's AS241 inverse normal (``statistics.NormalDist.inv_cdf``)
    polished with one Newton step against q_func, which keeps the
    q_func/q_inv roundtrip below 1e-12 relative error over p in
    [1e-12, 1 - 1e-12].
    """
    if not (real(p) and 0.0 < p < 1.0):
        raise DomainError(f"q_inv argument must be in (0, 1), got {shown(p)}")
    return _q_inv(p)


def _q_inv(p: float) -> float:
    x = -_STANDARD_NORMAL.inv_cdf(p)
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if pdf > 0.0:
        x += (_q(x) - p) / pdf
    return x


def shannon_capacity(sinr_linear: float) -> float:
    """AWGN capacity C = log2(1 + sinr) in bits per channel use."""
    if not (real(sinr_linear) and sinr_linear > 0.0):
        raise DomainError(f"sinr_linear must be positive, got {shown(sinr_linear)}")
    return math.log2(1.0 + sinr_linear)


def channel_dispersion(sinr_linear: float) -> float:
    """Channel dispersion V = (1 - 1/(1+sinr)^2) / ln(2)^2.

    Strictly increasing in the SINR and below 1/ln(2)^2 for finite
    positive SINR (squared information units per channel use); in double
    precision it rounds to that limit from about 81 dB on.
    """
    if not (real(sinr_linear) and sinr_linear > 0.0):
        raise DomainError(f"sinr_linear must be positive, got {shown(sinr_linear)}")
    try:
        return DISPERSION_LIMIT * (1.0 - 1.0 / (1.0 + sinr_linear) ** 2)
    except OverflowError:
        # past about 1,541 dB; 1/(1+sinr)^2 < 2**-1022 there, so the
        # correctly rounded V is the limit itself
        return DISPERSION_LIMIT


def db_to_linear(x_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    if not real(x_db):
        raise DomainError(f"x_db must be a finite number, got {shown(x_db)}")
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise DomainError(f"must be finite in linear scale, got {shown(x_db)} dB") from None


@checked
class FblContext(NamedTuple):
    """Payload size and link SINR, with the coding quantities they give.

    ``capacity`` and ``dispersion`` are read-only properties, computed from
    ``sinr_linear`` at each read. A SINR so small that ``1 + sinr`` rounds to
    1 gives a zero capacity, which no channel use can reach, and is rejected.
    """

    payload_bits: int
    sinr_linear: float

    def _check(self) -> None:
        bits = self.payload_bits
        if not (integer(bits) and real(bits) and bits >= 1):
            raise DomainError(f"payload_bits must be a positive integer, got {shown(bits)}")
        if shannon_capacity(self.sinr_linear) == 0.0:
            raise DomainError(
                f"capacity log2(1 + sinr) rounds to 0 at sinr_linear {self.sinr_linear!r}"
            )

    @property
    def capacity(self) -> float:
        return shannon_capacity(self.sinr_linear)

    @property
    def dispersion(self) -> float:
        return channel_dispersion(self.sinr_linear)


def channel_use(ctx: FblContext, bler: float) -> float:
    """Channel uses R that carry ctx.payload_bits at the given BLER.

    Positive root of L = R*C - Qinv(bler)*sqrt(R*V), solved as a
    quadratic in sqrt(R). Valid for bler in (0, 0.5), where Qinv is
    nonnegative and the positive-root selection holds; R is real-valued
    (no rounding to resource blocks).
    """
    return _uses(ctx.payload_bits, ctx.capacity, ctx.dispersion, _sized_q_inv(bler))


def _sized_q_inv(bler: float) -> float:  # channel_use's check, then _uses's qi
    if not (real(bler) and 0.0 < bler < 0.5):
        raise DomainError(f"bler must be in (0, 0.5), got {shown(bler)}")
    return _q_inv(bler)


def _uses(bits: int, c: float, v: float, qi: float) -> float:
    # channel_use from qi = q_inv(bler) of a checked bler; raises on overflow
    root = (qi * math.sqrt(v) + math.sqrt(qi * qi * v + 4.0 * bits * c)) / (2.0 * c)
    uses = root * root
    if not math.isfinite(uses):
        raise DomainError(f"channel use of a {bits!r}-bit payload overflows")
    return uses


def achieved_bler(ctx: FblContext, channel_uses: float) -> float:
    """BLER achieved when the payload is sent over ``channel_uses`` uses.

    Inverse of :func:`channel_use` on its valid domain; strictly
    decreasing in ``channel_uses``. The value is computed by ``_bler``,
    which ``outage.chase_bler`` calls too.
    """
    if not (real(channel_uses) and channel_uses > 0.0):
        raise DomainError(f"channel_uses must be positive and finite, got {shown(channel_uses)}")
    return _bler(ctx.payload_bits, ctx.capacity, ctx.dispersion, channel_uses)


def _bler(payload_bits: int, capacity: float, dispersion: float, channel_uses: float) -> float:
    # normal approximation at checked inputs: the one place it is written
    arg = (channel_uses * capacity - payload_bits) / math.sqrt(channel_uses * dispersion)
    return q_func(arg)
