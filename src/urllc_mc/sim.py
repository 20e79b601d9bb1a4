"""Monte Carlo HARQ event simulator with reproducible parallel streams.

Each trial plays the per-link reception event tree (first transmission,
timeout retransmission, NACK retransmission with Chase combining) on
every link and duplicates the packet across links. A run keeps two
integer tables and nothing per trial: each link's event-tree leaf
counts, and the success mix, which counts the trials in which ``a``
links succeeded on the first try and ``b`` links on the retransmission.
Outage and channel-use counts follow from the mix, so memory is O(m^2)
whatever the trial count.

Random stream (``STREAM_VERSION`` 2): link n of a trial reads words
4n .. 4n + 3 of the trial's row of uint32 words: first metadata, first
data, second metadata, and a second-stage word that is the
retransmitted-data decode on the timeout path and the combined decode on
the NACK path (the paths are mutually exclusive, so one word serves
both). Rows come from Philox4x64 keyed by the seed, as the little-endian
halves of its 64-bit outputs, padded to whole Philox blocks of eight
words, so trial i starts at block i * ceil(m / 2). Any batch size or
worker count therefore sees the same words for the same trial and gives
bit-identical tallies. An event of probability p fires when its word is
below the integer threshold floor(p * 2**32): p = 0 never fires, p = 1
always does, and every other event probability is low by less than
2**-32 (about 2.3e-10), below the solver's 1e-9 lower bracket.

Estimates read the tallies: ``SimAggregate.outage`` and ``mean_usage``
directly, the latency functions together with the numerology and the
frame-alignment mode. Frame alignment is uniform on [0, 1) TTI and moves
only the latency, so it is not drawn: latency quantiles come from the
exact latency distribution given the success mix, a conditional Monte
Carlo (Rao-Blackwell) estimator (see ``latency_quantile``).

Plain Monte Carlo only: validate at error rates where the binomial
intervals are meaningful, not at the 1e-5 operating points.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.random import Philox

from .errors import DomainError, ValidationError
from .outage import LinkBlerProfile

# Layout of the random stream; any change to the draws bumps it.
STREAM_VERSION = 2

# uint32 words per link and per Philox4x64 block
_WORDS_PER_NODE = 4
_WORDS_PER_BLOCK = 8

# Small enough that a batch's draws (32 bytes per trial for every two
# links) stay in a core's L2 cache for the usual m <= 3.
DEFAULT_BATCH_SIZE = 1 << 14

# Most worker threads a run may use; the pool submits every batch at once.
MAX_JOBS = 64


@dataclass(frozen=True)
class Numerology:
    """Mini-slot timing constants; durations are in TTIs unless noted.

    The default is a four-symbol mini-slot at 30 kHz subcarrier spacing
    (TTI of 1/7 ms) and a HARQ round-trip of four TTIs, which fits one
    retransmission in a 1 ms budget. A retransmission after a feedback
    timeout is scheduled on the same HARQ round-trip as one after a NACK.
    """

    scs_khz: float = 30.0
    symbols_per_tti: int = 4
    harq_rtt_ttis: int = 4
    t_up_ttis: float = 1.0
    t_tx_ttis: float = 1.0
    t_bp_initial_ttis: float = 0.0

    def __post_init__(self) -> None:
        for name in ("scs_khz", "t_up_ttis", "t_tx_ttis", "t_bp_initial_ttis"):
            value = getattr(self, name)
            # an exact comparison, so an int too large for a float fails too
            if not abs(value) <= sys.float_info.max:
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if not self.scs_khz > 0:
            raise ValidationError(f"scs_khz must be positive, got {self.scs_khz!r}")
        for name in ("symbols_per_tti", "harq_rtt_ttis"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ValidationError(f"{name} must be a positive integer, got {value!r}")
        if not self.t_tx_ttis > 0:
            raise ValidationError(f"t_tx_ttis must be positive, got {self.t_tx_ttis!r}")
        for name in ("t_up_ttis", "t_bp_initial_ttis"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")


def _ms_from_ttis(numerology: Numerology, ttis: float) -> float:
    # grouped so that integer TTI totals come out exact (e.g. 7 TTIs at
    # 4 symbols / 30 kHz is exactly 1.0 ms)
    return (ttis * numerology.symbols_per_tti) * (15.0 / numerology.scs_khz) / 14.0


def tti_duration_ms(numerology: Numerology) -> float:
    """TTI length in ms: symbols_per_tti * (15 / scs_khz) / 14."""
    return _ms_from_ttis(numerology, 1.0)


def latency_budget_check(numerology: Numerology, budget_ms: float) -> tuple[float, bool]:
    """Worst-case one-retransmission latency and whether it fits the budget.

    Worst case: a full TTI of frame alignment, the HARQ round trip, the
    retransmission itself and the receiver processing time.
    """
    if not budget_ms > 0:
        raise ValidationError(f"budget_ms must be positive, got {budget_ms!r}")
    worst_ttis = (
        1.0
        + numerology.harq_rtt_ttis
        + numerology.t_tx_ttis
        + numerology.t_up_ttis
        + numerology.t_bp_initial_ttis
    )
    worst_ms = _ms_from_ttis(numerology, worst_ttis)
    return worst_ms, worst_ms <= budget_ms


@dataclass(frozen=True)
class SimAggregate:
    """Integer tallies of a run and their provenance.

    ``leaf_counts[n]`` are the per-link event-tree leaf tallies
    (first-try success, timeout-path success, NACK-path success, outage)
    of link n. ``success_mix[a, b]`` counts the trials in which exactly
    ``a`` links succeeded on the first try and ``b`` links on their
    retransmission. Tallies of disjoint trial ranges merge by plain sums.
    """

    trials: int
    seed: int
    m_nodes: int
    leaf_counts: np.ndarray  # (m, 4) int64
    success_mix: np.ndarray  # (m + 1, m + 1) int64
    stream_version: int = STREAM_VERSION

    @property
    def n_success(self) -> int:
        return self.trials - int(self.success_mix[0, 0])

    @property
    def usage_extra_counts(self) -> np.ndarray:
        """``[k]``: trials in which exactly k links retransmitted, i.e.
        (m + k) transmissions; the m - a links that missed the first
        try all retransmit."""
        return self.success_mix.sum(axis=1)[::-1]

    def usage_multiples_sum(self) -> int:
        extras = int(np.sum(self.usage_extra_counts * np.arange(self.m_nodes + 1)))
        return self.m_nodes * self.trials + extras

    def outage(self) -> Tuple[float, float]:
        """Outage proportion and its 95% half-width (normal-approximation
        binomial interval)."""
        mean = (self.trials - self.n_success) / self.trials
        return mean, 1.96 * math.sqrt(mean * (1.0 - mean) / self.trials)

    def mean_usage(self) -> Tuple[float, float]:
        """Mean usage in multiples of one transmission's channel uses, and
        its 95% half-width."""
        n = self.trials
        mean = self.usage_multiples_sum() / n
        values = self.m_nodes + np.arange(self.m_nodes + 1)
        total_sq = int(np.sum(values * values * self.usage_extra_counts))
        var = max(0.0, total_sq / n - mean * mean)
        return mean, 1.96 * math.sqrt(var / n)


def _threshold(p: float) -> int:
    """Integer threshold of an event of probability p on uint32 words."""
    return math.floor(p * 2**32)


def _thresholds(profile: LinkBlerProfile) -> Tuple[int, int, int, int, int]:
    # the combined decode after a NACK fails with the conditional
    # probability p_c / p_d1 given that the first data decode failed
    cond_fail = profile.p_c / profile.p_d1 if profile.p_d1 > 0 else 0.0
    return tuple(
        _threshold(p)
        for p in (profile.p_m1, profile.p_d1, profile.p_m2, profile.p_d2, cond_fail)
    )


def _run_batch(
    thresholds: Sequence[Tuple[int, int, int, int, int]],
    seed: int,
    start: int,
    count: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Leaf counts and success mix of trials [start, start + count)."""
    m = len(thresholds)
    blocks = -(-_WORDS_PER_NODE * m // _WORDS_PER_BLOCK)  # per trial
    bits = Philox(key=seed)
    bits.advance(start * blocks)
    # four 64-bit outputs per block
    raw = bits.random_raw(count * blocks * 4)
    u = raw.view(np.uint32).reshape(count, blocks * _WORDS_PER_BLOCK)
    leaf_counts = np.empty((m, 4), dtype=np.int64)
    # per-trial success counts, then the mix cell a * (m + 1) + b
    cell_dtype = np.min_scalar_type((m + 1) ** 2 - 1)
    first_ok = np.zeros(count, dtype=cell_dtype)
    retx_ok = np.zeros(count, dtype=cell_dtype)
    for n, (t_m1, t_d1, t_m2, t_d2, t_c) in enumerate(thresholds):
        meta1, data1, meta2, stage2 = u[:, _WORDS_PER_NODE * n : _WORDS_PER_NODE * (n + 1)].T
        meta1_fail = meta1 < t_m1
        data1_fail = data1 < t_d1
        meta2_ok = meta2 >= t_m2
        first = ~(meta1_fail | data1_fail)
        timeout = meta1_fail & meta2_ok & (stage2 >= t_d2)
        nack = data1_fail & ~meta1_fail & meta2_ok & (stage2 >= t_c)
        n_first = np.count_nonzero(first)
        n_timeout = np.count_nonzero(timeout)
        n_nack = np.count_nonzero(nack)
        leaf_counts[n] = (n_first, n_timeout, n_nack, count - n_first - n_timeout - n_nack)
        first_ok += first
        retx_ok += timeout | nack
    first_ok *= m + 1
    first_ok += retx_ok
    mix = np.bincount(first_ok, minlength=(m + 1) ** 2)
    return leaf_counts, mix.reshape(m + 1, m + 1)


def simulate_run(
    profiles: Sequence[LinkBlerProfile],
    trials: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
    jobs: int = 1,
) -> SimAggregate:
    """Run ``trials`` independent HARQ rounds and tally the outcomes.

    Counts accumulate as integers, so the aggregate is identical for any
    ``batch_size``/``jobs`` split, and memory does not grow with
    ``trials``.
    """
    if len(profiles) < 1:
        raise DomainError("at least one link profile is required")
    if not (isinstance(trials, int) and trials >= 1):
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if not (isinstance(seed, int) and 0 <= seed < 2**128):
        # the seed is the 128-bit Philox key
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if batch_size < 1 or jobs < 1:
        raise ValidationError("batch_size and jobs must be positive")
    if jobs > MAX_JOBS:
        raise ValidationError(f"jobs must be at most {MAX_JOBS}, got {jobs!r}")
    m = len(profiles)
    thresholds = [_thresholds(p) for p in profiles]
    starts = range(0, trials, batch_size)
    leaf_counts = np.zeros((m, 4), dtype=np.int64)
    mix = np.zeros((m + 1, m + 1), dtype=np.int64)

    def run(start: int):
        return _run_batch(thresholds, seed, start, min(batch_size, trials - start))

    # the pool starts threads only when the parallel branch submits work
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        parallel = jobs > 1 and len(starts) > 1
        for batch_leaves, batch_mix in (pool.map if parallel else map)(run, starts):
            leaf_counts += batch_leaves
            mix += batch_mix
    return SimAggregate(
        trials=trials, seed=seed, m_nodes=m, leaf_counts=leaf_counts, success_mix=mix
    )


def _latency_offsets(numerology: Numerology) -> Tuple[float, float]:
    """Latency of a first-try and of a retransmission success, in TTIs,
    before the frame alignment is added."""
    first = numerology.t_bp_initial_ttis + numerology.t_tx_ttis + numerology.t_up_ttis
    retx = numerology.harq_rtt_ttis + numerology.t_tx_ttis + numerology.t_up_ttis
    return first, retx


def _latency_tail(
    agg: SimAggregate, numerology: Numerology, x: float, shared_frame_alignment: bool
) -> float:
    """Number of successful trials, in expectation over the frame
    alignment, whose latency exceeds ``x`` TTIs.

    Given the mix cell (a, b), a link succeeding first-try delivers at
    t_fa + o1 and one succeeding on the retransmission at t_fa + o2, with
    t_fa uniform on [0, 1). With one shared alignment the packet arrives
    at t_fa plus the smallest offset present; with independent
    alignments P(L > x) = (1 - F(x - o1))^a (1 - F(x - o2))^b, where F is
    the uniform CDF.
    """
    o1, o2 = _latency_offsets(numerology)
    late1 = 1.0 - min(max(x - o1, 0.0), 1.0)
    late2 = 1.0 - min(max(x - o2, 0.0), 1.0)
    k = np.arange(agg.m_nodes + 1)
    a, b = k[:, None], k[None, :]
    if shared_frame_alignment:
        late = np.minimum(np.where(a > 0, late1, 1.0), np.where(b > 0, late2, 1.0))
    else:
        late = late1**a * late2**b
    late[0, 0] = 0.0  # outage: no latency
    return float(np.sum(agg.success_mix * late))


def latency_cdf(agg: SimAggregate, numerology: Numerology, x: float,
                shared_frame_alignment: bool = True) -> float:
    """P(latency <= ``x`` TTIs | success), exact given the success mix.

    NaN when the run saw no success.
    """
    if agg.n_success == 0:
        return math.nan
    return 1.0 - _latency_tail(agg, numerology, x, shared_frame_alignment) / agg.n_success


def latency_quantile(agg: SimAggregate, numerology: Numerology, q: float,
                     shared_frame_alignment: bool = True) -> float:
    """Smallest x in TTIs with ``latency_cdf(...) >= q``; NaN when the run
    saw no success.

    The frame alignment is integrated out exactly, so the only sampling
    error is that of the success mix, and no interval is attached.
    Bisection runs to full double precision on the support
    [min offset, max offset + 1] and compares the tail with (1 - q), so
    q = 1 yields exactly the upper end of the support.
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"q must be in (0, 1], got {q!r}")
    if agg.n_success == 0:
        return math.nan
    o1, o2 = _latency_offsets(numerology)
    lo, hi = min(o1, o2), max(o1, o2) + 1.0
    allowed = (1.0 - q) * agg.n_success
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _latency_tail(agg, numerology, mid, shared_frame_alignment) <= allowed:
            hi = mid
        else:
            lo = mid
