"""Monte Carlo HARQ event simulator with reproducible parallel streams.

Each trial plays the per-link reception event tree (first transmission,
timeout retransmission, NACK retransmission with Chase combining) on
every link and duplicates the packet across links. A run keeps two
integer tables and nothing per trial: each link's event-tree leaf
counts, and the success mix, which counts the trials in which ``a``
links succeeded on the first try and ``b`` links on the retransmission.
Outage and channel-use counts follow from the mix, so memory is O(m^2)
whatever the trial count.

Random stream (``STREAM_VERSION`` 3): each HARQ attempt of a link reads
one uint32 word, split into bands by cumulative integer thresholds
computed in exact rational arithmetic: the attempt's metadata decode
fails below floor(p_m * 2**32), its data decode in [floor(p_m * 2**32),
floor((p_m + (1 - p_m) * p_d) * 2**32)), and it succeeds above. A
timeout retransmission reuses the first attempt's bands; a NACK
retransmission, whose combined decode fails with p_c / p_d given that
the first data decode failed, fails below
floor((p_m + (1 - p_m) * p_c / p_d) * 2**32). Trial i of an m-link run
reads the 64-bit outputs m * i .. m * i + m - 1 of Philox4x64 keyed by
the seed; link n takes uint32 words 2n (first attempt) and 2n + 1
(second attempt) of that row, the little-endian halves of output n.
Being counter-based, the stream can be positioned at any trial,
mid-block included: each worker thread positions its own generator once,
at the first trial of its contiguous share of the batches, and reads the
batches in order. So any batch size or worker count sees the same words
for the same trial and gives bit-identical tallies. The workers draw side
by side, since the Philox draw releases the GIL, but tally one at a time
under one lock: a tally is some forty short numpy calls, and two workers
tallying at once hand the GIL back and forth until both are slower than
one. A tally gathers the trials in which some link missed its first try
and reads only those further; when most trials miss, a run tallies every
trial instead (dense), which skips the gather. Every band is within
2**-32 (about 2.3e-10) of its probability, below the solver's 1e-9 lower
bracket; probabilities 0 and 1 are exact.

Estimates read the tallies: ``SimAggregate.outage`` and ``mean_usage``
directly, ``latency_quantile`` a success mix (``agg.success_mix``, or
the exact ``outage.success_mix``) with the numerology and the
frame-alignment mode. Frame alignment is uniform on [0, 1) TTI and
moves only the latency, so it is not drawn: latency quantiles come from
the exact latency distribution given the mix, a conditional Monte Carlo
(Rao-Blackwell) estimator (see ``latency_quantile``).

Plain Monte Carlo only: validate at error rates where the binomial
intervals are meaningful, not at the 1e-5 operating points.

numpy, its Philox generator and the thread pool are imported by the
functions that draw or tally, not with the module, so the closed-form
commands that import ``Numerology`` run without them.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence, Tuple

from .errors import ValidationError, checked, integer, real, shown
from .outage import LinkBlerProfile, _link_count

if TYPE_CHECKING:
    import numpy as np
    from numpy.random import Philox

# Layout of the random stream; any change to the draws bumps it.
STREAM_VERSION = 3

# Trials per batch: small enough that a batch's draws (8 bytes per trial
# and link) and the first-try mask stay in a core's L2 cache for the usual
# m <= 3. The tallies do not depend on it.
BATCH_SIZE = 1 << 14

# Most trials a run may hold: the limit of its int64 tallies.
MAX_TRIALS = 2**63 - 1

# Largest seed: the seed is the 128-bit Philox key.
MAX_SEED = 2**128 - 1

# Most worker threads a run may use; each draws its own contiguous share
# of the batches and adds them into the run's one pair of tables under one
# lock, so memory does not grow with the run. Only the draws run in
# parallel, so workers beyond those needed to keep one tally busy only wait.
MAX_JOBS = 64


@checked
class Numerology(NamedTuple):
    """Mini-slot timing constants; durations are in TTIs unless noted.

    The default is a four-symbol mini-slot at 30 kHz subcarrier spacing
    (TTI of 1/7 ms) and a HARQ round-trip of four TTIs, which fits one
    retransmission in a 1 ms budget. A retransmission after a feedback
    timeout is scheduled on the same HARQ round-trip as one after a NACK.
    The initial buffering delay ``t_bp_initial_ttis`` delays every delivery.
    """

    scs_khz: float = 30.0
    symbols_per_tti: int = 4
    harq_rtt_ttis: int = 4
    t_up_ttis: float = 1.0
    t_tx_ttis: float = 1.0
    t_bp_initial_ttis: float = 0.0

    def _check(self) -> None:
        for name in ("scs_khz", "t_up_ttis", "t_tx_ttis", "t_bp_initial_ttis"):
            if not real(value := getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {shown(value)}")
        if not self.scs_khz > 0:
            raise ValidationError(f"scs_khz must be positive, got {self.scs_khz!r}")
        for name in ("symbols_per_tti", "harq_rtt_ttis"):
            if not (integer(value := getattr(self, name)) and real(value) and value >= 1):
                raise ValidationError(
                    f"{name} must be a positive integer within the float range, "
                    f"got {shown(value)}"
                )
        if not self.t_tx_ttis > 0:
            raise ValidationError(f"t_tx_ttis must be positive, got {self.t_tx_ttis!r}")
        for name in ("t_up_ttis", "t_bp_initial_ttis"):
            if (value := getattr(self, name)) < 0:
                raise ValidationError(f"{name} must be nonnegative, got {shown(value)}")
        worst_ttis = _latency_offsets(self)[1] + 1.0  # latency_budget_check's worst case
        if not (math.isfinite(worst_ttis) and math.isfinite(ttis_to_ms(self, worst_ttis))):
            raise ValidationError("numerology: the worst-case latency must be finite in "
                                  f"TTIs and in ms, got {worst_ttis!r} TTIs")


def ttis_to_ms(numerology: Numerology, ttis: float) -> float:
    """``ttis`` TTIs in ms; one TTI lasts symbols_per_tti * (15 / scs_khz) / 14."""
    if not real(ttis):
        raise ValidationError(f"ttis must be finite, got {shown(ttis)}")
    # grouped so that integer TTI totals come out exact (e.g. 7 TTIs at
    # 4 symbols / 30 kHz is exactly 1.0 ms); float() so that a huge int
    # overflows to inf, as a float does, rather than raising
    return (float(ttis) * numerology.symbols_per_tti) * (15.0 / numerology.scs_khz) / 14.0


def _latency_offsets(numerology: Numerology) -> Tuple[float, float]:
    """Latency of a first-try and of a retransmission success, in TTIs,
    before the frame alignment is added.

    The initial buffering delay ``t_bp_initial_ttis`` precedes the first
    transmission, so it delays every delivery. The retransmission offset
    exceeds the first-try one by ``harq_rtt_ttis >= 1``, so the
    retransmission band [retx, retx + 1) starts no earlier than the
    first-try band [first, first + 1) ends.
    """
    n = numerology
    # summed in float, so that ints past the float range once summed give
    # inf, as floats do, rather than raising
    first = float(n.t_bp_initial_ttis) + n.t_tx_ttis + n.t_up_ttis
    retx = float(n.harq_rtt_ttis) + n.t_tx_ttis + n.t_up_ttis + n.t_bp_initial_ttis
    return first, retx


def latency_budget_check(numerology: Numerology, budget_ms: float) -> tuple[float, bool]:
    """Worst-case one-retransmission latency and whether it fits the budget.

    The worst case is the retransmission offset of ``_latency_offsets``
    plus a full TTI of frame alignment: the upper end of the latency
    support, which ``latency_quantile`` returns at q = 1 when some trial
    was delivered by retransmissions alone.
    """
    if not (real(budget_ms) and budget_ms > 0):
        raise ValidationError(f"budget_ms must be positive and finite, got {shown(budget_ms)}")
    _, retx = _latency_offsets(numerology)
    worst_ms = ttis_to_ms(numerology, retx + 1.0)
    return worst_ms, worst_ms <= budget_ms


class SimAggregate(NamedTuple):
    """Integer tallies of a run and their provenance.

    ``leaf_counts[n]`` are the per-link event-tree leaf tallies
    (first-try success, timeout-path success, NACK-path success, outage)
    of link n. ``success_mix[a][b]`` counts the trials in which exactly
    ``a`` links succeeded on the first try and ``b`` links on their
    retransmission; its reversed row sums count the trials in which
    exactly k links retransmitted, i.e. used m + k transmissions, since
    the m - a links that missed the first try all retransmit. The trial
    and link counts are the mix's sum and size, so they cannot disagree
    with it. Both tables are tuples of Python ints, so tallies of
    disjoint trial ranges merge cell by cell, and the estimates read them
    exactly.
    """

    seed: int
    leaf_counts: Tuple[Tuple[int, ...], ...]  # m rows of 4
    success_mix: Tuple[Tuple[int, ...], ...]  # m + 1 rows of m + 1

    @property
    def trials(self) -> int:
        return sum(map(sum, self.success_mix))

    @property
    def m_nodes(self) -> int:
        return len(self.success_mix) - 1

    @property
    def n_success(self) -> int:
        return self.trials - self.success_mix[0][0]

    def outage(self) -> Tuple[float, float]:
        """Outage proportion and its 95% half-width (normal-approximation
        binomial interval)."""
        mean = self.success_mix[0][0] / self.trials
        return mean, 1.96 * math.sqrt(mean * (1.0 - mean) / self.trials)

    def mean_usage(self) -> Tuple[float, float]:
        """Mean usage in multiples of one transmission's channel uses, and
        its 95% half-width."""
        n, m = self.trials, self.m_nodes
        counts = [sum(r) for r in reversed(self.success_mix)]  # [k]: k retransmitted
        mean = sum((m + k) * c for k, c in enumerate(counts)) / n
        total_sq = sum((m + k) ** 2 * c for k, c in enumerate(counts))
        var = max(0.0, total_sq / n - mean * mean)
        return mean, 1.96 * math.sqrt(var / n)


def _threshold(p: float | Fraction) -> int:
    """Integer threshold of an event of probability p on uint32 words."""
    return math.floor(p * 2**32)


def _thresholds(profile: LinkBlerProfile) -> Tuple[int, int, int]:
    """A link's thresholds, in exact rational arithmetic: an attempt's word
    fails the metadata decode below the first and the attempt below the
    second, which a timeout retransmission shares; a NACK retransmission
    fails below the third."""
    p_m, p_d, p_c = (Fraction(p) for p in (profile.p_m, profile.p_d, profile.p_c))
    # the combined decode after a NACK fails with the conditional
    # probability p_c / p_d given that the first data decode failed
    cond_fail = p_c / p_d if p_d > 0 else Fraction(0)
    return (
        _threshold(p_m),
        _threshold(p_m + (1 - p_m) * p_d),
        _threshold(p_m + (1 - p_m) * cond_fail),
    )


def _stream(seed: int, m: int, start: int) -> Philox:
    """The seed's Philox stream positioned at trial ``start`` of an m-link
    run: its next 64-bit output is output m * start of the stream."""
    from numpy.random import Philox

    bits = Philox(key=seed)
    # four 64-bit outputs per Philox block; a trial may start mid-block
    blocks, skip = divmod(m * start, 4)
    bits.advance(blocks)
    bits.random_raw(skip)
    return bits


def _tally(thresholds: Sequence[Tuple[int, int, int]], raw: np.ndarray, dense: bool,
           leaf_counts: np.ndarray, mix: np.ndarray) -> None:
    """Add the leaf counts and success mix of the trials whose draws are
    ``raw``, m 64-bit outputs per trial (``_stream``), into the run's
    ``leaf_counts`` and ``mix`` in place; the caller holds the tally lock.

    Sparse, the first tries of all links pick the trials in which some
    link missed, and only those read further. Dense, every trial reads
    further, from contiguous copies of each link's words; that is faster
    when most trials miss some first try (``simulate_run``).
    """
    import numpy as np

    m = len(thresholds)
    count = raw.size // m
    u = raw.view(np.uint32).reshape(count, 2 * m)
    if dense:
        all_first, read = 0, count
    else:
        # the trials in which no link missed its first try are first-try
        # successes on every link, mix cell (m, 0)
        missed = u[:, 0] < thresholds[0][1]
        for n in range(1, m):
            missed |= u[:, 2 * n] < thresholds[n][1]
        rows = np.flatnonzero(missed)
        del missed  # freed before the links' words are copied
        all_first, read = count - rows.size, rows.size
    # per-trial success counts, then the mix cell a * (m + 1) + b
    cell_dtype = np.min_scalar_type((m + 1) ** 2 - 1)
    first_ok = np.zeros(read, dtype=cell_dtype)
    retx_ok = np.zeros(read, dtype=cell_dtype)
    for n, (t_meta, t_fail, t_nack) in enumerate(thresholds):
        word = u[:, 2 * n].copy() if dense else u[:, 2 * n][rows]
        first = word >= t_fail
        meta1_fail = word < t_meta
        word = u[:, 2 * n + 1].copy() if dense else u[:, 2 * n + 1][rows]
        timeout = meta1_fail & (word >= t_fail)
        nack = ~(first | meta1_fail) & (word >= t_nack)
        n_first = all_first + np.count_nonzero(first)
        n_timeout = np.count_nonzero(timeout)
        n_nack = np.count_nonzero(nack)
        leaf_counts[n] += (n_first, n_timeout, n_nack, count - n_first - n_timeout - n_nack)
        first_ok += first
        retx_ok += timeout | nack
        # freed before the next link's are made, and the last before bincount
        del word, first, meta1_fail, timeout, nack
    first_ok *= m + 1
    first_ok += retx_ok
    mix += np.bincount(first_ok, minlength=(m + 1) ** 2).reshape(m + 1, m + 1)
    mix[m, 0] += all_first


def simulate_run(
    profiles: Sequence[LinkBlerProfile],
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SimAggregate:
    """Run ``trials`` independent HARQ rounds and tally the outcomes.

    The trials run in batches of ``BATCH_SIZE``, split at whole batches
    into one contiguous share per thread, up to ``jobs`` threads. Each
    thread positions its own stream once, at its share's first trial, and
    reads its batches in order. The threads draw in parallel and take
    turns, under one lock, to add each batch into the run's one pair of
    tables. A batch's draws are freed once it is tallied, before the next
    batch is drawn. The run tallies dense when the thresholds say that
    most trials miss some first try. Counts accumulate as integers, so
    the aggregate is identical for any ``jobs``, and memory does not grow
    with ``trials``.
    """
    m = _link_count(profiles)
    if not (integer(trials) and 1 <= trials <= MAX_TRIALS):
        raise ValidationError(
            f"trials must be a positive integer at most {MAX_TRIALS}, got {shown(trials)}"
        )
    if not (integer(seed) and 0 <= seed <= MAX_SEED):
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {shown(seed)}")
    if not (integer(jobs) and jobs >= 1):
        raise ValidationError(f"jobs must be a positive integer, got {shown(jobs)}")
    if jobs > MAX_JOBS:
        raise ValidationError(f"jobs must be at most {MAX_JOBS}, got {shown(jobs)}")
    import numpy as np

    thresholds = [_thresholds(p) for p in profiles]
    # tally every trial when most of them miss some first try
    dense = math.prod(1 - t_fail / 2**32 for _, t_fail, _ in thresholds) < 0.5
    leaf_counts = np.zeros((m, 4), dtype=np.int64)
    mix = np.zeros((m + 1, m + 1), dtype=np.int64)
    # one worker tallies at a time while the others draw
    tallying = threading.Lock()

    def work(share: range) -> None:
        bits = _stream(seed, m, share[0])
        for start in share:
            raw = bits.random_raw(m * min(BATCH_SIZE, trials - start))
            with tallying:
                _tally(thresholds, raw, dense, leaf_counts, mix)
            del raw  # freed before the next batch is drawn

    starts = range(0, trials, BATCH_SIZE)
    workers = min(jobs, len(starts))
    if workers == 1:
        work(starts)
    else:
        from concurrent.futures import ThreadPoolExecutor

        n = len(starts)
        shares = (starts[n * w // workers:n * (w + 1) // workers] for w in range(workers))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, shares))
    return SimAggregate(seed, tuple(map(tuple, leaf_counts.tolist())),
                        tuple(map(tuple, mix.tolist())))


def _latency_tail(
    mix: Sequence[Sequence[float]], numerology: Numerology, x: float,
    shared_frame_alignment: bool
) -> float:
    """Mass of the mix, in expectation over the frame alignment, whose
    latency exceeds ``x`` TTIs.

    Given the mix cell (a, b), a link succeeding first-try delivers at
    t_fa + o1 and one succeeding on the retransmission at t_fa + o2, with
    t_fa uniform on [0, 1). With one shared alignment the packet arrives
    at t_fa + o1 if a > 0 and at t_fa + o2 otherwise, since o2 >= o1 + 1;
    with independent alignments P(L > x) = (1 - F(x - o1))^a
    (1 - F(x - o2))^b, where F is the uniform CDF. The weighted cells are
    summed by ``math.fsum``, correctly rounded in any order.
    """
    o1, o2 = _latency_offsets(numerology)
    late1 = 1.0 - min(max(x - o1, 0.0), 1.0)
    late2 = 1.0 - min(max(x - o2, 0.0), 1.0)
    k = range(len(mix))
    if shared_frame_alignment:
        # no first-try success (row 0): the retransmission delivers
        late = [[late1 if a else late2] * len(k) for a in k]
    else:
        late = [[late1 ** a * late2 ** b for b in k] for a in k]
    late[0][0] = 0.0  # outage: no latency
    return math.fsum(c * w for row, ws in zip(mix, late) for c, w in zip(row, ws))


def latency_quantile(mix: Sequence[Sequence[float]], numerology: Numerology, q: float,
                     shared_frame_alignment: bool = True) -> float:
    """The q-quantile of the latency given success, in TTIs; NaN when the
    mix holds no success. ``mix`` is any square nested sequence of counts
    or probabilities, such as ``SimAggregate.success_mix`` or
    ``outage.success_mix``.

    It is the smallest x, to full double precision, on the support
    [first-try offset, retransmission offset + 1] (``_latency_offsets``)
    with ``_latency_tail(mix, ..., x) <= (1 - q) * successes``; comparing
    the tail mass itself avoids the cancellation of 1 - tail / successes.
    At q = 1 it is the support's end, taken without a bisection: the worst
    case of ``latency_budget_check`` if some trial was delivered by
    retransmissions alone (mix row a = 0), and the first-try offset + 1
    otherwise. The frame alignment is integrated out exactly, so no
    interval is attached.
    """
    if not (real(q) and 0.0 < q <= 1.0):
        raise ValidationError(f"q must be in (0, 1], got {shown(q)}")
    successes = float(sum(map(sum, mix)) - mix[0][0])  # all but the outage cell
    if successes == 0:
        return math.nan
    lo, retx = _latency_offsets(numerology)
    if q == 1.0:
        return retx + 1.0 if any(mix[0][1:]) else lo + 1.0
    hi = retx + 1.0
    allowed = (1.0 - q) * successes
    while True:
        mid = lo + 0.5 * (hi - lo)  # 0.5 * (lo + hi) overflows near the float limit
        if not lo < mid < hi:
            return hi
        if _latency_tail(mix, numerology, mid, shared_frame_alignment) <= allowed:
            hi = mid
        else:
            lo = mid
