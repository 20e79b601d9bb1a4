"""Output checks for the benchmark's commands.

The reference values come from closed forms written out here, apart from
the toolkit's own code, so that a wrong optimisation in the toolkit does
not also move its reference. They hold for the ``equal`` metadata policy
(p_m = p_d on both transmissions) and the default numerology, which every
benchmark scenario uses. Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, ndtri

# SHA-256 of the reproduce CSVs of the seed release; any byte change fails.
REPRODUCE_SHA256 = {
    "table2.csv": "5d3a365f5c49ffd88cbd9ee7e5ea171d1182ad185186774a78b447132b63ed3e",
    "fig3.csv": "c72067be69b679bd95c59f98804aec67cf1ccd760389aec017fe3036db27e3da",
    "fig4.csv": "45de6cdf68066136017e869ab33c59cf9dfaf097acaf45c060dd961497ae6270",
    "fig5.csv": "3b5bbeb44538ed008d9ea046662fd291375667811deae7911e5cd090b6406aa4",
}
# Table 2: BLER targets in percent (SC, MC) and channel uses at 10 dB.
TABLE2 = {"SC": (0.183, 85.14), "MC": (3.28, 80.88)}

# Default numerology: first-try latency t_bp + t_tx + t_up = 2 TTIs, the
# retransmission harq_rtt + t_tx + t_up = 6 TTIs, plus a frame alignment
# in [0, 1); a TTI of 4 symbols at 30 kHz lasts 1/7 ms.
LATENCY_SUPPORT_TTIS = (2.0, 7.0)
TTI_MS = 1.0 / 7.0

SOLVER_REL_TOL = 1e-3  # the solver's outage tolerance, relative to the target
CSV_REL_TOL = 1e-7  # values are printed with 9 significant digits
PAYLOAD_BITS = 256
_LN2_SQ = math.log(2.0) ** 2


def _q(x):
    return 0.5 * erfc(np.asarray(x) / math.sqrt(2.0))


def channel_uses(sinr_linear, bler, bits: int = PAYLOAD_BITS):
    """Normal-approximation channel uses for ``bits`` at ``bler``."""
    qi = -ndtri(bler)
    c = np.log2(1.0 + sinr_linear)
    v = (1.0 - 1.0 / (1.0 + sinr_linear) ** 2) / _LN2_SQ
    root = (qi * np.sqrt(v) + np.sqrt(qi * qi * v + 4.0 * bits * c)) / (2.0 * c)
    return root * root


def combined_bler(chase: str, p_d, sinr_linear, bits: int = PAYLOAD_BITS):
    """Data error probability after Chase combining of two copies."""
    p_d = np.asarray(p_d, dtype=float)
    if chase == "zero":
        return np.zeros_like(p_d)
    if chase == "product":
        return p_d * p_d
    uses = channel_uses(sinr_linear, p_d, bits)
    snr2 = 2.0 * sinr_linear
    c2 = np.log2(1.0 + snr2)
    v2 = (1.0 - 1.0 / (1.0 + snr2) ** 2) / _LN2_SQ
    return _q((uses * c2 - bits) / np.sqrt(uses * v2))


def link_outage(p_d, p_c):
    """One link's outage, written without the 1 - p1 - p2 cancellation:
    lost metadata then a failed retransmission, or a decoded NACK path
    that ends in outage."""
    p_m = p_d
    return p_m * (p_m + p_d - p_m * p_d) + (1.0 - p_m) * (p_m * p_d + (1.0 - p_m) * p_c)


def succ_first(p_d):
    return (1.0 - p_d) ** 2


def _sinrs_linear(doc: dict) -> np.ndarray:
    sinr = doc["sinr_db"]
    m = doc.get("m_nodes", 1)
    values = sinr if isinstance(sinr, list) else [sinr]
    if len(values) == 1:
        values = values * m
    return 10.0 ** (np.asarray(values, dtype=float) / 10.0)


def solved_p_d(m: int, target: float, chase: str = "zero") -> float:
    """p_d at which m links reach ``target`` (no SINR dependence)."""
    if chase == "finite_blocklength":
        raise ValueError("solved_p_d covers the SINR-free chase models only")

    def gap(log_p):
        p = 10.0**log_p
        return m * math.log(float(link_outage(p, combined_bler(chase, p, 1.0)))) - math.log(target)

    return 10.0 ** brentq(gap, -9.0, math.log10(0.4999), xtol=1e-15, rtol=1e-15)


def _rows(stdout: str, header: List[str]) -> Tuple[List[List[str]], List[str]]:
    lines = stdout.strip().splitlines()
    if not lines or lines[0].split(",") != header:
        return [], [f"header {lines[:1]!r} is not {','.join(header)!r}"]
    rows = [line.split(",") for line in lines[1:]]
    bad = [i for i, row in enumerate(rows) if len(row) != len(header)]
    if bad:
        return [], [f"row {bad[0]} has the wrong number of fields"]
    return rows, []


def _column(rows, i) -> np.ndarray:
    return np.array([float(r[i]) for r in rows])


def _report(mask: np.ndarray, what: str, labels) -> List[str]:
    if mask.all():
        return []
    i = int(np.flatnonzero(~mask)[0])
    return [f"{what} fails on {int((~mask).sum())} rows, first at {labels[i]!r}"]


# ---------------------------------------------------------------------------
# simulate


def reference_outage(doc: dict) -> Tuple[float, float]:
    """(p_d, closed-form outage) of a simulate scenario: its own p_d, or
    the one solved for its target, where the outage is the target."""
    m = doc.get("m_nodes", 1)
    if "p_d" in doc:
        p_d = doc["p_d"]
        p_c = float(combined_bler(doc.get("chase", "zero"), p_d, 1.0))
        return p_d, float(link_outage(p_d, p_c)) ** m
    return solved_p_d(m, doc["target_outage"], doc.get("chase", "zero")), doc["target_outage"]


def check_simulate(doc: dict, seed: int, stdout: str) -> List[str]:
    header = ["metric", "value", "ci_half_width_95", "trials", "seed"]
    rows, problems = _rows(stdout, header)
    if problems:
        return problems
    q = doc.get("latency_quantile", 0.99)
    want = ["outage", "mean_usage_multiples", f"latency_ttis_q{q:g}", f"latency_ms_q{q:g}"]
    if [r[0] for r in rows] != want:
        return [f"metrics {[r[0] for r in rows]!r} are not {want!r}"]
    est: Dict[str, Tuple[float, float]] = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    trials = doc["trials"]
    if any(int(r[3]) != trials or int(r[4]) != seed for r in rows):
        problems.append(f"trials/seed columns are not {trials}/{seed}")

    m = doc.get("m_nodes", 1)
    p_d, ref_outage = reference_outage(doc)
    ref_usage = m * (2.0 - succ_first(p_d))

    outage, outage_hw = est["outage"]
    # the solver's tolerance, plus a rule-of-three floor for few outages
    floor = SOLVER_REL_TOL * ref_outage + 3.0 / trials
    if not abs(outage - ref_outage) <= 4.0 * outage_hw + floor:
        problems.append(
            f"outage {outage:.6g} +- {outage_hw:.3g} is off the closed form {ref_outage:.6g}"
        )
    usage, usage_hw = est["mean_usage_multiples"]
    if not abs(usage - ref_usage) <= 4.0 * usage_hw + 3.0 * m / trials:
        problems.append(
            f"mean usage {usage:.9g} +- {usage_hw:.3g} is off the closed form {ref_usage:.9g}"
        )
    lat_ttis = est[want[2]][0]
    lo, hi = LATENCY_SUPPORT_TTIS
    if not lo <= lat_ttis <= hi:
        problems.append(f"latency quantile {lat_ttis!r} TTIs is outside [{lo}, {hi}]")
    lat_ms = est[want[3]][0]
    if not math.isclose(lat_ms, lat_ttis * TTI_MS, rel_tol=CSV_REL_TOL):
        problems.append(f"latency {lat_ms!r} ms does not match {lat_ttis!r} TTIs")
    return problems


def check_pooled_outage(doc: dict, outages: List[float]) -> List[str]:
    """Mean of several simulate outages of one scenario, each over
    ``doc["trials"]`` trials with its own seed, against the closed form.

    The tolerance is 4 binomial 95% half-widths at the closed-form outage
    for the pooled trial count, computed here rather than read from the
    output, plus the solver's tolerance. At 1e-5 a single command sees
    about 50 outages, too few to tell a halved or doubled outage from
    noise; the pooled mean over several repetitions can.
    """
    if not outages:
        return ["no outage estimate to pool"]
    ref_outage = reference_outage(doc)[1]
    trials = doc["trials"] * len(outages)
    half_width = 1.96 * math.sqrt(ref_outage * (1.0 - ref_outage) / trials)
    mean = sum(outages) / len(outages)
    if abs(mean - ref_outage) <= 4.0 * half_width + SOLVER_REL_TOL * ref_outage:
        return []
    return [f"pooled outage {mean:.6g} over {trials} trials is off the closed form "
            f"{ref_outage:.6g} (95% half-width {half_width:.3g})"]


# ---------------------------------------------------------------------------
# sweep


def _grid(sweep) -> np.ndarray:
    if sweep.scale == "log10":
        return np.logspace(np.log10(sweep.start), np.log10(sweep.stop), sweep.points)
    return np.linspace(sweep.start, sweep.stop, sweep.points)


def _close(value, ref, rel=CSV_REL_TOL):
    return np.abs(value - ref) <= rel * np.abs(ref)


def _check_solved_rows(doc, ms, sinr_linear, bler, uses, total, labels,
                       achieved=None) -> List[str]:
    """Rows that report a solved BLER target and its resource usage."""
    target = doc["target_outage"]
    chase = doc.get("chase", "zero")
    outage = link_outage(bler, combined_bler(chase, bler, sinr_linear)) ** ms
    tol = SOLVER_REL_TOL * target * (1.0 + 1e-4)
    problems = _report(np.abs(outage - target) <= tol,
                       "outage at the BLER target within the solver tolerance", labels)
    if achieved is not None:
        problems += _report(np.abs(achieved - target) <= tol,
                            "reported achieved outage within the solver tolerance", labels)
        problems += _report(_close(achieved, outage, 1e-6),
                            "achieved outage equal to the closed form", labels)
    problems += _report(_close(uses, channel_uses(sinr_linear, bler)),
                        "channel use equal to the closed form", labels)
    problems += _report(total >= ms * uses * (1.0 - 1e-12),
                        "total_usage >= m * channel_use", labels)
    problems += _report(_close(total, ms * (2.0 - succ_first(bler)) * uses),
                        "total usage equal to the closed form", labels)
    return problems


def check_sweep(doc: dict, sweep, stdout: str) -> List[str]:
    m = doc.get("m_nodes", 1)
    scheme = doc["scheme"]
    if sweep.variable == "sinr_db":
        header = ["sinr_db", "scheme", "m", "bler_target", "channel_use", "total_usage"]
    elif sweep.variable == "p_d":
        header = ["p_d", "scheme", "m", "policy", "outage", "normalized_usage"]
    else:
        header = ["m", "scheme", "bler_target", "achieved_outage", "channel_use",
                  "total_usage"]
    rows, problems = _rows(stdout, header)
    if problems:
        return problems
    grid = _grid(sweep)
    if sweep.variable == "m":
        grid = np.unique(np.round(grid).astype(int))
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for {len(grid)} grid points"]
    first = _column(rows, 0)
    labels = [r[0] for r in rows]
    problems += _report(_close(first, grid, 1e-8) | (first == grid),
                        f"{sweep.variable} equal to the grid", labels)

    if sweep.variable == "sinr_db":
        problems += _report(np.array([r[1] == scheme and int(r[2]) == m for r in rows]),
                            f"scheme/m equal to {scheme}/{m}", labels)
        problems += _check_solved_rows(
            doc, m, 10.0 ** (grid / 10.0), _column(rows, 3), _column(rows, 4),
            _column(rows, 5), labels)
    elif sweep.variable == "p_d":
        problems += _report(
            np.array([r[1] == scheme and int(r[2]) == m and r[3] == "equal" for r in rows]),
            f"scheme/m/policy equal to {scheme}/{m}/equal", labels)
        sinrs = _sinrs_linear(doc)
        links = np.array([link_outage(grid, combined_bler(doc.get("chase", "zero"), grid, s))
                          for s in sinrs])
        ref = np.prod(links, axis=0)
        # the toolkit computes each link as 1 - p1 - p2, which loses about
        # 1e-16 absolute per link to cancellation
        tol = CSV_REL_TOL * ref + m * 1e-15 * ref / links.min(axis=0)
        problems += _report(np.abs(_column(rows, 4) - ref) <= tol,
                            "outage equal to the closed form", labels)
        problems += _report(_close(_column(rows, 5), m * (2.0 - succ_first(grid))),
                            "normalized usage equal to the closed form", labels)
    else:
        ms = grid
        problems += _report(
            np.array([r[1] == ("SC" if mm == 1 else "MC") for r, mm in zip(rows, ms)]),
            "scheme SC for m = 1 and MC above", labels)
        sinr = _sinrs_linear(doc)[0]
        problems += _check_solved_rows(
            doc, ms, sinr, _column(rows, 2), _column(rows, 4), _column(rows, 5),
            labels, achieved=_column(rows, 3))
    return problems


# ---------------------------------------------------------------------------
# reproduce


def check_reproduce(out_dir: Path, stdout: str) -> List[str]:
    problems = []
    listed = sorted(Path(line).name for line in stdout.split())
    if listed != sorted(REPRODUCE_SHA256):
        problems.append(f"reproduce listed {listed!r}")
    for name, digest in REPRODUCE_SHA256.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} was not written")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name} differs from the reference bytes")
    table = out_dir / "table2.csv"
    if table.is_file():
        lines = table.read_text(encoding="utf-8").splitlines()
        rows = {r[0]: r for r in (line.split(",") for line in lines[1:])}
        for scheme, (bler_pct, uses) in TABLE2.items():
            row = rows.get(scheme)
            ok = (
                row is not None
                and float(f"{100.0 * float(row[1]):.3g}") == bler_pct
                and round(float(row[2]), 2) == uses
            )
            if not ok:
                problems.append(f"table2 {scheme} row {row!r} is not {bler_pct}% / {uses}")
    return problems
