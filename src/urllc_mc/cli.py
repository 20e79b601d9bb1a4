"""Command-line front end: scenario commands, sweeps and one-command
reproduction of the reference operating points.

The sweep flags are checked here: argparse fixes their types and choices,
``_sweep_grid`` the rest. The grids are built in plain Python, so every
command but ``simulate`` runs on the standard library; numpy loads with
the simulator.

Exit codes: 0 ok, 2 parse, 3 validation, 4 solver, 5 domain, 6 I/O.
Output is deterministic: fixed row order and one format table (``_TEXT``,
9 significant digits), so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from .config import ScenarioConfig, load_scenario
from .errors import DomainError, UrllcMcError, ValidationError
from .fbl import FblContext, channel_use, db_to_linear
from .outage import MAX_NODES, ChaseModel, _leaves, mc_outage, sc_outage
from .sim import latency_quantile, simulate_run, ttis_to_ms
from .solver import (
    BlerPolicy,
    PolicyKind,
    _outage_of,
    build_profile,
    solve_bler,
    usage_at_solution,
    usage_sc,
)

Rows = Tuple[List[str], List[list]]

# Most points of a sweep grid; the benchmark's p_d sweep uses 20,001.
MAX_SWEEP_POINTS = 1_000_000


# The text of a cell by its exact type, the one place each format is written:
# an empty cell for a missing value, a yes/no flag, 9 significant digits.
_TEXT = {type(None): "".format, bool: ("no", "yes").__getitem__,
         float: "{:.9g}".format, int: str, str: str}


def _fmt(value) -> str:
    """The text of one cell: a float subclass as a float, other types as ``str``."""
    kind = float if isinstance(value, float) else type(value)
    return _TEXT.get(kind, str)(value)


def _column(cells: Sequence) -> Iterator[str]:
    """The texts of one column, made as they are read: one conversion for a
    column of one exact type in ``_TEXT``, otherwise ``_fmt`` cell by cell."""
    kinds = set(map(type, cells))
    return map(_TEXT.get(kinds.pop(), _fmt) if len(kinds) == 1 else _fmt, cells)


def _policy_label(policy: BlerPolicy) -> str:
    if policy.kind is PolicyKind.FIXED_META:
        return f"fixed_meta={_fmt(policy.fixed_meta)}"
    return policy.kind.value


def cmd_outage(cfg: ScenarioConfig, args) -> Rows:
    """Closed-form outage breakdown at the configured data BLER."""
    if cfg.p_d is None:
        raise ValidationError("p_d: is required for the outage command")
    profiles = [build_profile(cfg.p_d, cfg.policy, cfg.chase, c) for c in cfg.contexts()]
    total = mc_outage(profiles)
    header = [
        "scheme", "m", "node", "p_d", "p_m", "p_c",
        "p_succ_first", "p_succ_timeout_retx", "p_succ_nack_retx",
        "p_out_link", "p_out_total",
    ]
    rows = []
    for node, profile in enumerate(profiles, start=1):
        bd = sc_outage(profile)
        rows.append([
            cfg.scheme, cfg.m_nodes, node, profile.p_d, profile.p_m, profile.p_c,
            bd.p_succ_first, bd.p_succ_timeout_retx, bd.p_succ_nack_retx,
            bd.p_out, total,
        ])
    return header, rows


def cmd_solve(cfg: ScenarioConfig, args) -> Rows:
    """BLER target achieving the configured outage target."""
    result = solve_bler(
        cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase, cfg.contexts()
    )
    header = ["scheme", "m", "target_outage", "p_d", "p_m", "achieved_outage",
              "iterations"]
    rows = [[cfg.scheme, cfg.m_nodes, cfg.target_outage, result.p_d, result.p_m,
             result.achieved_outage, result.iterations]]
    return header, rows


def cmd_resource(cfg: ScenarioConfig, args) -> Rows:
    """Channel use and total expected usage at the outage target, and given
    ``metadata_bits`` the metadata's node-average channel use, never in the total."""
    contexts = cfg.contexts()
    result = solve_bler(cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase, contexts)
    channel_use_single, total_usage = usage_at_solution(result, contexts)
    meta_use = None
    if cfg.metadata_bits is not None:
        p_m = result.p_m
        if not p_m < 0.5:  # channel_use sizes a BLER in (0, 0.5) only
            raise DomainError(f"metadata_bits: cannot size the metadata at BLER "
                              f"{p_m!r}, which must be below 0.5")
        meta_use = math.fsum(channel_use(FblContext(cfg.metadata_bits, c.sinr_linear), p_m)
                             for c in contexts) / len(contexts)
    header = ["scheme", "m", "bler_target", "channel_use", "total_usage",
              "metadata_channel_use"]
    rows = [[cfg.scheme, result.m_nodes, result.p_d, channel_use_single, total_usage,
             meta_use]]
    return header, rows


def cmd_simulate(cfg: ScenarioConfig, args) -> Rows:
    """Monte Carlo estimates for the configured scenario, drawn with
    ``args.seed`` (the configured seed when None) on ``args.jobs`` threads.

    Simulates at the configured p_d when given, otherwise at the solved
    BLER target.
    """
    contexts = cfg.contexts()
    p_d = cfg.p_d
    if p_d is None:
        p_d = solve_bler(cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase,
                         contexts).p_d
    profiles = [build_profile(p_d, cfg.policy, cfg.chase, c) for c in contexts]
    seed = cfg.seed if args.seed is None else args.seed
    agg = simulate_run(profiles, cfg.trials, seed, jobs=args.jobs)
    latency = latency_quantile(
        agg.success_mix, cfg.numerology, cfg.latency_quantile, cfg.shared_frame_alignment
    )
    # NaN: nothing was delivered, in TTIs or in ms
    latency_ms = latency if math.isnan(latency) else ttis_to_ms(cfg.numerology, latency)
    q = _fmt(cfg.latency_quantile)
    header = ["metric", "value", "ci_half_width_95", "trials", "seed"]
    rows = [
        ["outage", *agg.outage(), agg.trials, agg.seed],
        ["mean_usage_multiples", *agg.mean_usage(), agg.trials, agg.seed],
        [f"latency_ttis_q{q}", latency, 0.0, agg.trials, agg.seed],
        [f"latency_ms_q{q}", latency_ms, 0.0, agg.trials, agg.seed],
    ]
    return header, rows


def _linspace(start: float, stop: float, n: int) -> List[float]:
    """``numpy.linspace(start, stop, n).tolist()`` for n >= 2, value for
    value: the same float operations in the same order."""
    div, delta = n - 1, stop - start
    step = delta / div
    if step == 0:  # the step underflowed: scale each index first
        head = [i / div * delta + start for i in range(div)]
    else:
        head = [i * step + start for i in range(div)]
    return head + [stop]


def _pow10(x: float) -> float:
    """10 ** x, inf where it overflows, as ``numpy.power`` gives."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


def _logspace(start: float, stop: float, n: int) -> List[float]:
    """n points from 10 ** start to 10 ** stop, evenly spaced in the exponent."""
    return [_pow10(x) for x in _linspace(start, stop, n)]


def _sweep_grid(args) -> List[float]:
    """The grid of the sweep flags, after the checks argparse cannot make:
    it reads "inf", "nan" and "1e400" as floats."""
    start, stop, points = args.start, args.stop, args.points
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ValidationError(f"sweep {name} must be finite, got {value!r}")
    if not start < stop:
        raise ValidationError(f"sweep start must be below stop, got [{start!r}, {stop!r}]")
    if points < 2:
        raise ValidationError(f"sweep needs at least 2 points, got {points!r}")
    if points > MAX_SWEEP_POINTS:
        raise ValidationError(f"sweep points must be at most {MAX_SWEEP_POINTS}, got {points!r}")
    if args.scale == "log10":
        if start <= 0:
            raise ValidationError("log-scale sweep requires start > 0")
        return _logspace(math.log10(start), math.log10(stop), points)
    return _linspace(start, stop, points)


def _sized_along_sinr(m, target, policy, chase, payload_bits, sinrs):
    """``(sinr_db, solve, channel_use, total_usage)`` of m equal links at each SINR
    in dB, checked before its solve; one solve serves all unless ``chase.reads_sinr``."""
    result = None
    for sinr_db in sinrs:
        try:
            ctx = FblContext(payload_bits, db_to_linear(sinr_db))
        except DomainError as exc:
            raise ValidationError(f"sinr_db sweep value {sinr_db!r}: {exc}") from None
        links = [ctx] * m
        if result is None or chase.reads_sinr:
            result = solve_bler(m, target, policy, chase, links)
        yield (sinr_db, result, *usage_at_solution(result, links))


def cmd_sweep(cfg: ScenarioConfig, args) -> Rows:
    """Evaluate the scenario along the variable the sweep flags ``args`` name."""
    grid = _sweep_grid(args)
    if args.variable == "p_d":
        header = ["p_d", "scheme", "m", "policy", "outage", "normalized_usage"]
        outage_of = _outage_of(cfg.policy, cfg.chase, cfg.contexts())
        meta = cfg.policy._meta_rule()
        label = _policy_label(cfg.policy)
        rows = []
        for p_d in grid:
            if not 0.0 < p_d < 1.0:
                raise ValidationError(f"p_d sweep value {p_d!r} outside (0, 1)")
            outage = outage_of(p_d)
            p_first = _leaves(meta(p_d), p_d, 0.0)[0]  # reads no p_c
            rows.append([p_d, cfg.scheme, cfg.m_nodes, label, outage,
                         usage_sc(cfg.m_nodes, p_first)])
        return header, rows

    if args.variable == "sinr_db":
        header = ["sinr_db", "scheme", "m", "bler_target", "channel_use", "total_usage"]
        sized = _sized_along_sinr(cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase,
                                  cfg.payload_bits, grid)
        return header, [[s, cfg.scheme, cfg.m_nodes, res.p_d, *usage] for s, res, *usage in sized]

    # node-count sweep: integer grid in [1, MAX_NODES], linear scale only,
    # one SINR for all nodes
    if args.scale != "linear":
        raise ValidationError("m sweep supports only the linear scale")
    if len(set(cfg.sinr_db)) > 1:
        raise ValidationError(
            "sinr_db: the m sweep needs one SINR for every node, got "
            f"{list(cfg.sinr_db)!r}"
        )
    ctx = cfg.contexts()[0]
    header = ["m", "scheme", "bler_target", "achieved_outage", "channel_use",
              "total_usage"]
    ms: List[int] = []
    for value in grid:
        m = round(value) if math.isfinite(value) else value
        if not 1 <= m <= MAX_NODES:
            raise ValidationError(f"m sweep value {m} outside [1, {MAX_NODES}]")
        if m not in ms:
            ms.append(m)
    rows = []
    for m in ms:
        links = [ctx] * m
        result = solve_bler(m, cfg.target_outage, cfg.policy, cfg.chase, links)
        rows.append([m, "SC" if m == 1 else "MC", result.p_d, result.achieved_outage,
                     *usage_at_solution(result, links)])
    return header, rows


# ---------------------------------------------------------------------------
# reproduction of the reference results

_REPRO_PAYLOAD_BITS = 256  # 32-byte payload
_REPRO_TARGET = 1e-5
_REPRO_USAGE_QUOTED = {"SC": 85.44, "MC": 166.12}  # reference values


def _reproduce_fig3() -> Rows:
    header = ["p_d", "policy", "scheme", "m", "outage"]
    policies = [
        ("half", BlerPolicy(PolicyKind.HALF)),
        ("fixed_0.01", BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01)),
    ]
    curves = [(label, scheme, m, _outage_of(policy, ChaseModel.ZERO, [None] * m))
              for label, policy in policies for scheme, m in (("SC", 1), ("MC", 2), ("MC", 3))]
    rows = [[p_d, label, scheme, m, outage(p_d)]
            for p_d in _logspace(-4.0, -1.0, 61) for label, scheme, m, outage in curves]
    return header, rows


def _reproduce_fig4() -> Rows:
    header = ["scheme", "m", "p_m", "p_d", "outage", "normalized_usage"]
    policy = BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01)
    profile = build_profile(0.1, policy, ChaseModel.ZERO)
    rows = []
    for scheme, m in (("SC", 1), ("MC", 2)):
        rows.append([
            scheme, m, profile.p_m, profile.p_d, mc_outage([profile] * m),
            usage_sc(m, sc_outage(profile).p_succ_first),
        ])
    return header, rows


def _reproduce_table2_fig5() -> Tuple[Rows, Rows]:
    """Table 2 (at 10 dB) and fig. 5 (at 0 and 10 dB), SC and MC."""
    sized = {}  # sinr_db -> [(p_d, channel use, total usage) of SC, of MC]
    for m in (1, 2):
        for sinr_db, res, *usage in _sized_along_sinr(
                m, _REPRO_TARGET, BlerPolicy(), ChaseModel.ZERO, _REPRO_PAYLOAD_BITS, [0.0, 10.0]):
            sized.setdefault(sinr_db, []).append((res.p_d, *usage))
    fig5 = [[sinr_db, *sc, *mc, 1.0 - sc[2] / mc[2]] for sinr_db, (sc, mc) in sized.items()]
    table2 = []
    for scheme, (p_d, r, total) in zip(("SC", "MC"), sized[10.0]):
        quoted = _REPRO_USAGE_QUOTED[scheme]
        # the quoted duplicated-scheme usage is not reproducible from the
        # expected-usage formula; flag it instead of guessing
        table2.append([scheme, p_d, r, total, quoted, abs(total - quoted) > 0.5])
    return (
        (["scheme", "bler_target", "channel_use", "usage_eq", "usage_paper",
          "discrepancy_flag"], table2),
        (["sinr_db", "bler_target_sc", "channel_use_sc", "usage_sc",
          "bler_target_mc", "channel_use_mc", "usage_mc", "sc_savings"], fig5),
    )


def cmd_reproduce(out_dir: str) -> List[str]:
    """Write table2/fig3/fig4/fig5 CSVs into ``out_dir``; returns paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    table2, fig5 = _reproduce_table2_fig5()
    outputs = {"table2.csv": table2, "fig3.csv": _reproduce_fig3(),
               "fig4.csv": _reproduce_fig4(), "fig5.csv": fig5}
    written = []
    for name, (header, rows) in outputs.items():
        path = directory / name
        path.write_text(_render_csv(header, rows), encoding="utf-8")
        written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# rendering and entry point


def _render_csv(header: List[str], rows: List[list]) -> str:
    # rows to columns, each column to texts, and the texts back to rows; a
    # last empty line gives the final newline without a second copy
    lines = [",".join(header), *map(",".join, zip(*map(_column, zip(*rows)))), ""]
    return "\n".join(lines)


def _render_pretty(header: List[str], rows: List[list]) -> str:
    columns = []
    for name, *cells in zip(header, *rows):
        texts = [name, *_column(cells)]
        width = max(map(len, texts))
        columns.append([text.ljust(width) for text in texts])
    return "\n".join(map(str.rstrip, map("  ".join, zip(*columns)))) + "\n"


_RENDER = {"csv": _render_csv, "pretty": _render_pretty}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urllc-mc",
        description="Outage, BLER-target and resource dimensioning for "
        "single- and multi-connectivity URLLC links.",
    )
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", help="path to the scenario JSON document")
    scenario.add_argument("--format", choices=_RENDER, default="pretty")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (
        ("outage", cmd_outage, "closed-form outage at the configured p_d"),
        ("solve", cmd_solve, "BLER target for the configured outage target"),
        ("resource", cmd_resource, "channel use and total usage at the outage target"),
    ):
        sub.add_parser(name, parents=[scenario], help=text).set_defaults(run=run)
    simulate = sub.add_parser("simulate", parents=[scenario],
                              help="Monte Carlo estimates for the scenario")
    simulate.set_defaults(run=cmd_simulate)
    simulate.add_argument("--seed", type=int, help="override the configured seed")
    simulate.add_argument("--jobs", type=int, default=1,
                          help="simulation worker threads; they draw in parallel and take "
                               "turns to tally (results are identical)")
    sweep = sub.add_parser("sweep", parents=[scenario],
                           help="evaluate along a swept variable")
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument("--variable", required=True, choices=("p_d", "sinr_db", "m"))
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--scale", choices=("linear", "log10"), default="linear")
    reproduce = sub.add_parser("reproduce",
                               help="write table2/fig3/fig4/fig5 CSVs to --out")
    reproduce.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            for path in cmd_reproduce(args.out):
                print(path)
            return 0
        if not args.config:
            raise ValidationError(f"--config is required for the {args.command} command")
        header, rows = args.run(load_scenario(args.config), args)
    except UrllcMcError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO_ERROR: {exc}", file=sys.stderr)
        return 6
    sys.stdout.write(_RENDER[args.format](header, rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
