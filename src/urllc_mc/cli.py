"""Command-line front end: scenario commands, sweeps and one-command
reproduction of the reference operating points.

Exit codes: 0 ok, 2 parse, 3 validation, 4 solver, 5 domain, 6 I/O.
Output is deterministic: fixed row order, fixed number formatting
(9 significant digits), so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import ScenarioConfig, SweepScale, SweepSpec, SweepVariable, load_scenario
from .errors import DomainError, UrllcMcError, ValidationError
from .fbl import FblContext, db_to_linear
from .outage import ChaseModel, mc_outage, sc_outage
from .resources import normalized_usage, usage_at_solution
from .sim import latency_quantile, simulate_run, tti_duration_ms
from .solver import (
    MAX_NODES,
    BlerPolicy,
    PolicyKind,
    build_profile,
    link_profiles,
    solve_bler,
)

Rows = Tuple[List[str], List[list]]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _policy_label(policy: BlerPolicy) -> str:
    if policy.kind is PolicyKind.FIXED_META:
        return f"fixed_meta={policy.fixed_meta:g}"
    return policy.kind.value


def cmd_outage(cfg: ScenarioConfig) -> Rows:
    """Closed-form outage breakdown at the configured data BLER."""
    if cfg.p_d is None:
        raise ValidationError("p_d: is required for the outage command")
    profiles = link_profiles(cfg.p_d, cfg.policy, cfg.chase, cfg.contexts())
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
            cfg.scheme, cfg.m_nodes, node, profile.p_d1, profile.p_m1, profile.p_c,
            bd.p_succ_first, bd.p_succ_timeout_retx, bd.p_succ_nack_retx,
            bd.p_out, total,
        ])
    return header, rows


def cmd_solve(cfg: ScenarioConfig) -> Rows:
    """BLER target achieving the configured outage target."""
    result = solve_bler(
        cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase, cfg.contexts()
    )
    header = ["scheme", "m", "target_outage", "p_d", "p_m", "achieved_outage",
              "iterations"]
    rows = [[cfg.scheme, cfg.m_nodes, cfg.target_outage, result.p_d, result.p_m,
             result.achieved_outage, result.iterations]]
    return header, rows


def cmd_resource(cfg: ScenarioConfig) -> Rows:
    """Channel use and total expected usage at the outage target."""
    contexts = cfg.contexts()
    report = usage_at_solution(
        solve_bler(cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase, contexts),
        contexts, cfg.metadata_bits if cfg.report_metadata_use else None,
    )
    header = ["scheme", "m", "bler_target", "channel_use", "total_usage",
              "metadata_channel_use"]
    rows = [[cfg.scheme, report.solve.m_nodes, report.solve.p_d,
             report.channel_use_single, report.total_usage,
             report.metadata_channel_use]]
    return header, rows


def _simulation_profiles(cfg: ScenarioConfig):
    contexts = cfg.contexts()
    p_d = cfg.p_d
    if p_d is None:
        p_d = solve_bler(cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase,
                         contexts).p_d
    return link_profiles(p_d, cfg.policy, cfg.chase, contexts)


def cmd_simulate(cfg: ScenarioConfig, seed: int, jobs: int = 1) -> Rows:
    """Monte Carlo estimates for the configured scenario, drawn with ``seed``.

    Simulates at the configured p_d when given, otherwise at the solved
    BLER target.
    """
    profiles = _simulation_profiles(cfg)
    agg = simulate_run(profiles, cfg.trials, seed, jobs=jobs)
    latency = latency_quantile(
        agg.success_mix, cfg.numerology, cfg.latency_quantile, cfg.shared_frame_alignment
    )
    q = f"{cfg.latency_quantile:g}"
    header = ["metric", "value", "ci_half_width_95", "trials", "seed"]
    rows = [
        ["outage", *agg.outage(), agg.trials, agg.seed],
        ["mean_usage_multiples", *agg.mean_usage(), agg.trials, agg.seed],
        [f"latency_ttis_q{q}", latency, 0.0, agg.trials, agg.seed],
        [f"latency_ms_q{q}", latency * tti_duration_ms(cfg.numerology), 0.0,
         agg.trials, agg.seed],
    ]
    return header, rows


def _sweep_grid(sweep: SweepSpec) -> np.ndarray:
    if sweep.scale is SweepScale.LOG10:
        return np.logspace(np.log10(sweep.start), np.log10(sweep.stop), sweep.points)
    return np.linspace(sweep.start, sweep.stop, sweep.points)


def cmd_sweep(cfg: ScenarioConfig, sweep: SweepSpec) -> Rows:
    """Evaluate the scenario along one swept variable."""
    if sweep.variable is SweepVariable.P_D:
        header = ["p_d", "scheme", "m", "policy", "outage", "normalized_usage"]
        contexts = cfg.contexts()
        rows = []
        for value in _sweep_grid(sweep):
            p_d = float(value)
            if not 0.0 < p_d < 1.0:
                raise ValidationError(f"p_d sweep value {p_d!r} outside (0, 1)")
            profiles = link_profiles(p_d, cfg.policy, cfg.chase, contexts)
            rows.append([
                p_d, cfg.scheme, cfg.m_nodes, _policy_label(cfg.policy),
                mc_outage(profiles),
                normalized_usage(cfg.m_nodes, profiles[0]),
            ])
        return header, rows

    if sweep.variable is SweepVariable.SINR_DB:
        header = ["sinr_db", "scheme", "m", "bler_target", "channel_use",
                  "total_usage"]
        rows = []
        result = None
        for value in _sweep_grid(sweep):
            sinr_db = float(value)
            try:
                ctx = FblContext(cfg.payload_bits, db_to_linear(sinr_db))
            except DomainError as exc:
                raise ValidationError(f"sinr_db sweep value {sinr_db!r}: {exc}") from None
            links = [ctx] * cfg.m_nodes
            if result is None or cfg.chase.reads_sinr:
                result = solve_bler(cfg.m_nodes, cfg.target_outage, cfg.policy,
                                    cfg.chase, links)
            report = usage_at_solution(result, links)
            rows.append([
                sinr_db, cfg.scheme, cfg.m_nodes, report.solve.p_d,
                report.channel_use_single, report.total_usage,
            ])
        return header, rows

    # node-count sweep: integer grid in [1, MAX_NODES], linear scale only,
    # one SINR for all nodes
    if sweep.scale is not SweepScale.LINEAR:
        raise ValidationError("m sweep supports only the linear scale")
    if len(set(cfg.sinr_db_per_node)) > 1:
        raise ValidationError(
            "sinr_db: the m sweep needs one SINR for every node, got "
            f"{list(cfg.sinr_db_per_node)!r}"
        )
    ctx = cfg.contexts()[0]
    header = ["m", "scheme", "bler_target", "achieved_outage", "channel_use",
              "total_usage"]
    ms: List[int] = []
    for value in _sweep_grid(sweep):
        m = int(round(float(value)))
        if not 1 <= m <= MAX_NODES:
            raise ValidationError(f"m sweep value {m} outside [1, {MAX_NODES}]")
        if m not in ms:
            ms.append(m)
    rows = []
    for m in ms:
        links = [ctx] * m
        report = usage_at_solution(
            solve_bler(m, cfg.target_outage, cfg.policy, cfg.chase, links), links
        )
        rows.append([
            m, "SC" if m == 1 else "MC", report.solve.p_d, report.solve.achieved_outage,
            report.channel_use_single, report.total_usage,
        ])
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
    schemes = [("SC", 1), ("MC", 2), ("MC", 3)]
    grid = np.logspace(-4, -1, 61)
    rows = []
    for value in grid:
        p_d = float(value)
        for label, policy in policies:
            profile = build_profile(p_d, policy, ChaseModel.ZERO)
            for scheme, m in schemes:
                rows.append([p_d, label, scheme, m, mc_outage([profile] * m)])
    return header, rows


def _reproduce_fig4() -> Rows:
    header = ["scheme", "m", "p_m", "p_d", "outage", "normalized_usage"]
    policy = BlerPolicy(PolicyKind.FIXED_META, fixed_meta=0.01)
    profile = build_profile(0.1, policy, ChaseModel.ZERO)
    rows = []
    for scheme, m in (("SC", 1), ("MC", 2)):
        rows.append([
            scheme, m, profile.p_m1, profile.p_d1, mc_outage([profile] * m),
            normalized_usage(m, profile),
        ])
    return header, rows


def _reproduce_table2_fig5() -> Tuple[Rows, Rows]:
    """Table 2 (at 10 dB) and fig. 5 (at 0 and 10 dB) from one SC and one
    MC solve: under perfect combining the BLER targets read no SINR."""
    policy = BlerPolicy(PolicyKind.EQUAL)
    solved = {m: solve_bler(m, _REPRO_TARGET, policy, ChaseModel.ZERO) for m in (1, 2)}
    sized = {}  # sinr_db -> [SC report, MC report]
    for sinr_db in (0.0, 10.0):
        ctx = FblContext(_REPRO_PAYLOAD_BITS, db_to_linear(sinr_db))
        sized[sinr_db] = [usage_at_solution(res, [ctx] * m) for m, res in solved.items()]
    fig5 = [[sinr_db, sc.solve.p_d, sc.channel_use_single, sc.total_usage,
             mc.solve.p_d, mc.channel_use_single, mc.total_usage,
             1.0 - sc.total_usage / mc.total_usage] for sinr_db, (sc, mc) in sized.items()]
    table2 = []
    for scheme, report in zip(("SC", "MC"), sized[10.0]):
        quoted = _REPRO_USAGE_QUOTED[scheme]
        # the quoted duplicated-scheme usage is not reproducible from the
        # expected-usage formula; flag it instead of guessing
        table2.append([scheme, report.solve.p_d, report.channel_use_single,
                       report.total_usage, quoted, abs(report.total_usage - quoted) > 0.5])
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
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_pretty(header: List[str], rows: List[list]) -> str:
    cells = [header] + [[_fmt(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urllc-mc",
        description="Outage, BLER-target and resource dimensioning for "
        "single- and multi-connectivity URLLC links.",
    )
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", help="path to the scenario JSON document")
    scenario.add_argument("--format", choices=("csv", "pretty"), default="pretty")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("outage", parents=[scenario],
                   help="closed-form outage at the configured p_d")
    sub.add_parser("solve", parents=[scenario],
                   help="BLER target for the configured outage target")
    sub.add_parser("resource", parents=[scenario],
                   help="channel use and total usage at the outage target")
    simulate = sub.add_parser("simulate", parents=[scenario],
                              help="Monte Carlo estimates for the scenario")
    simulate.add_argument("--seed", type=int, help="override the configured seed")
    simulate.add_argument("--jobs", type=int, default=1,
                          help="simulation worker threads (results are identical)")
    sweep = sub.add_parser("sweep", parents=[scenario],
                           help="evaluate along a swept variable")
    sweep.add_argument("--variable", required=True,
                       choices=[v.value for v in SweepVariable])
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--scale", choices=[s.value for s in SweepScale],
                       default="linear")
    reproduce = sub.add_parser("reproduce",
                               help="write table2/fig3/fig4/fig5 CSVs to --out")
    reproduce.add_argument("--out", default="out", help="output directory")
    return parser


def _load_config(args) -> ScenarioConfig:
    if not args.config:
        raise ValidationError(f"--config is required for the {args.command} command")
    return load_scenario(args.config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            for path in cmd_reproduce(args.out):
                print(path)
            return 0
        cfg = _load_config(args)
        if args.command == "outage":
            header, rows = cmd_outage(cfg)
        elif args.command == "solve":
            header, rows = cmd_solve(cfg)
        elif args.command == "resource":
            header, rows = cmd_resource(cfg)
        elif args.command == "simulate":
            seed = cfg.seed if args.seed is None else args.seed
            header, rows = cmd_simulate(cfg, seed, jobs=args.jobs)
        else:
            spec = SweepSpec(
                variable=SweepVariable(args.variable),
                start=args.start,
                stop=args.stop,
                points=args.points,
                scale=SweepScale(args.scale),
            )
            header, rows = cmd_sweep(cfg, spec)
    except UrllcMcError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO_ERROR: {exc}", file=sys.stderr)
        return 6
    render = _render_csv if args.format == "csv" else _render_pretty
    sys.stdout.write(render(header, rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
