"""Command-line front end: scenario commands, sweeps and one-command
reproduction of the reference operating points.

Exit codes: 0 ok, 2 parse, 3 validation, 4 solver, 5 domain, 6 I/O.
Output is deterministic: fixed row order, fixed number formatting
(9 significant digits), so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import (
    ScenarioConfig,
    SweepScale,
    SweepSpec,
    SweepVariable,
    load_scenario,
)
from .errors import (
    DomainError,
    ParseError,
    SolverError,
    UrllcMcError,
    ValidationError,
)
from .fbl import FblContext, db_to_linear
from .outage import ChaseModel, mc_outage, sc_outage
from .resources import normalized_usage, usage_at_reliability
from .sim import Metric, estimate_from_aggregate, simulate_run, tti_duration_ms
from .solver import BlerPolicy, PolicyKind, build_profile, solve_bler

Rows = Tuple[List[str], List[list]]

_ERROR_CODES = {
    ParseError: "PARSE_ERROR",
    ValidationError: "VALIDATION_ERROR",
    SolverError: "SOLVER_ERROR",
    DomainError: "DOMAIN_ERROR",
}


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
    contexts = cfg.contexts()
    profiles = [build_profile(cfg.p_d, cfg.policy, cfg.chase, c) for c in contexts]
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
        cfg.scheme, cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase,
        cfg.contexts(),
    )
    header = ["scheme", "m", "target_outage", "p_d", "p_m", "achieved_outage",
              "iterations"]
    rows = [[cfg.scheme, cfg.m_nodes, cfg.target_outage, result.p_d, result.p_m,
             result.achieved_outage, result.iterations]]
    return header, rows


def cmd_resource(cfg: ScenarioConfig) -> Rows:
    """Channel use and total expected usage at the outage target."""
    report = usage_at_reliability(
        cfg.scheme, cfg.m_nodes, cfg.target_outage, cfg.contexts(), cfg.policy,
        cfg.chase,
        metadata_bits=cfg.metadata_bits if cfg.report_metadata_use else None,
    )
    header = ["scheme", "m", "bler_target", "channel_use", "total_usage",
              "metadata_channel_use"]
    rows = [[report.scheme, report.m_nodes, report.bler_target,
             report.channel_use_single, report.total_usage,
             report.metadata_channel_use]]
    return header, rows


def _simulation_profiles(cfg: ScenarioConfig):
    if cfg.p_d is not None:
        p_d = cfg.p_d
    else:
        p_d = solve_bler(
            cfg.scheme, cfg.m_nodes, cfg.target_outage, cfg.policy, cfg.chase,
            cfg.contexts(),
        ).p_d
    return [build_profile(p_d, cfg.policy, cfg.chase, c) for c in cfg.contexts()]


def cmd_simulate(cfg: ScenarioConfig, jobs: int = 1) -> Rows:
    """Monte Carlo estimates for the configured scenario.

    Simulates at the configured p_d when given, otherwise at the solved
    BLER target.
    """
    profiles = _simulation_profiles(cfg)
    agg = simulate_run(
        profiles, cfg.numerology, cfg.trials, cfg.seed,
        shared_frame_alignment=cfg.shared_frame_alignment, jobs=jobs,
    )
    outage = estimate_from_aggregate(Metric.OUTAGE, agg)
    usage = estimate_from_aggregate(Metric.MEAN_USAGE, agg)
    latency = estimate_from_aggregate(
        Metric.LATENCY_QUANTILE, agg, quantile=cfg.latency_quantile
    )
    latency_ms = latency.mean * tti_duration_ms(cfg.numerology)
    header = ["metric", "value", "ci_half_width_95", "trials", "seed"]
    rows = [
        ["outage", outage.mean, outage.ci_half_width_95, agg.trials, agg.seed],
        ["mean_usage_multiples", usage.mean, usage.ci_half_width_95, agg.trials,
         agg.seed],
        [f"latency_ttis_q{cfg.latency_quantile:g}", latency.mean, latency.ci_half_width_95,
         agg.trials, agg.seed],
        [f"latency_ms_q{cfg.latency_quantile:g}", latency_ms, 0.0, agg.trials,
         agg.seed],
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
        rows = []
        for value in _sweep_grid(sweep):
            p_d = float(value)
            if not 0.0 < p_d < 1.0:
                raise ValidationError(f"p_d sweep value {p_d!r} outside (0, 1)")
            profiles = [
                build_profile(p_d, cfg.policy, cfg.chase, c) for c in cfg.contexts()
            ]
            rows.append([
                p_d, cfg.scheme, cfg.m_nodes, _policy_label(cfg.policy),
                mc_outage(profiles),
                normalized_usage(cfg.scheme, cfg.m_nodes, profiles[0]),
            ])
        return header, rows

    if sweep.variable is SweepVariable.SINR_DB:
        header = ["sinr_db", "scheme", "m", "bler_target", "channel_use",
                  "total_usage"]
        rows = []
        for value in _sweep_grid(sweep):
            sinr_db = float(value)
            ctx = FblContext(cfg.payload_bits, db_to_linear(sinr_db))
            report = usage_at_reliability(
                cfg.scheme, cfg.m_nodes, cfg.target_outage, ctx, cfg.policy,
                cfg.chase,
            )
            rows.append([
                sinr_db, cfg.scheme, cfg.m_nodes, report.bler_target,
                report.channel_use_single, report.total_usage,
            ])
        return header, rows

    # node-count sweep: integer grid, linear scale only
    if sweep.scale is not SweepScale.LINEAR:
        raise ValidationError("m sweep supports only the linear scale")
    header = ["m", "scheme", "bler_target", "achieved_outage", "channel_use",
              "total_usage"]
    ms: List[int] = []
    for value in _sweep_grid(sweep):
        m = int(round(float(value)))
        if m >= 1 and m not in ms:
            ms.append(m)
    rows = []
    for m in ms:
        scheme = "SC" if m == 1 else "MC"
        ctx = FblContext(cfg.payload_bits, db_to_linear(cfg.sinr_db_per_node[0]))
        report = usage_at_reliability(
            scheme, m, cfg.target_outage, ctx, cfg.policy, cfg.chase
        )
        rows.append([
            m, scheme, report.bler_target, report.achieved_outage,
            report.channel_use_single, report.total_usage,
        ])
    return header, rows


# ---------------------------------------------------------------------------
# reproduction of the reference results

_REPRO_PAYLOAD_BITS = 256  # 32-byte payload
_REPRO_TARGET = 1e-5
_REPRO_USAGE_QUOTED = {"SC": 85.44, "MC": 166.12}  # reference values


def _reproduce_table2() -> Rows:
    header = ["scheme", "bler_target", "channel_use", "usage_eq", "usage_paper",
              "discrepancy_flag"]
    ctx = FblContext(_REPRO_PAYLOAD_BITS, db_to_linear(10.0))
    policy = BlerPolicy(PolicyKind.EQUAL)
    chase = ChaseModel.ZERO
    rows = []
    for scheme, m in (("SC", 1), ("MC", 2)):
        report = usage_at_reliability(scheme, m, _REPRO_TARGET, ctx, policy, chase)
        quoted = _REPRO_USAGE_QUOTED[scheme]
        # the quoted duplicated-scheme usage is not reproducible from the
        # expected-usage formula; flag it instead of guessing
        discrepant = abs(report.total_usage - quoted) > 0.5
        rows.append([scheme, report.bler_target, report.channel_use_single,
                     report.total_usage, quoted, discrepant])
    return header, rows


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
            normalized_usage(scheme, m, profile),
        ])
    return header, rows


def _reproduce_fig5() -> Rows:
    header = ["sinr_db", "bler_target_sc", "channel_use_sc", "usage_sc",
              "bler_target_mc", "channel_use_mc", "usage_mc", "sc_savings"]
    policy = BlerPolicy(PolicyKind.EQUAL)
    chase = ChaseModel.ZERO
    rows = []
    for sinr_db in (0.0, 10.0):
        ctx = FblContext(_REPRO_PAYLOAD_BITS, db_to_linear(sinr_db))
        sc = usage_at_reliability("SC", 1, _REPRO_TARGET, ctx, policy, chase)
        mc = usage_at_reliability("MC", 2, _REPRO_TARGET, ctx, policy, chase)
        rows.append([
            sinr_db, sc.bler_target, sc.channel_use_single, sc.total_usage,
            mc.bler_target, mc.channel_use_single, mc.total_usage,
            1.0 - sc.total_usage / mc.total_usage,
        ])
    return header, rows


def cmd_reproduce(out_dir: str) -> List[str]:
    """Write table2/fig3/fig4/fig5 CSVs into ``out_dir``; returns paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    outputs = {
        "table2.csv": _reproduce_table2(),
        "fig3.csv": _reproduce_fig3(),
        "fig4.csv": _reproduce_fig4(),
        "fig5.csv": _reproduce_fig5(),
    }
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
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            header, rows = cmd_simulate(cfg, jobs=args.jobs)
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
        code = next(
            (name for cls, name in _ERROR_CODES.items() if isinstance(exc, cls)),
            "ERROR",
        )
        print(f"error: {code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: IO_ERROR: {exc}", file=sys.stderr)
        return 6
    render = _render_csv if args.format == "csv" else _render_pretty
    sys.stdout.write(render(header, rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
