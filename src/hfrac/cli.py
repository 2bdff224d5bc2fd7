"""Command-line front end: simulate, props, certify, reproduce.

Exit codes: 0 success / certified, 1 property or certificate failure,
2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .expr import load_system_file
from .lyapunov import (
    LatticeSampler,
    MARGIN_SLACK,
    OperatorKind,
    QuadraticCondition,
    certify_theorem,
    decay_report,
    power_margin_suite,
    quadratic_margin_suite,
)
from .operators import write_grid_csv
from .solver import SolverDivergenceError, residual_check, solve, write_step_csv
from .systems import BUILTIN_SYSTEMS, get_builtin

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _svg_polyline(path, t, series, title: str) -> None:
    """Minimal polyline SVG: one curve per (label, values) pair, labeled axes."""
    width, height = 640, 480
    ml, mr, mt, mb = 64, 16, 36, 44
    pw, ph = width - ml - mr, height - mt - mb
    t = np.asarray(t, dtype=float)
    all_vals = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    t_lo, t_hi = float(t.min()), float(t.max())
    y_lo, y_hi = float(all_vals.min()), float(all_vals.max())
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v):
        return ml + pw * (v - t_lo) / (t_hi - t_lo)

    def sy(v):
        return mt + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">t</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})" text-anchor="middle">x</text>',
        f'<text x="{ml}" y="{height - 26}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{t_lo:.6g}</text>',
        f'<text x="{ml + pw}" y="{height - 26}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{t_hi:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + ph:.1f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_lo:.6g}</text>',
        f'<text x="{ml - 6}" y="{mt + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_hi:.6g}</text>',
    ]
    for idx, (label, values) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        points = " ".join(
            f"{sx(tv):.2f},{sy(v):.2f}" for tv, v in zip(t, np.asarray(values))
        )
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        lines.append(
            f'<text x="{ml + pw - 8}" y="{mt + 16 + 14 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")


def _load_system(args):
    """Resolve --system/--file plus overrides to (SystemDef, builtin-or-None)."""
    if args.system is not None:
        builtin = get_builtin(args.system)
        system = builtin.system
    else:
        system, _ = load_system_file(args.file)
        builtin = None
    overrides = {}
    for name in ("nu", "h", "a"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        system = dataclasses.replace(system, **overrides)
        builtin = None if "nu" in overrides or "h" in overrides else builtin
    return system, builtin


def _add_system_args(parser, with_overrides=True):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", choices=sorted(BUILTIN_SYSTEMS), help="built-in system id")
    group.add_argument("--file", help="system definition file")
    if with_overrides:
        parser.add_argument("--nu", type=_finite_float, help="override the fractional order")
        parser.add_argument("--h", type=_finite_float, help="override the step")
        parser.add_argument("--a", type=_finite_float, help="override the origin")


def _cmd_simulate(args) -> int:
    system, _ = _load_system(args)
    try:
        traj = solve(system, args.steps, tol=args.tol)
    except SolverDivergenceError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_grid_csv(traj.states, out)
    sidecar = out.with_suffix(".steps.csv") if out.suffix else Path(str(out) + ".steps.csv")
    write_step_csv(traj, sidecar)
    if args.svg:
        series = [(f"x{i + 1}", traj.states.component(i)) for i in range(system.dim)]
        _svg_polyline(args.svg, traj.states.grid.points, series,
                      f"trajectory (nu={system.nu:g}, h={system.h:g})")
    report = decay_report(traj)
    print(f"wrote {out} and {sidecar}")
    print(report.summary())
    return EXIT_OK


def _cmd_props(args) -> int:
    rng = np.random.default_rng(args.seed)
    suites = [
        ("caputo-square", lambda: power_margin_suite(
            OperatorKind.CAPUTO, 2, trials=args.trials, rng=rng)),
        ("rl-square", lambda: power_margin_suite(
            OperatorKind.RIEMANN_LIOUVILLE, 2, trials=args.trials, rng=rng)),
        ("caputo-quadratic-form", lambda: quadratic_margin_suite(
            OperatorKind.CAPUTO, trials=args.trials, rng=rng)),
        ("rl-quadratic-form", lambda: quadratic_margin_suite(
            OperatorKind.RIEMANN_LIOUVILLE, trials=args.trials, rng=rng)),
    ]
    for kind, kind_name in (
        (OperatorKind.CAPUTO, "caputo"),
        (OperatorKind.RIEMANN_LIOUVILLE, "rl"),
    ):
        for power in (3, 5, 7):
            suites.append((
                f"{kind_name}-odd-power-{power}",
                lambda k=kind, p=power: power_margin_suite(k, p, trials=args.trials, rng=rng),
            ))
        for power in (2, 4, 8):
            suites.append((
                f"{kind_name}-dyadic-power-{power}",
                lambda k=kind, p=power: power_margin_suite(k, p, trials=args.trials, rng=rng),
            ))
    failed = False
    print(f"{'suite':<26}{'worst margin':>16}")
    for name, run in suites:
        worst = run()
        ok = worst >= -args.tol
        failed = failed or not ok
        print(f"{name:<26}{worst:>16.3e}  {'ok' if ok else 'FAIL'}")
    return EXIT_FAIL if failed else EXIT_OK


def _cmd_certify(args) -> int:
    system, builtin = _load_system(args)
    if builtin is not None:
        condition = builtin.condition
    else:
        condition = QuadraticCondition(np.eye(system.dim))
    sampler = LatticeSampler(count=args.trials, seed=args.seed)
    report = certify_theorem(system, condition, sampler, slack=args.tol)
    print(report.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_text())
        report.write_margins_csv(out.with_suffix(".margins.csv"))
        print(f"wrote {out} and {out.with_suffix('.margins.csv')}")
    return EXIT_OK if report.certified else EXIT_FAIL


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    all_ok = True
    for key in sorted(BUILTIN_SYSTEMS):
        builtin = get_builtin(key)
        system = builtin.system
        traj = solve(system, args.steps)
        stem = key.replace(".", "_")
        write_grid_csv(traj.states, out_dir / f"{stem}.csv")
        for i in range(system.dim):
            _svg_polyline(
                out_dir / f"{stem}_x{i + 1}.svg",
                traj.states.grid.points,
                [(f"x{i + 1}", traj.states.component(i))],
                f"{key}: x{i + 1} (nu={system.nu:g}, h={system.h:g})",
            )
        report = decay_report(traj)
        residual = residual_check(traj)
        cert = certify_theorem(
            system, builtin.condition, LatticeSampler(seed=args.seed)
        )
        checks = {
            "residual<=1e-8": residual <= 1e-8,
            "V<=V(0)": report.v_monotone,
            "|x(end)|<|x(0)|": report.final_norm < report.initial_norm,
            "certified": cert.certified,
        }
        all_ok = all_ok and all(checks.values())
        rows.append((key, checks))
    print(f"{'system':<8}" + "".join(f"{name:>18}" for name in rows[0][1]))
    for key, checks in rows:
        print(f"{key:<8}" + "".join(
            f"{'pass' if ok else 'FAIL':>18}" for ok in checks.values()
        ))
    print(f"outputs in {out_dir}/")
    return EXIT_OK if all_ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfrac",
        description="Fractional order step-h systems: simulation, operator "
        "inequality suites, and stability certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve a system and write trajectory CSV/SVG")
    _add_system_args(p)
    p.add_argument("--steps", type=_positive_int, default=40)
    p.add_argument("--out", default="trajectory.csv")
    p.add_argument("--svg", help="also write a polyline SVG plot")
    p.add_argument("--tol", type=_finite_float, default=1e-12,
                   help="implicit step residual tolerance")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("props", help="run the randomized operator-inequality suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--tol", type=_finite_float, default=MARGIN_SLACK)
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("certify", help="sample a sufficient stability condition")
    _add_system_args(p)
    p.add_argument("--trials", type=_positive_int, default=10_000, help="lattice sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_finite_float, default=MARGIN_SLACK, help="verdict slack")
    p.add_argument("--out", help="write the report text (plus a .margins.csv sidecar)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("reproduce", help="run all built-in systems end to end")
    p.add_argument("--out", default="reproduction")
    p.add_argument("--steps", type=_positive_int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SolverDivergenceError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
