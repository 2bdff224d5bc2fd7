"""Per-layer metrics of a traced pass.

`hooks` returns the (enter, leave) pairs that `Tracer.install` attaches to
single functions, so that counts are taken where the work happens: points of
operator calls, steps and iterations of solves, CSV bytes.  `per_layer`
turns the tracer's totals into the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import os

OPERATOR_CALLS = ("forward_difference", "fractional_sum", "rl_difference",
                  "rl_difference_direct", "caputo_difference",
                  "caputo_difference_direct", "summation_by_parts_residual")
PARSE_CALLS = ("parse", "parse_system_source", "load_system_file")
MARGIN_CALLS = ("power_inequality_margins", "power_inequality_margin",
                "quadratic_form_margins", "quadratic_form_margin")


def hooks(tracer, lib) -> dict:
    count = tracer.count

    def rhs_calls() -> int:
        return tracer.total("systems.rhs")[0] + tracer.total("expr.rhs")[0]

    def operator_points(token, args, result, err, dur):
        if not token:  # only the outermost operator call counts its input
            count("operators.points", args[0].grid.n_points)

    def csv_io(path_index):
        def leave(token, args, result, err, dur):
            count("operators.csv_s", dur)
            if err is None:
                count("operators.csv_bytes", os.path.getsize(args[path_index]))
        return leave

    def solve_leave(token, args, result, err, dur):
        in_certify, rhs_before = token
        if in_certify:
            count("lyapunov.confirm_solve_s", dur)
        if isinstance(err, lib.SolverDivergenceError):
            count("solver.divergences")
        if result is None:
            return
        steps = result.steps
        count("solver.solve_s", dur)
        count("solver.steps", len(steps))
        count("solver.step_rhs_evals", rhs_calls() - rhs_before)
        count("solver.iterations", sum(r.iterations for r in steps))
        count("solver.newton_steps", sum(r.method == "newton" for r in steps))
        if steps:
            tracer.peak("solver.max_step_residual", max(r.residual for r in steps))

    def residual_leave(token, args, result, err, dur):
        count("solver.residual_check_s", dur)

    def parse_leave(token, args, result, err, dur):
        if not token:
            count("expr.parse_s", dur)

    out = {f"operators.{name}": (lambda args: tracer.inside("operators."), operator_points)
           for name in OPERATOR_CALLS}
    out["operators.write_grid_csv"] = (None, csv_io(1))
    out["operators.read_grid_csv"] = (None, csv_io(0))
    out["solver.solve"] = (
        lambda args: (tracer.inside("lyapunov.certify_theorem"), rhs_calls()), solve_leave)
    out["solver.residual_check"] = (None, residual_leave)
    for name in PARSE_CALLS:
        out[f"expr.{name}"] = (lambda args: tracer.inside("expr."), parse_leave)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, kernel_hits: int, kernel_misses: int, overhead: float) -> dict:
    c = tracer.counters.get
    layers = tracer.layer_totals()

    def summed(layer: str, names, field: int) -> float:
        return sum(tracer.total(f"{layer}.{n}")[field] for n in names)

    steps = c("solver.steps", 0.0)
    # rhs spans belong to the layer that defined the system, not to the caller
    expr_rhs = tracer.total("expr.rhs")
    sys_rhs = tracer.total("systems.rhs")
    return {
        "special.calls": layers["special"][0],
        "special.self_s": layers["special"][1],
        "operators.calls": layers["operators"][0],
        "operators.self_s": layers["operators"][1],
        "operators.points": c("operators.points", 0.0),
        "operators.kernel_hit_ratio": _ratio(kernel_hits, kernel_hits + kernel_misses),
        "operators.kernel_cache_mb": c("kernel_cache_bytes", 0.0) / 2**20,
        "operators.csv_s": c("operators.csv_s", 0.0),
        "operators.csv_bytes": c("operators.csv_bytes", 0.0),
        "solver.self_s": layers["solver"][1],
        "solver.us_per_step": 1e6 * _ratio(c("solver.solve_s", 0.0), steps),
        "solver.rhs_evals_per_step": _ratio(c("solver.step_rhs_evals", 0.0), steps),
        "solver.iters_per_step": _ratio(c("solver.iterations", 0.0), steps),
        "solver.newton_step_frac": _ratio(c("solver.newton_steps", 0.0), steps),
        "solver.max_step_residual": c("solver.max_step_residual", 0.0),
        "solver.divergences": c("solver.divergences", 0.0),
        "solver.residual_check_s": c("solver.residual_check_s", 0.0),
        "expr.parse_s": c("expr.parse_s", 0.0),
        "expr.rhs_evals": expr_rhs[0],
        "expr.rhs_self_s": expr_rhs[2],
        "expr.us_per_eval": 1e6 * _ratio(expr_rhs[2], expr_rhs[0]),
        "systems.rhs_evals": sys_rhs[0],
        "systems.rhs_self_s": sys_rhs[2],
        "lyapunov.certify_self_s": tracer.total("lyapunov.certify_theorem")[2],
        "lyapunov.confirm_solve_s": c("lyapunov.confirm_solve_s", 0.0),
        "lyapunov.margins_calls": summed("lyapunov", MARGIN_CALLS, 0),
        "lyapunov.margins_self_s": summed("lyapunov", MARGIN_CALLS, 2),
        "lyapunov.jacobi_calls": tracer.total("lyapunov.jacobi_diagonalize")[0],
        "lyapunov.jacobi_self_s": tracer.total("lyapunov.jacobi_diagonalize")[2],
        "cli.self_s": layers["cli"][1],
        "cli.stdout_bytes": c("cli.stdout_bytes", 0.0),
        "trace.overhead": overhead,
        "trace.spans": tracer.spans,
    }
