"""The benchmark's three workloads: seeded inputs, timed calls and checks.

Each workload turns `--seed` into a deterministic stream of groups of
operations.  A run always finishes the group it has started and every group
holds the same mix of operation kinds and sizes; the seed only moves the
values inside it (initial states, orders, coefficients, series).

Each operation is issued by one closed-loop client: the next call starts
when the previous one has returned.  `call` makes and times the library
calls of one operation; `check` then verifies their results, outside the
timed region and outside the trace.  An outcome is

* ``ok``      -- every check passed;
* ``known``   -- the operation shows one of the seed's two known defects
                 and nothing worse: a linear draw raised
                 `SolverDivergenceError`, or `rl_difference` or
                 `caputo_difference` missed the 1e-9 relative contract while
                 staying within `GROSS_TOL`.  These are counted and printed
                 apart from ``failed``, so that a run's ``failed`` count does
                 not depend on how many such draws fit into its time;
* ``failed``  -- the library raised, or an output missed its documented
                 contract (1e-9 relative for operator identities, 1e-8 for
                 trajectory residuals) while staying within `GROSS_TOL`;
* ``wrong``   -- an output is wrong beyond `GROSS_TOL`, a CSV did not read
                 back, a stable-by-construction system was not certified,
                 or `props` reported a failing suite.  A run with any wrong
                 outcome reports ``"correct": false``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

RESIDUAL_TOL = 1e-8     # README: trajectories substitute back to 1e-8
REL_TOL = 1e-9          # README: operator identities to 1e-9 relative ...
ABS_FLOOR = 1e-12       # ... with a 1e-12 absolute floor
MARGIN_TOL = 1e-10      # README: `props` margins may dip to -1e-10
GROSS_TOL = 1e-6        # beyond this an output is wrong, not merely imprecise


@dataclass
class Outcome:
    kind: str                       # operation kind, e.g. "solve:ex5.1"
    seconds: float                  # wall time of the timed library calls
    status: str = "ok"              # ok | known | failed | wrong
    reason: str = ""
    work: dict = field(default_factory=dict)
    group: int = -1
    ref_py: float = 0.0             # local reference loop times (reference.py)
    ref_np: float = 0.0
    results: dict = field(default_factory=dict, repr=False)  # for `check`

    def fail(self, reason: str, wrong: bool = False, known: bool = False) -> None:
        status = "wrong" if wrong else "known" if known else "failed"
        if SEVERITY.index(status) > SEVERITY.index(self.status):
            self.status, self.reason = status, reason


SEVERITY = ("ok", "known", "failed", "wrong")


def _rel_dev(actual, expected) -> float:
    """Worst deviation in units of the README tolerance (<= 1 passes)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.inf
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    return float(np.max(np.abs(actual - expected))) / (REL_TOL * scale + ABS_FLOOR)


def _check_close(out: Outcome, what: str, actual, expected, known: bool = False) -> float:
    """Compare to the independent route; returns the relative deviation.
    `known`: a miss within `GROSS_TOL` is the seed's known drift."""
    dev = _rel_dev(actual, expected)
    rel = dev * REL_TOL
    if dev > 1.0:
        out.fail(f"{what} deviates {rel:.1e} relative", wrong=rel > GROSS_TOL, known=known)
    return rel


def _hash_update(h, *parts) -> None:
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        else:
            h.update(repr(p).encode())


class Workload:
    """Common plumbing: lazily generated groups plus an input digest."""

    name = ""

    def __init__(self, lib, seed: int, scratch: str):
        self.lib = lib
        self.seed = seed
        self.scratch = scratch
        self._groups: list[list] = []

    def group(self, index: int) -> list:
        while len(self._groups) <= index:
            self._groups.append(self.make_group(len(self._groups)))
        return self._groups[index]

    def rng(self, index: int) -> np.random.Generator:
        # One independent stream per group, so groups can be made on demand.
        return np.random.default_rng([self.seed, index])

    def digest(self, n_groups: int) -> str:
        h = hashlib.sha256()
        for g in range(n_groups):
            for item in self.group(g):
                _hash_update(h, *item.values())
        return h.hexdigest()[:16]

    def make_group(self, index: int) -> list:
        raise NotImplementedError

    def call(self, item: dict, tracer) -> Outcome:
        """Make and time the library calls of one operation."""
        raise NotImplementedError

    def check(self, item: dict, out: Outcome) -> None:
        """Verify the results of `call`; marks `out` failed or wrong."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def summary(self, n_groups: int) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ensemble: the everyday exploratory pipeline on a stream of small systems.

BUILTIN_KEYS = ("ex5.1", "ex5.2", "ex5.3", "ex5.4")
ENSEMBLE_STEPS = (100, 1000)
CERTIFY_SAMPLES = 2000


def _fmt(v: float) -> str:
    return repr(float(v))


def system_text(kind: str, nu: float, x0, sources) -> str:
    lines = [f"kind={kind}", f"nu={_fmt(nu)}", "h=1", "a=0",
             "x0=" + ",".join(_fmt(v) for v in x0)]
    lines += [f"f{i + 1}={src}" for i, src in enumerate(sources)]
    return "\n".join(lines) + "\n"


class Ensemble(Workload):
    """Groups of 12 systems: each built-in once as a callable, each built-in
    once parsed from definition text, and four diagonal linear systems
    f_i = -c_i*x_i as definition text (dim 1-4, c log-uniform on
    [1e-2, 1e6], nu uniform on (0, 1], Caputo and RL alternating; see
    `make_group` for the stratification).  Step counts are stratified over
    [100, 1000); the 12 systems run in a shuffled order."""

    name = "ensemble"

    def make_group(self, index: int) -> list:
        rng = self.rng(index)
        lo, hi = ENSEMBLE_STEPS
        # Step counts lie within 25 steps of the midpoints of four strata of
        # [lo, hi).  Within each source, the four systems take the four
        # strata, rotated from group to group, so that every four groups pair
        # each system with each stratum once, whatever the seed.
        strata = [(k + index) % 4 for _ in range(3) for k in range(4)]
        steps = [int(lo + (hi - lo) * (st + 0.5) / 4) + int(rng.integers(-25, 26))
                 for st in strata]
        items = []
        for key in BUILTIN_KEYS:
            items.append({"source": "builtin", "key": key,
                          "x0": rng.uniform(-0.5, 0.5, 2)})
        for key in BUILTIN_KEYS:
            b = self.lib.get_builtin(key)
            x0 = rng.uniform(-0.5, 0.5, 2)
            items.append({"source": "parsed", "key": key, "x0": x0,
                          "text": system_text(b.system.kind.value, b.system.nu, x0, b.sources)})
        # The four linear systems are stratified, so that every group holds the
        # same spread: one of each dimension, nu in each quarter of (0, 1], and
        # the stiffness, the largest c, in each quarter of its distribution,
        # paired at random.  With the other c drawn log-uniform below the
        # largest, each c is still log-uniform on [1e-2, 1e6].
        dims = rng.permutation(4) + 1
        stiff_strata = rng.permutation(4) + rng.random(4)
        nu_strata = rng.permutation(4) + rng.random(4)
        for j in range(4):
            dim = int(dims[j])
            # log10 of the largest of `dim` log-uniform draws has CDF u**dim
            top = -2.0 + 8.0 * (stiff_strata[j] / 4.0) ** (1.0 / dim)
            c = 10.0 ** rng.uniform(-2.0, top, dim)
            c[rng.integers(dim)] = 10.0 ** top
            nu = 1.0 - nu_strata[j] / 4.0
            kind = "caputo" if j % 2 == 0 else "rl"
            x0 = rng.uniform(-0.5, 0.5, dim)
            sources = [f"-{_fmt(ci)}*x{i + 1}" for i, ci in enumerate(c)]
            items.append({"source": "linear", "key": f"linear-{kind}", "x0": x0,
                          "c": c, "nu": nu, "text": system_text(kind, nu, x0, sources)})
        for item, n in zip(items, steps):
            item["steps"] = n
        return [items[i] for i in rng.permutation(len(items))]

    def _build(self, item: dict, tracer):
        lib = self.lib
        if item["source"] == "builtin":
            b = lib.get_builtin(item["key"])
            system = dataclasses.replace(b.system, x0=item["x0"])
            condition, layer = b.condition, "systems"
        else:
            system, _ = lib.parse_system_source(item["text"])
            if item["source"] == "parsed":
                condition = lib.get_builtin(item["key"]).condition
            else:
                condition = lib.QuadraticCondition(np.eye(system.dim))
            layer = "expr"
        if tracer is not None:
            object.__setattr__(system, "rhs", tracer.wrap_rhs(system.rhs, layer))
        return system, condition

    def call(self, item: dict, tracer) -> Outcome:
        lib = self.lib
        out = Outcome(f"{item['source']}:{item['key']}", 0.0,
                      work={"solve_s": 0.0, "certify_s": 0.0})
        grid_csv = os.path.join(self.scratch, "traj.csv")
        step_csv = os.path.join(self.scratch, "traj.steps.csv")
        t0 = time.perf_counter()
        try:
            system, condition = self._build(item, tracer)
            ts = time.perf_counter()
            try:
                traj = lib.solve(system, item["steps"])
                residual = lib.residual_check(traj)
            finally:
                out.work["solve_s"] = time.perf_counter() - ts
            lib.decay_report(traj)
            lib.write_grid_csv(traj.states, grid_csv)
            lib.write_step_csv(traj, step_csv)
            back = lib.read_grid_csv(grid_csv)
            with open(step_csv, newline="") as fh:
                step_rows = list(csv.reader(fh))
            # The default lattice: its shift changes the cost of a built-in's
            # certificate by a factor of about 3.5, which would swamp the code's own speed.
            sampler = lib.LatticeSampler(count=CERTIFY_SAMPLES)
            tc = time.perf_counter()
            try:
                report = lib.certify_theorem(system, condition, sampler)
            finally:
                out.work["certify_s"] = time.perf_counter() - tc
        except Exception as err:  # a raised error is a loud failure of this pipeline
            out.fail(type(err).__name__, known=item["source"] == "linear"
                     and isinstance(err, lib.SolverDivergenceError))
        else:
            out.results = {"system": system, "traj": traj, "residual": residual,
                           "back": back, "step_rows": step_rows, "report": report,
                           "sampler": sampler}
        out.seconds = time.perf_counter() - t0
        return out

    def check(self, item: dict, out: Outcome) -> None:
        if out.status != "ok":
            return
        r = out.results
        traj, residual = r["traj"], r["residual"]
        if not residual <= RESIDUAL_TOL:
            out.fail(f"residual {residual:.1e}", wrong=not residual <= GROSS_TOL)
        back = r["back"]
        if not (back.grid == traj.states.grid and np.array_equal(back.values, traj.states.values)):
            out.fail("trajectory CSV does not read back", wrong=True)
        expected_rows = [["step", "iters", "residual"]] + [
            [str(s.index), str(s.iterations), f"{s.residual:.17g}"] for s in traj.steps]
        if r["step_rows"] != expected_rows:
            out.fail("step CSV does not read back", wrong=True)
        if not r["report"].certified:
            out.fail(f"not certified ({r['report'].verdict})", wrong=True)
        if out.status == "ok":
            times = r["sampler"].time_points if r["system"].time_dependent else 1
            out.work.update(steps=item["steps"], samples=CERTIFY_SAMPLES * times)

    def warm_up(self) -> None:
        lib = self.lib
        for key in BUILTIN_KEYS:
            b = lib.get_builtin(key)
            system, _ = lib.parse_system_source(
                system_text(b.system.kind.value, b.system.nu, b.system.x0, b.sources))
            for sysdef in (b.system, system):
                traj = lib.solve(sysdef, 8)
                lib.residual_check(traj)
                lib.decay_report(traj)
                lib.certify_theorem(sysdef, b.condition, lib.LatticeSampler(count=16))
        path = os.path.join(self.scratch, "warm.csv")
        lib.write_grid_csv(traj.states, path)
        lib.write_step_csv(traj, path + ".steps")
        lib.read_grid_csv(path)

    def summary(self, n_groups: int) -> dict:
        items = [it for g in range(n_groups) for it in self.group(g)]
        linear = [it for it in items if it["source"] == "linear"]
        c = np.concatenate([it["c"] for it in linear]) if linear else np.zeros(1)
        return {
            "systems": len(items),
            "by_source": {s: sum(it["source"] == s for it in items)
                          for s in ("builtin", "parsed", "linear")},
            "steps_range": [min(it["steps"] for it in items), max(it["steps"] for it in items)],
            "steps_total": sum(it["steps"] for it in items),
            "linear_dims": sorted({int(len(it["c"])) for it in linear}),
            "linear_c_log10_range": [float(np.log10(c.min())), float(np.log10(c.max()))],
            "linear_nu_range": [float(min(it["nu"] for it in linear)),
                                float(max(it["nu"] for it in linear))],
            "certify_samples": CERTIFY_SAMPLES,
        }


# ---------------------------------------------------------------------------
# long-horizon: long verified solves and operators on long series.

# Step count of each solve, the same in every group; the seed moves x0.
SOLVES = (("ex5.1", 15_000), ("ex5.2", 25_000))
# Series length of each operator call, the same in every group.
OPERATORS = (("fractional_sum", 30_000), ("reconstruct_from_difference", 10_000),
             ("rl_difference", 100_000), ("caputo_difference", 30_000))


class LongHorizon(Workload):
    """Groups of six calls: two verified solves of built-ins (the Newton-path
    Caputo ex5.1 at 15000 steps and the fixed-point RL ex5.2 at 25000 steps)
    and the four operators, each on its own seeded 2-column series of
    the length OPERATORS gives it.  Each operator output is checked against
    an independent route: fractional_sum and reconstruct_from_difference
    against each other, rl_difference against rl_difference_direct,
    caputo_difference by reconstructing the series from it.  Every call
    draws its own nu uniformly from (0, 1]."""

    name = "long-horizon"

    def make_group(self, index: int) -> list:
        rng = self.rng(index)
        solves = [{"op": "solve", "key": key, "steps": steps,
                   "x0": rng.uniform(-0.5, 0.5, 2)} for key, steps in SOLVES]
        calls = []
        for op, n in OPERATORS:
            calls.append({"op": op, "series": rng.uniform(-1.0, 1.0, (n, 2)),
                          "nu": float(1.0 - rng.random()), "x0": rng.uniform(-0.5, 0.5, 2)})
        # One solve before each pair of operator calls, so that a change of
        # host speed during the group affects both kinds of work alike.
        return [solves[0], *calls[:2], solves[1], *calls[2:]]

    def _grid_function(self, series):
        return self.lib.GridFunction(self.lib.HGrid(0.0, 1.0, len(series)), series)

    def call(self, item: dict, tracer) -> Outcome:
        lib = self.lib
        op = item["op"]
        if op == "solve":
            out = Outcome(f"solve:{item['key']}", 0.0, work={"steps": 0})
            system = dataclasses.replace(lib.get_builtin(item["key"]).system, x0=item["x0"])
            if tracer is not None:
                object.__setattr__(system, "rhs", tracer.wrap_rhs(system.rhs, "systems"))
        else:
            series, nu = item["series"], item["nu"]
            out = Outcome(f"{op}:{len(series)}", 0.0, work={"points": len(series)})
            f = self._grid_function(series)
            kind = lib.OperatorKind.CAPUTO
        t0 = time.perf_counter()
        try:
            if op == "solve":
                traj = lib.solve(system, item["steps"])
                result = lib.residual_check(traj)
            elif op == "fractional_sum":
                result = lib.fractional_sum(f, nu)
            elif op == "reconstruct_from_difference":
                g = lib.ShiftedGridFunction(f.grid, (1.0 - nu) * f.grid.h, series)
                result = lib.reconstruct_from_difference(g, item["x0"], kind, nu)
            elif op == "rl_difference":
                result = lib.rl_difference(f, nu)
            else:
                result = lib.caputo_difference(f, nu)
        except Exception as err:
            out.fail(type(err).__name__)
        else:
            out.results = {"result": result}
        out.seconds = time.perf_counter() - t0
        return out

    def check(self, item: dict, out: Outcome) -> None:
        if out.status != "ok":
            return
        lib = self.lib
        op, result = item["op"], out.results["result"]
        if op == "solve":
            out.work["residual"] = result
            if not result <= RESIDUAL_TOL:
                out.fail(f"residual {result:.1e}", wrong=not result <= GROSS_TOL)
            else:
                out.work["steps"] = item["steps"]
            return
        # Independent routes, untimed.
        series, nu = item["series"], item["nu"]
        f = self._grid_function(series)
        kind = lib.OperatorKind.CAPUTO
        if op == "fractional_sum":
            g = lib.ShiftedGridFunction(f.grid, (1.0 - nu) * f.grid.h, series)
            ref = lib.reconstruct_from_difference(g, np.zeros(2), kind, nu).values[1:]
            rel = _check_close(out, "fractional_sum vs reconstruct", result.values, ref)
        elif op == "reconstruct_from_difference":
            ref = lib.fractional_sum(f, nu).values + item["x0"]
            rel = _check_close(out, "reconstruct vs fractional_sum", result.values[1:], ref)
        elif op == "rl_difference":
            ref = lib.rl_difference_direct(f, nu).values
            rel = _check_close(out, "rl_difference vs direct", result.values, ref,
                               known=True)  # known drift at small nu
        else:
            back = lib.reconstruct_from_difference(result, series[0], kind, nu).values
            rel = _check_close(out, "caputo_difference round trip", back, series,
                               known=True)
        out.work["rel_dev"] = rel

    def warm_up(self) -> None:
        lib = self.lib
        rng = np.random.default_rng(0)
        f = self._grid_function(rng.uniform(-1.0, 1.0, (64, 2)))
        g = lib.ShiftedGridFunction(f.grid, 0.5, f.values)
        lib.fractional_sum(f, 0.5)
        lib.rl_difference(f, 0.5)
        lib.rl_difference_direct(f, 0.5)
        lib.caputo_difference(f, 0.5)
        lib.reconstruct_from_difference(g, np.zeros(2), lib.OperatorKind.CAPUTO, 0.5)
        for key in ("ex5.1", "ex5.2", "ex5.3"):
            lib.residual_check(lib.solve(lib.get_builtin(key).system, 16))

    def summary(self, n_groups: int) -> dict:
        items = [it for g in range(n_groups) for it in self.group(g)]
        solves = [it for it in items if it["op"] == "solve"]
        ops = [it for it in items if it["op"] != "solve"]
        return {
            "groups": n_groups,
            "solves": {k: sorted(it["steps"] for it in solves if it["key"] == k)
                       for k in sorted({it["key"] for it in solves})},
            "operator_calls": len(ops),
            "series_lengths": sorted(len(it["series"]) for it in ops),
            "nu_range": [min(it["nu"] for it in ops), max(it["nu"] for it in ops)],
        }


# ---------------------------------------------------------------------------
# props: the CLI's randomized inequality suites, in process.

PROPS_TRIALS = 3
PROPS_SUITES = 16
NU_GRID = 10


class _LineClock(io.TextIOBase):
    """Captured stdout that timestamps every completed line."""

    def __init__(self):
        self.parts: list[str] = []
        self.line_times: list[float] = []
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.parts.append(s)
        self.bytes += len(s.encode())
        for _ in range(s.count("\n")):
            self.line_times.append(time.perf_counter())
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


class Props(Workload):
    """`hfrac props --trials 3 --seed s` called in process, with seeds drawn
    from the run seed.  Each call runs the 16 suites over 10 orders on
    24-point series.  Lines are timestamped as the CLI prints them, which
    splits each call's time between suites without touching the library."""

    name = "props"
    CALLS_PER_GROUP = 8

    def make_group(self, index: int) -> list:
        rng = self.rng(index)
        return [{"argv": ["props", "--trials", str(PROPS_TRIALS),
                          "--seed", str(int(s))]}
                for s in rng.integers(0, 2**31, self.CALLS_PER_GROUP)]

    def call(self, item: dict, tracer) -> Outcome:
        out = Outcome("props", 0.0)
        clock = _LineClock()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(clock):
                code = self.lib.cli.main(list(item["argv"]))
        except Exception as err:
            out.fail(type(err).__name__)
        else:
            out.results = {"code": code, "clock": clock}
            if tracer is not None:
                tracer.count("cli.stdout_bytes", clock.bytes)
        out.seconds = time.perf_counter() - t0
        return out

    def check(self, item: dict, out: Outcome) -> None:
        if out.status != "ok":
            return
        code, clock = out.results["code"], out.results["clock"]
        rows = [ln.split() for ln in clock.text().splitlines()[1:]]
        worst = [float(r[1]) for r in rows if len(r) >= 2]
        if code != 0 or len(worst) != PROPS_SUITES or min(worst) < -MARGIN_TOL:
            out.fail(f"props exit {code}, worst margin "
                     f"{min(worst) if worst else float('nan'):.2e}", wrong=True)
            return
        # line 0 is the header, printed before the first suite runs
        suite_s = np.diff(clock.line_times[: PROPS_SUITES + 1])
        power = [i for i, r in enumerate(rows) if "power" in r[0] or "square" in r[0]]
        trials = NU_GRID * PROPS_TRIALS
        out.work = {"trials": PROPS_SUITES * trials,
                    "power_trials": len(power) * trials,
                    "power_s": float(sum(suite_s[i] for i in power))}

    def warm_up(self) -> None:
        with redirect_stdout(_LineClock()):
            self.lib.cli.main(["props", "--trials", "1", "--seed", "0"])

    def summary(self, n_groups: int) -> dict:
        items = [it for g in range(n_groups) for it in self.group(g)]
        return {"calls": len(items), "trials_per_suite_and_order": PROPS_TRIALS,
                "suites": PROPS_SUITES, "orders": NU_GRID, "series_points": 24,
                "seeds_first": [it["argv"][-1] for it in items[:3]]}


WORKLOADS = {w.name: w for w in (Ensemble, LongHorizon, Props)}
