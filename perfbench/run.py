"""hfrac benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Workloads are described in perfbench/workloads.py and BENCHMARK.json.  The
library under test is imported from ./src of the checkout, never from an
installed copy; without it the runner exits with status 2 and prints no
result.

--trace 0 measures the end-to-end metrics.  --trace 1 first repeats the
untraced measurement, then replays its first FIXED_GROUPS groups with every
public hfrac function wrapped in a span, and reports the per-layer metrics
plus the tracing overhead (traced over untraced time of the same
operations, minus one).  A fixed number of traced groups makes the per-layer
counts repeat exactly for a given seed.

Human-readable lines come first; the last line of standard output is the
JSON result {"correct", "attempted", "failed", "metrics"}.  A fuller record
(environment, input summary and digest, every operation) goes to
perfbench/out/.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# Groups behind the traced replay and the peak-memory reading, so that both
# cover the same inputs for a given seed however fast the host is.
FIXED_GROUPS = 2

# What each end-to-end metric is on each workload (ensemble / long-horizon / props).
# Each is balanced over the kinds of operation (see `end_to_end`).
MEANING = {
    "ops_per_ref": "verified system pipelines / calls / props calls per reference loop",
    "work_per_ref": "verified solve steps per reference loop of solve + residual_check "
                    "/ the same / margin trials per reference loop",
    "kernel_per_ref": "certify samples x times per reference loop / operator input "
                      "points per convolve reference loop / power-suite trials per "
                      "reference loop",
    "peak_rss_mb": "peak resident set of the benchmark process after the first two groups",
    "setup_s": "median time from process start to the first timed call",
}


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not (SRC / "hfrac" / "__init__.py").is_file():
        fail(f"no hfrac sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import hfrac
    import hfrac.cli  # noqa: F401  (the props workload calls hfrac.cli.main)

    if Path(hfrac.__file__).resolve().parent != (SRC / "hfrac").resolve():
        fail(f"imported hfrac from {hfrac.__file__}, not from {SRC}")
    return hfrac


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (AttributeError, OSError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hfrac").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def measure(workload, seconds: float, tracer=None, groups: int | None = None,
            between=None):
    """Closed loop over whole groups of operations, each checked after its call.

    Without `groups`, another group starts only while the timed calls so far
    plus one average group still fit in `seconds`; at least one group runs.
    Both reference loops run before every operation and after the last one;
    each outcome gets the local median of each (see reference.py).
    `between(timed)`, if given, runs after each group, outside the timing.
    """
    from reference import convolve_loop, local, python_loop

    outcomes = []
    refs = {"python": [], "convolve": []}
    rss_mb = None
    timed = 0.0
    g = 0

    def more() -> bool:
        if groups is not None:
            return g < groups
        return g == 0 or timed + timed / g <= seconds

    def reference() -> None:
        refs["python"].append(python_loop())
        refs["convolve"].append(convolve_loop())

    while more():
        for item in workload.group(g):
            reference()
            if tracer is None:
                out = workload.call(item, None)
            else:
                with tracer.op(len(outcomes)):
                    out = workload.call(item, tracer)
            workload.check(item, out)
            out.results = {}  # release the outputs before the next call
            out.group = g
            outcomes.append(out)
            timed += out.seconds
        g += 1
        if g == FIXED_GROUPS:
            rss_mb = peak_rss_mb()
        if between is not None:
            between(timed)
    reference()
    for i, out in enumerate(outcomes):
        out.ref_py, out.ref_np = local(refs["python"], i), local(refs["convolve"], i)
    return outcomes, g, refs, rss_mb if rss_mb is not None else peak_rss_mb()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of `n` samples beyond it."""
    return math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 20 else None


def end_to_end(name: str, outcomes) -> tuple[dict, dict]:
    """Every number the text output names, and the samples behind each.

    BENCHMARK.json bounds `ops_per_ref`, `work_per_ref` and `kernel_per_ref`:
    work per reference loop (see reference.py), timed against `python_loop`
    except on long-horizon, where the operators are timed against
    `convolve_loop` and the solves against the geometric mean of both.  The `*_per_s` rates are the same per second of wall
    time.  The latencies (`op_p50_ms` and the highest percentile with ten
    samples beyond it) are over verified operations.  All but the bounded
    rates are printed only; failures count in `failed`, the seed's known
    defects apart from it (see workloads.py).
    """
    verified = [o for o in outcomes if o.status == "ok"]
    secs = [o.seconds for o in verified]
    vals = {"op_p50_ms": 1e3 * percentile(secs, 50),
            "attempted_per_s": len(outcomes) / sum(o.seconds for o in outcomes)}
    n = {"op_p50_ms": len(secs)}
    q = tail_percentile(len(secs))
    vals["op_tail_percentile"] = q
    vals["op_tail_ms"] = 1e3 * percentile(secs, q) if q is not None else None

    # (operations, work each did: None for one operation, its time: None for the whole call)
    if name == "ensemble":
        ops = (verified, None, None)
        work = (verified, "steps", "solve_s")
        kernel = (verified, "samples", "certify_s")
    elif name == "long-horizon":
        solves = [o for o in outcomes if o.kind.startswith("solve:")]
        returned = [o for o in outcomes if "rel_dev" in o.work]  # operator calls
        ops = (outcomes, None, None)
        work = ([o for o in solves if o.status == "ok"], "steps", None)
        kernel = (returned, "points", None)
    else:
        ops = (verified, None, None)
        work = (verified, "trials", None)
        kernel = (verified, "power_trials", "power_s")

    def reference(o) -> float:
        """The long-horizon operator calls run np.convolve.  The long solves
        mix interpreted steps with array sums over a history of up to 25000
        points, so they take the geometric mean of both loops.  All else is
        interpreted."""
        if name != "long-horizon":
            return o.ref_py
        if o.kind.startswith("solve:"):
            return math.sqrt(o.ref_py * o.ref_np)
        return o.ref_np

    def rate(chosen, done: str | None, spent: str | None, per_ref: bool) -> float:
        """Work over time, in seconds or in reference loops: the geometric
        mean over the kinds of operation of each kind's mean rate.  Every
        kind weighs the same, however many of its draws failed and however
        long its calls take."""
        by_kind: dict[str, list[float]] = {}
        for o in chosen:
            work = 1 if done is None else o.work.get(done, 0)
            spent_s = o.seconds if spent is None else o.work[spent]
            by_kind.setdefault(o.kind, []).append(
                work * (reference(o) if per_ref else 1.0) / spent_s)
        return math.exp(statistics.fmean(math.log(statistics.fmean(r)) for r in by_kind.values()))

    for key, (chosen, done, spent) in (("ops", ops), ("work", work), ("kernel", kernel)):
        vals[f"{key}_per_ref"] = rate(chosen, done, spent, True)
        vals[f"{key}_per_s"] = rate(chosen, done, spent, False)
        n[f"{key}_per_ref"] = len(chosen)

    def total(chosen, done: str, spent: str | None) -> float:
        """Total work over the total time of the chosen operations."""
        return sum(o.work.get(done, 0) for o in chosen) / sum(
            o.seconds if spent is None else o.work[spent] for o in chosen)

    if name == "ensemble":
        vals["system_p90_ms"] = 1e3 * percentile(secs, 90)
        vals["certify_per_s"] = total(verified, "samples", "certify_s")
        vals["steps_per_s"] = total(outcomes, "steps", "solve_s")
    elif name == "long-horizon":
        vals["steps_per_s"] = total(solves, "steps", None)
        vals["points_per_s"] = total(returned, "points", None)
    else:
        vals["trials_per_s"] = total(verified, "trials", None)
        vals["power_trials_per_s"] = total(verified, "power_trials", "power_s")
    return vals, n


def spec_names(name: str, vals: dict) -> list[tuple[str, float, str]]:
    """The numbers under the names the workload specification uses: totals
    of work over the total time of the operations that did it."""
    if name == "ensemble":
        return [("systems_per_s", vals["attempted_per_s"], "1/s"),
                ("system_p50_ms", vals["op_p50_ms"], "ms"),
                ("system_p90_ms", vals["system_p90_ms"], "ms"),
                ("certify_samples_per_s", vals["certify_per_s"], "1/s"),
                ("verified_steps_per_s", vals["steps_per_s"], "1/s")]
    if name == "long-horizon":
        return [("verified_steps_per_s", vals["steps_per_s"], "1/s"),
                ("operator_points_per_s", vals["points_per_s"], "1/s"),
                ("calls_per_s", vals["attempted_per_s"], "1/s")]
    return [("margin_trials_per_s", vals["trials_per_s"], "1/s"),
            ("power_trials_per_s", vals["power_trials_per_s"], "1/s"),
            ("props_calls_per_s", vals["attempted_per_s"], "1/s")]


def setup_probe(workload_name: str, seed: int) -> None:
    """Child mode: set up exactly as a run does, report readiness, exit."""
    from workloads import WORKLOADS

    lib = load_library()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = WORKLOADS[workload_name](lib, seed, scratch)
        workload.group(0)
        workload.warm_up()
        print("ready", flush=True)


def setup_time(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh process until it is ready to measure."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        fail(f"set-up probe failed (exit {code})")
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "long-horizon", "props"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    lib = load_library()
    OUT.mkdir(exist_ok=True)
    from workloads import WORKLOADS

    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        workload = WORKLOADS[args.workload](lib, args.seed, scratch)
        workload.group(0)
        workload.warm_up()
        own_setup = time.perf_counter() - PROCESS_T0
        probes: list[float] = []

        def probe(timed: float) -> None:
            # Set-up probes are spread over the run, between groups, so that
            # their median covers the host's speed over the whole run.
            if not args.trace and timed >= len(probes) * args.seconds / SETUP_PROBES:
                probes.append(setup_time(args.workload, args.seed))

        outcomes, n_groups, refs, rss_mb = measure(workload, args.seconds, between=probe)
        while not args.trace and len(probes) < SETUP_PROBES:
            probe(math.inf)
        traced = None
        if args.trace:
            traced = traced_pass(lib, workload, min(n_groups, FIXED_GROUPS), outcomes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = outcomes + (traced["outcomes"] if traced else [])
    attempted = len(every)
    failed = sum(o.status in ("failed", "wrong") for o in every)
    wrong = sum(o.status == "wrong" for o in every)
    known = sum(o.status == "known" for o in every)
    causes: dict[str, int] = {}
    for o in every:
        if o.status != "ok":
            cause = "beyond 1e-9 relative" if "deviates" in o.reason else o.reason
            key = f"{o.status}: {o.kind}: {cause}"
            causes[key] = causes.get(key, 0) + 1

    vals, samples = end_to_end(args.workload, outcomes)
    vals["peak_rss_mb"] = rss_mb
    if not args.trace:
        vals["setup_s"] = statistics.median(probes)
        metrics = {n: {"value": float(vals[n]), "unit": u} for n, u in declared("end_to_end")}
    else:
        metrics = {n: {"value": float(traced["metrics"][n]), "unit": u}
                   for n, u in declared("per_layer")}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "inputs": {"groups": n_groups, "digest": workload.digest(n_groups),
                   "summary": workload.summary(n_groups)},
        "setup": {"probes_s": probes, "this_process_s": own_setup},
        "end_to_end": vals, "samples": samples, "spec_names": spec_names(args.workload, vals),
        "counts": {"attempted": attempted, "failed": failed, "wrong": wrong,
                   "known_defects": known},
        "failures": causes,
        "reference_ms": {"python_loop": 1e3 * statistics.median(refs["python"]),
                         "convolve_loop": 1e3 * statistics.median(refs["convolve"])},
        "reference_s": refs,
        "operations": [[o.group, o.kind, o.seconds, o.status, o.reason, o.work,
                        o.ref_py, o.ref_np] for o in outcomes],
    }
    if args.workload == "long-horizon":
        record["operator_rel_dev"] = [[o.kind, o.work.get("rel_dev")] for o in outcomes
                                      if "rel_dev" in o.work]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if traced:
        traced["tracer"].save(OUT / f"{stem}.spans.npz")

    report(args, record, metrics, attempted, failed, wrong, known, causes)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def traced_pass(lib, workload, n_groups: int, untraced) -> dict:
    """Replay the first `n_groups` measured groups with every layer wrapped in spans."""
    from layers import hooks, per_layer
    from spans import Tracer

    ops = sys.modules["hfrac.operators"]
    tracer = Tracer()
    ops._kernel.cache_clear()
    tracer.install(hooks(tracer, lib))
    tracer.mirror_kernel_cache()
    try:
        workload.warm_up()
        before = ops._kernel.cache_info()
        outcomes = measure(workload, 0.0, tracer=tracer, groups=n_groups)[0]
        after = ops._kernel.cache_info()
    finally:
        tracer.uninstall()
    same = [o for o in untraced if o.group < n_groups]
    overhead = sum(o.seconds for o in outcomes) / sum(o.seconds for o in same) - 1.0
    metrics = per_layer(tracer, after.hits - before.hits, after.misses - before.misses, overhead)
    return {"outcomes": outcomes, "metrics": metrics, "tracer": tracer}


def report(args, record, metrics, attempted, failed, wrong, known, causes) -> None:
    env = record["environment"]
    print(f"hfrac benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')} "
          f"threads={env['blas_threads']}, nproc={env['nproc']}, cpu={env['cpu_model']}, "
          f"commit={env['git_commit']}, sources={env['source_sha256']}")
    inputs = record["inputs"]
    print(f"inputs: {inputs['groups']} group(s), digest {inputs['digest']}, "
          f"{json.dumps(inputs['summary'], default=str)}")
    print(f"operations: {attempted} attempted, {failed} failed ({wrong} wrong), "
          f"{known} showing a known seed defect; "
          f"fail_frac = {failed + known} / {attempted} = {(failed + known) / attempted:.4f}")
    for cause, n in sorted(causes.items()):
        print(f"  {n} x {cause}")
    for kind, rel in record.get("operator_rel_dev", []):
        print(f"  {kind:<34} deviates {rel:.2e} relative from its independent route")
    if not args.trace:
        samples = record["samples"]
        for name, m in metrics.items():
            n = f"n={samples[name]}" if name in samples else ""
            print(f"  {name:<14} {m['value']:>14.6g} {m['unit']:<5} {n:<6} {MEANING[name]}")
        e2e, verified = record["end_to_end"], samples["op_p50_ms"]
        print(f"  {'op_p50_ms':<14} {e2e['op_p50_ms']:>14.6g} ms    n={verified:<4} "
              "latency of a verified operation (unbounded)")
        q = e2e["op_tail_percentile"]
        if q is not None:
            print(f"  {f'op_p{q}_ms':<14} {e2e['op_tail_ms']:>14.6g} ms    n={verified:<4} "
                  "highest percentile with ten samples beyond it (unbounded)")
        else:
            print(f"  no tail percentile: {verified} verified operations, fewer than 20")
        print("  per second of wall time, unbounded: " + ", ".join(
            f"{key}_per_s {e2e[f'{key}_per_s']:.6g}" for key in ("ops", "work", "kernel")))
        for name, value, unit in record["spec_names"]:
            print(f"  = {name:<24} {value:>14.6g} {unit}")
        ref = record["reference_ms"]
        print(f"  reference loops (median ms): python {ref['python_loop']:.3f}, "
              f"convolve {ref['convolve_loop']:.3f}")
        print(f"  setup probes (s): {', '.join(f'{t:.3f}' for t in record['setup']['probes_s'])}")
    else:
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    main()
