"""emzv benchmark: end-to-end metrics, correctness gates and per-layer spans.

    python3 perfbench/run.py --workload table --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, own interpreter
    python3 perfbench/run.py --smoke                   # tiny bounds, traced too

With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it alternates untraced and traced passes over
the same inputs and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end well inside 180 s: units not finished by then are failed.
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 5
SMOKE_SECONDS = 0.0


def in_child(fn, cap_s: float):
    """Run fn() in a child forked from this process.

    Returns fn's result, "crash" if it raised, or "timeout" if it ran past
    cap_s seconds (the child is then killed).  The child is always reaped.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps(fn())
        except BaseException:  # child boundary: report the crash and exit
            import traceback

            traceback.print_exc()
            payload, code = pickle.dumps("crash"), 1
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + max(cap_s, 0.0)
    try:
        with os.fdopen(read_fd, "rb", buffering=0) as fh:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([fh], [], [], left)[0]:
                    return "timeout"
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
        pid = 0
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return "crash"
    return pickle.loads(b"".join(chunks))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def peak_rss_mb() -> float:
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


def import_emzv() -> None:
    """Put this checkout's src/ first on the path; refuse any other emzv."""
    if not (SRC / "emzv" / "__init__.py").is_file():
        sys.exit(f"error: no emzv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import emzv

    if Path(emzv.__file__).resolve().parent != SRC / "emzv":
        sys.exit(f"error: imported emzv from {emzv.__file__}, not from {SRC}")


def timed_setup(args, scratch: Path):
    """Import and prepare one workload; return it and the seconds it took,
    at reference speed."""
    with clock.Sampler() as sampler:
        start = sampler.now()
        import_emzv()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch)
        workload.setup()
        took = sampler.now() - start
    return workload, took * clock.Speed(sampler.samples).factor(sampler.start, sampler.end)


def setup_samples(args, first: float) -> list[float]:
    """`first` plus SETUP_REPEATS - 1 set-ups, each in a fresh interpreter."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def scale(results: list) -> None:
    """Convert the times of a pass's units to reference speed in place."""
    timed = [r for r in results if "window" in r]
    speed = clock.Speed([s for r in timed for s in r["window"][2]])
    for r in timed:
        start, end, _ = r["window"]
        unit = speed.factor(start, end)
        r["speed"] = unit
        r["wall"] *= unit
        r["ops"] = [
            (t if t is None else t * ((at is not None and speed.factor(at, at)) or unit), status, res, at)
            for t, status, res, at in r["ops"]
        ]
        for agg in r.get("spans", {}).values():
            agg["s"] *= unit
            agg["self_s"] *= unit


def run_pass(workload, traced: bool, deadline: float) -> list:
    """One pass over the workload's units; every op is returned, none dropped."""
    results = []
    for unit in workload.passes():
        left = deadline - time.monotonic()
        result = in_child(lambda: workload.run_unit(unit, traced), left) if left > 0 else "timeout"
        if not isinstance(result, dict):
            result = {"wall": 0.0, "ops": [(None, result, None, None)] * workload.ops_per_unit(unit)}
        results.append(result)
    scale(results)
    if not workload.check_pass(results):  # a wrong output somewhere in the pass
        for r in results:
            r["ops"] = [(t, "check", res, at) for t, _, res, at in r["ops"]]
    return results


def measure(workload, seconds: float, traced: bool, deadline: float) -> dict:
    """Whole passes until untraced passes have taken `seconds` (at least one).

    In a traced run each untraced pass is followed by a traced pass over the
    same units, so the two wall times give the tracing overhead.
    """
    untraced, traced_passes = [], []
    measured = 0.0
    while True:
        start = time.perf_counter()
        untraced.append(run_pass(workload, False, deadline))
        measured += time.perf_counter() - start
        if traced:
            traced_passes.append(run_pass(workload, True, deadline))
        if measured >= seconds or time.monotonic() >= deadline:
            break
    return {"untraced": untraced, "traced": traced_passes}


def all_ops(passes: list) -> list:
    return [op for results in passes for r in results for op in r["ops"]]


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, extra report lines) from the untraced passes.

    Throughput is taken per pass and the run reports its median over passes.
    Every pass runs the same ops in the same order, so each op's latency is
    first reduced to its median over passes, and the percentiles are taken
    over those medians: a pause that lands on an op in one pass does not
    move them.
    """
    rates = []
    for results in run["untraced"]:
        ran = [r for r in results if "speed" in r]
        wall = sum(r["wall"] for r in ran)
        rates.append(ratio(sum(len(r["ops"]) for r in ran), wall))
    per_op = zip(*([op[0] for r in results for op in r["ops"]] for results in run["untraced"]))
    lat_ms = [statistics.median(t) * 1e3 for t in (
        [x for x in times if x is not None] for times in per_op) if t]
    ops = all_ops(run["untraced"])
    failed = sum(op[1] != "ok" for op in ops)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 0.50), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "ops": (len(ops), "count"),
        "passes": (len(rates), "count"),
        "fail_frac": (failed / len(ops), "ratio"),
        "host_speed": (statistics.median([r["speed"] for rs in run["untraced"] for r in rs if "speed" in r] or [0.0]),
                       "ratio"),
    }
    # The highest percentile reported is the one with >= 10 samples above it.
    if len(lat_ms) >= 1000:
        extra["latency_p99_ms"] = (percentile(lat_ms, 0.99), "ms")
    residuals = [op[2] for op in ops if op[2] is not None and op[1] == "ok"]
    if residuals:
        extra["max_residual"] = (max(residuals), "abs")
    return metrics, extra


NUMERIC_ERRORS = ("FitError", "ToleranceError", "NonConvergence", "PoleError", "AliasError", "PreconditionError")


def per_layer(run: dict) -> tuple[dict, list]:
    """Per-layer metrics, per pass, from the traced passes."""
    from tracer import SPAN_NAMES, merge

    npasses = len(run["traced"])
    spans: dict = {}
    caches: dict = {}
    unbound: set = set()
    for results in run["traced"]:
        for r in results:
            merge(spans, r.get("spans", {}))
            for name, (hits, misses) in r.get("caches", {}).items():
                h, m = caches.get(name, (0, 0))
                caches[name] = (h + hits, m + misses)
            unbound.update(r.get("unbound", ()))
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "leaf": 0, "sum": 0, "max": 0}

    def span(name):
        return spans.get(name, zero)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (span(name)["calls"] / npasses, "count")
        metrics[f"{name}.s"] = (span(name)["s"] / npasses, "s")
        metrics[f"{name}.self_s"] = (span(name)["self_s"] / npasses, "s")
    for name in ("numerics.cut_integral", "numerics.value"):
        calls = span(name)["calls"]
        metrics[f"{name}.hit_ratio"] = (ratio(span(name)["leaf"], calls), "ratio")
    metrics["numerics.theta.points"] = (span("numerics.theta")["sum"] / npasses, "count")
    metrics["numerics.integrate_nested.letter_nodes"] = (span("numerics.integrate_nested")["sum"] / npasses, "count")
    metrics["reduction.trace_steps"] = (span("reduction.reduce_index")["sum"] / npasses, "count")
    metrics["reduction.result_terms_max"] = (span("reduction.reduce_index")["max"], "count")
    for name in ("reduction.rewrite_step", "faypoly.p_poly", "words.shuffle"):
        hits, misses = caches.get(name, (0, 0))
        metrics[f"{name}.misses"] = (misses / npasses, "count")
        metrics[f"{name}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    traced_wall = sum(r["wall"] for results in run["traced"] for r in results) / npasses
    untraced_wall = sum(r["wall"] for results in run["untraced"] for r in results) / len(run["untraced"])
    metrics["faypoly.share"] = (ratio(span("faypoly.enumerate_support")["s"] / npasses, traced_wall), "ratio")
    metrics["relations.substitute_atom.share"] = (
        ratio(span("relations.substitute_atom")["s"] / npasses, traced_wall), "ratio")
    statuses: dict = {}
    for op in all_ops(run["traced"]):
        statuses[op[1]] = statuses.get(op[1], 0) + 1
    for key in NUMERIC_ERRORS:
        metrics[f"numerics.errors.{key}"] = (statuses.pop(key, 0) / npasses, "count")
    statuses.pop("ok", None)
    for key in ("check", "residual", "timeout", "crash"):
        metrics[f"ops.{key}"] = (statuses.pop(key, 0) / npasses, "count")
    metrics["ops.other_error"] = (sum(statuses.values()) / npasses, "count")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_frac"] = (ratio(traced_wall - untraced_wall, untraced_wall), "ratio")
    metrics["trace.unbound"] = (len(unbound), "count")
    return metrics, sorted(unbound)


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_one(args) -> int:
    """One workload in this interpreter; prints the contract's JSON last."""
    started = time.monotonic()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload, first_setup = timed_setup(args, scratch)
        setup = setup_samples(args, first_setup)
        deadline = started + RUN_DEADLINE_S
        run = measure(workload, args.seconds, bool(args.trace), deadline)
    finally:
        for leftover in scratch.iterdir():
            leftover.unlink()
        scratch.rmdir()
    ops = all_ops(run["untraced"] + run["traced"])
    statuses = [op[1] for op in ops]
    correct = "check" not in statuses and "crash" not in statuses
    failed = sum(s != "ok" for s in statuses)
    print(f"# {args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in environment().items()))
    e2e, extra = end_to_end(run, setup)
    if args.trace:
        metrics, unbound = per_layer(run)
        if unbound:
            print("# unbound spans: " + ", ".join(unbound))
    else:
        metrics = e2e
    for name, (value, unit) in {**e2e, **extra}.items():
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:12s} {name:40s} {value:14.6g} {unit}")
    print(f"# correct={correct} attempted={len(ops)} failed={failed}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; untraced then traced in
    smoke mode."""
    from workloads import WORKLOADS

    summary = {}
    ok = True
    for name in WORKLOADS:
        for trace in ([0, 1] if args.smoke else [args.trace]):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
            sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not done.stdout.strip():
                print(f"# {name} trace={trace}: exit code {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            summary[f"{name}" + (" trace" if trace else "")] = result
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    # One BLAS/OpenMP thread, fixed before numpy is imported; subprocesses
    # inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    # On SIGTERM unwind normally, so that a running unit's child is killed
    # and reaped before exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", "table", "reduce-cold", "eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny bounds, one pass each, traced too")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.setup_only:
        _, elapsed = timed_setup(args, ROOT)
        print(elapsed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
