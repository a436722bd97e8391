#!/usr/bin/env python3
"""Benchmark of the atomsqueeze package: one workload, one run, one JSON line.

    python3 bench/run.py --workload {cli_readme,fock_truncation,atom_sweep} \
        --seed N --seconds S --trace {0,1}

One closed-loop client with single-threaded BLAS.  The run times several
fresh-interpreter set-ups, warms up, then issues whole decks of requests
(workloads.py) until --seconds have passed, checking every request's
output.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it runs the same decks again with every package function wrapped in a
span (tracing.py) and prints the per-layer metrics instead.  Metric names
and units come from BENCHMARK.json at the checkout root.  The last stdout
line is the JSON result; the run's environment, failures and (traced)
spans are also written under out/ next to this file.
"""

import time

import common

common.pin_blas()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import tracing  # noqa: E402

N_SETUPS = 7
SETUP_TIMEOUT_S = 120.0
OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Outcome:
    latency: float
    status: str
    detail: str = ""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(common.IMPORT_NAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be > 0")
    return args


def cold_setups(workload: str, seed: int, n: int) -> list:
    """Time n fresh interpreters that import the package and build the first deck."""
    out = []
    cmd = [sys.executable, str(common.BENCH_DIR / "cold.py"), "setup", workload, str(seed)]
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=common.ROOT, env=common.child_env(), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        wall = time.perf_counter() - t0
        out.append(dict(json.loads(proc.stdout.splitlines()[-1]), wall_s=wall))
    return out


def run_one(workload, req, rec=None) -> Outcome:
    """Execute one request, then check its output outside the timed and traced region."""
    if rec is not None:
        rec.begin_request(req.tag)
    t0 = time.perf_counter()
    try:
        out = workload.execute(req, rec)
    except Exception as exc:  # a raising request is counted as failed; the run goes on
        return Outcome(time.perf_counter() - t0, FAILED, f"{req.tag}: {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    if rec is not None:
        rec.enabled = False
    try:
        workload.check(req, out)
    except Exception as exc:  # any check error means the output is not what it must be
        return Outcome(latency, WRONG, f"{req.tag}: {type(exc).__name__}: {exc}")
    finally:
        if rec is not None:
            rec.enabled = True
    return Outcome(latency, OK)


def run_decks(workload, seed: int, seconds: float):
    """Issue whole decks until `seconds` have passed; returns (requests, outcomes, wall)."""
    reqs, outcomes = [], []
    t0 = time.perf_counter()
    deck = 0
    while True:
        for req in workload.deck(seed, deck):
            reqs.append(req)
            outcomes.append(run_one(workload, req))
        deck += 1
        if time.perf_counter() - t0 >= seconds:
            return reqs, outcomes, time.perf_counter() - t0


def replay(workload, reqs, rec):
    """Run the same requests again with spans recorded; returns (outcomes, wall)."""
    t0 = time.perf_counter()
    outcomes = [run_one(workload, req, rec) for req in reqs]
    return outcomes, time.perf_counter() - t0


def latency_tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest percentile with >= 10 requests beyond it.

    With 10 or fewer requests no percentile has 10 beyond; the maximum is reported.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


def peak_rss_mib(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, setups, outcomes, wall) -> tuple[dict, dict]:
    lat = [o.latency for o in outcomes]
    tail, pct, n = latency_tail(lat)
    values = {
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "throughput_rps": len(outcomes) / wall,
        "peak_rss_mb": peak_rss_mib(workload.in_process),
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups",
        "latency_tail_s": f"p{pct:.1f} of {n} requests",
        "throughput_rps": f"{len(outcomes)} requests in {wall:.3f} s",
        "peak_rss_mb": "max over child processes" if not workload.in_process else "benchmark process",
    }
    return values, notes


def _median(xs: list) -> float:
    # a traced CLI child that crashed sends no timings; no timings read zero
    return statistics.median(xs) if xs else 0.0


def layer_value(name: str, table, processes, n: int, overhead: float) -> float:
    """Per-layer metric `name`, per request where it is a sum over requests."""
    if name == "trace.overhead_s":
        return overhead
    if name == "cli.import_s":
        return _median([p["import_s"] for p in processes])
    if name == "cli.interpreter_s":
        return _median([p["wall_s"] - p["python_s"] for p in processes])
    if name == "cli.compute_s":
        return table.inclusive_s("cli.compute") / n
    if name == "cli.serialize_s":
        return table.inclusive_s("cli.serialize") / n
    if name in tracing.COUNTERS:
        return table.count(name) / n
    parts = name.split(".")
    if parts[-1] == "calls":
        return table.calls(".".join(parts[:-1])) / n
    if parts[-1] == "self_s":
        span = ".".join(parts[:-1])
        return (table.module_self_s(span) if len(parts) == 2 else table.self_s(span)) / n
    if len(parts) >= 3 and parts[-2] == "self_s":
        return table.self_s_at(".".join(parts[:-2]), parts[-1]) / n
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def git_commit() -> str:
    if not (common.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(common.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_env": dict(common.BLAS_ENV),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "computed_counts": list(tracing.COMPUTED_COUNTS),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(common.SPEC_PATH.read_text(encoding="utf-8"))
        common.import_package(common.IMPORT_NAMES[args.workload])
    except (OSError, ValueError, common.PackageMissing) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    env = environment(args)
    common.OUT_DIR.mkdir(exist_ok=True)
    setups = cold_setups(args.workload, args.seed, N_SETUPS)
    warm = workload.warmup(args.seed)
    if warm is not None:
        run_one(workload, warm)

    if not args.trace:
        reqs, outcomes, wall = run_decks(workload, args.seed, args.seconds)
        values, notes = end_to_end(workload, setups, outcomes, wall)
        wanted = spec["end_to_end"]
    else:
        reqs, untraced, wall_u = run_decks(workload, args.seed, args.seconds / 2.0)
        rec = tracing.Recorder()
        inst = tracing.install(rec) if workload.in_process else None
        try:
            traced, wall_t = replay(workload, reqs, rec)
        finally:
            if inst is not None:
                inst.remove()
        outcomes = untraced + traced
        table = tracing.SpanTable(rec)
        processes = setups if workload.in_process else workload.processes
        overhead = (wall_t - wall_u) / len(reqs)
        values = {
            m["name"]: layer_value(m["name"], table, processes, len(reqs), overhead)
            for m in spec["per_layer"]
        }
        notes = {name: "computed" for name in tracing.COMPUTED_COUNTS}
        notes["trace.overhead_s"] = f"({wall_t:.3f} s traced - {wall_u:.3f} s untraced) / {len(reqs)} requests"
        wanted = spec["per_layer"]
        rec.save(common.OUT_DIR / f"{args.workload}.spans.npz")

    failures = [o.detail for o in outcomes if o.status != OK]
    fail_ratio = len(failures) / len(outcomes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':<42} {fail_ratio:>14.6g} ratio  ({len(failures)} of {len(outcomes)} requests)")
    for detail in sorted(set(failures))[:8]:
        print(f"  failure: {detail[:200]}")

    result = {
        "correct": all(o.status != WRONG for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(result, env=env, notes=notes, fail_ratio=fail_ratio, failures=failures)
    path = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
