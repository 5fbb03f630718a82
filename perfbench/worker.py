"""One workload in one process: set up, run timed passes, report.

Started by run.py, never by hand.  Prints "ready" once set-up is done (the
parent times set-up up to that line); without --setup-only it then runs
passes and prints one JSON line with the per-pass timings, the outcome of
every operation, peak memory and, with --trace 1, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Stop starting passes after this long, so the run ends well inside the
# three minutes one benchmark run may take.
HARD_STOP_S = 120.0
# kernel samples taken at the start and at the end of set-up
SETUP_SAMPLES = 3


def import_program():
    sys.path.insert(0, str(SRC))
    import hopfsmith
    if not Path(hopfsmith.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hopfsmith imported from {hopfsmith.__file__}, "
                         f"not from {SRC}")


def build(workload: str, seed: int, scratch: str):
    import workloads as W
    if workload == "hopf-square":
        return W.hopf_square_ops()
    if workload == "diagrams":
        return W.diagrams_ops(seed)
    if workload == "algebra-Q":
        return W.algebra_q_ops()
    return W.algebra_ops(*W.write_ext_inputs(scratch))


def lru_caches():
    """Every functools cache in the program, cleared before each operation
    so that no pass finds work left over from the one before."""
    out = []
    for name, module in list(sys.modules.items()):
        if name.startswith("hopfsmith"):
            out += [v.cache_clear for v in vars(module).values()
                    if callable(getattr(v, "cache_clear", None))]
    return out


def run_pass(ops, clears, clock):
    """One pass: reference seconds per operation, wall seconds per
    operation, and each operation's outcome."""
    import workloads as W
    times, walls, outcomes = [], [], []
    for op in ops:
        # start each operation as a fresh CLI call would: no memo tables
        # left by the one before and no garbage waiting to be collected
        for clear in clears:
            clear()
        gc.collect()
        result, error, wall, ref = clock.run(op.run)
        if error is None:
            try:
                out = op.judge(result)
            except Exception as exc:  # noqa: BLE001 - a malformed report
                error = exc
        if error is not None:
            kind = type(error).__name__
            known = op.known_raise
            out = W.Outcome(False, False,
                            known[1] if known and known[0] == kind else None,
                            f"{kind}: {str(error)[:200]}")
        times.append(ref)
        walls.append(wall)
        outcomes.append(out)
    return times, walls, outcomes


def measure(ops, clears, clock, seconds: float, started: float):
    """Passes until `seconds` have gone by, at least one."""
    passes = []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0 < seconds
                         and time.perf_counter() - started < HARD_STOP_S):
        passes.append(run_pass(ops, clears, clock))
    return passes


def summarize(ops, passes):
    pass_s = [sum(times) for times, _, _ in passes]
    slowest = [max(times) for times, _, _ in passes]
    attempted = failed = decided = 0
    failures = {}
    for _, _, outcomes in passes:
        for op, out in zip(ops, outcomes):
            attempted += 1
            decided += out.decided
            if not out.ok:
                failed += 1
                failures[op.name] = {"defect": out.defect, "note": out.note}
    return {
        "pass_s": pass_s,
        "pass_wall_s": [sum(walls) for _, walls, _ in passes],
        "slowest_op_s": slowest,
        "slowest_op": ops[max(range(len(ops)),
                              key=lambda i: passes[0][0][i])].name,
        "attempted": attempted,
        "failed": failed,
        "decided": decided,
        "unexpected": sorted(n for n, f in failures.items()
                             if f["defect"] is None),
        "failures": failures,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    started = time.perf_counter()

    clock = refclock.ReferenceClock()
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    import_program()
    (HERE / "out").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inputs-", dir=HERE / "out")
    try:
        ops = build(args.workload, args.seed, scratch)
        clears = lru_caches()
        for _ in range(SETUP_SAMPLES):
            clock.sample()
        # the speed this process saw while it set up, for the parent to
        # scale the set-up time it measured
        print(f"ready {clock.scale(2 * SETUP_SAMPLES)}", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            passes = measure(ops, clears, clock, args.seconds, started)
            report = summarize(ops, passes)
            report["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            report = traced(ops, clears, clock, args, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


def traced(ops, clears, clock, args, started):
    """Untraced passes for half the time, then traced ones; the per-layer
    numbers come from the traced passes only."""
    import tracing as T
    plain = measure(ops, clears, clock, args.seconds / 2, started)
    tracer = T.Tracer()
    tracer.install()
    layer_runs, traced_passes = [], []
    t0 = time.perf_counter()
    try:
        while not traced_passes or (
                time.perf_counter() - t0 < args.seconds / 2
                and time.perf_counter() - started < HARD_STOP_S):
            tracer.reset()
            traced_passes.append(run_pass(ops, clears, clock))
            layer_runs.append(tracer.metrics())
            spans = list(tracer.spans)
    finally:
        tracer.uninstall()
    report = summarize(ops, plain + traced_passes)
    # self times in reference seconds, scaled as their pass was
    for r, (times, walls, _) in zip(layer_runs, traced_passes):
        for key in r:
            if key.endswith(".self_s"):
                r[key] *= sum(times) / sum(walls)
    first = layer_runs[0]
    metrics = {}
    for key in first:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(r[key] for r in layer_runs)
        else:
            metrics[key] = first[key]
    plain_s = statistics.median(sum(t) for t, _, _ in plain)
    traced_s = statistics.median(sum(t) for t, _, _ in traced_passes)
    metrics["trace.overhead"] = traced_s / plain_s
    report["layers"] = metrics
    report["counts_repeat"] = all(
        {k: v for k, v in r.items() if not k.endswith(".self_s")}
        == {k: v for k, v in first.items() if not k.endswith(".self_s")}
        for r in layer_runs)
    report["traced_passes"] = len(traced_passes)
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
    return report


if __name__ == "__main__":
    sys.exit(main())
