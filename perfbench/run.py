"""Benchmark of the hopfsmith workbench: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: hopf-square,
diagrams, algebra-Q, algebra-ext (see perfbench/README.md).  With
--trace 0 it prints the end-to-end metrics; with --trace 1 the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics, and the
full result, with its provenance, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("hopf-square", "diagrams", "algebra-Q", "algebra-ext")

# Set-up is timed in this many separate processes and reported as the median.
SETUP_RUNS = 9
# The whole invocation must end inside 180 s.
DEADLINE_S = 170.0

END_TO_END = {  # name -> unit
    "pass_s": "s",
    "slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "decided_share": "share",
}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    # set and dict order of strings must not change call counts between runs
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra, deadline):
    """Start a worker; return it with the reference seconds it took to print
    "ready"."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(line) != 2 or line[0] != "ready":
        finish(proc, deadline)
        raise SystemExit(f"worker failed during set-up: {line!r}")
    return proc, wall * float(line[1])


def finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hopfsmith" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        setups.append(setup)
    extra = ["--spans-out", str(OUT / f"spans-{tag}.jsonl")] if args.trace else []
    proc, setup = start_worker(args, extra, deadline)
    setups.append(setup)
    report = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    attempted = report["attempted"]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in report["layers"].items()}
    else:
        values = {
            "pass_s": statistics.median(report["pass_s"]),
            "slowest_op_s": statistics.median(report["slowest_op_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_share": 1 - report["failed"] / attempted,
            "decided_share": report["decided"] / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not report["unexpected"]

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
        "setup_samples_s": setups,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "report": report}, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_share':42s} {report['failed'] / attempted:>14.6g} share")
    for name, f in sorted(report["failures"].items()):
        print(f"failed: {name}: {f['defect'] or 'UNEXPECTED ' + f['note']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_share") or name == "trace.overhead":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
