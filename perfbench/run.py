#!/usr/bin/env python3
"""The repoints benchmark: closed-loop `repoints verify` on a seeded workload.

    python3 perfbench/run.py --workload grid-bcd --seed 1 --seconds 20 --trace 0

One client, no concurrency: the next verify starts when the previous one has
returned. All verify calls of a run share one fresh interpreter, as in a
`repoints sweep`, so per-series caches are warm after set-up. Whole passes over
the workload's inputs repeat until --seconds have elapsed (at least one pass).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of one
traced pass plus the tracing overhead against one untraced pass. End-to-end
times are scaled by a reference kernel timed while they run (refspeed.py), so
that the host's CPU speed drift cancels; the raw times are on the info line.
An input's time is the median over the run's passes. The last line
of stdout is the result object; the line before it carries the stamp (Python,
nproc, commit, seed), the tail percentile with its sample count, and the
correctness details. Per-input rows and spans are written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# Every run must end within this many seconds, children included.
RUN_BUDGET_S = 170.0
# Set-up is measured this many times per run (fresh interpreter each) and the
# median reported.
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'none' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over src/, so results from different code never compare equal."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_worker(job: dict, deadline: float) -> dict:
    """Run worker.py on one job in a fresh interpreter; its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("run budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, repr(time.monotonic())],
            input=json.dumps(job), stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten samples
    beyond it, by nearest rank."""
    s = sorted(samples)
    n = len(s)
    k = max(1, n - TAIL_BEYOND)
    return s[k - 1], 100.0 * k / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(rows: list, scaled: bool) -> tuple:
    """(per-input medians over passes, per-pass totals) of verdict times."""
    by_input, by_pass = {}, {}
    for rnd, idx, dt, kernel in rows:
        t = refspeed.scale(dt, kernel) if scaled else dt
        by_input.setdefault(idx, []).append(t)
        by_pass[rnd] = by_pass.get(rnd, 0.0) + t
    return ([statistics.median(v) for _, v in sorted(by_input.items())],
            [v for _, v in sorted(by_pass.items())])


def run_untraced(job: dict, deadline: float) -> tuple:
    job = dict(job, trace=False, scaled=True)
    res = run_worker(dict(job, setup_only=False, max_passes=10**6,
                          rows_path=job["rows_path"] + ".jsonl"), deadline)
    setups = [res]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(dict(job, setup_only=True), deadline))
    verdicts, passes = timings(res["rows"], scaled=True)
    raw_verdicts, raw_passes = timings(res["rows"], scaled=False)
    value, pct, n = tail(verdicts)
    metrics = {
        "setup_s": metric(statistics.median(
            refspeed.scale(r["setup_s"], statistics.fmean(r["setup_kernel_s"])) for r in setups), "s"),
        "wall_s": metric(statistics.median(passes), "s"),
        "verdict_s.p50": metric(statistics.median(verdicts), "s"),
        "verdict_s.tail": metric(value, "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    info = {"passes": len(passes), "samples": n, "tail_percentile": pct,
            "kernel_s.p50": statistics.median(row[3] for row in res["rows"]),
            "kernel_share": res["kernel_share"],
            "raw": {"setup_s": statistics.median(r["setup_s"] for r in setups),
                    "wall_s": statistics.median(raw_passes),
                    "verdict_s.p50": statistics.median(raw_verdicts),
                    "verdict_s.tail": tail(raw_verdicts)[0]}}
    return metrics, info, [res]


def run_traced(job: dict, deadline: float) -> tuple:
    job = dict(job, scaled=False, setup_only=False, max_passes=1)
    plain = run_worker(dict(job, trace=False,
                            rows_path=job["rows_path"] + "-untraced.jsonl"), deadline)
    traced = run_worker(dict(job, trace=True,
                             rows_path=job["rows_path"] + "-traced.jsonl"), deadline)
    layers = traced["layers"]
    plain_wall = timings(plain["rows"], scaled=False)[1][0]
    wall = timings(traced["rows"], scaled=False)[1][0]
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - plain_wall
    metrics = {name: metric(v, unit_of(name)) for name, v in sorted(layers.items())}
    info = {
        "untraced_wall_s": plain_wall,
        "share.oc_projector": (layers["verifier.oc_incl_s"]
                               + layers["verifier.projector_incl_s"]) / wall,
        "share.bivector": layers["classical.bivector_incl_s"] / wall,
        "share.scalar_norm": layers["scalar.norm_s"] / wall,
    }
    return metrics, info, [plain, traced]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("deg_max"):
        return "degree"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isdir(os.path.join(ROOT, "src", "repoints")):
        fail(f"no repoints sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    built = workloads.build(args.workload, args.seed)
    golden = None
    if workloads.GOLDEN_CASE in built["cases"]:
        with open(os.path.join(ROOT, workloads.GOLDEN_FILE)) as fh:
            golden = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = dict(built, seconds=args.seconds, golden=golden,
               rows_path=os.path.join(OUT, f"rows-{tag}"),
               spans_path=os.path.join(OUT, f"spans-{tag}.jsonl"))

    metrics, info, results = (run_traced if args.trace else run_untraced)(job, deadline)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [pr for r in results for pr in r["problems"]]
    if golden is not None and not all(r["golden_checked"] for r in results):
        problems.append([None, "golden case did not run"])
    info.update(stamp=stamp(args), inputs=len(built["inputs"]),
                controls=len(built["controls"]), failed_ratio=failed / attempted,
                problems=problems)
    summary = {"correct": failed == 0 and not problems, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump({"info": info, "result": summary}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
