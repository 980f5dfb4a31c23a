#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as a BENCH file.

    python3 scripts/bench_pairs.py --parent <commit> --workload generic-params \\
        --pairs 10 --first-seed 2001 --seconds 20 --label my_change \\
        --claim generic-params:wall_s --out BENCH_my_change.json

Both trees are extracted with `git archive` into a temporary directory: the
parent from --parent, the change from --change (default: the working tree's
tracked files as `git stash create` records them, or HEAD when it is
clean; stage new files first).  Pair k runs `perfbench/run.py --workload W
--seed first_seed + k --seconds S` once in each tree, the parent first on
even k.  Workloads run one after another, each for all its pairs.

For every end-to-end metric of BENCHMARK.json the file records both sides'
runs, medians and quartiles (`statistics.quantiles`, n=4), the change's
ratio to the parent, `change_better_pairs` (pairs where the change reads
better), `parent_iqr` and `within_bound` (the change median no worse than the
parent median by more than the metric's bound).  With --claim W:M it also
records whether the claim is met: the change better in at least 9 of 10
pairs, and the median gap larger than the parent's quartile spread.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def extract(rev: str, dest: str) -> None:
    """The tree of rev, as `git archive` writes it, under dest."""
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last stdout line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def summary(spec: dict, parent: list, change: list) -> dict:
    """One metric's protocol fields from the paired runs."""
    lower = spec.get("better", "lower") == "lower"
    p, c = spread(parent), spread(change)
    better = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    limit = p["median"] * (1 + spec["bound"] if lower else 1 - spec["bound"])
    return {
        "unit": spec["unit"], "bound": spec["bound"], "parent": p, "change": c,
        "ratio_change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_better_pairs": better,
        "parent_iqr": p["q3"] - p["q1"],
        "within_bound": c["median"] <= limit if lower else c["median"] >= limit,
        "parent_runs": parent, "change_runs": change,
    }


def bench_workload(trees: dict, workload: str, seeds: list, seconds: float,
                   metrics: list) -> dict:
    runs = {"parent": [], "change": []}
    first = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"{workload} pair {k} seed {seed} {side}: "
                  f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.5f}",
                  file=sys.stderr, flush=True)
    return {
        "pairs": len(seeds), "seeds": seeds, "first": first,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "metrics": {m["name"]: summary(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                            for side in ("parent", "change")))
                    for m in metrics},
    }


def claim_result(end_to_end: dict, claim: str) -> dict:
    workload, metric = claim.split(":")
    m = end_to_end[workload]["metrics"][metric]
    gap = m["parent"]["median"] - m["change"]["median"]
    pairs = end_to_end[workload]["pairs"]
    return {
        "workload": workload, "metric": metric,
        "required": "change better in at least 9 of 10 pairs and the median gap "
                    "larger than the parent's quartile spread",
        "parent_median": m["parent"]["median"], "change_median": m["change"]["median"],
        "change_better_pairs": m["change_better_pairs"], "pairs": pairs,
        "median_gap": gap, "parent_iqr": m["parent_iqr"],
        "met": m["change_better_pairs"] >= 0.9 * pairs and gap > m["parent_iqr"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit of the parent tree")
    p.add_argument("--change", default=None, help="commit of the change (default: working tree)")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--label", required=True)
    p.add_argument("--description", default="")
    p.add_argument("--claim", default=None, help="workload:metric whose gain is claimed")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    change = args.change or git("stash", "create").decode().strip() or "HEAD"
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        extract(args.parent, trees["parent"])
        extract(change, trees["change"])
        end_to_end = {w: bench_workload(trees, w, seeds, args.seconds, metrics)
                      for w in args.workload}
    out = {
        "label": args.label,
        "change": args.description,
        "parent_commit": git("rev-parse", args.parent).decode().strip(),
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g}",
        "host": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                 "machine": platform.machine()},
        "protocol": f"{args.pairs} alternating pairs per workload, seeds {seeds[0]}-{seeds[-1]}, "
                    "workloads in the order given. Parent and change trees extracted with "
                    "git archive, each in its own directory; parent first on even pair index. "
                    "End-to-end values are the harness's kernel-scaled values; quartiles are "
                    "statistics.quantiles(n=4); change_better_pairs counts pairs where the "
                    "change reads better; within_bound compares the change median with the "
                    "parent median and the BENCHMARK.json bound.",
        "claim": claim_result(end_to_end, args.claim) if args.claim else None,
        "end_to_end": end_to_end,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
