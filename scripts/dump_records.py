#!/usr/bin/env python3
"""Write every check record of `full_report` as sorted JSON lines, timings
left out, so that two source trees can be compared with a plain `diff`.

It covers every class that `ClassSpec` accepts with N <= --nmax, once at the
default parameters and once, for each class that carries parameters, at
parameters drawn by the benchmark's `draw_params` from one generator seeded
with --seed. The classes are walked by N first, so a smaller --nmax draws the
same parameters for the classes it keeps. The script imports the package and
the benchmark's workload module from its own checkout.

Usage:
    python scripts/dump_records.py [--nmax 16] [--seed 7] > records.jsonl
"""
import argparse
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from repoints.points import default_params  # noqa: E402
from repoints.rootdata import MAX_N, ClassSpec  # noqa: E402
from repoints.verifier import full_report  # noqa: E402
from workloads import draw_params  # noqa: E402


def admissible_cases(n_max: int) -> list:
    """Every class ClassSpec accepts with N <= n_max, ordered by N first."""
    cases = []
    for N in range(1, n_max + 1):
        for group in ("sl", "so", "sp"):
            candidates = [(group, N, "t2", m, sign)
                          for m in range(N // 2 + 1) for sign in (1, -1)]
            candidates.append((group, N, "t4", None, 1))
            for args in candidates:
                try:
                    cases.append(ClassSpec(*args))
                except ValueError:
                    pass
    return cases


def record_lines(spec: ClassSpec, params, label: str) -> list:
    report = full_report(spec, params)
    return [json.dumps({"case": spec.case_id, "params": label, "name": c.name,
                        "pass": c.passed, "detail": c.detail}, sort_keys=True)
            for c in report.checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nmax", type=int, default=MAX_N)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    lines = []
    for spec in admissible_cases(args.nmax):
        lines += record_lines(spec, default_params(spec), "default")
        if default_params(spec).values:
            lines += record_lines(spec, draw_params(spec, rng), f"seed {args.seed}")
    lines.sort()
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
