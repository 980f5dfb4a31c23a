#!/usr/bin/env python3
"""Write every check record of `full_report` as sorted JSON lines, timings
left out, so that two source trees can be compared with a plain `diff`.

It covers every class that `ClassSpec` accepts with N <= --nmax, once at the
default parameters and once, for each class that carries parameters, at
parameters drawn by the benchmark's `draw_params` from one generator seeded
with --seed. The classes are walked by N first, so a smaller --nmax draws the
same parameters for the classes it keeps. It also writes the JSON payload and
exit code of `repoints poisson --matrix` at diag(2, 1, ..., 1, 1/2) on every
series with N <= --nmax: that matrix normalizes sl, so and sp, and its
bivector is nonzero, so the lines cover the `largest` coefficient of the
failure path. The script imports the package and the benchmark's workload
module from its own checkout.

Usage:
    python scripts/dump_records.py [--nmax 16] [--seed 7] > records.jsonl
"""
import argparse
import contextlib
import io
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from repoints.cli import main as cli_main  # noqa: E402
from repoints.points import default_params  # noqa: E402
from repoints.rootdata import MAX_N, ClassSpec, admissible_cases, series_for_group  # noqa: E402
from repoints.verifier import full_report  # noqa: E402
from workloads import draw_params  # noqa: E402


def record_lines(spec: ClassSpec, params, label: str) -> list:
    report = full_report(spec, params)
    return [json.dumps({"case": spec.case_id, "params": label, "name": c.name,
                        "pass": c.passed, "detail": c.detail}, sort_keys=True)
            for c in report.checks]


def poisson_lines(n_max: int) -> list:
    """`poisson --matrix` at diag(2, 1, ..., 1, 1/2) on every series with N <= n_max."""
    lines = []
    for N in range(2, n_max + 1):
        for group in ("sl", "so", "sp"):
            try:
                series_for_group(group, N)
            except ValueError:
                continue
            diag = ["2"] + ["1"] * (N - 2) + ["1/2"]
            matrix = [["0"] * i + [d] + ["0"] * (N - 1 - i) for i, d in enumerate(diag)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["poisson", "--series", group, "--N", str(N),
                                 "--matrix", json.dumps(matrix)])
            lines.append(json.dumps({"case": f"poisson {group}{N}", "exit": code,
                                     "payload": json.loads(out.getvalue())}, sort_keys=True))
    return lines


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
    lines += poisson_lines(args.nmax)
    lines.sort()
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
