#!/usr/bin/env python3
"""Print the involution combinatorics for every reference case, as
`repoints satake --format text` prints them: fixed and open simple roots,
arcs between paired open nodes, and each mixed generator's twisted-root word
with its solved and tabulated mixture coefficient.  The involution does not
depend on the sign of the point, so each class is printed at sign +1.  The
script imports the package from its own checkout.

Usage:
    python scripts/satake_tables.py [sl|so|sp]
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repoints import cli  # noqa: E402
from repoints.rootdata import standard_cases  # noqa: E402


def main(argv):
    status = 0
    for spec in standard_cases(argv[0] if argv else None):
        if spec.sign != 1:
            continue
        m = [] if spec.m is None else ["--m", str(spec.m)]
        status = max(status, cli.main(["satake", "--series", spec.group, "--N", str(spec.N),
                                       "--family", spec.family, *m, "--format", "text"]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
