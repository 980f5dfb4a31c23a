#!/usr/bin/env python3
"""Print the involution combinatorics for every reference case: fixed and open
simple roots, arcs between paired open nodes, the twisted roots in simple-root
coordinates, and the solved mixture coefficients.  The script imports the
package from its own checkout.

Usage:
    python scripts/satake_tables.py [sl|so|sp]
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repoints.coideal import build_stabilizer  # noqa: E402
from repoints.points import quantum_point  # noqa: E402
from repoints.rootdata import standard_cases, theta_for_class  # noqa: E402
from repoints.scalar import render_scalar  # noqa: E402


def main(argv):
    group = argv[0] if argv else None
    seen = set()
    for spec in standard_cases(group):
        # the involution does not depend on the sign of the point
        key = (spec.group, spec.N, spec.family, spec.m)
        if key in seen:
            continue
        seen.add(key)
        td = theta_for_class(spec)
        print(f"== {spec.case_id}")
        print(f"   filled nodes {list(td.pi_fixed) or '-'}   "
              f"open nodes {list(td.pi_moved) or '-'}")
        arcs = [(i, td.partner[i]) for i in td.pi_moved if td.partner[i] != i]
        if arcs:
            print(f"   arcs {arcs}")
        if not td.pi_moved:
            continue
        point = quantum_point(spec)
        ss = build_stabilizer(spec, point.params, point.A)
        for gen in ss.mixed_generators:
            coords = td.tilde_simple[gen.alpha]
            print(f"   alpha_{gen.alpha}: tilde = {coords}, "
                  f"c = {render_scalar(gen.c_solved)}"
                  + ("" if gen.table_matches is not False else "  [table mismatch]"))
            if gen.c_table_note:
                print(f"      note: {gen.c_table_note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
