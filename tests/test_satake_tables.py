"""Smoke test of `scripts/satake_tables.py`, run as a user runs it: a fresh
interpreter, outside the checkout, with the package found by the script's
own path prelude."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "satake_tables.py")


def test_satake_tables_prints_the_sp_tables(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, SCRIPT, "sp"], cwd=tmp_path, env=env,
                         stdout=subprocess.PIPE, check=True, timeout=60, text=True).stdout
    block = out.split("case sp4-t4\n")[1].split("case ")[0]
    assert "open nodes:   [1, 2]" in block
    assert "alpha_1: tilde(a1) = a1\n" in block
    assert "alpha_2: tilde(a2) = a2\n" in block
    # sp has no arcs: every moved root is its own partner
    arcs = [line for line in out.splitlines() if line.startswith("arcs:")]
    assert arcs and all(line == "arcs:         none" for line in arcs)
