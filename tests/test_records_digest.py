"""Exactness gate: every check record of the admissible grid to N = 8.

`scripts/dump_records.py --nmax 8 --seed 7` writes the sorted records of
`full_report` on every class with N <= 8 (default and seeded parameters) and
the `poisson --matrix` lines at diag(2, 1, ..., 1, 1/2). A change that keeps
every verdict and detail keeps this output byte for byte. If a change alters
records on purpose, diff the dump against the previous tree's and update the
digest and line count here with the reason.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "dump_records.py")

LINES = 4767
SHA256 = "55b63b767ab6ca89d0e4c3703652e2f8a59635470afbbefbbac9d197a4def2fd"


def test_record_dump_to_n8_is_unchanged():
    out = subprocess.run([sys.executable, SCRIPT, "--nmax", "8", "--seed", "7"],
                         stdout=subprocess.PIPE, check=True, timeout=120).stdout
    assert out.count(b"\n") == LINES
    assert hashlib.sha256(out).hexdigest() == SHA256
