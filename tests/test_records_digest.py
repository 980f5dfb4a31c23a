"""Exactness gate: every check record of the admissible grid to N = 8, and
to N = 16 behind the `slow` marker (`pytest -m slow`).

`scripts/dump_records.py --nmax 8 --seed 7` writes the sorted records of
`full_report` on every class with N <= 8 (default and seeded parameters) and
the `poisson --matrix` lines at diag(2, 1, ..., 1, 1/2). A change that keeps
every verdict and detail keeps this output byte for byte. If a change alters
records on purpose, diff the dump against the previous tree's and update the
digest and line count here with the reason.
"""
import hashlib
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "dump_records.py")

LINES = 4767
SHA256 = "55b63b767ab6ca89d0e4c3703652e2f8a59635470afbbefbbac9d197a4def2fd"


LINES_N16 = 27083
SHA256_N16 = "546ee8e02dd9823b8096833bab0895236d14d87f5dade88debc51156663150f5"


# the interpreters that `requires-python = ">=3.10"` in pyproject.toml claims
PYTHONS = ["python3.10", "python3.11", "python3.12", "python3.13"]


def _dump(nmax: int, timeout: int, python: str = sys.executable) -> bytes:
    return subprocess.run([python, SCRIPT, "--nmax", str(nmax), "--seed", "7"],
                          stdout=subprocess.PIPE, check=True, timeout=timeout).stdout


def test_record_dump_to_n8_is_unchanged():
    out = _dump(8, 120)
    assert out.count(b"\n") == LINES
    assert hashlib.sha256(out).hexdigest() == SHA256


@pytest.mark.slow
def test_record_dump_to_n16_is_unchanged():
    out = _dump(16, 240)
    assert out.count(b"\n") == LINES_N16
    assert hashlib.sha256(out).hexdigest() == SHA256_N16


@pytest.mark.slow
@pytest.mark.parametrize("python", PYTHONS)
def test_record_dump_to_n8_is_the_same_under_each_supported_python(python):
    # an interpreter that is not on PATH, or whose launcher does not start,
    # is skipped
    path = shutil.which(python)
    if path is None or subprocess.run([path, "-c", "pass"], stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, timeout=60).returncode:
        pytest.skip(f"{python} does not start")
    out = _dump(8, 240, path)
    assert out.count(b"\n") == LINES
    assert hashlib.sha256(out).hexdigest() == SHA256
