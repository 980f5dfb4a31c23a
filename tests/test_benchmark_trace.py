"""The benchmark's trace mode wraps repoints functions by name at call time.
A renamed function, or a caller that binds one before the patch, silently
drops its span; this runs the tracer as the benchmark does and checks that
every stage still shows up."""
import json
import os
import subprocess
import sys

import repoints

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from repoints.cli import main
code = main(["verify", *sys.argv[2:], "--out", os.devnull])
metric_spans = ({n for names in tracing.SELF_METRICS.values() for n in names}
                | set(tracing.INCL_METRICS.values()) | set(tracing.CALL_METRICS.values()))
print(json.dumps({"code": code, "spans": sorted({rec[tracing.NAME] for rec in tracer.spans}),
                  "metric_spans": sorted(metric_spans),
                  "norm_calls": tracer.norm_calls, "norm_deg_max": tracer.norm_deg_max}))
"""


def _traced_verify(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repoints.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, os.path.join(ROOT, "perfbench", "tracing.py"), *args],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


# span names that a per-layer metric reads but no passing verify reaches: the
# bivector is decided on the tensor, so no path of the program builds the
# adjoint matrix over the basis or multiplies and inverts dense matrices for
# it; a passing verify proves that A0 normalizes g by the invariant form, so
# it expands nothing in the basis; and the multiplicities are decided by the
# trace, so a rank is computed only to name a failing record
DEAD_ON_VERIFY = {"classical.adjoint", "linalg.expand", "linalg.invert", "linalg.mat_mul",
                  "qmatrix.rank"}


def test_trace_mode_sees_every_stage():
    """Every span name that the per-layer metrics read shows up in a traced
    so5 verify, so a renamed or rebound stage fails here, not as a metric
    that silently reads 0."""
    result = _traced_verify("--series", "so", "--N", "5", "--family", "t2", "--m", "1")
    assert result["code"] == 0
    spans, wanted = set(result["spans"]), set(result["metric_spans"])
    assert DEAD_ON_VERIFY <= wanted
    assert sorted(wanted - DEAD_ON_VERIFY - spans) == []
    assert sorted(DEAD_ON_VERIFY & spans) == []


def test_trace_mode_counts_scalar_normalizations():
    # rational parameters reach QScalar's normalizing constructor, whose
    # calls and degrees the tracer counts by wrapping QScalar.__init__
    result = _traced_verify("--series", "sl", "--N", "3", "--family", "t2", "--m", "1",
                            "--param", "y1=(q + 2)/(q^2 + 3)",
                            "--param", "y1'=(q^2 + 3)/(q^4 + 2*q^3)")
    assert result["code"] == 0
    assert result["norm_calls"] > 0
    assert result["norm_deg_max"] > 0
