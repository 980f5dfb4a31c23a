"""Verification reports: the individual checks and the full pipeline."""
import pytest

from repoints.points import default_params, quantum_point
from repoints.qmatrix import QMatrix
from repoints.rmatrix import build_rmatrix_data
from repoints.rootdata import ClassSpec, LieSeries
from repoints.scalar import ONE, QScalar, q_integer
from repoints.verifier import (
    check_min_poly,
    check_reflection,
    embed_second,
    expected_q_trace,
    full_report,
)


def test_identity_solves_re():
    data = build_rmatrix_data(LieSeries("A", 1))
    assert check_reflection(QMatrix.identity(2), data.S).passed


def test_non_solution_fails_re_with_located_detail():
    data = build_rmatrix_data(LieSeries("A", 1))
    bad = QMatrix.from_entries(2, [(0, 1, ONE), (1, 1, QScalar.q_power(1))])
    record = check_reflection(bad, data.S)
    assert not record.passed
    assert "first mismatch" in record.detail


def test_embed_second():
    A = QMatrix.from_entries(2, [(0, 1, ONE)])
    A2 = embed_second(A, 2)
    assert A2.get(0, 1) == ONE and A2.get(2, 3) == ONE
    assert not A2.get(0, 2)


def test_expected_q_traces():
    assert expected_q_trace(ClassSpec("sl", 4, "t2", 1, 1)) == q_integer(3) - q_integer(1)
    assert expected_q_trace(ClassSpec("so", 5, "t2", 1, 1)) == q_integer(3)
    assert expected_q_trace(ClassSpec("so", 5, "t2", 1, -1)) == -q_integer(3)
    assert expected_q_trace(ClassSpec("sp", 4, "t2", 2, 1)) == q_integer(3) - q_integer(3)
    assert not expected_q_trace(ClassSpec("sp", 4, "t4"))


def test_min_poly_rejects_identity_for_split_class():
    records = check_min_poly(QMatrix.identity(2), ClassSpec("sl", 2, "t2", 1, 1))
    assert not all(r.passed for r in records)


def test_full_report_passes():
    report = full_report(ClassSpec("sl", 3, "t2", 1, -1))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "reflection" in names and "q_trace" in names
    assert report.case_id == "sl3-t2-m1-m"
    payload = report.to_dict()
    assert set(payload) == {"case", "params", "checks", "timings"}
    assert all(set(c) <= {"name", "pass", "detail"} for c in payload["checks"])


def test_total_timing_covers_every_stage():
    report = full_report(ClassSpec("so", 5, "t2", 1, 1))
    assert report.passed
    timings = report.to_dict()["timings"]
    assert {"build", "reflection", "oc", "invariants", "classical", "stabilizer",
            "bivector", "total"} == set(timings)
    assert all(timings["total"] >= v for v in timings.values())
    # the stages are disjoint parts of the total; each value is rounded to 1e-6
    stages = sum(v for k, v in timings.items() if k != "total")
    assert stages <= timings["total"] + 1e-5


def test_full_report_validates_parameters_once(monkeypatch):
    from repoints import points, verifier

    calls = []

    def counting(spec, params, classical=False):
        calls.append(classical)
        return validate(spec, params, classical)

    validate = points.validate_params
    monkeypatch.setattr(points, "validate_params", counting)
    monkeypatch.setattr(verifier, "validate_params", counting, raising=False)
    assert full_report(ClassSpec("sl", 4, "t2", 1, 1)).passed
    assert calls.count(False) == 1


def test_full_report_flags_bad_params():
    spec = ClassSpec("sl", 3, "t2", 1, 1)
    params = default_params(spec)
    params.values[3] = ONE  # breaks y1 y3 = q^-3
    report = full_report(spec, params)
    assert not report.passed
    assert [c.name for c in report.checks] == ["params"]
    assert "y1*y3" in report.checks[0].detail


def test_scaled_point_fails_invariants_but_not_re():
    # RE is homogeneous in A, so a scalar multiple still solves it; the class
    # invariants then tell the solutions apart
    spec = ClassSpec("so", 5, "t2", 1, 1)
    point = quantum_point(spec)
    scaled = point.A.scale(QScalar.q_power(1))
    data = build_rmatrix_data(spec.series)
    assert check_reflection(scaled, data.S).passed
    records = check_min_poly(scaled, spec)
    assert not all(r.passed for r in records)
