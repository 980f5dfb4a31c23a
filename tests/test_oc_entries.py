"""The orthogonality condition decided on one row per side, once the
reflection record and the projector's per-series records pass, against the
all-rows check (`check_oc` with no premises), which stays; the projector
records decided once per series; the q-trace decided on its unreduced sum;
and the rank-one identity reading L = S - q row by row."""
import os
import random
import sys
from functools import lru_cache

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from repoints import rmatrix, verifier  # noqa: E402
from repoints.natrep import CheckRecord  # noqa: E402
from repoints.points import default_params, quantum_point  # noqa: E402
from repoints.qmatrix import QMatrix, Unreduced, first_product_difference  # noqa: E402
from repoints.rmatrix import build_rmatrix_data, factor_projector  # noqa: E402
from repoints.rootdata import (  # noqa: E402
    ClassSpec,
    LieSeries,
    admissible_cases,
    build_root_system,
    dot,
)
from repoints.scalar import ONE, Q, QScalar, parse_scalar, render_scalar  # noqa: E402
from repoints.verifier import (  # noqa: E402
    check_oc,
    check_q_trace,
    check_reflection,
    check_varpi_structure,
    expected_q_trace,
    full_report,
    reflection_operand,
)
from workloads import draw_params  # noqa: E402

BCD_TO_12 = [spec for spec in admissible_cases(12) if spec.group != "sl"]


def _as_tuples(records):
    return [(r.name, r.passed, r.detail) for r in records]


def _points(specs, seed=7) -> list:
    """(spec, A) at default parameters, and at one seeded draw for each class
    that carries parameters."""
    rng = random.Random(seed)
    points = []
    for spec in specs:
        params = default_params(spec)
        points.append((spec, quantum_point(spec, params).A))
        if params.values:
            points.append((spec, quantum_point(spec, draw_params(spec, rng)).A))
    return points


def _premises(A, S, proj):
    """(X, the premises decided on it), X being the operand that the
    reflection check and the OC share."""
    X = reflection_operand(A, S)
    return X, [check_reflection(X, S)] + check_varpi_structure(S, proj)


def _oc_rows(monkeypatch):
    """The rows that each kernel call of `check_oc` decides, from now on,
    one list per call (oc.right's, then oc.left's): those it lists, or
    every row."""
    seen = []
    kernel = verifier.first_product_difference

    def recording(x, y, z, w, rows=None):
        if sys._getframe(1).f_code.co_name == "check_oc":
            seen.append(list(range(x.dim)) if rows is None else sorted(rows))
        return kernel(x, y, z, w, rows)

    monkeypatch.setattr(verifier, "first_product_difference", recording)
    return seen


def test_one_entry_oc_is_the_full_check_on_every_class_to_n12():
    """Every B, C and D class with N <= 12, at default and seed-7 drawn
    parameters, with A and with q A: the same records and details as the
    all-rows check.  q A solves the reflection equation, so the one-row
    path decides it too, and fails both sides."""
    points = _points(BCD_TO_12)
    for spec, A in points:
        data = build_rmatrix_data(spec.series)
        S, proj = data.S, data.projector
        for point, passing in ((A, True), (A.scale(Q), False)):
            X, premises = _premises(point, S, proj)
            assert all(r.passed for r in premises), spec.case_id
            got = check_oc(X, proj, premises)
            assert [r.passed for r in got] == [passing, passing], spec.case_id
            assert _as_tuples(got) == _as_tuples(check_oc(X, proj)), spec.case_id
    assert len(points) > 200


@pytest.mark.parametrize("spec", [
    ClassSpec("so", 5, "t2", 1, 1),
    ClassSpec("sp", 6, "t2", 2, -1),
    ClassSpec("so", 8, "t4"),
    ClassSpec("so", 9, "t2", 2, -1),
], ids=lambda s: s.case_id)
def test_q_times_a_fails_both_sides_at_the_least_index(monkeypatch, spec):
    """A scaled by q passes the reflection check, so each side is decided on
    one row: row min supp u of X U for the right side, row j0 = min supp w
    of W X for the left, and each names its first mismatch at (i0, j0)."""
    data = build_rmatrix_data(spec.series)
    S, proj = data.S, data.projector
    X, premises = _premises(quantum_point(spec).A.scale(Q), S, proj)
    assert premises[0].name == "reflection" and premises[0].passed
    seen = _oc_rows(monkeypatch)
    right, left = check_oc(X, proj, premises)
    assert seen == [[min(proj.u)], [proj.j0]]
    assert min(proj.u) == proj.i0 and min(proj.w) == proj.j0
    at = f"first mismatch at ({proj.i0}, {proj.j0}): "
    assert not right.passed and right.detail.startswith(at)
    assert not left.passed and left.detail.startswith(at)
    monkeypatch.undo()
    assert _as_tuples([right, left]) == _as_tuples(check_oc(X, proj))


def test_a_failing_reflection_keeps_the_full_check(monkeypatch):
    """One perturbed entry of A fails the reflection record (at N >= 4), so
    the right side decides every row, and every detail is that of the
    all-rows check."""
    bump = parse_scalar("(q+2)/(q^2+3)")
    runs = 0
    for spec, A in _points([s for s in BCD_TO_12 if 4 <= s.N <= 8]):
        data = build_rmatrix_data(spec.series)
        S, proj, N = data.S, data.projector, spec.N
        for pos in [(0, N - 1), (N // 2, 0)]:
            X, premises = _premises(A + QMatrix.from_entries(N, [(*pos, bump)]), S, proj)
            assert not premises[0].passed, (spec.case_id, pos)
            seen = _oc_rows(monkeypatch)
            got = check_oc(X, proj, premises)
            assert seen == [list(range(S.dim)), [proj.j0]], spec.case_id
            monkeypatch.undo()
            assert _as_tuples(got) == _as_tuples(check_oc(X, proj)), spec.case_id
            runs += 1
    assert runs >= 100


def test_a_failing_eigen_record_keeps_the_full_check(monkeypatch):
    """The premises are read by name: with varpi.eigen failing, the right
    side decides every row even though the reflection passes."""
    spec = ClassSpec("so", 7, "t2", 1, 1)
    data = build_rmatrix_data(spec.series)
    X, premises = _premises(quantum_point(spec).A, data.S, data.projector)
    premises = [r if r.name != "varpi.eigen" else CheckRecord(r.name, False, "control")
                for r in premises]
    seen = _oc_rows(monkeypatch)
    assert all(r.passed for r in check_oc(X, data.projector, premises))
    assert seen == [list(range(data.S.dim)), [data.projector.j0]]


def test_the_projector_records_are_decided_once_per_series(monkeypatch):
    """Several verifies of each of three series decide varpi.idempotent,
    varpi.rank_one and varpi.eigen once per series, and a passing so5 verify
    with the records kept decides one row per OC side."""
    fresh = lru_cache(maxsize=None)(build_rmatrix_data.__wrapped__)
    monkeypatch.setattr(verifier, "build_rmatrix_data", fresh)
    decided = []
    structure = verifier._varpi_structure

    def counting(S, proj):
        decided.append(proj.mu)
        return structure(S, proj)

    monkeypatch.setattr(verifier, "_varpi_structure", counting)
    specs = [ClassSpec("so", 5, "t2", 1, 1), ClassSpec("so", 5, "t2", 1, -1),
             ClassSpec("sp", 4, "t4"), ClassSpec("sp", 4, "t2", 2, 1),
             ClassSpec("so", 6, "t4"), ClassSpec("so", 6, "t2", 1, 1)]
    for _ in range(3):
        for spec in specs:
            report = full_report(spec)
            assert report.passed, spec.case_id
            names = [c.name for c in report.checks]
            assert names[1:6] == ["oc.right", "oc.left", "varpi.idempotent",
                                  "varpi.rank_one", "varpi.eigen"]
    assert len(decided) == 3
    seen = _oc_rows(monkeypatch)
    assert full_report(specs[0]).passed
    proj = fresh(specs[0].series).projector
    assert seen == [[min(proj.u)], [proj.j0]]
    assert len(decided) == 3


def test_another_s_is_decided_anew():
    """The kept records are those of the S they were decided on: a perturbed
    S gets its own records, and the series' S its kept ones again."""
    data = build_rmatrix_data(LieSeries("B", 2))
    S, proj = data.S, data.projector
    kept = check_varpi_structure(S, proj)
    k = min(proj.u)
    bad_S = S + QMatrix.from_entries(S.dim, [(k, k, ONE)])
    eigen = check_varpi_structure(bad_S, proj)[2]
    assert not eigen.passed and eigen.detail.startswith("first mismatch")
    again = check_varpi_structure(S, proj)
    assert _as_tuples(again) == _as_tuples(kept) and all(r.passed for r in again)
    bad = factor_projector(*proj.raw.terms[0][1:], proj.den * Q, proj.mu)
    assert not check_varpi_structure(S, bad)[0].passed


def _normalized_q_trace(A, rs):
    """The q-trace as a sum of normalized QScalars, the reference."""
    total = QScalar(0)
    for j, w in enumerate(rs.weights):
        a = A.get(j, j)
        if a:
            total = total + QScalar.q_power(dot(rs.two_rho, w)) * a
    return total


def test_q_trace_is_the_normalized_sum_on_every_class_to_n12():
    """Every class with N <= 12, at default and drawn parameters, with A and
    with one diagonal entry bumped: the record of the unreduced sum is that
    of the normalized one."""
    bump = parse_scalar("(q+2)/(q^2+3)")
    for spec, A in _points(admissible_cases(12)):
        rs = build_root_system(spec.series)
        want = expected_q_trace(spec)
        middle = spec.N // 2
        for point, passing in ((A, True),
                               (A + QMatrix.from_entries(spec.N, [(middle, middle, bump)]), False)):
            got = _normalized_q_trace(point, rs)
            reference = CheckRecord("q_trace", passing, None if passing else
                                    f"got {render_scalar(got)}, expected {render_scalar(want)}")
            record = check_q_trace(point, spec, rs)
            assert _as_tuples([record]) == _as_tuples([reference]), spec.case_id


def test_q_trace_control_detail():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    A = quantum_point(spec).A.scale(Q)
    record = check_q_trace(A, spec, build_root_system(spec.series))
    assert (record.passed, record.detail) == (False, "got q^3 + q + q^-1, expected q^2 + 1 + q^-2")


BCD_TO_16 = [LieSeries(s, n) for s, lowest in (("B", 1), ("C", 1), ("D", 2))
             for n in range(lowest, 9) if LieSeries(s, n).dim <= 16]


def _kept_rows_mismatch(proj):
    """The rank-one identity as decided with L read as a `QMatrix`, which
    keeps its integer rows: the reference for the verdict and the values."""
    (_, L, R), = proj.raw.terms
    dim = proj.raw.dim
    U = QMatrix(dim, [{proj.j0: proj.u[i]} if i in proj.u else {} for i in range(dim)])
    W = QMatrix(dim)
    W.rows[proj.j0] = proj.w
    return first_product_difference(L, Unreduced((proj.pivot, R, None)), U, W)


@pytest.mark.parametrize("series", BCD_TO_16, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_the_rank_one_identity_keeps_no_rows_of_l(series):
    """factor_mismatch leaves L with no integer rows, and gives what the call
    on L's kept rows gives, for the true L and for L + I (a failing record
    with its first mismatch)."""
    proj = rmatrix.build_rmatrix_data.__wrapped__(series).projector
    (_, L, R), = proj.raw.terms
    assert proj.factor_mismatch is None
    assert L._subs is None
    bad = factor_projector(L + QMatrix.identity(L.dim), R, proj.den, proj.mu)
    diff = bad.factor_mismatch
    assert diff is not None
    assert bad.raw.terms[0][1]._subs is None
    assert diff == _kept_rows_mismatch(bad)
    assert _kept_rows_mismatch(proj) is None
