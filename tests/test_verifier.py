"""Verification reports: the individual checks and the full pipeline."""
import json
import os
import random
import sys
from dataclasses import replace

import pytest

from repoints import points, scalar
from repoints.points import default_params, quantum_point
from repoints.qmatrix import IdentityKron, QMatrix, first_product_difference, first_vector_difference
from repoints.rmatrix import build_rmatrix_data
from repoints.rootdata import ClassSpec, LieSeries, admissible_cases, series_for_group
from repoints.scalar import ONE, LaurentPoly, QScalar, parse_scalar, q_integer, render_scalar
from repoints.verifier import (
    check_bivector,
    check_min_poly,
    check_oc,
    check_reflection,
    check_varpi_structure,
    expected_q_trace,
    full_report,
    reflection_operand,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIR = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import case_argv, draw_params, flags_argv, param_flags  # noqa: E402


def test_identity_solves_re():
    data = build_rmatrix_data(LieSeries("A", 1))
    assert check_reflection(reflection_operand(QMatrix.identity(2), data.S), data.S).passed


def test_non_solution_fails_re_with_located_detail():
    data = build_rmatrix_data(LieSeries("A", 1))
    bad = QMatrix.from_entries(2, [(0, 1, ONE), (1, 1, QScalar.q_power(1))])
    record = check_reflection(reflection_operand(bad, data.S), data.S)
    assert not record.passed
    assert "first mismatch" in record.detail


def test_identity_kron_keeps_only_a():
    A = QMatrix.from_entries(2, [(0, 1, ONE)])
    A2 = IdentityKron(A)
    assert A2.row(0) == {1: ONE} and A2.row(2) == {3: ONE} and A2.row(1) == {}
    # I x A keeps only A, and reads its rows, v^T (I x A) and its rows at t
    # off A's as the dense kron with the identity has them, at default and
    # at seeded generic points
    for args in CONTROL_CASES:
        spec = ClassSpec(*args)
        for params in (default_params(spec), draw_params(spec, random.Random(7))):
            A, N = quantum_point(spec, params).A, spec.N
            A2, dense = IdentityKron(A), QMatrix.identity(N).kron(A)
            assert A2.dim == N * N and A2.block is A, spec.case_id
            assert [A2.row(i) for i in range(N * N)] == dense.rows, spec.case_id
            vec = {k: parse_scalar(f"(q+{k})/(q-{k + 2})") for k in range(0, N * N, 3)}
            assert A2.apply_left(vec) == dense.apply_left(vec), spec.case_id
            assert A2.substituted(64) == dense.substituted(64), spec.case_id


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

    def counting(spec, params):
        calls.append(spec)
        return validate(spec, params)

    validate = points.validate_params
    monkeypatch.setattr(points, "validate_params", counting)
    monkeypatch.setattr(verifier, "validate_params", counting, raising=False)
    assert full_report(ClassSpec("sl", 4, "t2", 1, 1)).passed
    assert len(calls) == 1


def test_full_report_flags_bad_params():
    spec = ClassSpec("sl", 3, "t2", 1, 1)
    params = default_params(spec)
    params.values[3] = ONE  # breaks y1 y3 = q^-3
    report = full_report(spec, params)
    assert not report.passed
    assert [c.name for c in report.checks] == ["params"]
    assert "y1*y3" in report.checks[0].detail
    # the report names the parameters it rejected
    assert report.param_digest == params.digest() == "y1=1,y3=1"
    assert report.to_dict()["params"] == "y1=1,y3=1"


def test_scaled_point_fails_invariants_but_not_re():
    # RE is homogeneous in A, so a scalar multiple still solves it; the class
    # invariants then tell the solutions apart
    spec = ClassSpec("so", 5, "t2", 1, 1)
    point = quantum_point(spec)
    scaled = point.A.scale(QScalar.q_power(1))
    data = build_rmatrix_data(spec.series)
    assert check_reflection(reflection_operand(scaled, data.S), data.S).passed
    records = check_min_poly(scaled, spec)
    assert not all(r.passed for r in records)


CONTROL_CASES = [("sl", 4, "t2", 1, 1), ("sl", 5, "t2", 2, -1), ("so", 5, "t2", 1, 1),
                 ("so", 6, "t4", None, 1), ("sp", 4, "t2", 2, 1), ("sp", 6, "t4", None, 1)]


def _control_details(args, pos):
    """Details of the failing records when A gets (q+2)/(q^2+3) added at pos:
    reflection, invariants, the stabilizer of the unperturbed point, and the
    mixtures solved against the perturbed one."""
    from repoints import coideal

    spec = ClassSpec(*args)
    point = quantum_point(spec)
    bad = point.A + QMatrix.from_entries(spec.N, [(*pos, parse_scalar("(q+2)/(q^2+3)"))])
    S = build_rmatrix_data(spec.series).S
    records = [check_reflection(reflection_operand(bad, S), S)]
    records += check_min_poly(bad, spec)
    records += coideal.check_stabilizer(
        coideal.build_stabilizer(spec, point.params, point.A), bad)
    records += [r for r in coideal.check_stabilizer(
        coideal.build_stabilizer(spec, point.params, bad), bad)
        if r.name.startswith("mixture.")]
    return {r.name: r.detail for r in records if not r.passed}


@pytest.mark.parametrize("args", CONTROL_CASES, ids=lambda a: ClassSpec(*a).case_id)
def test_perturbed_point_failure_details_are_pinned(args):
    with open(os.path.join(DATA_DIR, "golden_control_details.json")) as fh:
        golden = json.load(fh)
    N = args[1]
    for pos in [(0, N - 1), (N // 2, 0)]:
        key = f"{ClassSpec(*args).case_id}@{pos}"
        assert _control_details(args, pos) == golden[key], key


@pytest.mark.parametrize("args", CONTROL_CASES, ids=lambda a: ClassSpec(*a).case_id)
def test_unreduced_reflection_names_the_mismatch_of_the_normalized_form(args):
    # check_reflection never normalizes M = A2 S A2; the reduced form does
    spec = ClassSpec(*args)
    N = spec.N
    A, S = quantum_point(spec).A, build_rmatrix_data(spec.series).S
    values = [parse_scalar(v) for v in ("(q+2)/(q^2+3)", "q^-1", "(2*q-i)/(q+1)")]
    positions = [(0, N - 1), (N // 2, 0), (N - 1, N - 1)]
    perturbations = [[(p, v)] for p, v in zip(positions, values)]
    perturbations.append(list(zip(positions, values)))
    for cells in perturbations:
        bad = A + QMatrix.from_entries(N, [(*p, v) for p, v in cells])
        A2 = QMatrix.identity(N).kron(bad)
        M = A2 * (S * A2)
        diff = first_product_difference(S, M, M, S)
        assert diff is not None, cells
        i, j, a, b = diff
        record = check_reflection(reflection_operand(bad, S), S)
        assert not record.passed
        assert record.detail == (f"first mismatch at ({i}, {j}): "
                                 f"{render_scalar(a)} vs {render_scalar(b)}"), cells


def _normalizations(monkeypatch, outside_literals=False):
    """A list that gets each normalizing QScalar construction from now on,
    counted as the benchmark's tracer counts: a nonzero numerator over a
    denominator other than 1.  With outside_literals, those made while
    `parse_scalar` reads a literal are left out."""
    init, parse = QScalar.__init__, scalar._Parser.parse
    normalized = []
    parsing = []

    def counting(obj, num, den=None):
        if den is not None and num and not parsing and not (
                den.is_one if isinstance(den, LaurentPoly) else den == 1):
            normalized.append((num, den))
        init(obj, num, den)

    def reading(parser):
        parsing.append(parser)
        try:
            return parse(parser)
        finally:
            parsing.pop()

    monkeypatch.setattr(QScalar, "__init__", counting)
    if outside_literals:
        monkeypatch.setattr(scalar._Parser, "parse", reading)
    return normalized


def test_passing_parametric_reflection_normalizes_no_scalar(monkeypatch):
    spec = ClassSpec("sl", 6, "t2", 2, 1)
    point = quantum_point(spec, draw_params(spec, random.Random(7)))
    assert any(not v.den.is_one for row in point.A.rows for v in row.values())
    S = build_rmatrix_data(spec.series).S
    normalized = _normalizations(monkeypatch)
    assert check_reflection(reflection_operand(point.A, S), S).passed
    assert normalized == []


@pytest.mark.parametrize("spec", [ClassSpec("sl", 6, "t2", 2, 1), ClassSpec("sp", 6, "t2", 2, -1),
                                  ClassSpec("so", 8, "t4")], ids=lambda s: s.case_id)
def test_assembling_a_drawn_point_normalizes_no_scalar(monkeypatch, spec):
    # each parameter lands on a zero entry, and a sum with zero is the other
    # operand, so the reduced fractions are put in as they are
    params = draw_params(spec, random.Random(7))
    assert any(not v.den.is_one for v in params.values.values())
    normalized = _normalizations(monkeypatch)
    assemble = points._assemble
    added = []

    def probe(*args, **kwargs):
        start = len(normalized)
        out = assemble(*args, **kwargs)
        added.append(len(normalized) - start)
        return out

    monkeypatch.setattr(points, "_assemble", probe)
    point = quantum_point(spec, params)
    assert added == [0, 0]
    assert all(point.A.get(i - 1, spec.N - i if params.kind == "y" else spec.N - i - 1)
               == (-v if spec.sign < 0 else v) for i, v in params.values.items())


@pytest.mark.parametrize("spec", [ClassSpec("sl", 6, "t2", 2, 1), ClassSpec("sp", 6, "t2", 2, -1),
                                  ClassSpec("so", 7, "t2", 1, -1), ClassSpec("so", 8, "t4")],
                         ids=lambda s: s.case_id)
def test_a_passing_verify_at_drawn_parameters_normalizes_only_its_literals(monkeypatch, capsys,
                                                                           spec):
    # the stabilizer's mixtures and tables are decided unreduced, and only
    # the --param literals are normalized, once each, as they are read
    from repoints.cli import main

    params = draw_params(spec, random.Random(7))
    argv = case_argv(spec) + flags_argv(param_flags(spec, params))
    normalized = _normalizations(monkeypatch, outside_literals=True)
    assert main(argv) == 0
    assert normalized == []
    assert all(c["pass"] for c in json.loads(capsys.readouterr().out)["checks"])


def _normalized_eigen(name, got, proj, left=False):
    """The projector eigen-record on normalized vectors, as it was before
    the vectors were kept unreduced."""
    factor = proj.w if left else proj.u
    diff = first_vector_difference(got, {k: proj.mu * v for k, v in factor.items()})
    if diff is None:
        return name, True, None
    k, a, b = diff
    inv = proj.den.inv()
    i, j = (proj.i0, k) if left else (k, proj.j0)
    return name, False, (f"first mismatch at ({i}, {j}): "
                         f"{render_scalar(a * inv)} vs {render_scalar(b * inv)}")


def test_unreduced_oc_records_are_the_normalized_ones():
    """oc.right, oc.left and varpi.eigen, decided by the kernel on X U,
    W X and S U, give the records of the normalized vectors: every B, C and D class with N <= 8 at
    default and seed-7 drawn parameters, with (q+2)/(q^2+3) added to A at
    (0, N-1) or (N//2, 0), and with S perturbed at its first entry."""
    rng = random.Random(7)
    bump = parse_scalar("(q+2)/(q^2+3)")
    failing = 0
    for spec in admissible_cases(8):
        if spec.group == "sl":
            continue
        data = build_rmatrix_data(spec.series)
        S, proj, N = data.S, data.projector, spec.N
        params = [default_params(spec)]
        if params[0].values:
            params.append(draw_params(spec, rng))
        for p in params:
            A = quantum_point(spec, p).A
            for bad in [A] + [A + QMatrix.from_entries(N, [(*pos, bump)])
                              for pos in [(0, N - 1), (N // 2, 0)]]:
                A2 = QMatrix.identity(N).kron(bad)
                right = proj.u
                for m in (A2, S, A2):
                    right = m.transpose().apply_left(right)
                want = [_normalized_eigen("oc.right", right, proj),
                        _normalized_eigen("oc.left", A2.apply_left(
                            S.apply_left(A2.apply_left(proj.w))), proj, left=True)]
                got = [(r.name, r.passed, r.detail)
                       for r in check_oc(reflection_operand(bad, S), proj)]
                assert got == want, spec.case_id
                failing += sum(not r[1] for r in got)
        bad_S = S + QMatrix.from_entries(S.dim, [(0, 0, bump)])
        (eigen,) = [r for r in check_varpi_structure(bad_S, proj) if r.name == "varpi.eigen"]
        assert (eigen.name, eigen.passed, eigen.detail) == _normalized_eigen(
            "varpi.eigen", bad_S.transpose().apply_left(proj.u), proj), spec.case_id
        failing += not eigen.passed
    assert failing >= 100, failing


def test_classical_algebra_is_built_before_the_reflection_check(monkeypatch):
    # a cold per-series set-up is charged to "build", not to "bivector"
    from repoints import classical, verifier

    check = verifier.check_reflection

    def probe(X, S):
        assert classical.build_classical_algebra.cache_info().currsize == 1
        return check(X, S)

    classical.build_classical_algebra.cache_clear()
    monkeypatch.setattr(verifier, "check_reflection", probe)
    assert full_report(ClassSpec("sl", 3, "t2", 1, 1)).passed


def test_bivector_detail_renders_a_negative_imaginary_part():
    point = quantum_point(ClassSpec("sl", 2, "t2", 1, 1))
    a0 = QMatrix.from_entries(2, [(0, 0, parse_scalar("i")), (1, 1, ONE)])
    record = check_bivector(replace(point, A0=a0))
    assert not record.passed
    assert record.detail == "largest coefficient (2-2*i) at (1, 2)"


def _callers(monkeypatch, *names):
    """(method, calling function) for each call of the `QMatrix` methods
    `names` from now on."""
    seen = []
    for name in names:
        def recording(self, *args, _method=getattr(QMatrix, name), _name=name):
            seen.append((_name, sys._getframe(1).f_code.co_name))
            return _method(self, *args)
        monkeypatch.setattr(QMatrix, name, recording)
    return seen


@pytest.mark.parametrize("spec", [
    ClassSpec("so", 5, "t2", 1, -1),
    ClassSpec("sl", 6, "t2", 2, 1),
    ClassSpec("sp", 6, "t2", 2, -1),
], ids=lambda s: s.case_id)
def test_a_warm_passing_verify_forms_no_shifted_or_scaled_copy(monkeypatch, spec):
    """With warm caches, a passing verify forms no A - lam I and no scaled
    matrix: the minimal polynomial reads A's rows at t, and the F_tilde
    words' q-commutators xy - a yx scale their entries as they build
    them."""
    full_report(spec)
    seen = _callers(monkeypatch, "add_scalar_diag", "scale")
    assert full_report(spec).passed
    assert seen == []


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 6), ("so", 8)])
def test_the_rank_one_identity_scales_no_factor(monkeypatch, group, N):
    """`Projector.factor_mismatch` on a cold `build_rmatrix_data` reads
    p R as a scaled term: no `QMatrix.scale` runs."""
    seen = _callers(monkeypatch, "scale")
    data = build_rmatrix_data.__wrapped__(series_for_group(group, N))
    assert data.projector.factor_mismatch is None
    assert seen == []
