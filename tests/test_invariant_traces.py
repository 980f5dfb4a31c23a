"""The multiplicities decided by the trace, and the integer rows of I x A
placed from A's.

Once (A - lam+)(A - lam-) = 0 holds with lam+ != lam-, A is diagonalizable
and tr A = m+ lam+ + m- lam- fixes both multiplicities, so
`check_min_poly` decides rank(A - lam) = r as
tr A = (N - r) lam + r lam'.  These tests hold that rule to the ranks it
replaces, on the grid, on perturbed points and on diagonal controls whose
multiplicities are off by one, and pin that a passing verify computes no
rank.  The integer rows of I x A (`IdentityKron`) must be the
entry-by-entry conversion at both substitution points the kernel uses, and
a passing OC check reads the rows of A2 S A2 that the reflection check
keeps.
"""
import os
import random
import sys

import pytest

from repoints import verifier
from repoints.natrep import CheckRecord
from repoints.points import default_params, pm_exponents, quantum_point
from repoints.qmatrix import IdentityKron, QMatrix, Unreduced, _entry
from repoints.rmatrix import build_rmatrix_data, epsilon_for
from repoints.rootdata import ClassSpec, admissible_cases
from repoints.scalar import I_UNIT, ZERO, LaurentPoly, QScalar, parse_scalar
from repoints.verifier import (
    check_min_poly,
    check_oc,
    check_reflection,
    check_varpi_structure,
    full_report,
    reflection_operand,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import draw_params  # noqa: E402

GRID = admissible_cases(12)
# the classes and cells of tests/data/golden_control_details.json
CONTROL_CASES = [("sl", 4, "t2", 1, 1), ("sl", 5, "t2", 2, -1), ("so", 5, "t2", 1, 1),
                 ("so", 6, "t4", None, 1), ("sp", 4, "t2", 2, 1), ("sp", 6, "t4", None, 1)]
PINNED = [ClassSpec("sl", 6, "t2", 2, 1), ClassSpec("sp", 6, "t2", 2, -1), ClassSpec("so", 8, "t4")]


def _roots(spec):
    """((lam+, rank(A - lam+)), (lam-, rank(A - lam-))) as the class fixes them."""
    if spec.family == "t2":
        P, M = pm_exponents(spec)
        return (QScalar.q_power(-M), M), (-QScalar.q_power(-P), P)
    val = I_UNIT * QScalar.q_power(-spec.N // 2 + epsilon_for(spec.series))
    return (val, spec.N // 2), (-val, spec.N // 2)


def _rank_records(A, spec):
    """The mult records as exact Gaussian elimination decides them."""
    records = []
    for name, (lam, want) in zip(("mult.plus", "mult.minus"), _roots(spec)):
        rk = A.add_scalar_diag(-lam).rank()
        records.append(CheckRecord(name, rk == want,
                                   None if rk == want else f"rank {rk}, expected {want}"))
    return records


def _trace_verdicts(A, spec):
    """tr A = (N - r) lam + r lam' for each root, on normalized scalars."""
    trace = ZERO
    for i in range(spec.N):
        trace = trace + A.get(i, i)
    (lp, rp), (lm, rm) = _roots(spec)
    N = spec.N
    return [trace == QScalar(N - rp) * lp + QScalar(rp) * lm,
            trace == QScalar(N - rm) * lm + QScalar(rm) * lp]


def _grid_points():
    for spec in GRID:
        yield spec, default_params(spec)
        if default_params(spec).values:
            yield spec, draw_params(spec, random.Random(7))


def test_trace_rule_agrees_with_the_ranks_on_the_grid():
    seen = 0
    for spec, params in _grid_points():
        A = quantum_point(spec, params).A
        records = check_min_poly(A, spec)
        assert records[0].passed, spec.case_id
        reference = _rank_records(A, spec)
        assert records[1:] == reference, spec.case_id
        assert _trace_verdicts(A, spec) == [r.passed for r in reference], spec.case_id
        seen += 1
    assert seen == 225 + 171


@pytest.mark.parametrize("args", CONTROL_CASES, ids=lambda a: ClassSpec(*a).case_id)
def test_perturbed_points_keep_their_rank_details(args):
    # where min_poly fails the ranks decide, and their details are the ones
    # tests/data/golden_control_details.json pins
    spec = ClassSpec(*args)
    N = spec.N
    A = quantum_point(spec).A
    for pos in [(0, N - 1), (N // 2, 0)]:
        bad = A + QMatrix.from_entries(N, [(*pos, parse_scalar("(q+2)/(q^2+3)"))])
        records = check_min_poly(bad, spec)
        assert not records[0].passed
        assert records[1:] == _rank_records(bad, spec), pos


def _off_by_one_diagonals(spec):
    """Diagonal matrices with eigenvalues lam+, lam- only, whose multiplicity
    of lam+ is one above or one below the class's."""
    (lp, rp), (lm, _) = _roots(spec)
    N = spec.N
    for m_plus in (N - rp - 1, N - rp + 1):
        if 0 <= m_plus <= N:
            yield QMatrix(N, [{i: lp if i < m_plus else lm} for i in range(N)])


def test_off_by_one_multiplicities_fail_with_the_rank_details():
    controls = 0
    for spec in admissible_cases(8):
        for D in _off_by_one_diagonals(spec):
            records = check_min_poly(D, spec)
            assert records[0] == CheckRecord("min_poly", True), spec.case_id
            assert not records[1].passed and not records[2].passed, spec.case_id
            assert records[1:] == _rank_records(D, spec), spec.case_id
            controls += 1
    assert controls > len(admissible_cases(8))


def _normalizations(monkeypatch):
    """A list that gets each normalizing QScalar construction from now on,
    counted as the benchmark's tracer counts: a nonzero numerator over a
    denominator other than 1."""
    init = QScalar.__init__
    normalized = []

    def counting(obj, num, den=None):
        if den is not None and num and not (
                den.is_one if isinstance(den, LaurentPoly) else den == 1):
            normalized.append((num, den))
        init(obj, num, den)

    monkeypatch.setattr(QScalar, "__init__", counting)
    return normalized


@pytest.mark.parametrize("spec", PINNED, ids=lambda s: s.case_id)
def test_a_passing_verify_computes_no_rank(monkeypatch, spec):
    ranks = []
    rank = QMatrix.rank

    def counting(self):
        ranks.append(self.dim)
        return rank(self)

    monkeypatch.setattr(QMatrix, "rank", counting)
    for params in (default_params(spec), draw_params(spec, random.Random(7))):
        assert full_report(spec, params).passed
        A = quantum_point(spec, params).A
        with monkeypatch.context() as mp:
            normalized = _normalizations(mp)
            assert all(r.passed for r in check_min_poly(A, spec))
        assert normalized == []
    assert ranks == []


def _converted(m, K):
    return [{j: _entry(v, K) for j, v in row.items()} for row in m.rows]


def test_block_rows_are_the_entry_conversion():
    for spec, params in _grid_points():
        A, N = quantum_point(spec, params).A, spec.N
        A2, dense = IdentityKron(A), QMatrix.identity(N).kron(A)
        assert [A2.row(i) for i in range(N * N)] == dense.rows, spec.case_id
        for K in (64, 128):
            assert A2.substituted(K) == _converted(dense, K), (spec.case_id, K)


def test_a_reflection_check_converts_a_once_and_shares_its_rows(monkeypatch):
    spec = ClassSpec("sl", 6, "t2", 2, 1)
    A = quantum_point(spec, draw_params(spec, random.Random(7))).A
    S = build_rmatrix_data(spec.series).S
    converted = []
    substituted = QMatrix.substituted

    def recording(self, K):
        if self._subs is None or self._subs[0] != K:
            converted.append(self)
        return substituted(self, K)

    monkeypatch.setattr(QMatrix, "substituted", recording)
    assert check_reflection(reflection_operand(A, S), S).passed
    monkeypatch.undo()
    # A is converted once, S at most once (it is cached per series), and
    # I x A reads A's rows
    assert [m for m in converted if m is not S] == [A]
    A2 = IdentityKron(A)
    rows = A.substituted(64)
    assert all(A2.substituted(64)[i * spec.N + k][i * spec.N + j] is v
               for i in range(spec.N) for k, row in enumerate(rows) for j, v in row.items())


def test_a_passing_reflection_check_forms_no_qscalar_row_of_i_x_a(monkeypatch):
    spec = ClassSpec("sp", 6, "t2", 2, -1)
    A = quantum_point(spec, draw_params(spec, random.Random(7))).A
    S = build_rmatrix_data(spec.series).S
    made = []

    def refuse(self, *args):
        raise AssertionError("a passing check reads no normalized row of I x A")

    monkeypatch.setattr(IdentityKron, "row", refuse)
    monkeypatch.setattr(IdentityKron, "apply_left", refuse)
    monkeypatch.setattr(verifier, "IdentityKron", lambda A: made.append(IdentityKron(A)) or made[-1])
    assert check_reflection(reflection_operand(A, S), S).passed
    # I x A holds A and its rows at t, and no list of QScalar rows
    (A2,) = made
    held = [getattr(A2, name) for cls in type(A2).__mro__
            for name in getattr(cls, "__slots__", ()) if hasattr(A2, name)]
    assert A in held and not any(isinstance(v, list) for v in held)
    (_, rows), = [v for v in held if isinstance(v, tuple)]
    assert not any(isinstance(v, QScalar) for row in rows for v in row.values())


def test_the_oc_check_converts_nothing_of_a(monkeypatch):
    """After the reflection check, a passing OC check reads X = A2 S A2 off
    the rows that check keeps: it builds no row of X, S A2 or I x A anew,
    converts nothing of A and transposes nothing."""
    row, substituted = Unreduced.substituted_row, QMatrix.substituted

    def refuse(*args):
        raise AssertionError("a passing OC check reads the kept rows of X only")

    for spec in (ClassSpec("so", 5, "t2", 1, 1), ClassSpec("sp", 6, "t2", 2, -1),
                 ClassSpec("so", 10, "t4")):
        A = quantum_point(spec).A
        data = build_rmatrix_data(spec.series)
        X = reflection_operand(A, data.S)
        premises = [check_reflection(X, data.S)] + check_varpi_structure(data.S, data.projector)
        (_, _, SA2), = X.terms
        kept = X._subs
        built, converted = [], []

        def building(self, i, K, memo):
            if self is X or self is SA2:
                built.append(i)
            return row(self, i, K, memo)

        def converting(self, K):
            converted.append(self)
            return substituted(self, K)

        with monkeypatch.context() as patch:
            patch.setattr(Unreduced, "substituted_row", building)
            patch.setattr(QMatrix, "substituted", converting)
            patch.setattr(IdentityKron, "substituted", refuse)
            patch.setattr(IdentityKron, "substituted_row", refuse)
            patch.setattr(QMatrix, "transpose", refuse)
            assert all(r.passed for r in check_oc(X, data.projector, premises)), spec.case_id
        assert built == [] and X._subs is kept, spec.case_id
        assert not any(m is A for m in converted), spec.case_id
