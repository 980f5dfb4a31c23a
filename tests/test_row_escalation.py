"""Rows the kernel's bound leaves open are redone alone at t^2.

`first_product_difference` decides each row at t = 2^K and redoes only a row
whose first open entry is undecided, at t^2, t^4, ..., from the factor rows
that row reads, then goes on at t.  These tests hold it to a copy of the
whole-call redo it replaces, with K lowered so that most rows escalate, and
pin that a redone row replaces no factor's rows kept for the first K.  The
operands are the ones the checks pass: `Unreduced` products, sums and
scaled factors as well as `QMatrix`es.
"""
import os
import random
import sys

import pytest

from repoints import qmatrix, rmatrix, verifier
from repoints.coideal import build_stabilizer
from repoints.points import default_params, quantum_point
from repoints.qmatrix import IdentityKron, QMatrix, Unreduced, first_product_difference
from repoints.rmatrix import build_rmatrix_data, factor_projector
from repoints.rootdata import ClassSpec, admissible_cases
from repoints.scalar import ZERO, parse_scalar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import draw_params  # noqa: E402

# the classes and cells of tests/data/golden_control_details.json
CONTROL_CASES = [("sl", 4, "t2", 1, 1), ("sl", 5, "t2", 2, -1), ("so", 5, "t2", 1, 1),
                 ("so", 6, "t4", None, 1), ("sp", 4, "t2", 2, 1), ("sp", 6, "t4", None, 1)]


def _whole_call_at(x, y, z, w, K):
    """The whole-call kernel at t = 2^K: (i, j), None, or _UNDECIDED.  Each
    side's row is built alone, and the two are subtracted column by column
    in sorted order, as the kernel did before it summed one signed row."""
    T = 1 << K
    yrows, wrows = y.substituted(K), w.substituted(K)
    for i, (xrow, zrow) in enumerate(zip(x.substituted(K), z.substituted(K))):
        left = qmatrix._signed_row(((1, xrow, yrows),), K)
        right = qmatrix._signed_row(((-1, zrow, wrows),), K)
        for j in sorted(left.keys() | right.keys()):
            a, b = left.get(j), right.get(j)
            _, re, im, _, h, _ = a if b is None else b if a is None else qmatrix._sum(a, b, K, T)
            if re or im:
                return i, j
            if h > T:
                return qmatrix._UNDECIDED
    return None


def _whole_call_redo(x, y, z, w):
    """`first_product_difference` as it was: the whole call redone at t^2
    while its first open entry is undecided."""
    K = qmatrix._K
    found = _whole_call_at(x, y, z, w, K)
    while found is qmatrix._UNDECIDED:
        K *= 2
        found = _whole_call_at(x, y, z, w, K)
    if found is None:
        return None
    i, j = found
    left, right = y.apply_left(x.row(i)), w.apply_left(z.row(i))
    return i, j, left.get(j, ZERO), right.get(j, ZERO)


def _operands(module, check):
    """The operands of the one kernel call that `check()` makes through
    `module`."""
    calls = []
    kernel = module.first_product_difference
    module.first_product_difference = lambda *ops: calls.append(ops) or kernel(*ops)
    try:
        check()
    finally:
        module.first_product_difference = kernel
    (ops,) = calls
    return ops


def _min_poly_operands(A, spec):
    """(A - lam+)(A - lam-) = 0 as a product of two sums, each A - lam the
    two-term `Unreduced` of A and -lam I."""
    (lp, _), (lm, _) = verifier._min_poly_roots(spec)
    I, zero = QMatrix.identity(spec.N), QMatrix(spec.N)
    return (Unreduced((None, A, None), (-lp, I, None)),
            Unreduced((None, A, None), (-lm, I, None)), zero, zero)


def _identities(spec, params, A, series_seen):
    """The kernel's identities at a point: the reflection equation as
    S M = M S, the minimal polynomial on A - lam+ and A - lam-, and [F_tilde, A]
    and [X'', A] for each mixed generator; and, once per series in
    `series_seen`, the projector's p raw = u w^T as L (p R) = U W."""
    data = build_rmatrix_data(spec.series)
    S = data.S
    A2 = IdentityKron(A)
    M = Unreduced((None, A2, Unreduced((None, S, A2))))
    yield S, M, M, S
    yield _min_poly_operands(A, spec)
    for gen in build_stabilizer(spec, params, A).mixed_generators:
        yield gen.F_tilde, A, A, gen.F_tilde
        yield gen.X_cleared, A, A, gen.X_cleared
    proj = data.projector
    if proj is not None and spec.series not in series_seen:
        series_seen.add(spec.series)
        (_, L, R), = proj.raw.terms
        fresh = factor_projector(L, R, proj.den, proj.mu)
        yield _operands(rmatrix, lambda: fresh.factor_mismatch)


def _points():
    rng = random.Random(7)
    for spec in admissible_cases(8):
        params = default_params(spec)
        yield spec, params, quantum_point(spec, params).A
        if params.values:
            drawn = draw_params(spec, rng)
            yield spec, drawn, quantum_point(spec, drawn).A
    bump = parse_scalar("(q+2)/(q^2+3)")
    for args in CONTROL_CASES:
        spec = ClassSpec(*args)
        point = quantum_point(spec)
        for pos in [(0, spec.N - 1), (spec.N // 2, 0)]:
            yield spec, point.params, point.A + QMatrix.from_entries(spec.N, [(*pos, bump)])


def test_escalated_rows_find_what_the_whole_call_redo_finds(monkeypatch):
    """With t = 2^8, on every point with N <= 8 at default and drawn
    parameters and at the golden controls, and on the projector of each
    B, C and D series with N <= 8: the same first mismatch and values, or
    the same None, as the whole-call redo."""
    monkeypatch.setattr(qmatrix, "_K", 8)
    escalated, pairs = [], set()
    at = qmatrix._escalated_row

    def counting(x, y, z, w, i, K, memo):
        escalated.append(K)
        pairs.add((type(x).__name__, type(y).__name__))
        return at(x, y, z, w, i, K, memo)

    monkeypatch.setattr(qmatrix, "_escalated_row", counting)
    calls = mismatches = 0
    series_seen = set()
    for spec, params, A in _points():
        for x, y, z, w in _identities(spec, params, A, series_seen):
            got = first_product_difference(x, y, z, w)
            assert got == _whole_call_redo(x, y, z, w), spec.case_id
            calls += 1
            mismatches += got is not None
    assert calls >= 400 and mismatches >= 15, (calls, mismatches)
    assert len(escalated) >= 1000 and max(escalated) >= 32, (len(escalated), max(escalated))
    # rows redone in products of two sums (the minimal polynomial) as well
    assert ("Unreduced", "Unreduced") in pairs, pairs


def test_a_listed_row_is_redone_as_the_all_rows_call_redoes_it(monkeypatch):
    """With t = 2^8, on every point with N <= 6 at default and drawn
    parameters and at the golden controls: the rows that open in an
    all-rows call, listed with the row of its first mismatch and decided
    alone, are redone at the same t^2, t^4, ... as that call redoes them,
    and give its first mismatch."""
    monkeypatch.setattr(qmatrix, "_K", 8)
    redone = []
    at = qmatrix._escalated_row

    def recording(x, y, z, w, i, K, memo):
        if K > 8:
            redone.append((i, K))
        return at(x, y, z, w, i, K, memo)

    monkeypatch.setattr(qmatrix, "_escalated_row", recording)
    listed = mismatches = 0
    for spec, params, A in _points():
        if spec.N > 6:
            continue
        for x, y, z, w in _identities(spec, params, A, set()):
            del redone[:]
            whole = first_product_difference(x, y, z, w)
            opened = list(redone)
            rows = {i for i, _ in opened} | ({whole[0]} if whole else set())
            del redone[:]
            assert first_product_difference(x, y, z, w, rows) == whole, spec.case_id
            assert redone == opened, spec.case_id
            listed += bool(opened)
            mismatches += whole is not None
    assert listed >= 100 and mismatches >= 5, (listed, mismatches)


def _big_coefficient_point():
    """sl4-t2-m1-p with y1 y1' = q^-4 and coefficients above 2^64, where the
    reflection check redoes rows at t^2, t^4 and t^8."""
    spec = ClassSpec("sl", 4, "t2", 1, 1)
    params = default_params(spec)
    big, bigger = 2 ** 64 + 3, 2 ** 65 + 1
    params.values[1] = parse_scalar(f"({bigger}*q^2+{big})/({big}*q-1)")
    params.values[4] = parse_scalar(f"({big}*q^-3-q^-4)/({bigger}*q^2+{big})")
    return spec, quantum_point(spec, params).A


def test_an_escalated_row_keeps_every_factors_rows_at_the_first_k(monkeypatch):
    spec, A = _big_coefficient_point()
    S = build_rmatrix_data(spec.series).S
    A2 = IdentityKron(A)
    SA2 = Unreduced((None, S, A2))
    M = Unreduced((None, A2, SA2))
    escalated = []
    at = qmatrix._escalated_row

    def recording(x, y, z, w, i, K, memo):
        escalated.append((i, K))
        return at(x, y, z, w, i, K, memo)

    monkeypatch.setattr(qmatrix, "_escalated_row", recording)
    assert first_product_difference(S, M, M, S) is None
    K = qmatrix._K
    assert {k for _, k in escalated} == {2 * K, 4 * K, 8 * K}
    # some rows are decided at t, between the redone ones
    assert len({i for i, _ in escalated}) < S.dim
    for m in (S, A, A2, SA2, M):
        assert m._subs[0] == K, m
    assert _whole_call_redo(S, M, M, S) is None


def test_a_redone_row_builds_only_the_factor_rows_it_reads():
    # one undecided entry in row 1 of x y: only row 1 of x, and the rows of
    # y that row reads, are converted at t^2
    T = 2 ** qmatrix._K
    a = parse_scalar(f"q-{T}")
    x = QMatrix.from_entries(3, [(0, 0, a), (1, 2, a), (2, 1, a)])
    y = QMatrix.from_entries(3, [(0, 0, a), (1, 1, a), (2, 2, a)])
    zero = QMatrix(3)
    memo = {}
    assert qmatrix._escalated_row(x, y, zero, zero, 1, 2 * qmatrix._K, memo) == 2
    assert sorted(i for key, i in memo if key == id(x)) == [1]
    assert sorted(i for key, i in memo if key == id(y)) == [2]


@pytest.mark.parametrize("K", [8, 16])
def test_unreduced_and_block_rows_built_alone_equal_their_kept_rows(K):
    """Row by row, `substituted_row` gives the rows `substituted` keeps, for
    a `QMatrix`, an `IdentityKron`, nested `Unreduced` products, a scaled
    sum, the minimal polynomial's A - lam I and the projector's p R."""
    spec = ClassSpec("sp", 6, "t2", 2, -1)
    A = quantum_point(spec, draw_params(spec, random.Random(7))).A
    S = build_rmatrix_data(spec.series).S
    A2 = IdentityKron(A)
    scaled = Unreduced((parse_scalar("q^2-3*i"), A, None),
                       (parse_scalar("(2*q+1)/(q-5)"), A, Unreduced((None, A, A))))
    plus, minus = _min_poly_operands(A, spec)[:2]
    proj = build_rmatrix_data(spec.series).projector
    (_, L, R), = proj.raw.terms
    pR = _operands(rmatrix, lambda: factor_projector(L, R, proj.den, proj.mu).factor_mismatch)[1]
    for m in (A, A2, Unreduced((None, S, A2)), Unreduced((None, A2, Unreduced((None, S, A2)))),
              scaled, plus, minus, pR):
        memo = {}
        rows = [qmatrix._row(m, i, K, memo) for i in range(m.dim)]
        assert rows == m.substituted(K)
