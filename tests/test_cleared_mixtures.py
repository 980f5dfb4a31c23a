"""The stabilizer's mixed generators decided with cleared denominators, and
e_b, f_b decided on A's rows and columns.

`solve_mixture` reads c = c_num / c_den at t and accepts it by
[X'', A] = 0 for X'' = c_den X; the table is a constant times a Laurent
monomial in the parameters, compared with c by cross-multiplication.  These
tests hold both to a copy of the normalized path they replace, and hold
`signed_permutation_difference` to the product kernel.
"""
import os
import random
import sys

import pytest

from repoints import coideal
from repoints.coideal import (
    MixtureInconsistentError,
    MixtureUnderdeterminedError,
    TabulatedValue,
    build_stabilizer,
    check_stabilizer,
    signed_permutation,
    signed_permutation_difference,
)
from repoints.natrep import build_natural_rep, cartan_power
from repoints.points import default_params, quantum_point, theta_for_class
from repoints.qmatrix import QMatrix, Unreduced, first_product_difference, first_product_mismatch
from repoints.rootdata import ClassSpec, admissible_cases
from repoints.scalar import I_UNIT, ONE, Q, ZERO, QScalar, parse_scalar, render_scalar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import draw_params  # noqa: E402

# the classes and cells of tests/data/golden_control_details.json
CONTROL_CASES = [("sl", 4, "t2", 1, 1), ("sl", 5, "t2", 2, -1), ("so", 5, "t2", 1, 1),
                 ("so", 6, "t4", None, 1), ("sp", 4, "t2", 2, 1), ("sp", 6, "t4", None, 1)]
_PERTURBATION = parse_scalar("(q+2)/(q^2+3)")


def _points(nmax):
    """(spec, params, A) at default parameters and at one seed-7 draw for
    every admissible class with N <= nmax."""
    rng = random.Random(7)
    for spec in admissible_cases(nmax):
        params = default_params(spec)
        yield spec, params, quantum_point(spec, params).A
        if params.values:
            drawn = draw_params(spec, rng)
            yield spec, drawn, quantum_point(spec, drawn).A


def _controls():
    """(spec, params, A) for the golden controls: the default point with
    (q+2)/(q^2+3) added at (0, N-1) and at (N//2, 0)."""
    for args in CONTROL_CASES:
        spec = ClassSpec(*args)
        point = quantum_point(spec)
        for pos in [(0, spec.N - 1), (spec.N // 2, 0)]:
            yield spec, point.params, point.A + QMatrix.from_entries(
                spec.N, [(*pos, _PERTURBATION)])


# --- the normalized path, as it was before denominators were cleared -------

def _reference_solve(lead, A, alpha, F_tilde):
    """(c, X) with c = -b1[p] / b2[p] normalized, accepted on X itself."""
    diff = first_product_difference(F_tilde, A, A, F_tilde)
    if diff is not None:
        i, j, fa, af = diff
        b1 = A.apply_left(lead.row(i)).get(j, ZERO) - lead.apply_left(A.row(i)).get(j, ZERO)
        c = -(b1 / (fa - af))
        X = lead + F_tilde.scale(c)
        if first_product_difference(X, A, A, X) is not None:
            raise MixtureInconsistentError(f"alpha_{alpha}: commutators are not proportional")
        return c, X
    if first_product_difference(lead, A, A, lead) is None:
        raise MixtureUnderdeterminedError(f"alpha_{alpha}: both commutators vanish")
    raise MixtureInconsistentError(f"alpha_{alpha}: no coefficient can cancel the commutator")


def _reference_table(spec, alpha, params):
    """The tabulated c_alpha as a normalized QScalar, and its note."""
    v = params.values
    i = alpha
    N, m = spec.N, spec.m
    n = spec.series.rank
    if spec.family == "t4":
        if spec.group == "sp":
            if i < n:
                return -Q * v[i + 1] / v[i], None
            return -(v[n] * v[n] * QScalar.q_power(2 * n)).inv(), None
        if i % 2 == 0 and i < n - 1:
            return -Q * v[i + 1] / v[i - 1], None
        if n % 2 == 0 and i == n:
            return -(QScalar.q_power(2 * n - 3) * v[n - 1] * v[n - 1]).inv(), None
        if n % 2 and i in (n - 1, n):
            val = I_UNIT * (QScalar.q_power(n - 1) * v[n - 2]).inv()
            note = "table subscript adjusted from n-1 to the existing index n-2"
            return (val if i == n - 1 else -val), note
    elif spec.group == "sl":
        if i < m or i > N - m:
            return v[i + 1] / v[i], None
        if 2 * m == N and i == m:
            note = "table labels this entry with a generic index; read as the middle root"
            return QScalar.q_power(-2 * m + 1) / (v[m] * v[m]), note
        sgn = ONE if (N + 1) % 2 == 0 else -ONE
        if i == m:
            return sgn * QScalar.q_power(-N + m) / v[m], None
        if i == N - m:
            return sgn * QScalar.q_power(2 * N - 5 * m - 3) / v[m], None
    elif spec.group == "so" and N % 2:
        if i < m:
            return -Q * v[i + 1] / v[i], None
        if i == m:
            if m < n:
                sgn = ONE if (n - m + 1) % 2 == 0 else -ONE
                return sgn * (v[m] * QScalar.q_power(m + 1)).inv(), None
            return -(v[m] * QScalar.q_power(m)).inv(), None
    elif spec.group == "sp":
        if i < m:
            return -Q * v[i + 1] / v[i - 1], None
        if i == m:
            if m <= n - 1:
                sgn = ONE if (n + 1) % 2 == 0 else -ONE
                return sgn * (v[m - 1] * QScalar.q_power(m)).inv(), None
            den = (Q * Q + ONE) * QScalar.q_power(2 * n - 2) * v[n - 1] * v[n - 1]
            return -den.inv(), None
    else:
        if i < m:
            return -Q * v[i + 1] / v[i], None
        if m == n and i == n:
            return -(v[n - 1] * v[n] * QScalar.q_power(2 * n - 1)).inv(), None
        if m == n - 1:
            return None, "table entry uses an undefined index; no value evaluated"
        if i == m:
            sgn = ONE if (n - m) % 2 == 0 else -ONE
            return sgn * (v[m] * QScalar.q_power(m + 1)).inv(), None
    return None, None


def _reference_outcomes(spec, params, A):
    """alpha -> (c, X, c_table, note) or (error type, message), on the
    normalized path."""
    rep = build_natural_rep(spec.series)
    td = theta_for_class(spec)
    out = {}
    for a in td.pi_moved:
        lead = cartan_power(spec.series, coideal.cartan_shift(td, a)) * rep.e[a - 1]
        f_tilde = coideal.f_tilde_root_vector(rep, spec, a)
        try:
            c, X = _reference_solve(lead, A, a, f_tilde)
        except (MixtureInconsistentError, MixtureUnderdeterminedError) as exc:
            out[a] = type(exc), str(exc)
            continue
        out[a] = (c, X, *_reference_table(spec, a, params))
    return out


def test_cleared_mixtures_match_the_normalized_path_on_every_class_to_n12():
    """Every moved root of every class with N <= 12, at default and seed-7
    drawn parameters, and the mixtures solved at the golden controls: the
    same acceptance verdict and error, the same normalized c and X, the same
    table value, note and verdict, and X'' = c_den X."""
    solved = unsolved = tabulated = 0
    for spec, params, A in [*_points(12), *_controls()]:
        want = _reference_outcomes(spec, params, A)
        ss = build_stabilizer(spec, params, A)
        got = {a: (type(exc), str(exc)) for a, exc in ss.unsolved}
        for gen in ss.mixed_generators:
            one = QMatrix.identity(spec.N)
            assert first_product_mismatch(gen.X_cleared, one, Unreduced((gen.c.den, gen.X, None)),
                                          one) is None, (spec.case_id, gen.alpha)
            matches = None if gen.c_table is None else gen.c_table == gen.c_solved
            assert gen.table_matches == matches
            got[gen.alpha] = gen.c_solved, gen.X, gen.c_table, gen.c_table_note
            tabulated += matches is not None
        assert got == want, spec.case_id
        solved += len(ss.mixed_generators)
        unsolved += len(ss.unsolved)
    assert solved >= 1200 and unsolved >= 15 and tabulated >= 1150, (solved, unsolved, tabulated)


def test_a_table_off_by_q_fails_with_the_normalized_detail(monkeypatch):
    """Negative control: with every tabulated value times q, each
    mixture.alpha<a>.table record of every class with N <= 8, at default and
    drawn parameters, fails with the detail of the normalized path."""
    formula = coideal.mixture_table_formula

    def off_by_q(spec, alpha, params):
        value, note = formula(spec, alpha, params)
        if value is None:
            return value, note
        return TabulatedValue(value.num * Q.num, value.den, value.mono, value.values), note

    monkeypatch.setattr(coideal, "mixture_table_formula", off_by_q)
    failing = 0
    for spec, params, A in _points(8):
        want = _reference_outcomes(spec, params, A)
        ss = build_stabilizer(spec, params, A)
        records = {r.name: r for r in check_stabilizer(ss, A)}
        for gen in ss.mixed_generators:
            c, _, c_table, _ = want[gen.alpha]
            name = f"mixture.alpha{gen.alpha}.table"
            if c_table is None:
                assert name not in records
                continue
            record = records[name]
            assert (record.passed, record.detail) == (
                False, f"tabulated {render_scalar(c_table * Q)}, solved {render_scalar(c)}")
            failing += 1
    assert failing >= 300


def test_e_and_f_are_decided_as_the_kernel_decides_them():
    """e_b and f_b of every fixed root b of every class with N <= 12, at
    default and seed-7 drawn parameters and at the golden controls: the row
    and column reading gives the kernel's first mismatch and values."""
    decided = failing = 0
    for spec, _, A in [*_points(12), *_controls()]:
        rep = build_natural_rep(spec.series)
        for b in theta_for_class(spec).pi_fixed:
            for g in (rep.e[b - 1], rep.f[b - 1]):
                want = first_product_difference(g, A, A, g)
                assert signed_permutation_difference(signed_permutation(g), A) == want, (
                    spec.case_id, b)
                decided += 1
                failing += want is not None
    assert decided >= 1900 and failing >= 8, (decided, failing)


def test_e_and_f_failures_in_arbitrary_rows():
    """A nonzero added on each antidiagonal cell of a point: [e_1, A] and
    [f_1, A] fail in rows that are not e_1's or f_1's as well, and pass
    where the cell is not read, as the kernel finds it."""
    rows = set()
    for group, N, m in [("sl", 5, 1), ("so", 7, 1), ("sp", 6, 2)]:
        spec = ClassSpec(group, N, "t2", m, 1)
        rep = build_natural_rep(spec.series)
        A = quantum_point(spec).A
        for value in (_PERTURBATION, QScalar.q_power(3)):
            for col in range(N):
                bad = A + QMatrix.from_entries(N, [(N - 1 - col, col, value)])
                for g in (rep.e[0], rep.f[0]):
                    want = first_product_difference(g, bad, bad, g)
                    assert signed_permutation_difference(signed_permutation(g), bad) == want
                    rows.add(None if want is None else want[0])
    assert None in rows and len(rows) >= 4, rows


@pytest.mark.parametrize("entries", [
    [(0, 1, ONE), (0, 2, ONE)],   # two nonzeros in a row
    [(0, 2, ONE), (1, 2, -ONE)],  # two nonzeros in a column
    [(0, 1, QScalar(2))],         # not a sign
    [(0, 1, Q)],
], ids=["row", "column", "two", "q"])
def test_signed_permutation_refuses_other_matrices(entries):
    with pytest.raises(ValueError, match="signed partial permutation"):
        signed_permutation(QMatrix.from_entries(3, entries))
