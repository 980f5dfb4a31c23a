"""The invariants and the mixture coefficients decided at t.

`check_min_poly` decides (A - lam+)(A - lam-) = 0 row by row on A's rows at
t = 2^K, and the multiplicities and the q-trace on A's diagonal at t.
`solve_mixture` reads c = -b1[p] / b2[p] off b1[p] and b2[p] at t, and the
table identity Tn c_den = c_num Td is decided on the same entries.  These
tests hold the records to copies of the Laurent-polynomial decisions they
replace, on passing and perturbed points and with K lowered so that the
decisions at t redo rows, and pin that a passing verify makes no
Laurent-polynomial product or sum in those checks.
"""
import os
import random
import sys
from functools import reduce
from operator import mul

from repoints import coideal, points, qmatrix, verifier
from repoints.coideal import (
    MixtureInconsistentError,
    MixtureUnderdeterminedError,
    build_stabilizer,
    check_stabilizer,
)
from repoints.natrep import CheckRecord, build_natural_rep, cartan_power
from repoints.points import (
    PointParams,
    default_params,
    paired_index,
    pm_exponents,
    quantum_point,
    theta_for_class,
)
from repoints.qmatrix import QMatrix, Unreduced, first_product_difference, first_product_mismatch
from repoints.rmatrix import epsilon_for
from repoints.rootdata import admissible_cases, build_root_system, dot
from repoints.scalar import (
    I_UNIT,
    LP_ONE,
    LP_ZERO,
    Q,
    LaurentPoly,
    QScalar,
    q_integer,
    render_scalar,
)
from repoints.verifier import check_min_poly, check_q_trace, full_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import draw_params  # noqa: E402


# --- the Laurent-polynomial decisions, as they were -------------------------

def unreduced_sum(a, b):
    """a + b for unreduced fractions (num, den) of Laurent polynomials, with
    no gcd: the numerators added over an equal denominator, and
    cross-multiplied otherwise."""
    (n1, d1), (n2, d2) = a, b
    if d1 is d2 or d1 == d2:
        return n1 + n2, d1
    return n1 * d2 + n2 * d1, d1 * d2


def _unreduced_trace(A, rs=None):
    """sum_j q^(2 rho, w_j) A_jj, or the plain trace, as one unreduced
    fraction of Laurent polynomials."""
    total = LP_ZERO, LP_ONE
    for j, row in enumerate(A.rows):
        a = row.get(j)
        if a is not None:
            num = a.num
            if rs is not None:
                num = LaurentPoly.q_power(dot(rs.two_rho, rs.weights[j])) * num
            total = unreduced_sum(total, (num, a.den))
    return total


def _reference_min_poly(A, spec):
    """min_poly by the kernel on A - lam+ and A - lam-, and the
    multiplicities by the trace cross-multiplied against
    (N - r) lam + r lam'."""
    if spec.family == "t2":
        P, M = pm_exponents(spec)
        roots = ((QScalar.q_power(-M), M), (-QScalar.q_power(-P), P))
    else:
        val = I_UNIT * QScalar.q_power(-spec.N // 2 + epsilon_for(spec.series))
        roots = ((val, spec.N // 2), (-val, spec.N // 2))
    I, zero = QMatrix.identity(spec.N), QMatrix(spec.N)
    plus, minus = (Unreduced((None, A, None), (-lam, I, None)) for lam, _ in roots)
    records = [verifier._record("min_poly", first_product_difference(plus, minus, zero, zero))]
    num, den = _unreduced_trace(A)
    for name, (lam, want), (other, _) in zip(("mult.plus", "mult.minus"), roots, roots[::-1]):
        if records[0].passed:
            value = QScalar(spec.N - want) * lam + QScalar(want) * other
            if num * value.den == value.num * den:
                records.append(CheckRecord(name, True))
                continue
        rk = A.add_scalar_diag(-lam).rank()
        records.append(CheckRecord(name, rk == want,
                                   None if rk == want else f"rank {rk}, expected {want}"))
    return records


def _reference_expected_q_trace(spec):
    if spec.family == "t4":
        return QScalar(0)
    P, M = pm_exponents(spec)
    series = spec.series.series
    if series == "A":
        return q_integer(P) - q_integer(M)
    if series == "C":
        return q_integer(P + 1) - q_integer(M + 1)
    return q_integer(P - 1) - q_integer(M - 1)


def _reference_q_trace(A, spec):
    num, den = _unreduced_trace(A, build_root_system(spec.series))
    want = _reference_expected_q_trace(spec)
    if num * want.den == want.num * den:
        return CheckRecord("q_trace", True)
    return CheckRecord("q_trace", False, f"got {render_scalar(QScalar(num, den))}, "
                       f"expected {render_scalar(want)}")


def _commutator_entry(g, A, i, j):
    """[g, A]_ij as an unreduced fraction of Laurent polynomials."""
    terms = [(a.num * b.num, a.den * b.den) for k, a in g.rows[i].items()
             if (b := A.rows[k].get(j)) is not None]
    terms += [(-a.num * b.num, a.den * b.den) for k, a in A.rows[i].items()
              if (b := g.rows[k].get(j)) is not None]
    return reduce(unreduced_sum, terms) if terms else (LP_ZERO, LP_ONE)


def _reference_solve(lead, A, alpha, F_tilde):
    """(c_num, c_den) from Laurent products of b1[p] and b2[p], accepted on
    X'' = c_den lead + c_num F_tilde with the two as `QScalar`s."""
    p = first_product_mismatch(F_tilde, A, A, F_tilde)
    if p is not None:
        b2n, b2d = _commutator_entry(F_tilde, A, *p)
        b1n, b1d = _commutator_entry(lead, A, *p)
        c_num, c_den = -(b1n * b2d), b2n * b1d
        X2 = Unreduced((QScalar(c_den), lead, None), (QScalar(c_num), F_tilde, None))
        if first_product_mismatch(X2, A, A, X2) is not None:
            raise MixtureInconsistentError(f"alpha_{alpha}: commutators are not proportional")
        return c_num, c_den
    if first_product_difference(lead, A, A, lead) is None:
        raise MixtureUnderdeterminedError(f"alpha_{alpha}: both commutators vanish")
    raise MixtureInconsistentError(f"alpha_{alpha}: no coefficient can cancel the commutator")


def _reference_mixture_records(spec, params, A):
    """The `stab.X.alpha<a>` and `mixture.*` records at the point solved
    for, the table decided as Tn c_den = c_num Td on Laurent products."""
    rep, td = build_natural_rep(spec.series), theta_for_class(spec)
    solved, unsolved = [], []
    for a in td.pi_moved:
        lead = cartan_power(spec.series, coideal.cartan_shift(td, a)) * rep.e[a - 1]
        f_tilde = coideal.f_tilde_root_vector(rep, spec, a)
        try:
            solved.append((a, *_reference_solve(lead, A, a, f_tilde)))
        except (MixtureInconsistentError, MixtureUnderdeterminedError) as exc:
            unsolved.append(CheckRecord(f"mixture.alpha{a}", False,
                                        f"{type(exc).__name__}: {exc}"))
    records = [CheckRecord(f"stab.X.alpha{a}", True) for a, _, _ in solved] + unsolved
    for a, c_num, c_den in solved:
        table, _ = coideal.mixture_table_formula(spec, a, params)
        if table is None:
            continue
        num, den = table.factors()
        name = f"mixture.alpha{a}.table"
        if reduce(mul, num + [c_den]) == reduce(mul, [c_num] + den):
            records.append(CheckRecord(name, True))
        else:
            records.append(CheckRecord(name, False, (
                f"tabulated {render_scalar(QScalar(reduce(mul, num), reduce(mul, den)))}, "
                f"solved {render_scalar(QScalar(c_num, c_den))}")))
    return records


def _mixture_records(spec, params, A):
    return [r for r in check_stabilizer(build_stabilizer(spec, params, A), A)
            if r.name.startswith(("stab.X.", "mixture."))]


# --- the points --------------------------------------------------------------

def _scaled_entry(A, positions, c):
    """A with its first nonzero entry among positions times c, or None."""
    for i, j in positions:
        a = A.get(i, j)
        if a:
            out = QMatrix(A.dim, [dict(row) for row in A.rows])
            out.put(i, j, c * a)
            return out
    return None


def _wrong_pairing(spec, params):
    """The point assembled with the first pair's partner off by a factor 2,
    so the pairing constraint fails (`quantum_point` would refuse it)."""
    if not params.values:
        return None
    values = dict(params.values)
    j = paired_index(spec, min(values))
    values[j] = QScalar(2) * values[j]
    return points._assemble(spec, PointParams(params.kind, values), classical=False)


def _cases(nmax):
    """(spec, params, A, label): every admissible class with N <= nmax at
    default and seed-7 drawn parameters, each point as it is, with a
    diagonal entry times q, with a corner times 2, and with a wrong pairing
    constant."""
    rng = random.Random(7)
    for spec in admissible_cases(nmax):
        N = spec.N
        drawn = [default_params(spec)]
        if drawn[0].values:
            drawn.append(draw_params(spec, rng))
        for params in drawn:
            A = quantum_point(spec, params).A
            yield spec, params, A, "point"
            for label, bad in (
                    ("diagonal times q", _scaled_entry(A, [(i, i) for i in range(N)], Q)),
                    ("corner times 2", _scaled_entry(
                        A, [(0, N - 1), (N - 1, 0), (0, 0), (N - 1, N - 1)], QScalar(2))),
                    ("wrong pairing", _wrong_pairing(spec, params))):
                if bad is not None:
                    yield spec, params, bad, label


def _compare(nmax):
    """The new records against the references on `_cases(nmax)`; the
    number of points and of failing records seen."""
    seen, failing = 0, {"min_poly": 0, "mult": 0, "q_trace": 0, "mixture": 0}
    for spec, params, A, label in _cases(nmax):
        where = (spec.case_id, label)
        got = check_min_poly(A, spec)
        assert got == _reference_min_poly(A, spec), where
        failing["min_poly"] += not got[0].passed
        failing["mult"] += not (got[1].passed and got[2].passed)
        got = check_q_trace(A, spec, build_root_system(spec.series))
        assert got == _reference_q_trace(A, spec), where
        failing["q_trace"] += not got.passed
        got = _mixture_records(spec, params, A)
        assert got == _reference_mixture_records(spec, params, A), where
        failing["mixture"] += not all(r.passed for r in got)
        seen += 1
    return seen, failing


def test_invariants_and_mixtures_match_the_laurent_decisions_to_n12():
    seen, failing = _compare(12)
    assert seen >= 1400, seen
    assert all(n >= 50 for n in failing.values()), failing


def test_with_k_lowered_the_decisions_at_t_redo_rows_and_agree(monkeypatch):
    """With t = 2^4, on every class with N <= 8: the same records, and rows
    redone at t^2 or above inside the minimal polynomial, the traces and
    the mixtures."""
    monkeypatch.setattr(qmatrix, "_K", 4)
    redone, inside = set(), []
    signed_row = qmatrix._signed_row

    def recording(products, K):
        if K > 4 and inside:
            redone.add(inside[-1])
        return signed_row(products, K)

    def marking(module, name, label):
        f = getattr(module, name)

        def marked(*args):
            inside.append(label)
            try:
                return f(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, marked)

    monkeypatch.setattr(qmatrix, "_signed_row", recording)
    marking(qmatrix, "first_quadratic_difference", "min_poly")
    marking(qmatrix, "trace_matches", "trace")
    marking(coideal, "solve_mixture", "mixture")
    marking(qmatrix, "same_products", "table")
    for module in (verifier, coideal):
        for name in ("first_quadratic_difference", "trace_matches", "same_products"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, getattr(qmatrix, name))
    seen, _ = _compare(8)
    assert seen >= 300, seen
    assert redone == {"min_poly", "trace", "mixture", "table"}, redone


def _laurent_calls(monkeypatch):
    """The LaurentPoly products and sums made, from now on, inside
    `check_min_poly`, `check_q_trace` and `solve_mixture`, by name."""
    calls, inside = [], []
    for name in ("__mul__", "__add__"):
        def counting(self, other, _f=getattr(LaurentPoly, name), _name=name):
            if inside:
                calls.append((inside[-1], _name))
            return _f(self, other)
        monkeypatch.setattr(LaurentPoly, name, counting)
    for module, name in ((verifier, "check_min_poly"), (verifier, "check_q_trace"),
                         (coideal, "solve_mixture")):
        def marked(*args, _f=getattr(module, name), _name=name):
            inside.append(_name)
            try:
                return _f(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, marked)
    return calls


def test_a_passing_verify_makes_no_laurent_product_or_sum_in_those_checks(monkeypatch):
    calls = _laurent_calls(monkeypatch)
    rng = random.Random(7)
    verified = 0
    for spec in admissible_cases(8):
        params = default_params(spec)
        for p in [params] + ([draw_params(spec, rng)] if params.values else []):
            assert full_report(spec, p).passed, spec.case_id
            assert calls == [], spec.case_id
            verified += 1
    assert verified >= 180, verified


def _parent_q_commutator(x, y, a):
    return x * y - (y * x).scale(a)


def test_f_tilde_words_are_unchanged(monkeypatch):
    """Every F_tilde of every class with N <= 16 equals the word built with
    the dense q-commutator xy - (yx).scale(a)."""
    words = 0
    for spec in admissible_cases(16):
        rep = build_natural_rep(spec.series)
        for a in theta_for_class(spec).pi_moved:
            got = coideal.f_tilde_root_vector(rep, spec, a)
            with monkeypatch.context() as patch:
                patch.setattr(coideal, "q_commutator", _parent_q_commutator)
                want = coideal.f_tilde_root_vector(rep, spec, a)
            assert got == want, (spec.case_id, a)
            words += 1
    assert words >= 1000, words
