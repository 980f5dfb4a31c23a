"""Exact verification of all defining identities of a quantum symmetric
conjugacy class: reflection equation, orthogonality condition, minimal
polynomial with eigenvalue multiplicities, q-trace values, classical limit,
the stabilizer suite, and the classical bivector.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import classical, coideal
from .natrep import CheckRecord, build_natural_rep, q_trace, q_trace_exponents
from .points import (
    ParamError,
    PointParams,
    QuantumPoint,
    default_params,
    pm_exponents,
    quantum_point,
)
from .qmatrix import (
    IdentityKron,
    QMatrix,
    Unreduced,
    first_product_difference,
    first_quadratic_difference,
    trace_matches,
)
from .rmatrix import Projector, build_rmatrix_data, epsilon_for
from .rootdata import ClassSpec, RootSystem, build_root_system
from .scalar import (
    GR_I,
    ONE,
    ZERO,
    GaussRational,
    LaurentPoly,
    QScalar,
    q_integer,
    render_scalar,
)


@dataclass
class VerificationReport:
    case_id: str
    param_digest: str
    checks: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "params": self.param_digest,
            "checks": [c.to_dict() for c in self.checks],
            "timings": self.timings,
        }


def _mismatch_detail(diff) -> str | None:
    if diff is None:
        return None
    i, j, a, b = diff
    return f"first mismatch at ({i}, {j}): {render_scalar(a)} vs {render_scalar(b)}"


def _record(name: str, diff) -> CheckRecord:
    return CheckRecord(name, diff is None, _mismatch_detail(diff))


def _record_equal(name: str, left: QMatrix, right: QMatrix) -> CheckRecord:
    return _record(name, left.first_difference(right))


def _gauss_record(name: str, N: int, left: dict, right: dict) -> CheckRecord:
    """left = right for q-free N x N matrices held as their nonzero Gaussian
    entries (`classical.gauss_entries`). A failing record lifts both through
    `QScalar.from_gauss`, so it names the first mismatch in row-major order
    as `_record_equal` does on the QMatrix values."""
    if left == right:
        return CheckRecord(name, True)

    def lift(m: dict) -> QMatrix:
        return QMatrix.from_entries(N, [(i, j, QScalar.from_gauss(v)) for (i, j), v in m.items()])

    return _record_equal(name, lift(left), lift(right))


def reflection_operand(A: QMatrix, S: QMatrix) -> Unreduced:
    """X = A2 S A2 with A2 = I x A (`IdentityKron`): the `Unreduced` product
    of A2 and the `Unreduced` product S A2.  A verify builds it once for
    the reflection check and the OC, so the OC reads the rows at t that
    the reflection check keeps on it."""
    N = A.dim
    if S.dim != N * N:
        raise ValueError("dimension mismatch between A and S")
    A2 = IdentityKron(A)
    return Unreduced((None, A2, Unreduced((None, S, A2))))


def check_reflection(X: Unreduced, S: QMatrix) -> CheckRecord:
    """S A2 S A2 = A2 S A2 S, decided as S X = X S for X = A2 S A2
    (`reflection_operand`): by associativity S X is the left side and X S
    the right.  No entry is normalized unless it names the first
    mismatch."""
    return _record("reflection", first_product_difference(S, X, X, S))


def _factoring_problem(proj: Projector) -> str | None:
    """Why varpi is not u w^T / (p den), or None when it is (rank one)."""
    if proj.i0 is None:
        return "rank 0"
    diff = proj.factor_mismatch
    if diff is None:
        return None
    return f"rank above one, p*raw vs u*w: {_mismatch_detail(diff)}"


def _unfactored(name: str, problem: str) -> CheckRecord:
    return CheckRecord(name, False, f"not decided, varpi.rank_one fails ({problem})")


def _varpi_record(name: str, diff, proj: Projector, left: bool = False) -> CheckRecord:
    """M varpi = mu varpi from the kernel's first mismatch of M U = U MU,
    or varpi M = mu varpi, when left, from that of W M = MU W
    (`Projector.MU` holds mu at (j0, j0)).  As
    varpi = u w^T / (p den), the dense matrices first differ in column
    j0 = min supp w (in row i0 = min supp u when left), where their entries
    are the kernel's divided by den, as u_i0 = w_j0 = p."""
    if diff is None:
        return CheckRecord(name, True)
    i, j, a, b = diff
    inv = proj.den.inv()
    return CheckRecord(name, False, _mismatch_detail((proj.i0 if left else i, j,
                                                      a * inv, b * inv)))


# the records that, passing, let `check_oc` decide the right side on one row
_OC_PREMISES = frozenset({"reflection", "varpi.rank_one", "varpi.eigen"})


def check_oc(X: Unreduced, proj: Projector, premises=()) -> list:
    """A2 S A2 varpi = mu varpi, and the same with varpi on the left, where
    mu = eps q^(eps - N).  X = A2 S A2 is the reflection check's operand
    (`reflection_operand`).  On the factors, X u = mu u and
    w^T X = mu w^T, decided by the kernel as X U = U MU and W X = MU W,
    U holding u as column j0, W holding w as row j0 and MU mu at (j0, j0)
    (`Projector.U`, `Projector.W`, `Projector.MU`); each row is built from
    the rows of X that the reflection check keeps.

    `premises` are records decided on the same A, S and projector.  When
    `_OC_PREMISES` pass among them (S X = X S, S u = mu u and
    p raw = u w^T), the right side is decided on one row.  Proof: S (X u) =
    X S u = mu X u, and raw v = den v for every v with S v = mu v, as
    raw = (S - q)(S + q^-1) and den = (mu - q)(mu + q^-1) != 0.  So
    X u = raw X u / den = u (w^T X u) / (p den) = c u.  raw commutes with S,
    so u (w^T S) = p raw S = S u w^T = mu u w^T, and w^T S = mu w^T as
    u != 0; the same steps on the left give w^T X = c w^T.  So X u = mu u
    iff (X u)_k = mu u_k at k = min supp u, and w^T X = mu w^T iff
    (w^T X)_j0 = mu w_j0, j0 being min supp w.  Where c != mu, X u - mu u
    has exactly u's support (w's on the left), so the full check's first
    mismatch is that entry, with the same values.  So the right side
    decides row k of X U alone.  The left side decides row j0, the one
    nonzero row of W X: that is the full check, and under the premises its
    first mismatch is the entry at j0.  A failing premise leaves X u
    unconstrained, so the right side then decides every row."""
    problem = _factoring_problem(proj)
    if problem:
        return [_unfactored("oc.right", problem), _unfactored("oc.left", problem)]
    rows = [min(proj.u)] if _OC_PREMISES <= {r.name for r in premises if r.passed} else None
    U, W, MU = proj.U, proj.W, proj.MU
    right = first_product_difference(X, U, U, MU, rows)
    left = first_product_difference(W, X, MU, W, [proj.j0])
    return [_varpi_record("oc.right", right, proj),
            _varpi_record("oc.left", left, proj, left=True)]


def check_varpi_structure(S: QMatrix, proj: Projector) -> list:
    """varpi^2 = varpi, rank one, S varpi = mu varpi.  On the factors:
    w.u = p den, p raw = u w^T, S u = mu u.  They read only S and the
    projector, so they are decided once for each S and kept on the
    projector (`Projector.kept`): a series' verifies share them, and a
    projector built anew decides its own."""
    kept = proj.kept.get("varpi")
    if kept is None or kept[0] is not S:
        kept = proj.kept["varpi"] = S, _varpi_structure(S, proj)
    return list(kept[1])


def _varpi_structure(S: QMatrix, proj: Projector) -> list:
    """The records of `check_varpi_structure`, decided."""
    problem = _factoring_problem(proj)
    if problem:
        return [
            _unfactored("varpi.idempotent", problem),
            CheckRecord("varpi.rank_one", False, problem),
            _unfactored("varpi.eigen", problem),
        ]
    wu = ZERO
    for k, v in proj.u.items():
        x = proj.w.get(k)
        if x is not None:
            wu = wu + x * v
    p = proj.pivot
    if wu == p * proj.den:
        idempotent = CheckRecord("varpi.idempotent", True)
    else:
        # varpi^2 = (w.u / (p den)) varpi; compare at the pivot entry
        inv = proj.den.inv()
        idempotent = CheckRecord("varpi.idempotent", False, _mismatch_detail(
            (proj.i0, proj.j0, wu * inv * inv, p * inv)))
    return [
        idempotent,
        CheckRecord("varpi.rank_one", True),
        _varpi_record("varpi.eigen", first_product_difference(S, proj.U, proj.U, proj.MU), proj),
    ]


@lru_cache(maxsize=None)
def _min_poly_roots(spec: ClassSpec) -> tuple:
    """((lam+, r+), (lam-, r-)): the roots of the minimal polynomial, each
    with rank(A - lam) as the class fixes it, r+ + r- = N.  Each root is a
    unit c q^k, built with no product."""
    if spec.family == "t2":
        P, M = pm_exponents(spec)
        return (QScalar.q_power(-M), M), (-QScalar.q_power(-P), P)
    val = QScalar(LaurentPoly.q_power(-spec.N // 2 + epsilon_for(spec.series), GR_I))
    return (val, spec.N // 2), (-val, spec.N // 2)


def check_min_poly(A: QMatrix, spec: ClassSpec) -> list:
    """(A - lam+)(A - lam-) = 0, and rank(A - lam+), rank(A - lam-) as the
    class fixes them.  The minimal polynomial is decided one row at a time
    as A^2 - (lam+ + lam-) A + lam+ lam- I on A's rows at t
    (`qmatrix.first_quadratic_difference`), so no A - lam I is formed.

    Once min_poly passes, A is diagonalizable with eigenvalues lam+ != lam-
    of multiplicities m+ + m- = N, rank(A - lam+) = m-, and
    tr A = m+ lam+ + m- lam- fixes m+; so rank(A - lam) = r, with lam' the
    other root, iff tr A = (N - r) lam + r lam'.  As r+ + r- = N, the
    identities of the two roots are one, tr A = (N - r+) lam+ + r+ lam-,
    decided on A's diagonal at t (`qmatrix.trace_matches`).  A - lam is
    formed only for a failing record's rank."""
    (lp, rp), (lm, _) = roots = _min_poly_roots(spec)
    records = [_record("min_poly", first_quadratic_difference(A, lp, lm))]
    ranks = records[0].passed and trace_matches(
        A, None, ((QScalar(spec.N - rp), lp), (QScalar(rp), lm)))
    for name, (lam, want) in zip(("mult.plus", "mult.minus"), roots):
        if ranks:
            records.append(CheckRecord(name, True))
            continue
        rk = A.add_scalar_diag(-lam).rank()
        records.append(CheckRecord(name, rk == want,
                                   None if rk == want else f"rank {rk}, expected {want}"))
    return records


@lru_cache(maxsize=None)
def _q_trace_terms(spec: ClassSpec) -> tuple:
    """The expected q-trace as pairs (c, [z]) summing c [z], with c = +-1
    and [z] a balanced q-integer: none for t4, [P'] - [M'] for t2, where
    P' and M' are P and M shifted by the series (0 for A, +1 for C, -1 for
    B and D)."""
    if spec.family == "t4":
        return ()
    P, M = pm_exponents(spec)
    shift = {"A": 0, "C": 1}.get(spec.series.series, -1)
    return (ONE, q_integer(P + shift)), (-ONE, q_integer(M + shift))


def expected_q_trace(spec: ClassSpec) -> QScalar:
    return sum((c * z for c, z in _q_trace_terms(spec)), ZERO)


def check_q_trace(A: QMatrix, spec: ClassSpec, rs: RootSystem) -> CheckRecord:
    """The q-trace against `expected_q_trace`, decided on A's diagonal at t
    against the expected value's terms (`qmatrix.trace_matches`); the
    q-trace is normalized only to name a failure."""
    if trace_matches(A, q_trace_exponents(rs.ls), _q_trace_terms(spec)):
        return CheckRecord("q_trace", True)
    return CheckRecord("q_trace", False, f"got {render_scalar(q_trace(A, rs))}, "
                       f"expected {render_scalar(expected_q_trace(spec))}")


def check_classical_involution(spec: ClassSpec, a0: dict) -> CheckRecord:
    """A0^2 = I, or -I for family t4, on the Gaussian entries a0 of A0.

    det(A0) needs no record. Once min_poly and mult.plus, mult.minus pass,
    A is diagonalizable over Q(i)(q) with eigenvalues lam+, lam- of
    multiplicities m+, m- (N minus the two ranks), so
    det(A) = lam+^m+ lam-^m-. Once classical.limit passes, A0 is A at q = 1,
    and the determinant is a polynomial in the entries, so
    det(A0) = lam+(1)^m+ lam-(1)^m-."""
    unit = GaussRational(-1 if spec.family == "t4" else 1)
    want = {(i, i): unit for i in range(spec.N)}
    # decided on the square of the scaled Gaussian-integer entries, d^2 A0^2
    # = s, and divided by d^2 only to name a mismatch
    s, k = classical.square(a0)
    if s == {key: (x.a * k, x.b * k) for key, x in want.items()}:
        return CheckRecord("classical.square", True)
    return _gauss_record("classical.square", spec.N, classical.rational(s, (k, 0)), want)


def check_bivector(point: QuantumPoint, a0: dict | None = None) -> CheckRecord:
    """The classical Poisson bivector vanishes at the q = 1 limit A0, read
    from its Gaussian entries a0 (`classical.gauss_entries(point.A0)` if not
    given)."""
    if a0 is None:
        a0 = classical.gauss_entries(point.A0)
    data = classical.build_classical_algebra(point.spec.series)
    value = classical.bivector_at(data, a0)
    if value.is_zero():
        return CheckRecord("classical.bivector", True)
    i, j, v = value.largest_entry()
    return CheckRecord("classical.bivector", False, f"largest coefficient "
                       f"{render_scalar(QScalar.from_gauss(v))} at ({i}, {j})")


def full_report(spec: ClassSpec, params: PointParams | None = None) -> VerificationReport:
    if params is None:
        params = default_params(spec)
    report = VerificationReport(spec.case_id, params.digest())
    marks = [time.perf_counter()]

    def stage(name: str) -> None:
        """Record the time since the previous stage ended (or the report began)."""
        marks.append(time.perf_counter())
        report.timings[name] = round(marks[-1] - marks[-2], 6)

    try:
        point = quantum_point(spec, params)
    except ParamError as exc:
        report.checks.extend(CheckRecord("params", False, p) for p in exc.problems)
        return report
    rmd = build_rmatrix_data(spec.series)
    rs = build_root_system(spec.series)
    # the per-series set-up of the stabilizer and the classical layer is
    # build time, not stabilizer or bivector time
    build_natural_rep(spec.series)
    classical.build_classical_algebra(spec.series)
    stage("build")

    X = reflection_operand(point.A, rmd.S)
    report.checks.append(check_reflection(X, rmd.S))
    stage("reflection")

    if rmd.projector is not None:
        # the per-series projector records are premises of the OC, which
        # they follow in the report
        varpi = check_varpi_structure(rmd.S, rmd.projector)
        report.checks.extend(check_oc(X, rmd.projector, report.checks + varpi))
        report.checks.extend(varpi)
        stage("oc")

    report.checks.extend(check_min_poly(point.A, spec))
    report.checks.append(check_q_trace(point.A, spec, rs))
    stage("invariants")

    # the classical limit is recomputed from the limiting parameters, so this
    # cross-checks the two construction paths; A0 is read into Gaussian
    # entries once, for the limit, the square and the bivector
    a0 = classical.gauss_entries(point.A0)
    limit = {key: x for key, x in classical.gauss_entries(point.A).items() if x}
    report.checks.append(_gauss_record("classical.limit", spec.N, limit, a0))
    report.checks.append(check_classical_involution(spec, a0))
    stage("classical")

    ss = coideal.build_stabilizer(spec, params, point.A)
    report.checks.extend(coideal.check_stabilizer(ss, point.A))
    stage("stabilizer")

    # the bivector is checked last, and only at a point that passed the rest
    if report.passed:
        report.checks.append(check_bivector(point, a0))
        stage("bivector")
    report.timings["total"] = round(time.perf_counter() - marks[0], 6)
    return report
