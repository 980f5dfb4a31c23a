"""Exact verification of all defining identities of a quantum symmetric
conjugacy class: reflection equation, orthogonality condition, minimal
polynomial with eigenvalue multiplicities, q-trace values, classical limit,
the stabilizer suite, and the classical bivector.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import classical, coideal
from .natrep import CheckRecord, build_natural_rep, q_trace
from .points import (
    ParamError,
    PointParams,
    QuantumPoint,
    default_params,
    gauss_grid,
    pm_exponents,
    quantum_point,
)
from .qmatrix import QMatrix
from .rmatrix import Projector, build_rmatrix_data, epsilon_for
from .rootdata import ClassSpec, RootSystem, build_root_system
from . import linalg
from .scalar import I_UNIT, ZERO, QScalar, eval_at_one, q_integer, render_scalar


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
            "checks": [
                {"name": c.name, "pass": c.passed}
                | ({"detail": c.detail} if c.detail else {})
                for c in self.checks
            ],
            "timings": self.timings,
        }


def _mismatch_detail(diff) -> str | None:
    if diff is None:
        return None
    i, j, a, b = diff
    return f"first mismatch at ({i}, {j}): {render_scalar(a)} vs {render_scalar(b)}"


def _record_equal(name: str, left: QMatrix, right: QMatrix) -> CheckRecord:
    diff = left.first_difference(right)
    return CheckRecord(name, diff is None, _mismatch_detail(diff))


def embed_second(A: QMatrix, N: int) -> QMatrix:
    """A acting on the second tensor factor: I x A."""
    return QMatrix.identity(N).kron(A)


def check_reflection(A: QMatrix, S: QMatrix) -> CheckRecord:
    """S A2 S A2 = A2 S A2 S with A2 = I x A."""
    N = A.dim
    if S.dim != N * N:
        raise ValueError("dimension mismatch between A and S")
    A2 = embed_second(A, N)
    SA = S * A2
    return _record_equal("reflection", SA * SA, A2 * SA * S)


def _first_vector_difference(got: dict, want: dict):
    """First index where two sparse vectors differ, with both values, or None."""
    for k in sorted(set(got) | set(want)):
        a, b = got.get(k, ZERO), want.get(k, ZERO)
        if a != b:
            return k, a, b
    return None


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


def _eigen_record(name: str, got: dict, proj: Projector, left: bool = False) -> CheckRecord:
    """X varpi = mu varpi given got = X u, or varpi X = mu varpi given
    got = w^T X when left.  The dense matrices first differ in column j0
    (row i0 when left), where the entry is got[k] / den."""
    factor = proj.w if left else proj.u
    diff = _first_vector_difference(got, {k: proj.mu * v for k, v in factor.items()})
    if diff is None:
        return CheckRecord(name, True)
    k, a, b = diff
    inv = proj.den.inv()
    i, j = (proj.i0, k) if left else (k, proj.j0)
    return CheckRecord(name, False, _mismatch_detail((i, j, a * inv, b * inv)))


def check_oc(A: QMatrix, S: QMatrix, proj: Projector) -> list:
    """A2 S A2 varpi = mu varpi, and the same with varpi on the left, where
    mu = eps q^(eps - N).  On the factors: A2 S A2 u = mu u and
    w^T A2 S A2 = mu w^T, as matrix-vector products."""
    problem = _factoring_problem(proj)
    if problem:
        return [_unfactored("oc.right", problem), _unfactored("oc.left", problem)]
    A2 = embed_second(A, A.dim)
    return [
        _eigen_record("oc.right", A2.apply(S.apply(A2.apply(proj.u))), proj),
        _eigen_record("oc.left", A2.apply_left(S.apply_left(A2.apply_left(proj.w))), proj,
                      left=True),
    ]


def check_varpi_structure(S: QMatrix, proj: Projector) -> list:
    """varpi^2 = varpi, rank one, S varpi = mu varpi.  On the factors:
    w.u = p den, p raw = u w^T, S u = mu u."""
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
        _eigen_record("varpi.eigen", S.apply(proj.u), proj),
    ]


def check_min_poly(A: QMatrix, spec: ClassSpec) -> list:
    N = spec.N
    records = []
    if spec.family == "t2":
        P, M = pm_exponents(spec)
        left = A.add_scalar_diag(QScalar.q_power(-P))
        right = A.add_scalar_diag(-QScalar.q_power(-M))
        records.append(_record_equal("min_poly", left * right, QMatrix.zeros(N)))
        rk = right.rank()
        records.append(CheckRecord("mult.plus", rk == M,
                                   None if rk == M else f"rank {rk}, expected {M}"))
        rk = left.rank()
        records.append(CheckRecord("mult.minus", rk == P,
                                   None if rk == P else f"rank {rk}, expected {P}"))
    else:
        eps = epsilon_for(spec.series)
        val = I_UNIT * QScalar.q_power(-N // 2 + eps)
        left = A.add_scalar_diag(-val)
        right = A.add_scalar_diag(val)
        records.append(_record_equal("min_poly", left * right, QMatrix.zeros(N)))
        for name, mat in (("mult.plus", left), ("mult.minus", right)):
            rk = mat.rank()
            records.append(CheckRecord(name, rk == N // 2,
                                       None if rk == N // 2 else f"rank {rk}, expected {N // 2}"))
    return records


def expected_q_trace(spec: ClassSpec) -> QScalar:
    if spec.family == "t4":
        return QScalar(0)
    P, M = pm_exponents(spec)
    series = spec.series.series
    if series == "A":
        return q_integer(P) - q_integer(M)
    if series == "C":
        return q_integer(P + 1) - q_integer(M + 1)
    return q_integer(P - 1) - q_integer(M - 1)


def check_q_trace(A: QMatrix, spec: ClassSpec, rs: RootSystem) -> CheckRecord:
    got = q_trace(A, rs)
    want = expected_q_trace(spec)
    ok = got == want
    detail = None if ok else f"got {render_scalar(got)}, expected {render_scalar(want)}"
    return CheckRecord("q_trace", ok, detail)


def check_classical_involution(point: QuantumPoint) -> list:
    N = point.spec.N
    sq = point.A0 * point.A0
    unit = QMatrix.identity(N)
    if point.spec.family == "t4":
        unit = -unit
    records = [_record_equal("classical.square", sq, unit)]
    det = linalg.determinant(gauss_grid(point.A0))
    # the determinant is reported, not constrained
    records.append(CheckRecord(
        "classical.det", True, f"det(A0) = {render_scalar(QScalar.from_gauss(det))}"))
    return records


def check_bivector(point: QuantumPoint) -> CheckRecord:
    """The classical Poisson bivector vanishes at the q = 1 limit A0."""
    data = classical.build_classical_algebra(point.spec.series)
    value = classical.bivector_at(data, gauss_grid(point.A0))
    if value.is_zero():
        return CheckRecord("classical.bivector", True)
    i, j, v = value.largest_entry()
    return CheckRecord("classical.bivector", False,
                       f"largest coefficient {v.re}+{v.im}i at ({i}, {j})")


def full_report(spec: ClassSpec, params: PointParams | None = None) -> VerificationReport:
    if params is None:
        params = default_params(spec)
    report = VerificationReport(spec.case_id, "")
    t0 = time.perf_counter()

    try:
        point = quantum_point(spec, params)
    except ParamError as exc:
        report.checks.extend(CheckRecord("params", False, p) for p in exc.problems)
        return report
    report.param_digest = point.param_digest()
    rmd = build_rmatrix_data(spec.series)
    rs = build_root_system(spec.series)
    report.timings["build"] = round(time.perf_counter() - t0, 6)

    t = time.perf_counter()
    report.checks.append(check_reflection(point.A, rmd.S))
    report.timings["reflection"] = round(time.perf_counter() - t, 6)

    if rmd.projector is not None:
        t = time.perf_counter()
        report.checks.extend(check_oc(point.A, rmd.S, rmd.projector))
        report.checks.extend(check_varpi_structure(rmd.S, rmd.projector))
        report.timings["oc"] = round(time.perf_counter() - t, 6)

    t = time.perf_counter()
    report.checks.extend(check_min_poly(point.A, spec))
    report.checks.append(check_q_trace(point.A, spec, rs))
    report.timings["invariants"] = round(time.perf_counter() - t, 6)

    # the classical limit is recomputed from the limiting parameters, so this
    # cross-checks the two construction paths
    t = time.perf_counter()
    limit = QMatrix(spec.N)
    for i, j, v in point.A.nonzero_items():
        limit.put(i, j, QScalar.from_gauss(eval_at_one(v)))
    report.checks.append(_record_equal("classical.limit", limit, point.A0))
    report.checks.extend(check_classical_involution(point))
    report.timings["classical"] = round(time.perf_counter() - t, 6)

    t = time.perf_counter()
    rep = build_natural_rep(spec.series)
    ss = coideal.build_stabilizer(rep, spec, params, point.A)
    report.checks.extend(coideal.check_stabilizer(ss, point.A))
    report.timings["stabilizer"] = round(time.perf_counter() - t, 6)

    # the bivector is checked last, and only at a point that passed the rest
    if report.passed:
        t = time.perf_counter()
        report.checks.append(check_bivector(point))
        report.timings["bivector"] = round(time.perf_counter() - t, 6)
    report.timings["total"] = round(time.perf_counter() - t0, 6)
    return report
