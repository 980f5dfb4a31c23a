"""Construction of the point matrices: the quantum matrices A for each
symmetric conjugacy class, their free parameters with pairing constraints,
and the classical limits A0.  Both are sparse `QMatrix` objects; A0 is
q-free, and `classical.gauss_entries` reads its values at q = 1.

The involution theta = Ad(A0) of each class is read off A0, where the
class's shape is stated once: theta acts on the weights by the signed
permutation that A0 makes of the basis.  The simple roots it fixes, and the
partners of the rest (read from the support of -theta(alpha_i)), are
computed from theta rather than tabulated.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .qmatrix import QMatrix, same_products
from .rootdata import ClassSpec, build_root_system
from .scalar import GR_I, ONE, QScalar, eval_at_one, render_scalar


class ParamError(ValueError):
    """Parameters that violate the class's constraints; `problems` lists
    each violation as `validate_params` reports it."""

    def __init__(self, problems: list):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class PointParams:
    """Free corner parameters of a point: kind "y" (plain skew-diagonal corners)
    or "z" (staggered two-index corner blocks), indexed 1-based."""

    kind: str
    values: dict

    def digest(self) -> str:
        """The parameters as one line, name=value joined by commas, for reports."""
        return ",".join(f"{self.kind}{i}={render_scalar(v)}"
                        for i, v in sorted(self.values.items()))


def paired_index(spec: ClassSpec, i: int) -> int:
    """The partner index tied to i by the constraint y_i y_{i'} = const
    (kind y) or z_i z_{i'-1} = const (kind z)."""
    if spec.param_kind == "y":
        return spec.N + 1 - i
    return spec.N - i


def _top_indices(spec: ClassSpec) -> list:
    """The independent (top-corner) parameter indices."""
    N = spec.N
    if spec.family == "t2":
        if spec.param_kind == "y":
            return list(range(1, spec.m + 1))
        return list(range(1, spec.m, 2))
    if spec.group == "sp":
        return list(range(1, N // 2 + 1))
    # so t4: odd indices up to the middle; odd n gives a self-paired middle
    return list(range(1, N // 2 + 1, 2))


def param_indices(spec: ClassSpec) -> list:
    top = _top_indices(spec)
    out = list(top)
    for i in top:
        j = paired_index(spec, i)
        if j != i:
            out.append(j)
    return sorted(out)


def constraint_value(spec: ClassSpec) -> QScalar:
    """The required product of each constrained parameter pair."""
    N = spec.N
    if spec.family == "t2":
        return QScalar.q_power(-N)
    if spec.group == "sp":
        return -QScalar.q_power(-N - 2)
    return -QScalar.q_power(-N + 2)


def default_params(spec: ClassSpec) -> PointParams:
    """Canonical parameters: 1 on every independent top corner, partners fixed
    by the pairing constraint; a self-paired middle index takes the canonical
    square root of the constraint value."""
    values = {}
    c = constraint_value(spec)
    for i in _top_indices(spec):
        j = paired_index(spec, i)
        if j == i:
            # z_i^2 = -q^(-N+2); canonical root i * q^(-N/2+1)
            values[i] = QScalar.from_gauss(GR_I) * QScalar.q_power(-spec.N // 2 + 1)
        else:
            values[i] = ONE
            values[j] = c
    return PointParams(spec.param_kind, values)


def validate_params(spec: ClassSpec, params: PointParams) -> list:
    """Exact constraint check; returns a list of violation strings (empty = ok)."""
    problems = []
    if params.kind != spec.param_kind:
        problems.append(f"expected {spec.param_kind}-parameters, got {params.kind}")
        return problems
    want = set(param_indices(spec))
    got = set(params.values)
    if want != got:
        problems.append(f"expected indices {sorted(want)}, got {sorted(got)}")
        return problems
    k = params.kind
    for i, v in sorted(params.values.items()):
        if not v.den.at_one():
            problems.append(f"{k}{i} = {render_scalar(v)} has a pole at q = 1")
    if problems:
        return problems
    c = constraint_value(spec)
    for i in _top_indices(spec):
        j = paired_index(spec, i)
        vi, vj = params.values[i], params.values[j]
        if not vi:
            problems.append(f"{k}{i} = 0")
            continue
        # vi vj = c, cross-multiplied: the denominators are nonzero, so this
        # compares two products of Laurent polynomials, decided at t with no
        # polynomial product and no gcd
        if not same_products([vi.num, vj.num, c.den], [c.num, vi.den, vj.den]):
            pair = f"{k}{i}*{k}{j}" if j != i else f"{k}{i}^2"
            problems.append(f"{pair} = {render_scalar(vi * vj)}, expected {render_scalar(c)}")
    return problems


def _assemble(spec: ClassSpec, params: PointParams, classical: bool) -> QMatrix:
    N, m = spec.N, spec.m
    A = QMatrix(N)
    if spec.family == "t2":
        zero = QScalar(0)
        if classical:
            dt, dm = zero, ONE
        else:
            dt = QScalar.q_power(-m) * (ONE - QScalar.q_power(-N + 2 * m))
            dm = QScalar.q_power(-m)
        for i in range(1, m + 1):
            A.put(i - 1, i - 1, dt)
        for i in range(m + 1, N - m + 1):
            A.put(i - 1, i - 1, dm)
    if spec.param_kind == "y":
        for i, v in params.values.items():
            A.put(i - 1, N - i, A.get(i - 1, N - i) + v)
    else:
        for i, v in params.values.items():
            # the pair e_{i, i'-1} - e_{i+1, i'}; a self-paired middle index
            # lands on the diagonal
            A.put(i - 1, N - i - 1, A.get(i - 1, N - i - 1) + v)
            A.put(i, N - i, A.get(i, N - i) - v)
    if spec.sign < 0:
        A = -A
    return A


def classical_point(spec: ClassSpec, params_at_one: PointParams) -> QMatrix:
    """The classical matrix A0 for the values at q = 1 of parameters that
    pass `validate_params`.  They need no check of their own: no parameter
    has a pole at q = 1 and vi vj = c, and evaluation at 1 is a ring map, so
    vi(1) vj(1) = c(1) = +-1, and neither value is zero."""
    return _assemble(spec, params_at_one, classical=True)


@dataclass
class QuantumPoint:
    spec: ClassSpec
    params: PointParams
    A: QMatrix
    A0: QMatrix  # entries are q-free


def classical_limit_params(params: PointParams) -> PointParams:
    values = {i: QScalar.from_gauss(eval_at_one(v)) for i, v in params.values.items()}
    return PointParams(params.kind, values)


def quantum_point(spec: ClassSpec, params: PointParams | None = None) -> QuantumPoint:
    if params is None:
        params = default_params(spec)
    problems = validate_params(spec, params)
    if problems:
        raise ParamError(problems)
    A = _assemble(spec, params, classical=False)
    A0 = classical_point(spec, classical_limit_params(params))
    return QuantumPoint(spec, params, A, A0)


def pm_exponents(spec: ClassSpec) -> tuple:
    """(P, M) for the minimal polynomial (A + q^-P)(A - q^-M) = 0 of a t2 point."""
    if spec.family != "t2":
        raise ValueError("P, M are defined for family t2 only")
    if spec.sign > 0:
        return spec.N - spec.m, spec.m
    return spec.m, spec.N - spec.m


# --- the involution attached to a class -------------------------------------

@dataclass(frozen=True)
class ThetaData:
    """The involution theta on weight space for one class, plus the derived
    combinatorics: fixed simple roots, twisted partners and their tildes.
    """

    spec: ClassSpec
    apply: Callable = field(repr=False, compare=False)  # v -> theta(v), a signed permutation
    pi_fixed: tuple  # 1-based indices of simple roots fixed by theta
    pi_moved: tuple  # 1-based indices of the remaining simple roots
    tilde_eps: dict  # i -> -theta(alpha_i) in epsilon coordinates
    tilde_simple: dict  # i -> the same vector in simple-root coordinates
    partner: dict  # i -> the unique moved index i' with tilde(i) - alpha_{i'} in span Z+ of fixed simples


@lru_cache(maxsize=None)
def theta_for_class(spec: ClassSpec) -> ThetaData:
    """theta = Ad(A0) on the torus, for A0 the classical point at default
    parameters.  A0 is a signed permutation (its nonzeros are units), so
    A0 e_b = A0[a][b] e_a for one a per column b, and conjugating a diagonal
    h by A0 puts h_b at (a, a): theta sends the weight w_b of e_b to w_a.

    The first eps_dim basis vectors carry the weights e_0, ..., e_{d-1}, and
    each weight is s e_k or 0, so theta(e_b) = s e_k makes theta(v)_k = s v_b:
    a signed lookup (src, sign), with theta^2 = 1 iff src(src(k)) = k and
    sign_k = sign_src(k).  For B, C and D, A0 must map each pair
    b, b' = N - 1 - b to a pair, or Ad(A0) leaves the torus h_b' = -h_b."""
    ls = spec.series
    rs = build_root_system(ls)
    A0 = classical_point(spec, classical_limit_params(default_params(spec)))
    row_of = {b: a for a, row in enumerate(A0.rows) for b in row}
    N = ls.dim
    if len(row_of) != N or any(len(row) != 1 for row in A0.rows):
        raise AssertionError(f"the classical point of {spec.case_id} is not a signed permutation")
    if ls.series != "A" and any(row_of[N - 1 - b] != N - 1 - a for b, a in row_of.items()):
        raise AssertionError(f"the classical point of {spec.case_id} breaks the pairing b, b'")
    d = ls.eps_dim
    src, sign = [None] * d, [0] * d
    for b in range(d):
        w = rs.weights[row_of[b]]
        k = next((k for k, x in enumerate(w) if x), None)
        if k is None or src[k] is not None:
            raise AssertionError("theta is not an involution")
        src[k], sign[k] = b, w[k]
    if any(src[b] != k or sign[k] != sign[b] for k, b in enumerate(src)):
        raise AssertionError("theta is not an involution")
    perm = tuple(zip(src, sign))

    def apply(v):
        return tuple(s * v[b] for b, s in perm)

    fixed, moved = [], []
    for idx, alpha in enumerate(rs.simple, start=1):
        (fixed if apply(alpha) == alpha else moved).append(idx)

    # With c >= 0 the coordinates of tilde(alpha_i), tilde(alpha_i) - alpha_j is
    # in the span Z+ of the fixed simple roots iff c - e_j >= 0 is zero on every
    # moved index: iff j is the only moved index where c != 0, and c_j = 1.
    # c_j = 1 follows from the other checks: theta is an involution and fixes
    # every fixed alpha_k, so applying -theta to
    # tilde(alpha_i) = c_j alpha_j + (fixed roots) gives
    # alpha_i = c_j tilde(alpha_j) - (fixed roots). Index i is moved, so its
    # coordinate reads 1 = c_j tilde(alpha_j)_i, where both factors are
    # nonnegative integers once tilde(alpha_j) passes the check below; so
    # c_j = 1. Its test stays as a guard.
    tilde_eps, tilde_simple, partner = {}, {}, {}
    for i in moved:
        t = tuple(-x for x in apply(rs.simple[i - 1]))
        coords = rs.expand_in_simple(t)
        if any(c.denominator != 1 or c < 0 for c in coords):
            raise AssertionError("twisted partner is not a positive root combination")
        support = [j for j in moved if coords[j - 1]]
        if len(support) != 1 or coords[support[0] - 1] != 1:
            raise AssertionError(f"expected a unique partner for alpha_{i}, got {support}")
        tilde_eps[i], tilde_simple[i], partner[i] = t, tuple(map(int, coords)), support[0]

    return ThetaData(spec, apply, tuple(fixed), tuple(moved), tilde_eps, tilde_simple, partner)
