"""Construction of the point matrices: the quantum matrices A for each
symmetric conjugacy class, their free parameters with pairing constraints,
and the classical limits A0.
"""
from __future__ import annotations

from dataclasses import dataclass

from .qmatrix import QMatrix
from .rootdata import ClassSpec
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

    def literal_items(self):
        return [(f"{self.kind}{i}", render_scalar(v)) for i, v in sorted(self.values.items())]


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


def constraint_value(spec: ClassSpec, classical: bool = False) -> QScalar:
    """The required product of each constrained parameter pair."""
    N = spec.N
    if spec.family == "t2":
        return ONE if classical else QScalar.q_power(-N)
    if spec.group == "sp":
        return -ONE if classical else -QScalar.q_power(-N - 2)
    return -ONE if classical else -QScalar.q_power(-N + 2)


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


def validate_params(spec: ClassSpec, params: PointParams, classical: bool = False) -> list:
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
    c = constraint_value(spec, classical)
    for i in _top_indices(spec):
        j = paired_index(spec, i)
        vi = params.values[i]
        if not vi:
            problems.append(f"{k}{i} = 0")
            continue
        prod = vi * params.values[j] if j != i else vi * vi
        if prod != c:
            pair = f"{k}{i}*{k}{j}" if j != i else f"{k}{i}^2"
            problems.append(f"{pair} = {render_scalar(prod)}, expected {render_scalar(c)}")
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
    """The classical matrix A0 for constant (q-free) parameters."""
    problems = validate_params(spec, params_at_one, classical=True)
    if problems:
        raise ParamError(problems)
    return _assemble(spec, params_at_one, classical=True)


@dataclass
class QuantumPoint:
    spec: ClassSpec
    params: PointParams
    A: QMatrix
    A0: QMatrix  # entries are q-free

    def param_digest(self) -> str:
        return ",".join(f"{n}={v}" for n, v in self.params.literal_items())


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


def gauss_grid(A: QMatrix) -> list:
    """Dense GaussRational rows of a q-free matrix, via evaluation at q = 1."""
    return [[eval_at_one(A.get(i, j)) for j in range(A.dim)] for i in range(A.dim)]
