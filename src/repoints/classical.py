"""Classical (q = 1) checks: Lie algebra data in the defining representation,
the invariant symmetric two-tensor omega, the skew two-tensor rho built from
paired root vectors, and the vanishing of the induced bivector at the
classical points.

Everything here is exact arithmetic over the Gaussian rationals; matrices are
dense lists of lists of GaussRational.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .natrep import CheckRecord, build_natural_rep
from .points import gauss_grid
from .rootdata import LieSeries, build_root_system
from .scalar import GR_ONE, GR_ZERO, GaussRational


def g_identity(n: int) -> list:
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def g_add(a: list, b: list) -> list:
    return [[(x + y if x else y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def g_sub(a: list, b: list) -> list:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def g_transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def g_is_zero(a: list) -> bool:
    return all(not x for row in a for x in row)


def g_eq(a: list, b: list) -> bool:
    return g_is_zero(g_sub(a, b))


def g_bracket(a: list, b: list) -> list:
    return g_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def trace_pair(a: list, b: list) -> GaussRational:
    """Tr(ab), the invariant form of the defining representation."""
    t = GR_ZERO
    n = len(a)
    for i in range(n):
        for k in range(n):
            if a[i][k] and b[k][i]:
                t = t + a[i][k] * b[k][i]
    return t


def _flatten(a: list) -> list:
    return [x for row in a for x in row]


@dataclass
class ClassicalAlgebraData:
    ls: LieSeries
    basis: list  # cartan elements, then e vectors, then f vectors
    cartan: list  # the cartan sub-list
    e_vectors: dict  # positive root -> grid
    f_vectors: dict  # positive root -> grid, normalized so (e, f) = 1
    positive: tuple  # roots in construction order
    omega: list  # symmetric coefficient matrix over the basis
    rho: list  # antisymmetric coefficient matrix over the basis
    expander: linalg.BasisExpander

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sorted_positive(rs) -> list:
    keyed = []
    for root in rs.positive:
        coords = rs.expand_in_simple(root)
        height = sum(coords)
        keyed.append((height, root))
    keyed.sort()
    return [root for _, root in keyed]


@lru_cache(maxsize=None)
def build_classical_algebra(ls: LieSeries) -> ClassicalAlgebraData:
    rep = build_natural_rep(ls)
    rs = build_root_system(ls)
    n = ls.rank

    simple_e = [gauss_grid(m) for m in rep.e]
    simple_f = [g_transpose(m) for m in simple_e]

    e_vec = {}
    f_vec = {}
    for i, alpha in enumerate(rs.simple):
        e_vec[alpha] = simple_e[i]
        f_vec[alpha] = simple_f[i]

    positive = _sorted_positive(rs)
    for root in positive:
        if root in e_vec:
            continue
        built = False
        for i, alpha in enumerate(rs.simple):
            rest = tuple(a - b for a, b in zip(root, alpha))
            if rest in e_vec:
                cand = g_bracket(simple_e[i], e_vec[rest])
                if not g_is_zero(cand):
                    e_vec[root] = cand
                    f_vec[root] = g_bracket(simple_f[i], f_vec[rest])
                    built = True
                    break
        if not built:
            raise AssertionError(f"no bracket decomposition for root {root}")

    # normalize the lowering vectors to (e, f) = 1 under the trace form
    for root in positive:
        t = trace_pair(e_vec[root], f_vec[root])
        if not t:
            raise AssertionError(f"degenerate pairing at root {root}")
        inv = t.inv()
        f_vec[root] = [[x * inv for x in row] for row in f_vec[root]]

    cartan = [g_bracket(e_vec[a], f_vec[a]) for a in rs.simple]
    basis = cartan + [e_vec[r] for r in positive] + [f_vec[r] for r in positive]
    expander = linalg.BasisExpander([_flatten(b) for b in basis])

    dim = len(basis)
    npos = len(positive)
    gram = [[trace_pair(x, y) for y in cartan] for x in cartan]
    gram_inv = linalg.invert(gram)

    omega = [[GR_ZERO] * dim for _ in range(dim)]
    for k in range(n):
        for l in range(n):
            omega[k][l] = gram_inv[k][l]
    rho = [[GR_ZERO] * dim for _ in range(dim)]
    for idx in range(npos):
        ei = n + idx
        fi = n + npos + idx
        omega[ei][fi] = GR_ONE
        omega[fi][ei] = GR_ONE
        rho[ei][fi] = GR_ONE
        rho[fi][ei] = -GR_ONE

    return ClassicalAlgebraData(ls, basis, cartan, e_vec, f_vec, tuple(positive),
                                omega, rho, expander)


def adjoint_matrix(data: ClassicalAlgebraData, a: list) -> list:
    """Ad_a (conjugation) on the basis; raises if a is singular or does not
    normalize the algebra."""
    a_inv = linalg.invert(a)
    cols = [
        data.expander.expand(_flatten(linalg.mat_mul(linalg.mat_mul(a, b), a_inv)))
        for b in data.basis
    ]
    return g_transpose(cols)


@dataclass
class BivectorValue:
    coeffs: list  # antisymmetric matrix over the algebra basis

    def is_zero(self) -> bool:
        return g_is_zero(self.coeffs)

    def largest_entry(self):
        """(i, j, value) of the coefficient with maximal Gaussian norm, or None."""
        best = None
        for i, row in enumerate(self.coeffs):
            for j, v in enumerate(row):
                if v and (best is None or v.norm() > best[2].norm()):
                    best = (i, j, v)
        return best


def omega_part(data: ClassicalAlgebraData, ad: list) -> list:
    """(1 x Ad - Ad x 1) applied to omega, in basis coefficients."""
    return g_sub(linalg.mat_mul(data.omega, g_transpose(ad)),
                 linalg.mat_mul(ad, data.omega))


def bivector_at(data: ClassicalAlgebraData, a: list) -> BivectorValue:
    """The reflection-equation Poisson bivector at the group element a, under
    the right-translation trivialization."""
    ad = adjoint_matrix(data, a)
    shifted = g_sub(ad, g_identity(data.dim))
    part_rho = linalg.mat_mul(linalg.mat_mul(shifted, data.rho), g_transpose(shifted))
    total = g_add(part_rho, omega_part(data, ad))
    if not g_is_zero(g_add(total, g_transpose(total))):
        raise AssertionError("bivector lost antisymmetry")
    return BivectorValue(total)


def check_involutive_vanishing(data: ClassicalAlgebraData, a: list) -> CheckRecord:
    """For involutive adjoint action the omega contribution vanishes."""
    ad = adjoint_matrix(data, a)
    if not g_eq(linalg.mat_mul(ad, ad), g_identity(data.dim)):
        return CheckRecord("omega.involutive", False, "Ad^2 is not the identity")
    ok = g_is_zero(omega_part(data, ad))
    return CheckRecord("omega.involutive", ok,
                       None if ok else "omega part nonzero despite Ad^2 = id")


def classical_point_grid(spec) -> list:
    """The classical point A0 of a class spec as a dense Gaussian-rational grid."""
    from .points import default_params, quantum_point

    return gauss_grid(quantum_point(spec, default_params(spec)).A0)
