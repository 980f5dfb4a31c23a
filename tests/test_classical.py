"""Classical (q = 1) structure: invariant tensors and the Poisson bivector.

The program keeps every element of End(V) as a sparse dict {(i, j): x}. The
references here are dense lists of lists, built by the textbook formulas, and
every comparison converts at the boundary (`_dense`, `_sparse`). The program
does not store omega and rho; the tests build them (`omega_tensor`,
`rho_tensor`) and evaluate the bivector's six-term formula on them
(`formula_bivector`) as the reference for its tensor.
"""
import itertools
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from conftest import algebra_duals, root_vectors

from repoints import linalg
from repoints.cli import main
from repoints.classical import (
    _sorted_positive,
    adjoint_matrix,
    bivector_at,
    build_classical_algebra,
    check_involutive_vanishing,
    classical_point_entries,
    gauss_entries,
    rational,
)
from repoints.natrep import build_natural_rep
from repoints.points import (
    PointParams,
    _top_indices,
    classical_point,
    default_params,
    paired_index,
    param_indices,
    quantum_point,
)
from repoints.qmatrix import QMatrix
from repoints.rootdata import (
    ClassSpec,
    LieSeries,
    admissible_cases,
    build_root_system,
    series_for_group,
    standard_cases,
)
from repoints.scalar import GaussRational, QScalar, eval_at_one, parse_scalar
from repoints.verifier import check_bivector

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

from workloads import draw_params  # noqa: E402

ZERO = GaussRational(0)


# --- the dense reference: lists of lists, converted at the boundary ----------

def _dense(a, n):
    return [[a.get((i, j), ZERO) for j in range(n)] for i in range(n)]


def _sparse(m):
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def gauss_grid(A):
    """Dense GaussRational rows of a q-free matrix, via evaluation at q = 1."""
    return [[eval_at_one(A.get(i, j)) for j in range(A.dim)] for i in range(A.dim)]


def g_identity(n):
    return [[GaussRational(1 if i == j else 0) for j in range(n)] for i in range(n)]


def g_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def g_transpose(a):
    return [list(col) for col in zip(*a)]


def g_is_zero(a):
    return all(not x for row in a for x in row)


def g_bracket(a, b):
    return g_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def trace_pair(a, b):
    """Tr(ab) over the nonzeros of sparse a and b: the sparse reference the
    Cartan and root-vector tests read, checked against `dense_trace_pair`."""
    t = ZERO
    for (i, k), x in a.items():
        y = b.get((k, i))
        if y is not None:
            t = t + x * y
    return t


def dense_trace_pair(a, b):
    """Tr(ab) summed over every index pair."""
    n = len(a)
    return sum((a[i][k] * b[k][i] for i in range(n) for k in range(n)), ZERO)


def _diag(*values):
    n = len(values)
    return [[GaussRational(values[i]) if i == j else ZERO for j in range(n)] for i in range(n)]


def _point_grid(spec):
    return gauss_grid(quantum_point(spec, default_params(spec)).A0)


def dense_adjoint(data, a):
    """Ad_a on the basis from dense products a B_k a^-1, each image expanded
    by the dual basis; columns are images."""
    n = len(a)
    a_inv = linalg.invert(a)
    cols = [data.expander.expand(_sparse(linalg.mat_mul(linalg.mat_mul(a, _dense(b, n)), a_inv)))
            for b in data.basis]
    return g_transpose(cols)


def ad_matrix(data, x):
    """ad_x on the chosen basis, as a coefficient matrix (columns = images)."""
    n = data.ls.dim
    cols = [data.expander.expand(_sparse(g_bracket(_dense(x, n), _dense(b, n))))
            for b in data.basis]
    return g_transpose(cols)


class DenseAlgebra:
    """The Chevalley basis, its trace-form dual basis and omega, rho, built
    from dense N x N grids by the textbook steps: root vectors as dense
    brackets of the simple generators, tr(e f) = 1 by scaling f, h_i =
    [e_i, f_i], h_k^v from the inverse Gram matrix, and the tensors as sums
    over every pair of nonzero entries."""

    def __init__(self, ls):
        rep = build_natural_rep(ls)
        rs = build_root_system(ls)
        n = ls.dim
        self.simple_e = [gauss_grid(m) for m in rep.e]
        self.simple_f = [g_transpose(m) for m in self.simple_e]
        e_vec = dict(zip(rs.simple, self.simple_e))
        f_vec = dict(zip(rs.simple, self.simple_f))
        # by height, each root's height read from its own coordinates
        self.positive = sorted(rs.positive, key=lambda r: (sum(rs.expand_in_simple(r)), r))
        for root in self.positive:
            if root in e_vec:
                continue
            for i, alpha in enumerate(rs.simple):
                rest = tuple(a - b for a, b in zip(root, alpha))
                if rest in e_vec and not g_is_zero(g_bracket(self.simple_e[i], e_vec[rest])):
                    e_vec[root] = g_bracket(self.simple_e[i], e_vec[rest])
                    f_vec[root] = g_bracket(self.simple_f[i], f_vec[rest])
                    break
        for root in self.positive:
            inv = dense_trace_pair(e_vec[root], f_vec[root]).inv()
            f_vec[root] = [[x * inv for x in row] for row in f_vec[root]]
        self.e_vectors, self.f_vectors = e_vec, f_vec
        self.cartan = [g_bracket(e_vec[a], f_vec[a]) for a in rs.simple]
        gram_inv = linalg.invert([[dense_trace_pair(x, y) for y in self.cartan]
                                  for x in self.cartan])
        cartan_duals = []
        for row in gram_inv:
            d = [[ZERO] * n for _ in range(n)]
            for c, h in zip(row, self.cartan):
                d = [[u + c * v for u, v in zip(rd, rh)] for rd, rh in zip(d, h)]
            cartan_duals.append(d)
        es = [e_vec[r] for r in self.positive]
        fs = [f_vec[r] for r in self.positive]
        self.basis = self.cartan + es + fs
        self.duals = cartan_duals + fs + es
        e_f = self._outer_sum(zip(es, fs))
        self.omega = self._outer_sum(zip(self.basis, self.duals))
        flipped = {(k, l, i, j): v for (i, j, k, l), v in e_f.items()}
        rho = {key: e_f.get(key, ZERO) - flipped.get(key, ZERO) for key in set(e_f) | set(flipped)}
        self.rho = {key: v for key, v in rho.items() if v}

    @staticmethod
    def _outer_sum(pairs):
        out = {}
        for x, y in pairs:
            xs = [(i, j, u) for i, row in enumerate(x) for j, u in enumerate(row) if u]
            ys = [(r, s, v) for r, row in enumerate(y) for s, v in enumerate(row) if v]
            for i, j, u in xs:
                for r, s, v in ys:
                    out[(i, j, r, s)] = out.get((i, j, r, s), ZERO) + u * v
        return {key: v for key, v in out.items() if v}


def _sparse_outer_sum(pairs):
    out = {}
    for x, y in pairs:
        for (i, j), u in x.items():
            for (r, s), v in y.items():
                out[(i, j, r, s)] = out.get((i, j, r, s), ZERO) + u * v
    return {key: v for key, v in out.items() if v}


def _flip(t):
    return {(k, l, i, j): v for (i, j, k, l), v in t.items()}


def _sum_terms(*terms):
    """sum of sign * t over the (sign, t) in terms, zeros dropped."""
    out = {}
    for sign, t in terms:
        for key, v in t.items():
            out[key] = out.get(key, ZERO) + (v if sign > 0 else -v)
    return {key: v for key, v in out.items() if v}


@lru_cache(maxsize=None)
def omega_tensor(ls):
    """omega = sum_k B_k (x) B_k^v in End(V) (x) End(V)."""
    data = build_classical_algebra(ls)
    return _sparse_outer_sum(zip(data.basis, algebra_duals(data)))


@lru_cache(maxsize=None)
def rho_tensor(ls):
    """rho = sum_beta e_beta (x) f_beta - f_beta (x) e_beta."""
    data = build_classical_algebra(ls)
    e_vectors, f_vectors = root_vectors(data)
    e_f = _sparse_outer_sum((e_vectors[r], f_vectors[r]) for r in data.positive)
    return _sum_terms((1, e_f), (-1, _flip(e_f)))


def _conjugate_left(t, a, a_inv):
    """(Ad_a (x) 1) t for dense a and a^-1: E_ij -> sum_pr a[p][i] a^-1[j][r] E_pr."""
    n = len(a)
    out = {}
    for (i, j, k, l), x in t.items():
        for p in range(n):
            if a[p][i]:
                for r in range(n):
                    if a_inv[j][r]:
                        key = (p, r, k, l)
                        out[key] = out.get(key, ZERO) + x * a[p][i] * a_inv[j][r]
    return {key: v for key, v in out.items() if v}


def formula_bivector(ls, a):
    """The bivector tensor at a dense grid a by the original formula,
    T = (1 (x) Ad)[(Ad (x) 1)rho - rho + omega] - (Ad (x) 1)rho
        - (Ad (x) 1)omega + rho,
    conjugating whole tensors by a and its inverse from `linalg.invert`."""
    a_inv = linalg.invert(a)
    rho, omega = rho_tensor(ls), omega_tensor(ls)
    rho_left = _conjugate_left(rho, a, a_inv)
    inner = _sum_terms((1, rho_left), (-1, rho), (1, omega))
    inner_right = _flip(_conjugate_left(_flip(inner), a, a_inv))
    return _sum_terms((1, inner_right), (-1, rho_left),
                      (-1, _conjugate_left(omega, a, a_inv)), (1, rho))


SERIES_TO_8 = ([("sl", N) for N in range(2, 9)] + [("so", N) for N in range(3, 9)]
               + [("sp", N) for N in range(2, 9, 2)])


@pytest.mark.parametrize("group,N", SERIES_TO_8)
def test_sparse_algebra_matches_the_dense_construction(group, N):
    ls = series_for_group(group, N)
    data = build_classical_algebra(ls)
    ref = DenseAlgebra(ls)
    rep = build_natural_rep(ls)
    for m, grid in zip(rep.e, ref.simple_e):
        assert gauss_entries(m) == _sparse(grid)
    for m, grid in zip(rep.f, ref.simple_f):
        assert gauss_entries(m) == _sparse(grid)
    assert list(data.positive) == ref.positive
    e_vectors, f_vectors = root_vectors(data)
    for root in ref.positive:
        assert e_vectors[root] == _sparse(ref.e_vectors[root])
        assert f_vectors[root] == _sparse(ref.f_vectors[root])
    assert data.basis[:data.ls.rank] == [_sparse(h) for h in ref.cartan]
    assert data.basis == [_sparse(b) for b in ref.basis]
    assert algebra_duals(data) == [_sparse(d) for d in ref.duals]
    assert omega_tensor(ls) == ref.omega
    assert rho_tensor(ls) == ref.rho
    # the Gaussian-integer data the bivector reads: each integral e with
    # e (x) e^T / n = e_beta (x) f_beta, n = tr(e e^T) dividing L, and the
    # Cartan block of omega times L
    scale = GaussRational(data.scale)
    for root in ref.positive:
        w, e, et = data.root_vectors[root]
        e, et = rational(e, (1, 0)), rational(et, (1, 0))
        n = trace_pair(e, et)
        assert et == {(j, i): x for (i, j), x in e.items()}
        assert w == ((scale / n).re, 0) and (scale / n).re.denominator == 1
        assert (_sparse_outer_sum([(e, {key: x / n for key, x in et.items()})])
                == _sparse_outer_sum([(e_vectors[root], f_vectors[root])]))
    block = {(i, i, j, j): GaussRational(*c) / scale for (i, j), c in data.cartan_block.items()}
    assert block == DenseAlgebra._outer_sum(zip(ref.cartan, ref.duals[:ls.rank]))


@pytest.mark.parametrize("group,N", [("sl", 3), ("so", 5), ("so", 6), ("sp", 4)])
def test_trace_pair_matches_the_dense_trace(group, N):
    data = build_classical_algebra(series_for_group(group, N))
    duals = algebra_duals(data)
    for x in data.basis:
        for y in duals:
            assert trace_pair(x, y) == dense_trace_pair(_dense(x, N), _dense(y, N))


# --- the bivector over the algebra basis, the formula the tensors replace -----

def coefficient_matrices(data):
    """omega and rho as coefficient matrices over the basis: the inverse
    Cartan Gram matrix, and +-1 at the (e_beta, f_beta) pairs."""
    n, npos, dim, N = data.ls.rank, len(data.positive), data.dim, data.ls.dim
    cartan = [_dense(h, N) for h in data.basis[:data.ls.rank]]
    gram_inv = linalg.invert([[dense_trace_pair(x, y) for y in cartan] for x in cartan])
    omega = [[ZERO] * dim for _ in range(dim)]
    rho = [[ZERO] * dim for _ in range(dim)]
    for k in range(n):
        omega[k][:n] = gram_inv[k]
    for idx in range(npos):
        e, f = n + idx, n + npos + idx
        omega[e][f] = omega[f][e] = rho[e][f] = GaussRational(1)
        rho[f][e] = GaussRational(-1)
    return omega, rho


def omega_part(data, ad):
    """(1 x Ad - Ad x 1) applied to omega, in basis coefficients."""
    omega, _ = coefficient_matrices(data)
    return g_sub(linalg.mat_mul(omega, g_transpose(ad)), linalg.mat_mul(ad, omega))


def basis_bivector(data, a):
    """The bivector's coefficient matrix over the algebra basis,
    (Ad - 1) rho (Ad - 1)^T + omega Ad^T - Ad omega."""
    ad = dense_adjoint(data, a)
    _, rho = coefficient_matrices(data)
    shifted = g_sub(ad, g_identity(data.dim))
    part_rho = linalg.mat_mul(linalg.mat_mul(shifted, rho), g_transpose(shifted))
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(part_rho, omega_part(data, ad))]


def _phi(data, a):
    return omega_part(data, dense_adjoint(data, a))


def equivariant(data, a, b):
    """The omega field is equivariant: its value at b a b^-1 is the Ad_b x Ad_b
    transform of its value at a."""
    conj = linalg.mat_mul(linalg.mat_mul(b, a), linalg.invert(b))
    ad_b = dense_adjoint(data, b)
    rhs = linalg.mat_mul(linalg.mat_mul(ad_b, _phi(data, a)), g_transpose(ad_b))
    return g_is_zero(g_sub(_phi(data, conj), rhs))


def test_sl2_algebra_shape():
    data = build_classical_algebra(LieSeries("A", 1))
    assert data.dim == 3
    h, e, f = data.basis
    assert h[(0, 0)] == GaussRational(1) and h[(1, 1)] == GaussRational(-1)
    # the dual of h is h over the Gram matrix tr(h^2) = 2; e and f swap
    half = GaussRational(Fraction(1, 2))
    assert algebra_duals(data) == [{key: x * half for key, x in h.items()}, f, e]
    assert e == {(0, 1): GaussRational(1)} and f == {(1, 0): GaussRational(1)}
    # omega = h (x) h/2 + e (x) f + f (x) e, rho = e (x) f - f (x) e
    omega = omega_tensor(data.ls)
    assert omega[(0, 0, 0, 0)] == GaussRational(Fraction(1, 2))
    assert omega[(0, 1, 1, 0)] == omega[(1, 0, 0, 1)] == GaussRational(1)
    assert rho_tensor(data.ls) == {(0, 1, 1, 0): GaussRational(1), (1, 0, 0, 1): GaussRational(-1)}


def _tensor_of(data, coeffs):
    """sum of coeffs[k][l] B_k (x) B_l over the algebra basis, as a dict."""
    out = {}
    for k, bk in enumerate(data.basis):
        for l, bl in enumerate(data.basis):
            if not coeffs[k][l]:
                continue
            for (i, j), u in bk.items():
                for (r, s), v in bl.items():
                    key = (i, j, r, s)
                    out[key] = out.get(key, ZERO) + coeffs[k][l] * u * v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("group,N", [("sl", 3), ("so", 5), ("so", 6), ("sp", 4)])
def test_tensors_are_the_basis_coefficient_matrices(group, N):
    data = build_classical_algebra(series_for_group(group, N))
    omega, rho = coefficient_matrices(data)
    assert omega_tensor(data.ls) == _tensor_of(data, omega)
    assert rho_tensor(data.ls) == _tensor_of(data, rho)


def test_so5_root_vectors():
    data = build_classical_algebra(LieSeries("B", 2))
    assert len(data.positive) == 4
    assert data.dim == 10
    e_vectors, f_vectors = root_vectors(data)
    for root in data.positive:
        assert trace_pair(e_vectors[root], f_vectors[root]) == GaussRational(1)


def test_omega_is_invariant_sp4():
    data = build_classical_algebra(LieSeries("C", 2))
    omega, _ = coefficient_matrices(data)
    for x in data.basis:
        ad = ad_matrix(data, x)
        moved = [[a + b for a, b in zip(ra, rb)]
                 for ra, rb in zip(linalg.mat_mul(ad, omega),
                                   linalg.mat_mul(omega, g_transpose(ad)))]
        assert g_is_zero(moved)


def test_adjoint_of_identity():
    data = build_classical_algebra(LieSeries("A", 2))
    assert adjoint_matrix(data, _sparse(g_identity(3))) == g_identity(data.dim)
    assert dense_adjoint(data, g_identity(3)) == g_identity(data.dim)


def test_bivector_vanishes_at_identity_and_points():
    data = build_classical_algebra(LieSeries("A", 2))
    assert bivector_at(data, _sparse(g_identity(3))).is_zero()
    for spec in (ClassSpec("sl", 3, "t2", 1, 1), ClassSpec("sl", 3, "t2", 1, -1)):
        assert bivector_at(data, classical_point_entries(spec)).is_zero()
    so6 = build_classical_algebra(series_for_group("so", 6))
    assert bivector_at(so6, classical_point_entries(ClassSpec("so", 6, "t4"))).is_zero()


def test_bivector_nonzero_negative_control():
    data = build_classical_algebra(LieSeries("A", 2))
    value = bivector_at(data, _sparse(_diag(4, 1, Fraction(1, 4))))
    assert not value.is_zero()
    i, j, v = value.largest_entry()
    assert v


def test_involutive_vanishing_checks():
    data = build_classical_algebra(LieSeries("B", 2))
    point = classical_point_entries(ClassSpec("so", 5, "t2", 1, 1))
    record = check_involutive_vanishing(data, point)
    assert record.passed
    sl3 = build_classical_algebra(LieSeries("A", 2))
    record = check_involutive_vanishing(sl3, _sparse(_diag(4, 1, Fraction(1, 4))))
    assert not record.passed  # Ad^2 != id there, reported as such
    assert "Ad^2" in record.detail


def test_equivariance_of_the_omega_field():
    data = build_classical_algebra(LieSeries("A", 2))
    a = _diag(4, 1, Fraction(1, 4))
    b = g_identity(3)
    b[0][1] = GaussRational(1)  # unipotent, det 1
    assert equivariant(data, a, b)


# --- the tensor verdicts against the basis-coefficient path -------------------

def _unipotent():
    u = g_identity(3)
    u[0][1] = GaussRational(1)
    return u


CONTROLS = {
    "sl3-diag": ("sl", lambda: _diag(4, 1, Fraction(1, 4))),
    "sl3-unipotent": ("sl", _unipotent),
    "so5-diag": ("so", lambda: _diag(2, 1, 1, 1, Fraction(1, 2))),
    "sp4-diag": ("sp", lambda: _diag(2, 1, 1, Fraction(1, 2))),
    "sl8-diag": ("sl", lambda: _diag(2, *[1] * 6, Fraction(1, 2))),
}


def _generic_classical_point(spec):
    """A0 at seeded Gaussian-rational parameters: every partner is set so that
    the pairing constraint holds at q = 1, a self-paired middle index keeps
    its root i."""
    rng = random.Random(spec.case_id)
    c = GaussRational(1 if spec.family == "t2" else -1)
    values = {}
    for i in _top_indices(spec):
        j = paired_index(spec, i)
        if j == i:
            values[i] = GaussRational(0, 1)
            continue
        v = GaussRational(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        values[i], values[j] = v, c / v
    params = PointParams(spec.param_kind,
                         {i: QScalar.from_gauss(v) for i, v in values.items()})
    return gauss_grid(classical_point(spec, params))


def _basis_involutive(data, a):
    ad = dense_adjoint(data, a)
    return (g_is_zero(g_sub(linalg.mat_mul(ad, ad), g_identity(data.dim)))
            and g_is_zero(omega_part(data, ad)))


def _assert_paths_agree(data, a, involutive=True):
    """a is a dense grid; the program sees its nonzero entries."""
    value = bivector_at(data, _sparse(a))
    assert value.tensor == formula_bivector(data.ls, a)
    want = basis_bivector(data, a)
    assert value.coeffs == want
    assert value.is_zero() == g_is_zero(want)
    assert adjoint_matrix(data, _sparse(a)) == dense_adjoint(data, a)
    if involutive:
        assert check_involutive_vanishing(data, _sparse(a)).passed == _basis_involutive(data, a)
    return value.is_zero()


@pytest.mark.parametrize("spec", standard_cases(), ids=lambda s: s.case_id)
def test_tensor_verdicts_match_basis_path_at_reference_points(spec):
    data = build_classical_algebra(spec.series)
    grid = _point_grid(spec)
    assert classical_point_entries(spec) == _sparse(grid)
    assert _assert_paths_agree(data, grid)


GENERIC = [s for s in standard_cases(n_max=6) if param_indices(s)]


@pytest.mark.parametrize("spec", GENERIC, ids=lambda s: s.case_id)
def test_tensor_verdicts_match_basis_path_at_generic_points(spec):
    data = build_classical_algebra(spec.series)
    assert _assert_paths_agree(data, _generic_classical_point(spec))


@pytest.mark.parametrize("spec", [ClassSpec("sl", 16, "t2", 0, 1), ClassSpec("sl", 16, "t2", 8, 1),
                                  ClassSpec("so", 16, "t2", 7, -1), ClassSpec("sp", 16, "t4")],
                         ids=lambda s: s.case_id)
def test_tensor_verdict_matches_basis_path_at_n16(spec):
    data = build_classical_algebra(spec.series)
    assert _assert_paths_agree(data, _point_grid(spec), involutive=False)


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_tensor_verdicts_match_basis_path_at_controls(name):
    group, grid = CONTROLS[name]
    a = grid()
    data = build_classical_algebra(series_for_group(group, len(a)))
    assert not _assert_paths_agree(data, a)


# involutions a, with a^2 = I, at which the bivector is nonzero: every entry
# of CONTROLS has a^2 not scalar, so these are the controls of the a^2 = c I
# path, where the bivector is decided as U = flip(U)
INVOLUTIVE_CONTROLS = {
    "sl3-signs": ("sl", (1, -1, 1)),
    "so5-signs": ("so", (-1, 1, 1, 1, -1)),
    "sp4-signs": ("sp", (-1, 1, 1, -1)),
    "sl8-signs": ("sl", (1, -1, 1, -1, 1, -1, 1, -1)),
    "so8-signs": ("so", (-1, -1, 1, 1, 1, 1, -1, -1)),
    "sp8-signs": ("sp", (-1, -1, 1, 1, 1, 1, -1, -1)),
}


@pytest.mark.parametrize("name", sorted(INVOLUTIVE_CONTROLS))
def test_tensor_verdicts_match_basis_path_at_involutive_controls(name):
    group, signs = INVOLUTIVE_CONTROLS[name]
    a = _diag(*signs)
    N = len(a)
    data = build_classical_algebra(series_for_group(group, N))
    assert not _assert_paths_agree(data, a)
    # the same matrix as the classical point of a class fails the record
    spec = next(s for s in admissible_cases(N) if s.group == group and s.N == N)
    a0 = QMatrix.from_entries(N, [(i, i, QScalar(x)) for i, x in enumerate(signs)])
    record = check_bivector(replace(quantum_point(spec), A0=a0))
    assert not record.passed
    assert record.detail.startswith("largest coefficient")


SERIES_TO_16 = ([("sl", N) for N in range(2, 17)] + [("so", N) for N in range(3, 17)]
                + [("sp", N) for N in range(2, 17, 2)])


@pytest.mark.parametrize("group,N", SERIES_TO_16)
def test_sorted_positive_matches_a_solve_per_root(group, N, gram_coordinates):
    # each root's height read from its coordinates by the Gram-inverse
    # formula, independent of the prefix sums the program reads
    ls = series_for_group(group, N)
    rs = build_root_system(ls)
    keyed = sorted((sum(gram_coordinates(ls, root)), root) for root in rs.positive)
    assert _sorted_positive(rs) == [root for _, root in keyed]


SERIES_TO_32 = [LieSeries(s, n) for s, ranks in
                (("A", range(1, 32)), ("B", range(1, 16)), ("C", range(1, 17)), ("D", range(2, 17)))
                for n in ranks]


@pytest.mark.parametrize("ls", SERIES_TO_32, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_cartan_duals_are_the_inverse_gram_combinations(ls):
    # h_k^v = sum_l (Gram^-1)_kl h_l with Gram_lm = tr(h_l h_m), the formula
    # the program's coweight diagonals replace; LieSeries directly, as N > MAX_N
    data = build_classical_algebra(ls)
    cartan = data.basis[:data.ls.rank]
    gram_inv = linalg.invert([[trace_pair(x, y) for y in cartan] for x in cartan])
    duals = algebra_duals(data)
    for k, row in enumerate(gram_inv):
        want = {}
        for c, h in zip(row, cartan):
            for key, x in h.items():
                want[key] = want.get(key, ZERO) + c * x
        assert duals[k] == {key: x for key, x in want.items() if x}


# --- the Gaussian-integer bivector against the dense reference ---------------

def _signed_involutions(n):
    """Every signed permutation a with a^2 = I: pi an involution, and equal
    signs on each of its 2-cycles."""
    for pi in itertools.permutations(range(n)):
        if any(pi[pi[j]] != j for j in range(n)):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if all(signs[j] == signs[pi[j]] for j in range(n)):
                yield {(pi[j], j): GaussRational(signs[j]) for j in range(n)}


def _assert_integer_tensor_is_the_formula(data, a):
    """The bivector of the scaled Gaussian-integer path, divided once, is the
    tensor of the dense formula; returns whether it is nonzero."""
    want = formula_bivector(data.ls, _dense(a, data.ls.dim))
    value = bivector_at(data, a)
    assert value.tensor == want
    assert value.is_zero() == (not want)
    return bool(want)


def test_integer_verdicts_are_the_dense_formula_at_signed_involutions():
    # every signed-permutation involution of sl3, sl4 and sl5; 378 of the 408
    # have a nonzero bivector, and the count pins that they stay nonzero
    nonzero = total = 0
    for N in (3, 4, 5):
        data = build_classical_algebra(series_for_group("sl", N))
        for a in _signed_involutions(N):
            nonzero += _assert_integer_tensor_is_the_formula(data, a)
            total += 1
    assert (total, nonzero) == (408, 378)


def test_integer_verdicts_are_the_dense_formula_at_every_class_to_n12():
    # default parameters and the seed-7 draw of `scripts/dump_records.py`,
    # whose Gaussian-rational entries need the scaling d > 1
    rng = random.Random(7)
    seen = scaled = 0
    for spec in admissible_cases(12):
        data = build_classical_algebra(spec.series)
        points = [quantum_point(spec).A0]
        if default_params(spec).values:
            points.append(quantum_point(spec, draw_params(spec, rng)).A0)
        for A0 in points:
            a = gauss_entries(A0)
            assert not _assert_integer_tensor_is_the_formula(data, a)
            seen += 1
            scaled += any(x.d != 1 for x in a.values())
    assert seen > 300 and scaled > 100


# nonzero controls, each with the failing detail and `poisson --matrix` text
# that the Gaussian-rational path gave: (group, matrix, largest coefficient)
PINNED_DETAILS = [
    # the sl3 control of criterion 6, a^2 not scalar
    ("sl", [["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1/4"]], "-30 at (4, 7)"),
    # involutions with fractional entries, scaled by d = 2 and d = 6
    ("sl", [["0", "2", "0"], ["1/2", "0", "0"], ["0", "0", "1"]], "-4 at (4, 5)"),
    ("sl", [["0", "2/3", "0"], ["3/2", "0", "0"], ["0", "0", "-1"]], "3 at (2, 7)"),
    # a signed permutation of order 4 that normalizes so5
    ("so", [["0", "1", "0", "0", "0"], ["0", "0", "0", "0", "1"], ["0", "0", "1", "0", "0"],
            ["1", "0", "0", "0", "0"], ["0", "0", "0", "1", "0"]], "-4 at (0, 1)"),
    ("so", [["i", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"],
            ["0", "0", "0", "1", "0"], ["0", "0", "0", "0", "-i"]], "(2-2*i) at (3, 7)"),
    # a signed-permutation involution of sp4, and one of order 4
    ("sp", [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]],
     "-4 at (2, 9)"),
    ("sp", [["0", "0", "1", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-1"],
            ["0", "1", "0", "0"]], "4 at (2, 9)"),
    ("sp", [["2+i", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
            ["0", "0", "0", "2/5-i/5"]], "(-4-8*i) at (5, 9)"),
]


@pytest.mark.parametrize("group,rows,largest", PINNED_DETAILS,
                         ids=[f"{g}{len(r)}-{k}" for k, (g, r, _) in enumerate(PINNED_DETAILS)])
def test_pinned_bivector_details(group, rows, largest, capsys):
    N = len(rows)
    spec = next(s for s in admissible_cases(N) if s.group == group and s.N == N)
    a0 = QMatrix.from_entries(N, [(i, j, parse_scalar(x)) for i, row in enumerate(rows)
                                  for j, x in enumerate(row) if x != "0"])
    record = check_bivector(replace(quantum_point(spec), A0=a0))
    assert (record.passed, record.detail) == (False, f"largest coefficient {largest}")
    argv = ["poisson", "--series", group, "--N", str(N), "--matrix", json.dumps(rows)]
    capsys.readouterr()
    assert main(argv + ["--format", "text"]) == 1
    assert capsys.readouterr().out == (f"explicit-matrix: bivector NONZERO, "
                                       f"largest coefficient {largest}\n")
