"""Classical (q = 1) structure: invariant tensors and the Poisson bivector."""
import random
from fractions import Fraction

import pytest

from repoints import linalg
from repoints.classical import (
    adjoint_matrix,
    bivector_at,
    build_classical_algebra,
    check_involutive_vanishing,
    classical_point_grid,
    g_bracket,
    g_is_zero,
    g_sub,
    g_transpose,
    trace_pair,
)
from repoints.points import (
    PointParams,
    _top_indices,
    classical_point,
    gauss_grid,
    paired_index,
    param_indices,
)
from repoints.rootdata import ClassSpec, LieSeries, series_for_group, standard_cases
from repoints.scalar import GaussRational, QScalar


def g_identity(n):
    return [[GaussRational(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _diag(*values):
    n = len(values)
    return [[GaussRational(values[i]) if i == j else GaussRational(0)
             for j in range(n)] for i in range(n)]


def _flatten(a):
    return [x for row in a for x in row]


def ad_matrix(data, x):
    """ad_x on the chosen basis, as a coefficient matrix (columns = images)."""
    cols = [data.expander.expand(_flatten(g_bracket(x, b))) for b in data.basis]
    return g_transpose(cols)


# --- the bivector over the algebra basis, the formula the tensors replace -----

def coefficient_matrices(data):
    """omega and rho as coefficient matrices over the basis: the inverse
    Cartan Gram matrix, and +-1 at the (e_beta, f_beta) pairs."""
    n, npos, dim = len(data.cartan), len(data.positive), data.dim
    gram_inv = linalg.invert([[trace_pair(x, y) for y in data.cartan] for x in data.cartan])
    omega = [[GaussRational(0)] * dim for _ in range(dim)]
    rho = [[GaussRational(0)] * dim for _ in range(dim)]
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
    ad = adjoint_matrix(data, a)
    _, rho = coefficient_matrices(data)
    shifted = g_sub(ad, g_identity(data.dim))
    part_rho = linalg.mat_mul(linalg.mat_mul(shifted, rho), g_transpose(shifted))
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(part_rho, omega_part(data, ad))]


def _phi(data, a):
    return omega_part(data, adjoint_matrix(data, a))


def equivariant(data, a, b):
    """The omega field is equivariant: its value at b a b^-1 is the Ad_b x Ad_b
    transform of its value at a."""
    conj = linalg.mat_mul(linalg.mat_mul(b, a), linalg.invert(b))
    ad_b = adjoint_matrix(data, b)
    rhs = linalg.mat_mul(linalg.mat_mul(ad_b, _phi(data, a)), g_transpose(ad_b))
    return g_is_zero(g_sub(_phi(data, conj), rhs))


def test_sl2_algebra_shape():
    data = build_classical_algebra(LieSeries("A", 1))
    assert data.dim == 3
    h, e, f = data.basis
    assert h[0][0] == GaussRational(1) and h[1][1] == GaussRational(-1)
    # the dual of h is h over the Gram matrix tr(h^2) = 2; e and f swap
    assert data.duals == [[[x * GaussRational(Fraction(1, 2)) for x in row] for row in h], f, e]
    assert e[0][1] == f[1][0] == GaussRational(1)
    # omega = h (x) h/2 + e (x) f + f (x) e, rho = e (x) f - f (x) e
    assert data.omega_tensor[(0, 0, 0, 0)] == GaussRational(Fraction(1, 2))
    assert data.omega_tensor[(0, 1, 1, 0)] == data.omega_tensor[(1, 0, 0, 1)] == GaussRational(1)
    assert data.rho_tensor == {(0, 1, 1, 0): GaussRational(1), (1, 0, 0, 1): GaussRational(-1)}


def _entries(a):
    return [(i, j, x) for i, row in enumerate(a) for j, x in enumerate(row) if x]


def _tensor_of(data, coeffs):
    """sum of coeffs[k][l] B_k (x) B_l over the algebra basis, as a dict."""
    out = {}
    for k, bk in enumerate(data.basis):
        for l, bl in enumerate(data.basis):
            if not coeffs[k][l]:
                continue
            for i, j, u in _entries(bk):
                for r, s, v in _entries(bl):
                    key = (i, j, r, s)
                    out[key] = out.get(key, GaussRational(0)) + coeffs[k][l] * u * v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("group,N", [("sl", 3), ("so", 5), ("so", 6), ("sp", 4)])
def test_tensors_are_the_basis_coefficient_matrices(group, N):
    data = build_classical_algebra(series_for_group(group, N))
    omega, rho = coefficient_matrices(data)
    assert data.omega_tensor == _tensor_of(data, omega)
    assert data.rho_tensor == _tensor_of(data, rho)


def test_so5_root_vectors():
    data = build_classical_algebra(LieSeries("B", 2))
    assert len(data.positive) == 4
    assert data.dim == 10
    for root in data.positive:
        assert trace_pair(data.e_vectors[root], data.f_vectors[root]) == GaussRational(1)


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
    assert adjoint_matrix(data, g_identity(3)) == g_identity(data.dim)


def test_bivector_vanishes_at_identity_and_points():
    data = build_classical_algebra(LieSeries("A", 2))
    assert bivector_at(data, g_identity(3)).is_zero()
    for spec in (ClassSpec("sl", 3, "t2", 1, 1), ClassSpec("sl", 3, "t2", 1, -1)):
        assert bivector_at(data, classical_point_grid(spec)).is_zero()
    so6 = build_classical_algebra(series_for_group("so", 6))
    assert bivector_at(so6, classical_point_grid(ClassSpec("so", 6, "t4"))).is_zero()


def test_bivector_nonzero_negative_control():
    data = build_classical_algebra(LieSeries("A", 2))
    value = bivector_at(data, _diag(4, 1, Fraction(1, 4)))
    assert not value.is_zero()
    i, j, v = value.largest_entry()
    assert v


def test_involutive_vanishing_checks():
    data = build_classical_algebra(LieSeries("B", 2))
    point = classical_point_grid(ClassSpec("so", 5, "t2", 1, 1))
    record = check_involutive_vanishing(data, point)
    assert record.passed
    sl3 = build_classical_algebra(LieSeries("A", 2))
    record = check_involutive_vanishing(sl3, _diag(4, 1, Fraction(1, 4)))
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
    ad = adjoint_matrix(data, a)
    return (g_is_zero(g_sub(linalg.mat_mul(ad, ad), g_identity(data.dim)))
            and g_is_zero(omega_part(data, ad)))


def _assert_paths_agree(data, a, involutive=True):
    value = bivector_at(data, a)
    want = basis_bivector(data, a)
    assert value.coeffs == want
    assert value.is_zero() == g_is_zero(want)
    if involutive:
        assert check_involutive_vanishing(data, a).passed == _basis_involutive(data, a)
    return value.is_zero()


@pytest.mark.parametrize("spec", standard_cases(), ids=lambda s: s.case_id)
def test_tensor_verdicts_match_basis_path_at_reference_points(spec):
    data = build_classical_algebra(spec.series)
    assert _assert_paths_agree(data, classical_point_grid(spec))


GENERIC = [s for s in standard_cases(n_max=6) if param_indices(s)]


@pytest.mark.parametrize("spec", GENERIC, ids=lambda s: s.case_id)
def test_tensor_verdicts_match_basis_path_at_generic_points(spec):
    data = build_classical_algebra(spec.series)
    assert _assert_paths_agree(data, _generic_classical_point(spec))


@pytest.mark.parametrize("spec", [ClassSpec("sl", 16, "t2", 0, 1), ClassSpec("so", 16, "t2", 7, -1),
                                  ClassSpec("sp", 16, "t4")], ids=lambda s: s.case_id)
def test_tensor_verdict_matches_basis_path_at_n16(spec):
    data = build_classical_algebra(spec.series)
    assert _assert_paths_agree(data, classical_point_grid(spec), involutive=False)


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_tensor_verdicts_match_basis_path_at_controls(name):
    group, grid = CONTROLS[name]
    a = grid()
    data = build_classical_algebra(series_for_group(group, len(a)))
    assert not _assert_paths_agree(data, a)
