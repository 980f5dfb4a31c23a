"""Classical (q = 1) structure: invariant tensors and the Poisson bivector."""
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
    g_eq,
    g_identity,
    g_is_zero,
    g_sub,
    g_transpose,
    trace_pair,
)
from repoints.rootdata import ClassSpec, LieSeries, series_for_group
from repoints.scalar import GaussRational


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


def _phi(data, a):
    ad = adjoint_matrix(data, a)
    return g_sub(linalg.mat_mul(ad, data.omega),
                 linalg.mat_mul(data.omega, g_transpose(ad)))


def equivariant(data, a, b):
    """The omega field is equivariant: its value at b a b^-1 is the Ad_b x Ad_b
    transform of its value at a."""
    conj = linalg.mat_mul(linalg.mat_mul(b, a), linalg.invert(b))
    ad_b = adjoint_matrix(data, b)
    rhs = linalg.mat_mul(linalg.mat_mul(ad_b, _phi(data, a)), g_transpose(ad_b))
    return g_eq(_phi(data, conj), rhs)


def test_sl2_algebra_shape():
    data = build_classical_algebra(LieSeries("A", 1))
    assert data.dim == 3
    h = data.cartan[0]
    assert h[0][0] == GaussRational(1) and h[1][1] == GaussRational(-1)
    # omega's Cartan block is the inverse Gram matrix: tr(h^2) = 2
    assert data.omega[0][0] == GaussRational(Fraction(1, 2))
    assert data.omega[1][2] == GaussRational(1)
    assert data.rho[1][2] == GaussRational(1)
    assert data.rho[2][1] == GaussRational(-1)


def test_so5_root_vectors():
    data = build_classical_algebra(LieSeries("B", 2))
    assert len(data.positive) == 4
    assert data.dim == 10
    for root in data.positive:
        assert trace_pair(data.e_vectors[root], data.f_vectors[root]) == GaussRational(1)


def test_omega_is_invariant_sp4():
    data = build_classical_algebra(LieSeries("C", 2))
    for x in data.basis:
        ad = ad_matrix(data, x)
        moved = [[a + b for a, b in zip(ra, rb)]
                 for ra, rb in zip(linalg.mat_mul(ad, data.omega),
                                   linalg.mat_mul(data.omega, g_transpose(ad)))]
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
