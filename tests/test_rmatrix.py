"""R-matrices, the braided matrix S, and the invariant projector varpi."""
import pytest

from repoints.natrep import build_natural_rep, coproduct_pairs
from repoints.qmatrix import QMatrix, commutator
from repoints.rmatrix import (
    annihilating_polynomial_holds,
    braid_identity_holds,
    build_R,
    build_projector,
    build_rmatrix_data,
    flip_rows,
    RMatrixData,
)
from repoints.rootdata import LieSeries, build_root_system, series_for_group
from repoints.scalar import ONE, Q, QINV, QScalar


def test_sl2_R_entries():
    R = build_R(LieSeries("A", 1))
    expected = QMatrix.from_entries(4, [
        (0, 0, Q), (1, 1, ONE), (2, 2, ONE), (3, 3, Q),
        (2, 1, Q - QINV),
    ])
    assert R == expected


def test_so5_R_diagonal_middle():
    # component (i, i') carries exponent delta_ii - 1; at the self-mirrored
    # middle index of an odd orthogonal series that is q^0
    R = build_R(LieSeries("B", 2))
    assert R.get(2 * 5 + 2, 2 * 5 + 2) == ONE
    assert R.get(0, 0) == Q
    assert R.get(4, 4) == QINV  # component (1, 1') with 1' = 5


def test_flip_is_an_involution():
    R = build_R(LieSeries("C", 2))
    assert flip_rows(flip_rows(R)) == R


@pytest.mark.parametrize("series", [
    LieSeries("A", 1), LieSeries("A", 2),
    LieSeries("B", 2), LieSeries("C", 2), LieSeries("D", 3),
])
def test_braid_identity(series):
    data = build_rmatrix_data(series)
    assert braid_identity_holds(data.S, series.dim)


@pytest.mark.parametrize("series", [
    LieSeries("A", 1), LieSeries("A", 3),
    LieSeries("B", 2), LieSeries("C", 3), LieSeries("D", 3),
])
def test_annihilating_polynomial(series):
    data = build_rmatrix_data(series)
    assert annihilating_polynomial_holds(data)


def _kappa_flipped(series):
    """S with the kappa-term of the pair (i, j) = (1, 0) negated, and its own
    projector: R's entry at (N + 1', 0') holds that term alone."""
    N = series.dim
    rs = build_root_system(series)
    R = build_R(series)
    pos = (N + rs.prime(1), rs.prime(0))
    assert R.get(*pos)
    R.put(*pos, -R.get(*pos))
    S = flip_rows(R)
    return RMatrixData(R, S, build_projector(S, series))


@pytest.mark.parametrize("series", [LieSeries("B", 2), LieSeries("C", 2), LieSeries("D", 3)])
def test_a_flipped_kappa_sign_fails_braid_and_annihilating_polynomial(series):
    data = _kappa_flipped(series)
    assert not braid_identity_holds(data.S, series.dim)
    assert not annihilating_polynomial_holds(data)


def test_varpi_projector_sp4(dense_varpi):
    data = build_rmatrix_data(series_for_group("sp", 4))
    proj = data.projector
    varpi = dense_varpi(proj)
    # the factors rebuild the spectral form raw / den exactly
    (_, L, R), = proj.raw.terms
    assert varpi == (L * R).scale(proj.den.inv())
    assert varpi * varpi == varpi
    assert varpi.rank() == 1
    mu = -QScalar.q_power(-5)
    assert proj.mu == mu
    assert data.S * varpi == varpi.scale(mu)
    assert varpi * data.S == varpi.scale(mu)


def test_varpi_trace_one_so6(dense_varpi):
    data = build_rmatrix_data(series_for_group("so", 6))
    varpi = dense_varpi(data.projector)
    assert sum((varpi.get(i, i) for i in range(varpi.dim)), QScalar(0)) == ONE


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 4)])
def test_varpi_commutes_with_coproduct_action(group, N, dense_varpi):
    # varpi projects onto a submodule along a complementary submodule, so it
    # commutes with the whole diagonal action
    series = series_for_group(group, N)
    data = build_rmatrix_data(series)
    varpi = dense_varpi(data.projector)
    rep = build_natural_rep(series)
    for name, dx, _ in coproduct_pairs(rep):
        assert commutator(dx, varpi).is_zero(), name


def test_varpi_requires_bcd():
    with pytest.raises(ValueError):
        build_projector(build_rmatrix_data(LieSeries("A", 2)).S, LieSeries("A", 2))


def test_A_series_has_no_projector():
    data = build_rmatrix_data(LieSeries("A", 2))
    assert data.projector is None
