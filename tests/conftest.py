"""Shared fixtures."""
import pytest

from repoints.qmatrix import QMatrix


def _dense_varpi(proj):
    """varpi = u w^T / (p den) as a dense matrix, rebuilt from its factors."""
    c = (proj.pivot * proj.den).inv()
    varpi = QMatrix(proj.raw.dim)
    for i, a in proj.u.items():
        for j, b in proj.w.items():
            varpi.put(i, j, c * a * b)
    return varpi


@pytest.fixture
def dense_varpi():
    return _dense_varpi
