"""Natural representation: relations, coproduct compatibility, q-trace."""
import pytest

from repoints.natrep import (
    build_natural_rep,
    cartan_power,
    check_defining_relations,
    check_rtt_compat,
    q_trace,
)
from repoints.qmatrix import QMatrix
from repoints.rmatrix import build_rmatrix_data
from repoints.rootdata import LieSeries, build_root_system, series_for_group
from repoints.scalar import ONE, Q, QINV, QScalar


def test_sl2_generators():
    rep = build_natural_rep(LieSeries("A", 1))
    assert rep.e[0] == QMatrix.from_entries(2, [(0, 1, ONE)])
    assert rep.f[0] == QMatrix.from_entries(2, [(1, 0, ONE)])
    assert rep.k[0] == QMatrix.from_entries(2, [(0, 0, Q), (1, 1, QINV)])


def test_sp4_long_root_generator():
    rep = build_natural_rep(LieSeries("C", 2))
    assert rep.e[1] == QMatrix.from_entries(4, [(1, 2, ONE)])
    assert rep.k[1].get(1, 1) == QScalar.q_power(2)
    assert rep.k[1].get(2, 2) == QScalar.q_power(-2)


def test_so8_fork_generator():
    rep = build_natural_rep(LieSeries("D", 4))
    assert rep.e[3].get(2, 4) == ONE
    assert rep.e[3].get(3, 5) == -ONE


@pytest.mark.parametrize("series", [
    LieSeries("A", 2), LieSeries("B", 2), LieSeries("B", 3),
    LieSeries("C", 2), LieSeries("C", 3), LieSeries("D", 3), LieSeries("D", 4),
], ids=str)
def test_defining_relations(series):
    failures = [r.name for r in check_defining_relations(build_natural_rep(series))
                if not r.passed]
    assert failures == []


@pytest.mark.parametrize("group,N", [("sl", 2), ("so", 5), ("sp", 4), ("so", 6)])
def test_rtt_compatibility(group, N):
    series = series_for_group(group, N)
    rep = build_natural_rep(series)
    data = build_rmatrix_data(series)
    failures = [r.name for r in check_rtt_compat(rep, data.R) if not r.passed]
    assert failures == []


def test_q_trace_weighting():
    rs = build_root_system(LieSeries("A", 1))
    A = QMatrix.from_entries(2, [(0, 0, ONE), (1, 1, ONE)])
    assert q_trace(A, rs) == Q + QINV
    B = QMatrix.from_entries(2, [(0, 1, ONE)])
    assert not q_trace(B, rs)


def test_cartan_power_diagonal():
    # q^{h_beta} with beta = eps_1 acts by q^(beta, weight) on each basis vector
    m = cartan_power(LieSeries("B", 2), (1, 0))
    assert [m.get(j, j) for j in range(5)] == [Q, ONE, ONE, ONE, QINV]
