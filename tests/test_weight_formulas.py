"""The R-matrix and the natural generators read the natural basis's weights
from rootdata.  As a reference, this file writes them out per series with
hand-written exponents and matrix units, and compares the two constructions
entry by entry on every series with N <= MAX_N (37 series at MAX_N = 16), and
the generators also on every series with N <= 32 (77 series)."""
import pytest

from repoints.natrep import build_natural_rep
from repoints.qmatrix import QMatrix
from repoints.rmatrix import build_rmatrix_data, flip_rows
from repoints.rootdata import MAX_N, LieSeries, series_for_group
from repoints.scalar import ONE, Q, QINV, QScalar


def _all_series():
    out = []
    for group in ("sl", "so", "sp"):
        for N in range(2, MAX_N + 1):
            try:
                out.append(series_for_group(group, N))
            except ValueError:
                pass
    return out


ALL_SERIES = _all_series()
SERIES_TO_32 = [LieSeries(s, n) for s, ranks in
                (("A", range(1, 32)), ("B", range(1, 16)), ("C", range(1, 17)), ("D", range(2, 17)))
                for n in ranks]


def _exponent_weights(ls: LieSeries) -> list:
    """Doubled exponents r_j of the kappa term, written out per series."""
    n = ls.rank
    if ls.series == "B":
        top = [2 * (n - j) - 1 for j in range(n)]
        return top + [1] + [-t for t in reversed(top)]
    if ls.series == "C":
        top = [2 * (n - j) for j in range(n)]
        return top + [-t for t in reversed(top)]
    top = [2 * (n - j) - 2 for j in range(n)]
    return top + [-t for t in reversed(top)]


def _reference_R(ls: LieSeries) -> QMatrix:
    """The R-matrix with a separate path for series A, on 1-based indices."""
    N = ls.dim
    R = QMatrix(N * N)
    lam = Q - QINV

    def idx(i, j):
        return (i - 1) * N + (j - 1)

    def prime(i):
        return N - i + 1

    if ls.series == "A":
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                R.put(idx(i, j), idx(i, j), Q if i == j else ONE)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                R.put(idx(j, i), idx(i, j), R.get(idx(j, i), idx(i, j)) + lam)
        return R
    r = _exponent_weights(ls)
    kappa = [-1 if ls.series == "C" and j > N // 2 else 1 for j in range(1, N + 1)]
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            e = (1 if i == j else 0) - (1 if j == prime(i) else 0)
            R.put(idx(i, j), idx(i, j), QScalar.q_power(e))
    for i in range(1, N + 1):
        for j in range(1, i):
            R.put(idx(i, j), idx(j, i), R.get(idx(i, j), idx(j, i)) + lam)
            c = QScalar.q_power((r[i - 1] - r[j - 1]) // 2)
            if kappa[i - 1] * kappa[j - 1] < 0:
                c = -c
            pos = (idx(i, prime(i)), idx(j, prime(j)))
            R.put(pos[0], pos[1], R.get(pos[0], pos[1]) - lam * c)
    return R


def _reference_k_exponents(ls: LieSeries) -> list:
    """Per simple root, the exponents of k_i on the natural basis (1-based)."""
    n, N = ls.rank, ls.dim
    js = range(1, N + 1)

    def prime(i):
        return N - i + 1

    if ls.series == "A":
        return [[(j == i) - (j == i + 1) for j in js] for i in range(1, n + 1)]
    out = [[(j == i) - (j == prime(i)) - (j == i + 1) + (j == prime(i + 1)) for j in js]
           for i in range(1, n)]
    if ls.series == "B":
        out.append([(j == n) - (j == prime(n)) for j in js])
    elif ls.series == "C":
        out.append([2 * (j == n) - 2 * (j == prime(n)) for j in js])
    else:
        out.append([(j == n - 1) - (j == prime(n - 1)) + (j == n) - (j == prime(n))
                    for j in js])
    return out


def _reference_e(ls: LieSeries) -> list:
    """pi(e_i) per series, from 1-based matrix units and the mirror i' = N + 1 - i."""
    n, N = ls.rank, ls.dim

    def unit(i, j, sign=1):
        m = QMatrix(N)
        m.put(i - 1, j - 1, ONE if sign > 0 else -ONE)
        return m

    def prime(i):
        return N - i + 1

    if ls.series == "A":
        return [unit(i, i + 1) for i in range(1, n + 1)]
    e = [unit(i, i + 1) + unit(prime(i + 1), prime(i), -1) for i in range(1, n)]
    if ls.series == "B":
        e.append(unit(n, n + 1) + unit(prime(n + 1), prime(n), -1))
    elif ls.series == "C":
        e.append(unit(n, prime(n)))
    else:
        e.append(unit(n - 1, n + 1) + unit(prime(n + 1), prime(n - 1), -1))
    return e


def _diag(exps) -> QMatrix:
    m = QMatrix(len(exps))
    for j, e in enumerate(exps):
        m.put(j, j, QScalar.q_power(e))
    return m


@pytest.mark.parametrize("ls", ALL_SERIES, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_R_and_S_match_the_per_series_formulas(ls):
    data = build_rmatrix_data(ls)
    R = _reference_R(ls)
    assert data.R.first_difference(R) is None
    assert data.S.first_difference(flip_rows(R)) is None


@pytest.mark.parametrize("ls", SERIES_TO_32, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_natural_generators_match_the_per_series_tables(ls):
    rep = build_natural_rep(ls)
    exps = _reference_k_exponents(ls)
    e = _reference_e(ls)
    assert (len(rep.e) == len(rep.f) == len(rep.k) == len(rep.k_inv) == len(rep.F)
            == len(e) == len(exps) == ls.rank)
    for i, row in enumerate(exps):
        k, f = _diag(row), e[i].transpose()
        assert rep.e[i].first_difference(e[i]) is None
        assert rep.f[i].first_difference(f) is None
        assert rep.k[i].first_difference(k) is None
        assert rep.k_inv[i].first_difference(_diag([-x for x in row])) is None
        assert rep.F[i].first_difference(k * f) is None
