"""The zero-skipping kernels of linalg against textbook dense oracles.

Every kernel must return exactly what the dense computation returns, entry by
entry and type by type (a zero entry is a zero of the entry type), on random
matrices of every density, on matrices with zero rows and columns, and on
products that cancel to zero.  The classical bivector is checked the same way
against a dense oracle of its formula: the program keeps elements of End(V)
as sparse dicts {(i, j): x}, and the oracles convert them to dense grids at
their boundary.
"""
import random
from fractions import Fraction
from itertools import permutations

import pytest
from conftest import algebra_duals

from repoints import linalg
from repoints.classical import bivector_at, build_classical_algebra
from repoints.points import default_params, quantum_point
from repoints.rootdata import LieSeries, series_for_group, standard_cases
from repoints.scalar import GaussRational, eval_at_one

DENSITIES = (0.0, 0.1, 1.0)
SHAPES = ((1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 6), (6, 6, 3), (7, 7, 7))


def _frac(rng):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))


def _make(kind, rng):
    if kind is Fraction:
        return _frac(rng)
    return GaussRational(_frac(rng), rng.choice((0, _frac(rng))))


def _zero(kind):
    return Fraction(0) if kind is Fraction else GaussRational(0)


def _random(kind, rng, nrows, ncols, density):
    return [[_make(kind, rng) if rng.random() < density else _zero(kind)
             for _ in range(ncols)] for _ in range(nrows)]


def _same(got, want):
    """Equal entry by entry, with the same entry types."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, list):
            _same(g, w)
        else:
            assert g == w and type(g) is type(w), (g, w)


# --- the textbook oracles -----------------------------------------------------

def oracle_mul(a, b):
    out = []
    for ai in a:
        row = []
        for j in range(len(b[0])):
            s = ai[0] * b[0][j]
            for t in range(1, len(b)):
                s = s + ai[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def oracle_det(a):
    """Leibniz: the signed sum over all permutations."""
    n = len(a)
    total = a[0][0] - a[0][0]
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        p = a[0][perm[0]]
        for i in range(1, n):
            p = p * a[i][perm[i]]
        total = total + p if sign > 0 else total - p
    return total


def _gauss_jordan(aug, ncols):
    """Reduced row echelon form on the first ncols columns; returns the pivot
    columns.  Every entry of every row is updated."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][c]
        aug[r] = [x / p for x in aug[r]]
        for i in range(len(aug)):
            if i != r:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    return pivots


def oracle_invert(a):
    n = len(a)
    one = next(x for row in a for x in row if x)
    one = one / one
    zero = one - one
    aug = [list(a[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    assert len(_gauss_jordan(aug, n)) == n
    return [row[n:] for row in aug]


def oracle_solve(a, b):
    ncols = len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(len(a))]
    pivots = _gauss_jordan(aug, ncols)
    assert pivots == list(range(ncols))
    assert not any(row[ncols] for row in aug[ncols:])
    return [aug[i][ncols] for i in range(ncols)]


# --- the kernels --------------------------------------------------------------

@pytest.mark.parametrize("kind", (Fraction, GaussRational))
@pytest.mark.parametrize("density", DENSITIES)
def test_mat_mul_and_mat_vec(kind, density):
    rng = random.Random(f"{kind.__name__}-{density}")
    for n, k, m in SHAPES:
        for _ in range(3):
            a = _random(kind, rng, n, k, density)
            b = _random(kind, rng, k, m, density)
            _same(linalg.mat_mul(a, b), oracle_mul(a, b))


@pytest.mark.parametrize("kind", (Fraction, GaussRational))
def test_zero_rows_columns_and_cancelling_products(kind):
    rng = random.Random(kind.__name__)
    n, k, m = 5, 6, 4
    a = _random(kind, rng, n, k, 1.0)
    b = _random(kind, rng, k, m, 1.0)
    a[2] = [_zero(kind)] * k
    for row in b:
        row[1] = _zero(kind)
    got = linalg.mat_mul(a, b)
    _same(got, oracle_mul(a, b))
    assert not any(got[2]) and not any(row[1] for row in got)
    # a lives on the first half of the inner index, b on the second half
    half = k // 2
    a = [[x if t < half else _zero(kind) for t, x in enumerate(row)] for row in a]
    b = [row if t >= half else [_zero(kind)] * m for t, row in enumerate(b)]
    got = linalg.mat_mul(a, b)
    _same(got, oracle_mul(a, b))
    assert not any(x for row in got for x in row)


@pytest.mark.parametrize("kind", (Fraction, GaussRational))
@pytest.mark.parametrize("density", DENSITIES)
def test_invert_and_determinant(kind, density):
    """invert against the textbook inverse; the Leibniz determinant decides
    which samples are regular and which must raise SingularMatrixError."""
    rng = random.Random(f"{kind.__name__}-{density}")
    seen = {"regular": 0, "singular": 0}
    for n in range(1, 6):
        for _ in range(6):
            a = _random(kind, rng, n, n, density)
            if density < 1.0 and rng.random() < 0.5:
                # a full diagonal keeps some sparse samples regular
                for i in range(n):
                    a[i][i] = _make(kind, rng)
            if oracle_det(a):
                seen["regular"] += 1
                _same(linalg.invert(a), oracle_invert(a))
            else:
                seen["singular"] += 1
                with pytest.raises(linalg.SingularMatrixError):
                    linalg.invert(a)
    assert seen["regular"]
    if density < 1.0:
        assert seen["singular"]


def _rank(a):
    return len(_gauss_jordan([list(r) for r in a], len(a[0])))


# --- the classical bivector ---------------------------------------------------

def _transpose(a):
    return [list(col) for col in zip(*a)]


def _dense(a, n):
    return [[a.get((i, j), GaussRational(0)) for j in range(n)] for i in range(n)]


def _sparse(m):
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def oracle_trace(a, b):
    """Tr(ab) summed over every index pair."""
    return sum((a[i][k] * b[k][i] for i in range(len(a)) for k in range(len(a))), GaussRational(0))


def _point_grid(spec):
    """The classical point A0 as a dense grid, every entry evaluated at q = 1."""
    a0 = quantum_point(spec, default_params(spec)).A0
    return [[eval_at_one(a0.get(i, j)) for j in range(spec.N)] for i in range(spec.N)]


def _basis_columns(data):
    """The textbook solve's matrix: column k is the flattened B_k."""
    n = data.ls.dim
    return [[b.get((i, j), GaussRational(0)) for b in data.basis]
            for i in range(n) for j in range(n)]


def oracle_bivector(data, a):
    """(Ad - 1) rho (Ad - 1)^T + omega Ad^T - Ad omega, every matrix dense,
    Ad expanded in the basis by the textbook solve, and omega, rho the
    coefficient matrices: the inverse Cartan Gram matrix under the trace form
    and +-1 at the (e_beta, f_beta) pairs."""
    a_inv = oracle_invert(a)
    full = _basis_columns(data)
    N = len(a)
    cols = [oracle_solve(full, [x for row in oracle_mul(oracle_mul(a, _dense(b, N)), a_inv)
                                for x in row])
            for b in data.basis]
    ad = _transpose(cols)
    one, zero = GaussRational(1), GaussRational(0)
    n, npos = data.ls.rank, len(data.positive)
    cartan = [_dense(h, N) for h in data.basis[:data.ls.rank]]
    gram_inv = oracle_invert([[oracle_trace(x, y) for y in cartan] for x in cartan])
    omega = [[zero] * data.dim for _ in range(data.dim)]
    rho = [[zero] * data.dim for _ in range(data.dim)]
    for k in range(n):
        omega[k][:n] = gram_inv[k]
    for idx in range(npos):
        e, f = n + idx, n + npos + idx
        omega[e][f] = omega[f][e] = rho[e][f] = one
        rho[f][e] = -one
    shifted = [[x - (one if i == j else zero) for j, x in enumerate(row)]
               for i, row in enumerate(ad)]
    rho_part = oracle_mul(oracle_mul(shifted, rho), _transpose(shifted))
    omega_left = oracle_mul(omega, _transpose(ad))
    omega_right = oracle_mul(ad, omega)
    return [[r + x - y for r, x, y in zip(rr, rx, ry)]
            for rr, rx, ry in zip(rho_part, omega_left, omega_right)]


POINT_CASES = [spec for spec in standard_cases()
               if (spec.group, spec.N) in (("sl", 3), ("so", 5), ("sp", 4))]


@pytest.mark.parametrize("spec", POINT_CASES, ids=lambda s: s.case_id)
def test_bivector_matches_dense_oracle_at_points(spec):
    data = build_classical_algebra(spec.series)
    grid = _point_grid(spec)
    value = bivector_at(data, _sparse(grid))
    want = oracle_bivector(data, grid)
    _same(value.coeffs, want)
    assert value.is_zero()


def test_bivector_negative_control_matches_dense_oracle():
    data = build_classical_algebra(LieSeries("A", 2))
    grid = [[GaussRational(x) if i == j else GaussRational(0) for j, x in enumerate(
        (4, 1, Fraction(1, 4)))] for i in range(3)]
    value = bivector_at(data, _sparse(grid))
    want = oracle_bivector(data, grid)
    _same(value.coeffs, want)
    assert not value.is_zero()
    # the first entry of maximal Gaussian norm, in row-major order
    top = max(x.norm() for row in want for x in row)
    assert value.largest_entry() == next((i, j, x) for i, row in enumerate(want)
                                         for j, x in enumerate(row) if x and x.norm() == top)


# --- the dual-basis expander of the classical algebra -------------------------

SERIES_TO_8 = ([("sl", N) for N in range(2, 9)] + [("so", N) for N in range(3, 9)]
               + [("sp", N) for N in range(2, 9, 2)])


@pytest.mark.parametrize("group,N", SERIES_TO_8)
def test_dual_basis_is_biorthogonal(group, N):
    data = build_classical_algebra(series_for_group(group, N))
    one, zero = GaussRational(1), GaussRational(0)
    duals = [_dense(d, N) for d in algebra_duals(data)]
    for m, b in enumerate(data.basis):
        assert [oracle_trace(_dense(b, N), d) for d in duals] == [one if k == m else zero
                                                                  for k in range(data.dim)]


def _member(data, rng):
    """A seeded random element of g and its coefficients."""
    coeffs = [_make(GaussRational, rng) if rng.random() < 0.5 else GaussRational(0)
              for _ in data.basis]
    n = data.ls.dim
    x = [[GaussRational(0)] * n for _ in range(n)]
    for c, b in zip(coeffs, data.basis):
        x = [[u + c * v for u, v in zip(rx, rb)] for rx, rb in zip(x, _dense(b, n))]
    return x, coeffs


def _flat(m):
    return [x for row in m for x in row]


def _in_span(full, vector):
    """Textbook membership for independent columns: the rank does not grow
    when the vector is added."""
    return _rank([r + [y] for r, y in zip(full, vector)]) == len(full[0])


@pytest.mark.parametrize("group,N", SERIES_TO_8)
def test_dual_basis_expander_matches_textbook_solve(group, N):
    data = build_classical_algebra(series_for_group(group, N))
    rng = random.Random(f"{group}{N}")
    full = _basis_columns(data)
    assert _rank(full) == data.dim
    for _ in range(2):
        x, coeffs = _member(data, rng)
        got = data.expander.expand(_sparse(x))
        _same(got, oracle_solve(full, _flat(x)))
        assert got == coeffs
        # non-members: a nonzero trace, and in so and sp also a traceless
        # matrix that breaks the invariant form (sp2 = sl2 has none)
        v = GaussRational(_frac(rng))
        shifts = [[(0, 0, v)]]
        if group != "sl" and N > 2:
            shifts.append([(0, 0, v), (1, 1, -v)])
        for shift in shifts:
            y = [list(row) for row in x]
            for i, j, w in shift:
                y[i][j] = y[i][j] + w
            assert not _in_span(full, _flat(y))
            with pytest.raises(linalg.NotInSpanError):
                data.expander.expand(_sparse(y))
