"""The substitution kernel against normalize-then-compare."""
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints import qmatrix
from repoints.qmatrix import (
    QMatrix,
    Unreduced,
    first_product_difference,
    first_vector_difference,
    same_products,
)
from repoints.scalar import ONE, ZERO, parse_scalar

T = 2 ** qmatrix._K  # the first substitution point

# rational entries with shared and distinct denominators, some of them equal
# after reduction only as products: (q+1)/(q+2) * (q+2)/(q+3) = (q+1)/(q+3);
# the last has a denominator with imaginary parts
POOL = [parse_scalar(s) for s in (
    "1", "-1", "q", "q^-1", "2/3", "i", "-3*i*q^2", "(q+1)/(q+2)", "(q+2)/(q+3)",
    "(q+1)/(q+3)", "(q+2)/(q+1)", "-(q+2)/(q+1)", "1/(q^2+3)", "(q+2)/(q^2+3)",
    "(q-i)/(q^2+1)", "q/(2*q+1)", "(q+1)/(i*q+1)")]

# coefficients near and above t: q - t vanishes at t, so does (t - 1) q - t^2 + t
# with its own bound above t, and products of these pass t^2 as well
BIG_POOL = POOL[:4] + [parse_scalar(s.format(t=T, u=T - 1, v=T + 1)) for s in (
    "q-{t}", "{t}-q", "{u}*q+1", "{v}*q-{t}", "({t}*q+1)/(q-{t})", "{u}*i*q^2-{v}",
    "(q-{t})/({u}*q+i)", "{t}*q^-1", "q/({v}+q)")]


def _direct(x, y, z, w):
    return (x * y).first_difference(z * w)


def _matrix(dim, entries):
    return QMatrix.from_entries(dim, entries)


@st.composite
def sparse_matrices(draw, dim, pool=POOL, cells=None):
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                    st.sampled_from(pool)), max_size=cells or dim * dim))
    return _matrix(dim, cells)


@st.composite
def quadruples(draw):
    """(x, y, z, w) for the kernel and the same four, normalized, for `_direct`."""
    dim = draw(st.integers(1, 3))
    x, y = draw(sparse_matrices(dim)), draw(sparse_matrices(dim))
    mode = draw(st.sampled_from(("free", "same", "regrouped", "rescaled", "near", "large")))
    if mode == "large":
        # entries whose bounds reach past t, so the kernel redoes the call
        x, y = draw(sparse_matrices(dim, BIG_POOL)), draw(sparse_matrices(dim, BIG_POOL))
        z, w = draw(st.sampled_from(((x, y), (QMatrix.identity(dim), x * y),
                                     (draw(sparse_matrices(dim, BIG_POOL)), y))))
    elif mode == "free":
        z, w = draw(sparse_matrices(dim)), draw(sparse_matrices(dim))
    elif mode == "same":
        z, w = x, y
    elif mode == "regrouped":
        # equal products with other denominators on the second side
        z, w = QMatrix.identity(dim), x * y
    elif mode == "rescaled":
        s = draw(st.sampled_from([v for v in POOL if v]))
        z, w = x.scale(s), y.scale(s.inv())
    else:  # near
        z, w = x, y + draw(sparse_matrices(dim))
    return (x, y, z, w), (x, y, z, w)


@settings(max_examples=200, deadline=None)
@given(quadruples())
def test_kernel_matches_normalized_products(operands):
    kernel, normalized = operands
    assert first_product_difference(*kernel) == _direct(*normalized)


@st.composite
def unreduced(draw, dim, pool, depth=1):
    """(an `Unreduced` of one to three terms, the same sum normalized): each
    term scaled or not, with one factor or two, and a factor may itself be
    an `Unreduced`, nested up to `depth` deep."""
    terms, total = [], QMatrix(dim)
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from([None, ZERO] + pool))
        x, nx = draw(_factors(dim, pool, depth))
        y, ny = draw(st.one_of(st.just((None, None)), _factors(dim, pool, depth)))
        term = nx if y is None else nx * ny
        total = total + (term if c is None else term.scale(c))
        terms.append((c, x, y))
    return Unreduced(*terms), total


def _factors(dim, pool, depth):
    """(operand, normalized matrix) for a `QMatrix`, or for an `Unreduced`
    while depth is left."""
    plain = sparse_matrices(dim, pool, dim).map(lambda m: (m, m))
    return plain if depth == 0 else st.one_of(plain, unreduced(dim, pool, depth - 1))


def _direct_on(x, y, z, w, rows):
    """`_direct` on the listed rows only."""
    left, right = x * y, z * w
    for i in sorted(rows):
        diff = first_vector_difference(left.rows[i], right.rows[i])
        if diff is not None:
            return (i, *diff)
    return None


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 6), st.just(POOL), st.just(1)),
                 st.tuples(st.integers(1, 3), st.just(BIG_POOL), st.just(0))).flatmap(
    lambda a: st.tuples(unreduced(*a), unreduced(*a), sparse_matrices(*a[:2], 2 * a[0]),
                        st.sets(st.integers(0, a[0] - 1)))))
def test_an_unreduced_sum_is_decided_as_its_normalized_matrix(operands):
    """An `Unreduced` in each place of x y = z w, against the same sums
    normalized: the same verdict, first mismatch and canonical values, and
    equality with its own normalized matrix.  Entries above t, whose
    normalized products grow fast, come unnested and at N <= 3.  A row list
    gives the first mismatch among its rows, before the operands keep
    their rows at t (each listed row built alone) and after."""
    (s, m), (r, n), y, rows = operands
    calls = [((s, y, r, y), (m, y, n, y)), ((y, s, y, r), (y, m, y, n)),
             ((s, r, y, y), (m, n, y, y))]
    for ops, dense in calls:
        assert first_product_difference(*ops, rows) == _direct_on(*dense, rows)
    for ops, dense in calls:
        assert first_product_difference(*ops) == _direct(*dense)
    assert first_product_difference(s, y, m, y) is None
    assert first_product_difference(y, m, y, s) is None
    for ops, dense in calls:
        assert first_product_difference(*ops, rows) == _direct_on(*dense, rows)


# Laurent polynomials with Gaussian and rational coefficients, some above t
POLYS = [p for v in POOL + BIG_POOL for p in (v.num, v.den)] + [parse_scalar("0").num]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(POLYS), max_size=4), st.lists(st.sampled_from(POLYS), max_size=4),
       st.sampled_from(("free", "permuted", "shared")), st.randoms())
def test_same_products_is_equality_of_the_products(left, right, mode, rnd):
    if mode == "permuted":
        right = rnd.sample(left, len(left))
    elif mode == "shared":
        left, right = left + right, [*right, *left]
    want = reduce(mul, left, ONE.num) == reduce(mul, right, ONE.num)
    assert same_products(left, right) == want


def test_sum_cancelling_to_zero_over_distinct_denominators():
    s, t, r = (parse_scalar(v) for v in ("1/(q+1)", "(q+1)/(q+2)", "q+2"))
    x = _matrix(2, [(0, 0, s), (0, 1, t)])
    y = _matrix(2, [(0, 0, t * r), (1, 0, -(s * r))])
    zero = QMatrix(2)
    assert (x * y).is_zero()
    assert first_product_difference(x, y, zero, zero) is None
    assert first_product_difference(zero, zero, x, y) is None


def test_entries_equal_only_after_reduction():
    a, b, c = (parse_scalar(v) for v in ("(q+1)/(q+2)", "(q+2)/(q+3)", "(q+1)/(q+3)"))
    x, y = _matrix(1, [(0, 0, a)]), _matrix(1, [(0, 0, b)])
    z, w = QMatrix.identity(1), _matrix(1, [(0, 0, c)])
    assert first_product_difference(x, y, z, w) is None


def test_zero_products_and_a_located_mismatch():
    zero = QMatrix(3)
    a = parse_scalar("(q+2)/(q^2+3)")
    x = _matrix(3, [(1, 2, a)])
    assert first_product_difference(zero, x, x, zero) is None
    assert first_product_difference(x, QMatrix.identity(3), zero, zero) == (1, 2, a, ZERO)
    assert first_product_difference(zero, zero, QMatrix.identity(3), x) == (1, 2, ZERO, a)


def test_differing_denominators_report_canonical_values():
    a, b = parse_scalar("1/(q+1)"), parse_scalar("1/(q+2)")
    x = _matrix(2, [(0, 0, a), (1, 1, a)])
    y = _matrix(2, [(0, 0, b), (1, 1, ONE)])
    got = first_product_difference(x, y, y, y)
    assert got == _direct(x, y, y, y) == (0, 0, a * b, b * b)


def _substitution_points(monkeypatch):
    """The list of K at which the kernel builds a row, deciding it or
    redoing it, from now on."""
    seen = []
    at = qmatrix._signed_row

    def recording(products, K):
        seen.append(K)
        return at(products, K)

    monkeypatch.setattr(qmatrix, "_signed_row", recording)
    return seen


def test_a_root_at_the_substitution_point_is_found_unequal(monkeypatch):
    # q - t vanishes at t but is not zero: its bound t + 1 forces the redo at t^2
    seen = _substitution_points(monkeypatch)
    a = parse_scalar(f"q-{T}")
    x, zero = _matrix(1, [(0, 0, a)]), QMatrix(1)
    assert first_product_difference(x, QMatrix.identity(1), zero, zero) == (0, 0, a, ZERO)
    assert seen == [qmatrix._K, 2 * qmatrix._K]
    # q against t: equal at t, with the bound t + 1
    q, t = parse_scalar("q"), parse_scalar(str(T))
    one = QMatrix.identity(1)
    assert first_product_difference(_matrix(1, [(0, 0, q)]), one, _matrix(1, [(0, 0, t)]),
                                    one) == (0, 0, q, t)


def test_equal_entries_above_the_bound_are_decided_at_t_squared(monkeypatch):
    seen = _substitution_points(monkeypatch)
    a, b = parse_scalar(f"{T - 1}*q+{T}"), parse_scalar(f"q/({T + 1}+q)")
    x, y = _matrix(2, [(0, 0, a), (0, 1, b), (1, 1, a)]), _matrix(2, [(0, 0, b), (1, 0, a)])
    assert first_product_difference(x, y, QMatrix.identity(2), x * y) is None
    # the products' bounds pass t^2 as well, in both rows, and each row is
    # redone alone
    assert seen == [qmatrix._K, 2 * qmatrix._K, 4 * qmatrix._K] * 2


def test_unreduced_product_keeps_an_entry_that_only_vanishes_at_t():
    a = _matrix(2, [(0, 0, parse_scalar("q")), (0, 1, ONE)])
    b = _matrix(2, [(0, 0, ONE), (1, 0, parse_scalar(f"-{T}"))])
    p = Unreduced((None, a, b))
    e, re, im, d, h, g = p.substituted(qmatrix._K)[0][0]
    assert (re, im, h) == (0, 0, T + 1)
    zero = QMatrix(2)
    assert first_product_difference(p, QMatrix.identity(2), zero, zero) == (
        0, 0, parse_scalar(f"q-{T}"), ZERO)


def test_a_cancelled_entry_within_the_bound_is_dropped():
    a = _matrix(2, [(0, 0, parse_scalar("q")), (0, 1, ONE)])
    b = _matrix(2, [(0, 0, ONE), (1, 0, parse_scalar("-q"))])
    assert Unreduced((None, a, b)).substituted(qmatrix._K)[0] == {}
    # and so it is in a scaled sum, where the other term has no entry in row 0
    assert Unreduced((ONE, a, b), (POOL[7], QMatrix(2), None)).substituted(qmatrix._K)[0] == {}


def _difference(a, b):
    """The kernel's verdict on entries a - b at t: None (equal), 0 (unequal)
    or _UNDECIDED."""
    K = qmatrix._K
    return qmatrix._first_open(qmatrix._signed_row(
        ((1, {0: a}, ({0: qmatrix._ONE_ENTRY},)), (-1, {0: b}, ({0: qmatrix._ONE_ENTRY},))), K), K)


def test_a_sum_adds_numerators_only_over_a_proven_common_denominator():
    # entries as (e, re, im, d, h, g): 1/2, and 1/Q with Q = q - t + 2, so
    # Q(t) = 2 with h(Q) = t - 1.  The denominators agree at t, but their
    # bounds sum to t + 1, so the row builder must cross-multiply, and the
    # sum, which is not 1, must not be decided equal to 1.
    K, t = qmatrix._K, T
    half, other, one = (0, 1, 0, 2, 1, 2), (0, 1, 0, 2, 1, t - 1), (0, 1, 0, 1, 1, 1)
    total = qmatrix._signed_row(((1, {0: one, 1: one}, [{0: half}, {0: other}]),), K)[0]
    assert total[3] == 4
    assert _difference(total, one) is qmatrix._UNDECIDED
    # one signed row over the same three products decides nothing either
    assert qmatrix._first_open(qmatrix._signed_row(
        ((1, {0: one, 1: one}, [{0: half}, {0: other}]), (-1, {0: one}, [{0: one}])), K),
        K) is qmatrix._UNDECIDED
    # over 1/2 twice the common denominator is proven, and the sum is 1
    total = qmatrix._signed_row(((1, {0: one, 1: one}, [{0: half}, {0: half}]),), K)[0]
    assert total[3] == 2 and _difference(total, one) is None


# pairs of entries (e, re, im, d, h, g) that agree at t, are not equal, and
# whose bound is t + 1, the least it can be
@pytest.mark.parametrize("a, b", [
    # q against t over one denominator: D = q - t
    ((1, 1, 0, 1, 1, 1), (0, T, 0, 1, T, 1)),
    # q over 1 against -t over -1, cross-multiplied
    ((1, 1, 0, 1, 1, 1), (0, -T, 0, -1, T, 1)),
    # 1/2 against 1/(q - t + 2): equal denominators at t, g1 + g2 = t + 1
    ((0, 1, 0, 2, 1, 2), (0, 1, 0, 2, 1, T - 1)),
], ids=["one-denominator", "cross-multiplied", "denominators-agree-at-t"])
def test_no_entry_is_decided_above_its_bound(a, b):
    assert _difference(a, b) is qmatrix._UNDECIDED
    assert _difference(b, a) is qmatrix._UNDECIDED


def test_kron_of_the_identity_places_the_entries_it_multiplies_by_one():
    a = _matrix(2, [(0, 1, POOL[7]), (1, 0, POOL[6]), (1, 1, ONE)])
    left = QMatrix.identity(3).kron(a)
    for b in range(3):
        for i, row in enumerate(a.rows):
            for j, v in row.items():
                assert left.rows[b * 2 + i][b * 2 + j] is v
    # a non-unit entry still multiplies, and a unit factor on the right
    # gives the same product as on the left
    assert a.kron(QMatrix.identity(2)).get(1, 3) == POOL[7]
    assert a.scale(POOL[5]).kron(QMatrix.identity(1)) == a.scale(POOL[5])


def test_a_matrix_keeps_its_rows_for_the_latest_substitution_point_only():
    K = qmatrix._K
    m = _matrix(2, [(0, 1, POOL[7]), (1, 0, POOL[16])])
    first = m.substituted(K)
    assert m.substituted(K) is first
    redo = m.substituted(2 * K)
    assert m.substituted(2 * K) is redo and redo != first
    again = m.substituted(K)
    assert again is not first and again == first
    m.put(1, 1, ONE)
    assert 1 in m.substituted(K)[1] and 1 not in again[1]
