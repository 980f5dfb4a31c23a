"""The cross-multiplication kernel against normalize-then-compare."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints.qmatrix import QMatrix, UnreducedProduct, first_product_difference
from repoints.scalar import ONE, ZERO, parse_scalar

# rational entries with shared and distinct denominators, some of them equal
# after reduction only as products: (q+1)/(q+2) * (q+2)/(q+3) = (q+1)/(q+3)
POOL = [parse_scalar(s) for s in (
    "1", "-1", "q", "q^-1", "2/3", "i", "-3*i*q^2", "(q+1)/(q+2)", "(q+2)/(q+3)",
    "(q+1)/(q+3)", "(q+2)/(q+1)", "-(q+2)/(q+1)", "1/(q^2+3)", "(q+2)/(q^2+3)",
    "(q-i)/(q^2+1)", "q/(2*q+1)")]


def _direct(x, y, z, w):
    return (x * y).first_difference(z * w)


def _matrix(dim, entries):
    return QMatrix.from_entries(dim, entries)


@st.composite
def sparse_matrices(draw, dim):
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                    st.sampled_from(POOL)), max_size=dim * dim))
    return _matrix(dim, cells)


@st.composite
def quadruples(draw):
    """(x, y, z, w) for the kernel and the same four, normalized, for `_direct`."""
    dim = draw(st.integers(1, 3))
    x, y = draw(sparse_matrices(dim)), draw(sparse_matrices(dim))
    mode = draw(st.sampled_from(("free", "same", "regrouped", "rescaled", "near", "unreduced")))
    if mode == "free":
        z, w = draw(sparse_matrices(dim)), draw(sparse_matrices(dim))
    elif mode == "same":
        z, w = x, y
    elif mode == "regrouped":
        # equal products with other denominators on the second side
        z, w = QMatrix.identity(dim), x * y
    elif mode == "rescaled":
        s = draw(st.sampled_from([v for v in POOL if v]))
        z, w = x.scale(s), y.scale(s.inv())
    elif mode == "near":
        z, w = x, y + draw(sparse_matrices(dim))
    else:
        # y = w = a b, given to the kernel unreduced in y, in w or in both
        a, b = draw(sparse_matrices(dim)), draw(sparse_matrices(dim))
        y = w = a * b
        z = draw(st.sampled_from((x, draw(sparse_matrices(dim)))))
        kernel = [x, y, z, w]
        for k in draw(st.sampled_from(((1,), (3,), (1, 3)))):
            kernel[k] = UnreducedProduct(a, b)
        return tuple(kernel), (x, y, z, w)
    return (x, y, z, w), (x, y, z, w)


@settings(max_examples=200, deadline=None)
@given(quadruples())
def test_kernel_matches_normalized_products(operands):
    kernel, normalized = operands
    assert first_product_difference(*kernel) == _direct(*normalized)


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
