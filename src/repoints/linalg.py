"""Exact dense linear algebra over any field type with +, -, *, /, bool.

Used with Fraction, GaussRational, and QScalar elements.  Matrices are plain
lists of lists; nothing here mutates its arguments.  The matrices met in
practice (classical point matrices, root vectors, adjoint matrices) are mostly
zeros, so every kernel visits only nonzero entries: a product adds up only
products of nonzero entries, and a row elimination touches only the pivot
row's nonzero columns.  The skipped terms are exactly zero, so every result
equals the dense computation entry by entry.
"""
from __future__ import annotations


class SingularMatrixError(ArithmeticError):
    pass


class NotInSpanError(ValueError):
    pass


def _nonzeros(row: list) -> list:
    return [(j, y) for j, y in enumerate(row) if y]


def _subtract_multiple(row: list, f, pivot_nonzeros: list) -> None:
    """row -= f * pivot in place, given the pivot row's nonzero entries."""
    for j, y in pivot_nonzeros:
        row[j] = row[j] - f * y


def mat_mul(a: list, b: list) -> list:
    if not a:
        return []
    zero = a[0][0] * b[0][0]
    zero = zero - zero
    b_rows = [_nonzeros(row) for row in b]
    m = len(b[0])
    out = []
    for ai in a:
        row = [None] * m
        for x, bt in zip(ai, b_rows):
            if x:
                for j, y in bt:
                    s = row[j]
                    row[j] = x * y if s is None else s + x * y
        out.append([zero if s is None else s for s in row])
    return out


def mat_vec(a: list, v: list) -> list:
    if not a:
        return []
    zero = a[0][0] * v[0]
    zero = zero - zero
    v_nonzeros = _nonzeros(v)
    out = []
    for row in a:
        s = None
        for t, y in v_nonzeros:
            x = row[t]
            if x:
                s = x * y if s is None else s + x * y
        out.append(zero if s is None else s)
    return out


def invert(a: list) -> list:
    """Inverse of a square matrix; raises SingularMatrixError if singular."""
    n = len(a)
    one = None
    for row in a:
        for x in row:
            if x:
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        raise SingularMatrixError("zero matrix")
    zero = one - one
    aug = [list(a[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv_p = aug[c][c]
        aug[c] = [x / inv_p if x else x for x in aug[c]]
        pivot = _nonzeros(aug[c])
        for i in range(n):
            if i != c and aug[i][c]:
                _subtract_multiple(aug[i], aug[i][c], pivot)
    return [row[n:] for row in aug]


def solve(a: list, b: list) -> list:
    """Solve a @ x = b exactly for a possibly rectangular a of full column rank.

    Raises NotInSpanError if the system is inconsistent, SingularMatrixError
    if the columns are dependent.
    """
    nrows = len(a)
    ncols = len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = aug[r][c]
        aug[r] = [x / inv_p if x else x for x in aug[r]]
        pivot = _nonzeros(aug[r])
        for i in range(nrows):
            if i != r and aug[i][c]:
                _subtract_multiple(aug[i], aug[i][c], pivot)
        pivots.append(c)
        r += 1
    if len(pivots) < ncols:
        raise SingularMatrixError("columns are linearly dependent")
    for i in range(r, nrows):
        if aug[i][ncols]:
            raise NotInSpanError("inconsistent linear system")
    zero = aug[0][0] - aug[0][0]
    x = [zero] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    return x


def determinant(a: list):
    n = len(a)
    rows = [list(r) for r in a]
    det = None
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            x = rows[0][0]
            return x - x
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        det = p if det is None else det * p
        pivot = _nonzeros(rows[c])
        for i in range(c + 1, n):
            if rows[i][c]:
                _subtract_multiple(rows[i], rows[i][c] / p, pivot)
    if sign < 0:
        det = -det
    return det


class BasisExpander:
    """Expands vectors in a fixed independent set B_k exactly, by pairing
    with a dual set.

    columns[k] is B_k and duals[k] the coefficients of a linear functional
    D_k, both flat lists; the caller supplies duals with D_k(B_m) = delta_km.
    `expand` reads c_k = D_k(x) = sum_t x[t] duals[k][t] and checks the
    residual x = sum_k c_k B_k, which decides membership by itself:

    - if the residual vanishes, x is in the span, with coordinates c;
    - if x = sum_m a_m B_m, then c_k = sum_m a_m D_k(B_m) = a_k, so it does.

    So NotInSpanError is raised iff x is outside the span.  For the Lie
    algebra basis of `classical`, D_k(x) = tr(x B_k^v), so duals[k] is the
    flattened transpose of B_k^v.
    """

    def __init__(self, columns: list, duals: list):
        self.columns = [_nonzeros(c) for c in columns]
        self.duals = [_nonzeros(d) for d in duals]

    def expand(self, vector: list) -> list:
        """Coefficients of vector in the basis; raises NotInSpanError if outside."""
        zero = vector[0] - vector[0]
        coeffs = []
        for dual in self.duals:
            s = zero
            for t, y in dual:
                if vector[t]:
                    s = s + vector[t] * y
            coeffs.append(s)
        check = [zero] * len(vector)
        for c, column in zip(coeffs, self.columns):
            if c:
                for t, y in column:
                    check[t] = check[t] + c * y
        if check != vector:
            raise NotInSpanError("vector is not in the span of the basis")
        return coeffs
