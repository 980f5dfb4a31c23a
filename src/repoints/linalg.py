"""Exact dense linear algebra over any field type with +, -, *, /, bool.

Used with Fraction, GaussRational, and QScalar elements.  Matrices are plain
lists of lists; nothing here mutates its arguments.  The matrices met in
practice (adjoint matrices, the omega and rho tensors) are mostly zeros, so
every kernel visits only nonzero entries: a product adds up only products of
nonzero entries, and a row elimination touches only the pivot row's nonzero
columns.  The skipped terms are exactly zero, so every result equals the
dense computation entry by entry.
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
    """Expands vectors in a fixed independent spanning set, exactly.

    Columns of the supplied matrix are the basis vectors (each a flat list).
    Construction selects an invertible row subset once; each expansion is then
    a single small solve plus a full verification of the residual.
    """

    def __init__(self, columns: list):
        self.ncols = len(columns)
        self.nrows = len(columns[0])
        self.columns = columns
        a = [[columns[j][i] for j in range(self.ncols)] for i in range(self.nrows)]
        self.full = a
        selected = []
        work = []
        r = 0
        for i, row in enumerate(a):
            if r == self.ncols:
                break
            cand = list(row)
            for (pivot, pcol) in work:
                if cand[pcol]:
                    _subtract_multiple(cand, cand[pcol], pivot)
            pcol = next((c for c in range(self.ncols) if cand[c]), None)
            if pcol is None:
                continue
            inv_p = cand[pcol]
            work.append((_nonzeros([x / inv_p if x else x for x in cand]), pcol))
            selected.append(i)
            r += 1
        if r < self.ncols:
            raise SingularMatrixError("basis vectors are dependent")
        self.selected = selected
        self.sub_inv = invert([a[i] for i in selected])

    def expand(self, vector: list) -> list:
        """Coefficients of vector in the basis; raises NotInSpanError if outside."""
        coeffs = mat_vec(self.sub_inv, [vector[i] for i in self.selected])
        check = mat_vec(self.full, coeffs)
        for got, want in zip(check, vector):
            if got != want:
                raise NotInSpanError("vector is not in the span of the basis")
        return coeffs
