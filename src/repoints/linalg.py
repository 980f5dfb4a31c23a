"""Exact linear algebra over any field type with +, -, *, /, bool.

Used with Fraction and GaussRational elements.  `mat_mul` and `invert` take
dense matrices, plain lists of lists; nothing here mutates its arguments.
`invert` has one caller, the conjugation of `poisson --matrix` at a point
whose square is not scalar, and such point matrices are mostly zeros.  So
each kernel visits only nonzero entries: a product adds up only products of
nonzero entries, and a row elimination touches only the pivot row's nonzero
columns.  The skipped terms are exactly zero, so every result equals the
dense computation entry by entry.  `BasisExpander` takes sparse vectors,
dicts of nonzero entries, and expands them by pairing with a dual basis.
"""
from __future__ import annotations

from .rootdata import NotInSpanError


class SingularMatrixError(ArithmeticError):
    pass


def _nonzeros(row: list) -> list:
    return [(j, y) for j, y in enumerate(row) if y]


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
        for i, row in enumerate(aug):
            f = row[c]
            if i != c and f:
                for j, y in pivot:
                    row[j] = row[j] - f * y
    return [row[n:] for row in aug]


class BasisExpander:
    """Expands sparse vectors in a fixed independent set B_k exactly, by
    pairing with a dual set.

    A vector is a dict from positions to its nonzero entries.  columns[k] is
    B_k, and duals[k] holds the coefficients of a linear functional D_k,
    D_k(x) = sum over positions t of x[t] duals[k][t]; the caller supplies
    duals with D_k(B_m) = delta_km.  `expand` reads c_k = D_k(x) over the
    nonzeros of x and checks the residual x = sum_k c_k B_k, which decides
    membership by itself:

    - if the residual vanishes, x is in the span, with coordinates c;
    - if x = sum_m a_m B_m, then c_k = sum_m a_m D_k(B_m) = a_k, so it does.

    So NotInSpanError is raised iff x is outside the span.  For the Lie
    algebra basis of `classical`, D_k(x) = tr(x B_k^v), so duals[k] is the
    transpose of B_k^v.
    """

    def __init__(self, columns: list, duals: list):
        self.columns = columns
        self.readers = {}  # position t -> the (k, duals[k][t]) over k
        for k, dual in enumerate(duals):
            for t, y in dual.items():
                self.readers.setdefault(t, []).append((k, y))
        y = next(iter(duals[0].values()))
        self.zero = y - y

    def expand(self, vector: dict) -> list:
        """Coefficients of vector in the basis; raises NotInSpanError if outside."""
        coeffs = [self.zero] * len(self.columns)
        for t, x in vector.items():
            for k, y in self.readers.get(t, ()):
                coeffs[k] = coeffs[k] + x * y
        check = {}
        for c, column in zip(coeffs, self.columns):
            if c:
                for t, y in column.items():
                    s = check.get(t)
                    check[t] = c * y if s is None else s + c * y
        if {t: v for t, v in check.items() if v} != vector:
            raise NotInSpanError("vector is not in the span of the basis")
        return coeffs
