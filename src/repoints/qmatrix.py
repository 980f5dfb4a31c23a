"""Sparse square matrices over the exact scalar field Q(i)(q).

Products and sums of `QMatrix` values are canonical: every entry is a reduced
`QScalar`.  A matrix identity X Y = Z W is decided without reducing the
entries of either side: `first_product_difference` builds both products as
unreduced fractions and compares them by cross-multiplication, and only the
first mismatching pair is brought to canonical form, to name it.  A factor
of such an identity may itself be a product that nothing else reads; an
`UnreducedProduct` holds it with unreduced entries, which the kernel reads
as it reads a `QMatrix`.
"""
from __future__ import annotations

from .scalar import LP_ONE, LP_ZERO, QScalar, ZERO, ONE


class QMatrix:
    """A dim x dim matrix with sparse rows (dict column -> nonzero QScalar).

    Instances are treated as immutable once built; all operations return new
    matrices.  Entries equal to zero are never stored.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows=None):
        self.dim = dim
        if rows is None:
            self.rows = [{} for _ in range(dim)]
        else:
            self.rows = rows

    @classmethod
    def identity(cls, dim: int) -> "QMatrix":
        return cls(dim, [{i: ONE} for i in range(dim)])

    @classmethod
    def from_entries(cls, dim: int, entries) -> "QMatrix":
        """Build from an iterable of (row, col, value); repeated positions add."""
        m = cls(dim)
        for i, j, v in entries:
            m.put(i, j, m.get(i, j) + v)
        return m

    def put(self, i: int, j: int, v: QScalar) -> None:
        # builder hook; only used before a matrix is shared
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

    def get(self, i: int, j: int) -> QScalar:
        return self.rows[i].get(j, ZERO)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        out = []
        for r1, r2 in zip(self.rows, other.rows):
            row = dict(r1)
            for j, v in r2.items():
                s = row.get(j)
                if s is None:
                    row[j] = v
                else:
                    s = s + v
                    if s:
                        row[j] = s
                    else:
                        del row[j]
            out.append(row)
        return QMatrix(self.dim, out)

    def __neg__(self) -> "QMatrix":
        return QMatrix(self.dim, [{j: -v for j, v in r.items()} for r in self.rows])

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.dim, [other.apply_left(row) for row in self.rows])

    def apply(self, vec: dict) -> dict:
        """self * v for a sparse column vector {index: nonzero value}."""
        out = {}
        for i, row in enumerate(self.rows):
            acc = None
            for k, a in row.items():
                b = vec.get(k)
                if b is not None:
                    p = a * b
                    acc = p if acc is None else acc + p
            if acc:
                out[i] = acc
        return out

    def apply_left(self, vec: dict) -> dict:
        """v^T * self for a sparse row vector {index: nonzero value}."""
        acc: dict = {}
        rows = self.rows
        for k, a in vec.items():
            for j, b in rows[k].items():
                p = a * b
                s = acc.get(j)
                acc[j] = p if s is None else s + p
        return {j: v for j, v in acc.items() if v}

    def scale(self, c: QScalar) -> "QMatrix":
        if not c:
            return QMatrix(self.dim)
        return QMatrix(self.dim, [{j: c * v for j, v in r.items()} for r in self.rows])

    def add_scalar_diag(self, c: QScalar) -> "QMatrix":
        """self + c * identity."""
        out = QMatrix(self.dim, [dict(r) for r in self.rows])
        for i in range(self.dim):
            out.put(i, i, out.get(i, i) + c)
        return out

    def transpose(self) -> "QMatrix":
        out = QMatrix(self.dim)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v
        return out

    def kron(self, other: "QMatrix") -> "QMatrix":
        """Kronecker product; index (i, k) maps to i * other.dim + k."""
        d2 = other.dim
        out = QMatrix(self.dim * d2)
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                for k, orow in enumerate(other.rows):
                    dest = out.rows[i * d2 + k]
                    for l, b in orow.items():
                        dest[j * d2 + l] = a * b
        return out

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    __hash__ = None

    def nonzero_items(self):
        for i, row in enumerate(self.rows):
            for j, v in sorted(row.items()):
                yield i, j, v

    def first_nonzero(self):
        """First nonzero entry in row-major order, or None."""
        for i, j, v in self.nonzero_items():
            return i, j, v
        return None

    def first_difference(self, other: "QMatrix"):
        """Position and values of the first differing entry, or None if equal."""
        for i, (r1, r2) in enumerate(zip(self.rows, other.rows)):
            diff = first_vector_difference(r1, r2)
            if diff is not None:
                return (i, *diff)
        return None

    def rank(self) -> int:
        """Rank over Q(i)(q) by exact Gaussian elimination."""
        rows = [dict(r) for r in self.rows if r]
        rank = 0
        for col in range(self.dim):
            piv_idx = next((idx for idx, r in enumerate(rows) if col in r), None)
            if piv_idx is None:
                continue
            piv = rows.pop(piv_idx)
            rank += 1
            inv = piv[col].inv()
            remaining = []
            for r in rows:
                f = r.get(col)
                if f is not None:
                    f = f * inv
                    for j, v in piv.items():
                        s = r.get(j)
                        s = -(f * v) if s is None else s - f * v
                        if s:
                            r[j] = s
                        else:
                            r.pop(j, None)
                if r:
                    remaining.append(r)
            rows = remaining
        return rank

    def __repr__(self) -> str:
        nnz = sum(len(r) for r in self.rows)
        return f"QMatrix(dim={self.dim}, nnz={nnz})"


def commutator(a: QMatrix, b: QMatrix) -> QMatrix:
    return a * b - b * a


def first_vector_difference(got: dict, want: dict):
    """First index where two sparse vectors differ, with both values, or None."""
    for k in sorted(got.keys() | want.keys()):
        a, b = got.get(k, ZERO), want.get(k, ZERO)
        if a != b:
            return k, a, b
    return None


_ZERO_PAIR = (LP_ZERO, LP_ONE)


def _unreduced_row(row: dict, orows: list) -> dict:
    """One row of a product, column -> (num, den) with neither reduced: a
    product multiplies numerators and denominators, a sum over equal
    denominators adds numerators, and any other sum cross-multiplies."""
    acc: dict = {}
    for k, a in row.items():
        an, ad = a.num, a.den
        for j, b in orows[k].items():
            n, d = an * b.num, b.den
            if ad is not LP_ONE:
                d = ad if d is LP_ONE else ad * d
            s = acc.get(j)
            if s is None:
                acc[j] = (n, d)
            elif s[1] == d:
                acc[j] = (s[0] + n, d)
            else:
                acc[j] = (s[0] * d + n * s[1], s[1] * d)
    return acc


class _Fraction:
    """n/d with neither reduced, read through `.num` and `.den` as a QScalar is."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den


class UnreducedProduct:
    """x y for `first_product_difference` to read, built row by row with
    `_unreduced_row`; entries with a zero numerator are dropped.

    Not a `QMatrix`: it has only `.dim` and `.rows`, and an entry is a
    fraction n/d with neither reduced, so equal entries may differ in their
    fields.  The kernel stays exact on it for the reason it is exact on
    canonical entries: d is a product of canonical, hence nonzero,
    denominators, and Q(i)[q, q^-1] is an integral domain.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, x, y):
        yrows = y.rows
        self.dim = x.dim
        self.rows = [{j: _Fraction(n, d) for j, (n, d) in _unreduced_row(row, yrows).items()
                      if n} for row in x.rows]


def first_product_difference(x, y, z, w):
    """The first (i, j, (xy)[i][j], (zw)[i][j]) in row-major order, columns
    sorted, where the products x y and z w differ; None when they are equal.
    Each factor is a `QMatrix` or an `UnreducedProduct`.

    Both products are built a row at a time as unreduced fractions n/d of
    Laurent polynomials (`_unreduced_row`), and an entry n1/d1 of x y is
    compared with n2/d2 of z w as n1 d2 = n2 d1, or as n1 = n2 when d1 = d2.
    This is exact: Q(i)[q, q^-1] is an integral domain, every denominator is
    a product of nonzero canonical denominators (an `UnreducedProduct`'s
    entries included) and hence nonzero, so
    n1/d1 = n2/d2 in Q(i)(q) iff n1 d2 = n2 d1 in Q(i)[q, q^-1]; and a
    LaurentPoly is kept in a canonical form (Gaussian-integer arrays over one
    denominator with no common factor, nonzero end coefficients), so two
    polynomials are equal iff their fields are.
    No gcd is taken.  Only the first mismatching pair is normalized, so the
    returned values are the canonical entries of the two products.
    """
    yrows, wrows = y.rows, w.rows
    for i in range(x.dim):
        left = _unreduced_row(x.rows[i], yrows)
        right = _unreduced_row(z.rows[i], wrows)
        for j in sorted(left.keys() | right.keys()):
            n1, d1 = left.get(j, _ZERO_PAIR)
            n2, d2 = right.get(j, _ZERO_PAIR)
            if d1 == d2:
                same = n1 == n2
            else:
                same = n1 * d2 == n2 * d1
            if not same:
                return i, j, QScalar(n1, d1), QScalar(n2, d2)
    return None
