"""Sparse square matrices over the exact scalar field Q(i)(q).

Products and sums of `QMatrix` values are canonical: every entry is a reduced
`QScalar`.  A matrix identity X Y = Z W is decided by `first_product_difference`
on integers, with no gcd: q is replaced by t = 2^K (Kronecker substitution),
so an entry of either side is q^e P(t)/Q(t) for Gaussian-integer polynomials
P and Q, kept as integers with exact bounds on P's and Q's coefficients, and
an entry is decided only where that bound proves that a polynomial vanishes
iff its value at t does; otherwise the call is redone at t^2.  Only the first
mismatching entry is computed symbolically, from normalized rows, to name it.
A factor of such an identity may itself be a product that nothing else
reads; an `UnreducedProduct` keeps its factors, and the kernel reads its rows
at t.  A `QMatrix` keeps its integer rows for the latest K (`substituted`).
"""
from __future__ import annotations

from .scalar import LP_ONE, QScalar, ZERO, ONE


class QMatrix:
    """A dim x dim matrix with sparse rows (dict column -> nonzero QScalar).

    Instances are treated as immutable once built; all operations return new
    matrices.  Entries equal to zero are never stored.
    """

    __slots__ = ("dim", "rows", "_subs")

    def __init__(self, dim: int, rows=None):
        self.dim = dim
        self._subs = None  # (K, rows at t = 2^K) of the latest K read
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
        self._subs = None
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

    def get(self, i: int, j: int) -> QScalar:
        return self.rows[i].get(j, ZERO)

    def row(self, i: int) -> dict:
        return self.rows[i]

    def substituted(self, K: int) -> list:
        """The rows at t = 2^K, each entry as `_entry` gives it; built once
        per K, and only the latest K is kept, so a redo at t^2 does not keep
        a second copy."""
        subs = self._subs
        if subs is None or subs[0] != K:
            subs = self._subs = (K, [{j: _entry(v, K) for j, v in row.items()}
                                     for row in self.rows])
        return subs[1]

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
        """Kronecker product; index (i, k) maps to i * other.dim + k.

        A unit entry of self places other's entries as they are, so I x A
        shares A's entries and multiplies none.
        """
        d2 = other.dim
        out = QMatrix(self.dim * d2)
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                for k, orow in enumerate(other.rows):
                    dest = out.rows[i * d2 + k]
                    for l, b in orow.items():
                        dest[j * d2 + l] = b if a is ONE else a * b
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


# Bits of the first substitution point t = 2^K; a call whose bound reaches
# past t is redone at t^2.
_K = 64
_UNDECIDED = object()


def _value(coeffs: tuple, K: int) -> int:
    """sum_k coeffs[k] t^k at t = 2^K, by Horner's rule with shifts."""
    v = 0
    for c in reversed(coeffs):
        v = (v << K) + c
    return v


def _norm(p) -> int:
    """h(p): the sum of |re| + |im| over the integer part of a LaurentPoly."""
    return sum(map(abs, p.re)) + sum(map(abs, p.im))


def _entry(x: QScalar, K: int) -> tuple:
    """x at t = 2^K as (e, re, im, d, h, g): x = q^e P/Q with P in Z[i][q] and
    Q in Z[q] nonzero, re + i im = P(t), d = Q(t), h >= h(P) and g >= h(Q).

    With x = (N/a) q^lo / ((D/b) q^lo') for integer parts N, D and integer
    denominators a, b: P = b N and Q = a D.  A Q with imaginary parts is made
    real by multiplying P and Q by its conjugate, which t, being real, sends
    to the conjugate of Q(t); h is submultiplicative, so h(P conj Q) <= h g
    and h(Q conj Q) <= g^2."""
    num, den = x.num, x.den
    if den is LP_ONE:
        re, im = num.re, num.im
        if len(re) == 1:
            r, i = re[0], im[0] if im else 0
            return num.lo, r, i, num.den, abs(r) + abs(i), num.den
        return num.lo, _value(re, K), _value(im, K), num.den, _norm(num), num.den
    a, b = num.den, den.den
    nr, ni = b * _value(num.re, K), b * _value(num.im, K)
    dr, di = a * _value(den.re, K), a * _value(den.im, K)
    h, g = b * _norm(num), a * _norm(den)
    if di:
        nr, ni, dr = nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di
        h, g = h * g, g * g
    return num.lo - den.lo, nr, ni, dr, h, g


def _sum(a: tuple, b: tuple, K: int, T: int) -> tuple:
    """a + b for entries (e, re, im, d, h, g) as `_entry` gives them.  The
    exponents are aligned by a shift of K bits per power of t.  The
    numerators are added when the denominators are one polynomial (equal
    values with g1 + g2 <= T, see `first_product_difference`), and
    cross-multiplied otherwise; either way h stays a bound, as
    h(P1 Q2 + P2 Q1) <= h1 g2 + h2 g1."""
    e1, r1, i1, d1, h1, g1 = a
    e2, r2, i2, d2, h2, g2 = b
    if e1 < e2:
        shift = K * (e2 - e1)
        r2, i2 = r2 << shift, i2 << shift
    elif e2 < e1:
        shift = K * (e1 - e2)
        r1, i1, e1 = r1 << shift, i1 << shift, e2
    if d1 == d2 and g1 + g2 <= T:
        return e1, r1 + r2, i1 + i2, d1, h1 + h2, g1 if g1 < g2 else g2
    return e1, r1 * d2 + r2 * d1, i1 * d2 + i2 * d1, d1 * d2, h1 * g2 + h2 * g1, g1 * g2


def _substituted_row(row: dict, orows: list, K: int, T: int) -> dict:
    """One row of a product at t = T = 2^K, column -> (e, re, im, d, h, g) as
    `_entry` gives them.  A product adds the exponents and multiplies the
    values and the bounds, as h(P1 P2) <= h1 h2; a sum is `_sum`."""
    acc: dict = {}
    get = acc.get
    for k, (e1, r1, i1, d1, h1, g1) in row.items():
        for j, (e2, r2, i2, d2, h2, g2) in orows[k].items():
            if i1 or i2:
                p = e1 + e2, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, d1 * d2, h1 * h2, g1 * g2
            else:
                p = e1 + e2, r1 * r2, 0, d1 * d2, h1 * h2, g1 * g2
            s = get(j)
            acc[j] = p if s is None else _sum(s, p, K, T)
    return acc


def _same(a, b, K: int, T: int):
    """Whether entries a and b of `_substituted_row` (None for zero) are equal
    in Q(i)(q), or None when the bound does not decide it.  Their difference
    q^e D/Q is zero iff D is: a nonzero D(t) proves D != 0 at any bound, and
    D(t) = 0 proves D = 0 when its bound h >= h(D) is at most t
    (`first_product_difference`)."""
    if b is not None:
        e, r, i, d, h, g = b
        b = e, -r, -i, d, h, g
        a = b if a is None else _sum(a, b, K, T)
    _, r, i, _, h, _ = a
    if r or i:
        return False
    return None if h > T else True


class UnreducedProduct:
    """x y for `first_product_difference` to read, kept as its factors.

    Not a `QMatrix`: the kernel reads its rows at t = 2^K (`substituted`),
    built with the kernel's row builder and never normalized.  An entry is
    dropped only when the bound proves it zero: P(t) = 0 with h <= t.  A
    failing record reads a row from the factors, normalized (`row`).
    """

    __slots__ = ("dim", "x", "y", "_subs")

    def __init__(self, x, y):
        self.dim, self.x, self.y, self._subs = x.dim, x, y, None

    def substituted(self, K: int) -> list:
        subs = self._subs
        if subs is None or subs[0] != K:
            T = 1 << K
            yrows = self.y.substituted(K)
            subs = self._subs = (K, [
                {j: v for j, v in _substituted_row(row, yrows, K, T).items()
                 if v[1] or v[2] or v[4] > T}
                for row in self.x.substituted(K)])
        return subs[1]

    def row(self, i: int) -> dict:
        return self.y.apply_left(self.x.row(i))

    def apply_left(self, vec: dict) -> dict:
        return self.y.apply_left(self.x.apply_left(vec))


def _first_substituted_difference(x, y, z, w, K: int):
    """(i, j) of the first entry where x y and z w differ, None when they are
    equal, or _UNDECIDED when the bound at t = 2^K does not decide the first
    entry that is not proven equal."""
    T = 1 << K
    yrows, wrows = y.substituted(K), w.substituted(K)
    for i, (xrow, zrow) in enumerate(zip(x.substituted(K), z.substituted(K))):
        left = _substituted_row(xrow, yrows, K, T)
        right = _substituted_row(zrow, wrows, K, T)
        open_ = [j for j in left.keys() | right.keys()
                 if _same(left.get(j), right.get(j), K, T) is not True]
        if open_:
            j = min(open_)
            return _UNDECIDED if _same(left.get(j), right.get(j), K, T) is None else (i, j)
    return None


def first_product_difference(x, y, z, w):
    """The first (i, j, (xy)[i][j], (zw)[i][j]) in row-major order, columns
    sorted, where the products x y and z w differ; None when they are equal.
    Each factor is a `QMatrix` or an `UnreducedProduct`.

    The products are decided on integers (Kronecker substitution; Harvey
    2009, J. Symbolic Comput. 44): q becomes t = 2^K, so an entry is a
    Gaussian integer over an integer with a net power of t, q^e P(t)/Q(t),
    a product of entries is one big-integer product and a power of t is a
    shift (`_entry`, `_substituted_row`).  Each entry carries exact bounds
    h >= h(P) and g >= h(Q), where h(P) is the sum of |re| + |im| over P's
    coefficients; h is submultiplicative, h(zw) <= h(z) h(w).

    Two entries q^e1 P1/Q1 and q^e2 P2/Q2 are equal iff
    D = P1 Q2 t^a - P2 Q1 t^b is the zero polynomial (a, b >= 0 align the
    exponents; Q(i)[q] is an integral domain and Q1, Q2 are nonzero), and
    h(D) <= H = h1 g2 + h2 g1: D is the numerator of their difference, as
    `_sum` builds it.  D(t) != 0 proves D != 0.  If H <= t, then D(t) = 0
    proves D = 0.  Proof: let D != 0 with D(t) = 0; its real or its
    imaginary part R is a nonzero integer polynomial with R(t) = 0.  Its
    lowest nonzero coefficient c_k is divisible by t, since
    R(t) / t^k = c_k + t (...), and R has a second nonzero coefficient, as
    R(t) != 0 otherwise.  So h(D) >= |c_k| + 1 >= t + 1.  When Q1(t) = Q2(t)
    and g1 + g2 <= t, the same argument on Q1 - Q2 shows Q1 = Q2, and then
    D = P1 t^a - P2 t^b with H = h1 + h2.

    So no entry is found equal above its bound: when D(t) = 0 and H > t, the
    whole call is redone at t^2, and a large coefficient costs time, never
    exactness.  The first mismatching entry is recomputed from the factors'
    normalized rows (`apply_left`), so the returned values are the canonical
    entries of the two products.
    """
    K = _K
    found = _first_substituted_difference(x, y, z, w, K)
    while found is _UNDECIDED:
        K *= 2
        found = _first_substituted_difference(x, y, z, w, K)
    if found is None:
        return None
    i, j = found
    left, right = y.apply_left(x.row(i)), w.apply_left(z.row(i))
    return i, j, left.get(j, ZERO), right.get(j, ZERO)
