"""Sparse square matrices over the exact scalar field Q(i)(q).

Products and sums of `QMatrix` values are canonical: every entry is a reduced
`QScalar`.  A matrix identity X Y = Z W is decided by `first_product_difference`
on integers, with no gcd: q is replaced by t = 2^K (Kronecker substitution),
so an entry is q^e P(t)/Q(t) with exact bounds on the coefficients of the
Gaussian-integer polynomials P and Q.  One routine, `_signed_row`, builds
every row the kernel reads: a row of X Y - Z W is one signed sum, and an
entry is decided only where its bound proves that P vanishes iff P(t) does;
otherwise that row alone is redone at t^2, from the factor rows it reads.
A call may list the rows it decides, each built from the factor rows it
reads, so a factor's kept rows serve a check that needs one row of a
product.  Only the first mismatching entry is computed symbolically, to
name it.  A factor may itself be a sum of products that nothing else reads,
such as A2 S A2 or c_den lead + c_num F_tilde: an `Unreduced` keeps its
terms, and its rows at t are built by the same routine.  So are the rows of
(A - r1)(A - r2) = A^2 - (r1 + r2) A + r1 r2 I (`first_quadratic_difference`)
and the scalar identities (`_vanishes`): a product of scalars against
another (`same_products`), a trace against its expected value
(`trace_matches`).  A `QMatrix` keeps its integer rows for the first K
(`substituted`), which a redone row neither reads nor replaces; I x A
(`IdentityKron`) keeps only A, places A's integer rows in its diagonal
blocks and applies A block by block.

`QMatrix.rank` is exact Gaussian elimination, which normalizes every pivot
step; a passing verify computes no rank (`verifier.check_min_poly` decides
the multiplicities by the trace), so it runs only to name a failure.
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
        per K, and only the latest K is kept.  The kernel asks only for its
        first K: a row it escalates to t^2 is read by `substituted_row`."""
        subs = self._subs
        if subs is None or subs[0] != K:
            subs = self._subs = (K, [{j: _entry(v, K) for j, v in row.items()}
                                     for row in self.rows])
        return subs[1]

    def substituted_row(self, i: int, K: int, memo: dict) -> dict:
        """Row i at t = 2^K alone, for `_row`."""
        return {j: _entry(v, K) for j, v in self.rows[i].items()}

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


class IdentityKron:
    """I x A, keeping only A: entry for entry `QMatrix.identity(n).kron(A)`,
    whose blocks share A's `QScalar`s.  So its rows at t = 2^K are A's rows
    at t placed in the blocks, block b at row and column offset b n, the
    very tuples `_entry` would give, and its normalized rows (`row`,
    `apply_left`, read only to name a failing entry) are read off A's."""

    __slots__ = ("dim", "block", "_subs")

    def __init__(self, A: QMatrix):
        self.dim, self.block, self._subs = A.dim * A.dim, A, None

    def row(self, i: int) -> dict:
        return self.apply_left({i: ONE})

    def apply_left(self, vec: dict) -> dict:
        """v^T (I x A): block b of v is applied to A and placed in block b."""
        n, parts = self.block.dim, {}
        for k, a in vec.items():
            b, r = divmod(k, n)
            parts.setdefault(b, {})[r] = a
        return {b * n + j: v for b, part in parts.items()
                for j, v in self.block.apply_left(part).items()}

    def substituted(self, K: int) -> list:
        subs = self._subs
        if subs is None or subs[0] != K:
            n, rows = self.block.dim, self.block.substituted(K)
            subs = self._subs = (K, [{b * n + j: v for j, v in row.items()}
                                     for b in range(n) for row in rows])
        return subs[1]

    def substituted_row(self, i: int, K: int, memo: dict) -> dict:
        n = self.block.dim
        b, r = divmod(i, n)
        return {b * n + j: v for j, v in _row(self.block, r, K, memo).items()}


def commutator(a: QMatrix, b: QMatrix) -> QMatrix:
    return a * b - b * a


def first_vector_difference(got: dict, want: dict):
    """First index where two sparse vectors differ, with both values, or None."""
    for k in sorted(got.keys() | want.keys()):
        a, b = got.get(k, ZERO), want.get(k, ZERO)
        if a != b:
            return k, a, b
    return None


# Bits of the first substitution point t = 2^K; a row whose bound reaches
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


def _product_entry(factors: list, K: int) -> tuple:
    """The product of scalars at t = 2^K as an entry (e, re, im, d, h, g) in
    `_entry`'s form.  A factor is a Laurent polynomial, read as its integer
    part over its integer denominator d (so h is h of the integer part and
    g = d), or a callable that gives its own entry at each K; the values,
    the denominators and the bounds multiply."""
    e, re, im, d, h, g = 0, 1, 0, 1, 1, 1
    for p in factors:
        if callable(p):
            e2, r, i, d2, h2, g2 = p(K)
        else:
            e2, r, i, d2, h2 = p.lo, _value(p.re, K), _value(p.im, K), p.den, _norm(p)
            g2 = d2
        e, re, im, d, h, g = e + e2, re * r - im * i, re * i + im * r, d * d2, h * h2, g * g2
    return e, re, im, d, h, g


# the scalar 1 as an entry
_ONE_ENTRY = (0, 1, 0, 1, 1, 1)


def _vanishes(terms) -> bool:
    """Whether the sum of sign x y over terms(K), a list of (sign, x, y)
    with sign +-1 and x, y entries at t = 2^K, is zero: decided as the
    kernel decides an entry, on one `_signed_row` at t, and again at t^2,
    ... while the bound leaves it open.  terms may give other entries at
    another K, so long as their sum is zero at every K or at none."""
    K = _K
    while True:
        found = _first_open(_signed_row(tuple((sign, {0: x}, ({0: y},))
                                              for sign, x, y in terms(K)), K), K)
        if found is not _UNDECIDED:
            return found is None
        K *= 2


def same_products(left: list, right: list) -> bool:
    """Whether the products of two lists of scalars are equal, each a
    Laurent polynomial or a callable giving its entry at t = 2^K
    (`_product_entry`): their difference is decided by `_vanishes`, with no
    polynomial product and no gcd."""
    return _vanishes(lambda K: ((1, _product_entry(left, K), _ONE_ENTRY),
                               (-1, _product_entry(right, K), _ONE_ENTRY)))


def trace_matches(A: QMatrix, exponents, expected) -> bool:
    """Whether sum_j q^(exponents[j]) A_jj, or the plain trace when exponents
    is None, equals the sum of x y over the pairs (x, y) of `QScalar`s in
    expected, decided by `_vanishes` on A's diagonal entries at t: A's kept
    rows at the first K, each entry converted alone at another."""
    def terms(K: int) -> list:
        subs = A._subs
        kept = subs[1] if subs is not None and subs[0] == K else None
        out = []
        for j, row in enumerate(A.rows):
            a = row.get(j)
            if a is not None:
                e, *rest = kept[j][j] if kept else _entry(a, K)
                out.append((1, (e + exponents[j] if exponents else e, *rest), _ONE_ENTRY))
        out += [(-1, _entry(x, K), _entry(y, K)) for x, y in expected]
        return out

    return _vanishes(terms)


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


def _signed_row(products, K: int) -> dict:
    """One row at t = 2^K of the sum of sign row orows over the products
    (sign, row, orows), sign +-1: column -> (e, re, im, d, h, g) as `_entry`
    gives them, every column a product reaches kept.  A product adds the
    exponents and multiplies the values and the bounds, as h(P1 P2) <= h1 h2;
    a sum is `_sum`, in the order the products come."""
    T = 1 << K
    acc: dict = {}
    get = acc.get
    for sign, row, orows in products:
        for k, (e1, r1, i1, d1, h1, g1) in row.items():
            if sign < 0:
                r1, i1 = -r1, -i1
            for j, (e2, r2, i2, d2, h2, g2) in orows[k].items():
                if i1 or i2:
                    p = e1 + e2, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, d1 * d2, h1 * h2, g1 * g2
                else:
                    p = e1 + e2, r1 * r2, 0, d1 * d2, h1 * h2, g1 * g2
                s = get(j)
                acc[j] = p if s is None else _sum(s, p, K, T)
    return acc


def _open(row: dict, K: int) -> dict:
    """The entries of a `_signed_row` that the bound does not prove zero:
    all but those with P(t) = 0 and h <= t."""
    T = 1 << K
    return {j: v for j, v in row.items() if v[1] or v[2] or v[4] > T}


def _first_open(row: dict, K: int):
    """The verdict on a `_signed_row` of a difference: None when the bound
    proves every entry zero, else its first open column j when the entry
    there is nonzero at t, and _UNDECIDED when it is zero at t."""
    open_ = _open(row, K)
    j = min(open_, default=None)
    return _UNDECIDED if j is not None and not (open_[j][1] or open_[j][2]) else j


class Unreduced:
    """The sum of c x y over its terms (c, x, y), kept as its terms for the
    kernel to read: c is a `QScalar`, None for 1, or a callable giving its
    entry at each t = 2^K (such a sum is read at t only), and y a factor, or
    None for a term c x.  x and y are `QMatrix`es or `Unreduced`s.

    Not a `QMatrix`: the kernel reads its rows at t = 2^K (`substituted`),
    built by `_signed_row` and never normalized, and an entry is dropped
    only when the bound proves it zero: P(t) = 0 with h <= t.  A lone
    product x y, the reflection check's operand, is built row by row from
    the factors' kept rows; any other sum reads each factor's rows as `_row`
    does, so a factor that the kernel has not converted keeps no rows.  Rows
    are normalized (`row`, `apply_left`) only to name a failing entry, and
    for the projector's w.
    """

    __slots__ = ("dim", "terms", "_subs")

    def __init__(self, *terms):
        self.dim, self.terms, self._subs = terms[0][1].dim, terms, None

    def substituted(self, K: int) -> list:
        subs = self._subs
        if subs is None or subs[0] != K:
            (c, x, y), *more = self.terms
            if c is None and y is not None and not more:
                yrows = y.substituted(K)
                rows = [_open(_signed_row(((1, row, yrows),), K), K)
                        for row in x.substituted(K)]
            else:
                memo: dict = {}
                rows = [self.substituted_row(i, K, memo) for i in range(self.dim)]
            subs = self._subs = (K, rows)
        return subs[1]

    def substituted_row(self, i: int, K: int, memo: dict) -> dict:
        """Row i at t = 2^K: the rows c(t) (x y)_i of the terms, summed, with
        each x y from row i of x and the rows of y it reads."""
        rows = {}
        for k, (_, x, y) in enumerate(self.terms):
            row = _row(x, i, K, memo)
            if row:
                rows[k] = row if y is None else _signed_row(
                    ((1, row, {l: _row(y, l, K, memo) for l in row}),), K)
        if not rows:
            return rows
        scalars = memo.get(id(self))
        if scalars is None:
            scalars = memo[id(self)] = [
                c(K) if callable(c) else _entry(ONE if c is None else c, K)
                for c, _, _ in self.terms]
        return _open(_signed_row(((1, {k: scalars[k] for k in rows}, rows),), K), K)

    def row(self, i: int) -> dict:
        return self.apply_left({i: ONE})

    def apply_left(self, vec: dict) -> dict:
        """v^T times the sum, normalized."""
        acc: dict = {}
        for c, x, y in self.terms:
            row = x.apply_left(vec)
            for j, v in (row if y is None else y.apply_left(row)).items():
                v = v if c is None else c * v
                s = acc.get(j)
                acc[j] = v if s is None else s + v
        return {j: v for j, v in acc.items() if v}


def _row(m, i: int, K: int, memo: dict) -> dict:
    """Row i of a factor m at t = 2^K: m's kept rows when they are for K,
    else built alone and kept in memo, one dict per K and call.  So a row
    escalated to t^2 builds only the factor rows it reads, and no factor's
    rows kept for the first K are replaced."""
    subs = m._subs
    if subs is not None and subs[0] == K:
        return subs[1][i]
    key = id(m), i
    row = memo.get(key)
    if row is None:
        row = memo[key] = m.substituted_row(i, K, memo)
    return row


def _difference_row(x, y, z, w, i: int, K: int, memo: dict) -> dict:
    """Row i of x y - z w at t = 2^K as one `_signed_row`, built from the
    factor rows it reads (`_row`)."""
    xrow, zrow = _row(x, i, K, memo), _row(z, i, K, memo)
    return _signed_row(((1, xrow, {k: _row(y, k, K, memo) for k in xrow}),
                        (-1, zrow, {k: _row(w, k, K, memo) for k in zrow})), K)


def _escalated_row(x, y, z, w, i: int, K: int, memo: dict):
    """`_first_open` on row i of x y - z w at t = 2^K (`_difference_row`)."""
    return _first_open(_difference_row(x, y, z, w, i, K, memo), K)


def _first_mismatch(rows, firsts, redo):
    """(i, j) of the first mismatch among rows, whose verdicts at t = 2^K
    come in firsts (`_first_open`), or None: an undecided row i is redone
    alone as redo(i, K, memo) at t^2, t^4, ..., one memo per K, and the
    next row's verdict is read at t again."""
    memos: dict = {}
    for i, j in zip(rows, firsts):
        K = _K
        while j is _UNDECIDED:
            K *= 2
            j = redo(i, K, memos.setdefault(K, {}))
        if j is not None:
            return i, j
    return None


def first_product_mismatch(x, y, z, w, rows=None):
    """(i, j) of the first entry, in row-major order with columns sorted,
    where x y and z w differ, or None when they are equal:
    `first_product_difference` without the two values.  Each row of
    x y - z w is built at t = 2^K as one signed sum (`_signed_row`); a row
    whose first open entry is zero at t is redone alone at t^2, t^4, ...
    (`_escalated_row`), and the next row is built at t again.  With `rows`,
    only those rows are decided, each built by `_escalated_row` from the
    factor rows it reads, so no factor is converted whole."""
    K = _K

    def redo(i: int, k: int, memo: dict):
        return _escalated_row(x, y, z, w, i, k, memo)

    if rows is None:
        yrows, wrows = y.substituted(K), w.substituted(K)
        rows = range(x.dim)
        firsts = (_first_open(_signed_row(((1, xrow, yrows), (-1, zrow, wrows)), K), K)
                  for xrow, zrow in zip(x.substituted(K), z.substituted(K)))
    else:
        rows, memo = sorted(rows), {}
        firsts = (redo(i, K, memo) for i in rows)
    return _first_mismatch(rows, firsts, redo)


def difference_entry(x, y, z, w, i: int, j: int, K: int) -> tuple:
    """Entry (i, j) of x y - z w at t = 2^K, (e, re, im, d, h, g) as
    `_signed_row` builds it, from the factors' kept rows at the first K and
    from rows built alone at another; (0, 0, 0, 1, 0, 1) where no product
    reaches it."""
    return _difference_row(x, y, z, w, i, K, {}).get(j, (0, 0, 0, 1, 0, 1))


def cleared_quotient(a: tuple, b: tuple) -> tuple:
    """(den, num), entries over 1 with num / den = -a / b, for entries
    a = q^ea Pa/Qa and b = q^eb Pb/Qb with Pb != 0: den = q^eb Pb Qa and
    num = -q^ea Pa Qb, with the bounds hb ga and ha gb (h is
    submultiplicative).  Qa and Qb are real at t, so each is one product
    per part."""
    ea, ra, ia, da, ha, ga = a
    eb, rb, ib, db, hb, gb = b
    return (eb, rb * da, ib * da, 1, hb * ga, 1), (ea, -ra * db, -ia * db, 1, ha * gb, 1)


def first_quadratic_difference(A: QMatrix, r1: QScalar, r2: QScalar):
    """The first (i, j, value, 0), in row-major order with columns sorted,
    where (A - r1)(A - r2) is nonzero, or None when it is zero.  Row i is
    A_i A - r1 A_i - r2 A_i + r1 r2 e_i, one `_signed_row` over A's rows at
    t (its kept rows at the first K), decided and redone as
    `first_product_mismatch` decides a row; so no A - r I is formed.  Only
    the mismatching entry is normalized, to name it."""
    K = _K
    A.substituted(K)

    roots: dict = {}

    def decide(i: int, k: int, memo: dict):
        l1, l2 = roots.get(k) or roots.setdefault(k, (_entry(r1, k), _entry(r2, k)))
        row = _row(A, i, k, memo)
        return _first_open(_signed_row(((1, row, {l: _row(A, l, k, memo) for l in row}),
                                        (-1, {i: l1}, {i: row}), (-1, {i: l2}, {i: row}),
                                        (1, {i: l1}, {i: {i: l2}})), k), k)

    memo: dict = {}
    found = _first_mismatch(range(A.dim), (decide(i, K, memo) for i in range(A.dim)), decide)
    if found is None:
        return None
    i, j = found
    value = A.apply_left(A.row(i)).get(j, ZERO) - (r1 + r2) * A.get(i, j)
    return i, j, value + r1 * r2 if i == j else value, ZERO


def first_product_difference(x, y, z, w, rows=None):
    """The first (i, j, (xy)[i][j], (zw)[i][j]) in row-major order, columns
    sorted, where the products x y and z w differ; None when they are equal.
    Each factor is a `QMatrix`, an `IdentityKron` or an `Unreduced`.  With
    `rows`, only those rows are decided (`first_product_mismatch`).

    The products are decided on integers (Kronecker substitution; Harvey
    2009, J. Symbolic Comput. 44): q becomes t = 2^K, so an entry is a
    Gaussian integer over an integer with a net power of t, q^e P(t)/Q(t),
    a product of entries is one big-integer product and a power of t is a
    shift (`_entry`, `_signed_row`).  Each entry carries exact bounds
    h >= h(P) and g >= h(Q), where h(P) is the sum of |re| + |im| over P's
    coefficients; h is submultiplicative, h(zw) <= h(z) h(w).

    Row i of x y - z w is one sum (`_signed_row`): the products of x_i y are
    added and those of z_i w subtracted, into one dict.  Its entry j is
    q^e P/Q = (xy)_ij - (zw)_ij, Q nonzero, with h >= h(P): `_sum` builds
    q^e1 P1/Q1 + q^e2 P2/Q2 as q^e (P1 Q2 t^a + P2 Q1 t^b)/(Q1 Q2), where
    a, b >= 0 align the exponents, with the bound h1 g2 + h2 g1.  Q(i)[q] is
    an integral domain, so (xy)_ij = (zw)_ij iff P = 0.  P(t) != 0 proves
    P != 0.  If h <= t, then P(t) = 0 proves P = 0.  Proof: let P != 0 with
    P(t) = 0; its real or its imaginary part R is a nonzero integer
    polynomial with R(t) = 0.  Its lowest nonzero coefficient c_k is
    divisible by t, since R(t) / t^k = c_k + t (...), and R has a second
    nonzero coefficient, as R(t) != 0 otherwise.  So h(P) >= |c_k| + 1 >=
    t + 1.  When Q1(t) = Q2(t) and g1 + g2 <= t, the same argument on
    Q1 - Q2 shows Q1 = Q2, and `_sum` adds the numerators, with the bound
    h1 + h2.

    The order of the products changes P, Q and h, never P/Q, so the entry
    has the value at t of left - right in any order; only its bound can
    change, which can move a row into a redo but never change a verdict.
    So no entry is found equal above its bound: a row's first open entry
    (`_first_open`) is a mismatch when P(t) != 0, and when P(t) = 0 and
    h > t that row alone is redone at t^2 (`_escalated_row`): a large
    coefficient costs time, never exactness.  The rows before it are proven
    equal, and each row's verdict is exact at any t, so the first mismatch
    is the one a redo of the whole call at t^2 would find.  The first
    mismatching entry is recomputed from the factors' normalized rows
    (`apply_left`), so the returned values are the canonical entries of the
    two products.
    """
    found = first_product_mismatch(x, y, z, w, rows)
    if found is None:
        return None
    i, j = found
    left, right = y.apply_left(x.row(i)), w.apply_left(z.row(i))
    return i, j, left.get(j, ZERO), right.get(j, ZERO)
