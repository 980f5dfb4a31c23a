"""Exact scalars for the field Q(i)(q).

Elements are fractions of Laurent polynomials in q whose coefficients are
Gaussian rationals.  Every value is kept in a canonical reduced form so that
equality is structural and zero tests are exact.

A Gaussian rational is the integer triple (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1.  Each operation works on the integers (sums over a shared
denominator add a and b only; the inverse is d*(a - b*i)/(a^2 + b^2)) and
reduces its result by one three-way gcd, skipped when the denominator is 1.
The Fraction components re = a/d and im = b/d are computed only on request.

A Laurent polynomial is stored the same way, as Gaussian-integer arrays over
one denominator: the coefficient of q^(lo + k) is (re[k] + i*im[k])/den.  Its
canonical form has den > 0, gcd(re, im, den) = 1, both end coefficients
nonzero, im = () when every imaginary part is 0, and zero as lo = 0 with
re = im = () over 1; equal values then have equal fields.  A product is an
integer convolution (real-only when both im are ()) followed by one gcd of
its content against the product of the denominators; a sum aligns the
exponents over the lcm of the two denominators.  The integer part of a
polynomial is re + i*im, the polynomial times den.

Normalization cancels the gcd of numerator and denominator.  A reduced
numerator and denominator are not normalized again: a sum with zero is the
other operand, a sum over one shared denominator normalizes only the new
numerator, a unit c*q^k times a reduced fraction is reduced already, and a
denominator whose constant coefficient is 1 is not rescaled.  The integer
parts differ from the polynomials by nonzero constants, so they have the same
gcd over Q(i), and the gcd runs on them in Z[i][q] as a primitive remainder
sequence (Collins 1967; Brown and Traub 1971): each pseudo-remainder is
divided by its content, a gcd in Z[i] of its coefficients found by Euclid with
rounded quotients, and the last nonzero one is a primitive gcd h.  Z[i] is a
unique factorization domain, so by Gauss's lemma h divides each integer part
in Z[i][q]: each cofactor is an exact division, and an inexact one raises.
Most pairs are coprime, so before the gcd the integer parts are mapped to F_P,
with P = 4611686018427387817 a prime = 1 (mod 4) and i sent to a fixed square
root s of -1 mod P: the image of the coefficient a + b*i is a + s*b mod P.  If
the gcd over F_P is a constant, the pair is coprime over Q(i) and the gcd over
Z[i] is skipped; any other outcome (a leading coefficient that vanishes mod P,
a nonconstant gcd mod P) runs it.  This is a proof, not a probabilistic test:
reduction modulo the prime (P, i - s) is a ring map from Z[i] onto F_P, and it
extends to the local ring R = Z[i]_(P, i - s), which holds every Gaussian
integer.  R is a discrete valuation ring, so by Gauss's lemma the true gcd h
can be taken primitive in R[q], and each of the two integer parts, lying in
Z[i][q], is h times a cofactor in R[q].  The leading coefficient of h divides
a leading coefficient that survives the reduction, so it survives too: the
image of h keeps deg h and divides both images.  Hence the degree of the gcd
mod P is at least deg h, and degree 0 mod P proves the pair coprime.  The
certificate never claims a common factor.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class PoleAtOneError(ArithmeticError):
    """Raised when a scalar is evaluated at q = 1 but its denominator vanishes there."""


class ScalarParseError(ValueError):
    """Raised on malformed scalar literals; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GaussRational:
    """An element (a + b*i)/d of Q(i): integers a, b, d with d > 0 and
    gcd(a, b, d) = 1, so that equal values have equal fields."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            dr, di = re.denominator, im.denominator
            d = dr * di // gcd(dr, di)
            a, b = re.numerator * (d // dr), im.numerator * (d // di)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        d, f = self.d, other.d
        if d == f:
            a, b = self.a + other.a, self.b + other.b
        else:
            a, b, d = self.a * f + other.a * d, self.b * f + other.b * d, d * f
        return _reduced(a, b, d)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return self + (-other)

    def __neg__(self) -> "GaussRational":
        return _gauss(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            a, b = a * c - b * e, a * e + b * c
        else:
            a *= c
        return _reduced(a, b, self.d * other.d)

    def inv(self) -> "GaussRational":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        return self * other.inv()

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __repr__(self) -> str:
        return f"GaussRational({self.re}, {self.im})"


_new = object.__new__
_set_a = GaussRational.a.__set__
_set_b = GaussRational.b.__set__
_set_d = GaussRational.d.__set__


def _gauss(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d from fields already in lowest terms (d > 0)."""
    out = _new(GaussRational)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _reduced(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d in lowest terms, for d > 0: one three-way gcd, skipped
    when d is already 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _gauss(a, b, d)


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class LaurentPoly:
    """A Laurent polynomial in q over Q(i): the coefficient of q^(lo + k) is
    (re[k] + i*im[k])/den, in the canonical form of the module docstring.

    `LaurentPoly(coeff)` takes a dict exponent -> GaussRational; `coeff`
    reads the value back as such a dict, without zero coefficients.
    """

    __slots__ = ("lo", "re", "im", "den")

    def __init__(self, coeff: dict | None = None):
        lo, re, im, den = 0, [], [], 1
        keys = sorted(k for k, v in coeff.items() if v) if coeff else ()
        if keys:
            lo = keys[0]
            den = lcm(*(coeff[k].d for k in keys))
            re = [0] * (keys[-1] - lo + 1)
            im = list(re)
            for k in keys:
                c = coeff[k]
                m = den // c.d
                re[k - lo], im[k - lo] = c.a * m, c.b * m
        _set_lo(self, lo)
        _set_re(self, tuple(re))
        _set_im(self, tuple(im) if any(im) else ())
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def gauss(cls, c: GaussRational) -> "LaurentPoly":
        return cls.q_power(0, c)

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return _poly(0, (n,), (), 1) if n else LP_ZERO

    @classmethod
    def q_power(cls, k: int, c: GaussRational = GR_ONE) -> "LaurentPoly":
        return _poly(k, (c.a,), (c.b,) if c.b else (), c.d) if c else LP_ZERO

    @property
    def coeff(self) -> dict:
        re, im, d = self.re, self.im or (0,) * len(self.re), self.den
        return {k: _reduced(a, b, d)
                for k, a, b in zip(range(self.lo, self.lo + len(re)), re, im) if a or b}

    def __bool__(self) -> bool:
        return bool(self.re)

    @property
    def is_one(self) -> bool:
        return self.re == _ONE_RE and self.lo == 0 and self.den == 1 and not self.im

    def min_exp(self) -> int:
        return self.lo

    def max_exp(self) -> int:
        return self.lo + len(self.re) - 1

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        r1, r2 = self.re, other.re
        if not r1:
            return other
        if not r2:
            return self
        i1, i2, d = self.im, other.im, self.den
        if d != other.den:
            g = gcd(d, other.den)
            m1, m2 = other.den // g, d // g
            d *= m1
            r1, i1 = [x * m1 for x in r1], [x * m1 for x in i1]
            r2, i2 = [x * m2 for x in r2], [x * m2 for x in i2]
        lo = min(self.lo, other.lo)
        o1, o2 = self.lo - lo, other.lo - lo
        n = max(o1 + len(r1), o2 + len(r2))
        re = _spread(n, o1, r1, o2, r2)
        im = _spread(n, o1, i1, o2, i2) if i1 or i2 else ()
        # cancellation may leave zero end coefficients
        nonzero = [k for k, x in enumerate(re) if x or im and im[k]]
        if not nonzero:
            return LP_ZERO
        a, b = nonzero[0], nonzero[-1] + 1
        return _reduce(lo + a, re[a:b], im[a:b], d)

    def __neg__(self) -> "LaurentPoly":
        return _poly(self.lo, tuple([-x for x in self.re]), tuple([-x for x in self.im]), self.den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        r1, r2 = self.re, other.re
        if not r1 or not r2:
            return LP_ZERO
        i1, i2 = self.im, other.im
        if i1 and i2:
            re, im = _complex_conv(r1, i1, r2, i2)
        else:
            re = _conv(r1, r2)
            if i1:
                im = _conv(i1, r2)
            elif i2:
                im = _conv(r1, i2)
            else:
                im = ()
        return _reduce(self.lo + other.lo, re, im, self.den * other.den)

    def at_one(self) -> GaussRational:
        return _reduced(sum(self.re), sum(self.im), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.lo == other.lo and self.den == other.den and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.lo, self.re, self.im, self.den))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeff!r})"


_ONE_RE = (1,)
_set_lo = LaurentPoly.lo.__set__
_set_re = LaurentPoly.re.__set__
_set_im = LaurentPoly.im.__set__
_set_den = LaurentPoly.den.__set__


def _poly(lo: int, re: tuple, im: tuple, den: int) -> LaurentPoly:
    """A LaurentPoly from fields already in canonical form."""
    out = _new(LaurentPoly)
    _set_lo(out, lo)
    _set_re(out, re)
    _set_im(out, im)
    _set_den(out, den)
    return out


def _reduce(lo: int, re, im, den: int) -> LaurentPoly:
    """The canonical LaurentPoly of (re + i*im)/den, for nonzero end
    coefficients and den > 0: one gcd of the content against den, skipped
    when den is 1, and im dropped when it is all zero."""
    if den != 1:
        g = gcd(den, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = [x // g for x in im]
            den //= g
    return _poly(lo, tuple(re), tuple(im) if any(im) else (), den)


def _conv(x, y) -> list:
    """The coefficients of the product of two integer polynomials."""
    if len(x) == 1:
        a = x[0]
        return [a * b for b in y]
    if len(y) == 1:
        b = y[0]
        return [a * b for a in x]
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                out[j] += a * b
    return out


def _complex_conv(r1, i1, r2, i2) -> tuple:
    """The real and imaginary coefficients of the product of two Gaussian
    integer polynomials r1 + i*i1 and r2 + i*i2."""
    n = len(r1) + len(r2) - 1
    re, im = [0] * n, [0] * n
    for k, (a, b) in enumerate(zip(r1, i1)):
        for j, (c, e) in enumerate(zip(r2, i2), k):
            re[j] += a * c - b * e
            im[j] += a * e + b * c
    return re, im


def _spread(n: int, o1: int, x1, o2: int, x2) -> list:
    """x1 placed at offset o1 plus x2 placed at offset o2, in a list of n."""
    out = [0] * n
    out[o1:o1 + len(x1)] = x1
    for k, b in enumerate(x2, o2):
        out[k] += b
    return out


def _scaled(p: LaurentPoly, lo: int, a: int, b: int, d: int) -> LaurentPoly:
    """p times (a + b*i)/d, moved to start at q^lo; d > 0 and a + b*i != 0."""
    re, im = p.re, p.im or (0,) * len(p.re)
    return _reduce(lo, [x * a - y * b for x, y in zip(re, im)],
                   [x * b + y * a for x, y in zip(re, im)], p.den * d)


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly.from_int(1)


# the coprimality certificate of the module docstring
_P = 4611686018427387817


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod a prime p = 1 (mod 4): g^((p-1)/4) for the
    least quadratic non-residue g."""
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)


_I_MOD_P = _sqrt_minus_one(_P)
assert _I_MOD_P * _I_MOD_P % _P == _P - 1


def _dense_mod_p(p: LaurentPoly) -> list:
    """The image in F_P of the integer part of p, from q^lo up: a + s*b mod P
    for each coefficient a + b*i."""
    if p.im:
        return [(a + _I_MOD_P * b) % _P for a, b in zip(p.re, p.im)]
    return [a % _P for a in p.re]


def _rem_mod_p(a: list, b: list) -> list:
    """Remainder of a by b over F_P, trailing zeros stripped; b[-1] != 0."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, _P)
    while len(a) > db:
        f = a[-1] * inv % _P
        if f:
            shift = len(a) - 1 - db
            for i in range(db):
                a[shift + i] = (a[shift + i] - f * b[i]) % _P
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _coprime_mod_p(num: LaurentPoly, den: LaurentPoly) -> bool:
    """True when the gcd of the images in F_P is a constant, which proves num
    and den coprime over Q(i); False when the certificate decides nothing."""
    a, b = _dense_mod_p(num), _dense_mod_p(den)
    if not a[-1] or not b[-1]:
        return False
    while len(b) > 1:
        a, b = b, _rem_mod_p(a, b)
    return len(b) == 1


# --- the gcd over Z[i] of the module docstring ------------------------------

def _parts(p: LaurentPoly) -> tuple:
    """The integer part of p as integer sequences (re, im) from q^lo up."""
    return p.re, p.im or (0,) * len(p.re)


def _gauss_gcd(a: int, b: int, c: int, e: int) -> tuple:
    """A gcd in Z[i] of a + b*i and c + e*i, by Euclid with the quotient
    (a + b*i)(c - e*i)/n, n = c^2 + e^2, rounded part by part."""
    while c or e:
        n = c * c + e * e
        u, v = (2 * (a * c + b * e) + n) // (2 * n), (2 * (b * c - a * e) + n) // (2 * n)
        a, b, c, e = c, e, a - u * c + v * e, b - u * e - v * c
    return a, b


def _divmod(ar: list, ai: list, br: list, bi: list) -> tuple:
    """The quotient and remainder of a by b in Z[i][q], the remainder without
    trailing zeros; raises when a quotient coefficient is not in Z[i]."""
    ar, ai, n, lr, li = list(ar), list(ai), len(br) - 1, br[-1], bi[-1]
    m = lr * lr + li * li
    qr, qi = [], []
    while len(ar) > n:
        cr, ci = ar.pop(), ai.pop()
        u, v = cr * lr + ci * li, ci * lr - cr * li
        if u % m or v % m:
            raise ArithmeticError("inexact polynomial division")
        u, v = u // m, v // m
        for k in range(n):
            s = len(ar) - n + k
            ar[s] -= u * br[k] - v * bi[k]
            ai[s] -= u * bi[k] + v * br[k]
        qr.append(u)
        qi.append(v)
    while ar and not (ar[-1] or ai[-1]):
        ar.pop()
        ai.pop()
    return (qr[::-1], qi[::-1]), (ar, ai)


def _primitive(re: list, im: list) -> tuple:
    """re + i*im divided by its content, a gcd in Z[i] of its coefficients."""
    a = b = 0
    for x, y in zip(re, im):
        a, b = _gauss_gcd(x, y, a, b)
    return _divmod(re, im, [a], [b])[0]


def _primitive_gcd(x: tuple, y: tuple) -> tuple:
    """A primitive gcd in Z[i][q] of two nonzero polynomials over Z[i], by the
    primitive remainder sequence; ([1], [0]) when they are coprime."""
    y = _primitive(*y)
    while len(y[0]) > 1:
        # the pseudo-remainder: lc(y)^(deg x - deg y + 1) x mod y
        (ar, ai), (br, bi) = x, y
        for _ in range(len(ar) - len(br) + 1):
            ar, ai = ([u * br[-1] - v * bi[-1] for u, v in zip(ar, ai)],
                      [u * bi[-1] + v * br[-1] for u, v in zip(ar, ai)])
        r = _divmod(ar, ai, br, bi)[1]
        if not r[0]:
            return y
        x, y = y, _primitive(*r)
    return [1], [0]


def _quotient(p: LaurentPoly, g: tuple) -> LaurentPoly:
    """p divided by a divisor g in Z[i][q] of its integer part, from q^0 up."""
    (qr, qi), r = _divmod(*_parts(p), *g)
    if r[0]:
        raise ArithmeticError("inexact polynomial division")
    return _reduce(0, qr, qi, p.den)


class QScalar:
    """An element of Q(i)(q) in canonical form.

    Invariants: the denominator has minimal exponent 0 and constant coefficient 1,
    shares no polynomial factor with the numerator, and zero is stored as 0/1.
    Any net power of q lives in the numerator.  num is an int, a
    `GaussRational` or a `LaurentPoly`; den a `LaurentPoly`, or None for 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        elif isinstance(num, GaussRational):
            num = LaurentPoly.gauss(num)
        if den is None:
            den = LP_ONE
        if not den:
            raise ZeroDivisionError("division by zero in Q(i)(q)")
        if not num:
            object.__setattr__(self, "num", LP_ZERO)
            object.__setattr__(self, "den", LP_ONE)
            return
        if den.is_one:
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", LP_ONE)
            return
        net = num.lo - den.lo
        if len(den.re) > 1 and not _coprime_mod_p(num, den):
            g = _primitive_gcd(_parts(num), _parts(den))
            if len(g[0]) > 1:
                num, den = _quotient(num, g), _quotient(den, g)
        a, d = den.re[0], den.den
        b = den.im[0] if den.im else 0
        if b or a != d:
            # divide both by the constant coefficient c = (a + b*i)/d of the
            # denominator: multiply by 1/c = d*(a - b*i)/(a^2 + b^2)
            if b:
                a, b, d = d * a, -d * b, a * a + b * b
            elif a < 0:
                a, d = -d, -a
            else:
                a, d = d, a
            num, den = _scaled(num, net, a, b, d), _scaled(den, 0, a, b, d)
        else:
            if num.lo != net:
                num = _poly(net, num.re, num.im, num.den)
            if den.lo:
                den = _poly(0, den.re, den.im, den.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", LP_ONE if den.is_one else den)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar is immutable")

    @classmethod
    def from_gauss(cls, c: GaussRational) -> "QScalar":
        return cls(LaurentPoly.gauss(c))

    @classmethod
    def q_power(cls, k: int) -> "QScalar":
        return cls(LaurentPoly.q_power(k))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "QScalar") -> "QScalar":
        if not (self.num.re and other.num.re):  # a sum with zero: the other operand, reduced
            return self if self.num.re else other
        if self.den.is_one and other.den.is_one:
            s = self.num + other.num
            out = QScalar.__new__(QScalar)
            object.__setattr__(out, "num", s)
            object.__setattr__(out, "den", LP_ONE)
            return out
        if self.den == other.den:
            return QScalar(self.num + other.num, self.den)
        return QScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        out = QScalar.__new__(QScalar)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __mul__(self, other: "QScalar") -> "QScalar":
        # a polynomial times a polynomial, or a unit c*q^k times a reduced
        # fraction, is already reduced
        if self.den.is_one and (other.den.is_one or len(self.num.re) == 1):
            den = other.den
        elif other.den.is_one and len(other.num.re) == 1:
            den = self.den
        else:
            return QScalar(self.num * other.num, self.den * other.den)
        out = QScalar.__new__(QScalar)
        object.__setattr__(out, "num", self.num * other.num)
        object.__setattr__(out, "den", den)
        return out

    def inv(self) -> "QScalar":
        return QScalar(self.den, self.num)

    def __truediv__(self, other: "QScalar") -> "QScalar":
        return QScalar(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "QScalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"QScalar({render_scalar(self)!r})"


ZERO = QScalar(0)
ONE = QScalar(1)
Q = QScalar.q_power(1)
QINV = QScalar.q_power(-1)
I_UNIT = QScalar.from_gauss(GR_I)


def q_integer(z: int) -> QScalar:
    """The balanced q-integer (q^z - q^-z)/(q - q^-1)."""
    if z == 0:
        return ZERO
    if z < 0:
        return -q_integer(-z)
    # geometric form: q^(z-1) + q^(z-3) + ... + q^(1-z)
    return QScalar(LaurentPoly({z - 1 - 2 * j: GR_ONE for j in range(z)}))


def eval_at_one(x: QScalar) -> GaussRational:
    """Evaluate at q = 1; raises PoleAtOneError if the denominator vanishes there."""
    d = x.den.at_one()
    if not d:
        raise PoleAtOneError("denominator vanishes at q = 1")
    return x.num.at_one() / d


# --- literal rendering ------------------------------------------------------

def _render_ratio(n: int, d: int) -> str:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _render_coeff(a: int, b: int, d: int) -> str:
    """Render (a + b*i)/d, for d > 0; mixed values get wrapped in parentheses."""
    if not b:
        return _render_ratio(a, d)
    im = "i" if b == d else "-i" if b == -d else f"{_render_ratio(b, d)}*i"
    if not a:
        return im
    return f"({_render_ratio(a, d)}-{im[1:]})" if b < 0 else f"({_render_ratio(a, d)}+{im})"


def _render_poly(p: LaurentPoly) -> str:
    """The terms from the highest power of q down, joined by " + " or " - "."""
    re, im, d = p.re, p.im or (0,) * len(p.re), p.den
    out = ""
    for k in range(len(re) - 1, -1, -1):
        if not (re[k] or im[k]):
            continue
        e = p.lo + k
        term = _render_coeff(re[k], im[k], d)
        if e:
            mono = "q" if e == 1 else f"q^{e}"
            term = mono if term == "1" else f"-{mono}" if term == "-1" else f"{term}*{mono}"
        out += term if not out else f" - {term[1:]}" if term[0] == "-" else f" + {term}"
    return out or "0"


def render_scalar(x: QScalar) -> str:
    """Canonical literal form; reparsing it reproduces the same value."""
    if x.den.is_one:
        return _render_poly(x.num)
    return f"({_render_poly(x.num)})/({_render_poly(x.den)})"


# --- literal parsing --------------------------------------------------------

# bounds on each literal exponent, on the degree of a power and (at four
# times it) on each unreduced product and sum keep parsing fast:
# (q + 1)^256 already takes seconds, ((q^64)^64)^64 + 1 holds 262145
# coefficients, and 400 factors (q + 1)^64 multiplied out ran past 30 s
MAX_EXPONENT = 64
# bound on parenthesis nesting: each level takes four stack frames of the
# recursive descent, so this stays far below Python's recursion limit
MAX_NESTING = 64


def _power_degree(x: QScalar) -> int:
    """The larger of the exponent spread of numerator plus denominator and the
    largest |exponent| of either; k times it bounds the exponents of x^k."""
    if not x:
        return 0
    n, d = x.num, x.den
    spread = (n.max_exp() - n.min_exp()) + (d.max_exp() - d.min_exp())
    return max(spread, -n.min_exp(), n.max_exp(), -d.min_exp(), d.max_exp())


# 1 as a side of `_Parser`'s pair: the tuple (e, a, b) is (a + b*i) q^e
_T_ONE = (0, 1, 0)


def _lp(x) -> LaurentPoly:
    """A side of the parser's pair as a LaurentPoly."""
    return _poly(x[0], (x[1],), (x[2],) if x[2] else (), 1) if type(x) is tuple else x


def _mul(x, y):
    if type(x) is tuple and type(y) is tuple:
        (e, a, b), (f, c, d) = x, y
        return e + f, a * c - b * d, a * d + b * c
    return _lp(x) * _lp(y)


def _add(x, y):
    if type(x) is tuple and type(y) is tuple and x[0] == y[0]:
        a, b = x[1] + y[1], x[2] + y[2]
        return (x[0], a, b) if a or b else LP_ZERO
    return _lp(x) + _lp(y)


def _span(x) -> tuple:
    """The lowest and highest exponent of a nonzero side."""
    return (x[0], x[0]) if type(x) is tuple else (x.lo, x.lo + len(x.re) - 1)


def _same(x, y) -> bool:
    return x == y if type(x) is tuple and type(y) is tuple else _lp(x) == _lp(y)


class _Parser:
    """Recursive-descent parser for scalar literals over {digits 0-9, i, q, + - * / ^, parens}.

    A subexpression is an unreduced fraction (num, den): a product
    multiplies numerators and denominators, a quotient cross-multiplies, and
    a sum adds numerators over an equal denominator and cross-multiplies
    otherwise.  A side that is a single term (a + b*i) q^e with a nonzero
    Gaussian-integer coefficient is the int tuple (e, a, b); products and
    same-exponent sums of tuples are integer arithmetic, with no LaurentPoly
    and no gcd.  A side becomes a LaurentPoly only when a sum has two
    exponents (or is zero) or a factor is one already.  Only the whole
    literal and each base of `^` are normalized, the base so that the degree
    bound reads its canonical form.  A tuple over 1, such as a bare q, is
    canonical already, so its `^k` is a tuple too, and so is its `^-k` when
    a + b*i is a unit.  Numerator and denominator are kept apart, so every bound
    reads the exponents of the multiplied-out polynomials.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _peek(self) -> str:
        """The next character after whitespace, which is skipped; "" at the end."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else ""

    def _take(self) -> str:
        """Consume the character that `_peek` has just returned."""
        self.pos += 1
        return self.text[self.pos - 1]

    def parse(self) -> QScalar:
        num, den = self.expr()
        if self._peek():
            raise ScalarParseError(f"unexpected character {self._peek()!r}", self.pos)
        return QScalar(_lp(num), _lp(den))

    def _bound(self, a, b, lo: int = 0, hi: int = 0) -> tuple:
        """The exponent range of the product a b joined with [lo, hi], which
        holds 0, read off the factors before anything is formed.  A range
        that spans more than 4 MAX_EXPONENT powers of q is refused; as it
        holds 0, that also refuses an |exponent| above 4 MAX_EXPONENT."""
        if a and b:
            (la, ha), (lb, hb) = _span(a), _span(b)
            lo, hi = min(lo, la + lb), max(hi, ha + hb)
            if hi - lo > 4 * MAX_EXPONENT:
                raise ScalarParseError(f"product or sum of degree above {4 * MAX_EXPONENT}",
                                       self.pos)
        return lo, hi

    def expr(self) -> tuple:
        num, den = self.term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rnum, rden = self.term()
            if op == "-":
                rnum = (rnum[0], -rnum[1], -rnum[2]) if type(rnum) is tuple else -rnum
            # each unreduced numerator is the sum of two products
            if _same(den, rden):
                self._bound(rnum, _T_ONE, *self._bound(num, _T_ONE))
                num = _add(num, rnum)
            else:
                self._bound(rnum, den, *self._bound(num, rden))
                self._bound(den, rden)
                num, den = _add(_mul(num, rden), _mul(rnum, den)), _mul(den, rden)
        return num, den

    def term(self) -> tuple:
        num, den = self.factor()
        while self._peek() in ("*", "/"):
            op = self._take()
            rnum, rden = self.factor()
            if op == "/":
                if not rnum:
                    raise ScalarParseError("division by zero", self.pos)
                rnum, rden = rden, rnum
            self._bound(num, rnum)
            self._bound(den, rden)
            num, den = _mul(num, rnum), _mul(den, rden)
        return num, den

    def factor(self) -> tuple:
        neg = False
        if self._peek() == "-":
            self._take()
            neg = True
        num, den = self.atom()
        if self._peek() == "^":
            self._take()
            esign = 1
            if self._peek() == "-":
                self._take()
                esign = -1
            ch = self._peek()
            if not "0" <= ch <= "9":
                raise ScalarParseError(f"unexpected character {ch!r} after '^'" if ch
                                       else "expected digits after '^'", self.pos)
            k = self._digits()
            if k > MAX_EXPONENT:
                raise ScalarParseError(f"exponent {k} exceeds {MAX_EXPONENT}", self.pos)
            if (type(num) is tuple and _same(den, _T_ONE)
                    and (esign > 0 or num[1] * num[1] + num[2] * num[2] == 1)):
                # (a + b*i) q^e, nonzero and canonical: its degree is |e|,
                # and a unit's inverse is its conjugate times q^-e
                e, a, b = num
                if k * abs(e) > MAX_EXPONENT:
                    raise ScalarParseError(f"power of degree above {MAX_EXPONENT}", self.pos)
                if esign < 0:
                    e, b = -e, -b
                c, d = 1, 0
                for _ in range(k):
                    c, d = c * a - d * b, c * b + d * a
                num, den = (e * k, c, d), _T_ONE
            else:
                val = QScalar(_lp(num), _lp(den))
                if k * _power_degree(val) > MAX_EXPONENT:
                    raise ScalarParseError(f"power of degree above {MAX_EXPONENT}", self.pos)
                if esign < 0 and not val:
                    raise ScalarParseError("division by zero", self.pos)
                val = val ** (esign * k)
                num, den = val.num, val.den
        if neg:
            num = (num[0], -num[1], -num[2]) if type(num) is tuple else -num
        return num, den

    def atom(self) -> tuple:
        ch = self._peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ScalarParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
            self._take()
            self.depth += 1
            val = self.expr()
            if self._peek() != ")":
                raise ScalarParseError("expected ')'", self.pos)
            self._take()
            self.depth -= 1
            return val
        if ch == "i":
            self._take()
            return (0, 0, 1), _T_ONE
        if ch == "q":
            self._take()
            return (1, 1, 0), _T_ONE
        if "0" <= ch <= "9":
            n = self._digits()
            return ((0, n, 0) if n else LP_ZERO), _T_ONE
        raise ScalarParseError(f"unexpected character {ch!r}" if ch else "unexpected end of input", self.pos)

    def _digits(self) -> int:
        self._peek()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ScalarParseError("expected digits", self.pos)
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # beyond Python's digit limit for int()
            raise ScalarParseError(f"integer of {self.pos - start} digits is too long",
                                   start) from exc


def parse_scalar(text: str) -> QScalar:
    """Parse a scalar literal such as '(q - q^-1)/(q^2 + 1)' or '2/3*i*q^4'."""
    return _Parser(text).parse()
