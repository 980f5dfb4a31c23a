"""Exact scalars for the field Q(i)(q).

Elements are fractions of Laurent polynomials in q whose coefficients are
Gaussian rationals.  Every value is kept in a canonical reduced form so that
equality is structural and zero tests are exact.

A Gaussian rational is the integer triple (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1.  Each operation works on the integers (sums over a shared
denominator add a and b only; the inverse is d*(a - b*i)/(a^2 + b^2)) and
reduces its result by one three-way gcd, skipped when the denominator is 1.
The Fraction components re = a/d and im = b/d are computed only on request.

Normalization cancels the gcd of numerator and denominator.  A reduced
numerator and denominator are not normalized again: a sum over one shared
denominator normalizes only the new numerator, a unit c*q^k times a reduced
fraction is reduced already, and a denominator whose constant coefficient is
already 1 is not rescaled.  Most pairs are coprime, so before the Euclidean
gcd over Q(i) both polynomials are mapped to F_P, with P = 4611686018427387817
a prime = 1 (mod 4) and i sent to a fixed square root s of -1 mod P: the
image of (a + b*i)/d is (a + s*b)/d mod P, defined when P does not divide d.
If the gcd over F_P is a constant, the pair is coprime over Q(i) and the
Euclidean gcd is skipped; every other outcome (a coefficient denominator
divisible by P, a leading coefficient that vanishes mod P, a nonconstant gcd
mod P) runs the Euclidean gcd.  This is a proof, not
a probabilistic test: reduction modulo the prime (P, i - s) is a ring map from
the local ring R = Z[i]_(P, i - s) onto F_P, and R holds every coefficient
whose denominators are prime to P.  R is a discrete valuation ring, so by
Gauss's lemma the true gcd h can be taken primitive in R[q], and each of the
two polynomials is h times a cofactor in R[q].  The leading coefficient of h
divides a leading coefficient that survives the reduction, so it survives
too: the image of h keeps deg h and divides both images.  Hence the degree of
the gcd mod P is at least deg h, and degree 0 mod P proves the pair coprime.
The certificate never claims a common factor.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


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
        d, f = self.d, other.d
        if d == f:
            a, b = self.a - other.a, self.b - other.b
        else:
            a, b, d = self.a * f - other.a * d, self.b * f - other.b * d, d * f
        return _reduced(a, b, d)

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

    def conjugate(self) -> "GaussRational":
        return _gauss(self.a, -self.b, self.d)

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
    """A Laurent polynomial in q over Q(i), stored as exponent -> coefficient.

    Zero coefficients are never stored, so the dict representation is unique.
    """

    __slots__ = ("coeff",)

    def __init__(self, coeff: dict | None = None):
        c = {}
        if coeff:
            for k, v in coeff.items():
                if v:
                    c[k] = v
        object.__setattr__(self, "coeff", c)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def gauss(cls, c: GaussRational) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: GaussRational(n)})

    @classmethod
    def q_power(cls, k: int, c: GaussRational = GR_ONE) -> "LaurentPoly":
        return cls({k: c})

    def __bool__(self) -> bool:
        return bool(self.coeff)

    @property
    def is_one(self) -> bool:
        return self.coeff == {0: GR_ONE}

    def min_exp(self) -> int:
        return min(self.coeff)

    def max_exp(self) -> int:
        return max(self.coeff)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self.coeff)
        for k, v in other.coeff.items():
            s = c.get(k)
            if s is None:
                c[k] = v
            else:
                s = s + v
                if s:
                    c[k] = s
                else:
                    del c[k]
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "coeff", c)
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "coeff", {k: -v for k, v in self.coeff.items()})
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict = {}
        for k1, v1 in self.coeff.items():
            for k2, v2 in other.coeff.items():
                k = k1 + k2
                p = v1 * v2
                s = c.get(k)
                c[k] = p if s is None else s + p
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "coeff", {k: v for k, v in c.items() if v})
        return out

    def at_one(self) -> GaussRational:
        total = GR_ZERO
        for v in self.coeff.values():
            total = total + v
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self):
        return hash(frozenset(self.coeff.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeff!r})"


LP_ZERO = LaurentPoly.zero()
LP_ONE = LaurentPoly.from_int(1)


def _dense(p: LaurentPoly) -> list:
    """Coefficients of an ordinary polynomial (min exponent 0), ascending."""
    lo, hi = p.min_exp(), p.max_exp()
    out = [GR_ZERO] * (hi - lo + 1)
    for k, v in p.coeff.items():
        out[k - lo] = v
    return out


def _dense_mod(a: list, b: list) -> list:
    """Remainder of dense polynomial division; b is nonzero."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        while a and not a[-1]:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] / lead
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] = a[shift + i] - f * bc
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _dense_div_exact(a: list, b: list) -> list:
    """Exact quotient of dense polynomials; raises if division is inexact."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [GR_ZERO] * (len(a) - db)
    while len(a) - 1 >= db:
        f = a[-1] / lead
        shift = len(a) - 1 - db
        q[shift] = f
        for i, bc in enumerate(b):
            a[shift + i] = a[shift + i] - f * bc
        a.pop()
        while a and not a[-1]:
            a.pop()
        if len(a) - 1 < db:
            break
    if a:
        raise ArithmeticError("inexact polynomial division")
    return q


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


def _dense_mod_p(a: list) -> list | None:
    """The image in F_P of a dense polynomial over Q(i), or None when a
    coefficient denominator is divisible by P."""
    out = []
    for c in a:
        v, d = c.a + _I_MOD_P * c.b, c.d
        if d != 1:
            if d % _P == 0:
                return None
            v *= pow(d, -1, _P)
        out.append(v % _P)
    return out


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


def _coprime_mod_p(nd: list, dd: list) -> bool:
    """True when the gcd of the images in F_P is a constant, which proves nd
    and dd coprime over Q(i); False when the certificate decides nothing."""
    a, b = _dense_mod_p(nd), _dense_mod_p(dd)
    if a is None or b is None or not a[-1] or not b[-1]:
        return False
    while len(b) > 1:
        a, b = b, _rem_mod_p(a, b)
    return len(b) == 1


class QScalar:
    """An element of Q(i)(q) in canonical form.

    Invariants: the denominator has minimal exponent 0 and constant coefficient 1,
    shares no polynomial factor with the numerator, and zero is stored as 0/1.
    Any net power of q lives in the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        elif isinstance(num, GaussRational):
            num = LaurentPoly.gauss(num)
        if den is None:
            den = LP_ONE
        elif isinstance(den, int):
            den = LaurentPoly.from_int(den)
        elif isinstance(den, GaussRational):
            den = LaurentPoly.gauss(den)
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
        lo_n, lo_d = num.min_exp(), den.min_exp()
        net = lo_n - lo_d
        nd, dd = _dense(num), _dense(den)
        g = None
        if len(dd) > 1 and not _coprime_mod_p(nd, dd):
            x, y = nd, dd
            while y:
                x, y = y, _dense_mod(x, y)
            if len(x) > 1:
                g = x
        if g is not None:
            nd = _dense_div_exact(nd, g)
            dd = _dense_div_exact(dd, g)
        if dd[0] == GR_ONE:
            num = LaurentPoly({i + net: v for i, v in enumerate(nd) if v})
            den = LaurentPoly({i: v for i, v in enumerate(dd) if v})
        else:
            c = dd[0].inv()
            num = LaurentPoly({i + net: v * c for i, v in enumerate(nd) if v})
            den = LaurentPoly({i: v * c for i, v in enumerate(dd) if v})
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
        if self.den.is_one and (other.den.is_one or len(self.num.coeff) == 1):
            den = other.den
        elif other.den.is_one and len(other.num.coeff) == 1:
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

    def subs_q_inverse(self) -> "QScalar":
        """The image under q -> q^-1 (coefficients untouched)."""
        return QScalar(
            LaurentPoly({-k: v for k, v in self.num.coeff.items()}),
            LaurentPoly({-k: v for k, v in self.den.coeff.items()}),
        )

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

def _render_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _render_gauss(c: GaussRational) -> str:
    """Render a Gaussian rational; mixed values get wrapped in parentheses."""
    if not c.im:
        return _render_fraction(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_render_fraction(c.im)}*i"
    im = _render_gauss(GaussRational(0, c.im))
    if im.startswith("-"):
        return f"({_render_fraction(c.re)}-{im[1:]})"
    return f"({_render_fraction(c.re)}+{im})"


def _render_poly(p: LaurentPoly) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p.coeff, reverse=True):
        c = p.coeff[e]
        if e == 0:
            mono = None
        elif e == 1:
            mono = "q"
        else:
            mono = f"q^{e}"
        cs = _render_gauss(c)
        if mono is None:
            term = cs
        elif cs == "1":
            term = mono
        elif cs == "-1":
            term = f"-{mono}"
        else:
            term = f"{cs}*{mono}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out


def render_scalar(x: QScalar) -> str:
    """Canonical literal form; reparsing it reproduces the same value."""
    if x.den.is_one:
        return _render_poly(x.num)
    return f"({_render_poly(x.num)})/({_render_poly(x.den)})"


# --- literal parsing --------------------------------------------------------

# bounds on each literal exponent and on the degree of a power keep parsing
# fast: (q + 1)^256 already takes seconds
MAX_EXPONENT = 64


def _degree_span(x: QScalar) -> int:
    """Exponent spread of numerator plus denominator (0 for monomials)."""
    if not x:
        return 0
    return (x.num.max_exp() - x.num.min_exp()) + (x.den.max_exp() - x.den.min_exp())


class _Parser:
    """Recursive-descent parser for scalar literals over {digits, i, q, + - * / ^, parens}."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self) -> str:
        ch = self._peek()
        self.pos += 1
        return ch

    def parse(self) -> QScalar:
        val = self.expr()
        if self._peek():
            raise ScalarParseError(f"unexpected character {self._peek()!r}", self.pos)
        return val

    def expr(self) -> QScalar:
        val = self.term()
        while self._peek() and self._peek() in "+-":
            op = self._take()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self) -> QScalar:
        val = self.factor()
        while self._peek() and self._peek() in "*/":
            op = self._take()
            rhs = self.factor()
            if op == "*":
                val = val * rhs
            else:
                if not rhs:
                    raise ScalarParseError("division by zero", self.pos)
                val = val / rhs
        return val

    def factor(self) -> QScalar:
        neg = False
        if self._peek() == "-":
            self._take()
            neg = True
        val = self.atom()
        if self._peek() == "^":
            self._take()
            esign = 1
            if self._peek() == "-":
                self._take()
                esign = -1
            if not self._peek().isdigit():
                raise ScalarParseError("expected digits after '^'", self.pos)
            k = self._digits()
            if k > MAX_EXPONENT:
                raise ScalarParseError(f"exponent {k} exceeds {MAX_EXPONENT}", self.pos)
            if k * _degree_span(val) > MAX_EXPONENT:
                raise ScalarParseError(f"power of degree above {MAX_EXPONENT}", self.pos)
            if esign < 0 and not val:
                raise ScalarParseError("division by zero", self.pos)
            val = val ** (esign * k)
        return -val if neg else val

    def atom(self) -> QScalar:
        ch = self._peek()
        if ch == "(":
            self._take()
            val = self.expr()
            if self._peek() != ")":
                raise ScalarParseError("expected ')'", self.pos)
            self._take()
            return val
        if ch == "i":
            self._take()
            return I_UNIT
        if ch == "q":
            self._take()
            return Q
        if ch.isdigit():
            return QScalar(self._digits())
        raise ScalarParseError(f"unexpected character {ch!r}" if ch else "unexpected end of input", self.pos)

    def _digits(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ScalarParseError("expected digits", self.pos)
        return int(self.text[start:self.pos])


def parse_scalar(text: str) -> QScalar:
    """Parse a scalar literal such as '(q - q^-1)/(q^2 + 1)' or '2/3*i*q^4'."""
    return _Parser(text).parse()
