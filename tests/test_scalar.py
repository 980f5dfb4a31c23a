"""Field arithmetic in Q(i)(q): canonical form, parsing, and q-integers."""
import functools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints import scalar
from repoints.scalar import (
    GR_I,
    GR_ONE,
    GaussRational,
    I_UNIT,
    LP_ONE,
    MAX_NESTING,
    LaurentPoly,
    ONE,
    PoleAtOneError,
    Q,
    QINV,
    QScalar,
    ScalarParseError,
    ZERO,
    eval_at_one,
    parse_scalar,
    q_integer,
    render_scalar,
)


def test_gauss_rational_basics():
    a = GaussRational(1, 2)
    b = GaussRational(Fraction(1, 3), -1)
    assert a + b == GaussRational(Fraction(4, 3), 1)
    assert a * a.inv() == GaussRational(1)
    assert not GaussRational(0, 0)
    with pytest.raises(ZeroDivisionError):
        GaussRational(0).inv()


def test_fraction_reduction_against_cross_multiplication():
    # (q - q^-1)/(q^2 - q^-2) should reduce to 1/(q + q^-1); verify the
    # reduction by clearing denominators, which uses only multiplication
    lhs = (Q - QINV) / (Q * Q - QINV * QINV)
    rhs = (Q + QINV).inv()
    assert lhs == rhs
    assert lhs * (Q * Q - QINV * QINV) == Q - QINV
    assert rhs * (Q + QINV) == ONE


def test_q_integer_small_values():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(2) == Q + QINV
    assert q_integer(3) == Q * Q + ONE + QINV * QINV
    assert q_integer(-3) == -q_integer(3)


def test_q_integer_against_polynomial_division():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    for z in range(1, 9):
        expected = sympy.cancel((q**z - q**-z) / (q - 1 / q))
        got = sympy.sympify(render_scalar(q_integer(z)).replace("^", "**"))
        assert sympy.simplify(expected - got) == 0


def test_eval_at_one_and_pole():
    assert eval_at_one(q_integer(5)) == GaussRational(5)
    x = parse_scalar("(q + 1)/(q - 1)")
    with pytest.raises(PoleAtOneError):
        eval_at_one(x)


def test_parse_examples():
    assert parse_scalar("q^-3") == QScalar.q_power(-3)
    assert parse_scalar("2/3 * i * q^4") == QScalar(GaussRational(0, Fraction(2, 3))) * QScalar.q_power(4)
    assert parse_scalar("(q - q^-1)/(q^2 - q^-2)") == (Q + QINV).inv()
    assert parse_scalar("-q + q") == ZERO
    assert parse_scalar("i^2") == -ONE


def test_parse_errors_carry_position():
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("q^x")
    assert e.value.position == 2
    with pytest.raises(ScalarParseError):
        parse_scalar("(q + 1")
    with pytest.raises(ScalarParseError):
        parse_scalar("1/(q - q)")
    with pytest.raises(ScalarParseError):
        parse_scalar("")


@pytest.mark.parametrize("literal, position", [("q^\u00b2", 2), ("\u0663*q", 0), ("\uff11", 0),
                                               ("2\u0663", 1)])
def test_parse_accepts_only_ascii_digits(literal, position):
    # str.isdigit and the regex \d also match superscript, Arabic-Indic and
    # fullwidth digits; the parser names such a character at its position
    with pytest.raises(ScalarParseError) as e:
        parse_scalar(literal)
    assert e.value.position == position
    assert f"unexpected character {literal[position]!r}" in str(e.value)


def test_parse_bounds_nesting_and_integer_length():
    assert parse_scalar("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == Q
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1))
    assert e.value.position == MAX_NESTING
    # past Python's limit on the digits int() converts
    with pytest.raises(ScalarParseError) as e:
        parse_scalar("q + " + "9" * 5000)
    assert e.value.position == 4


def test_parse_bounds_the_exponents_of_a_power():
    # k times the largest |exponent| of the base is bounded, so a nested
    # power of a monomial is refused at its first level past the bound
    for literal in ("((q^64)^64)^64 + 1", "(q^2)^33", "(q^-3)^22", "(1/q^33)^2"):
        with pytest.raises(ScalarParseError) as e:
            parse_scalar(literal)
        assert "power of degree above 64" in str(e.value)
    assert parse_scalar("((q^64)^64)^64 + 1".replace("64", "2")) == Q ** 8 + ONE
    assert parse_scalar("(q^2)^32") == Q ** 64
    assert parse_scalar("q^-64") == Q ** -64
    assert parse_scalar("(q^-2)^32") == Q ** -64


def test_parse_bounds_the_degree_of_products_and_sums():
    # a product, quotient or sum whose unreduced numerator or denominator
    # would pass 4 * 64 powers of q is refused before it is formed, so 400
    # factors of degree 64 cost no more than the 4 that fit
    literal = "*".join(["(q+1)^64"] * 400)
    start = time.perf_counter()
    with pytest.raises(ScalarParseError) as e:
        parse_scalar(literal)
    assert time.perf_counter() - start < 1
    assert e.value.position == 44
    assert "product or sum of degree above 256" in str(e.value)
    for refused in ("q^64*q^64*q^64*q^64*q", "1/(q^64*q^64*q^64*q^64*q)",
                    "q^-64*q^-64*q^-64*q^-64*q^-1", "q^-64*q^-64 + q^64*q^64*q",
                    "1/q^64/q^64 + 1/q^64/q^64/q"):
        with pytest.raises(ScalarParseError) as e:
            parse_scalar(refused)
        assert "degree above 256" in str(e.value), refused
    assert parse_scalar("*".join(["(q+1)^64"] * 4)) == (Q + ONE) ** 256
    assert parse_scalar("q^64*q^64*q^64*q^64") == Q ** 256
    assert parse_scalar("q^-64*q^-64*q^-64*q^-64/q") == Q ** -257
    assert parse_scalar("q^-64*q^-64 + q^64*q^64") == Q ** -128 + Q ** 128


def test_canonical_denominator_shape():
    x = parse_scalar("(q^3 + q)/(q^5 - q^-5)")
    assert x.den.min_exp() == 0
    assert x.den.coeff[0] == GR_ONE


_frac = st.fractions(min_value=-30, max_value=30, max_denominator=6)
_gauss = st.builds(GaussRational, _frac, _frac)
_poly = st.dictionaries(st.integers(-4, 4), _gauss, max_size=4).map(LaurentPoly)
_scalar = st.builds(
    lambda n, d: QScalar(n, d),
    _poly,
    _poly.filter(bool),
)


@settings(max_examples=150, deadline=None)
@given(_scalar, _scalar, _scalar)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == ZERO
    if a:
        assert a * a.inv() == ONE
        assert a / a == ONE


@settings(max_examples=150, deadline=None)
@given(_scalar)
def test_parse_render_round_trip(x):
    assert parse_scalar(render_scalar(x)) == x


@settings(max_examples=100, deadline=None)
@given(_scalar)
def test_canonical_invariants(x):
    if not x:
        assert x == ZERO
        return
    if not x.den.is_one:
        assert x.den.min_exp() == 0
        assert x.den.coeff[0] == GR_ONE


@settings(max_examples=60, deadline=None)
@given(st.integers(-12, 12))
def test_q_integer_defining_identity(z):
    assert q_integer(z) * (Q - QINV) == Q**z - QINV**z


def test_i_unit_square():
    assert I_UNIT * I_UNIT == -ONE


# --- the modular coprimality certificate ------------------------------------

def _lit(text):
    """A polynomial literal as a LaurentPoly (no normalization involved)."""
    x = parse_scalar(text)
    assert x.den.is_one
    return x.num


def _certificate(num, den):
    return scalar._coprime_mod_p(num, den)


def test_certificate_modulus_and_root_of_minus_one():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(scalar._P) and scalar._P % 4 == 1
    assert pow(scalar._I_MOD_P, 2, scalar._P) == scalar._P - 1


@pytest.mark.parametrize("num, den", [
    ("q + 1", "q - 1"),
    ("q^2 + 1", "q - 2*i"),
    ("2/3*q^3 - q + 5", "q^2 + q + 1"),
    ("7", "q^4 - 3"),
])
def test_certificate_proves_coprime_pairs(num, den):
    assert _certificate(_lit(num), _lit(den))
    x = QScalar(_lit(num), _lit(den))
    assert x * QScalar(_lit(den)) == QScalar(_lit(num))


@pytest.mark.parametrize("num, den, reduced", [
    ("q^2 - 1", "q - 1", "q + 1"),
    ("q^2 + 1", "q - i", "q + i"),
    ("q^3 - q", "q^2 + 2*q + 1", "(q^2 - q)/(q + 1)"),
    ("(q^2 + 1)*(q - 3)", "(q^2 + 1)*(q + 3)", "(q - 3)/(q + 3)"),
])
def test_certificate_rejects_pairs_with_a_common_factor(num, den, reduced):
    assert not _certificate(_lit(num), _lit(den))
    assert QScalar(_lit(num), _lit(den)) == parse_scalar(reduced)


def test_quotient_by_a_common_factor_is_reduced():
    # a certificate that always answered "coprime" would leave (q^2 - 1)/(q - 1)
    assert parse_scalar("(q^2 - 1)/(q - 1)") == Q + ONE
    assert parse_scalar("(q^2 - 1)/(q - 1)").den.is_one


def test_vanishing_leading_coefficient_falls_back_to_the_gcd():
    # mod P the common factor P q + 1 becomes the unit 1, so the images of
    # (P q + 1)(q + 3) and (P q + 1)(q + 5) are coprime
    lead_vanishes = LaurentPoly({1: GaussRational(scalar._P), 0: GR_ONE})
    num, den = lead_vanishes * _lit("q + 3"), lead_vanishes * _lit("q + 5")
    images = scalar._dense_mod_p(num), scalar._dense_mod_p(den)
    assert images[0][-1] == 0 and images[1][-1] == 0
    assert not _certificate(num, den)
    assert QScalar(num, den) == parse_scalar("(q + 3)/(q + 5)")
    # also when the pair really is coprime
    assert not _certificate(lead_vanishes, _lit("q + 2"))
    x = QScalar(lead_vanishes, _lit("q + 2"))
    assert x.num == lead_vanishes * LaurentPoly({0: GaussRational(Fraction(1, 2))})
    assert x.den == _lit("1/2*q + 1")


def test_denominator_divisible_by_p_falls_back_to_the_gcd():
    small = LaurentPoly({1: GR_ONE, 0: GaussRational(0, Fraction(1, scalar._P))})
    # the integer part P*q + i has the leading coefficient P
    assert scalar._dense_mod_p(small) == [scalar._I_MOD_P, 0]
    num, den = small * _lit("q - 1"), small * _lit("q + 2")
    assert not _certificate(num, den)
    assert QScalar(num, den) == parse_scalar("(q - 1)/(q + 2)")
    assert not _certificate(small, _lit("q + 2"))
    x = QScalar(small, _lit("q + 2"))
    assert x * QScalar(_lit("q + 2")) == QScalar(small)
    assert x.den == _lit("1/2*q + 1")


# --- the gcd over Z[i] -------------------------------------------------------

def test_common_factor_with_non_unit_content_is_cancelled():
    # the pseudo-remainder of (q + 1)(q + 3) by (2 + i)(q + 1)(q + 5) is
    # -2(2 + i)(q + 1): unless its content is removed, the gcd keeps the
    # factor 2(2 + i), which does not divide (q + 1)(q + 3) over Z[i]
    num, den = _lit("(q + 1)*(q + 3)"), _lit("(2 + i)*(q + 1)*(q + 5)")
    assert not _certificate(num, den)
    g = scalar._primitive_gcd(scalar._parts(num), scalar._parts(den))
    assert g in (([1, 1], [0, 0]), ([-1, -1], [0, 0]), ([0, 0], [1, 1]), ([0, 0], [-1, -1]))
    assert QScalar(num, den) == parse_scalar("(q + 3)/((2 + i)*(q + 5))")
    # content that is not a unit on both sides, and in the common factor
    num, den = _lit("(1 + 3*i)*(q - 1)*(2*q + i)"), _lit("(3 - i)*(2*q + i)*(q + 7)")
    assert QScalar(num, den) == parse_scalar("(1 + 3*i)*(q - 1)/((3 - i)*(q + 7))")
    assert scalar._primitive([3, 4], [4, -3]) in (([1, 0], [0, -1]), ([-1, 0], [0, 1]),
                                                 ([0, -1], [-1, 0]), ([0, 1], [1, 0]))


def test_factor_shared_up_to_the_unit_i_is_cancelled():
    # i*q + 1 = i*(q - i)
    num, den = _lit("(i*q + 1)*(q + 2)"), _lit("(q - i)*(q + 3)")
    assert not _certificate(num, den)
    x = QScalar(num, den)
    assert x == parse_scalar("i*(q + 2)/(q + 3)")
    assert x.den == _lit("1/3*q + 1")


def test_common_factor_with_non_unit_leading_coefficients_is_cancelled():
    # the leading coefficients 6 and 10 are not units: the pseudo-remainder
    # must multiply by lc(b) = 10 before 6 q^2 can be cancelled over Z[i]
    num, den = _lit("(2*q + i)*(3*q - 1)"), _lit("(2*q + i)*(5*q + 2)")
    assert not _certificate(num, den)
    assert QScalar(num, den) == parse_scalar("(3*q - 1)/(5*q + 2)")


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError):
        scalar._quotient(_lit("q^2 + 1"), ([1, 1], [0, 0]))
    # q + 1 divides 2*q + 2 over Q(i) but 2*q + 2 does not divide q + 1 over Z[i]
    with pytest.raises(ArithmeticError):
        scalar._quotient(_lit("q + 1"), ([2, 2], [0, 0]))


def _gauss_gcd_bounded(*args):
    """scalar._gauss_gcd(*args), failing once it has run more lines than
    rounded quotients allow.  Each remainder has at most half the norm of its
    divisor, so the loop of four lines runs at most 2 * bits + 3 times for
    entries of `bits` bits.  A quotient rounded
    another way need not shrink the remainder, and Euclid can then run for
    ever on growing integers."""
    lines, limit = 0, 4 * (2 * max(abs(x) for x in args).bit_length() + 3) + 2
    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        if lines > limit:
            raise AssertionError(f"Euclid over Z[i] ran past {limit} lines")
        return count
    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 count if frame.f_code is scalar._gauss_gcd.__code__ else None)
    try:
        return scalar._gauss_gcd(*args)
    finally:
        sys.settrace(old)


_gauss_int = st.integers(-10**12, 10**12)


@settings(max_examples=200, deadline=None)
@given(_gauss_int, _gauss_int, _gauss_int, _gauss_int, st.integers(-50, 50), st.integers(-50, 50))
def test_gauss_gcd_against_sympy(a, b, c, e, x, y):
    sympy = pytest.importorskip("sympy")
    zz_i = sympy.polys.domains.ZZ_I
    # a common factor x + y*i makes a nonunit gcd likely
    a, b, c, e = a * x - b * y, a * y + b * x, c * x - e * y, c * y + e * x
    want = zz_i.gcd(zz_i(a, b), zz_i(c, e))
    u, v = _gauss_gcd_bounded(a, b, c, e)
    # equal up to a unit: the same norm, and u + v*i divides both
    assert u * u + v * v == want.x ** 2 + want.y ** 2
    n = u * u + v * v
    for r, s in ((a, b), (c, e)):
        assert n == 0 or ((r * u + s * v) % n == 0 and (s * u - r * v) % n == 0)


def _sympy_poly(re, im, sympy, q):
    return sympy.Poly([sympy.Integer(a) + sympy.I * b for a, b in zip(re[::-1], im[::-1])],
                      q, domain="QQ_I")


@settings(max_examples=60, deadline=None)
@given(_poly.filter(bool), _poly.filter(bool), _poly.filter(bool))
def test_primitive_gcd_divides_both_integer_parts(num, den, common):
    sympy = pytest.importorskip("sympy")
    zz_i, q = sympy.polys.domains.ZZ_I, sympy.Symbol("q")
    x, y = scalar._parts(num * common), scalar._parts(den * common)
    g = scalar._primitive_gcd(x, y)
    content = functools.reduce(zz_i.gcd, [zz_i(a, b) for a, b in zip(*g)])
    assert content.x ** 2 + content.y ** 2 == 1
    for p in (x, y):
        quotient, rest = scalar._divmod(*p, *g)
        assert not rest[0]
        assert all(type(c) is int for c in quotient[0] + quotient[1])
        assert (_sympy_poly(*quotient, sympy, q) * _sympy_poly(*g, sympy, q)
                == _sympy_poly(*p, sympy, q))
    want = sympy.gcd(_sympy_poly(*x, sympy, q), _sympy_poly(*y, sympy, q))
    assert len(g[0]) - 1 == want.degree() >= common.max_exp() - common.min_exp()


def _sympy_expr(x, sympy, q):
    return sympy.sympify(render_scalar(x).replace("^", "**"), locals={"q": q, "i": sympy.I})


@settings(max_examples=40, deadline=None)
@given(_poly, _poly.filter(bool), _poly.filter(bool))
def test_normalization_against_sympy_cancel(num, den, common):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    x = QScalar(num * common, den * common)
    want = sympy.cancel(_sympy_expr(QScalar(num * common), sympy, q)
                        / _sympy_expr(QScalar(den * common), sympy, q))
    wn, wd = sympy.fraction(want)
    gn, gd = sympy.fraction(sympy.together(_sympy_expr(x, sympy, q)))
    assert sympy.Poly(gn * wd - wn * gd, q, domain="QQ_I").is_zero
    # lowest terms: no common factor over Q(i)
    g = sympy.gcd(sympy.Poly(gn, q, domain="QQ_I"), sympy.Poly(gd, q, domain="QQ_I"))
    assert g.degree() == 0


def test_arithmetic_keeps_fraction_components_and_immutability():
    a = GaussRational(Fraction(1, 3), 2)
    b = GaussRational(-5, Fraction(7, 2))
    r = GaussRational(Fraction(3, 4))
    for x in (a + b, a - b, -a, a * b, r * r, a * r, a.inv(), r.inv(), a / b,
              QScalar(_lit("q^2 + 2/3*i"), _lit("3*q - 1")).den.coeff[1]):
        assert type(x.re) is Fraction and type(x.im) is Fraction
    assert r * r == GaussRational(Fraction(9, 16)) and (r * r).im == 0
    assert a * b == GaussRational(Fraction(-5, 3) - 7, Fraction(7, 6) - 10)
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
    with pytest.raises(AttributeError):
        (a * b).im = Fraction(1)


# --- the (a + b*i)/d representation of Q(i) ---------------------------------

_big_frac = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**4),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
)
_pair = st.tuples(_big_frac, _big_frac).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def _assert_canonical(x, pair):
    """x holds pair = (re, im) in lowest terms (a + b*i)/d."""
    assert type(x.a) is int and type(x.b) is int and type(x.d) is int
    assert x.d > 0
    assert math.gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == pair
    assert type(x.re) is Fraction and type(x.im) is Fraction


def _oracle_mul(p, r):
    return (p[0] * r[0] - p[1] * r[1], p[0] * r[1] + p[1] * r[0])


def _oracle_inv(p):
    n = p[0] * p[0] + p[1] * p[1]
    return (p[0] / n, -p[1] / n)


@settings(max_examples=300, deadline=None)
@given(_pair, _pair)
def test_gauss_rational_against_fraction_pairs(p, r):
    x, y = GaussRational(*p), GaussRational(*r)
    _assert_canonical(x, p)
    _assert_canonical(x + y, (p[0] + r[0], p[1] + r[1]))
    _assert_canonical(x - y, (p[0] - r[0], p[1] - r[1]))
    _assert_canonical(-x, (-p[0], -p[1]))
    _assert_canonical(x * y, _oracle_mul(p, r))
    assert x.norm() == p[0] * p[0] + p[1] * p[1] and type(x.norm()) is Fraction
    assert bool(x) == (p != (0, 0))
    assert (x == y) == (p == r)
    if r != (0, 0):
        _assert_canonical(y.inv(), _oracle_inv(r))
        _assert_canonical(x / y, _oracle_mul(p, _oracle_inv(r)))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inv()


@settings(max_examples=200, deadline=None)
@given(_pair, _pair, _pair)
def test_gauss_rational_equal_values_have_equal_fields_and_hashes(p, r, s):
    x, y, z = GaussRational(*p), GaussRational(*r), GaussRational(*s)
    # the same value reached along different routes
    for u, v in (((x + y) + z, x + (y + z)), ((x - y) + y, x), ((x * y) * z, x * (y * z)),
                 (x * (y + z), x * y + x * z)):
        assert u == v
        assert (u.a, u.b, u.d) == (v.a, v.b, v.d)
        assert hash(u) == hash(v)
    if y:
        assert (x / y) * y == x and hash((x / y) * y) == hash(x)
    assert x - x == GaussRational(0) and (x - x).d == 1


def test_gauss_rational_constructor_and_fields():
    assert (GaussRational().a, GaussRational().b, GaussRational().d) == (0, 0, 1)
    x = GaussRational(Fraction(1, 6), Fraction(-3, 4))
    assert (x.a, x.b, x.d) == (2, -9, 12)
    assert GaussRational(Fraction(4, 2), 3) == GaussRational(2, 3)
    assert (GaussRational(Fraction(1, 2), Fraction(1, 2)) * GaussRational(1, -1)).d == 1
    assert GaussRational(0, Fraction(-2, 4)) == -GaussRational(0, Fraction(1, 2))
    assert repr(x) == "GaussRational(1/6, -3/4)"
    for name in ("a", "b", "d", "re", "im"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)


def _image_from_re_im(c, d):
    """The image in F_P of d*c, for d*c a Gaussian integer, through the
    Fraction components."""
    re, im = c.re * d, c.im * d
    assert re.denominator == im.denominator == 1
    return (re.numerator + scalar._I_MOD_P * im.numerator) % scalar._P


_P_frac = st.builds(Fraction, st.integers(-10**25, 10**25),
                    st.sampled_from([1, 2, 3, 12, scalar._P, 5 * scalar._P, scalar._P ** 2]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(GaussRational, _P_frac, _P_frac), min_size=1, max_size=5))
def test_dense_mod_p_matches_the_component_formula(coeffs):
    p = LaurentPoly(dict(enumerate(coeffs)))
    nonzero = [k for k, c in enumerate(coeffs) if c]
    if not nonzero:
        assert scalar._dense_mod_p(p) == []
        return
    # the integer part is p times the lcm of the coefficient denominators,
    # even when P divides one of them
    d = math.lcm(*(f.denominator for c in coeffs for f in (c.re, c.im)))
    assert p.den == d
    want = [_image_from_re_im(c, d) for c in coeffs[nonzero[0]:nonzero[-1] + 1]]
    assert scalar._dense_mod_p(p) == want


def test_dense_mod_p_reads_the_integer_part_when_p_divides_a_denominator():
    P = scalar._P
    s = scalar._I_MOD_P
    # 1 + 3/(2P)*i*q has the integer part 2P + 3*i*q over 2P
    p = LaurentPoly({0: GaussRational(1), 1: GaussRational(0, Fraction(3, 2 * P))})
    assert (p.re, p.im, p.den) == ((2 * P, 0), (0, 3), 2 * P)
    assert scalar._dense_mod_p(p) == [0, 3 * s % P]
    p = LaurentPoly({0: GaussRational(Fraction(1, P), Fraction(1, 7))})
    assert (p.re, p.im, p.den) == ((7,), (P,), 7 * P)
    assert scalar._dense_mod_p(p) == [7]
    # P in a numerator: the image is 0
    assert scalar._dense_mod_p(LaurentPoly({0: GaussRational(P, Fraction(2 * P, 3))})) == [0]
    assert scalar._dense_mod_p(LaurentPoly({0: GaussRational(Fraction(1, 2), Fraction(3, 4))})) == [
        (2 + 3 * s) % P]


# --- LaurentPoly against the dict-of-GaussRational arithmetic --------------

def _dict_add(x, y):
    c = dict(x)
    for k, v in y.items():
        s = c.get(k, GaussRational(0)) + v
        if s:
            c[k] = s
        else:
            c.pop(k, None)
    return c


def _dict_neg(x):
    return {k: -v for k, v in x.items()}


def _dict_mul(x, y):
    c = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            c[k1 + k2] = c.get(k1 + k2, GaussRational(0)) + v1 * v2
    return {k: v for k, v in c.items() if v}


def _dict_at_one(x):
    total = GaussRational(0)
    for v in x.values():
        total = total + v
    return total


def _fields(p):
    return p.lo, p.re, p.im, p.den


def _assert_canonical_poly(p, coeff):
    """p holds coeff, a dict exponent -> nonzero GaussRational, in the
    canonical (lo, re, im, den) form."""
    assert p.coeff == coeff
    assert type(p.lo) is int and type(p.den) is int and p.den > 0
    assert type(p.re) is tuple and type(p.im) is tuple
    assert all(type(x) is int for x in p.re + p.im)
    assert math.gcd(p.den, *p.re, *p.im) == 1
    if not coeff:
        assert _fields(p) == (0, (), (), 1)
        return
    assert (p.lo, p.max_exp()) == (min(coeff), max(coeff))
    assert len(p.re) == max(coeff) - min(coeff) + 1
    assert p.re[0] or p.im[0]
    assert p.re[-1] or p.im[-1]
    if any(c.b for c in coeff.values()):
        assert len(p.im) == len(p.re)
    else:
        assert p.im == ()
    q = LaurentPoly(coeff)
    assert p == q and _fields(p) == _fields(q) and hash(p) == hash(q)


_lp_frac = st.builds(Fraction, st.integers(-40, 40),
                     st.sampled_from([1, 1, 2, 3, 6, scalar._P, 2 * scalar._P]))
_lp_gauss = st.builds(GaussRational, _lp_frac, st.one_of(st.just(0), _lp_frac))
_lp_dict = st.one_of(
    st.dictionaries(st.integers(-6, 6), _lp_gauss, max_size=5),
    st.dictionaries(st.integers(-6, 6), _lp_gauss, min_size=1, max_size=1),
    st.dictionaries(st.integers(-6, 6), st.builds(GaussRational, st.integers(-9, 9)), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(_lp_dict, _lp_dict, _lp_dict)
def test_laurent_poly_against_dict_arithmetic(x, y, z):
    p, r, s = LaurentPoly(x), LaurentPoly(y), LaurentPoly(z)
    x, y = ({k: v for k, v in d.items() if v} for d in (x, y))
    _assert_canonical_poly(p, x)
    _assert_canonical_poly(p + r, _dict_add(x, y))
    _assert_canonical_poly(p - r, _dict_add(x, _dict_neg(y)))
    _assert_canonical_poly(-p, _dict_neg(x))
    _assert_canonical_poly(p * r, _dict_mul(x, y))
    _assert_canonical_poly(p - p, {})
    assert p.at_one() == _dict_at_one(x)
    assert bool(p) == bool(x)
    assert p.is_one == (x == {0: GR_ONE})
    # the same value reached along different routes
    for u, v in ((p * (r + s), p * r + p * s), ((p + r) + s, p + (r + s)),
                 ((p * r) * s, s * (r * p)), ((p - r) + r, p)):
        assert u == v and _fields(u) == _fields(v) and hash(u) == hash(v)


def test_laurent_poly_fields():
    half = GaussRational(Fraction(1, 2))
    p = LaurentPoly({-2: half, 0: GaussRational(0, Fraction(1, 3)), 1: GaussRational(0)})
    assert _fields(p) == (-2, (3, 0, 0), (0, 0, 2), 6)
    assert _fields(LaurentPoly()) == _fields(LaurentPoly({3: GaussRational(0)})) == (0, (), (), 1)
    assert _fields(LaurentPoly.q_power(-3, half)) == (-3, (1,), (), 2)
    # i * i = -1 and (1 + i*q) - i*q = 1 drop the imaginary parts
    i = LaurentPoly({0: GR_I})
    assert _fields(i * i) == (0, (-1,), (), 1)
    iq = LaurentPoly.q_power(1, GR_I)
    assert _fields((LP_ONE + iq) - iq) == _fields(LP_ONE) == (0, (1,), (), 1)
    # cancelling end coefficients: (q^-1 + 2 + q) - (q^-1 + q) = 2
    assert _fields(LaurentPoly({-1: GR_ONE, 0: GaussRational(2), 1: GR_ONE})
                   - LaurentPoly({-1: GR_ONE, 1: GR_ONE})) == (0, (2,), (), 1)
    for name in ("lo", "re", "im", "den", "coeff"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)


# --- QScalar fast paths against the general constructor ---------------------

_nonzero_gauss = _gauss.filter(bool)


def _general_sum(x, y):
    return QScalar(x.num * y.den + y.num * x.den, x.den * y.den)


def _general_product(x, y):
    return QScalar(x.num * y.num, x.den * y.den)


def test_sum_over_a_shared_denominator_is_reduced():
    # q/(q^2 - 1) + (-1)/(q^2 - 1) = 1/(q + 1): the new numerator shares a factor
    y, z = parse_scalar("q/(q^2 - 1)"), parse_scalar("-1/(q^2 - 1)")
    assert y.den == z.den
    assert y + z == parse_scalar("1/(q + 1)") == _general_sum(y, z)
    assert y - y == ZERO and (y - y).den.is_one


@settings(max_examples=80, deadline=None)
@given(_scalar, _poly, _poly)
def test_sum_over_a_shared_denominator_matches_the_general_constructor(x, p, r):
    # adding a polynomial keeps the reduced denominator
    y, z = x + QScalar(p), x + QScalar(r)
    assert y.den == z.den == x.den
    assert y + z == _general_sum(y, z)
    assert y - z == QScalar(p) - QScalar(r)
    assert y + (-y) == ZERO


@settings(max_examples=60, deadline=None)
@given(_scalar.filter(lambda x: not x.den.is_one))
def test_a_sum_with_zero_normalizes_nothing(x):
    # the other operand is reduced already, so no QScalar is normalized
    init = QScalar.__init__
    normalized = []

    def counting(obj, num, den=None):
        if den is not None and num and not den.is_one:
            normalized.append((num, den))
        init(obj, num, den)

    QScalar.__init__ = counting
    try:
        sums = [ZERO + x, x + ZERO, x - ZERO]
    finally:
        QScalar.__init__ = init
    assert normalized == []
    assert sums == [x, x, x]
    assert ZERO - x == -x


def test_polynomial_times_a_fraction_is_reduced():
    # only a unit keeps the denominator; q - 1 cancels against q^2 - 1
    x = parse_scalar("1/(q^2 - 1)")
    assert parse_scalar("q - 1") * x == parse_scalar("1/(q + 1)") == x * parse_scalar("q - 1")
    assert parse_scalar("q^2 - 1") * x == ONE
    assert parse_scalar("2/3*i*q^-2") * x == _general_product(parse_scalar("2/3*i*q^-2"), x)


@settings(max_examples=80, deadline=None)
@given(_scalar, _nonzero_gauss, st.integers(-5, 5))
def test_monomial_times_a_fraction_matches_the_general_constructor(x, c, k):
    m = QScalar(LaurentPoly.q_power(k, c))
    for product in (m * x, x * m):
        assert product == _general_product(m, x)
        assert product.den == (x.den if x else LP_ONE)


@settings(max_examples=80, deadline=None)
@given(_poly, _poly, _nonzero_gauss)
def test_denominator_with_constant_term_one_matches_a_rescaled_one(num, tail, c):
    # den = 1 + q^j*tail (j > 0) has constant coefficient 1; den*c needs the rescale
    if not tail:
        tail = LP_ONE
    den = LP_ONE + tail * LaurentPoly.q_power(1 - tail.min_exp())
    x = QScalar(num, den)
    assert x == QScalar(num * LaurentPoly.gauss(c), den * LaurentPoly.gauss(c))
    if x and not x.den.is_one:
        assert x.den.min_exp() == 0 and x.den.coeff[0] == GR_ONE
