"""Field arithmetic in Q(i)(q): canonical form, parsing, and q-integers."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints import scalar
from repoints.scalar import (
    GR_ONE,
    GaussRational,
    I_UNIT,
    LP_ONE,
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
    return scalar._coprime_mod_p(scalar._dense(num), scalar._dense(den))


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


def test_vanishing_leading_coefficient_falls_back_to_euclid():
    # mod P the common factor P q + 1 becomes the unit 1, so the images of
    # (P q + 1)(q + 3) and (P q + 1)(q + 5) are coprime
    lead_vanishes = LaurentPoly({1: GaussRational(scalar._P), 0: GR_ONE})
    num, den = lead_vanishes * _lit("q + 3"), lead_vanishes * _lit("q + 5")
    images = scalar._dense_mod_p(scalar._dense(num)), scalar._dense_mod_p(scalar._dense(den))
    assert images[0][-1] == 0 and images[1][-1] == 0
    assert not _certificate(num, den)
    assert QScalar(num, den) == parse_scalar("(q + 3)/(q + 5)")
    # also when the pair really is coprime
    assert not _certificate(lead_vanishes, _lit("q + 2"))
    x = QScalar(lead_vanishes, _lit("q + 2"))
    assert x.num == lead_vanishes * LaurentPoly({0: GaussRational(Fraction(1, 2))})
    assert x.den == _lit("1/2*q + 1")


def test_denominator_divisible_by_p_falls_back_to_euclid():
    small = LaurentPoly({1: GR_ONE, 0: GaussRational(0, Fraction(1, scalar._P))})
    assert scalar._dense_mod_p(scalar._dense(small)) is None
    num, den = small * _lit("q - 1"), small * _lit("q + 2")
    assert not _certificate(num, den)
    assert QScalar(num, den) == parse_scalar("(q - 1)/(q + 2)")
    assert not _certificate(small, _lit("q + 2"))
    x = QScalar(small, _lit("q + 2"))
    assert x * QScalar(_lit("q + 2")) == QScalar(small)
    assert x.den == _lit("1/2*q + 1")


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


def _image_from_re_im(c):
    """The image in F_P through the Fraction components, or None."""
    re, im = c.re, c.im
    d = re.denominator * im.denominator
    if d % scalar._P == 0:
        return None
    v = re.numerator * im.denominator + scalar._I_MOD_P * im.numerator * re.denominator
    return v * pow(d, -1, scalar._P) % scalar._P


_P_frac = st.builds(Fraction, st.integers(-10**25, 10**25),
                    st.sampled_from([1, 2, 3, 12, scalar._P, 5 * scalar._P, scalar._P ** 2]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(GaussRational, _P_frac, _P_frac), min_size=1, max_size=5))
def test_dense_mod_p_matches_the_component_formula(coeffs):
    images = [_image_from_re_im(c) for c in coeffs]
    want = None if None in images else images
    assert scalar._dense_mod_p(coeffs) == want


def test_dense_mod_p_rejects_a_denominator_divisible_by_p():
    P = scalar._P
    assert scalar._dense_mod_p([GaussRational(1), GaussRational(0, Fraction(3, 2 * P))]) is None
    assert scalar._dense_mod_p([GaussRational(Fraction(1, P), Fraction(1, 7))]) is None
    # P in a numerator is fine: the image is 0
    assert scalar._dense_mod_p([GaussRational(P, Fraction(2 * P, 3))]) == [0]
    s = scalar._I_MOD_P
    assert scalar._dense_mod_p([GaussRational(Fraction(1, 2), Fraction(3, 4))]) == [
        (2 + 3 * s) * pow(4, -1, P) % P]


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
