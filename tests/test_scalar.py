"""Field arithmetic in Q(i)(q): canonical form, parsing, and q-integers."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints import scalar
from repoints.scalar import (
    GR_ONE,
    GaussRational,
    I_UNIT,
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
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
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


@settings(max_examples=80, deadline=None)
@given(_scalar)
def test_q_inversion_is_an_involution(x):
    assert x.subs_q_inverse().subs_q_inverse() == x


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
              a.conjugate(), QScalar(_lit("q^2 + 2/3*i"), _lit("3*q - 1")).den.coeff[1]):
        assert type(x.re) is Fraction and type(x.im) is Fraction
    assert r * r == GaussRational(Fraction(9, 16)) and (r * r).im == 0
    assert a * b == GaussRational(Fraction(-5, 3) - 7, Fraction(7, 6) - 10)
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
    with pytest.raises(AttributeError):
        (a * b).im = Fraction(1)
