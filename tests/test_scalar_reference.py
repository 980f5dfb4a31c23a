"""The literal parser and renderer against the ones they replaced.

`_ReferenceParser` and `reference_render` are copies of the parser that
kept every side of its unreduced (num, den) pair as a LaurentPoly and of the
renderer that went through GaussRational and Fraction.  The parser in
`repoints.scalar` must accept the same literals with the same values and
refuse every other one with the same message at the same position, and the
renderer must give the same bytes.
"""
import importlib.util
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints.scalar import (
    I_UNIT,
    LP_ONE,
    MAX_EXPONENT,
    MAX_NESTING,
    GaussRational,
    LaurentPoly,
    Q,
    QScalar,
    ScalarParseError,
    parse_scalar,
    render_scalar,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- the reference parser ---------------------------------------------------

def _reference_power_degree(x: QScalar) -> int:
    """The larger of the exponent spread of numerator plus denominator and the
    largest |exponent| of either; k times it bounds the exponents of x^k."""
    if not x:
        return 0
    n, d = x.num, x.den
    spread = (n.max_exp() - n.min_exp()) + (d.max_exp() - d.min_exp())
    return max(spread, -n.min_exp(), n.max_exp(), -d.min_exp(), d.max_exp())


class _ReferenceParser:
    """Recursive-descent parser for scalar literals over {digits 0-9, i, q, + - * / ^, parens}.

    A subexpression is an unreduced fraction (num, den) of Laurent
    polynomials: a product multiplies numerators and denominators, a quotient
    cross-multiplies, and a sum adds numerators over an equal denominator and
    cross-multiplies otherwise.  Only the whole literal and each base of `^`
    are normalized, the base so that the degree bound reads its canonical
    form.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self) -> str:
        ch = self._peek()
        self.pos += 1
        return ch

    def parse(self) -> QScalar:
        num, den = self.expr()
        if self._peek():
            raise ScalarParseError(f"unexpected character {self._peek()!r}", self.pos)
        return QScalar(num, den)

    def _bound(self, a: LaurentPoly, b: LaurentPoly, lo: int = 0, hi: int = 0) -> tuple:
        """The exponent range of the product a b joined with [lo, hi], which
        holds 0, read off the factors before anything is formed.  A range
        that spans more than 4 MAX_EXPONENT powers of q is refused; as it
        holds 0, that also refuses an |exponent| above 4 MAX_EXPONENT."""
        if a and b:
            low = a.lo + b.lo
            high = low + len(a.re) + len(b.re) - 2
            if low < lo:
                lo = low
            if high > hi:
                hi = high
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
                rnum = -rnum
            # each unreduced numerator is the sum of two products
            if den == rden:
                self._bound(rnum, LP_ONE, *self._bound(num, LP_ONE))
                num = num + rnum
            else:
                self._bound(rnum, den, *self._bound(num, rden))
                self._bound(den, rden)
                num, den = num * rden + rnum * den, den * rden
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
            num, den = num * rnum, den * rden
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
            val = QScalar(num, den)
            if k * _reference_power_degree(val) > MAX_EXPONENT:
                raise ScalarParseError(f"power of degree above {MAX_EXPONENT}", self.pos)
            if esign < 0 and not val:
                raise ScalarParseError("division by zero", self.pos)
            val = val ** (esign * k)
            num, den = val.num, val.den
        return (-num, den) if neg else (num, den)

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
            return I_UNIT.num, LP_ONE
        if ch == "q":
            self._take()
            return Q.num, LP_ONE
        if "0" <= ch <= "9":
            return LaurentPoly.from_int(self._digits()), LP_ONE
        raise ScalarParseError(f"unexpected character {ch!r}" if ch else "unexpected end of input", self.pos)

    def _digits(self) -> int:
        self._skip_ws()
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


# --- the reference renderer -------------------------------------------------

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
    for e, c in sorted(p.coeff.items(), reverse=True):
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


def reference_render(x: QScalar) -> str:
    """Canonical literal form; reparsing it reproduces the same value."""
    if x.den.is_one:
        return _render_poly(x.num)
    return f"({_render_poly(x.num)})/({_render_poly(x.den)})"


# --- the comparison ---------------------------------------------------------

def _outcome(parse, text):
    """The parsed value's fields, or the refusal's message and position."""
    try:
        x = parse(text)
    except ScalarParseError as exc:
        return "refused", str(exc), exc.position
    return "value", x.num, x.den


def _assert_same_outcome(text):
    want = _outcome(lambda t: _ReferenceParser(t).parse(), text)
    assert _outcome(parse_scalar, text) == want, text
    return want


def _workload_literals(seeds):
    """Every --param literal of the benchmark's generic-params inputs and
    negative controls for the given seeds."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for seed in seeds:
        job = workloads.build("generic-params", seed)
        for argv in job["inputs"] + job["controls"]:
            out += [a.split("=", 1)[1] for a in argv if "=" in a]
    return out


def test_parser_matches_the_reference_on_the_benchmark_literals():
    literals = _workload_literals(range(60))
    assert len(literals) == 3000
    for text in literals:
        assert _assert_same_outcome(text)[0] == "value"


_BOUND_LITERALS = [
    "(" * MAX_NESTING + "q" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1),
    "q + " + "9" * 5000,
    "((q^64)^64)^64 + 1", "(q^2)^33", "(q^-3)^22", "(1/q^33)^2",
    "((q^2)^2)^2 + 1", "(q^2)^32", "q^-64", "(q^-2)^32",
    "*".join(["(q+1)^64"] * 400), "*".join(["(q+1)^64"] * 4),
    "q^64*q^64*q^64*q^64*q", "1/(q^64*q^64*q^64*q^64*q)",
    "q^-64*q^-64*q^-64*q^-64*q^-1", "q^-64*q^-64 + q^64*q^64*q",
    "1/q^64/q^64 + 1/q^64/q^64/q", "q^64*q^64*q^64*q^64",
    "q^-64*q^-64*q^-64*q^-64/q", "q^-64*q^-64 + q^64*q^64",
]


@pytest.mark.parametrize("text", _BOUND_LITERALS, ids=range(len(_BOUND_LITERALS)))
def test_parser_matches_the_reference_on_the_bound_literals(text):
    _assert_same_outcome(text)


def test_numerator_and_denominator_are_bounded_apart():
    # one net exponent would refuse the first and accept the second
    assert _assert_same_outcome("q^-64*q^-64*q^-64*q^-64/q")[0] == "value"
    assert _assert_same_outcome("1/q^64/q^64 + 1/q^64/q^64/q")[1:] == (
        "product or sum of degree above 256 (at position 27)", 27)


def _spaced(digits):
    """Digits with whitespace drawn between them: "5 2" is not 52."""
    return st.lists(st.sampled_from(["", "", "", "", " ", "  "]), min_size=len(digits),
                    max_size=len(digits)).map(
        lambda gaps: "".join(g + d for g, d in zip(gaps, digits)).lstrip())


_EXPONENTS = [0, 1, 2, 3, 4, 7, 8, 16, 21, 22, 31, 32, 33, 63, 64, 65, 127, 128, 129,
              255, 256, 257]
_atoms = st.one_of(
    st.sampled_from(["q", "i", "0", "1", "2", "(q + 1)", "(q - i)", "(1 - q^2)"]),
    st.integers(0, 10**6).map(str),
    st.integers(10, 10**6).map(str).flatmap(_spaced),
)


def _combine(children):
    power = st.tuples(children, st.sampled_from(["^", "^-", "^ -", " ^ "]),
                      st.sampled_from(_EXPONENTS).map(str)).map(
        lambda t: f"({t[0]}){t[1]}{t[2]}")
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/", " / ", "/i*", " - "]),
                       children).map(lambda t: f"{t[0]}{t[1]}{t[2]}")
    return st.one_of(
        power,
        st.tuples(children, st.sampled_from(["^", "^-"]),
                  st.sampled_from(_EXPONENTS).map(str)).map("".join),
        binary,
        children.map(lambda x: f"-{x}"),
        children.map(lambda x: f"({x})"),
    )


_expressions = st.recursive(_atoms, _combine, max_leaves=8)
_junk = st.text(alphabet="0123456789iq+-*/^() \t²", max_size=24)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_expressions, _junk))
def test_parser_matches_the_reference_on_drawn_literals(text):
    _assert_same_outcome(text)


def _drawn_poly(lo, pairs, d):
    """sum_k (a_k + b_k i)/d q^(lo + k)."""
    return LaurentPoly({lo + k: GaussRational(Fraction(a, d), Fraction(b, d))
                        for k, (a, b) in enumerate(pairs)})


_poly = st.builds(_drawn_poly, st.integers(-5, 5),
                  st.lists(st.tuples(st.integers(-30, 30), st.just(0) | st.integers(-30, 30)),
                           max_size=5),
                  st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(_poly, _poly)
def test_renderer_matches_the_reference(num, den):
    x = QScalar(num, den or LP_ONE)
    assert render_scalar(x) == reference_render(x)
