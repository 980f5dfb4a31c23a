"""Root systems, class specifications, and the involution combinatorics.

The program reads simple-root coordinates from prefix sums and each moved
root's partner from the support of those coordinates. The tests keep the
Gram-inverse formula (the `gram_coordinates` fixture) and the search over
every pair of moved roots as the oracles for both.
"""
import random
from fractions import Fraction

import pytest

from repoints import linalg, points
from repoints.classical import _sorted_positive
from repoints.natrep import q_trace
from repoints.points import theta_for_class
from repoints.qmatrix import QMatrix
from repoints.rootdata import (
    ClassSpec,
    LieSeries,
    admissible_cases,
    build_root_system,
    dot,
    positive_roots,
    series_for_group,
    simple_roots,
    standard_cases,
)
from repoints.scalar import ONE, QScalar, q_integer


def test_series_for_group():
    assert series_for_group("sl", 4) == LieSeries("A", 3)
    assert series_for_group("so", 7) == LieSeries("B", 3)
    assert series_for_group("so", 8) == LieSeries("D", 4)
    assert series_for_group("sp", 6) == LieSeries("C", 3)
    with pytest.raises(ValueError):
        series_for_group("sp", 5)
    with pytest.raises(ValueError):
        series_for_group("su", 4)


def test_small_root_systems():
    a2 = build_root_system(LieSeries("A", 2))
    assert len(a2.positive) == 3
    assert a2.two_rho == (2, 0, -2)

    b2 = build_root_system(LieSeries("B", 2))
    assert b2.simple == ((1, -1), (0, 1))
    assert len(b2.positive) == 4
    assert b2.two_rho == (3, 1)

    c2 = build_root_system(LieSeries("C", 2))
    assert c2.simple == ((1, -1), (0, 2))
    assert c2.two_rho == (4, 2)

    d3 = build_root_system(LieSeries("D", 3))
    assert len(d3.positive) == 6
    assert d3.two_rho == (4, 2, 0)


def _reflection_closure(ls):
    """The positive roots as the closure of the simple roots under the simple
    reflections v -> v - (2 (v, a)/(a, a)) a."""
    simple = [(a, dot(a, a)) for a in simple_roots(ls)]
    seen = {a for a, _ in simple}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for a, norm in simple:
                c, r = divmod(2 * dot(v, a), norm)
                assert not r
                w = tuple(x - c * y for x, y in zip(v, a))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(v for v in seen if next(x for x in v if x) > 0))


_SERIES_TO_32 = [LieSeries(s, n) for s, ranks in
                 (("A", range(1, 32)), ("B", range(1, 16)), ("C", range(1, 17)), ("D", range(2, 17)))
                 for n in ranks]


@pytest.mark.parametrize("ls", _SERIES_TO_32, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_positive_roots_match_the_reflection_closure(ls):
    pos = positive_roots(ls)
    assert pos == _reflection_closure(ls)
    N = ls.dim
    dim_g = {"A": N * N - 1, "B": N * (N - 1) // 2, "C": N * (N + 1) // 2,
             "D": N * (N - 1) // 2}[ls.series]
    assert len(pos) == (dim_g - ls.rank) // 2


@pytest.mark.parametrize("ls", _SERIES_TO_32, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_expand_in_simple_reproduces_every_positive_root(ls, gram_coordinates):
    rs = build_root_system(ls)
    heights = {}
    for root in rs.positive:
        coords = rs.expand_in_simple(root)
        assert coords == gram_coordinates(ls, root)
        heights[root] = sum(coords)
        assert rs.height(root) == heights[root]
        # a positive root is a nonnegative integer combination of the simple roots
        assert all(type(c) is Fraction and c.denominator == 1 and c >= 0 for c in coords)
        assert tuple(sum(int(c) * alpha[t] for c, alpha in zip(coords, rs.simple))
                     for t in range(ls.eps_dim)) == root
    assert _sorted_positive(rs) == sorted(rs.positive, key=lambda r: (heights[r], r))


@pytest.mark.parametrize("ls", _SERIES_TO_32, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_prefix_sums_match_the_gram_inverse(ls, gram_coordinates):
    rs = build_root_system(ls)
    d, n = ls.eps_dim, ls.rank
    rng = random.Random(f"{ls.series}{n}")
    units = [tuple(int(t == k) for t in range(d)) for k in range(d)]
    drawn = ([tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(20)]
             + [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d))
                for _ in range(5)])
    # each drawn vector, and the same with its coordinates made to sum to 0,
    # so that sl(N) sees vectors on both sides of its span
    vectors = units + drawn + [v[:-1] + (-sum(v[:-1]),) for v in drawn]
    outside = 0
    for v in vectors:
        expected = gram_coordinates(ls, v)
        if expected is None:
            outside += 1
            with pytest.raises(linalg.NotInSpanError):
                rs.expand_in_simple(v)
            with pytest.raises(linalg.NotInSpanError):
                rs.height(v)
            continue
        coords = rs.expand_in_simple(v)
        assert coords == expected and all(type(c) is Fraction for c in coords)
        assert rs.height(v) == sum(expected)
    # only sl(N) has vectors outside the span, e_1 among them
    assert (outside > 0) == (ls.series == "A")
    if ls.series == "A":
        assert gram_coordinates(ls, units[0]) is None
    # e_n has half-integral coordinates in C and D
    if ls.series in ("C", "D"):
        assert rs.expand_in_simple(units[-1])[-1] == Fraction(1, 2)


@pytest.mark.parametrize("ls,v", [(LieSeries("A", 2), (1, 0, 0)), (LieSeries("A", 2), (1, 1, 1)),
                                  (LieSeries("A", 1), (0, 1))])
def test_expand_in_simple_raises_outside_the_span(ls, v):
    # in sl(N) the simple roots span the coordinate-sum-zero hyperplane only
    with pytest.raises(linalg.NotInSpanError):
        build_root_system(ls).expand_in_simple(v)


def test_weights_of_natural_basis():
    rs = build_root_system(LieSeries("B", 2))
    assert rs.weights == ((1, 0), (0, 1), (0, 0), (0, -1), (-1, 0))


@pytest.mark.parametrize("group,N,series,value_of", [
    ("sl", 4, "A", lambda N: q_integer(N)),
    ("so", 5, "B", lambda N: q_integer(N - 1) + ONE),
    ("so", 6, "D", lambda N: q_integer(N - 1) + ONE),
    ("sp", 6, "C", lambda N: q_integer(N + 1) - ONE),
])
def test_rho_weighted_dimension(group, N, series, value_of):
    # sum of q^(2 rho, weight_j) over the natural basis, as a q-trace of I
    rs = build_root_system(series_for_group(group, N))
    assert rs.ls.series == series
    assert q_trace(QMatrix.identity(N), rs) == value_of(N)


def test_class_spec_validation():
    ClassSpec("sl", 4, "t2", 2, -1)
    with pytest.raises(ValueError):
        ClassSpec("sl", 4, "t2", 3)  # m > N/2
    with pytest.raises(ValueError):
        ClassSpec("sl", 4, "t2")  # missing m
    with pytest.raises(ValueError):
        ClassSpec("sp", 6, "t2", 1)  # odd m for sp
    with pytest.raises(ValueError):
        ClassSpec("sl", 4, "t4")
    with pytest.raises(ValueError):
        ClassSpec("so", 7, "t4")  # odd N
    with pytest.raises(ValueError):
        ClassSpec("so", 6, "t4", 1)  # t4 takes no m
    with pytest.raises(ValueError):
        ClassSpec("so", 6, "t4", None, -1)  # t4 has one sign


def test_case_ids():
    assert ClassSpec("so", 6, "t2", 1, 1).case_id == "so6-t2-m1-p"
    assert ClassSpec("so", 6, "t2", 1, -1).case_id == "so6-t2-m1-m"
    assert ClassSpec("sp", 4, "t4").case_id == "sp4-t4"


def test_standard_cases_grid():
    cases = standard_cases()
    assert len(cases) == 79
    assert len({c.case_id for c in cases}) == 79
    assert all(c.group == "sp" for c in standard_cases("sp"))
    assert all(c.N <= 6 for c in standard_cases(n_max=6))


@pytest.mark.parametrize("spec", standard_cases(), ids=lambda s: s.case_id)
def test_theta_is_a_root_system_involution(spec):
    rs = build_root_system(spec.series)
    td = theta_for_class(spec)
    all_roots = set(rs.positive) | {tuple(-x for x in r) for r in rs.positive}
    for root in all_roots:
        image = td.apply(root)
        assert image in all_roots
        assert td.apply(image) == root


# theta as it was tabulated per (group, family, m) before it was read off the
# classical point; for so10-t4 (odd rank) the last coordinate is fixed
THETA_TABLE = {
    ClassSpec("sl", 4, "t2", 1, 1): ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)),
    ClassSpec("so", 5, "t2", 1, 1): ((-1, 0), (0, 1)),
    ClassSpec("so", 6, "t2", 2, -1): ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
    ClassSpec("so", 8, "t4"): ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0)),
    ClassSpec("so", 10, "t4"): ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 0, -1, 0),
                                (0, 0, -1, 0, 0), (0, 0, 0, 0, 1)),
    ClassSpec("sp", 4, "t2", 2, 1): ((0, -1), (-1, 0)),
    ClassSpec("sp", 6, "t4"): ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
}


def _theta_matrix(spec):
    """theta as rows of ints, its column b the image of the unit vector e_b."""
    d = spec.series.eps_dim
    columns = [theta_for_class(spec).apply(tuple(int(k == b) for k in range(d)))
               for b in range(d)]
    return tuple(zip(*columns))


@pytest.mark.parametrize("spec", THETA_TABLE, ids=lambda s: s.case_id)
def test_theta_read_off_the_point_matches_the_table(spec):
    assert _theta_matrix(spec) == THETA_TABLE[spec]


def test_theta_refuses_a_point_that_is_not_a_signed_permutation(monkeypatch):
    spec = ClassSpec("sl", 3, "t2", 1, 1)
    A0 = points.classical_point(spec, points.classical_limit_params(points.default_params(spec)))
    A0.put(0, 1, ONE)
    monkeypatch.setattr(points, "classical_point", lambda spec, params: A0)
    with pytest.raises(AssertionError, match="not a signed permutation"):
        theta_for_class.__wrapped__(spec)


def _reference_theta_data(spec, gram_coordinates):
    """Fixed and moved simple roots, tilde in both bases and the partners,
    derived by the Gram-inverse coordinates and by trying every pair of
    moved roots: j is the partner of i iff tilde(alpha_i) - alpha_j is a
    nonnegative integer combination of the fixed simple roots."""
    ls = spec.series
    rs = build_root_system(ls)
    matrix = _theta_matrix(spec)

    def apply(v):
        return tuple(dot(row, v) for row in matrix)

    fixed = tuple(i for i, a in enumerate(rs.simple, start=1) if apply(a) == a)
    moved = tuple(i for i in range(1, ls.rank + 1) if i not in fixed)
    tilde_eps = {i: tuple(-x for x in apply(rs.simple[i - 1])) for i in moved}
    tilde_simple = {}
    for i in moved:
        coords = gram_coordinates(ls, tilde_eps[i])
        assert all(c.denominator == 1 and c >= 0 for c in coords)
        tilde_simple[i] = tuple(int(c) for c in coords)
    partner = {}
    for i in moved:
        matches = []
        for j in moved:
            diff = tuple(a - b for a, b in zip(tilde_eps[i], rs.simple[j - 1]))
            coords = gram_coordinates(ls, diff)
            if all(c.denominator == 1 and c >= 0 for c in coords) and all(
                    c == 0 for k, c in enumerate(coords, start=1) if k not in fixed):
                matches.append(j)
        assert len(matches) == 1
        partner[i] = matches[0]
    return fixed, moved, tilde_eps, tilde_simple, partner


@pytest.mark.parametrize("spec", admissible_cases(16), ids=lambda s: s.case_id)
def test_twisted_roots_are_positive_with_valid_partners(spec, gram_coordinates):
    rs = build_root_system(spec.series)
    td = theta_for_class(spec)
    assert (td.pi_fixed, td.pi_moved, td.tilde_eps, td.tilde_simple, td.partner) == (
        _reference_theta_data(spec, gram_coordinates))
    fixed = set(td.pi_fixed)
    for i in td.pi_moved:
        tilde = td.tilde_eps[i]
        assert tilde == tuple(-x for x in td.apply(rs.simple[i - 1]))
        assert tilde in rs.positive
        # tilde(alpha) - alpha' is a nonnegative integer combination of the
        # fixed simple roots
        j = td.partner[i]
        diff = tuple(a - b for a, b in zip(tilde, rs.simple[j - 1]))
        coords = rs.expand_in_simple(diff)
        for k, c in enumerate(coords, start=1):
            assert c.denominator == 1 and c >= 0
            if c:
                assert k in fixed


def test_satake_arcs_sl6_m2():
    td = theta_for_class(ClassSpec("sl", 6, "t2", 2, 1))
    assert td.pi_fixed == (3,)
    assert td.pi_moved == (1, 2, 4, 5)
    assert td.partner[1] == 5 and td.partner[5] == 1
    assert td.partner[2] == 4 and td.partner[4] == 2


def test_self_arcs_so_odd():
    td = theta_for_class(ClassSpec("so", 7, "t2", 2, 1))
    assert td.pi_moved == (1, 2)
    assert td.partner == {1: 1, 2: 2}
    assert td.tilde_simple[1] == (1, 0, 0)
    assert td.tilde_simple[2] == (0, 1, 2)
