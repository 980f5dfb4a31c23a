"""theta as one signed lookup per coordinate, against the form it replaced.

`theta_for_class` reads theta off the classical point A0 as a signed
permutation (src, sign) and decides theta^2 = 1 on it.  The form before it
applied theta as a d-term sum per coordinate and checked
theta(theta(w)) = w on every weight.  The lookup must refuse every A0 the
sum form refuses, and give the same theta wherever both accept.
"""
import pytest

from repoints import points, rootdata
from repoints.points import theta_for_class
from repoints.qmatrix import QMatrix
from repoints.rootdata import ClassSpec, admissible_cases, build_root_system
from repoints.scalar import ONE


def _sum_form(spec, A0):
    """theta as the sum form applied it, or None where that form refused A0."""
    ls = spec.series
    rs = build_root_system(ls)
    image = {b: rs.weights[a] for a, row in enumerate(A0.rows) for b in row}
    if len(image) != ls.dim or any(len(row) != 1 for row in A0.rows):
        return None
    d = ls.eps_dim
    nonzero = [[(b, image[b][k]) for b in range(d) if image[b][k]] for k in range(d)]

    def apply(v):
        return tuple(sum(a * v[b] for b, a in row) for row in nonzero)

    if any(apply(apply(w)) != w for w in rs.weights):
        return None
    return apply


def _default_a0(spec):
    return points.classical_point(spec, points.classical_limit_params(
        points.default_params(spec)))


def test_the_lookup_is_the_sum_form_on_every_class_to_n40(monkeypatch):
    monkeypatch.setattr(rootdata, "MAX_N", 40)
    cases = admissible_cases(40)
    assert len(cases) == 2031
    for spec in cases:
        rs = build_root_system(spec.series)
        d = spec.series.eps_dim
        reference = _sum_form(spec, _default_a0(spec))
        assert reference is not None, spec.case_id
        apply = theta_for_class.__wrapped__(spec).apply
        units = [tuple(int(k == b) for k in range(d)) for b in range(d)]
        assert [apply(v) for v in units] == [reference(v) for v in units], spec.case_id
        assert [apply(w) for w in rs.weights] == [reference(w) for w in rs.weights]


def _permutation(N, images):
    """The permutation matrix with column b's one in row images[b]."""
    return QMatrix(N, [{b: ONE for b, a in enumerate(images) if a == row} for row in range(N)])


# hand-made A0s, each with the class it stands in for and the refusal
HAND_MADE = {
    # a 3-cycle of the coordinates: theta^3 = 1, not theta^2
    "three-cycle": (ClassSpec("sl", 3, "t2", 1, 1), _permutation(3, [1, 2, 0]),
                    "not an involution"),
    # so5 (d = 2): e0 -> e1, e1 -> e0', keeping pairs: theta(e0) = e1,
    # theta(e1) = -e0, so theta^2 = -1 on the span
    "sign": (ClassSpec("so", 5, "t2", 1, 1), _permutation(5, [1, 4, 2, 0, 3]), "not an involution"),
    # sp4 (d = 2): e0 -> e0, e1 -> e0', e0' -> e1: two columns on e0's axis
    "pairing, singular": (ClassSpec("sp", 4, "t2", 2, 1), _permutation(4, [0, 3, 1, 2]),
                          "breaks the pairing"),
    # so5: the middle vector and e1' swapped; theta on e0, e1 is the identity
    "pairing, past d": (ClassSpec("so", 5, "t2", 1, 1), _permutation(5, [0, 1, 3, 2, 4]),
                        "breaks the pairing"),
}


@pytest.mark.parametrize("name", HAND_MADE)
def test_the_lookup_refuses_a_hand_made_point(monkeypatch, name):
    spec, A0, refusal = HAND_MADE[name]
    monkeypatch.setattr(points, "classical_point", lambda spec, params: A0)
    with pytest.raises(AssertionError, match=refusal):
        theta_for_class.__wrapped__(spec)


def test_the_sum_form_refused_all_but_the_pairing_past_d():
    # the lookup refuses a superset: the sum form read only the first d
    # columns, so it missed a broken pair among the rest
    refused = {name for name, (spec, A0, _) in HAND_MADE.items() if _sum_form(spec, A0) is None}
    assert refused == set(HAND_MADE) - {"pairing, past d"}
