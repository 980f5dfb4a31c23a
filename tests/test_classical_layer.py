"""The classical layer of `verify`, decided on A0's Gaussian entries.

- The normalizer: `classical._conjugation` decides Ad_a(g) = g by the
  invariant form, a^T J a = s J in B, C and D and nothing in A. The
  reference expands a x a^-1 in the basis for every simple generator x and
  checks the residual; both verdicts are compared on every series with
  N <= 16.
- The records: `classical.limit` and `classical.square` compare Gaussian
  entry dicts, and a failing one names the mismatch that the QMatrix
  comparison (`_record_equal`) named.
- The passing path: no basis expansion, no QMatrix product in the classical
  stage, and v_beta only for the roots that A0 moves.
"""
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import algebra_duals

from repoints import classical, coideal, linalg, verifier
from repoints.classical import _conjugation, build_classical_algebra, gauss_entries
from repoints.cli import main
from repoints.natrep import build_natural_rep
from repoints.points import default_params, quantum_point
from repoints.qmatrix import QMatrix
from repoints.rootdata import ClassSpec, NotInSpanError, admissible_cases, series_for_group
from repoints.scalar import ONE, GaussRational, QScalar, eval_at_one, parse_scalar
from repoints.verifier import _record_equal, full_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import draw_params  # noqa: E402

SERIES_TO_16 = ([("sl", N) for N in range(2, 17)] + [("so", N) for N in range(3, 17)]
                + [("sp", N) for N in range(2, 17, 2)])


# --- the form test against the residual test ---------------------------------

def _mul(a, b):
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            out[(i, j)] = out.get((i, j), GaussRational(0)) + x * y
    return {key: v for key, v in out.items() if v}


def residual_verdict(data, a):
    """Every simple generator x has a x a^-1 in the span of the basis, by the
    dual-basis expansion and its residual check."""
    n = data.ls.dim
    inverse = linalg.invert([[a.get((i, j), GaussRational(0)) for j in range(n)]
                             for i in range(n)])
    a_inv = {(i, j): x for i, row in enumerate(inverse) for j, x in enumerate(row) if x}
    rep = build_natural_rep(data.ls)
    try:
        for m in rep.e + rep.f:
            data.expander.expand(_mul(_mul(a, gauss_entries(m)), a_inv))
    except NotInSpanError:
        return False
    return True


def form_verdict(data, a):
    try:
        _conjugation(data, a)
    except NotInSpanError:
        return False
    return True


def _gauss(rng):
    return GaussRational(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def _form_scaling_diagonal(ls, rng):
    """diag(d) with d_j d_(N-1-j) = s for every j, so a^T J a = s J; any
    invertible diagonal in A."""
    n = ls.dim
    t = _gauss(rng)
    d = [None] * n
    for j in range(n):
        if d[j] is not None:
            continue
        jp = n - 1 - j
        if ls.series == "A":
            d[j] = _gauss(rng)
        elif jp == j:
            d[j] = t if rng.random() < 0.5 else -t
        else:
            d[j] = _gauss(rng)
            d[jp] = t * t / d[j]
    return {(j, j): x for j, x in enumerate(d)}


def _signed_permutation(ls, rng, paired):
    """A signed permutation matrix, a e_j = sign_j e_pi(j). When paired, pi
    maps mirrored pairs {j, N-1-j} to mirrored pairs, and the signs are
    first chosen so that a^T J a = s J, then one of them is flipped at
    random."""
    n = ls.dim
    if not paired:
        pi = list(range(n))
        rng.shuffle(pi)
        return {(pi[j], j): GaussRational(rng.choice((1, -1))) for j in range(n)}
    pairs = [(j, n - 1 - j) for j in range(n // 2)]
    images = pairs[:]
    rng.shuffle(images)
    pi = {}
    for (j, jp), (k, kp) in zip(pairs, images):
        if rng.random() < 0.5:
            k, kp = kp, k
        pi[j], pi[jp] = k, kp
    if n % 2:
        pi[n // 2] = n // 2
    kappa = [1 if ls.series != "C" or 2 * j < n else -1 for j in range(n)]
    s = rng.choice((1, -1))
    sign = {}
    for j, jp in pairs:
        sign[j] = rng.choice((1, -1))
        # (a^T J a)[j][jp] = sign_j sign_jp kappa_pi(j), which must be s kappa_j
        sign[jp] = s * kappa[j] * kappa[pi[j]] * sign[j]
    if n % 2:
        sign[n // 2] = rng.choice((1, -1))
    if rng.random() < 0.5:
        j = rng.randrange(n)
        sign[j] = -sign[j]
    return {(pi[j], j): GaussRational(sign[j]) for j in range(n)}


def _dense_random(ls, rng):
    n = ls.dim
    while True:
        a = {(i, j): GaussRational(rng.randint(-3, 3), rng.randint(-2, 2))
             for i in range(n) for j in range(n)}
        a = {key: x for key, x in a.items() if x}
        try:
            linalg.invert([[a.get((i, j), GaussRational(0)) for j in range(n)] for i in range(n)])
        except linalg.SingularMatrixError:
            continue
        return a


def synthetic_inputs(ls, seed):
    """Diagonals that scale J, each with one entry changed, dense random
    matrices and signed permutations, all invertible."""
    rng = random.Random(seed)
    n = ls.dim
    inputs = []
    for _ in range(2):
        d = _form_scaling_diagonal(ls, rng)
        inputs.append(d)
        changed = dict(d)
        i, j = rng.randrange(n), rng.randrange(n)
        changed[(i, j)] = GaussRational(2) * d[(i, i)] if i == j else _gauss(rng)
        inputs.append(changed)
    inputs.append(_dense_random(ls, rng))
    for paired in (False, True, True, True):
        inputs.append(_signed_permutation(ls, rng, paired))
    return inputs


@pytest.mark.parametrize("group,N", SERIES_TO_16)
def test_form_test_matches_the_residual_test_on_synthetic_inputs(group, N):
    ls = series_for_group(group, N)
    data = build_classical_algebra(ls)
    verdicts = []
    for a in synthetic_inputs(ls, f"{group}{N}"):
        verdicts.append(form_verdict(data, a))
        assert verdicts[-1] == residual_verdict(data, a), a
    if group == "sl" or N == 2:
        # every invertible a normalizes sl(N); sp(2) = sl(2), as
        # a^T J a = det(a) J for every 2 x 2 matrix a
        assert all(verdicts)
    else:
        # both outcomes occur, so neither verdict is constant on these inputs
        assert True in verdicts and False in verdicts


def _classical_points(n_max):
    """(spec, label, A0 entries) for every admissible class with N <= n_max, at
    default parameters and at the seed-7 draw of `scripts/dump_records.py`."""
    rng = random.Random(7)
    for spec in admissible_cases(n_max):
        yield spec, "default", gauss_entries(quantum_point(spec).A0)
        if default_params(spec).values:
            params = draw_params(spec, rng)
            yield spec, "seed 7", gauss_entries(quantum_point(spec, params).A0)


def test_form_test_matches_the_residual_test_at_every_classical_point():
    seen = 0
    for spec, label, a0 in _classical_points(16):
        data = build_classical_algebra(spec.series)
        assert form_verdict(data, a0) and residual_verdict(data, a0), (spec.case_id, label)
        seen += 1
    assert seen == 676


@pytest.mark.parametrize("group,N", [g for g in SERIES_TO_16 if g[0] != "sl"])
def test_every_basis_element_preserves_the_form(group, N):
    data = build_classical_algebra(series_for_group(group, N))
    J = {key: GaussRational(*k) for key, k in data.form.items()}
    assert len(J) == N and all(j + k == N - 1 for j, k in J)
    for x in data.basis + algebra_duals(data):
        xt = {(j, i): v for (i, j), v in x.items()}
        left, right = _mul(xt, J), _mul(J, x)
        total = {key: left.get(key, GaussRational(0)) + right.get(key, GaussRational(0))
                 for key in left.keys() | right.keys()}
        assert not any(total.values())


def test_sl_has_no_form():
    assert all(build_classical_algebra(series_for_group("sl", N)).form is None
               for N in range(2, 17))


def test_poisson_matrix_exits_two_outside_the_normalizer_and_when_singular(capsys):
    so3 = '[["2","0","0"],["0","1","0"],["0","0","1"]]'
    assert main(["poisson", "--series", "so", "--N", "3", "--matrix", so3]) == 2
    assert "does not normalize so(3)" in capsys.readouterr().err
    singular = '[["1","0","0"],["0","0","0"],["0","0","1"]]'
    assert main(["poisson", "--series", "so", "--N", "3", "--matrix", singular]) == 2
    assert "not invertible" in capsys.readouterr().err


# --- the classical records and their details ---------------------------------

def _qmatrix_records(point):
    """classical.limit and classical.square decided on QMatrix values, the
    reference for the Gaussian entry dicts: A at q = 1 against A0, and A0 A0
    against +-I."""
    N = point.spec.N
    limit = QMatrix(N)
    for i, j, v in point.A.nonzero_items():
        limit.put(i, j, QScalar.from_gauss(eval_at_one(v)))
    unit = QMatrix.identity(N)
    if point.spec.family == "t4":
        unit = -unit
    return {r.name: r.detail for r in (_record_equal("classical.limit", limit, point.A0),
                                        _record_equal("classical.square", point.A0 * point.A0,
                                                      unit))}


def _report_records(monkeypatch, point):
    monkeypatch.setattr(verifier, "quantum_point", lambda spec, params: point)
    report = full_report(point.spec)
    return {r.name: r.detail for r in report.checks if r.name in
            ("classical.limit", "classical.square")}


def _doubled(m, i, j):
    return m + QMatrix.from_entries(m.dim, [(i, j, m.get(i, j))])


def _sl2_diag_i():
    point = quantum_point(ClassSpec("sl", 2, "t2", 1, 1))
    a0 = QMatrix.from_entries(2, [(0, 0, parse_scalar("i")), (1, 1, ONE)])
    return replace(point, A0=a0)


def _a0_entry_doubled():
    point = quantum_point(ClassSpec("so", 5, "t2", 1, 1))
    i, j, _ = next(point.A0.nonzero_items())
    return replace(point, A0=_doubled(point.A0, i, j))


def _a_entry_doubled():
    point = quantum_point(ClassSpec("sp", 4, "t2", 2, 1))
    i, j, _ = next((i, j, v) for i, j, v in point.A.nonzero_items() if eval_at_one(v))
    return replace(point, A=_doubled(point.A, i, j))


@pytest.mark.parametrize("control", [_sl2_diag_i, _a0_entry_doubled, _a_entry_doubled],
                         ids=lambda f: f.__name__.strip("_"))
def test_classical_details_are_the_qmatrix_comparison_details(control, monkeypatch):
    point = control()
    want = _qmatrix_records(point)
    assert any(d is not None for d in want.values())
    assert _report_records(monkeypatch, point) == want


@pytest.mark.parametrize("spec", [ClassSpec("sl", 8, "t2", 2, 1), ClassSpec("so", 8, "t4"),
                                  ClassSpec("sp", 8, "t2", 2, -1)], ids=lambda s: s.case_id)
def test_a_passing_verify_expands_nothing_and_moves_only_moved_roots(spec, monkeypatch):
    log = []

    def refuse(self, vector):
        raise AssertionError("BasisExpander.expand called on a passing verify")

    def wrap(owner, name, before=None, after=None):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            if before:
                log.append(before)
            out = fn(*args, **kwargs)
            if after:
                log.append(after)
            return out

        monkeypatch.setattr(owner, name, wrapped)

    monkeypatch.setattr(linalg.BasisExpander, "expand", refuse)
    wrap(QMatrix, "__mul__", before="mul")
    wrap(verifier, "check_q_trace", after="classical stage")
    wrap(coideal, "build_stabilizer", before="stabilizer stage")
    wrap(verifier, "check_bivector", before="bivector stage")
    calls = []
    conjugate = classical._conjugate

    def recording(x, conj, moved=False):
        out = conjugate(x, conj, moved)
        calls.append((x, moved, out))
        return out

    monkeypatch.setattr(classical, "_conjugate", recording)
    assert full_report(spec).passed
    start = log.index("classical stage")
    assert log[start:log.index("stabilizer stage")] == ["classical stage"]
    assert log[log.index("bivector stage"):] == ["bivector stage"]

    data = build_classical_algebra(spec.series)
    assert all(moved for _, moved, _ in calls)
    built = {id(x): out for x, _, out in calls}
    assert len(built) == len(calls)
    fixed = 0
    for root in data.positive:
        _, e, f = data.root_vectors[root]
        u = built[id(e)]
        assert (id(f) in built) == bool(u), root
        fixed += not u
    assert 0 < fixed < len(data.positive)


def test_a_given_square_gives_the_conjugation_of_a_computed_one():
    # A0^2 = c0 I with c0 = +-1, so the scaled point m = d A0 has m^2 = d^2 c0 I
    seen = 0
    for spec, label, a0 in _classical_points(12):
        data = build_classical_algebra(spec.series)
        unit = -1 if spec.family == "t4" else 1
        d = classical._integral(a0)[1]
        _, c = _conjugation(data, a0)
        assert c == (unit * d * d, 0), (spec.case_id, label)
        seen += 1
    assert seen >= 300


# --- the omega part read off the root moves ----------------------------------

def _conjugated_casimir(data, a):
    """The omega part as the conjugated split Casimir, the reference:
    sum_k B_k (x) Ad(B_k^v) - Ad(B_k) (x) B_k^v over the whole basis, the
    Cartan block included, with Ad(x) = a x a^-1 in Gaussian rationals and
    a^-1 from `linalg.invert`."""
    n = data.ls.dim
    inverse = linalg.invert([[a.get((i, j), GaussRational(0)) for j in range(n)]
                             for i in range(n)])
    a_inv = {(i, j): x for i, row in enumerate(inverse) for j, x in enumerate(row) if x}

    def ad(x):
        return _mul(_mul(a, x), a_inv)

    out = {}
    for b, d in zip(data.basis, algebra_duals(data)):
        for sign, xs, ys in ((1, b, ad(d)), (-1, ad(b), d)):
            for (i, j), x in xs.items():
                for (r, s), y in ys.items():
                    key = (i, j, r, s)
                    v = x * y
                    out[key] = out.get(key, GaussRational(0)) + (v if sign > 0 else -v)
    return {key: v for key, v in out.items() if v}


def _omega_points():
    """(label, series, a) with a^2 not scalar: diag(2, 1, ..., 1, 1/2), the
    `poisson --matrix` point, on every series with N <= 16, and I + E_01 on
    sl."""
    for group, N in SERIES_TO_16:
        diagonal = {(j, j): GaussRational(1) for j in range(N)}
        diagonal[(0, 0)] = GaussRational(2)
        diagonal[(N - 1, N - 1)] = GaussRational(Fraction(1, 2))
        yield f"{group}{N}-diag", series_for_group(group, N), diagonal
        if group == "sl":
            shear = {(j, j): GaussRational(1) for j in range(N)}
            shear[(0, 1)] = GaussRational(1)
            yield f"{group}{N}-shear", series_for_group(group, N), shear


def test_the_omega_part_is_the_conjugated_casimir(monkeypatch):
    """The omega part read off every root's u_beta and v_beta is the
    tensor the conjugated split Casimir gives, and `bivector_at` conjugates
    each root vector once and each E_jj once."""
    calls = []
    conjugate = classical._conjugate

    def counting(x, conj, moved=False):
        calls.append(x)
        return conjugate(x, conj, moved)

    nonzero = 0
    for label, ls, a in _omega_points():
        data = build_classical_algebra(ls)
        conj, c = _conjugation(data, a)
        assert c is None, label
        got = classical._omega_part(data, conj, classical._root_moves(data, conj, every=True))
        # the omega part is built times delta^2 L, delta a positive integer here
        delta = conj[2]
        assert delta[0] > 0 and delta[1] == 0, label
        assert classical.rational(got, (delta[0] ** 2 * data.scale, 0)) == \
            _conjugated_casimir(data, a), label
        nonzero += bool(got)
        with monkeypatch.context() as patch:
            patch.setattr(classical, "_conjugate", counting)
            del calls[:]
            classical.bivector_at(data, a)
        assert len(calls) == 2 * len(data.positive) + ls.dim, label
    assert nonzero >= len(SERIES_TO_16)
