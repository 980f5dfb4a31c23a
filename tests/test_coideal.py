"""Stabilizer generators: q-commutator words, solved mixture coefficients,
and agreement with the tabulated closed forms."""
import os
import random
import sys

import pytest

from repoints import coideal
from repoints.coideal import (
    MixtureInconsistentError,
    MixtureUnderdeterminedError,
    build_stabilizer,
    cartan_shift,
    check_stabilizer,
    f_tilde_root_vector,
    q_commutator,
    solve_mixture,
    support_difference,
)
from repoints.natrep import build_natural_rep, cartan_power
from repoints.points import default_params, quantum_point, theta_for_class
from repoints.qmatrix import (
    QMatrix,
    Unreduced,
    commutator,
    first_product_difference,
    first_product_mismatch,
)
from repoints.rootdata import ClassSpec, admissible_cases, build_root_system
from repoints.verifier import full_report
from repoints.scalar import ONE, Q, QINV, QScalar, parse_scalar, render_scalar

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import draw_params  # noqa: E402


def _random_like(dim, seed):
    # deterministic filler matrices for algebraic identities
    m = QMatrix(dim)
    v = seed
    for i in range(dim):
        for j in range(dim):
            v = (v * 1103515245 + 12345) % 2**31
            m.put(i, j, QScalar(v % 5 - 2))
    return m


def test_q_commutator_antisymmetry():
    x = _random_like(3, 7)
    y = _random_like(3, 13)
    assert q_commutator(x, y, Q) == -(q_commutator(y, x, QINV).scale(Q))
    assert q_commutator(x, y, ONE) == commutator(x, y)


def test_simple_partner_gives_plain_generator():
    # sl(5) with m = 2 has tilde(alpha_1) = alpha_4, a plain generator
    spec = ClassSpec("sl", 5, "t2", 2, 1)
    rep = build_natural_rep(spec.series)
    assert f_tilde_root_vector(rep, spec, 1) == rep.F[3]


def test_word_for_fixed_root_is_rejected():
    spec = ClassSpec("sl", 6, "t2", 2, 1)
    rep = build_natural_rep(spec.series)
    with pytest.raises(ValueError):
        f_tilde_root_vector(rep, spec, 3)


def test_sl_words_have_the_twisted_weight():
    spec = ClassSpec("sl", 6, "t2", 2, 1)
    rep = build_natural_rep(spec.series)
    td = theta_for_class(spec)
    for alpha in td.pi_moved:
        w = f_tilde_root_vector(rep, spec, alpha)
        assert not w.is_zero()
        # F_{tilde alpha} is a lowering operator of weight -tilde(alpha):
        # conjugating by q^{h_beta} scales it by q^{-(beta, tilde)}
        beta = tuple(1 if j == 0 else 0 for j in range(6))
        kb = cartan_power(spec.series, beta)
        kb_inv = cartan_power(spec.series, tuple(-x for x in beta))
        from repoints.rootdata import dot
        expected = QScalar.q_power(-dot(beta, td.tilde_eps[alpha]))
        assert kb * w * kb_inv == w.scale(expected)


@pytest.mark.parametrize("spec", [
    ClassSpec("sl", 5, "t2", 2, 1),
    ClassSpec("so", 7, "t2", 2, 1),
    ClassSpec("so", 6, "t2", 2, 1),
    ClassSpec("sp", 6, "t2", 2, -1),
    ClassSpec("sp", 6, "t4"),
    ClassSpec("so", 8, "t4"),
], ids=lambda s: s.case_id)
def test_solved_coefficients_match_tables(spec):
    point = quantum_point(spec)
    ss = build_stabilizer(spec, point.params, point.A)
    assert ss.mixed_generators
    for gen in ss.mixed_generators:
        assert gen.c_solved
        if gen.c_table is not None:
            assert gen.table_matches, (gen.alpha, gen.c_table, gen.c_solved)


def test_undefined_table_entry_is_flagged_not_guessed():
    # so(2n) with m = n-1 has a tabulated coefficient with an undefined index
    spec = ClassSpec("so", 8, "t2", 3, 1)
    point = quantum_point(spec)
    ss = build_stabilizer(spec, point.params, point.A)
    by_alpha = {g.alpha: g for g in ss.mixed_generators}
    assert by_alpha[3].c_table is None
    assert "undefined index" in by_alpha[3].c_table_note
    assert by_alpha[3].c_solved  # solved exactly regardless


def test_known_coefficient_value():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    point = quantum_point(spec)
    ss = build_stabilizer(spec, point.params, point.A)
    gen = ss.mixed_generators[0]
    # c = (-1)^(n-m+1)/(y_m q^(m+1)) with n = 2, m = 1, y_1 = 1
    assert gen.c_solved == QScalar.q_power(-2)
    assert gen.c_table == gen.c_solved


def test_perturbed_coefficient_breaks_commutation():
    spec = ClassSpec("sp", 4, "t2", 2, 1)
    point = quantum_point(spec)
    ss = build_stabilizer(spec, point.params, point.A)
    for gen in ss.mixed_generators:
        assert commutator(gen.X, point.A).is_zero()
        bad = gen.X + gen.F_tilde.scale(gen.c_solved * (Q - ONE))
        assert not commutator(bad, point.A).is_zero()


def test_solve_mixture_rejects_non_point():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    rep = build_natural_rep(spec.series)
    td = theta_for_class(spec)
    point = quantum_point(spec)
    broken = point.A + QMatrix.from_entries(5, [(0, 4, parse_scalar("q^3"))])
    f_tilde = f_tilde_root_vector(rep, spec, 1)
    lead = cartan_power(spec.series, cartan_shift(td, 1)) * rep.e[0]
    with pytest.raises(MixtureInconsistentError):
        solve_mixture(lead, broken, 1, f_tilde)


def test_check_stabilizer_reports_failures():
    spec = ClassSpec("sl", 3, "t2", 1, 1)
    point = quantum_point(spec)
    ss = build_stabilizer(spec, point.params, point.A)
    good = check_stabilizer(ss, point.A)
    assert all(r.passed for r in good)
    other = quantum_point(ClassSpec("sl", 3, "t2", 0, 1)).A  # identity
    mixed = check_stabilizer(ss, other + QMatrix.from_entries(3, [(0, 1, ONE)]))
    assert any(not r.passed for r in mixed)


def _mixture_inputs(spec, A):
    """(lead, alpha, F_tilde) for each moved simple root, as `build_stabilizer`
    forms them."""
    rep = build_natural_rep(spec.series)
    td = theta_for_class(spec)
    for a in td.pi_moved:
        lead = cartan_power(spec.series, cartan_shift(td, a)) * rep.e[a - 1]
        yield lead, a, f_tilde_root_vector(rep, spec, a)


def _direct_mixture(lead, A, alpha, F_tilde):
    """The coefficient from the full commutators b1 = [lead, A] and
    b2 = [F_tilde, A]: c = -b1[p] / b2[p] at b2's first nonzero p, accepted
    when b1[r] b2[p] = b1[p] b2[r] at every entry r; with X = lead + c F_tilde."""
    b1, b2 = commutator(lead, A), commutator(F_tilde, A)
    pivot = next(b2.nonzero_items(), None)
    if pivot is None:
        if b1.is_zero():
            raise MixtureUnderdeterminedError(f"alpha_{alpha}: both commutators vanish")
        raise MixtureInconsistentError(f"alpha_{alpha}: no coefficient can cancel the commutator")
    i, j, val = pivot
    b1p = b1.get(i, j)
    entries = {(r, col) for m in (b1, b2) for r, col, _ in m.nonzero_items()}
    if any(b1.get(r, col) * val != b1p * b2.get(r, col) for r, col in entries):
        raise MixtureInconsistentError(f"alpha_{alpha}: commutators are not proportional")
    c = -(b1p / val)
    return c, lead + F_tilde.scale(c)


def _solved_normalized(lead, A, alpha, F_tilde):
    """`solve_mixture`'s coefficient c and X, normalized; its X'' is X
    times c_den, at t."""
    c, X2 = solve_mixture(lead, A, alpha, F_tilde)
    X = lead + F_tilde.scale(c.value)
    one = QMatrix.identity(A.dim)
    assert first_product_mismatch(X2, one, Unreduced((c.den, X, None)), one) is None
    return c.value, X


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (MixtureInconsistentError, MixtureUnderdeterminedError) as exc:
        return type(exc), str(exc)


def test_row_read_coefficient_matches_the_full_commutators():
    """Every admissible class with N <= 10, at its default parameters and at
    one seeded draw: `solve_mixture` gives the coefficient, or the error, that
    the full commutators give."""
    rng = random.Random(7)
    points = []
    for spec in admissible_cases(10):
        params = default_params(spec)
        points.append((spec, params))
        if params.values:
            points.append((spec, draw_params(spec, rng)))
    count = 0
    for spec, params in points:
        A = quantum_point(spec, params).A
        for lead, a, f_tilde in _mixture_inputs(spec, A):
            want = _outcome(_direct_mixture, lead, A, a, f_tilde)
            assert _outcome(_solved_normalized, lead, A, a, f_tilde) == want, (spec.case_id, a)
            count += 1
    assert count >= 700


def test_zero_f_tilde_with_zero_lead_is_underdetermined():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    A = quantum_point(spec).A
    with pytest.raises(MixtureUnderdeterminedError, match="both commutators vanish"):
        solve_mixture(QMatrix(5), A, 1, QMatrix(5))


def test_zero_f_tilde_cannot_cancel_a_nonzero_commutator():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    rep = build_natural_rep(spec.series)
    A = quantum_point(spec).A
    with pytest.raises(MixtureInconsistentError,
                       match="no coefficient can cancel the commutator"):
        solve_mixture(rep.e[0], A, 1, QMatrix(5))


def _dense_cartan(spec):
    """(name, beta) for each Cartan generator q^{h_beta} of the stabilizer, in
    the order `build_stabilizer` lists them."""
    rs = build_root_system(spec.series)
    td = theta_for_class(spec)
    for b in td.pi_fixed:
        beta = rs.simple[b - 1]
        yield f"k{b}", beta
        yield f"k{b}_inv", tuple(-x for x in beta)
    for a in td.pi_moved:
        beta = cartan_shift(td, a)
        yield f"k.tilde{a}", beta
        yield f"k.tilde{a}_inv", tuple(-x for x in beta)


_PERTURBATION = parse_scalar("(q+2)/(q^2+3)")


def test_support_decision_matches_the_kernel_on_every_class_to_n12():
    """Every Cartan generator of every admissible class with N <= 12, at the
    point for default parameters and for one seeded draw, and at the default
    point with (q+2)/(q^2+3) added at (0, N-1) or at (N//2, 0): the support
    decision returns what the kernel returns on the dense matrix
    cartan_power(beta).  Each X that `check_stabilizer` takes from the
    mixture's acceptance agrees with a fresh kernel call, and X is
    pi(q^{h_beta}) e_alpha + c F_tilde with the dense Cartan factor."""
    rng = random.Random(7)
    decided = failing = reused = 0
    for spec in admissible_cases(12):
        N = spec.N
        rep = build_natural_rep(spec.series)
        default = quantum_point(spec)
        points = [default.A]
        if default.params.values:
            points.append(quantum_point(spec, draw_params(spec, rng)).A)
        points += [default.A + QMatrix.from_entries(N, [(*pos, _PERTURBATION)])
                   for pos in [(0, N - 1), (N // 2, 0)]]
        for A in points:
            ss = build_stabilizer(spec, default_params(spec), A)
            gens = dict(ss.l_generators + ss.cartan_generators)
            for name, beta in _dense_cartan(spec):
                D = cartan_power(spec.series, beta)
                want = first_product_difference(D, A, A, D)
                assert support_difference(gens[name], A) == want, (spec.case_id, name)
                decided += 1
                failing += want is not None
            records = {r.name: r for r in check_stabilizer(ss, A)}
            for gen in ss.mixed_generators:
                X = gen.X
                assert records[f"stab.X.alpha{gen.alpha}"].passed
                assert first_product_difference(X, A, A, X) is None, (spec.case_id, gen.alpha)
                lead = cartan_power(spec.series, cartan_shift(theta_for_class(spec), gen.alpha))
                assert X == lead * rep.e[gen.alpha - 1] + gen.F_tilde.scale(gen.c_solved)
                reused += 1
    assert decided >= 9000 and failing >= 1200 and reused >= 1900, (decided, failing, reused)


def test_each_lead_is_the_diagonal_times_e_alpha_on_every_class_to_n12(monkeypatch):
    """The lead k.tilde e_alpha that `build_stabilizer` reads off d and
    e_alpha's signed permutation is the dense product diag(q^d) e_alpha, on
    every moved root of every admissible class with N <= 12, solved or not."""
    leads = []
    solve = coideal.solve_mixture

    def recording(lead, A, alpha, F_tilde):
        leads.append((alpha, lead))
        return solve(lead, A, alpha, F_tilde)

    monkeypatch.setattr(coideal, "solve_mixture", recording)
    checked = 0
    for spec in admissible_cases(12):
        del leads[:]
        build_stabilizer(spec, default_params(spec), quantum_point(spec).A)
        td = theta_for_class(spec)
        e = build_natural_rep(spec.series).e
        assert [a for a, _ in leads] == list(td.pi_moved), spec.case_id
        for a, lead in leads:
            assert lead == cartan_power(spec.series, cartan_shift(td, a)) * e[a - 1], (
                spec.case_id, a)
            checked += 1
    assert checked >= 600, checked


@pytest.mark.parametrize("spec", [
    ClassSpec("sl", 6, "t2", 2, 1),
    ClassSpec("so", 7, "t2", 2, 1),
    ClassSpec("so", 8, "t4"),
    ClassSpec("sp", 6, "t2", 2, -1),
], ids=lambda s: s.case_id)
def test_passing_stabilizer_multiplies_no_diagonal_and_accepts_each_x_once(monkeypatch, spec):
    """On a passing `full_report`, at default and at drawn parameters, the
    stabilizer's kernel calls are one per F_tilde and one acceptance per
    mixed X'' = c_den X: none has a diagonal first factor, e_b and f_b take
    none, and X itself is never formed."""
    built, calls = [], []  # each StabilizerSet, and each kernel call's first factor

    def keeping(*args):
        built.append(build(*args))
        return built[-1]

    def recording(kernel):
        def call(x, y, z, w):
            calls.append(x)
            return kernel(x, y, z, w)
        return call

    build = coideal.build_stabilizer
    monkeypatch.setattr(coideal, "build_stabilizer", keeping)
    for name in ("first_product_difference", "first_product_mismatch"):
        monkeypatch.setattr(coideal, name, recording(getattr(coideal, name)))
    for params in (default_params(spec), draw_params(spec, random.Random(7))):
        del calls[:], built[:]
        assert full_report(spec, params).passed
        (ss,) = built
        td = theta_for_class(spec)
        assert ss.mixed_generators and len(ss.mixed_generators) == len(td.pi_moved)
        assert not any(isinstance(x, QMatrix) and all(row.keys() <= {i} for i, row in
                                                      enumerate(x.rows)) for x in calls)
        for gen in ss.mixed_generators:
            assert sum(x is gen.X_cleared for x in calls) == 1
            assert sum(x is gen.F_tilde for x in calls) == 1
            assert "X" not in vars(gen) and "value" not in vars(gen.c)
        assert len(calls) == 2 * len(td.pi_moved)


def test_a_wrong_k_tilde_exponent_fails_with_the_kernel_detail():
    """Negative control: each k-tilde of every class with N <= 8, with beta
    shifted by a simple root, fails `stab.k.tilde<a>` with the detail that
    the kernel gives on the dense diagonal matrix, and passes exactly when
    the kernel finds the dense matrix commuting with A."""
    failing = 0
    for spec in admissible_cases(8):
        ls = spec.series
        td = theta_for_class(spec)
        point = quantum_point(spec)
        A = point.A
        ss = build_stabilizer(spec, point.params, A)
        cartan = ss.cartan_generators
        for a in td.pi_moved:
            name = f"k.tilde{a}"
            shifted = []
            for alpha in build_root_system(ls).simple:
                beta = tuple(x + y for x, y in zip(cartan_shift(td, a), alpha))
                ss.cartan_generators = [(n, coideal.cartan_exponents(ls, beta) if n == name else g)
                                        for n, g in cartan]
                (record,) = [r for r in check_stabilizer(ss, A) if r.name == f"stab.{name}"]
                D = cartan_power(ls, beta)
                diff = first_product_difference(D, A, A, D)
                if diff is None:
                    assert record.passed and record.detail is None
                else:
                    i, j, da, ad = diff
                    assert not record.passed
                    assert record.detail == (f"[{name}, A] has entry "
                                             f"{render_scalar(da - ad)} at ({i}, {j})")
                shifted.append(record.passed)
            assert not all(shifted), (spec.case_id, a)
            failing += shifted.count(False)
    assert failing >= 700


def test_k_tilde_control_detail_is_pinned():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    point = quantum_point(spec)
    ss = build_stabilizer(spec, point.params, point.A)
    beta = tuple(x + y for x, y in zip(cartan_shift(theta_for_class(spec), 1),
                                       build_root_system(spec.series).simple[0]))
    ss.cartan_generators[0] = ("k.tilde1", coideal.cartan_exponents(spec.series, beta))
    (record,) = [r for r in check_stabilizer(ss, point.A) if r.name == "stab.k.tilde1"]
    assert (record.passed, record.detail) == (False, "[k.tilde1, A] has entry q - q^-1 at (0, 4)")
