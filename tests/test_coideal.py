"""Stabilizer generators: q-commutator words, solved mixture coefficients,
and agreement with the tabulated closed forms."""
import pytest

from repoints.coideal import (
    MixtureInconsistentError,
    build_point_stabilizer,
    check_stabilizer,
    f_tilde_root_vector,
    q_commutator,
    solve_mixture,
)
from repoints.natrep import build_natural_rep, cartan_power
from repoints.points import default_params, quantum_point
from repoints.qmatrix import QMatrix, commutator
from repoints.rootdata import ClassSpec, theta_for_class
from repoints.scalar import ONE, Q, QINV, QScalar, parse_scalar


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
    ss = build_point_stabilizer(spec, point.params, point.A)
    assert ss.mixed_generators
    for gen in ss.mixed_generators:
        assert gen.c_solved
        if gen.c_table is not None:
            assert gen.table_matches, (gen.alpha, gen.c_table, gen.c_solved)


def test_undefined_table_entry_is_flagged_not_guessed():
    # so(2n) with m = n-1 has a tabulated coefficient with an undefined index
    spec = ClassSpec("so", 8, "t2", 3, 1)
    point = quantum_point(spec)
    ss = build_point_stabilizer(spec, point.params, point.A)
    by_alpha = {g.alpha: g for g in ss.mixed_generators}
    assert by_alpha[3].c_table is None
    assert "undefined index" in by_alpha[3].c_table_note
    assert by_alpha[3].c_solved  # solved exactly regardless


def test_known_coefficient_value():
    spec = ClassSpec("so", 5, "t2", 1, 1)
    point = quantum_point(spec)
    ss = build_point_stabilizer(spec, point.params, point.A)
    gen = ss.mixed_generators[0]
    # c = (-1)^(n-m+1)/(y_m q^(m+1)) with n = 2, m = 1, y_1 = 1
    assert gen.c_solved == QScalar.q_power(-2)
    assert gen.c_table == gen.c_solved


def test_perturbed_coefficient_breaks_commutation():
    spec = ClassSpec("sp", 4, "t2", 2, 1)
    point = quantum_point(spec)
    ss = build_point_stabilizer(spec, point.params, point.A)
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
    with pytest.raises(MixtureInconsistentError):
        solve_mixture(rep, td, broken, 1, f_tilde)


def test_check_stabilizer_reports_failures():
    spec = ClassSpec("sl", 3, "t2", 1, 1)
    point = quantum_point(spec)
    ss = build_point_stabilizer(spec, point.params, point.A)
    good = check_stabilizer(ss, point.A)
    assert all(r.passed for r in good)
    other = quantum_point(ClassSpec("sl", 3, "t2", 0, 1)).A  # identity
    mixed = check_stabilizer(ss, other + QMatrix.from_entries(3, [(0, 1, ONE)]))
    assert any(not r.passed for r in mixed)
