"""Point matrices: shapes, parameters, constraints, and classical limits."""
import os
import random
import sys

import pytest

from repoints import cli
from repoints.points import (
    ParamError,
    PointParams,
    _top_indices,
    classical_limit_params,
    constraint_value,
    default_params,
    paired_index,
    param_indices,
    pm_exponents,
    quantum_point,
    validate_params,
)
from repoints.qmatrix import QMatrix
from repoints.rootdata import ClassSpec, admissible_cases
from repoints.scalar import (
    I_UNIT,
    ONE,
    Q,
    GaussRational,
    QScalar,
    eval_at_one,
    parse_scalar,
    render_scalar,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS, build, draw_params  # noqa: E402


def test_so6_m1_entries():
    spec = ClassSpec("so", 6, "t2", 1, 1)
    point = quantum_point(spec)
    A = point.A
    q = QScalar.q_power
    assert A.get(0, 0) == q(-1) * (ONE - q(-4))
    assert all(A.get(i, i) == q(-1) for i in range(1, 5))
    assert not A.get(5, 5)
    assert A.get(0, 5) == ONE  # y_1 default
    assert A.get(5, 0) == q(-6)  # y_6 from y_1 y_6 = q^-6


def test_m0_is_signed_identity():
    for sign in (1, -1):
        spec = ClassSpec("sl", 4, "t2", 0, sign)
        point = quantum_point(spec)
        expected = QMatrix.identity(4)
        if sign < 0:
            expected = -expected
        assert point.A == expected
        assert point.A0 == expected


def test_param_indices_and_pairing():
    assert param_indices(ClassSpec("sl", 6, "t2", 2, 1)) == [1, 2, 5, 6]
    assert param_indices(ClassSpec("sp", 8, "t2", 2, 1)) == [1, 7]
    assert param_indices(ClassSpec("sp", 6, "t4")) == [1, 2, 3, 4, 5, 6]
    assert param_indices(ClassSpec("so", 6, "t4")) == [1, 3, 5]
    spec = ClassSpec("sl", 6, "t2", 2, 1)
    assert paired_index(spec, 1) == 6
    assert paired_index(ClassSpec("sp", 8, "t2", 2, 1), 1) == 7


def test_constraint_values():
    assert constraint_value(ClassSpec("sl", 4, "t2", 1, 1)) == QScalar.q_power(-4)
    assert constraint_value(ClassSpec("sp", 6, "t4")) == -QScalar.q_power(-8)
    assert constraint_value(ClassSpec("so", 6, "t4")) == -QScalar.q_power(-4)


def test_self_paired_middle_so_t4():
    spec = ClassSpec("so", 6, "t4")
    params = default_params(spec)
    # the middle z is self-paired: z_3^2 = -q^-4
    assert params.values[3] == I_UNIT * QScalar.q_power(-2)
    assert validate_params(spec, params) == []


def test_validation_catches_broken_pairs():
    spec = ClassSpec("sl", 4, "t2", 1, 1)
    params = default_params(spec)
    params.values[4] = Q
    problems = validate_params(spec, params)
    assert len(problems) == 1 and "y1*y4" in problems[0]
    with pytest.raises(ParamError):
        quantum_point(spec, params)


def test_validation_catches_zero_and_missing():
    spec = ClassSpec("sl", 4, "t2", 1, 1)
    params = PointParams("y", {1: QScalar(0), 4: ONE})
    assert any("= 0" in p for p in validate_params(spec, params))
    params = PointParams("y", {1: ONE})
    assert any("indices" in p for p in validate_params(spec, params))
    params = PointParams("z", {1: ONE, 4: ONE})
    assert any("parameters" in p for p in validate_params(spec, params))


def test_custom_parameters_keep_identities():
    spec = ClassSpec("sl", 4, "t2", 1, 1)
    params = default_params(spec)
    params.values[1] = parse_scalar("i*q^2")
    params.values[4] = constraint_value(spec) / params.values[1]
    point = quantum_point(spec, params)
    assert point.A.get(0, 3) == params.values[1]


def test_classical_square():
    for spec in (ClassSpec("so", 5, "t2", 2, 1), ClassSpec("sp", 4, "t4")):
        point = quantum_point(spec)
        sq = point.A0 * point.A0
        unit = QMatrix.identity(spec.N)
        assert sq == (unit if spec.family == "t2" else -unit)


def test_classical_limit_params_are_q_free():
    params = classical_limit_params(default_params(ClassSpec("so", 6, "t2", 2, 1)))
    for v in params.values.values():
        assert v.den.is_one
        assert set(v.num.coeff) <= {0}


def test_pm_exponents_sign_rule():
    assert pm_exponents(ClassSpec("sl", 5, "t2", 2, 1)) == (3, 2)
    assert pm_exponents(ClassSpec("sl", 5, "t2", 2, -1)) == (2, 3)
    with pytest.raises(ValueError):
        pm_exponents(ClassSpec("sp", 4, "t4"))


def test_sp_t2_staggered_corners():
    spec = ClassSpec("sp", 4, "t2", 2, 1)
    point = quantum_point(spec)
    z1 = point.params.values[1]
    # the z block contributes +z at (i, i'-1) and -z at (i+1, i')
    assert point.A.get(0, 2) == z1
    assert point.A.get(1, 3) == -z1


def _normalized_problems(spec, params):
    """`validate_params` with each pairing product normalized and compared
    with the constant, for parameters that pass its index and pole checks."""
    problems = []
    c = constraint_value(spec)
    k = params.kind
    for i in _top_indices(spec):
        j = paired_index(spec, i)
        vi = params.values[i]
        if not vi:
            problems.append(f"{k}{i} = 0")
            continue
        prod = vi * params.values[j] if j != i else vi * vi
        if prod != c:
            pair = f"{k}{i}*{k}{j}" if j != i else f"{k}{i}^2"
            problems.append(f"{pair} = {render_scalar(prod)}, expected {render_scalar(c)}")
    return problems


def test_cross_multiplied_pairing_check_matches_the_normalized_products():
    """The benchmark workloads' controls (seeds 1-3), and every admissible
    class with N <= 8 at one seeded draw, as drawn and with one parameter
    times 2, times q, divided by (q + 1) and set to 0: `validate_params`
    gives the problems that the normalized products give."""
    cases = _control_cases()
    rng = random.Random(7)
    for spec in admissible_cases(8):
        drawn = draw_params(spec, rng)
        for idx in sorted(drawn.values):
            for factor in (ONE, QScalar(2), Q, (Q + ONE).inv(), QScalar(0)):
                values = dict(drawn.values)
                values[idx] = values[idx] * factor
                cases.append((spec, PointParams(drawn.kind, values)))
    failing = 0
    for spec, params in cases:
        want = _normalized_problems(spec, params)
        assert validate_params(spec, params) == want, spec.case_id
        failing += bool(want)
    assert failing >= 400


def _control_cases():
    """(spec, params) of the benchmark workloads' controls, seeds 1-3."""
    cases = []
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            for argv in build(workload, seed)["controls"]:
                args = cli.build_parser().parse_args(argv)
                spec = cli._spec_from_args(args)
                cases.append((spec, cli._params_from_args(spec, args.param)))
    return cases


def test_valid_parameters_satisfy_the_pairing_at_q1():
    """`classical_point` makes no check of its own: once `validate_params`
    passes, every value at q = 1 is defined and nonzero, and each pair's
    values at q = 1 multiply to `constraint_value` at 1, which is +-1.  On
    every admissible class with N <= 12 at default and seed-7 parameters
    (drawn in the walk of `scripts/dump_records.py`), and on the benchmark's
    controls, which break a pairing and are refused."""
    rng = random.Random(7)
    cases = []
    for spec in admissible_cases(12):
        cases.append((spec, default_params(spec)))
        if param_indices(spec):
            cases.append((spec, draw_params(spec, rng)))
    controls = _control_cases()
    valid = 0
    for spec, params in cases + controls:
        if validate_params(spec, params):
            continue
        valid += 1
        c = eval_at_one(constraint_value(spec))
        assert c in (GaussRational(1), GaussRational(-1)), spec.case_id
        at_one = classical_limit_params(params).values
        for i in _top_indices(spec):
            vi, vj = at_one[i], at_one[paired_index(spec, i)]
            assert vi and vj, spec.case_id
            assert vi * vj == QScalar.from_gauss(c), spec.case_id
    assert valid == len(cases)
    assert controls and all(validate_params(spec, params) for spec, params in controls)
