"""Every admissible class with N <= 12 passes every check of `full_report`:
at its default parameters, and, for each class that carries parameters, at
parameters drawn by the benchmark's `draw_params` from one seeded generator,
walked in `admissible_cases` order as `scripts/dump_records.py` walks them.
One pairing-violating control per (group, family) must fail its `params`
record."""
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from repoints.points import default_params, paired_index  # noqa: E402
from repoints.rootdata import admissible_cases  # noqa: E402
from repoints.scalar import QScalar  # noqa: E402
from repoints.verifier import full_report  # noqa: E402
from workloads import check_domain, draw_params  # noqa: E402

N_MAX = 12
CASES = admissible_cases(N_MAX)
WITH_PARAMS = [spec for spec in CASES if default_params(spec).values]


def _failures(spec, params) -> list:
    return [(spec.case_id, c.name, c.detail) for c in full_report(spec, params).checks
            if not c.passed]


def test_grid_sizes():
    assert (len(CASES), len(WITH_PARAMS)) == (225, 171)


def test_every_class_passes_at_default_parameters():
    assert [f for spec in CASES for f in _failures(spec, default_params(spec))] == []


def test_every_class_passes_at_seeded_parameters():
    rng = random.Random(7)
    failures = []
    for spec in WITH_PARAMS:
        params = draw_params(spec, rng)
        check_domain(spec, params)
        failures += _failures(spec, params)
    assert failures == []


def test_a_violated_pairing_fails_the_params_record():
    """The first pair's partner off by a factor 2, on the first class of each
    (group, family) that carries parameters."""
    firsts = {}
    for spec in WITH_PARAMS:
        firsts.setdefault((spec.group, spec.family), spec)
    assert sorted(firsts) == [("sl", "t2"), ("so", "t2"), ("so", "t4"),
                              ("sp", "t2"), ("sp", "t4")]
    for spec in firsts.values():
        params = default_params(spec)
        j = paired_index(spec, min(params.values))
        params.values[j] = QScalar(2) * params.values[j]
        checks = full_report(spec, params).checks
        assert checks and all(c.name == "params" and not c.passed for c in checks), spec.case_id
