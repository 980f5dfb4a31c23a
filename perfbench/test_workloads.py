"""Tests for the benchmark's seeded inputs and its tail statistic.

    python3 -m pytest -q perfbench
"""
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import refspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repoints.points import PointParams, paired_index, validate_params  # noqa: E402
from repoints.rootdata import ClassSpec  # noqa: E402
from repoints.scalar import eval_at_one, parse_scalar  # noqa: E402


def parse_argv(argv):
    """(spec, params) as the CLI would read them from a verify argv."""
    opts, values = {}, {}
    it = iter(argv[1:])
    for flag in it:
        arg = next(it)
        if flag == "--param":
            name, literal = arg.split("=", 1)
            values[name] = parse_scalar(literal)
        else:
            opts[flag] = arg
    m = int(opts["--m"]) if "--m" in opts else None
    spec = ClassSpec(opts["--series"], int(opts["--N"]), opts["--family"], m,
                     int(opts.get("--sign", 1)))
    indexed = {}
    for name, v in values.items():
        i = int(name[1:].rstrip("'"))
        indexed[paired_index(spec, i) if name.endswith("'") else i] = v
    return spec, PointParams(spec.param_kind, indexed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    a = json.dumps(workloads.build(workload, 7)).encode()
    b = json.dumps(workloads.build(workload, 7)).encode()
    assert a == b


def test_other_seed_gives_other_draws():
    a = workloads.build("generic-params", 1)["inputs"]
    b = workloads.build("generic-params", 2)["inputs"]
    assert sorted(map(tuple, a)) != sorted(map(tuple, b))


@pytest.mark.parametrize("seed", range(6))
def test_every_draw_is_in_the_domain(seed):
    built = workloads.build("generic-params", seed)
    for argv in built["inputs"]:
        spec, params = parse_argv(argv)
        assert validate_params(spec, params) == []
        assert params.values
        for v in params.values.values():
            assert eval_at_one(v)  # finite (no PoleAtOneError) and nonzero


@pytest.mark.parametrize("seed", range(6))
def test_no_class_is_dropped(seed):
    # draws are never filtered after the fact: every class gets one input
    built = workloads.build("generic-params", seed)
    assert sorted(built["cases"]) == sorted(s.case_id for s in workloads.generic_cases())
    assert len(built["cases"]) == 14


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_controls_violate_the_pairing(workload):
    built = workloads.build(workload, 3)
    assert built["controls"]
    for argv in built["controls"]:
        spec, params = parse_argv(argv)
        assert validate_params(spec, params)


def test_grid_sizes():
    assert len(workloads.build("grid-bcd", 0)["inputs"]) == 13
    assert len(workloads.build("grid-sl", 0)["inputs"]) == 28
    assert workloads.GOLDEN_CASE in workloads.build("grid-bcd", 0)["cases"]


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = run.tail(list(range(13, 0, -1)))
    assert (value, n) == (3, 13) and pct == pytest.approx(300 / 13)
    value, pct, n = run.tail(list(range(112)))
    assert value == 101 and sum(x > value for x in range(112)) == 10


def test_timings_scale_by_kernel_and_take_per_input_medians():
    k = refspeed.REF_S
    # (pass, input, verdict seconds, kernel seconds): input 0 runs at half
    # speed in pass 1, which the kernel time around it cancels
    rows = [(0, 0, 1.0, k), (0, 1, 3.0, k), (1, 0, 2.0, 2 * k), (1, 1, 5.0, k),
            (2, 0, 1.0, k), (2, 1, 4.0, k)]
    verdicts, passes = run.timings(rows, scaled=True)
    assert verdicts == pytest.approx([1.0, 4.0])
    assert passes == pytest.approx([4.0, 6.0, 5.0])
    assert run.timings(rows, scaled=False)[0] == pytest.approx([1.0, 4.0])


def test_sampler_ticks_inside_a_span_and_subtracts_itself():
    sampler = refspeed.Sampler()
    sampler.start()
    t = time.perf_counter()
    while time.perf_counter() - t < 1.5:
        pass
    end = time.perf_counter()
    sampler.stop()
    inside = [dt for start, dt in sampler.ticks if t <= start <= end]
    assert len(inside) >= refspeed.NEAREST
    assert 0 < sampler.spent_s < end - t
    assert sampler.kernel_s(t, end) == pytest.approx(statistics.fmean(inside))
    # a span with too few ticks falls back on the nearest ones
    assert sampler.kernel_s(end, end) > 0
