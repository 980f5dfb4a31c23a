"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of `repoints verify` argument vectors plus a few
untimed negative controls. The seed sets the order of every list and, for
`generic-params`, the parameter draws. The program sees only the argv.

Parameter draws are checked for the paper's domain (pairing constraint exact,
value at q = 1 finite and nonzero) before anything is timed, and are never
filtered by the verdict they later get.
"""
from __future__ import annotations

import random

from repoints.points import (
    PointParams,
    constraint_value,
    default_params,
    paired_index,
    validate_params,
)
from repoints.rootdata import ClassSpec, standard_cases
from repoints.scalar import GaussRational, LaurentPoly, QScalar, eval_at_one, render_scalar

WORKLOADS = ("grid-bcd", "grid-sl", "generic-params")

# The case whose record names and pass values must equal the committed golden.
GOLDEN_CASE = "so5-t2-m1-m"
GOLDEN_FILE = "tests/data/golden_verify_so5.json"


def case_argv(spec: ClassSpec) -> list:
    argv = ["verify", "--series", spec.group, "--N", str(spec.N), "--family", spec.family]
    if spec.family == "t2":
        argv += ["--m", str(spec.m), "--sign", str(spec.sign)]
    return argv


def grid_bcd_cases() -> list:
    # B, C and D series in both families; N = 7, 8 take the same code path at
    # 10-45 s per case and are left out only for run length.
    return [c for c in standard_cases()
            if (c.group, c.N) in (("so", 5), ("sp", 4))
            or (c.family == "t4" and c.N == 6)]


def grid_sl_cases() -> list:
    return standard_cases("sl")


def generic_cases() -> list:
    return [c for c in standard_cases("sl") if c.N >= 4 and c.m >= 1]


def _draw_poly(rng: random.Random, deg: int) -> LaurentPoly:
    """A polynomial in q of the given degree with small Gaussian-integer
    coefficients that does not vanish at q = 1."""
    while True:
        coeff = {k: GaussRational(rng.randint(-3, 3), rng.randint(-3, 3))
                 for k in range(deg + 1)}
        poly = LaurentPoly(coeff)
        if coeff[deg] and poly.at_one():
            return poly


def _degrees(slot: int) -> tuple:
    # Degrees cycle through 1-3 with the parameter's position, not the seed:
    # the seed draws coefficients, so every seed gives about the same work.
    return slot % 3 + 1, (slot // 3 + slot) % 3 + 1


def draw_params(spec: ClassSpec, rng: random.Random) -> PointParams:
    """Seeded rational parameters on every top corner; each primed partner is
    set so that the pairing constraint holds exactly."""
    params = default_params(spec)
    c = constraint_value(spec)
    for slot, i in enumerate(sorted(params.values)):
        j = paired_index(spec, i)
        if j <= i:
            continue
        dn, dd = _degrees(spec.N + slot)
        value = QScalar(_draw_poly(rng, dn), _draw_poly(rng, dd))
        params.values[i] = value
        params.values[j] = c / value
    return params


def check_domain(spec: ClassSpec, params: PointParams) -> None:
    """Raise ValueError unless the draw is exact and has a classical limit."""
    problems = validate_params(spec, params)
    if problems:
        raise ValueError(f"{spec.case_id}: {'; '.join(problems)}")
    for i, v in params.values.items():
        if not eval_at_one(v):  # raises PoleAtOneError on a pole at q = 1
            raise ValueError(f"{spec.case_id}: parameter {i} vanishes at q = 1")


def param_flags(spec: ClassSpec, params: PointParams) -> dict:
    """Parameter name -> literal for the top corners; each partner is named by
    its primed top corner, as a user would write it."""
    flags = {}
    k = params.kind
    for i in sorted(params.values):
        j = paired_index(spec, i)
        if j < i:
            continue
        flags[f"{k}{i}"] = render_scalar(params.values[i])
        if j != i:
            flags[f"{k}{i}'"] = render_scalar(params.values[j])
    return flags


def flags_argv(flags: dict) -> list:
    argv = []
    for name, literal in flags.items():
        argv += ["--param", f"{name}={literal}"]
    return argv


def _violating_control(spec: ClassSpec, params: PointParams) -> list:
    """The case with the first pair's partner off by a factor 2, so the
    pairing constraint fails."""
    flags = param_flags(spec, params)
    i = min(params.values)
    j = paired_index(spec, i)
    name = f"{params.kind}{i}'" if j != i else f"{params.kind}{i}"
    flags[name] = render_scalar(QScalar(2) * params.values[j])
    return case_argv(spec) + flags_argv(flags)


def build(workload: str, seed: int) -> dict:
    """Inputs, untimed negative controls and touched series for one workload.

    Returns {"inputs": [argv, ...], "cases": [case id of each input, ...],
             "controls": [argv, ...], "series": [[group, N], ...]}.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid-bcd":
        specs = grid_bcd_cases()
    elif workload == "grid-sl":
        specs = grid_sl_cases()
    else:
        specs = generic_cases()
    inputs = []
    for spec in specs:
        argv = case_argv(spec)
        if workload == "generic-params":
            params = draw_params(spec, rng)
            check_domain(spec, params)
            argv += flags_argv(param_flags(spec, params))
        inputs.append((spec.case_id, argv))
    rng.shuffle(inputs)

    # one pairing-violating input per parameter-bearing (group, family)
    controls = []
    seen = set()
    for spec in specs:
        key = (spec.group, spec.family)
        if key in seen or not default_params(spec).values:
            continue
        seen.add(key)
        params = draw_params(spec, rng) if workload == "generic-params" else default_params(spec)
        controls.append(_violating_control(spec, params))

    series = sorted({(s.group, s.N) for s in specs})
    return {"inputs": [argv for _, argv in inputs], "cases": [c for c, _ in inputs],
            "controls": controls, "series": [list(s) for s in series]}
