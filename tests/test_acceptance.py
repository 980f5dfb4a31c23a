"""Acceptance gate: one test per criterion, each printing a single PASS/FAIL
line.  Every comparison is exact (zero tolerance); the shared fixture walks the
full reference grid of cases once.
"""
from fractions import Fraction

import pytest

from repoints.classical import (
    bivector_at,
    build_classical_algebra,
    check_involutive_vanishing,
    gauss_entries,
)
from repoints.coideal import build_stabilizer
from repoints.natrep import build_natural_rep, check_defining_relations, check_rtt_compat
from repoints.points import default_params, quantum_point
from repoints.qmatrix import commutator
from repoints.rmatrix import (
    annihilating_polynomial_holds,
    braid_identity_holds,
    build_rmatrix_data,
)
from repoints.rootdata import ClassSpec, build_root_system, standard_cases, theta_for_class
from repoints.scalar import GaussRational, ONE, Q
from repoints.verifier import full_report


@pytest.fixture
def verdict(capsys):
    """One printed PASS/FAIL line per criterion, visible despite capture."""

    def emit(number, label, ok):
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {number} ({label}) failed"

    return emit


def _all_pass(records, names):
    """Every named record is present and passes; a missing record fails."""
    return all(records.get(name, False) for name in names)


@pytest.fixture(scope="module")
def desk():
    """The verdicts of full_report on each case, read by record name, and the
    two objects the report does not carry: the solved stabilizer generators
    (criterion 7) and the involutive-vanishing check (criterion 6)."""
    rows = []
    involutive_cache = {}
    for spec in standard_cases():
        report = full_report(spec)
        records = {r.name: r.passed for r in report.checks}
        point = quantum_point(spec)
        ss = build_stabilizer(spec, point.params, point.A)
        # Ad is insensitive to the overall sign of A0, so share the involutive
        # check between the two signs of a class
        key = (spec.group, spec.N, spec.family, spec.m)
        if key not in involutive_cache:
            data = build_classical_algebra(spec.series)
            involutive_cache[key] = check_involutive_vanishing(
                data, gauss_entries(point.A0)).passed
        stab = [f"stab.{name}" for name, _ in ss.all_matrices()]
        stab += [f"mixture.alpha{alpha}" for alpha, _ in ss.unsolved]
        table = [f"mixture.alpha{g.alpha}.table" for g in ss.mixed_generators
                 if g.table_matches is not None]
        rows.append({
            "spec": spec,
            "point": point,
            "ss": ss,
            "re": _all_pass(records, ["reflection"]),
            "re_seconds": report.timings.get("reflection", 0.0),
            "oc": None if spec.group == "sl" else _all_pass(records, [
                "oc.right", "oc.left", "varpi.idempotent", "varpi.rank_one", "varpi.eigen"]),
            "invariants": _all_pass(records, ["min_poly", "mult.plus", "mult.minus", "q_trace"]),
            "stab": _all_pass(records, stab),
            "table": _all_pass(records, table),
            "square": _all_pass(records, ["classical.square"]),
            "bivector": _all_pass(records, ["classical.bivector"]),
            "involutive": involutive_cache[key],
        })
    return rows


def test_criterion_1_reflection_equation(desk, verdict):
    ok = all(row["re"] for row in desk)
    total = sum(row["re_seconds"] for row in desk)
    ok = ok and total < 300.0
    verdict(1, f"reflection-equation suite ({len(desk)} cases, {total:.1f}s)", ok)


def test_criterion_2_orthogonality(desk, verdict):
    bcd = [row for row in desk if row["oc"] is not None]
    ok = bool(bcd) and all(row["oc"] for row in bcd)
    verdict(2, f"orthogonality and projector suite ({len(bcd)} cases)", ok)


def test_criterion_3_class_invariants(desk, verdict):
    ok = all(row["invariants"] for row in desk)
    verdict(3, "class-invariant suite (minimal polynomials, ranks, q-traces)", ok)


def test_criterion_4_stabilizer(desk, verdict):
    ok = all(row["stab"] and row["table"] for row in desk)
    ok = ok and all(row["ss"].mixed_generators or not theta_for_class(row["spec"]).pi_moved
                    for row in desk)
    verdict(4, "stabilizer suite (commutation and tabulated coefficients)", ok)


def test_criterion_5_r_matrix_structure(verdict):
    ok = True
    for series in sorted({spec.series for spec in standard_cases()},
                         key=lambda s: (s.series, s.rank)):
        data = build_rmatrix_data(series)
        ok = ok and braid_identity_holds(data.S, series.dim)
        ok = ok and annihilating_polynomial_holds(data)
        rep = build_natural_rep(series)
        ok = ok and all(r.passed for r in check_rtt_compat(rep, data.R))
        ok = ok and all(r.passed for r in check_defining_relations(rep))
    verdict(5, "R-matrix structural suite (braid, RTT, annihilating polynomials)", ok)


def test_criterion_6_classical(desk, verdict):
    ok = all(row["bivector"] and row["involutive"] and row["square"] for row in desk)
    # negative control: a generic torus element is not a zero of the bivector
    sl3 = build_classical_algebra(ClassSpec("sl", 3, "t2", 1, 1).series)
    control = {(i, i): GaussRational(v) for i, v in enumerate((4, 1, Fraction(1, 4)))}
    ok = ok and not bivector_at(sl3, control).is_zero()
    verdict(6, "classical bivector suite with negative control", ok)


def test_criterion_7_negative_controls(desk, verdict):
    ok = True
    # one violated pairing constraint per parameter family
    for spec, idx in [
        (ClassSpec("sl", 4, "t2", 1, 1), 4),    # y, split classes
        (ClassSpec("sp", 4, "t2", 2, 1), 3),    # z, symplectic split classes
        (ClassSpec("sp", 4, "t4"), 2),          # y, symplectic order-4 classes
        (ClassSpec("so", 6, "t4"), 5),          # z, orthogonal order-4 classes
    ]:
        params = default_params(spec)
        params.values[idx] = params.values[idx] * Q
        report = full_report(spec, params)
        ok = ok and not report.passed
    # perturbing any solved coefficient by a factor q must break commutation
    for row in desk:
        A = row["point"].A
        for gen in row["ss"].mixed_generators:
            bad = gen.X + gen.F_tilde.scale(gen.c_solved * (Q - ONE))
            ok = ok and not commutator(bad, A).is_zero()
    verdict(7, "negative controls (broken constraints, perturbed coefficients)", ok)


def _tabulated_tilde(spec):
    """The explicit twisted-root table entries, in simple-root coordinates.

    Entries whose published form does not apply (empty index ranges) are
    omitted; everything returned is compared exactly against the computed
    involution.
    """
    n = spec.series.rank
    N, m = spec.N, spec.m

    def unit(k):
        return tuple(1 if j == k else 0 for j in range(1, n + 1))

    def combo(*pairs):
        out = [0] * n
        for coeff, k in pairs:
            out[k - 1] += coeff
        return tuple(out)

    def span(lo, hi, coeff=1):
        return [(coeff, l) for l in range(lo, hi + 1)]

    t = {}
    if spec.family == "t2":
        if spec.group == "sl":
            for i in range(1, m):
                t[i] = unit(n + 1 - i)
            for i in range(n + 2 - m, n + 1):
                t[i] = unit(n + 1 - i)
            if 1 <= m and 2 * m < N:
                t[m] = combo(*span(m + 1, n + 1 - m))
                t[n + 1 - m] = combo(*span(m, n - m))
        elif spec.group == "so" and N % 2:
            for i in range(1, m):
                t[i] = unit(i)
            if m >= 1:
                t[m] = combo((1, m), *span(m + 1, n, 2))
        elif spec.group == "so":
            if m == n - 1:
                for i in range(1, m):
                    t[i] = unit(i)
                t[n - 1] = unit(n)
                t[n] = unit(n - 1)
            elif m == n:
                for i in range(1, n + 1):
                    t[i] = unit(i)
            else:
                for i in range(1, m):
                    t[i] = unit(i)
                if m >= 1:
                    t[m] = combo((1, m), *span(m + 1, n - 2, 2), (1, n - 1), (1, n))
        else:  # sp
            for i in range(1, m // 2):
                t[2 * i] = combo(*span(2 * i - 1, 2 * i + 1))
            if m >= 2:
                if m < n:
                    t[m] = combo((1, m - 1), (1, m), *span(m + 1, n - 1, 2), (1, n))
                else:
                    t[m] = combo((2, m - 1), (1, m))
    else:  # t4
        if spec.group == "sp":
            for i in range(1, n + 1):
                t[i] = unit(i)
        elif n % 2 == 0:
            for i in range(2, n - 1, 2):
                t[i] = combo(*span(i - 1, i + 1))
            t[n] = unit(n)
        else:
            for i in range(2, n - 1, 2):
                t[i] = combo(*span(i - 1, i + 1))
            t[n - 1] = combo((1, n - 2), (1, n))
            t[n] = combo((1, n - 2), (1, n - 1))
    return t


def test_criterion_8_table_consistency(verdict):
    ok = True
    for spec in standard_cases():
        td = theta_for_class(spec)
        rs = build_root_system(spec.series)
        table = _tabulated_tilde(spec)
        for i, expected in table.items():
            ok = ok and i in td.pi_moved and td.tilde_simple[i] == expected
        # the arc partner condition: tilde(alpha) - alpha' in Z+ of fixed roots
        fixed = set(td.pi_fixed)
        for i in td.pi_moved:
            diff = tuple(a - b for a, b in
                         zip(td.tilde_eps[i], rs.simple[td.partner[i] - 1]))
            coords = rs.expand_in_simple(diff)
            for k, c in enumerate(coords, start=1):
                ok = ok and c.denominator == 1 and c >= 0 and (not c or k in fixed)
    verdict(8, "twisted-root tables match the computed involution", ok)
