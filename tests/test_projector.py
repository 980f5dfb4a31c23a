"""The orthogonality condition and projector records, decided on the rank-one
factors of varpi, against the dense products they stand for.  The projector
keeps raw = (S - q)(S + q^-1) as its factors L and R; the dense raw is built
here, as the oracle."""
import pytest

from repoints.natrep import CheckRecord
from repoints.points import quantum_point
from repoints.qmatrix import QMatrix
from repoints.rmatrix import build_rmatrix_data, factor_projector
from repoints.rootdata import MAX_N, ClassSpec, LieSeries, series_for_group, standard_cases
from repoints.scalar import Q, parse_scalar
from repoints.verifier import (
    _record_equal,
    check_oc,
    check_reflection,
    check_varpi_structure,
    reflection_operand,
)

SMALL_CASES = [spec for spec in standard_cases()
               if (spec.group, spec.N) in {("so", 5), ("sp", 4)}]


def _as_tuples(records):
    return [(r.name, r.passed, r.detail) for r in records]


def factors(proj):
    """L and R, the one term L R of raw."""
    (_, L, R), = proj.raw.terms
    return L, R


def dense_raw(proj):
    """raw = L R multiplied out."""
    L, R = factors(proj)
    return L * R


def dense_oc(A, S, varpi, mu):
    """oc.right and oc.left as products of N^2 x N^2 matrices."""
    A2 = QMatrix.identity(A.dim).kron(A)
    M = A2 * S * A2
    scaled = varpi.scale(mu)
    return [_record_equal("oc.right", M * varpi, scaled),
            _record_equal("oc.left", varpi * M, scaled)]


def dense_structure(S, varpi, mu):
    """The projector records as dense products; rank_one carries no detail,
    so it is only compared where it passes."""
    return [_record_equal("varpi.idempotent", varpi * varpi, varpi),
            CheckRecord("varpi.rank_one", varpi.rank() == 1),
            _record_equal("varpi.eigen", S * varpi, varpi.scale(mu))]


@pytest.mark.parametrize("spec", SMALL_CASES, ids=lambda s: s.case_id)
def test_oc_matches_dense_oracle(spec):
    """The OC records against the dense products, with and without the
    premises: A passes; q A still solves the reflection equation but breaks
    the OC on both sides, at the same entries; and A bumped at (0, N-1)
    fails the reflection check, so the right side is decided on every row
    either way."""
    rmd = build_rmatrix_data(spec.series)
    proj = rmd.projector
    varpi = dense_raw(proj).scale(proj.den.inv())
    A = quantum_point(spec).A
    bump = QMatrix.from_entries(spec.N, [(0, spec.N - 1, parse_scalar("(q+2)/(q^2+3)"))])
    for point, reflects, passing in ((A, True, True), (A.scale(Q), True, False),
                                     (A + bump, False, False)):
        X = reflection_operand(point, rmd.S)
        premises = [check_reflection(X, rmd.S)] + check_varpi_structure(rmd.S, proj)
        assert premises[0].passed == reflects
        want = _as_tuples(dense_oc(point, rmd.S, varpi, proj.mu))
        got = check_oc(X, proj, premises)
        assert [(r.name, r.passed) for r in got] == [("oc.right", passing), ("oc.left", passing)]
        assert all(passing or "first mismatch" in r.detail for r in got)
        assert _as_tuples(got) == want
        assert _as_tuples(check_oc(reflection_operand(point, rmd.S), proj)) == want


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 4)])
def test_structure_matches_dense_oracle(group, N):
    rmd = build_rmatrix_data(series_for_group(group, N))
    proj = rmd.projector
    varpi = dense_raw(proj).scale(proj.den.inv())
    got = check_varpi_structure(rmd.S, proj)
    assert [(r.name, r.passed) for r in got] == [
        ("varpi.idempotent", True), ("varpi.rank_one", True), ("varpi.eigen", True)]
    assert _as_tuples(got) == _as_tuples(dense_structure(rmd.S, varpi, proj.mu))


BCD_SERIES = [LieSeries(s, n) for s, lowest in (("B", 1), ("C", 1), ("D", 2))
              for n in range(lowest, MAX_N // 2 + 1) if LieSeries(s, n).dim <= MAX_N]


@pytest.mark.parametrize("series", BCD_SERIES, ids=lambda ls: f"{ls.series}{ls.rank}")
def test_the_factors_give_what_the_dense_raw_gives(series):
    """i0, j0, u, w and the pivot read off L and R are those of the first
    nonzero entry of the dense L R, its row and its column."""
    proj = build_rmatrix_data(series).projector
    raw = dense_raw(proj)
    i0, j0, p = next(raw.nonzero_items())
    assert (proj.i0, proj.j0, proj.pivot) == (i0, j0, p)
    assert proj.w == raw.rows[i0]
    assert proj.u == {i: row[j0] for i, row in enumerate(raw.rows) if j0 in row}
    assert proj.factor_mismatch is None


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 4), ("so", 6)])
def test_building_the_projector_multiplies_no_matrices(monkeypatch, group, N):
    # L R is never multiplied out: no QMatrix product at all is formed
    products = []
    mul = QMatrix.__mul__

    def counted(self, other):
        products.append((self.dim, other.dim))
        return mul(self, other)

    monkeypatch.setattr(QMatrix, "__mul__", counted)
    data = build_rmatrix_data.__wrapped__(series_for_group(group, N))
    assert data.projector.i0 is not None
    assert products == []


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 4)])
def test_corrupted_raw_fails_rank_one_and_every_dependent(group, N):
    series = series_for_group(group, N)
    rmd = build_rmatrix_data(series)
    proj = rmd.projector
    L, R = factors(proj)
    L = L + QMatrix.identity(L.dim)
    assert (L * R).rank() > 1
    bad = factor_projector(L, R, proj.den, proj.mu)
    structure = check_varpi_structure(rmd.S, bad)
    rank_one = next(r for r in structure if r.name == "varpi.rank_one")
    assert "first mismatch" in rank_one.detail
    spec = next(s for s in SMALL_CASES if s.series == series)
    oc = check_oc(reflection_operand(quantum_point(spec).A, rmd.S), bad)
    assert not any(r.passed for r in structure + oc)
    assert all("varpi.rank_one" in r.detail for r in structure + oc if r is not rank_one)


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 4)])
def test_factor_mismatch_is_the_first_dense_difference(group, N):
    """p (L + E) R against the dense u w^T: the same first entry and values,
    for the true L and for L corrupted at its first and at its last
    diagonal."""
    proj = build_rmatrix_data(series_for_group(group, N)).projector
    L, R = factors(proj)
    dim = L.dim
    for extra in (QMatrix(dim), QMatrix.identity(dim),
                  QMatrix.from_entries(dim, [(dim - 1, dim - 1, Q)])):
        f = factor_projector(L + extra, R, Q, Q)
        uw = QMatrix.from_entries(dim, ((i, j, a * b) for i, a in f.u.items()
                                        for j, b in f.w.items()))
        dense = ((L + extra) * R).scale(f.pivot).first_difference(uw)
        assert f.factor_mismatch == dense
        assert (dense is None) == extra.is_zero()


def test_zero_raw_fails_every_record():
    rmd = build_rmatrix_data(series_for_group("sp", 4))
    proj = rmd.projector
    bad = factor_projector(QMatrix(proj.raw.dim), factors(proj)[1], proj.den, proj.mu)
    spec = ClassSpec("sp", 4, "t4")
    A = quantum_point(spec).A
    records = check_varpi_structure(rmd.S, bad) + check_oc(reflection_operand(A, rmd.S), bad)
    assert not any(r.passed for r in records)
    assert all("rank 0" in r.detail for r in records)


@pytest.mark.parametrize("group,N", [("so", 5), ("sp", 4)])
def test_corrupted_denominator_fails_idempotent(group, N):
    rmd = build_rmatrix_data(series_for_group(group, N))
    proj = rmd.projector
    den = proj.den * Q
    bad = factor_projector(*factors(proj), den, proj.mu)
    got = check_varpi_structure(rmd.S, bad)
    assert [(r.name, r.passed) for r in got] == [
        ("varpi.idempotent", False), ("varpi.rank_one", True), ("varpi.eigen", True)]
    assert _as_tuples(got) == _as_tuples(
        dense_structure(rmd.S, dense_raw(proj).scale(den.inv()), proj.mu))


@pytest.mark.parametrize("spec", [
    ClassSpec("so", 9, "t2", 1, 1),
    ClassSpec("so", 10, "t2", 1, 1),
    ClassSpec("sp", 10, "t2", 2, 1),
    ClassSpec("so", 12, "t4"),
    ClassSpec("sp", 12, "t4"),
], ids=lambda s: s.case_id)
def test_larger_n_reflection_oc_projector(spec):
    rmd = build_rmatrix_data(spec.series)
    A = quantum_point(spec).A
    X = reflection_operand(A, rmd.S)
    records = [check_reflection(X, rmd.S)]
    records += check_oc(X, rmd.projector)
    records += check_varpi_structure(rmd.S, rmd.projector)
    assert [r.name for r in records] == [
        "reflection", "oc.right", "oc.left",
        "varpi.idempotent", "varpi.rank_one", "varpi.eigen"]
    assert [r.name for r in records if not r.passed] == []
