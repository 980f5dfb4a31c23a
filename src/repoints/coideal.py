"""Stabilizer generators of the quantum point inside the quantized enveloping
algebra, realized in the natural representation.

A Cartan generator (k_b, k_b^-1 for a fixed b, and the k-tilde of each moved
alpha and its inverse) is kept as its integer exponent vector d, for the
diagonal matrix diag(q^d_j); it commutes with A iff d_i = d_j at every
nonzero A_ij (`support_difference`), so it is decided with no product.

For each simple root alpha moved by the involution, the mixed generator is
X_alpha = pi(q^{h_tilde - h_alpha}) pi(e_alpha) + c_alpha pi(F_tilde), where
F_tilde is an iterated q-commutator word in the F_i.  The coefficient c_alpha
is read off one row of both terms' commutators with A, accepted when
[X_alpha, A] = 0 is decided exactly, and compared with the tabulated forms.
That acceptance is the verdict on X_alpha at the point it was solved for.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .natrep import CheckRecord, NaturalRep, build_natural_rep
from .points import PointParams, ThetaData, theta_for_class
from .qmatrix import QMatrix, first_product_difference
from .rootdata import ClassSpec, LieSeries, build_root_system, sub
from .scalar import I_UNIT, ONE, Q, QINV, ZERO, QScalar, render_scalar


class MixtureInconsistentError(ArithmeticError):
    """No coefficient makes the mixed generator commute with the point."""


class MixtureUnderdeterminedError(ArithmeticError):
    """Both commutators vanish; any coefficient works."""


def q_commutator(x: QMatrix, y: QMatrix, a: QScalar) -> QMatrix:
    """[x, y]_a = xy - a yx."""
    return x * y - (y * x).scale(a)


@dataclass
class CoidealGen:
    alpha: int  # 1-based simple-root index
    word: str  # human-readable form of the F_tilde word
    F_tilde: QMatrix
    c_table: QScalar | None
    c_table_note: str | None
    c_solved: QScalar
    X: QMatrix

    @property
    def table_matches(self) -> bool | None:
        if self.c_table is None:
            return None
        return self.c_table == self.c_solved


@dataclass
class StabilizerSet:
    # for each simple root b fixed by theta: (name, QMatrix) for e_b and f_b,
    # then (name, exponent vector) for k_b and k_b^-1
    l_generators: list
    cartan_generators: list  # (name, exponent vector): q^{+-(h_tilde - h_alpha)}
    mixed_generators: list  # CoidealGen
    unsolved: list  # (alpha, error) for each moved root with no solvable coefficient
    A: QMatrix  # the point the mixtures were solved against


def _word_description(i: int, td: ThetaData) -> str:
    coords = td.tilde_simple[i]
    terms = [f"{c}*a{k}" if c != 1 else f"a{k}"
             for k, c in enumerate(coords, start=1) if c]
    return "tilde(a%d) = %s" % (i, " + ".join(terms))


def f_tilde_root_vector(rep: NaturalRep, spec: ClassSpec, alpha: int) -> QMatrix:
    """pi(F_{tilde alpha}) as the case-specific iterated q-commutator word."""
    td = theta_for_class(spec)
    if alpha not in td.pi_moved:
        raise ValueError(f"alpha_{alpha} is fixed by the involution")

    # simple twisted partner: return the plain generator
    coords = td.tilde_simple[alpha]
    if sum(coords) == 1:
        k = coords.index(1) + 1
        return rep.F[k - 1]

    n = spec.series.rank
    N, m = spec.N, spec.m
    F = lambda k: rep.F[k - 1]
    q2 = Q * Q

    def climb(w: QMatrix, indices, a: QScalar) -> QMatrix:
        for k in indices:
            w = q_commutator(w, F(k), a)
        return w

    if spec.family == "t2":
        if spec.group == "sl":
            if alpha == m:
                return climb(F(m + 1), range(m + 2, N - m + 1), Q)
            if alpha == N - m:
                return climb(F(m), range(m + 1, N - m), QINV)
        elif spec.group == "so" and N % 2:
            if alpha == m:
                w = climb(F(m), range(m + 1, n + 1), Q)
                w = q_commutator(w, F(n), ONE)
                return climb(w, range(n - 1, m, -1), Q)
        elif spec.group == "sp":
            if alpha < m:
                return q_commutator(q_commutator(F(alpha), F(alpha + 1), Q), F(alpha - 1), Q)
            if alpha == m and m <= n - 1:
                w = climb(F(m), range(m + 1, n), Q)
                w = q_commutator(w, F(n), q2)
                w = climb(w, range(n - 1, m, -1), Q)
                return q_commutator(w, F(m - 1), Q)
            if alpha == m and m == n:
                return q_commutator(q_commutator(F(n), F(n - 1), q2), F(n - 1), ONE)
        else:  # so, even N
            if alpha == m and m <= n - 2:
                w = climb(F(m), range(m + 1, n - 1), Q)
                w = q_commutator(w, F(n - 1), Q)
                w = q_commutator(w, F(n), Q)
                return climb(w, range(n - 2, m, -1), Q)
    else:  # t4 (sp has only simple partners, handled above)
        if spec.group == "so":
            if alpha % 2 == 0 and alpha < n - 1:
                return q_commutator(q_commutator(F(alpha), F(alpha + 1), Q), F(alpha - 1), Q)
            if n % 2 and alpha == n - 1:
                return q_commutator(F(n), F(n - 2), Q)
            if n % 2 and alpha == n:
                return q_commutator(F(n - 1), F(n - 2), Q)
    raise ValueError(f"no root-vector word for alpha_{alpha} in {spec.case_id}")


def mixture_table_formula(spec: ClassSpec, alpha: int, params: PointParams):
    """The tabulated closed form of c_alpha, evaluated in the given parameters.

    Returns (value or None, note or None).  None values mark table entries
    that do not determine a coefficient (an undefined index); notes flag
    entries that required an interpretive reading.
    """
    v = params.values
    i = alpha
    N, m = spec.N, spec.m
    n = spec.series.rank

    if spec.family == "t4":
        if spec.group == "sp":
            if i < n:
                return -Q * v[i + 1] / v[i], None
            return -(v[n] * v[n] * QScalar.q_power(2 * n)).inv(), None
        if i % 2 == 0 and i < n - 1:
            return -Q * v[i + 1] / v[i - 1], None
        if n % 2 == 0 and i == n:
            return -(QScalar.q_power(2 * n - 3) * v[n - 1] * v[n - 1]).inv(), None
        if n % 2 and i in (n - 1, n):
            # the tabulated subscript n-1 names no parameter (only odd indices
            # exist here); the nearest reading, n-2, is used and flagged
            val = I_UNIT * (QScalar.q_power(n - 1) * v[n - 2]).inv()
            note = "table subscript adjusted from n-1 to the existing index n-2"
            return (val if i == n - 1 else -val), note

    elif spec.group == "sl":
        if i < m or i > N - m:
            return v[i + 1] / v[i], None
        if 2 * m == N and i == m:
            note = "table labels this entry with a generic index; read as the middle root"
            return QScalar.q_power(-2 * m + 1) / (v[m] * v[m]), note
        sgn = ONE if (N + 1) % 2 == 0 else -ONE
        if i == m:
            return sgn * QScalar.q_power(-N + m) / v[m], None
        if i == N - m:
            return sgn * QScalar.q_power(2 * N - 5 * m - 3) / v[m], None

    elif spec.group == "so" and N % 2:
        if i < m:
            return -Q * v[i + 1] / v[i], None
        if i == m:
            if m < n:
                sgn = ONE if (n - m + 1) % 2 == 0 else -ONE
                return sgn * (v[m] * QScalar.q_power(m + 1)).inv(), None
            return -(v[m] * QScalar.q_power(m)).inv(), None

    elif spec.group == "sp":
        if i < m:
            return -Q * v[i + 1] / v[i - 1], None
        if i == m:
            if m <= n - 1:
                sgn = ONE if (n + 1) % 2 == 0 else -ONE
                return sgn * (v[m - 1] * QScalar.q_power(m)).inv(), None
            den = (Q * Q + ONE) * QScalar.q_power(2 * n - 2) * v[n - 1] * v[n - 1]
            return -den.inv(), None

    else:  # so, even N, t2
        if i < m:
            return -Q * v[i + 1] / v[i], None
        if m == n and i == n:
            return -(v[n - 1] * v[n] * QScalar.q_power(2 * n - 1)).inv(), None
        if m == n - 1:
            return None, "table entry uses an undefined index; no value evaluated"
        if i == m:
            sgn = ONE if (n - m) % 2 == 0 else -ONE
            return sgn * (v[m] * QScalar.q_power(m + 1)).inv(), None

    return None, None


def cartan_shift(td: ThetaData, alpha: int) -> tuple:
    """beta = tilde(alpha) - alpha in epsilon coordinates, so that
    cartan_exponents(ls, beta) is pi(q^{h_{tilde alpha} - h_alpha})."""
    rs = build_root_system(td.spec.series)
    return sub(td.tilde_eps[alpha], rs.simple[alpha - 1])


@lru_cache(maxsize=None)
def _weight_axes(ls: LieSeries) -> tuple:
    """(k, s) with w_j = s e_k for each natural basis weight w_j; s = 0 for
    the zero weight of B."""
    return tuple(max(enumerate(w), key=lambda kx: abs(kx[1]))
                 for w in build_root_system(ls).weights)


def cartan_exponents(ls: LieSeries, beta: tuple) -> tuple:
    """The exponents d_j = (beta, w_j) of pi(q^{h_beta}) = diag(q^d_j) over the
    natural basis: each weight is +-e_k or 0, so d_j is +-beta[k] or 0."""
    return tuple(s * beta[k] for k, s in _weight_axes(ls))


def _diagonal_times(d: tuple, m: QMatrix) -> QMatrix:
    """diag(q^d_j) m: row i of m times the monomial q^(d_i)."""
    return QMatrix(m.dim, [{j: QScalar.q_power(d[i]) * v for j, v in row.items()}
                           for i, row in enumerate(m.rows)])


def support_difference(d: tuple, A: QMatrix):
    """first_product_difference(D, A, A, D) for D = diag(q^d_j), read off A's
    support: [D, A] has the entry (q^(d_i) - q^(d_j)) A_ij at (i, j), which is
    nonzero iff A_ij != 0 and d_i != d_j.  So the first such (i, j) in
    row-major order, columns sorted, is the kernel's first mismatch, with its
    values q^(d_i) A_ij and A_ij q^(d_j); None when there is none."""
    for i, row in enumerate(A.rows):
        di = d[i]
        moved = [j for j in row if d[j] != di]
        if moved:
            j = min(moved)
            a = row[j]
            return i, j, QScalar.q_power(di) * a, a * QScalar.q_power(d[j])
    return None


def solve_mixture(lead: QMatrix, A: QMatrix, alpha: int, F_tilde: QMatrix) -> tuple:
    """(c, X) for the unique c with [X, A] = 0, X = lead + c F_tilde, where
    lead = pi(q^{h_tilde - h_alpha}) pi(e_alpha) for the moved simple root
    alpha: c = -b1[p] / b2[p] at the first nonzero p of b2 = [F_tilde, A],
    b1 = [lead, A], read from row p[0] alone, and accepted by one kernel call
    on X."""
    diff = first_product_difference(F_tilde, A, A, F_tilde)
    if diff is not None:
        i, j, fa, af = diff
        b1 = A.apply_left(lead.row(i)).get(j, ZERO) - lead.apply_left(A.row(i)).get(j, ZERO)
        c = -(b1 / (fa - af))
        X = lead + F_tilde.scale(c)
        if first_product_difference(X, A, A, X) is not None:
            raise MixtureInconsistentError(f"alpha_{alpha}: commutators are not proportional")
        return c, X
    if first_product_difference(lead, A, A, lead) is None:
        raise MixtureUnderdeterminedError(f"alpha_{alpha}: both commutators vanish")
    raise MixtureInconsistentError(f"alpha_{alpha}: no coefficient can cancel the commutator")


def build_stabilizer(spec: ClassSpec, params: PointParams, A: QMatrix) -> StabilizerSet:
    """The stabilizer generators of the point A of spec, in the natural
    representation of its series."""
    ls = spec.series
    rep = build_natural_rep(ls)
    rs = build_root_system(ls)
    td = theta_for_class(spec)
    l_gens = []
    for b in td.pi_fixed:
        d = cartan_exponents(ls, rs.simple[b - 1])
        l_gens.append((f"e{b}", rep.e[b - 1]))
        l_gens.append((f"f{b}", rep.f[b - 1]))
        l_gens.append((f"k{b}", d))
        l_gens.append((f"k{b}_inv", tuple(-x for x in d)))
    cartan = []
    mixed = []
    unsolved = []
    for a in td.pi_moved:
        d = cartan_exponents(ls, cartan_shift(td, a))
        cartan.append((f"k.tilde{a}", d))
        cartan.append((f"k.tilde{a}_inv", tuple(-x for x in d)))
        f_tilde = f_tilde_root_vector(rep, spec, a)
        lead = _diagonal_times(d, rep.e[a - 1])
        try:
            c_solved, X = solve_mixture(lead, A, a, f_tilde)
        except (MixtureInconsistentError, MixtureUnderdeterminedError) as exc:
            unsolved.append((a, exc))
            continue
        c_table, note = mixture_table_formula(spec, a, params)
        mixed.append(CoidealGen(a, _word_description(a, td), f_tilde,
                                c_table, note, c_solved, X))
    return StabilizerSet(l_gens, cartan, mixed, unsolved, A)


def check_stabilizer(ss: StabilizerSet, A: QMatrix) -> list:
    """A record per generator: [g, A] = 0 for each generator g, then one per
    unsolved mixture and per tabulated coefficient.  A Cartan generator is
    decided on A's support; X_alpha at the point it was solved for
    (A is ss.A) takes its verdict from `solve_mixture`'s acceptance."""
    decided = [(name, support_difference(g, A) if isinstance(g, tuple)
                else first_product_difference(g, A, A, g))
               for name, g in ss.l_generators + ss.cartan_generators]
    decided += [(f"X.alpha{gen.alpha}",
                 None if A is ss.A else first_product_difference(gen.X, A, A, gen.X))
                for gen in ss.mixed_generators]
    records = []
    for name, diff in decided:
        if diff is None:
            records.append(CheckRecord(f"stab.{name}", True))
        else:
            i, j, ga, ag = diff
            records.append(CheckRecord(
                f"stab.{name}", False,
                f"[{name}, A] has entry {render_scalar(ga - ag)} at ({i}, {j})"))
    for alpha, exc in ss.unsolved:
        records.append(CheckRecord(f"mixture.alpha{alpha}", False,
                                   f"{type(exc).__name__}: {exc}"))
    for gen in ss.mixed_generators:
        if gen.table_matches is None:
            continue
        detail = None
        if not gen.table_matches:
            detail = (f"tabulated {render_scalar(gen.c_table)}, "
                      f"solved {render_scalar(gen.c_solved)}")
        records.append(CheckRecord(f"mixture.alpha{gen.alpha}.table", gen.table_matches, detail))
    return records

