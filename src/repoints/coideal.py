"""Stabilizer generators of the quantum point inside the quantized enveloping
algebra, realized in the natural representation.

For each simple root alpha moved by the involution, the mixed generator is
X_alpha = pi(q^{h_tilde - h_alpha}) pi(e_alpha) + c_alpha pi(F_tilde), where
F_tilde is an iterated q-commutator word in the F_i.  The coefficient c_alpha
is solved exactly from the commutation requirement [X_alpha, A] = 0 and
compared against the tabulated closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .natrep import CheckRecord, NaturalRep, build_natural_rep, cartan_power
from .points import PointParams
from .qmatrix import QMatrix, commutator, first_product_difference
from .rootdata import ClassSpec, ThetaData, build_root_system, theta_for_class
from .scalar import I_UNIT, ONE, Q, QScalar, render_scalar


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
    spec: ClassSpec
    l_generators: list  # (name, QMatrix) for simple roots fixed by theta
    cartan_generators: list  # (name, QMatrix): q^{+-(h_tilde - h_alpha)}
    mixed_generators: list  # CoidealGen
    unsolved: list  # (alpha, error) for each moved root with no solvable coefficient

    def all_matrices(self):
        for name, g in self.l_generators:
            yield name, g
        for name, g in self.cartan_generators:
            yield name, g
        for gen in self.mixed_generators:
            yield f"X.alpha{gen.alpha}", gen.X


def _word_description(spec: ClassSpec, i: int, td: ThetaData) -> str:
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
                return climb(F(m), range(m + 1, N - m), Q.inv())
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
    cartan_power(ls, beta) = pi(q^{h_{tilde alpha} - h_alpha})."""
    rs = build_root_system(td.spec.series)
    return tuple(t - a for t, a in zip(td.tilde_eps[alpha], rs.simple[alpha - 1]))


def solve_mixture(rep: NaturalRep, td: ThetaData, A: QMatrix, alpha: int,
                  F_tilde: QMatrix) -> QScalar:
    """The unique c with [pi(q^{h_tilde - h_alpha}) pi(e_alpha) + c F_tilde, A] = 0."""
    lead = cartan_power(td.spec.series, cartan_shift(td, alpha)) * rep.e[alpha - 1]
    b1 = commutator(lead, A)
    b2 = commutator(F_tilde, A)
    pivot = b2.first_nonzero()
    if pivot is None:
        if b1.is_zero():
            raise MixtureUnderdeterminedError(f"alpha_{alpha}: both commutators vanish")
        raise MixtureInconsistentError(f"alpha_{alpha}: no coefficient can cancel the commutator")
    i, j, val = pivot
    b1_pivot = b1.get(i, j)
    # b1 + c b2 = 0 with c = -b1_pivot / val iff b1 val = b1_pivot b2, as val != 0
    unit = QMatrix.identity(A.dim)
    if first_product_difference(b1, unit.scale(val), unit.scale(b1_pivot), b2) is not None:
        raise MixtureInconsistentError(f"alpha_{alpha}: commutators are not proportional")
    return -(b1_pivot / val)


def build_stabilizer(rep: NaturalRep, spec: ClassSpec, params: PointParams,
                     A: QMatrix) -> StabilizerSet:
    td = theta_for_class(spec)
    l_gens = []
    for b in td.pi_fixed:
        l_gens.append((f"e{b}", rep.e[b - 1]))
        l_gens.append((f"f{b}", rep.f[b - 1]))
        l_gens.append((f"k{b}", rep.k[b - 1]))
        l_gens.append((f"k{b}_inv", rep.k_inv[b - 1]))
    cartan = []
    mixed = []
    unsolved = []
    for a in td.pi_moved:
        beta = cartan_shift(td, a)
        kb = cartan_power(spec.series, beta)
        cartan.append((f"k.tilde{a}", kb))
        cartan.append((f"k.tilde{a}_inv", cartan_power(spec.series, tuple(-x for x in beta))))
        f_tilde = f_tilde_root_vector(rep, spec, a)
        try:
            c_solved = solve_mixture(rep, td, A, a, f_tilde)
        except (MixtureInconsistentError, MixtureUnderdeterminedError) as exc:
            unsolved.append((a, exc))
            continue
        c_table, note = mixture_table_formula(spec, a, params)
        X = kb * rep.e[a - 1] + f_tilde.scale(c_solved)
        mixed.append(CoidealGen(a, _word_description(spec, a, td), f_tilde,
                                c_table, note, c_solved, X))
    return StabilizerSet(spec, l_gens, cartan, mixed, unsolved)


def check_stabilizer(ss: StabilizerSet, A: QMatrix) -> list:
    records = []
    for name, g in ss.all_matrices():
        diff = first_product_difference(g, A, A, g)
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


def build_point_stabilizer(spec: ClassSpec, params: PointParams, A: QMatrix) -> StabilizerSet:
    rep = build_natural_rep(spec.series)
    return build_stabilizer(rep, spec, params, A)
