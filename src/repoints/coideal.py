"""Stabilizer generators of the quantum point inside the quantized enveloping
algebra, realized in the natural representation.

A Cartan generator (k_b, k_b^-1 for a fixed b, and the k-tilde of each moved
alpha and its inverse) is kept as its integer exponent vector d, for the
diagonal matrix diag(q^d_j); it commutes with A iff d_i = d_j at every
nonzero A_ij (`support_difference`), so it is decided with no product.

Each e_b and f_b has at most one nonzero, +-1, per row and per column, so
[e_b, A] = 0 is decided entry by entry on A's rows and columns
(`signed_permutation_difference`), with no product either.

For each simple root alpha moved by the involution, the mixed generator is
X_alpha = pi(q^{h_tilde - h_alpha}) pi(e_alpha) + c_alpha pi(F_tilde), where
F_tilde is an iterated q-commutator word in the F_i.  The coefficient c_alpha
is read off one entry of both terms' commutators with A, at t = 2^K, as the
pair c_num / c_den (`MixtureCoefficient`), and accepted when [X'', A] = 0 is
decided exactly for X'' = c_den X_alpha, which the kernel reads at t as its
two terms (`qmatrix.Unreduced`): no scalar is normalized and no Laurent
polynomial is multiplied.  That acceptance is the verdict on X_alpha at the
point it was solved for.  The tabulated form is a constant times a Laurent
monomial in the parameters, compared with c_alpha by cross-multiplication
at t on the same pair.  c_alpha and X_alpha are normalized only where they
are read: in a failing detail, in the `stabilizer` and `satake` output, and
to decide X_alpha at another point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import mul

from .natrep import CheckRecord, NaturalRep, build_natural_rep, cartan_exponents
from .points import PointParams, ThetaData, theta_for_class
from .qmatrix import (
    QMatrix,
    Unreduced,
    cleared_quotient,
    difference_entry,
    first_product_difference,
    first_product_mismatch,
    first_vector_difference,
    same_products,
)
from .rootdata import ClassSpec, LieSeries, build_root_system, sub
from .scalar import (
    GR_I,
    LP_ONE,
    ONE,
    Q,
    QINV,
    ZERO,
    GaussRational,
    LaurentPoly,
    QScalar,
    render_scalar,
)


class MixtureInconsistentError(ArithmeticError):
    """No coefficient makes the mixed generator commute with the point."""


class MixtureUnderdeterminedError(ArithmeticError):
    """Both commutators vanish; any coefficient works."""


def q_commutator(x: QMatrix, y: QMatrix, a: QScalar) -> QMatrix:
    """[x, y]_a = xy - a yx, built on the nonempty rows of x and y only:
    the words of F_tilde are products of the sparse F_i."""
    out = QMatrix(x.dim)
    rows = out.rows
    for i, row in enumerate(x.rows):
        if row:
            rows[i] = y.apply_left(row)
    for i, row in enumerate(y.rows):
        if row:
            acc = rows[i]
            for j, v in x.apply_left(row).items():
                s = acc.get(j, ZERO) - a * v
                if s:
                    acc[j] = s
                else:
                    acc.pop(j, None)
    return out


@dataclass
class TabulatedValue:
    """A tabulated c_alpha, unreduced: the constant num / den of Q(i)(q)
    times the Laurent monomial prod y_k^e over (k, e) in `mono`, at the
    parameter values `values` (k -> QScalar)."""
    num: LaurentPoly
    den: LaurentPoly
    mono: tuple
    values: dict

    def factors(self) -> tuple:
        """The value as lists of numerator and denominator factors, Laurent
        polynomials: each y_k^e adds y_k's numerator and denominator e times,
        swapped for e < 0."""
        num, den = [self.num], [self.den]
        for k, e in self.mono:
            y = self.values[k]
            a, b = (y.num, y.den) if e > 0 else (y.den, y.num)
            num += [a] * abs(e)
            den += [b] * abs(e)
        return num, den



class MixtureCoefficient:
    """c = -b1[p] / b2[p], with b1 = [lead, A], b2 = [F_tilde, A] and p the
    first nonzero entry of b2, kept as what it is read from.

    The kernel reads c at t = 2^K as the pair c_den = q^e2 P2 Q1 and
    c_num = -q^e1 P1 Q2 (`den`, `num`) of b1[p] = q^e1 P1/Q1 and
    b2[p] = q^e2 P2/Q2 read off row i of the two commutators at that K
    (`qmatrix.difference_entry`, `qmatrix.cleared_quotient`).  Each K reads
    its own pair, and c_num / c_den = c at every K.  `value` normalizes c
    from b1[p] and b2[p], read off the normalized rows i of the products as
    `qmatrix.first_product_difference` names a failing entry, only where it
    is read."""

    def __init__(self, lead: QMatrix, F_tilde: QMatrix, A: QMatrix, p: tuple):
        self.lead, self.F_tilde, self.A, self.p = lead, F_tilde, A, p
        self._pairs: dict = {}

    def _pair(self, K: int) -> tuple:
        pair = self._pairs.get(K)
        if pair is None:
            i, j = self.p
            A = self.A
            pair = self._pairs[K] = cleared_quotient(
                difference_entry(self.lead, A, A, self.lead, i, j, K),
                difference_entry(self.F_tilde, A, A, self.F_tilde, i, j, K))
        return pair

    def den(self, K: int) -> tuple:
        return self._pair(K)[0]

    def num(self, K: int) -> tuple:
        return self._pair(K)[1]

    @cached_property
    def value(self) -> QScalar:
        i, j = self.p
        A = self.A

        def entry(g: QMatrix) -> QScalar:
            """[g, A]_ij."""
            return A.apply_left(g.row(i)).get(j, ZERO) - g.apply_left(A.row(i)).get(j, ZERO)

        return -entry(self.lead) / entry(self.F_tilde)


@dataclass
class CoidealGen:
    alpha: int  # 1-based simple-root index
    word: str  # human-readable form of the F_tilde word
    F_tilde: QMatrix
    lead: QMatrix  # pi(q^{h_tilde - h_alpha}) pi(e_alpha)
    table: TabulatedValue | None
    c_table_note: str | None
    c: MixtureCoefficient  # c_solved, as the kernel reads it
    X_cleared: Unreduced  # c_den X, which `solve_mixture` accepted

    @property
    def c_solved(self) -> QScalar:
        return self.c.value

    @cached_property
    def c_table(self) -> QScalar | None:
        if self.table is None:
            return None
        num, den = self.table.factors()
        return QScalar(reduce(mul, num), reduce(mul, den))

    @cached_property
    def X(self) -> QMatrix:
        return self.lead + self.F_tilde.scale(self.c_solved)

    @property
    def table_matches(self) -> bool | None:
        """c_table = c_solved, cross-multiplied: Tn c_den = c_num Td for the
        table's value Tn / Td, decided on the factors at t, c_den and c_num
        being the kernel's pair (`same_products`)."""
        if self.table is None:
            return None
        num, den = self.table.factors()
        return same_products(num + [self.c.den], [self.c.num] + den)


@dataclass
class StabilizerSet:
    # for each simple root b fixed by theta: (name, `signed_permutation`) for
    # e_b and f_b, then (name, exponent vector) for k_b and k_b^-1
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
    """The tabulated closed form of c_alpha, at the given parameters, as a
    `TabulatedValue`: a constant of Q(i)(q) times a Laurent monomial in the
    parameters, unreduced.

    Returns (value or None, note or None).  None values mark table entries
    that do not determine a coefficient (an undefined index); notes flag
    entries that required an interpretive reading.
    """
    i = alpha
    N, m = spec.N, spec.m
    n = spec.series.rank

    def table(c, k: int, *mono, den: LaurentPoly = LP_ONE) -> TabulatedValue:
        """c q^k / den times prod y_j^e over the (j, e) in mono."""
        c = c if isinstance(c, GaussRational) else GaussRational(c)
        return TabulatedValue(LaurentPoly.q_power(k, c), den, mono,
                              {j: params.values[j] for j, _ in mono})

    if spec.family == "t4":
        if spec.group == "sp":
            if i < n:
                return table(-1, 1, (i + 1, 1), (i, -1)), None
            return table(-1, -2 * n, (n, -2)), None
        if i % 2 == 0 and i < n - 1:
            return table(-1, 1, (i + 1, 1), (i - 1, -1)), None
        if n % 2 == 0 and i == n:
            return table(-1, 3 - 2 * n, (n - 1, -2)), None
        if n % 2 and i in (n - 1, n):
            # the tabulated subscript n-1 names no parameter (only odd indices
            # exist here); the nearest reading, n-2, is used and flagged
            note = "table subscript adjusted from n-1 to the existing index n-2"
            return table(GR_I if i == n - 1 else -GR_I, 1 - n, (n - 2, -1)), note

    elif spec.group == "sl":
        if i < m or i > N - m:
            return table(1, 0, (i + 1, 1), (i, -1)), None
        if 2 * m == N and i == m:
            note = "table labels this entry with a generic index; read as the middle root"
            return table(1, 1 - 2 * m, (m, -2)), note
        sgn = 1 if (N + 1) % 2 == 0 else -1
        if i == m:
            return table(sgn, m - N, (m, -1)), None
        if i == N - m:
            return table(sgn, 2 * N - 5 * m - 3, (m, -1)), None

    elif spec.group == "so" and N % 2:
        if i < m:
            return table(-1, 1, (i + 1, 1), (i, -1)), None
        if i == m:
            if m < n:
                sgn = 1 if (n - m + 1) % 2 == 0 else -1
                return table(sgn, -m - 1, (m, -1)), None
            return table(-1, -m, (m, -1)), None

    elif spec.group == "sp":
        if i < m:
            return table(-1, 1, (i + 1, 1), (i - 1, -1)), None
        if i == m:
            if m <= n - 1:
                sgn = 1 if (n + 1) % 2 == 0 else -1
                return table(sgn, -m, (m - 1, -1)), None
            # (q^2 + 1) q^(2n - 2)
            den = LaurentPoly({2 * n - 2: GaussRational(1), 2 * n: GaussRational(1)})
            return table(-1, 0, (n - 1, -2), den=den), None

    else:  # so, even N, t2
        if i < m:
            return table(-1, 1, (i + 1, 1), (i, -1)), None
        if m == n and i == n:
            return table(-1, 1 - 2 * n, (n - 1, -1), (n, -1)), None
        if m == n - 1:
            return None, "table entry uses an undefined index; no value evaluated"
        if i == m:
            sgn = 1 if (n - m) % 2 == 0 else -1
            return table(sgn, -m - 1, (m, -1)), None

    return None, None


def cartan_shift(td: ThetaData, alpha: int) -> tuple:
    """beta = tilde(alpha) - alpha in epsilon coordinates, so that
    cartan_exponents(ls, beta) is pi(q^{h_{tilde alpha} - h_alpha})."""
    rs = build_root_system(td.spec.series)
    return sub(td.tilde_eps[alpha], rs.simple[alpha - 1])


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


def signed_permutation(g: QMatrix) -> dict:
    """{l: (j, g_lj > 0)} for a g with at most one nonzero per row and per
    column, each +-1; raises ValueError for any other g."""
    moves = {}
    for l, row in enumerate(g.rows):
        for j, s in row.items():
            if len(row) > 1 or s != ONE and s != -ONE:
                raise ValueError("not a signed partial permutation")
            moves[l] = j, s == ONE
    if len({j for j, _ in moves.values()}) < len(moves):
        raise ValueError("not a signed partial permutation")
    return moves


@lru_cache(maxsize=None)
def _root_vector_moves(ls: LieSeries) -> tuple:
    """(e_b, f_b) of each simple root b as `signed_permutation`s: the natural
    basis's weights are distinct, so each has at most one +-1 per row and
    per column (`build_natural_rep`)."""
    rep = build_natural_rep(ls)
    return tuple((signed_permutation(e), signed_permutation(f)) for e, f in zip(rep.e, rep.f))


def signed_permutation_difference(moves: dict, A: QMatrix):
    """first_product_difference(g, A, A, g) for g = `signed_permutation`
    moves, as every e_b and f_b is: (g A)_ij = s A_kj for g_ik = s, and
    (A g)_ij = A_il s' for g_lj = s', so each entry of either product is one
    signed entry of A.  Row i of g A is A's row k, and row i of A g holds
    A_il at column j for each row l of g; only the rows of g and the rows of
    A with a nonzero in one of those columns l can be nonzero.  Canonical
    `QScalar`s are equal iff their fields are, so the first differing
    column, rows in order, is the kernel's first mismatch, with the
    kernel's values."""
    rows = set(moves)
    rows.update(i for i, row in enumerate(A.rows) if not row.keys().isdisjoint(moves))
    for i in sorted(rows):
        k = moves.get(i)
        left = {} if k is None else {j: v if k[1] else -v for j, v in A.rows[k[0]].items()}
        right = {}
        row = A.rows[i]
        for l, (j, positive) in moves.items():
            v = row.get(l)
            if v is not None:
                right[j] = v if positive else -v
        diff = first_vector_difference(left, right)
        if diff is not None:
            return (i, *diff)
    return None


def solve_mixture(lead: QMatrix, A: QMatrix, alpha: int, F_tilde: QMatrix) -> tuple:
    """(c, X'') for the unique c with [X, A] = 0, X = lead + c F_tilde, where
    lead = pi(q^{h_tilde - h_alpha}) pi(e_alpha) for the moved simple root
    alpha.  At the first nonzero p of b2 = [F_tilde, A], with
    b1 = [lead, A]: c = -b1[p] / b2[p] (`MixtureCoefficient`), read at t as
    the pair c_num / c_den with c_den != 0.  X'' = c_den lead + c_num F_tilde
    is X times c_den, so it commutes with A iff X does; one kernel call
    accepts it.  X'' is kept as its two terms (`Unreduced`), whose rows
    the kernel reads at t with each K's own pair, any nonzero multiple of
    X giving the same verdict; so building it normalizes nothing."""
    p = first_product_mismatch(F_tilde, A, A, F_tilde)
    if p is not None:
        c = MixtureCoefficient(lead, F_tilde, A, p)
        X2 = Unreduced((c.den, lead, None), (c.num, F_tilde, None))
        if first_product_mismatch(X2, A, A, X2) is not None:
            raise MixtureInconsistentError(f"alpha_{alpha}: commutators are not proportional")
        return c, X2
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
    moves = _root_vector_moves(ls)
    l_gens = []
    for b in td.pi_fixed:
        d = cartan_exponents(ls, rs.simple[b - 1])
        l_gens.append((f"e{b}", moves[b - 1][0]))
        l_gens.append((f"f{b}", moves[b - 1][1]))
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
        lead = QMatrix(spec.N)  # k.tilde e_a: e_a's +-1 at (l, j) times q^(d_l)
        for l, (j, positive) in moves[a - 1][0].items():
            v = QScalar.q_power(d[l])
            lead.rows[l][j] = v if positive else -v
        try:
            c, X2 = solve_mixture(lead, A, a, f_tilde)
        except (MixtureInconsistentError, MixtureUnderdeterminedError) as exc:
            unsolved.append((a, exc))
            continue
        table, note = mixture_table_formula(spec, a, params)
        mixed.append(CoidealGen(a, _word_description(a, td), f_tilde, lead,
                                table, note, c, X2))
    return StabilizerSet(l_gens, cartan, mixed, unsolved, A)


def check_stabilizer(ss: StabilizerSet, A: QMatrix) -> list:
    """A record per generator: [g, A] = 0 for each generator g, then one per
    unsolved mixture and per tabulated coefficient.  A Cartan generator is
    decided on A's support, e_b and f_b on A's rows and columns; X_alpha at
    the point it was solved for (A is ss.A) takes its verdict from
    `solve_mixture`'s acceptance, and is formed only at another point."""
    decided = [(name, support_difference(g, A) if isinstance(g, tuple)
                else signed_permutation_difference(g, A))
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
        matches = gen.table_matches
        if matches is None:
            continue
        detail = None
        if not matches:
            detail = (f"tabulated {render_scalar(gen.c_table)}, "
                      f"solved {render_scalar(gen.c_solved)}")
        records.append(CheckRecord(f"mixture.alpha{gen.alpha}.table", matches, detail))
    return records

