"""Root systems for the classical series and the involution data attached to
each symmetric conjugacy class.

Roots and weights live in an orthonormal epsilon basis and are stored as
integer tuples.  The involution theta acts on that basis by a signed
permutation; the subsets of simple roots it fixes, and the twisted partners
of the rest, are computed from theta rather than tabulated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg


@dataclass(frozen=True)
class LieSeries:
    """One of the classical series A, B, C, D at a fixed rank."""

    series: str
    rank: int

    def __post_init__(self):
        if self.series not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown series {self.series!r}")
        min_rank = {"A": 1, "B": 1, "C": 1, "D": 2}[self.series]
        if self.rank < min_rank:
            raise ValueError(f"rank {self.rank} too small for series {self.series}")

    @property
    def dim(self) -> int:
        """Dimension N of the natural representation."""
        s, n = self.series, self.rank
        if s == "A":
            return n + 1
        if s == "B":
            return 2 * n + 1
        return 2 * n

    @property
    def eps_dim(self) -> int:
        return self.rank + 1 if self.series == "A" else self.rank


# Largest N accepted.  The classical set-up and verdicts form no matrix of
# the Lie algebra's dimension (about N^2).  Single cases up to N = 32 have
# been timed (CHANGES.md), but no benchmark workload covers N above 6, so
# raising the bound waits on the before/after benchmark pair of ROADMAP item 2.
MAX_N = 16


def series_for_group(group: str, N: int) -> LieSeries:
    """Map sl(N) / so(N) / sp(N) to its series and rank."""
    if N > MAX_N:
        raise ValueError(f"N = {N} exceeds {MAX_N}")
    if group == "sl":
        if N < 2:
            raise ValueError("sl requires N >= 2")
        return LieSeries("A", N - 1)
    if group == "so":
        if N % 2:
            if N < 3:
                raise ValueError("so requires N >= 3 when odd")
            return LieSeries("B", N // 2)
        if N < 4:
            raise ValueError("so requires N >= 4 when even")
        return LieSeries("D", N // 2)
    if group == "sp":
        if N % 2 or N < 2:
            raise ValueError("sp requires even N >= 2")
        return LieSeries("C", N // 2)
    raise ValueError(f"unknown group {group!r}")


def _eps(dim: int, idx: int, sign: int = 1) -> tuple:
    v = [0] * dim
    v[idx] = sign
    return tuple(v)


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def dot(u: tuple, v: tuple):
    return sum(a * b for a, b in zip(u, v))


def simple_roots(ls: LieSeries) -> tuple:
    n, d = ls.rank, ls.eps_dim
    roots = [_sub(_eps(d, i), _eps(d, i + 1)) for i in range(n - 1)]
    if ls.series == "A":
        roots.append(_sub(_eps(d, n - 1), _eps(d, n)))
    elif ls.series == "B":
        roots.append(_eps(d, n - 1))
    elif ls.series == "C":
        roots.append(_eps(d, n - 1, 2))
    else:
        roots.append(_add(_eps(d, n - 2), _eps(d, n - 1)))
    return tuple(roots)


def positive_roots(ls: LieSeries) -> tuple:
    """All positive roots, from their closed forms in the epsilon basis:
    e_i - e_j (i < j); for B, C and D also e_i + e_j (i < j); e_i for B;
    2 e_i for C.  Each has a positive first nonzero coordinate."""
    d, s = ls.eps_dim, ls.series
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    roots = [_sub(_eps(d, i), _eps(d, j)) for i, j in pairs]
    if s != "A":
        roots += [_add(_eps(d, i), _eps(d, j)) for i, j in pairs]
    if s in ("B", "C"):
        roots += [_eps(d, i, 1 if s == "B" else 2) for i in range(d)]
    return tuple(sorted(roots))


@dataclass(frozen=True)
class RootSystem:
    ls: LieSeries
    simple: tuple
    positive: tuple
    two_rho: tuple
    cartan_pairing: tuple  # integer matrix (alpha_i, alpha_j)
    gram_inv_num: tuple  # integer matrix: Gram^-1 = gram_inv_num / gram_inv_den
    gram_inv_den: int  # the least positive denominator of Gram^-1
    kappa: tuple  # per-basis-vector signs entering the R-matrix (length N)

    def prime(self, j: int) -> int:
        """The mirrored basis index j' = N - 1 - j (0-based)."""
        return self.ls.dim - 1 - j

    def weight_of_basis(self, j: int) -> tuple:
        """Weight of the j-th natural-representation basis vector (0-based)."""
        d = self.ls.eps_dim
        if self.ls.series == "A":
            return _eps(d, j)
        n, N = self.ls.rank, self.ls.dim
        if j < n:
            return _eps(d, j)
        if 2 * j + 1 == N:
            return tuple([0] * d)
        return _eps(d, self.prime(j), -1)

    def expand_in_simple(self, v: tuple) -> tuple:
        """Coordinates c of v in the simple-root basis, as Fractions.

        If v = sum_i c_i alpha_i, then (alpha_j, v) = sum_i Gram_ji c_i, so
        c = Gram^-1 ((alpha_j, v))_j, read here as num / gram_inv_den with
        num = gram_inv_num ((alpha_j, v))_j in integers.  Outside the span
        that c belongs to the orthogonal projection of v instead, so
        sum_i num_i alpha_i = gram_inv_den v is checked; NotInSpanError is
        raised if it fails.
        """
        s = [(j, x) for j, x in enumerate(dot(alpha, v) for alpha in self.simple) if x]
        num = [sum(row[j] * x for j, x in s) for row in self.gram_inv_num]
        back = [0] * len(v)
        for c, alpha in zip(num, self.simple):
            if c:
                for t, a in enumerate(alpha):
                    if a:
                        back[t] += c * a
        if back != [self.gram_inv_den * x for x in v]:
            raise linalg.NotInSpanError(f"{v} is not in the span of the simple roots")
        return tuple(Fraction(c, self.gram_inv_den) for c in num)


@lru_cache(maxsize=None)
def build_root_system(ls: LieSeries) -> RootSystem:
    simple = simple_roots(ls)
    pos = positive_roots(ls)
    two_rho = tuple(sum(col) for col in zip(*pos))
    pairing = tuple(tuple(dot(a, b) for b in simple) for a in simple)
    gram_inv = linalg.invert([[Fraction(x) for x in row] for row in pairing])
    den = math.lcm(*(x.denominator for row in gram_inv for x in row))
    N = ls.dim
    if ls.series == "C":
        kappa = tuple(1 if j < N // 2 else -1 for j in range(N))
    else:
        kappa = tuple(1 for _ in range(N))
    return RootSystem(ls, simple, pos, two_rho, pairing,
                      tuple(tuple(int(x * den) for x in row) for row in gram_inv), den, kappa)


# --- conjugacy class specifications ----------------------------------------

_FAMILIES = ("t2", "t4")


@dataclass(frozen=True)
class ClassSpec:
    """A symmetric conjugacy class: group, size N, family, depth m, and sign.

    Family "t2" covers the classes with two real eigenvalue clusters (depth m
    counts the flipped directions); "t4" covers the square-root-of-a-scalar
    classes that exist for so/sp at even N only.
    """

    group: str
    N: int
    family: str
    m: int | None = None
    sign: int = 1

    def __post_init__(self):
        series_for_group(self.group, self.N)  # validates group and N
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.family == "t2":
            if self.m is None:
                raise ValueError("family t2 requires m")
            if not 0 <= 2 * self.m <= self.N:
                raise ValueError(f"m must satisfy 0 <= m <= N/2, got {self.m}")
            if self.group == "sp" and self.m % 2:
                raise ValueError("sp with family t2 requires even m")
        else:
            if self.group == "sl":
                raise ValueError("family t4 exists only for so and sp")
            if self.N % 2:
                raise ValueError("family t4 requires even N")
            if self.m is not None:
                raise ValueError("family t4 takes no m")
            if self.sign != 1:
                raise ValueError("family t4 has a single sign convention")

    @property
    def series(self) -> LieSeries:
        return series_for_group(self.group, self.N)

    @property
    def param_kind(self) -> str:
        """Which free-parameter family the class carries: plain corners ("y")
        or staggered two-index corners ("z")."""
        if self.family == "t2":
            return "z" if self.group == "sp" else "y"
        return "y" if self.group == "sp" else "z"

    @property
    def case_id(self) -> str:
        if self.family == "t2":
            s = "p" if self.sign == 1 else "m"
            return f"{self.group}{self.N}-t2-m{self.m}-{s}"
        return f"{self.group}{self.N}-t4"


def standard_cases(group: str | None = None, n_max: int | None = None):
    """The reference grid of classes used by the sweep command and the test
    suite: all admissible (group, N, family, m, sign) with small N."""
    cases = []
    for N in range(2, 7):
        for m in range(0, N // 2 + 1):
            for sign in (1, -1):
                cases.append(ClassSpec("sl", N, "t2", m, sign))
    for N in (5, 6, 7, 8):
        for m in range(0, N // 2 + 1):
            for sign in (1, -1):
                cases.append(ClassSpec("so", N, "t2", m, sign))
    for N in (6, 8):
        cases.append(ClassSpec("so", N, "t4"))
    for N in (4, 6, 8):
        for m in range(0, N // 2 + 1, 2):
            for sign in (1, -1):
                cases.append(ClassSpec("sp", N, "t2", m, sign))
        cases.append(ClassSpec("sp", N, "t4"))
    if group is not None:
        cases = [c for c in cases if c.group == group]
    if n_max is not None:
        cases = [c for c in cases if c.N <= n_max]
    return cases


# --- the involution attached to a class -------------------------------------

@dataclass(frozen=True)
class ThetaData:
    """The involution theta on weight space for one class, plus the derived
    combinatorics: fixed simple roots, twisted partners, and restricted pairing.
    """

    spec: ClassSpec
    matrix: tuple  # eps_dim x eps_dim signed permutation, rows of ints
    pi_fixed: tuple  # 1-based indices of simple roots fixed by theta
    pi_moved: tuple  # 1-based indices of the remaining simple roots
    tilde_eps: dict  # i -> -theta(alpha_i) in epsilon coordinates
    tilde_simple: dict  # i -> the same vector in simple-root coordinates
    partner: dict  # i -> the unique moved index i' with tilde(i) - alpha_{i'} in span Z+ of fixed simples

    def apply(self, v: tuple) -> tuple:
        return tuple(dot(row, v) for row in self.matrix)


def _theta_matrix(spec: ClassSpec) -> tuple:
    ls = spec.series
    d = ls.eps_dim
    rows = [[0] * d for _ in range(d)]
    for j in range(d):
        rows[j][j] = 1
    N, m = spec.N, spec.m

    if spec.family == "t2":
        if spec.group == "sl":
            # swap the first m coordinates with their mirrors
            for i in range(m):
                j = N - 1 - i
                rows[i][i] = rows[j][j] = 0
                rows[i][j] = rows[j][i] = 1
        elif spec.group == "so":
            for i in range(m):
                rows[i][i] = -1
        else:  # sp, m even
            for i in range(0, m, 2):
                rows[i][i] = rows[i + 1][i + 1] = 0
                rows[i][i + 1] = rows[i + 1][i] = -1
    else:  # t4
        n = ls.rank
        if spec.group == "sp":
            for i in range(n):
                rows[i][i] = -1
        else:  # so, even N
            for i in range(0, n - 1, 2):
                rows[i][i] = rows[i + 1][i + 1] = 0
                rows[i][i + 1] = rows[i + 1][i] = -1
            # with n odd the last coordinate is fixed
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def theta_for_class(spec: ClassSpec) -> ThetaData:
    ls = spec.series
    rs = build_root_system(ls)
    matrix = _theta_matrix(spec)

    def apply(v):
        return tuple(dot(row, v) for row in matrix)

    d = ls.eps_dim
    for j in range(d):
        basis = _eps(d, j)
        if apply(apply(basis)) != basis:
            raise AssertionError("theta is not an involution")

    fixed, moved = [], []
    for idx, alpha in enumerate(rs.simple, start=1):
        (fixed if apply(alpha) == alpha else moved).append(idx)

    tilde_eps, tilde_simple = {}, {}
    for i in moved:
        alpha = rs.simple[i - 1]
        t = tuple(-x for x in apply(alpha))
        coords = rs.expand_in_simple(t)
        if any(c.denominator != 1 or c < 0 for c in coords):
            raise AssertionError("twisted partner is not a positive root combination")
        tilde_eps[i] = t
        tilde_simple[i] = tuple(int(c) for c in coords)

    partner = {}
    fixed_set = set(fixed)
    for i in moved:
        matches = []
        for j in moved:
            diff = _sub(tilde_eps[i], rs.simple[j - 1])
            coords = rs.expand_in_simple(diff)
            if all(c.denominator == 1 and c >= 0 for c in coords) and all(
                c == 0 for k, c in enumerate(coords, start=1) if k not in fixed_set
            ):
                matches.append(j)
        if len(matches) != 1:
            raise AssertionError(f"expected a unique partner for alpha_{i}, got {matches}")
        partner[i] = matches[0]

    return ThetaData(spec, matrix, tuple(fixed), tuple(moved), tilde_eps, tilde_simple, partner)
