"""Root systems for the classical series and the symmetric conjugacy classes
of sl, so and sp.

Roots and weights live in an orthonormal epsilon basis and are stored as
integer tuples; simple-root coordinates are read from prefix sums.  The
involution of each class is read off its classical point in `points`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate


class NotInSpanError(ValueError):
    pass


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
# the Lie algebra's dimension (about N^2), and every class to N = 32 passes
# with a larger bound.  Raising it claims no speed, so needs no benchmark pair.
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


def sub(u: tuple, v: tuple) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def dot(u: tuple, v: tuple):
    return sum(a * b for a, b in zip(u, v))


def simple_roots(ls: LieSeries) -> tuple:
    n, d = ls.rank, ls.eps_dim
    roots = [sub(_eps(d, i), _eps(d, i + 1)) for i in range(n - 1)]
    if ls.series == "A":
        roots.append(sub(_eps(d, n - 1), _eps(d, n)))
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
    roots = [sub(_eps(d, i), _eps(d, j)) for i, j in pairs]
    if s != "A":
        roots += [_add(_eps(d, i), _eps(d, j)) for i, j in pairs]
    if s in ("B", "C"):
        roots += [_eps(d, i, 1 if s == "B" else 2) for i in range(d)]
    return tuple(sorted(roots))


def _basis_weights(ls: LieSeries) -> tuple:
    """The weights of the natural-representation basis vectors, in order:
    e_1, ..., e_N for A; e_1, ..., e_n, then 0 for B, then -e_n, ..., -e_1,
    so that the mirrored index j' = N - 1 - j carries the opposite weight."""
    d = ls.eps_dim
    top = [_eps(d, j) for j in range(d)]
    if ls.series == "A":
        return tuple(top)
    middle = [(0,) * d] if ls.series == "B" else []
    return tuple(top + middle + [_eps(d, j, -1) for j in reversed(range(d))])


@dataclass(frozen=True)
class RootSystem:
    ls: LieSeries
    simple: tuple
    positive: tuple
    two_rho: tuple
    cartan_pairing: tuple  # integer matrix (alpha_i, alpha_j)
    kappa: tuple  # per-basis-vector signs entering the R-matrix (length N)
    weights: tuple  # weight of each natural-representation basis vector

    def prime(self, j: int) -> int:
        """The mirrored basis index j' = N - 1 - j (0-based)."""
        return self.ls.dim - 1 - j

    def expand_in_simple(self, v: tuple) -> tuple:
        """Coordinates c of v in the simple-root basis, as Fractions.

        With the prefix sums P_k = v_1 + ... + v_k, matching v against
        sum_k c_k alpha_k one epsilon coordinate at a time gives
          A: c_k = P_k, and v is in the span iff P_{n+1} = 0;
          B: c_k = P_k;
          C: c_k = P_k for k < n, c_n = P_n / 2;
          D: c_k = P_k for k <= n - 2, c_{n-1} = (P_{n-1} - v_n) / 2,
             c_n = P_n / 2.
        NotInSpanError is raised for a vector of A outside the span.
        """
        return tuple(map(Fraction, self._coordinates(v)))

    def height(self, v: tuple):
        """The sum of the simple-root coordinates of v."""
        return sum(self._coordinates(v))

    def _coordinates(self, v: tuple) -> list:
        """The coordinates of `expand_in_simple`; only the halved are Fractions."""
        n, series = self.ls.rank, self.ls.series
        p = list(accumulate(v))
        if series == "A" and p[n]:
            raise NotInSpanError(f"{v} is not in the span of the simple roots")
        c = p[:n]
        if series == "C":
            c[n - 1] = Fraction(p[n - 1], 2)
        elif series == "D":
            c[n - 2] = Fraction(p[n - 2] - v[n - 1], 2)
            c[n - 1] = Fraction(p[n - 1], 2)
        return c


@lru_cache(maxsize=None)
def build_root_system(ls: LieSeries) -> RootSystem:
    simple = simple_roots(ls)
    pos = positive_roots(ls)
    two_rho = tuple(sum(col) for col in zip(*pos))
    pairing = tuple(tuple(dot(a, b) for b in simple) for a in simple)
    kappa = tuple(-1 if ls.series == "C" and 2 * j >= ls.dim else 1 for j in range(ls.dim))
    return RootSystem(ls, simple, pos, two_rho, pairing, kappa, _basis_weights(ls))


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


def admissible_cases(n_max: int) -> list:
    """Every class ClassSpec accepts with N <= n_max, ordered by N first."""
    cases = []
    for N in range(1, n_max + 1):
        for group in ("sl", "so", "sp"):
            for args in ([("t2", m, sign) for m in range(N // 2 + 1) for sign in (1, -1)]
                         + [("t4", None, 1)]):
                try:
                    cases.append(ClassSpec(group, N, *args))
                except ValueError:
                    pass
    return cases
