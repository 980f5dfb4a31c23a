"""R-matrices of the classical series, the braided matrix S = PR, and the
rank-one invariant projector varpi for the orthogonal and symplectic cases.

The projector is kept in factored form and never as a dense matrix.  Its
numerator raw = (S - q)(S + q^-1) has polynomial entries and equals den * varpi
with the scalar den = (mu - q)(mu + q^-1), mu = eps q^(eps - N) being the
eigenvalue of S on the invariant line.  Reading the pivot p = raw[i0][j0] (the
first nonzero entry) gives the column u = raw[:, j0] and the row w = raw[i0, :],
and varpi = u w^T / (p den) exactly when p raw = u w^T.  Given that identity,
the projector checks reduce to vector identities free of denominators:
varpi^2 = varpi iff w.u = p den, and X varpi = mu varpi iff X u = mu u (and
varpi X = mu varpi iff w^T X = mu w^T).

Tensor indices are lexicographic: component (i, j) of C^N tensor C^N sits at
row (i - 1) * N + j (1-based i, j).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .qmatrix import QMatrix
from .rootdata import LieSeries, build_root_system
from .scalar import ONE, Q, QINV, ZERO, QScalar


def _exponent_weights(ls: LieSeries) -> list:
    """Doubled rho-style exponents r_j entering the kappa term of the R-matrix.

    These follow two_rho except in the B series, where the middle basis vector
    contributes exponent +1 (doubled), as forced by compatibility with the
    natural representation's normalization of the short-root generators.
    """
    n, N = ls.rank, ls.dim
    if ls.series == "B":
        top = [2 * (n - j) - 1 for j in range(n)]
        return top + [1] + [-t for t in reversed(top)]
    if ls.series == "C":
        top = [2 * (n - j) for j in range(n)]
        return top + [-t for t in reversed(top)]
    if ls.series == "D":
        top = [2 * (n - j) - 2 for j in range(n)]
        return top + [-t for t in reversed(top)]
    raise ValueError("A series has no kappa term")


@dataclass(frozen=True)
class Projector:
    """varpi = u w^T / (p den), with raw = den * varpi and p = raw[i0][j0].

    u and w are sparse vectors {index: nonzero value}; i0 is None (and u, w
    are empty) when raw is zero.
    """

    raw: QMatrix
    den: QScalar
    mu: QScalar
    i0: int | None
    j0: int | None
    u: dict
    w: dict

    @property
    def pivot(self) -> QScalar:
        return self.w[self.j0]

    @cached_property
    def factor_mismatch(self):
        """First (i, j, p raw[i][j], u[i] w[j]) in row-major order where
        p raw != u w^T, or None when raw = u w^T / p.  Requires a pivot."""
        p, u, w = self.pivot, self.u, self.w
        for i, row in enumerate(self.raw.rows):
            ui = u.get(i)
            cols = set(row) if ui is None else set(row) | set(w)
            for j in sorted(cols):
                a = p * row[j] if j in row else ZERO
                b = ui * w[j] if ui is not None and j in w else ZERO
                if a != b:
                    return i, j, a, b
        return None


@dataclass
class RMatrixData:
    series_data: LieSeries
    R: QMatrix
    S: QMatrix
    projector: Projector | None  # absent for the A series


def build_R(ls: LieSeries) -> QMatrix:
    N = ls.dim
    R = QMatrix(N * N)
    lam = Q - QINV

    def idx(i: int, j: int) -> int:
        # 1-based tensor component (i, j)
        return (i - 1) * N + (j - 1)

    if ls.series == "A":
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                R.put(idx(i, j), idx(i, j), Q if i == j else ONE)
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                # (q - q^-1) e_ji x e_ij over i < j
                R.put(idx(j, i), idx(i, j), R.get(idx(j, i), idx(i, j)) + lam)
        return R

    rs = build_root_system(ls)
    r = _exponent_weights(ls)
    kappa = rs.kappa

    def prime(i: int) -> int:
        return N - i + 1

    for i in range(1, N + 1):
        for j in range(1, N + 1):
            e = (1 if i == j else 0) - (1 if j == prime(i) else 0)
            R.put(idx(i, j), idx(i, j), QScalar.q_power(e))
    for i in range(1, N + 1):
        for j in range(1, i):
            # (q - q^-1) (e_ij x e_ji - kappa_i kappa_j q^(rho_i - rho_j) e_ij x e_i'j')
            R.put(idx(i, j), idx(j, i), R.get(idx(i, j), idx(j, i)) + lam)
            num = r[i - 1] - r[j - 1]
            if num % 2:
                raise AssertionError("non-integral exponent in R-matrix")
            c = QScalar.q_power(num // 2)
            if kappa[i - 1] * kappa[j - 1] < 0:
                c = -c
            pos = (idx(i, prime(i)), idx(j, prime(j)))
            R.put(pos[0], pos[1], R.get(pos[0], pos[1]) - lam * c)
    return R


def flip_rows(M: QMatrix) -> QMatrix:
    """P * M where P is the tensor-flip permutation."""
    dim = M.dim
    N = round(dim ** 0.5)
    if N * N != dim:
        raise ValueError("dimension is not a perfect square")
    rows = [M.rows[(t % N) * N + t // N] for t in range(dim)]
    return QMatrix(dim, rows)


def epsilon_for(ls: LieSeries) -> int:
    if ls.series in ("B", "D"):
        return 1
    if ls.series == "C":
        return -1
    raise ValueError("epsilon is defined for orthogonal and symplectic series only")


def projector_eigenvalue(ls: LieSeries) -> QScalar:
    """mu = eps q^(eps - N), the eigenvalue of S on the invariant line."""
    eps = epsilon_for(ls)
    mu = QScalar.q_power(eps - ls.dim)
    return -mu if eps < 0 else mu


def factor_projector(raw: QMatrix, den: QScalar, mu: QScalar) -> Projector:
    """Read the pivot, column and row of raw; nothing is checked here."""
    first = raw.first_nonzero()
    if first is None:
        return Projector(raw, den, mu, None, None, {}, {})
    i0, j0, _ = first
    u = {i: row[j0] for i, row in enumerate(raw.rows) if j0 in row}
    return Projector(raw, den, mu, i0, j0, u, dict(raw.rows[i0]))


def build_projector(S: QMatrix, ls: LieSeries) -> Projector:
    """The projector onto the one-dimensional invariant submodule of V x V.

    Built spectrally from the cubic annihilating polynomial of S: the factor
    (S - q)(S + 1/q) kills the other two eigenspaces; dividing by its value
    den at the remaining eigenvalue mu makes it idempotent.
    """
    mu = projector_eigenvalue(ls)
    den = (mu - Q) * (mu + QINV)
    if not den:
        raise ArithmeticError("degenerate eigenvalue; projector undefined")
    raw = S.add_scalar_diag(-Q) * S.add_scalar_diag(QINV)
    return factor_projector(raw, den, mu)


@lru_cache(maxsize=None)
def build_rmatrix_data(ls: LieSeries) -> RMatrixData:
    R = build_R(ls)
    S = flip_rows(R)
    if ls.series == "A":
        return RMatrixData(ls, R, S, None)
    return RMatrixData(ls, R, S, build_projector(S, ls))


def braid_identity_holds(S: QMatrix, N: int) -> bool:
    """S12 S23 S12 = S23 S12 S23 on the N^3-dimensional triple tensor product."""
    I = QMatrix.identity(N)
    S12 = S.kron(I)
    S23 = I.kron(S)
    return S12 * S23 * S12 == S23 * S12 * S23


def annihilating_polynomial_holds(S: QMatrix, ls: LieSeries) -> bool:
    """Hecke relation (A series) or the cubic relation (B/C/D)."""
    quad = S.add_scalar_diag(-Q) * S.add_scalar_diag(QINV)
    if ls.series == "A":
        return quad.is_zero()
    return (quad * S.add_scalar_diag(-projector_eigenvalue(ls))).is_zero()
