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
row i * N + j (0-based i, j).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

from .qmatrix import QMatrix, UnreducedProduct, first_product_difference
from .rootdata import LieSeries, build_root_system, dot
from .scalar import Q, QINV, QScalar


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
        p raw != u w^T, or None when raw = u w^T / p.  Requires a pivot.
        It compares raw (p I) with U W, where U holds u as column j0 and W
        holds w as row j0, so (U W)[i][j] = u_i w_j."""
        dim = self.raw.dim
        U = QMatrix(dim, [{self.j0: self.u[i]} if i in self.u else {} for i in range(dim)])
        W = QMatrix(dim)
        W.rows[self.j0] = self.w
        return first_product_difference(self.raw, QMatrix.identity(dim).scale(self.pivot), U, W)


@dataclass
class RMatrixData:
    R: QMatrix
    S: QMatrix
    projector: Projector | None  # absent for the A series


def build_R(ls: LieSeries) -> QMatrix:
    """The Faddeev-Reshetikhin-Takhtajan R-matrix on C^N tensor C^N.

    With w_j the weight of the j-th natural basis vector, j' its mirror and
    lambda = q - q^-1 (0-based indices):
        R = sum_ij q^(w_i, w_j) e_ii x e_jj + lambda sum_{j<i} e_ij x e_ji
            - lambda sum_{j<i} kappa_i kappa_j q^((r_i - r_j)/2) e_ij x e_i'j'.
    The last sum is absent for series A.  r_j = (2 rho, w_j), except at the
    middle basis vector of series B, whose weight is zero: there r = 1, as
    (2 rho, w_j) is odd for every other j and without it the exponent would
    not be an integer.
    """
    N = ls.dim
    rs = build_root_system(ls)
    w = rs.weights
    r = [dot(rs.two_rho, wj) for wj in w]
    if ls.series == "B":
        r[ls.rank] = 1
    R = QMatrix(N * N)
    lam = Q - QINV
    for i in range(N):
        for j in range(N):
            R.put(i * N + j, i * N + j, QScalar.q_power(dot(w[i], w[j])))
    for i in range(N):
        for j in range(i):
            R.put(i * N + j, j * N + i, R.get(i * N + j, j * N + i) + lam)
            if ls.series == "A":
                continue
            num = r[i] - r[j]
            if num % 2:
                raise AssertionError("non-integral exponent in R-matrix")
            c = QScalar.q_power(num // 2)
            if rs.kappa[i] * rs.kappa[j] < 0:
                c = -c
            pos = (i * N + rs.prime(i), j * N + rs.prime(j))
            R.put(*pos, R.get(*pos) - lam * c)
    return R


def flip_rows(M: QMatrix) -> QMatrix:
    """P * M where P is the tensor-flip permutation."""
    dim = M.dim
    N = isqrt(dim)
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
        return RMatrixData(R, S, None)
    return RMatrixData(R, S, build_projector(S, ls))


def braid_identity_holds(S: QMatrix, N: int) -> bool:
    """S12 S23 S12 = S23 S12 S23 on the N^3-dimensional triple tensor product,
    decided by the kernel on the unreduced products S12 S23 and S23 S12."""
    I = QMatrix.identity(N)
    S12 = S.kron(I)
    S23 = I.kron(S)
    return first_product_difference(UnreducedProduct(S12, S23), S12,
                                    UnreducedProduct(S23, S12), S23) is None


def annihilating_polynomial_holds(data: RMatrixData) -> bool:
    """Hecke relation (S - q)(S + q^-1) = 0 (A series, no projector), or the
    cubic relation raw (S - mu) = 0 (B/C/D) on the projector's numerator
    raw = (S - q)(S + q^-1)."""
    S, proj = data.S, data.projector
    if proj is None:
        left, right = S.add_scalar_diag(-Q), S.add_scalar_diag(QINV)
    else:
        left, right = proj.raw, S.add_scalar_diag(-proj.mu)
    zero = QMatrix(S.dim)
    return first_product_difference(left, right, zero, zero) is None
