"""The natural representation of the quantized enveloping algebra on C^N:
generator matrices, defining-relation checks, coproduct compatibility with the
R-matrix, and the q-trace functional.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qmatrix import QMatrix, commutator
from .rootdata import LieSeries, RootSystem, build_root_system, dot, sub
from .scalar import ONE, Q, QINV, ZERO, QScalar


@dataclass
class CheckRecord:
    name: str
    passed: bool
    detail: str | None = None

    def to_dict(self) -> dict:
        """The JSON form of a record: the detail only when there is one."""
        return {"name": self.name, "pass": self.passed} | (
            {"detail": self.detail} if self.detail else {})


@dataclass
class NaturalRep:
    series_data: LieSeries
    e: list  # pi(e_i), index 0 is alpha_1
    f: list
    k: list  # pi(q^{h_i})
    k_inv: list
    F: list  # pi(q^{h_i}) pi(f_i)


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


def cartan_power(ls: LieSeries, beta: tuple) -> QMatrix:
    """pi(q^{h_beta}) for a vector beta in epsilon coordinates: the diagonal
    of q^(beta, weight_j) over the natural basis."""
    return QMatrix(ls.dim, [{j: QScalar.q_power(d)} for j, d in
                            enumerate(cartan_exponents(ls, beta))])


@lru_cache(maxsize=None)
def build_natural_rep(ls: LieSeries) -> NaturalRep:
    """pi(e_i) has an entry at each (a, b) with w_a - w_b = alpha_i, for the
    natural basis's weights w: -1 where the series is B, C or D and
    a + b > N - 1 (0-based), 1 otherwise."""
    N = ls.dim
    rs = build_root_system(ls)
    index = {wj: j for j, wj in enumerate(rs.weights)}
    e = []
    for alpha in rs.simple:
        m = QMatrix(N)
        for a, wa in enumerate(rs.weights):
            b = index.get(sub(wa, alpha))
            if b is not None:
                m.put(a, b, -ONE if ls.series != "A" and a + b > N - 1 else ONE)
        e.append(m)
    f = [m.transpose() for m in e]
    k = [cartan_power(ls, alpha) for alpha in rs.simple]
    k_inv = [cartan_power(ls, tuple(-x for x in alpha)) for alpha in rs.simple]
    F = [ki * fi for ki, fi in zip(k, f)]
    return NaturalRep(ls, e, f, k, k_inv, F)


def check_defining_relations(rep: NaturalRep) -> list:
    """Exact matrix checks of the Chevalley-generator relations."""
    ls = rep.series_data
    rs = build_root_system(ls)
    n, N = ls.rank, ls.dim
    records = []
    lam = Q - QINV
    lam2 = Q * Q - QINV * QINV
    for i in range(n):
        for j in range(n):
            ok = rep.k[i] * rep.k[j] == rep.k[j] * rep.k[i]
            records.append(CheckRecord(f"k{i+1}.k{j+1}.commute", ok))
            a = rs.cartan_pairing[i][j]
            ok = rep.k[i] * rep.e[j] * rep.k_inv[i] == rep.e[j].scale(QScalar.q_power(a))
            records.append(CheckRecord(f"k{i+1}.e{j+1}.weight", ok))
            ok = rep.k[i] * rep.f[j] * rep.k_inv[i] == rep.f[j].scale(QScalar.q_power(-a))
            records.append(CheckRecord(f"k{i+1}.f{j+1}.weight", ok))
            lhs = commutator(rep.e[i], rep.f[j])
            if i != j:
                records.append(CheckRecord(f"e{i+1}.f{j+1}.commute", lhs.is_zero()))
            else:
                # the long symplectic root carries the doubled denominator
                d = lam2 if ls.series == "C" and i == n - 1 else lam
                rhs = (rep.k[i] - rep.k_inv[i]).scale(d.inv())
                records.append(CheckRecord(f"e{i+1}.f{i+1}.cartan", lhs == rhs))
    for i in range(n):
        ok = rep.k[i] * rep.k_inv[i] == QMatrix.identity(N)
        records.append(CheckRecord(f"k{i+1}.invertible", ok))
    return records


def coproduct_pairs(rep: NaturalRep):
    """(pi x pi) of Delta(x) and of the opposite coproduct, per generator."""
    N = rep.series_data.dim
    I = QMatrix.identity(N)
    for i in range(rep.series_data.rank):
        e, f, k, ki = rep.e[i], rep.f[i], rep.k[i], rep.k_inv[i]
        yield f"e{i+1}", k.kron(e) + e.kron(I), e.kron(k) + I.kron(e)
        yield f"f{i+1}", f.kron(ki) + I.kron(f), ki.kron(f) + f.kron(I)
        yield f"k{i+1}", k.kron(k), k.kron(k)
        yield f"k{i+1}_inv", ki.kron(ki), ki.kron(ki)


def check_rtt_compat(rep: NaturalRep, R: QMatrix) -> list:
    """R (pi x pi)Delta(x) = (pi x pi)Delta_op(x) R for every generator x."""
    records = []
    for name, dx, dx_op in coproduct_pairs(rep):
        ok = R * dx == dx_op * R
        records.append(CheckRecord(f"rtt.{name}", ok))
    return records


@lru_cache(maxsize=None)
def q_trace_exponents(ls: LieSeries) -> tuple:
    """(2 rho, w_j) for each natural basis weight w_j: the q-trace of A is
    sum_j q^(2 rho, w_j) A_jj."""
    rs = build_root_system(ls)
    return tuple(dot(rs.two_rho, w) for w in rs.weights)


def q_trace(A: QMatrix, rs: RootSystem) -> QScalar:
    """The q-trace, normalized."""
    total = ZERO
    for j, d in enumerate(q_trace_exponents(rs.ls)):
        a = A.rows[j].get(j)
        if a is not None:
            total = total + QScalar.q_power(d) * a
    return total
