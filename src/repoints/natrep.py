"""The natural representation of the quantized enveloping algebra on C^N:
generator matrices, defining-relation checks, coproduct compatibility with the
R-matrix, and the q-trace functional.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qmatrix import QMatrix, commutator
from .rootdata import LieSeries, RootSystem, build_root_system, dot
from .scalar import ONE, Q, QINV, QScalar


@dataclass
class CheckRecord:
    name: str
    passed: bool
    detail: str | None = None

    def to_dict(self) -> dict:
        """The JSON form of a record: the detail only when there is one."""
        return {"name": self.name, "pass": self.passed} | (
            {"detail": self.detail} if self.detail else {})


def _unit(N: int, i: int, j: int, sign: int = 1) -> QMatrix:
    # matrix unit e_ij, 1-based
    m = QMatrix(N)
    m.put(i - 1, j - 1, ONE if sign > 0 else -ONE)
    return m


@dataclass
class NaturalRep:
    series_data: LieSeries
    e: list  # pi(e_i), index 0 is alpha_1
    f: list
    k: list  # pi(q^{h_i})
    k_inv: list
    F: list  # pi(q^{h_i}) pi(f_i)

    @property
    def rank(self) -> int:
        return self.series_data.rank


def cartan_power(ls: LieSeries, beta: tuple) -> QMatrix:
    """pi(q^{h_beta}) for a vector beta in epsilon coordinates: the diagonal
    of q^(beta, weight_j) over the natural basis."""
    rs = build_root_system(ls)
    out = QMatrix(ls.dim)
    for j in range(ls.dim):
        out.put(j, j, QScalar.q_power(dot(beta, rs.weight_of_basis(j))))
    return out


@lru_cache(maxsize=None)
def build_natural_rep(ls: LieSeries) -> NaturalRep:
    n, N = ls.rank, ls.dim

    def prime(i: int) -> int:
        return N - i + 1

    if ls.series == "A":
        e = [_unit(N, i, i + 1) for i in range(1, n + 1)]
    else:
        e = [_unit(N, i, i + 1) + _unit(N, prime(i + 1), prime(i), -1) for i in range(1, n)]
        if ls.series == "B":
            e.append(_unit(N, n, n + 1) + _unit(N, prime(n + 1), prime(n), -1))
        elif ls.series == "C":
            e.append(_unit(N, n, prime(n)))
        else:
            e.append(_unit(N, n - 1, n + 1) + _unit(N, prime(n + 1), prime(n - 1), -1))
    f = [m.transpose() for m in e]
    simple = build_root_system(ls).simple
    k = [cartan_power(ls, alpha) for alpha in simple]
    k_inv = [cartan_power(ls, tuple(-x for x in alpha)) for alpha in simple]
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
    for i in range(rep.rank):
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


def q_trace(A: QMatrix, rs: RootSystem) -> QScalar:
    """Weighted trace: sum of q^(2 rho, weight_j) A_jj over the natural basis."""
    total = QScalar(0)
    for j in range(rs.ls.dim):
        a = A.get(j, j)
        if a:
            total = total + QScalar.q_power(dot(rs.two_rho, rs.weight_of_basis(j))) * a
    return total
