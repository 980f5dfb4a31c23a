"""Classical (q = 1) checks: Lie algebra data in the defining representation,
the invariant symmetric two-tensor omega, the skew two-tensor rho built from
paired root vectors, and the vanishing of the induced bivector at the
classical points.

Everything here is exact arithmetic over the Gaussian rationals. Elements of
End(V) are dense lists of lists of GaussRational. The verdicts are decided on
sparse tensors in End(V) (x) End(V): dicts (i, j, k, l) -> coefficient of
E_ij (x) E_kl holding nonzero entries only. The dim g x dim g matrices over
the algebra basis (`omega`, `rho`, `adjoint_matrix`, `BivectorValue.coeffs`)
serve only to name a basis coordinate in a failure detail, and as a test
oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .natrep import CheckRecord, build_natural_rep
from .points import gauss_grid
from .rootdata import LieSeries, build_root_system
from .scalar import GR_ONE, GR_ZERO, GaussRational


def g_identity(n: int) -> list:
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def g_add(a: list, b: list) -> list:
    return [[(x + y if x else y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def g_sub(a: list, b: list) -> list:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def g_transpose(a: list) -> list:
    return [list(col) for col in zip(*a)]


def g_is_zero(a: list) -> bool:
    return all(not x for row in a for x in row)


def g_bracket(a: list, b: list) -> list:
    return g_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def trace_pair(a: list, b: list) -> GaussRational:
    """Tr(ab), the invariant form of the defining representation."""
    t = GR_ZERO
    n = len(a)
    for i in range(n):
        for k in range(n):
            if a[i][k] and b[k][i]:
                t = t + a[i][k] * b[k][i]
    return t


def _flatten(a: list) -> list:
    return [x for row in a for x in row]


def _entries(a: list) -> list:
    return [(i, j, x) for i, row in enumerate(a) for j, x in enumerate(row) if x]


def _accumulate(out: dict, key: tuple, v: GaussRational) -> None:
    s = out.get(key)
    out[key] = v if s is None else s + v


def _nonzero(t: dict) -> dict:
    return {key: v for key, v in t.items() if v}


def _tensor(coeffs: list, support: list, entries: list) -> dict:
    """sum of coeffs[k][l] B_k (x) B_l over the (k, l) in support, given the
    nonzero entries of each basis matrix B_k."""
    out = {}
    for k, l in support:
        c = coeffs[k][l]
        if c:
            for i, j, u in entries[k]:
                cu = c * u
                for r, s, v in entries[l]:
                    _accumulate(out, (i, j, r, s), cu * v)
    return _nonzero(out)


def _flip(t: dict) -> dict:
    """The factor swap x (x) y -> y (x) x."""
    return {(k, l, i, j): v for (i, j, k, l), v in t.items()}


def _combine(*terms) -> dict:
    """sum of +-t over the (sign, t) in terms."""
    out = {}
    for sign, t in terms:
        for key, v in t.items():
            _accumulate(out, key, v if sign > 0 else -v)
    return _nonzero(out)


def _conjugate_first(t: dict, conj) -> dict:
    """Conjugation by a of the first index pair of t: E_ij goes to
    a E_ij a^-1 = sum of a[p][i] a^-1[j][r] E_pr.  On a tensor
    {(i, j, k, l): x} this is (Ad_a (x) 1) t; on a matrix {(i, j): x} it is
    a t a^-1.  conj is what `_conjugation` returns."""
    cols, rows = conj
    out = {}
    for key, c in t.items():
        rest = key[2:]
        for p, u in cols[key[0]]:
            cu = c * u
            for r, w in rows[key[1]]:
                k = (p, r) + rest
                s = out.get(k)
                out[k] = cu * w if s is None else s + cu * w
    return _nonzero(out)


def _conjugate_second(t: dict, conj) -> dict:
    """(1 (x) Ad_a) t."""
    return _flip(_conjugate_first(_flip(t), conj))


@dataclass
class ClassicalAlgebraData:
    ls: LieSeries
    basis: list  # cartan elements, then e vectors, then f vectors
    cartan: list  # the cartan sub-list
    e_vectors: dict  # positive root -> grid
    f_vectors: dict  # positive root -> grid, normalized so (e, f) = 1
    positive: tuple  # roots in construction order
    omega: list  # symmetric coefficient matrix over the basis
    rho: list  # antisymmetric coefficient matrix over the basis
    expander: linalg.BasisExpander
    omega_tensor: dict  # omega in End(V) (x) End(V)
    rho_tensor: dict  # rho in End(V) (x) End(V)
    generators: list  # the simple e and f vectors as {(i, j): x}; they generate the algebra

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sorted_positive(rs) -> list:
    keyed = []
    for root in rs.positive:
        coords = rs.expand_in_simple(root)
        height = sum(coords)
        keyed.append((height, root))
    keyed.sort()
    return [root for _, root in keyed]


@lru_cache(maxsize=None)
def build_classical_algebra(ls: LieSeries) -> ClassicalAlgebraData:
    rep = build_natural_rep(ls)
    rs = build_root_system(ls)
    n = ls.rank

    simple_e = [gauss_grid(m) for m in rep.e]
    simple_f = [g_transpose(m) for m in simple_e]

    e_vec = {}
    f_vec = {}
    for i, alpha in enumerate(rs.simple):
        e_vec[alpha] = simple_e[i]
        f_vec[alpha] = simple_f[i]

    positive = _sorted_positive(rs)
    for root in positive:
        if root in e_vec:
            continue
        built = False
        for i, alpha in enumerate(rs.simple):
            rest = tuple(a - b for a, b in zip(root, alpha))
            if rest in e_vec:
                cand = g_bracket(simple_e[i], e_vec[rest])
                if not g_is_zero(cand):
                    e_vec[root] = cand
                    f_vec[root] = g_bracket(simple_f[i], f_vec[rest])
                    built = True
                    break
        if not built:
            raise AssertionError(f"no bracket decomposition for root {root}")

    # normalize the lowering vectors to (e, f) = 1 under the trace form
    for root in positive:
        t = trace_pair(e_vec[root], f_vec[root])
        if not t:
            raise AssertionError(f"degenerate pairing at root {root}")
        inv = t.inv()
        f_vec[root] = [[x * inv for x in row] for row in f_vec[root]]

    cartan = [g_bracket(e_vec[a], f_vec[a]) for a in rs.simple]
    basis = cartan + [e_vec[r] for r in positive] + [f_vec[r] for r in positive]
    expander = linalg.BasisExpander([_flatten(b) for b in basis])

    dim = len(basis)
    npos = len(positive)
    gram = [[trace_pair(x, y) for y in cartan] for x in cartan]
    gram_inv = linalg.invert(gram)

    omega = [[GR_ZERO] * dim for _ in range(dim)]
    for k in range(n):
        for l in range(n):
            omega[k][l] = gram_inv[k][l]
    rho = [[GR_ZERO] * dim for _ in range(dim)]
    pairs = [(n + idx, n + npos + idx) for idx in range(npos)]
    for ei, fi in pairs:
        omega[ei][fi] = GR_ONE
        omega[fi][ei] = GR_ONE
        rho[ei][fi] = GR_ONE
        rho[fi][ei] = -GR_ONE

    # omega and rho vanish off the Cartan block and the (e, f) pairs
    support = [(k, l) for k in range(n) for l in range(n)] + pairs + [(f, e) for e, f in pairs]
    entries = [_entries(b) for b in basis]

    return ClassicalAlgebraData(ls, basis, cartan, e_vec, f_vec, tuple(positive),
                                omega, rho, expander,
                                _tensor(omega, support, entries), _tensor(rho, support, entries),
                                [{(i, j): x for i, j, x in _entries(m)}
                                 for m in simple_e + simple_f])


def adjoint_matrix(data: ClassicalAlgebraData, a: list) -> list:
    """Ad_a (conjugation) on the basis; raises if a is singular or does not
    normalize the algebra."""
    a_inv = linalg.invert(a)
    cols = [
        data.expander.expand(_flatten(linalg.mat_mul(linalg.mat_mul(a, b), a_inv)))
        for b in data.basis
    ]
    return g_transpose(cols)


def _conjugation(data: ClassicalAlgebraData, a: list):
    """The nonzeros of a by column and of a^-1 by row, which is what
    `_conjugate_first` reads, once a x a^-1 is shown to lie in the algebra for
    every simple generator x.  That suffices for Ad_a(g) = g: Ad_a is an
    automorphism of the Lie algebra gl(N), and the basis of g is built from
    brackets of the simple generators.  Raises SingularMatrixError if a is
    singular and NotInSpanError if a does not normalize the algebra."""
    a_inv = linalg.invert(a)
    n = len(a)
    conj = ([[(p, a[p][i]) for p in range(n) if a[p][i]] for i in range(n)],
            [[(r, x) for r, x in enumerate(row) if x] for row in a_inv])
    for x in data.generators:
        image = [GR_ZERO] * (n * n)
        for (p, r), v in _conjugate_first(x, conj).items():
            image[p * n + r] = v
        data.expander.expand(image)
    return conj


class BivectorValue:
    """The bivector at a point.  `tensor`, when given, is the bivector in
    End(V) (x) End(V) and decides is_zero().  `coeffs` is its antisymmetric
    coefficient matrix over the algebra basis; when not given, it is computed
    on first use by `basis` (the failure detail and the tests ask for it)."""

    def __init__(self, coeffs: list | None = None, tensor: dict | None = None,
                 basis=None):
        self._coeffs = coeffs
        self.tensor = tensor
        self._basis = basis

    @property
    def coeffs(self) -> list:
        if self._coeffs is None:
            self._coeffs = self._basis()
        return self._coeffs

    def is_zero(self) -> bool:
        return g_is_zero(self.coeffs) if self.tensor is None else not self.tensor

    def largest_entry(self):
        """(i, j, value) of the coefficient with maximal Gaussian norm, or None."""
        best = None
        for i, row in enumerate(self.coeffs):
            for j, v in enumerate(row):
                if v and (best is None or v.norm() > best[2].norm()):
                    best = (i, j, v)
        return best


def omega_part(data: ClassicalAlgebraData, ad: list) -> list:
    """(1 x Ad - Ad x 1) applied to omega, in basis coefficients."""
    return g_sub(linalg.mat_mul(data.omega, g_transpose(ad)),
                 linalg.mat_mul(ad, data.omega))


def basis_bivector(data: ClassicalAlgebraData, a: list) -> list:
    """The bivector's coefficient matrix over the algebra basis,
    (Ad - 1) rho (Ad - 1)^T + omega Ad^T - Ad omega."""
    ad = adjoint_matrix(data, a)
    shifted = g_sub(ad, g_identity(data.dim))
    part_rho = linalg.mat_mul(linalg.mat_mul(shifted, data.rho), g_transpose(shifted))
    return g_add(part_rho, omega_part(data, ad))


def bivector_at(data: ClassicalAlgebraData, a: list) -> BivectorValue:
    """The reflection-equation Poisson bivector at the group element a, under
    the right-translation trivialization, decided in End(V) (x) End(V) as

        T = (1 (x) Ad)[(Ad (x) 1)rho - rho + omega] - (Ad (x) 1)rho
            - (Ad (x) 1)omega + rho.

    Why T = 0 iff the basis coefficient matrix `total` = 0
    (`basis_bivector`):

    - `total` is defined only when Ad_a(g) = g, which `_conjugation`
      proves from the simple generators (or raises, as the basis path does).
    - Then Ad_a(B_k) = sum_i ad[i][k] B_i, so for C = sum C[k][l] B_k (x) B_l
      the first-factor image (Ad (x) 1)C has coefficient matrix ad C and the
      second-factor image (1 (x) Ad)C has C ad^T.  Expanding T term by term
      gives ad rho ad^T - rho ad^T + omega ad^T - ad rho - ad omega + rho
      = (ad - 1) rho (ad - 1)^T + omega ad^T - ad omega = total, so
      T = sum total[k][l] B_k (x) B_l.
    - The B_k are linearly independent in End(V), so the B_k (x) B_l are
      linearly independent in End(V) (x) End(V), and T = 0 iff total = 0.

    `total` is antisymmetric iff flip(T) = -T, which is asserted here.
    """
    conj = _conjugation(data, a)
    rho, omega = data.rho_tensor, data.omega_tensor
    rho_left = _conjugate_first(rho, conj)
    omega_left = _conjugate_first(omega, conj)
    inner = _combine((1, rho_left), (-1, rho), (1, omega))
    tensor = _combine((1, _conjugate_second(inner, conj)), (-1, rho_left),
                      (-1, omega_left), (1, rho))
    if _flip(tensor) != {key: -v for key, v in tensor.items()}:
        raise AssertionError("bivector lost antisymmetry")
    return BivectorValue(tensor=tensor, basis=lambda: basis_bivector(data, a))


def check_involutive_vanishing(data: ClassicalAlgebraData, a: list) -> CheckRecord:
    """For involutive adjoint action the omega contribution vanishes.

    Both conditions are decided without the basis:

    - Ad_a^2 = Ad_{a^2} is the identity on g iff a^2 commutes with g, iff a^2
      is scalar.  V (the defining module of sl(N), so(N) with N >= 3, or
      sp(N)) is an irreducible g-module, so by Schur its commutant over C is
      the scalars; the commutant is cut out by linear equations over Q(i), so
      the same holds over Q(i).
    - The omega part (1 (x) Ad - Ad (x) 1) omega has coefficient matrix
      omega ad^T - ad omega over the basis B_k (x) B_l, which are linearly
      independent, so it vanishes iff (1 (x) Ad) omega = (Ad (x) 1) omega,
      that is (1 (x) a) omega (1 (x) a^-1) = (a (x) 1) omega (a^-1 (x) 1).
    """
    conj = _conjugation(data, a)
    sq = linalg.mat_mul(a, a)
    c = sq[0][0]
    if not all(x == (c if i == j else GR_ZERO)
               for i, row in enumerate(sq) for j, x in enumerate(row)):
        return CheckRecord("omega.involutive", False, "Ad^2 is not the identity")
    omega = data.omega_tensor
    ok = _conjugate_first(omega, conj) == _conjugate_second(omega, conj)
    return CheckRecord("omega.involutive", ok,
                       None if ok else "omega part nonzero despite Ad^2 = id")


def classical_point_grid(spec) -> list:
    """The classical point A0 of a class spec as a dense Gaussian-rational grid."""
    from .points import default_params, quantum_point

    return gauss_grid(quantum_point(spec, default_params(spec)).A0)
