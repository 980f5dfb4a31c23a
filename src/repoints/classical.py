"""Classical (q = 1) checks: Lie algebra data in the defining representation,
its trace-form dual basis, and the vanishing of the Poisson bivector at the
classical points.

An element of End(V) is a dict (i, j) -> nonzero entry, and a tensor in
End(V) (x) End(V) a dict (i, j, k, l) -> nonzero coefficient of
E_ij (x) E_kl. So a product, a bracket or an outer product costs the
products of the nonzero counts, and a transpose or a factor swap is a key
swap. The checks are decided on Gaussian integers: an entry is a pair
(re, im) of ints, so a product is four integer products and no gcd.

The scaling identity. Ad_(d a) = Ad_a for every scalar d != 0, so a point's
Gaussian-rational entries A0 (`gauss_entries`) are scaled once to a = d A0,
d the lcm of their denominators (`_integral`). Each root vector is kept
scaled to integers, e_beta, with n_beta = tr(e_beta e_beta^T) > 0 and
f_beta = e_beta^T / n_beta; e_beta (x) f_beta, and so rho and omega, is the
same at every scale of e_beta. When a^2 = c I, c != 0, a^-1 = a / c and
a x a^-1 = a x a / c, so for U = sum_beta u_beta (x) v_beta (`bivector_at`)

    c^2 L U = sum_beta (L / n_beta) (a e_beta a - c e_beta) (x) (a e_beta^T a - c e_beta^T),

with L = `ClassicalAlgebraData.scale`, a positive common multiple of the
n_beta. Every entry on the right is a Gaussian integer, and U = flip(U) iff
c^2 L U = flip(c^2 L U): flip is linear and c^2 L != 0, as c != 0 and
L > 0. So the verdict does not depend on the scale. Otherwise
`linalg.invert`'s inverse is scaled once to a^-1 = b / delta, with b
Gaussian-integral and delta > 0 an integer, and a x a^-1 = a x b / delta;
the same identity holds with delta for c, and L is also a multiple of the
denominators of omega's Cartan block (`cartan_block`). `classical.square`
and the normalizer test (`_scales_form`) read the same scaled entries.

The Chevalley basis B_k of g comes with its dual basis B_k^v under the trace
form, tr(B_m B_k^v) = delta_mk (`build_classical_algebra`); both are kept in
Gaussian-rational entries, and are read only to name a basis coordinate of
the bivector in a failure detail (`BivectorValue.coeffs`, which divides the
integer tensor by its scale once) and by the tests' reference for Ad. In B,
C and D the algebra also comes with the invariant form J of V, by which
`_conjugation` decides that a normalizes g. The split Casimir
omega = sum_k B_k (x) B_k^v (but its Cartan block) and
rho = sum_beta e_beta (x) f_beta - f_beta (x) e_beta are not stored:
`bivector_at` builds its tensor from the root vectors that a moves.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import linalg
from .natrep import CheckRecord, build_natural_rep
from .points import quantum_point
from .qmatrix import QMatrix
from .rootdata import LieSeries, NotInSpanError, build_root_system, sub
from .scalar import GR_ZERO, GaussRational, eval_at_one

_ZERO = (0, 0)
_ONE = (1, 0)


def gauss_entries(A: QMatrix) -> dict:
    """The nonzero entries of a q-free matrix, evaluated at q = 1."""
    return {(i, j): eval_at_one(v) for i, j, v in A.nonzero_items()}


def _integral(a: dict, d: int = 1) -> tuple:
    """(m, d'): d' > 0 the lcm of d and the denominators of the
    Gaussian-rational entries a, and m = d' a as Gaussian-integer entries."""
    d = lcm(d, *(x.d for x in a.values()))
    return {key: (x.a * (d // x.d), x.b * (d // x.d)) for key, x in a.items()}, d


def rational(m: dict, s) -> dict:
    """m / s as Gaussian-rational entries, for Gaussian-integer entries m and
    a nonzero Gaussian integer s: the one division of a scaled result."""
    inv = GaussRational(*s).inv()
    return {key: GaussRational(*x) * inv for key, x in m.items()}


def _times(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _nonzero(t: dict) -> dict:
    return {key: v for key, v in t.items() if v != _ZERO}


def _combine(*terms) -> dict:
    """sum of +-t over the (sign, t) in terms."""
    out = {}
    for sign, t in terms:
        for key, (p, q) in t.items():
            s, u = out.get(key, _ZERO)
            out[key] = (s + p, u + q) if sign > 0 else (s - p, u - q)
    return _nonzero(out)


def _transpose(a: dict) -> dict:
    return {(j, i): x for (i, j), x in a.items()}


def _product(a: dict, b: dict) -> dict:
    """The matrix product ab."""
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out = {}
    get = out.get
    for (i, k), (p, q) in a.items():
        for j, (x, y) in rows.get(k, ()):
            s, u = get((i, j), _ZERO)
            out[(i, j)] = (s + p * x - q * y, u + p * y + q * x)
    return _nonzero(out)


def _bracket(a: dict, b: dict) -> dict:
    return _combine((1, _product(a, b)), (-1, _product(b, a)))


def square(a: dict) -> tuple:
    """(s, k) with a^2 = s / k for Gaussian-rational entries a: s the square
    of the Gaussian-integer matrix d a (`_integral`) and k = d^2."""
    m, d = _integral(a)
    return _product(m, m), d * d


def _outer_sum(terms) -> dict:
    """sum of w x (x) y over the (w, x, y) in terms, w a Gaussian integer."""
    out = {}
    get = out.get
    for (wr, wi), xs, ys in terms:
        ys = [(r, s, g, h) for (r, s), (g, h) in ys.items()]
        for (i, j), (x, y) in xs.items():
            p, q = wr * x - wi * y, wr * y + wi * x
            for r, s, g, h in ys:
                key = (i, j, r, s)
                u, v = get(key, _ZERO)
                out[key] = (u + p * g - q * h, v + p * h + q * g)
    return _nonzero(out)


def _flip(t: dict) -> dict:
    """The factor swap x (x) y -> y (x) x."""
    return {(k, l, i, j): v for (i, j, k, l), v in t.items()}


def _conjugate(x: dict, conj, moved: bool = False) -> dict:
    """delta a x a^-1 = a x b, or delta (a x a^-1 - x) when moved, for a
    matrix x = {(i, j): v}, in one pass over the nonzeros of x: E_ij goes to
    a E_ij b = sum of a[p][i] b[j][r] E_pr.  conj is the first item
    `_conjugation` returns, (a by column, b by row, delta)."""
    cols, rows, (dr, di) = conj
    out = {key: (di * q - dr * p, -dr * q - di * p) for key, (p, q) in x.items()} if moved else {}
    get = out.get
    for (i, j), (p, q) in x.items():
        row = rows[j]
        for k, (ur, ui) in cols[i]:
            g, h = p * ur - q * ui, p * ui + q * ur
            for r, (y, z) in row:
                s, t = get((k, r), _ZERO)
                out[(k, r)] = (s + g * y - h * z, t + g * z + h * y)
    return {key: v for key, v in out.items() if v != _ZERO}


@dataclass
class ClassicalAlgebraData:
    ls: LieSeries
    basis: list  # cartan elements, then e vectors, then f vectors (Gaussian rationals)
    positive: tuple  # roots in construction order
    root_vectors: dict  # positive root -> (L / n_beta, e_beta, e_beta^T), e_beta integral
    scale: int  # L: a multiple of every n_beta and of cartan_block's denominators
    expander: linalg.BasisExpander
    form: dict | None  # J = sum_j kappa_j E_(j, N-1-j) in B, C and D, kappa_j = +-1; None in A
    cartan_block: dict  # L times omega's sum_k h_k (x) h_k^v, as {(i, j): L c_ij}

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sorted_positive(rs) -> list:
    """The positive roots by height, the sum of the simple-root coordinates
    that `RootSystem.height` reads from prefix sums; ties in root order."""
    return sorted(rs.positive, key=lambda root: (rs.height(root), root))


@lru_cache(maxsize=None)
def build_classical_algebra(ls: LieSeries) -> ClassicalAlgebraData:
    """The Chevalley basis B_k of g (h_i = [e_i, f_i], then e_beta, then
    f_beta with tr(e_beta f_beta) = 1) and its trace-form dual basis:
    e_beta^v = f_beta, f_beta^v = e_beta, and h_k^v the diagonal matrix with
    (h_k^v)_jj = c_k(w_j - w_mean). Here w_j is the weight of the j-th
    natural basis vector, w_mean the mean of the w_j (zero except in A), and
    c_k the k-th simple-root coordinate (`RootSystem.expand_in_simple`); so
    h_k^v is the fundamental coweight varpi_k^v on the natural module.

    f_beta = e_beta^T / tr(e_beta e_beta^T). The natural module has
    f_i = e_i^T (`build_natural_rep`), and [x^T, y^T] = -[x, y]^T, so the
    brackets that build e_beta from the e_i build (-1)^(ht beta - 1) e_beta^T
    from the f_i: e_beta^T lies in g, of weight -beta. The e_i are scaled to
    integers, so the brackets are integral, and the entries of e_beta are
    real, so n_beta = tr(e_beta e_beta^T), their sum of squares, is a
    positive integer.

    Why tr(B_m B_k^v) = delta_mk:

    - The Cartan elements are diagonal and every e_beta, f_beta is a weight
      vector of nonzero weight, so it is off-diagonal; a diagonal matrix
      times an off-diagonal one has trace 0. So the Cartan block and the
      root block do not pair.
    - For beta != gamma, e_beta f_gamma has weight beta - gamma != 0, so its
      diagonal is zero and tr(e_beta f_gamma) = 0; likewise e_beta e_gamma
      and f_beta f_gamma, of weight +-(beta + gamma) != 0.
    - tr(e_beta f_beta) = 1 by the choice of f_beta.
    - On the Cartan block: for a diagonal D, [f_m, D] = alpha_m(D) f_m, where
      alpha_m(D) = D_aa - D_bb at any nonzero entry (a, b) of e_m, since
      w_a - w_b = alpha_m. So tr(h_m D) = tr(e_m [f_m, D]) = alpha_m(D).
      For D = h_k^v, c_k is linear, so alpha_m(D) = c_k(alpha_m) = delta_km.

    h_k^v lies in g, as a dual basis of g must: in A its trace is
    c_k(sum_j (w_j - w_mean)) = c_k(0) = 0, and in B, C and D the weights
    satisfy w_j' = -w_j, so (h_k^v)_j'j' = -(h_k^v)_jj.

    In B, C and D, g = {X : X^T J + J X = 0} for the form
    J = sum_j kappa_j E_(j, N-1-j) (`RootSystem.kappa`), which `_conjugation`
    reads; a test checks every basis element against it for N <= 16.
    """
    rep = build_natural_rep(ls)
    rs = build_root_system(ls)

    simple_e = [_integral(gauss_entries(m))[0] for m in rep.e]
    e_vec = dict(zip(rs.simple, simple_e))

    positive = _sorted_positive(rs)
    for root in positive:
        if root in e_vec:
            continue
        # root - alpha_i is no positive root where root's coordinate i is 0
        for i, c in enumerate(rs._coordinates(root)):
            rest = sub(root, rs.simple[i]) if c else None
            if rest in e_vec:
                cand = _bracket(simple_e[i], e_vec[rest])
                if cand:
                    e_vec[root] = cand
                    break
        else:
            raise AssertionError(f"no bracket decomposition for root {root}")

    norm = {root: sum(p * p for p, _ in e_vec[root].values()) for root in positive}
    es = [rational(e_vec[r], _ONE) for r in positive]
    fs = [rational(_transpose(e_vec[r]), (norm[r], 0)) for r in positive]
    cartan = [rational(_bracket(e_vec[a], _transpose(e_vec[a])), (norm[a], 0))
              for a in rs.simple]
    mean = [Fraction(sum(col), ls.dim) for col in zip(*rs.weights)]
    coords = [rs.expand_in_simple(sub(w, mean)) for w in rs.weights]
    cartan_duals = [{(j, j): GaussRational(c[k]) for j, c in enumerate(coords) if c[k]}
                    for k in range(ls.rank)]
    block = {}
    for h, dual in zip(cartan, cartan_duals):
        for (i, _), x in h.items():
            for (j, _), y in dual.items():
                block[(i, j)] = block.get((i, j), GR_ZERO) + x * y
    block, scale = _integral({key: c for key, c in block.items() if c}, lcm(*norm.values()))
    basis = cartan + es + fs
    # the expander keeps the transposed dual basis B_k^v, tr(B_m B_k^v) = delta_mk:
    # the h_k^v, then f_beta for each e_beta and e_beta for each f_beta
    expander = linalg.BasisExpander(basis, [_transpose(d) for d in cartan_duals + fs + es])
    form = None if ls.series == "A" else {
        (j, ls.dim - 1 - j): (k, 0) for j, k in enumerate(rs.kappa)}
    roots = {r: ((scale // norm[r], 0), e_vec[r], _transpose(e_vec[r])) for r in positive}
    return ClassicalAlgebraData(ls, basis, tuple(positive), roots, scale, expander, form, block)


def adjoint_matrix(data: ClassicalAlgebraData, a: dict) -> list:
    """Ad_a (conjugation) on the basis, column k the coordinates of
    a B_k a^-1; raises if a is singular or does not normalize the algebra.
    No check builds it: it is the tests' reference for Ad."""
    conj, _ = _conjugation(data, a)
    cols = []
    for b in data.basis:
        x, d = _integral(b)
        cols.append(data.expander.expand(rational(_conjugate(x, conj), _times(conj[2], (d, 0)))))
    return [list(row) for row in zip(*cols)]


def _scales_form(form: dict, a: dict) -> bool:
    """a^T J a = s J for a scalar s, with J = form.  With s = (a^T J a)[p0]
    / J[p0] for the first nonzero p0 of J, it is decided multiplied by
    J[p0] != 0: J[p0] (a^T J a) = (a^T J a)[p0] J."""
    out = _product(_product(_transpose(a), form), a)
    key, k = next(iter(form.items()))
    s = out.get(key, _ZERO)
    if s == _ZERO:
        return False
    return ({p: _times(k, x) for p, x in out.items()}
            == {p: _times(s, x) for p, x in form.items()})


def _conjugation(data: ClassicalAlgebraData, a: dict) -> tuple:
    """(conj, c) for Gaussian-rational entries a, scaled to m = d a
    (`_integral`): conj = (cols, rows, delta) holds the nonzeros of m by
    column and of b by row, where m^-1 = b / delta with b Gaussian-integral
    and delta a nonzero Gaussian integer, which is what `_conjugate` reads;
    c is the Gaussian integer with m^2 = c I, or None if m^2 is not scalar.

    - m^-1: if m^2 = c I with c != 0, then m (m / c) = I, so b = m and
      delta = c, and no elimination is needed. Otherwise `linalg.invert`
      decides, so a singular a raises SingularMatrixError (a nilpotent a,
      with a^2 = 0, takes that path too); its inverse, scaled to b / e by
      `_integral`, gives m^-1 = b / (d e), so delta = d e > 0.
    - conj is returned only once Ad_a(g) = g is shown; raises NotInSpanError
      if a does not normalize the algebra. Ad_m = Ad_a, and a^T J a = s J
      iff m^T J m = d^2 s J, so it is decided on m. In A there is nothing to
      show: conjugation by an invertible a keeps the trace and the bracket,
      so it maps sl(N) onto itself. In B, C and D, a normalizes
      g = {X : X^T J + J X = 0} iff a^T J a = s J for a scalar s:
      - if a^T J a = s J (s != 0, as a is invertible), then conjugating
        X^T J + J X = 0 by a gives Y^T J + J Y = 0 for Y = a X a^-1;
      - if Ad_a(g) = g, then (x, y) -> J(a^-1 x, a^-1 y) is a g-invariant
        bilinear form on V, because a^-1 X a lies in g for X in g. V is an
        irreducible g-module (so(N) with N >= 3, where so(4) acts on
        C^2 (x) C^2, and sp(N)), and V is self-dual, so by Schur the
        invariant forms are the multiples of J, over C and so over Q(i),
        where they are cut out by linear equations. Hence
        (a^-1)^T J a^-1 = s' J, and a^T J a = J / s'.
    """
    n = data.ls.dim
    m, d = _integral(a)
    sq = _product(m, m)
    c = sq.get((0, 0))
    if c is not None and sq != {(i, i): c for i in range(n)}:
        c = None
    if c is not None:
        b, delta = m, c
    else:
        a_inv = linalg.invert([[a.get((i, j), GR_ZERO) for j in range(n)] for i in range(n)])
        b, e = _integral({(i, j): x for i, row in enumerate(a_inv) for j, x in enumerate(row)
                          if x})
        delta = (d * e, 0)
    if data.form is not None and not _scales_form(data.form, m):
        raise NotInSpanError("the matrix does not normalize the algebra")
    cols = [[] for _ in range(n)]
    for (p, i), x in m.items():
        cols[i].append((p, x))
    rows = [[] for _ in range(n)]
    for (j, r), x in b.items():
        rows[j].append((r, x))
    return (cols, rows, delta), c


def _root_moves(data: ClassicalAlgebraData, conj, every: bool) -> list:
    """(w, e, f, u, v) with w = L / n_beta, e = e_beta, f = e_beta^T and
    u = a e a^-1 - e, v = a f a^-1 - f, both times delta (`_conjugate`),
    each built in one pass over the nonzeros of the root vector: for every
    positive root, or, unless `every`, only for those that a moves
    (u != 0)."""
    moves = []
    for root in data.positive:
        w, e, f = data.root_vectors[root]
        u = _conjugate(e, conj, moved=True)
        if u or every:
            moves.append((w, e, f, u, _conjugate(f, conj, moved=True)))
    return moves


def _omega_part(data: ClassicalAlgebraData, conj, moves: list) -> dict:
    """delta^2 L (1 (x) Ad - Ad (x) 1) omega for the split Casimir
    omega = sum_k B_k (x) B_k^v, from the moves of every root
    (`_root_moves`).  The root part of omega is
    sum_beta e_beta (x) f_beta + f_beta (x) e_beta, and with
    Ad(e_beta) = e_beta + u_beta, Ad(f_beta) = f_beta + v_beta it goes to
    sum_beta e (x) v + f (x) u - u (x) f - v (x) e. In the integral root
    vectors, e_beta (x) f_beta = e (x) f / n_beta, u_beta = u / delta and
    f_beta (x) u_beta = f (x) u / (n_beta delta), so each term is delta w
    times the integral one. The Cartan block, taken as
    sum_ij c_ij E_ii (x) E_jj (`cartan_block` holds L c_ij), goes to
    sum_ij c_ij (E_ii (x) Ad(E_jj) - Ad(E_ii) (x) E_jj) with
    Ad(E_jj) = a E_jj b / delta, each a E_jj b built once."""
    delta = conj[2]
    moved = [_conjugate({(j, j): _ONE}, conj) for j in range(data.ls.dim)]
    right, left = [], []
    for w, e, f, u, v in moves:
        dw = _times(delta, w)
        right += [(dw, e, v), (dw, f, u)]
        left += [(dw, u, f), (dw, v, e)]
    for (i, j), c in data.cartan_block.items():
        dc = _times(delta, c)
        right.append((dc, {(i, i): _ONE}, moved[j]))
        left.append((dc, moved[i], {(j, j): _ONE}))
    return _combine((1, _outer_sum(right)), (-1, _outer_sum(left)))


def _coordinates(data: ClassicalAlgebraData, tensor: dict) -> list:
    """The coefficient matrix over the B_k (x) B_l of a tensor in g (x) g,
    read through the dual basis: total[k][l] = <B_k^v (x) B_l^v, T>
    = sum of T[i, j, r, s] B_k^v[j][i] B_l^v[s][r].  The expander's readers
    hold the B_k^v[j][i] by position (i, j)."""
    readers = data.expander.readers
    total = [[GR_ZERO] * data.dim for _ in range(data.dim)]
    for (i, j, r, s), v in tensor.items():
        for k, x in readers.get((i, j), ()):
            row, xv = total[k], x * v
            for l, y in readers.get((r, s), ()):
                row[l] = row[l] + xv * y
    return total


@dataclass
class BivectorValue:
    """The bivector at a point.  `scaled`, the bivector in End(V) (x) End(V)
    times the nonzero Gaussian integer `scale`, decides is_zero().  `tensor`
    divides it once; `coeffs` is its antisymmetric coefficient matrix over
    the algebra basis, read through the dual basis on first use (the failure
    detail and the tests ask for it)."""

    data: ClassicalAlgebraData
    scaled: dict
    scale: tuple

    @cached_property
    def tensor(self) -> dict:
        return rational(self.scaled, self.scale)

    @cached_property
    def coeffs(self) -> list:
        return _coordinates(self.data, self.tensor)

    def is_zero(self) -> bool:
        return not self.scaled

    def largest_entry(self):
        """(i, j, value) of the coefficient with maximal Gaussian norm, or None."""
        best = None
        for i, row in enumerate(self.coeffs):
            for j, v in enumerate(row):
                if v and (best is None or v.norm() > best[2].norm()):
                    best = (i, j, v)
        return best


def bivector_at(data: ClassicalAlgebraData, a: dict) -> BivectorValue:
    """The reflection-equation Poisson bivector at the group element a, under
    the right-translation trivialization, decided in End(V) (x) End(V) as

        T = (1 (x) Ad)[(Ad (x) 1)rho - rho + omega] - (Ad (x) 1)rho
            - (Ad (x) 1)omega + rho
          = ((Ad - 1) (x) (Ad - 1)) rho + (1 (x) Ad - Ad (x) 1) omega,

    expanding term by term with (1 (x) Ad)(Ad (x) 1) = Ad (x) Ad. Here
    omega = sum_k B_k (x) B_k^v is the split Casimir and
    rho = sum_beta e_beta (x) f_beta - f_beta (x) e_beta over the positive
    roots; neither is stored. It is built times delta^2 L, on the integral
    root vectors and the scaled point of `_conjugation` (module docstring).

    - The rho part is sum_beta u_beta (x) v_beta - v_beta (x) u_beta with
      u_beta = a e_beta a^-1 - e_beta and v_beta = a f_beta a^-1 - f_beta,
      and delta^2 L u_beta (x) v_beta = w u (x) v for the (w, u, v) of
      `_root_moves`. A root that a does not move, u = 0, adds zero, and its
      v is built only where the omega part reads it.
    - The omega part is zero when a^2 = c I: then a^-1 = a / c, so
      Ad^-1 = Ad. Ad_a(g) = g (`_conjugation`) and Ad preserves tr(XY), so
      the Ad_a(B_k) form a basis of g with dual basis Ad_a(B_k^v), and
      (Ad (x) Ad) omega = omega. Hence
      (Ad (x) 1) omega = (1 (x) Ad^-1) omega = (1 (x) Ad) omega. Otherwise it
      is built by `_omega_part` from the same u and v, every root's. The
      verified points are involutions and skip it. Then T = U - flip(U)
      with U = sum_beta u_beta (x) v_beta, so T = 0 iff
      delta^2 L U = flip(delta^2 L U), which is decided before T is built.

    Why T = 0 iff its coefficient matrix `total` over the basis is zero:

    - rho and omega lie in g (x) g, and Ad_a(g) = g, so every term of T does,
      and T = sum total[k][l] B_k (x) B_l for one matrix total. With
      Ad_a(B_k) = sum_i ad[i][k] B_i, total = (ad - 1) rho (ad - 1)^T
      + omega ad^T - ad omega, rho and omega here being their coefficient
      matrices.
    - The B_k are linearly independent in End(V), so the B_k (x) B_l are
      linearly independent in End(V) (x) End(V), and T = 0 iff total = 0.
    - The dual basis is biorthogonal, tr(B_m B_k^v) = delta_mk
      (`build_classical_algebra`), so pairing T with B_k^v (x) B_l^v picks
      out total[k][l]; `BivectorValue.coeffs` reads `total` that way.

    `total` is antisymmetric iff flip(T) = -T, which is asserted here.
    """
    conj, c = _conjugation(data, a)
    moves = _root_moves(data, conj, every=c is None)
    uv = _outer_sum((w, u, v) for w, _, _, u, v in moves)
    flipped = _flip(uv)
    if c is None:
        tensor = _combine((1, uv), (-1, flipped), (1, _omega_part(data, conj, moves)))
    else:
        tensor = {} if uv == flipped else _combine((1, uv), (-1, flipped))
    if _combine((1, tensor), (1, _flip(tensor))):
        raise AssertionError("bivector lost antisymmetry")
    delta = conj[2]
    return BivectorValue(data, tensor, _times(_times(delta, delta), (data.scale, 0)))


def check_involutive_vanishing(data: ClassicalAlgebraData, a: dict) -> CheckRecord:
    """For involutive adjoint action the omega contribution vanishes.

    `bivector_at` skips the omega part by this argument when a^2 is scalar;
    this check builds it with the same `_omega_part` and decides it.

    - Ad_a^2 = Ad_{a^2} is the identity on g iff a^2 commutes with g, iff a^2
      is scalar.  V (the defining module of sl(N), so(N) with N >= 3, or
      sp(N)) is an irreducible g-module, so by Schur its commutant over C is
      the scalars; the commutant is cut out by linear equations over Q(i), so
      the same holds over Q(i).  a is invertible (`_conjugation` raises
      otherwise), so a scalar a^2 = c I has c != 0; `_conjugation` returns c.
    - The omega part (1 (x) Ad - Ad (x) 1) omega has coefficient matrix
      omega ad^T - ad omega over the basis B_k (x) B_l, which are linearly
      independent, so it vanishes iff (1 (x) Ad) omega = (Ad (x) 1) omega,
      and `_omega_part` builds it times delta^2 L != 0.
    """
    conj, c = _conjugation(data, a)
    if c is None:
        return CheckRecord("omega.involutive", False, "Ad^2 is not the identity")
    ok = not _omega_part(data, conj, _root_moves(data, conj, every=True))
    return CheckRecord("omega.involutive", ok,
                       None if ok else "omega part nonzero despite Ad^2 = id")


def classical_point_entries(spec) -> dict:
    """The classical point A0 of a class spec at default parameters, read by
    `gauss_entries`."""
    return gauss_entries(quantum_point(spec).A0)
