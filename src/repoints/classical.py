"""Classical (q = 1) checks: Lie algebra data in the defining representation,
its trace-form dual basis, and the vanishing of the Poisson bivector at the
classical points.

Everything here is exact arithmetic over the Gaussian rationals, in one sparse
format. An element of End(V) is a dict (i, j) -> coefficient of the matrix
unit E_ij, and a tensor in End(V) (x) End(V) a dict (i, j, k, l) ->
coefficient of E_ij (x) E_kl; both hold nonzero entries only. So a product, a
bracket or the trace form costs the products of the nonzero counts, and a
transpose is a key swap. `gauss_entries` reads a q-free point matrix into this
format; the only dense N x N matrix is the input of `linalg.invert`.

The Chevalley basis B_k of g comes with its dual basis B_k^v under the trace
form, tr(B_m B_k^v) = delta_mk (`build_classical_algebra`), and every basis
coordinate is read by pairing with it. In B, C and D it also comes with the
invariant form J of V, by which `_conjugation` decides that a normalizes g.
The split Casimir omega = sum_k B_k (x) B_k^v (but its Cartan block) and
rho = sum_beta e_beta (x) f_beta - f_beta (x) e_beta are not stored:
`bivector_at` builds its tensor from the root vectors that a moves. The
verdicts are decided on that tensor. Basis coordinates of the bivector are
read only to name one in a failure detail.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import linalg
from .natrep import CheckRecord, build_natural_rep
from .points import quantum_point
from .qmatrix import QMatrix
from .rootdata import LieSeries, NotInSpanError, build_root_system, sub
from .scalar import GR_ONE, GR_ZERO, GaussRational, eval_at_one


def gauss_entries(A: QMatrix) -> dict:
    """The nonzero entries of a q-free matrix, evaluated at q = 1."""
    return {(i, j): eval_at_one(v) for i, j, v in A.nonzero_items()}


def _accumulate(out: dict, key: tuple, v: GaussRational) -> None:
    s = out.get(key)
    out[key] = v if s is None else s + v


def _nonzero(t: dict) -> dict:
    return {key: v for key, v in t.items() if v}


def _transpose(a: dict) -> dict:
    return {(j, i): x for (i, j), x in a.items()}


def _product(a: dict, b: dict) -> dict:
    """The matrix product ab."""
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            _accumulate(out, (i, j), x * y)
    return _nonzero(out)


def _bracket(a: dict, b: dict) -> dict:
    return _combine((1, _product(a, b)), (-1, _product(b, a)))


def trace_pair(a: dict, b: dict) -> GaussRational:
    """Tr(ab), the invariant form of the defining representation."""
    t = GR_ZERO
    for (i, k), x in a.items():
        y = b.get((k, i))
        if y is not None:
            t = t + x * y
    return t


def _outer_sum(pairs) -> dict:
    """sum of x (x) y over the (x, y) in pairs."""
    out = {}
    for xs, ys in pairs:
        for (i, j), u in xs.items():
            for (r, s), v in ys.items():
                _accumulate(out, (i, j, r, s), u * v)
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


def _conjugate(x: dict, conj, moved: bool = False) -> dict:
    """a x a^-1 for a matrix x = {(i, j): v}, or a x a^-1 - x when moved, in
    one pass over the nonzeros of x: E_ij goes to a E_ij a^-1 = sum of
    a[p][i] a^-1[j][r] E_pr.  conj is the first item `_conjugation` returns."""
    cols, rows = conj
    out = {key: -v for key, v in x.items()} if moved else {}
    for (i, j), c in x.items():
        for p, u in cols[i]:
            cu = c * u
            for r, w in rows[j]:
                s = out.get((p, r))
                out[(p, r)] = cu * w if s is None else s + cu * w
    return _nonzero(out)


@dataclass
class ClassicalAlgebraData:
    ls: LieSeries
    basis: list  # cartan elements, then e vectors, then f vectors
    e_vectors: dict  # positive root -> e_beta
    f_vectors: dict  # positive root -> f_beta, normalized so (e, f) = 1
    positive: tuple  # roots in construction order
    expander: linalg.BasisExpander
    form: dict | None  # J = sum_j kappa_j E_(j, N-1-j) in B, C and D; None in A
    cartan_block: dict  # omega's sum_k h_k (x) h_k^v, as sum_ij c_ij E_ii (x) E_jj

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
    from the f_i: e_beta^T lies in g, of weight -beta. The entries of e_beta
    are rational, so tr(e_beta e_beta^T), their sum of squares, is positive.

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

    simple_e = [gauss_entries(m) for m in rep.e]
    e_vec = dict(zip(rs.simple, simple_e))

    positive = _sorted_positive(rs)
    for root in positive:
        if root in e_vec:
            continue
        for i, alpha in enumerate(rs.simple):
            rest = sub(root, alpha)
            if rest in e_vec:
                cand = _bracket(simple_e[i], e_vec[rest])
                if cand:
                    e_vec[root] = cand
                    break
        else:
            raise AssertionError(f"no bracket decomposition for root {root}")

    f_vec = {}
    for root in positive:
        e_t = _transpose(e_vec[root])
        inv = trace_pair(e_vec[root], e_t).inv()
        f_vec[root] = {key: x * inv for key, x in e_t.items()}

    cartan = [_bracket(e_vec[a], f_vec[a]) for a in rs.simple]
    mean = [Fraction(sum(col), ls.dim) for col in zip(*rs.weights)]
    coords = [rs.expand_in_simple(sub(w, mean)) for w in rs.weights]
    cartan_duals = [{(j, j): GaussRational(c[k]) for j, c in enumerate(coords) if c[k]}
                    for k in range(ls.rank)]
    es = [e_vec[r] for r in positive]
    fs = [f_vec[r] for r in positive]
    basis = cartan + es + fs
    # the expander keeps the transposed dual basis B_k^v, tr(B_m B_k^v) = delta_mk:
    # the h_k^v, then f_beta for each e_beta and e_beta for each f_beta
    expander = linalg.BasisExpander(basis, [_transpose(d) for d in cartan_duals + fs + es])
    form = None if ls.series == "A" else {
        (j, ls.dim - 1 - j): GaussRational(k) for j, k in enumerate(rs.kappa)}
    return ClassicalAlgebraData(ls, basis, e_vec, f_vec, tuple(positive), expander, form,
                                _outer_sum(zip(cartan, cartan_duals)))


def adjoint_matrix(data: ClassicalAlgebraData, a: dict) -> list:
    """Ad_a (conjugation) on the basis, column k the coordinates of
    a B_k a^-1; raises if a is singular or does not normalize the algebra.
    No check builds it: it is the tests' reference for Ad."""
    conj, _ = _conjugation(data, a)
    cols = [data.expander.expand(_conjugate(b, conj)) for b in data.basis]
    return [list(row) for row in zip(*cols)]


def _scales_form(form: dict, a: dict) -> bool:
    """a^T J a = s J for a scalar s, with J = form: sum over the nonzeros
    J[j][j'] of a[j][i] J[j][j'] a[j'][l] at (i, l)."""
    rows = {}
    for (j, i), x in a.items():
        rows.setdefault(j, []).append((i, x))
    out = {}
    for (j, jp), k in form.items():
        for i, x in rows.get(j, ()):
            kx = k * x
            for l, y in rows.get(jp, ()):
                _accumulate(out, (i, l), kx * y)
    key, k = next(iter(form.items()))
    s = out.get(key)
    if s is None:
        return False
    s = s * k.inv()
    return _nonzero(out) == {p: s * x for p, x in form.items()}


def _conjugation(data: ClassicalAlgebraData, a: dict, square=None) -> tuple:
    """(conj, c): conj holds the nonzeros of a by column and of a^-1 by row,
    which is what `_conjugate` reads, and c is the scalar with a^2 = c I, or
    None if a^2 is not scalar.  A caller that has decided a^2 = c I already
    passes c as `square`, and a is not squared again.

    - a^-1: if a^2 = c I with c != 0, then a (a / c) = I, so a^-1 = a / c and
      no elimination is needed. Otherwise `linalg.invert` decides, so a
      singular a raises SingularMatrixError (a nilpotent a, with a^2 = 0,
      takes that path too).
    - conj is returned only once Ad_a(g) = g is shown; raises NotInSpanError
      if a does not normalize the algebra. In A there is nothing to show:
      conjugation by an invertible a keeps the trace and the bracket, so it
      maps sl(N) onto itself. In B, C and D, a normalizes
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
    c = square
    if c is None:
        sq = _product(a, a)
        c = sq.get((0, 0))
        if c is not None and sq != {(i, i): c for i in range(n)}:
            c = None
    if c is not None:
        c_inv = c.inv()
        rows = [[] for _ in range(n)]
        for (j, r), x in a.items():
            rows[j].append((r, x * c_inv))
    else:
        a_inv = linalg.invert([[a.get((i, j), GR_ZERO) for j in range(n)] for i in range(n)])
        rows = [[(r, x) for r, x in enumerate(row) if x] for row in a_inv]
    if data.form is not None and not _scales_form(data.form, a):
        raise NotInSpanError("the matrix does not normalize the algebra")
    cols = [[] for _ in range(n)]
    for (p, i), x in a.items():
        cols[i].append((p, x))
    return (cols, rows), c


def _root_moves(data: ClassicalAlgebraData, conj, every: bool) -> list:
    """(e_beta, f_beta, u_beta, v_beta) with u_beta = a e_beta a^-1 - e_beta
    and v_beta = a f_beta a^-1 - f_beta, each built in one pass over the
    nonzeros of the root vector: for every positive root, or, unless
    `every`, only for those that a moves (u_beta != 0)."""
    moves = []
    for root in data.positive:
        e, f = data.e_vectors[root], data.f_vectors[root]
        u = _conjugate(e, conj, moved=True)
        if u or every:
            moves.append((e, f, u, _conjugate(f, conj, moved=True)))
    return moves


def _omega_part(data: ClassicalAlgebraData, conj, moves: list) -> dict:
    """(1 (x) Ad - Ad (x) 1) omega for the split Casimir
    omega = sum_k B_k (x) B_k^v, from the moves of every root
    (`_root_moves`).  The root part of omega is sum_beta e (x) f + f (x) e,
    and with Ad(e) = e + u and Ad(f) = f + v it goes to
    sum_beta e (x) v + f (x) u - u (x) f - v (x) e.  The Cartan block,
    taken as sum_ij c_ij E_ii (x) E_jj (`cartan_block`), goes to
    sum_ij c_ij (E_ii (x) Ad(E_jj) - Ad(E_ii) (x) E_jj), each Ad(E_jj) built
    once."""
    moved = [_conjugate({(j, j): GR_ONE}, conj) for j in range(data.ls.dim)]
    right = _outer_sum([p for e, f, u, v in moves for p in ((e, v), (f, u))] + [
        ({(i, i): c}, moved[j]) for (i, _, j, _), c in data.cartan_block.items()])
    left = _outer_sum([p for e, f, u, v in moves for p in ((u, f), (v, e))] + [
        (moved[i], {(j, j): c}) for (i, _, j, _), c in data.cartan_block.items()])
    return _combine((1, right), (-1, left))


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
    """The bivector at a point.  `tensor`, the bivector in End(V) (x) End(V),
    decides is_zero().  `coeffs` is its antisymmetric coefficient matrix over
    the algebra basis, read through the dual basis on first use (the failure
    detail and the tests ask for it)."""

    data: ClassicalAlgebraData
    tensor: dict

    @cached_property
    def coeffs(self) -> list:
        return _coordinates(self.data, self.tensor)

    def is_zero(self) -> bool:
        return not self.tensor

    def largest_entry(self):
        """(i, j, value) of the coefficient with maximal Gaussian norm, or None."""
        best = None
        for i, row in enumerate(self.coeffs):
            for j, v in enumerate(row):
                if v and (best is None or v.norm() > best[2].norm()):
                    best = (i, j, v)
        return best


def bivector_at(data: ClassicalAlgebraData, a: dict, square=None) -> BivectorValue:
    """The reflection-equation Poisson bivector at the group element a, under
    the right-translation trivialization, decided in End(V) (x) End(V) as

        T = (1 (x) Ad)[(Ad (x) 1)rho - rho + omega] - (Ad (x) 1)rho
            - (Ad (x) 1)omega + rho
          = ((Ad - 1) (x) (Ad - 1)) rho + (1 (x) Ad - Ad (x) 1) omega,

    expanding term by term with (1 (x) Ad)(Ad (x) 1) = Ad (x) Ad. Here
    omega = sum_k B_k (x) B_k^v is the split Casimir and
    rho = sum_beta e_beta (x) f_beta - f_beta (x) e_beta over the positive
    roots; neither is stored.

    - The rho part is sum_beta u_beta (x) v_beta - v_beta (x) u_beta with
      u_beta = a e_beta a^-1 - e_beta and v_beta = a f_beta a^-1 - f_beta
      (`_root_moves`). A root that a does not move, u_beta = 0, adds zero,
      and its v_beta is built only where the omega part reads it.
    - The omega part is zero when a^2 = c I: then a^-1 = a / c, so
      Ad^-1 = Ad. Ad_a(g) = g (`_conjugation`) and Ad preserves tr(XY), so
      the Ad_a(B_k) form a basis of g with dual basis Ad_a(B_k^v), and
      (Ad (x) Ad) omega = omega. Hence
      (Ad (x) 1) omega = (1 (x) Ad^-1) omega = (1 (x) Ad) omega. Otherwise it
      is built by `_omega_part` from the same u_beta and v_beta, every
      root's. The verified points are involutions and skip it. Then
      T = U - flip(U) with U = sum_beta u_beta (x) v_beta, so T = 0 iff
      U = flip(U), which is decided before T is built.

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
    `square` is c with a^2 = c I when the caller has decided it
    (`_conjugation`).
    """
    conj, c = _conjugation(data, a, square)
    moves = _root_moves(data, conj, every=c is None)
    uv = _outer_sum((u, v) for _, _, u, v in moves)
    flipped = _flip(uv)
    if c is None:
        tensor = _combine((1, uv), (-1, flipped), (1, _omega_part(data, conj, moves)))
    else:
        tensor = {} if uv == flipped else _combine((1, uv), (-1, flipped))
    if _flip(tensor) != {key: -v for key, v in tensor.items()}:
        raise AssertionError("bivector lost antisymmetry")
    return BivectorValue(data, tensor)


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
      independent, so it vanishes iff (1 (x) Ad) omega = (Ad (x) 1) omega.
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
