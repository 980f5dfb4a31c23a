"""Outside-in spans around the public functions of each repoints layer.

Each function is wrapped at the name its caller looks up (a module global
bound by `from x import f`, a module attribute reached as `module.f`, or a
class attribute), so the program runs unmodified. Spans are kept in memory
with their parent ids and written out at the end of the run; self times are
computed from that list afterwards.

Normalizing `QScalar(num, den)` constructions are far too many for one span
each. They are counted in aggregate instead, and their time is charged to the
enclosing span as child time, so every other layer's self time excludes it.
"""
from __future__ import annotations

import functools
import json
from time import perf_counter

# span record fields
ID, PARENT, NAME, REQ, START, END, LEAF = range(7)

# per-layer metric -> span names whose self times it sums
SELF_METRICS = {
    "qmatrix.mul_s": ("qmatrix.mul",),
    "qmatrix.rank_s": ("qmatrix.rank",),
    "verifier.reflection_s": ("verifier.reflection",),
    "verifier.oc_s": ("verifier.oc",),
    "verifier.projector_s": ("verifier.projector",),
    "verifier.invariants_s": ("verifier.min_poly", "verifier.q_trace"),
    "verifier.classical_s": ("verifier.classical",),
    "verifier.full_report_s": ("verifier.full_report",),
    "coideal.build_stabilizer_s": ("coideal.build_stabilizer",),
    "coideal.check_stabilizer_s": ("coideal.check_stabilizer",),
    "classical.algebra_build_s": ("classical.algebra_build",),
    "classical.bivector_s": ("classical.bivector",),
    "linalg.mat_mul_s": ("linalg.mat_mul",),
    "linalg.invert_s": ("linalg.invert",),
    "linalg.expand_s": ("linalg.expand",),
    "points.quantum_point_s": ("points.quantum_point",),
    "rmatrix.build_s": ("rmatrix.build",),
    "natrep.build_s": ("natrep.build",),
    "cli.case_s": ("cli.case",),
    "cli.self_s": ("cli.main",),
}

# inclusive times (span plus everything under it), for the stage shares
INCL_METRICS = {
    "verifier.oc_incl_s": "verifier.oc",
    "verifier.projector_incl_s": "verifier.projector",
    "classical.bivector_incl_s": "classical.bivector",
    "rmatrix.build_incl_s": "rmatrix.build",
}

CALL_METRICS = {
    "qmatrix.mul_calls": "qmatrix.mul",
    "qmatrix.rank_calls": "qmatrix.rank",
    "classical.adjoint_calls": "classical.adjoint",
    "linalg.mat_mul_calls": "linalg.mat_mul",
    "linalg.invert_calls": "linalg.invert",
    "linalg.expand_calls": "linalg.expand",
    "points.quantum_point_calls": "points.quantum_point",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        # index of the input being verified; -1 during set-up, -2 for controls
        self.req = -1
        self.norm_calls = 0
        self.norm_s = 0.0
        self.norm_deg_max = 0
        self.mul_nnz_out = 0

    def wrap(self, fn, name, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1][ID] if stack else None, name, self.req,
                   0.0, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def install(self):
        """Wrap every traced boundary. Call before the program's builders run."""
        from repoints import classical, cli, coideal, linalg, natrep, qmatrix, rmatrix, scalar, verifier

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "_case_report", "cli.case")
        self.patch(cli, "quantum_point", "points.quantum_point")
        for attr, name in (("full_report", "verifier.full_report"),
                           ("check_reflection", "verifier.reflection"),
                           ("check_oc", "verifier.oc"),
                           ("check_varpi_structure", "verifier.projector"),
                           ("check_min_poly", "verifier.min_poly"),
                           ("check_q_trace", "verifier.q_trace"),
                           ("check_classical_involution", "verifier.classical"),
                           ("quantum_point", "points.quantum_point"),
                           ("build_rmatrix_data", "rmatrix.build"),
                           ("build_natural_rep", "natrep.build")):
            self.patch(verifier, attr, name)
        self.patch(coideal, "build_stabilizer", "coideal.build_stabilizer")
        self.patch(coideal, "check_stabilizer", "coideal.check_stabilizer")
        self.patch(classical, "build_classical_algebra", "classical.algebra_build")
        self.patch(classical, "bivector_at", "classical.bivector")
        self.patch(classical, "adjoint_matrix", "classical.adjoint")
        self.patch(classical, "build_natural_rep", "natrep.build")
        self.patch(linalg, "mat_mul", "linalg.mat_mul")
        self.patch(linalg, "invert", "linalg.invert")
        self.patch(linalg.BasisExpander, "expand", "linalg.expand")
        self.patch(rmatrix, "build_rmatrix_data", "rmatrix.build")
        self.patch(natrep, "build_natural_rep", "natrep.build")
        self.patch(qmatrix.QMatrix, "__mul__", "qmatrix.mul", self._count_nnz)
        self.patch(qmatrix.QMatrix, "rank", "qmatrix.rank")
        self._wrap_normalization(scalar)

    def _count_nnz(self, out):
        self.mul_nnz_out += sum(len(r) for r in out.rows)

    def _wrap_normalization(self, scalar):
        QScalar, LaurentPoly = scalar.QScalar, scalar.LaurentPoly
        init = QScalar.__init__
        stack = self.stack

        def span(p):
            return p.max_exp() - p.min_exp() if isinstance(p, LaurentPoly) and p else 0

        @functools.wraps(init)
        def traced_init(obj, num, den=None):
            # QScalar normalizes only a nonzero numerator over a denominator
            # other than 1; every other construction takes a fast path.
            if den is None or not num or (den.is_one if isinstance(den, LaurentPoly) else den == 1):
                return init(obj, num, den)
            t = perf_counter()
            init(obj, num, den)
            dt = perf_counter() - t
            self.norm_calls += 1
            self.norm_s += dt
            deg = max(span(num), span(den))
            if deg > self.norm_deg_max:
                self.norm_deg_max = deg
            if stack:
                stack[-1][LEAF] += dt

        QScalar.__init__ = traced_init

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Per span: duration minus child spans minus aggregated normalization time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[rec[ID]] - rec[LEAF] for rec in spans]


def by_name(spans, selfs):
    """name -> [calls, self seconds, inclusive seconds]; inclusive time counts
    only spans with no ancestor of the same name."""
    out = {}
    for rec, s in zip(spans, selfs):
        row = out.setdefault(rec[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s
        p = rec[PARENT]
        while p is not None and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        if p is None:
            row[2] += rec[END] - rec[START]
    return out


def layer_metrics(tracer: Tracer, selfs) -> dict:
    """Every per-layer metric over the whole traced run (set-up included)."""
    names = by_name(tracer.spans, selfs)
    m = {}
    for metric, spans in SELF_METRICS.items():
        m[metric] = sum(names.get(n, (0, 0.0, 0.0))[1] for n in spans)
    for metric, n in INCL_METRICS.items():
        m[metric] = names.get(n, (0, 0.0, 0.0))[2]
    for metric, n in CALL_METRICS.items():
        m[metric] = names.get(n, (0, 0.0, 0.0))[0]
    m["scalar.norm_calls"] = tracer.norm_calls
    m["scalar.norm_s"] = tracer.norm_s
    m["scalar.norm_deg_max"] = tracer.norm_deg_max
    m["qmatrix.mul_nnz_out"] = tracer.mul_nnz_out
    return m


def request_self_times(spans, selfs) -> dict:
    """req -> {span name: self seconds}, for the per-input rows."""
    out = {}
    for rec, s in zip(spans, selfs):
        row = out.setdefault(rec[REQ], {})
        row[rec[NAME]] = row.get(rec[NAME], 0.0) + s
    return out
