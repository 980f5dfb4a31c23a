"""Command-line front end: verify single cases, sweep the reference grid,
dump the involution combinatorics, inspect stabilizer generators, and evaluate
the classical bivector.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import classical, coideal
from .points import ParamError, default_params, paired_index, quantum_point, theta_for_class
from .rootdata import ClassSpec, NotInSpanError, series_for_group, standard_cases
from .linalg import SingularMatrixError
from .qmatrix import QMatrix
from .scalar import QScalar, ScalarParseError, parse_scalar, render_scalar


class UsageError(ValueError):
    pass


_PARAM_RE = re.compile(r"^([yz])([0-9]+)('?)$")


def _spec_from_args(args) -> ClassSpec:
    try:
        return ClassSpec(args.series, args.N, args.family,
                         args.m, getattr(args, "sign", 1) or 1)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _params_from_args(spec: ClassSpec, overrides) -> "PointParams":
    params = default_params(spec)
    named = {}  # index -> the name that set it
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"malformed --param {item!r}, expected name=value")
        name, literal = item.split("=", 1)
        match = _PARAM_RE.match(name.strip())
        if not match:
            raise UsageError(f"malformed parameter name {name!r}")
        kind, idx, prime = match.group(1), int(match.group(2)), match.group(3)
        if kind != spec.param_kind:
            raise UsageError(f"class {spec.case_id} takes {spec.param_kind}-parameters")
        if prime:
            idx = paired_index(spec, idx)
        if idx not in params.values:
            raise UsageError(f"parameter index {idx} not used by {spec.case_id}")
        if idx in named:
            raise UsageError(f"parameters {named[idx]} and {match.group(0)} both set "
                             f"{kind}{idx}")
        named[idx] = match.group(0)
        try:
            params.values[idx] = parse_scalar(literal)
        except ScalarParseError as exc:
            raise UsageError(f"bad scalar literal for {name}: {exc}") from exc
    return params


def _emit(payload, args, text_renderer) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2)
    else:
        out = text_renderer(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        try:
            print(out, flush=True)
        except BrokenPipeError:
            # the reader left: drop the rest of the output, and keep the
            # command's own exit code (the final flush then writes to devnull)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _render_report_text(payload: dict) -> str:
    lines = [f"case {payload['case']}  params [{payload.get('params', '')}]"]
    for c in payload["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        detail = f"  ({c['detail']})" if c.get("detail") else ""
        lines.append(f"  {status}  {c['name']}{detail}")
    return "\n".join(lines)


def _case_report(spec: ClassSpec, params) -> dict:
    from .verifier import full_report

    return full_report(spec, params).to_dict()


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    payload = _case_report(spec, _params_from_args(spec, args.param))
    _emit(payload, args, _render_report_text)
    return 0 if all(c["pass"] for c in payload["checks"]) else 1


def cmd_sweep(args) -> int:
    cases = standard_cases(args.series, args.Nmax)
    if not cases:
        # a sweep that checked nothing must not read as passing
        series = f"{args.series} " if args.series else ""
        raise UsageError(f"empty sweep grid: no {series}case with N <= {args.Nmax}")
    rows = []
    all_ok = True
    for spec in cases:
        t = time.perf_counter()
        payload = _case_report(spec, default_params(spec))
        ok = all(c["pass"] for c in payload["checks"])
        all_ok = all_ok and ok
        rows.append({
            "case": spec.case_id,
            "pass": ok,
            "checks": len(payload["checks"]),
            "seconds": round(time.perf_counter() - t, 3),
            "timings": payload["timings"],
        })

    def text(rows_payload):
        lines = [f"{'case':<16}{'result':<8}{'checks':<8}seconds"]
        for r in rows_payload["cases"]:
            lines.append(f"{r['case']:<16}{'pass' if r['pass'] else 'FAIL':<8}"
                         f"{r['checks']:<8}{r['seconds']}")
        lines.append(f"total: {len(rows_payload['cases'])} cases, "
                     f"{'all passing' if rows_payload['pass'] else 'FAILURES PRESENT'}")
        return "\n".join(lines)

    _emit({"cases": rows, "pass": all_ok}, args, text)
    return 0 if all_ok else 1


def _point_stabilizer(args):
    """The case's spec, its quantum point and the point's stabilizer."""
    spec = _spec_from_args(args)
    params = _params_from_args(spec, args.param)
    point = quantum_point(spec, params)
    return spec, point, coideal.build_stabilizer(spec, params, point.A)


def _generator_entry(g, **extra) -> dict:
    """A mixed generator's JSON entry; extra fields go before the note."""
    return {
        "alpha": g.alpha,
        "word": g.word,
        "c_table": render_scalar(g.c_table) if g.c_table is not None else None,
        "c_solved": render_scalar(g.c_solved),
        **extra,
        "note": g.c_table_note,
    }


def cmd_satake(args) -> int:
    spec, point, ss = _point_stabilizer(args)
    td = theta_for_class(spec)
    payload = {
        "case": spec.case_id,
        "fixed_nodes": list(td.pi_fixed),
        "open_nodes": list(td.pi_moved),
        "tilde": {str(i): list(td.tilde_simple[i]) for i in td.pi_moved},
        "arcs": [[i, td.partner[i]] for i in td.pi_moved if td.partner[i] != i],
        "generators": [_generator_entry(g) for g in ss.mixed_generators],
    }

    def text(p):
        lines = [f"case {p['case']}",
                 f"filled nodes: {p['fixed_nodes'] or 'none'}",
                 f"open nodes:   {p['open_nodes'] or 'none'}",
                 f"arcs:         {p['arcs'] or 'none'}"]
        for g in p["generators"]:
            lines.append(f"alpha_{g['alpha']}: {g['word']}")
            lines.append(f"  c_solved = {g['c_solved']}"
                         + (f", table = {g['c_table']}" if g["c_table"] else ", table: n/a"))
            if g["note"]:
                lines.append(f"  note: {g['note']}")
        return "\n".join(lines)

    _emit(payload, args, text)
    for alpha, exc in ss.unsolved:
        print(f"error: alpha_{alpha} unsolved: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1 if ss.unsolved else 0


def cmd_stabilizer(args) -> int:
    spec, point, ss = _point_stabilizer(args)
    payload = {
        "case": spec.case_id,
        "params": point.params.digest(),
        "checks": [r.to_dict() for r in coideal.check_stabilizer(ss, point.A)],
        "generators": [_generator_entry(g, agrees=g.table_matches)
                       for g in ss.mixed_generators],
    }
    _emit(payload, args, _render_report_text)
    return 0 if all(c["pass"] for c in payload["checks"]) else 1


def cmd_poisson(args) -> int:
    if args.matrix:
        if args.series is None or args.N is None:
            raise UsageError("--matrix requires --series and --N to fix the algebra")
        try:
            ls = series_for_group(args.series, args.N)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        a = classical.gauss_entries(_matrix_point(args.matrix, ls.dim))
        case_name = "explicit-matrix"
    else:
        if args.series is None or args.N is None or args.family is None:
            raise UsageError("poisson requires --series, --N and --family, or --matrix")
        spec = _spec_from_args(args)
        ls = spec.series
        a = classical.classical_point_entries(spec)
        case_name = spec.case_id
    data = classical.build_classical_algebra(ls)
    try:
        value = classical.bivector_at(data, a)
    except SingularMatrixError as exc:
        raise UsageError(f"the matrix is not invertible: {exc}") from exc
    except NotInSpanError as exc:
        raise UsageError(f"the matrix does not normalize {args.series}({args.N})") from exc
    payload = {"case": case_name, "vanishes": value.is_zero()}
    if not value.is_zero():
        i, j, v = value.largest_entry()
        payload["largest"] = {"row": i, "col": j, "re": str(v.re), "im": str(v.im)}

    def text(p):
        if p["vanishes"]:
            return f"{p['case']}: bivector vanishes"
        big = p["largest"]
        return (f"{p['case']}: bivector NONZERO, largest coefficient "
                f"{render_scalar(QScalar.from_gauss(v))} at ({big['row']}, {big['col']})")

    _emit(payload, args, text)
    return 0 if value.is_zero() else 1


def _matrix_point(literal: str, N: int) -> QMatrix:
    """The N x N matrix of q-free scalars in a --matrix JSON literal."""
    try:
        rows = json.loads(literal)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"bad matrix literal: {exc}") from exc
    if (not isinstance(rows, list) or len(rows) != N
            or any(not isinstance(r, list) or len(r) != N for r in rows)
            or any(not isinstance(c, str) for r in rows for c in r)):
        raise UsageError(f"--matrix must be an array of {N} arrays of {N} scalar strings")
    try:
        scalars = [[parse_scalar(c) for c in r] for r in rows]
    except ScalarParseError as exc:
        raise UsageError(f"bad matrix literal: {exc}") from exc
    if any(x.num.min_exp() or x.num.max_exp() or not x.den.is_one for r in scalars for x in r if x):
        raise UsageError("--matrix entries must be q-free")
    return QMatrix.from_entries(N, ((i, j, x) for i, r in enumerate(scalars)
                                    for j, x in enumerate(r)))


def _add_case_flags(p):
    p.add_argument("--series", choices=("sl", "so", "sp"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--family", choices=("t2", "t4"), required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--param", action="append", default=[],
                   help="override a parameter, e.g. y1=q^-2 or y1'=q^-4")


def _add_output_flags(p):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repoints",
        description="exact verification of reflection-equation points")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every check on one case")
    _add_case_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run the reference grid of cases")
    p.add_argument("--series", choices=("sl", "so", "sp"), default=None)
    p.add_argument("--Nmax", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("satake", help="involution data and mixed generators")
    _add_case_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_satake)

    p = sub.add_parser("stabilizer", help="stabilizer generators and verdicts")
    _add_case_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("poisson", help="evaluate the classical bivector")
    p.add_argument("--series", choices=("sl", "so", "sp"))
    p.add_argument("--N", type=int)
    p.add_argument("--family", choices=("t2", "t4"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--matrix", default=None,
                   help="JSON array of arrays of scalar literals (q-free)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_poisson)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
