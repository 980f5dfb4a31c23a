"""Command-line interface: exit codes, output formats, golden regression."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repoints import coideal, qmatrix, rmatrix, verifier
from repoints.cli import main
from repoints.points import param_indices
from repoints.rootdata import standard_cases
from repoints.scalar import ONE

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _strip_timings(payload):
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


def test_verify_passing_case(capsys):
    code = main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "so5-t2-m1-p"
    assert all(c["pass"] for c in payload["checks"])
    assert any(c["name"] == "classical.bivector" for c in payload["checks"])


def test_verify_text_format(capsys):
    code = main(["verify", "--series", "sl", "--N", "2", "--family", "t2",
                 "--m", "1", "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS  reflection" in out


def test_verify_violated_constraint_exits_one(capsys):
    code = main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--param", "y1=q"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert any(not c["pass"] for c in payload["checks"])


@pytest.mark.parametrize("error", ["MixtureInconsistentError", "MixtureUnderdeterminedError"])
def test_unsolved_mixture_is_a_failing_record(monkeypatch, capsys, error):
    from repoints import coideal

    def unsolvable(lead, A, alpha, F_tilde):
        raise getattr(coideal, error)(f"alpha_{alpha}: forced")

    monkeypatch.setattr(coideal, "solve_mixture", unsolvable)
    code = main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--format", "json"])
    assert code == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    checks = json.loads(out.out)["checks"]
    failing = [c for c in checks if not c["pass"]]
    assert failing == [{"name": "mixture.alpha1", "pass": False,
                        "detail": f"{error}: alpha_1: forced"}]
    # the other stabilizer records are still decided
    assert any(c["name"].startswith("stab.") and c["pass"] for c in checks)
    argv = ["--series", "so", "--N", "5", "--family", "t2", "--m", "1"]
    assert main(["stabilizer"] + argv) == 1
    assert main(["satake"] + argv) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    assert f"error: alpha_1 unsolved: {error}: alpha_1: forced" in out.err


def test_primed_param_override(capsys):
    # y1' names the partner index y5; a consistent override still passes
    code = main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--param", "y1=q^-1", "--param", "y1'=q^-4"])
    assert code == 0


@pytest.mark.parametrize("params, message", [
    (["y1=q", "y3=q^-5", "y1'=q^-4"], "parameters y3 and y1' both set y3"),
    (["y1'=q^-4", "y3=q^-4"], "parameters y1' and y3 both set y3"),
    (["y1=q", "y1=q"], "parameters y1 and y1 both set y1"),
])
def test_a_parameter_set_twice_exits_two(capsys, params, message):
    # y1' names index 3 on sl3, so y3 and y1' set the same corner
    argv = ["verify", "--series", "sl", "--N", "3", "--family", "t2", "--m", "1"]
    for p in params:
        argv += ["--param", p]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and message in captured.err
    assert "Traceback" not in captured.err


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--param", "y1=)q("]) == 2
    assert main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "9"]) == 2
    assert main(["verify", "--series", "sp", "--N", "6", "--family", "t2",
                 "--m", "2", "--param", "zebra=1"]) == 2
    assert main(["verify", "--series", "sp", "--N", "6", "--family", "t2",
                 "--m", "2", "--param", "y1=1"]) == 2


@pytest.mark.parametrize("param, message", [
    ("y1=q^\u00b2", "unexpected character '\u00b2' after '^' (at position 2)"),
    ("y1=\u0663*q", "unexpected character '\u0663' (at position 0)"),
    ("y1=\uff11", "unexpected character '\uff11' (at position 0)"),
    ("y\u0661=1", "malformed parameter name 'y\u0661'"),
])
def test_non_ascii_digits_exit_two(capsys, param, message):
    # only 0-9 are digits, in a literal and in a parameter name
    assert main(["verify", "--series", "sl", "--N", "3", "--family", "t2", "--m", "1",
                 "--param", param]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err and "Traceback" not in err


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--series", "xx", "--N", "5", "--family", "t2", "--m", "1"])
    assert e.value.code == 2


def test_successive_calls_share_no_param_list(monkeypatch, capsys):
    # main runs many times in one process (the benchmark's closed loop); each
    # call must get its own --param list, whether or not the parser is reused
    from repoints import cli

    seen = []
    params_from_args = cli._params_from_args

    def recording(spec, overrides):
        seen.append(overrides)
        return params_from_args(spec, overrides)

    monkeypatch.setattr(cli, "_params_from_args", recording)
    monkeypatch.setattr(cli, "_case_report",
                        lambda spec, params: {"case": spec.case_id, "checks": [], "timings": {}})
    case = ["verify", "--series", "sl", "--N", "4", "--family", "t2", "--m", "1"]
    assert main(case + ["--param", "y1=q"]) == 0
    assert main(case + ["--param", "y1=i*q^2", "--param", "y1'=2"]) == 0
    assert main(case) == 0
    assert seen == [["y1=q"], ["y1=i*q^2", "y1'=2"], []]
    assert seen[0] is not seen[1]
    # a usage error after good calls still exits 2, both from argparse and ours
    with pytest.raises(SystemExit) as e:
        main(case + ["--sign", "3"])
    assert e.value.code == 2
    assert main(case + ["--param", "y9=1"]) == 2
    assert main(case) == 0
    assert seen[-1] == []


def test_sweep_small(capsys):
    code = main(["sweep", "--series", "sl", "--Nmax", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"]
    assert [r["case"] for r in payload["cases"]] == [
        "sl2-t2-m0-p", "sl2-t2-m0-m", "sl2-t2-m1-p", "sl2-t2-m1-m",
        "sl3-t2-m0-p", "sl3-t2-m0-m", "sl3-t2-m1-p", "sl3-t2-m1-m"]
    for row in payload["cases"]:
        assert {"build", "reflection", "invariants", "stabilizer", "total"} <= set(row["timings"])


def _run_with_closed_stdout(argv):
    """The CLI as a subprocess whose stdout is a pipe that its reader closed
    before any output arrived, so the first write raises BrokenPipeError."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "repoints.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_the_exit_code_and_prints_nothing_to_stderr():
    # a reader that has left, as in `repoints sweep | head -1`
    proc = _run_with_closed_stdout(["sweep", "--series", "sl", "--Nmax", "3",
                                    "--format", "json"])
    assert proc.returncode == 0
    assert proc.stderr == b""


SO5 = ["verify", "--series", "so", "--N", "5", "--family", "t2", "--m", "1"]


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--Nmax", "4", "--format", "text"], 0),
    (SO5, 0),
    (SO5 + ["--format", "text"], 0),
    # y1 y5 = q^-5 broken: the command's own exit code is 1
    (SO5 + ["--param", "y5=1"], 1),
], ids=["sweep-text", "verify-json", "verify-text", "verify-failing"])
def test_a_reader_that_left_before_any_output_gets_the_commands_exit_code(argv, code):
    proc = _run_with_closed_stdout(argv)
    assert proc.returncode == code
    assert proc.stderr == b""


def test_a_param_without_a_value_exits_two(capsys):
    assert main(["verify", "--series", "sl", "--N", "3", "--family", "t2", "--m", "1",
                 "--param", "y1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed --param 'y1', expected name=value\n"


def test_satake_arcs_sl6(capsys):
    code = main(["satake", "--series", "sl", "--N", "6", "--family", "t2",
                 "--m", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fixed_nodes"] == [3]
    assert sorted(map(tuple, payload["arcs"])) == [(1, 5), (2, 4), (4, 2), (5, 1)]
    gens = {g["alpha"]: g for g in payload["generators"]}
    assert set(gens) == {1, 2, 4, 5}
    assert all(g["c_solved"] for g in gens.values())
    for g in payload["generators"]:
        assert list(g) == ["alpha", "word", "c_table", "c_solved", "note"]


def test_stabilizer_command(capsys):
    case = ["--series", "sp", "--N", "4", "--family", "t4", "--format", "json"]
    code = main(["stabilizer", *case])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in payload["checks"])
    assert all(g["agrees"] for g in payload["generators"])
    for g in payload["generators"]:
        assert list(g) == ["alpha", "word", "c_table", "c_solved", "agrees", "note"]
    # the stabilizer records are the verify records of the same stage
    assert main(["verify", *case]) == 0
    verify = json.loads(capsys.readouterr().out)["checks"]
    assert payload["checks"] == [c for c in verify if c["name"].startswith(("stab.", "mixture."))]
    assert all(list(c) == ["name", "pass"] for c in payload["checks"])


def test_poisson_case_and_matrix(capsys):
    assert main(["poisson", "--series", "so", "--N", "6", "--family", "t4"]) == 0
    capsys.readouterr()
    identity = json.dumps([["1", "0"], ["0", "1"]])
    assert main(["poisson", "--series", "sl", "--N", "2", "--matrix", identity]) == 0
    capsys.readouterr()
    control = json.dumps([["4", "0", "0"], ["0", "1", "0"], ["0", "0", "1/4"]])
    code = main(["poisson", "--series", "sl", "--N", "3", "--matrix", control])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["vanishes"]
    assert payload["largest"] == {"row": 4, "col": 7, "re": "-30", "im": "0"}
    control = json.dumps([["2", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"],
                          ["0", "0", "1", "0", "0"], ["0", "0", "0", "1", "0"],
                          ["0", "0", "0", "0", "1/2"]])
    code = main(["poisson", "--series", "so", "--N", "5", "--matrix", control])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["vanishes"]
    assert payload["largest"] == {"row": 3, "col": 7, "re": "-2", "im": "0"}


def test_poisson_text_renders_a_negative_imaginary_part(capsys):
    literal = json.dumps([["i", "0"], ["0", "1"]])
    argv = ["poisson", "--series", "sl", "--N", "2", "--matrix", literal]
    assert main(argv + ["--format", "text"]) == 1
    assert capsys.readouterr().out == (
        "explicit-matrix: bivector NONZERO, largest coefficient (2-2*i) at (1, 2)\n")
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["largest"] == {
        "row": 1, "col": 2, "re": "2", "im": "-2"}


def test_poisson_matrix_requires_algebra():
    assert main(["poisson", "--matrix", "[[\"1\"]]"]) == 2


def test_poisson_singular_or_malformed_matrix_exits_two(capsys):
    for literal in ('[["0","0"],["0","0"]]', '[["1","1"],["1","1"]]', '[["1"]]',
                    '5', '[[1,0],[0,1]]', '[["1/(q-1)","0"],["0","1"]]',
                    '[["q^2","0"],["0","1"]]'):
        assert main(["poisson", "--series", "sl", "--N", "2", "--matrix", literal]) == 2, literal


def test_poisson_matrix_outside_the_normalizer_exits_two(capsys):
    # invertible, but conjugation by it does not preserve so(3)
    literal = '[["2","0","0"],["0","1","0"],["0","0","1"]]'
    assert main(["poisson", "--series", "so", "--N", "3", "--matrix", literal]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the matrix does not normalize so(3)\n"


def test_poisson_deeply_nested_matrix_exits_two(capsys):
    assert main(["poisson", "--series", "sl", "--N", "2", "--matrix", "[" * 100000]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad matrix literal: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("literal", ["(" * 300 + "1" + ")" * 300, "9" * 5000],
                         ids=["nested-parentheses", "5000-digits"])
def test_param_literal_past_the_parser_bounds_exits_two(capsys, literal):
    code = main(["verify", "--series", "sl", "--N", "4", "--family", "t2", "--m", "1",
                 "--param", f"y1={literal}"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad scalar literal for y1: ")
    assert out.err.count("\n") == 1 and "(at position " in out.err


def test_param_literal_of_too_high_degree_exits_two_at_once(capsys):
    # 400 factors of degree 64 are refused at the fifth, before any product
    # of degree above 4 * 64 is formed
    literal = "*".join(["(q+1)^64"] * 400)
    start = time.perf_counter()
    code = main(["verify", "--series", "sl", "--N", "3", "--family", "t2", "--m", "1",
                 "--param", f"y1={literal}", "--param", f"y1'=q^-3/({literal})"])
    assert time.perf_counter() - start < 1
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad scalar literal for y1: product or sum of degree")
    assert out.err.count("\n") == 1 and "(at position 44)" in out.err


def test_poisson_without_a_case_exits_two(capsys):
    for argv in ([], ["--series", "so"], ["--series", "so", "--N", "6"], ["--N", "6", "--family", "t4"]):
        assert main(["poisson", *argv]) == 2, argv
        assert "poisson requires --series, --N and --family" in capsys.readouterr().err


_POLE = ["--series", "sl", "--N", "4", "--family", "t2", "--m", "1",
         "--param", "y1=1/(q-1)", "--param", "y1'=(q-1)*q^-4"]


def test_param_with_pole_at_one_is_a_params_failure(capsys):
    # the pairing y1 y1' = q^-4 holds, but the classical limit does not exist
    assert main(["verify", *_POLE]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["pass"]) for c in payload["checks"]] == [("params", False)]
    assert "pole at q = 1" in payload["checks"][0]["detail"]
    assert main(["satake", *_POLE]) == 2
    assert main(["stabilizer", *_POLE]) == 2


def test_exponent_bound_exits_two(capsys):
    base = ["verify", "--series", "sl", "--N", "4", "--family", "t2", "--m", "1"]
    # a nested power of a monomial grows its exponent, not its degree span
    nested = "((((((((((q^64)^64)^64)^64)^64)^64)^64)^64)^64)^64)^64 + 1"
    for literal in ("(q+1)^3000", "q^-65", "((q+1)^64)^64", "(q^2+1)^33", "0^-1",
                    nested, "((q^64)^64)^64 + 1"):
        assert main([*base, "--param", f"y1={literal}"]) == 2, literal
    assert "exceeds 64" in capsys.readouterr().err
    assert main([*base, "--param", "y1=q^-64", "--param", "y1'=q^60"]) == 0


def _normalized_scalar(c):
    """A term's scalar as a `QScalar`.  The mixtures' X'' reads c_den and
    c_num at t (`coideal.MixtureCoefficient`); they become 1 and c, so the
    oracle's X'' is X = X'' / c_den, which commutes with A iff X'' does."""
    if not callable(c):
        return c
    coefficient = c.__self__
    return ONE if c == coefficient.den else coefficient.value


def _normalized(m):
    """A kernel operand as a `QMatrix`: an `Unreduced` sum of c x y
    multiplied out and normalized, and I x A as the dense kron."""
    if isinstance(m, qmatrix.IdentityKron):
        return qmatrix.QMatrix.identity(m.block.dim).kron(m.block)
    if not isinstance(m, qmatrix.Unreduced):
        return m
    total = qmatrix.QMatrix(m.dim)
    for c, x, y in m.terms:
        term = _normalized(x) if y is None else _normalized(x) * _normalized(y)
        total = total + (term if c is None else term.scale(_normalized_scalar(c)))
    return total


def _normalized_product_difference(x, y, z, w):
    """The kernel's oracle: both products normalized, then compared."""
    x, y, z, w = map(_normalized, (x, y, z, w))
    return (x * y).first_difference(z * w)


def _normalized_product_mismatch(x, y, z, w):
    diff = _normalized_product_difference(x, y, z, w)
    return None if diff is None else diff[:2]


def test_params_with_coefficients_past_the_substitution_point(capsys, monkeypatch):
    # y1 y1' = q^-4 with coefficients above 2^64, written as plain integers
    big, bigger = 2 ** 64 + 3, 2 ** 65 + 1
    argv = ["verify", "--series", "sl", "--N", "4", "--family", "t2", "--m", "1",
            "--param", f"y1=({bigger}*q^2+{big})/({big}*q-1)",
            "--param", f"y1'=({big}*q^-3-q^-4)/({bigger}*q^2+{big})"]
    seen = []
    at = qmatrix._signed_row

    def recording(products, K):
        seen.append(K)
        return at(products, K)

    monkeypatch.setattr(qmatrix, "_signed_row", recording)
    assert main(argv) == 0
    got = _strip_timings(json.loads(capsys.readouterr().out))
    assert max(seen) > qmatrix._K
    for module in (coideal, rmatrix, verifier):
        monkeypatch.setattr(module, "first_product_difference", _normalized_product_difference)
    monkeypatch.setattr(coideal, "first_product_mismatch", _normalized_product_mismatch)
    assert main(argv) == 0
    assert got == _strip_timings(json.loads(capsys.readouterr().out))


def test_n_bound_exits_two(capsys):
    for command in ("verify", "poisson"):
        argv = [command, "--series", "sl", "--N", "17", "--family", "t2", "--m", "1"]
        assert main(argv) == 2, command
        assert "N = 17 exceeds 16" in capsys.readouterr().err


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "--series", "sl", "--N", "2", "--family", "t2",
                 "--m", "0", "--out", str(target)])
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["case"] == "sl2-t2-m0-p"


def test_unwritable_out_exits_two(tmp_path, capsys):
    verify = ["verify", "--series", "sl", "--N", "2", "--family", "t2", "--m", "0"]
    for argv in ([*verify, "--out", str(tmp_path / "missing" / "report.json")],
                 ["sweep", "--Nmax", "2", "--out", str(tmp_path)]):
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: cannot write --out {argv[-1]}: ")


def test_golden_verify_regression(tmp_path, capsys):
    code = main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--sign", "-1", "--format", "json"])
    assert code == 0
    got = _strip_timings(json.loads(capsys.readouterr().out))
    with open(os.path.join(DATA_DIR, "golden_verify_so5.json")) as fh:
        want = _strip_timings(json.load(fh))
    assert got == want


def test_golden_satake_regression(capsys):
    code = main(["satake", "--series", "sp", "--N", "6", "--family", "t2",
                 "--m", "2", "--format", "json"])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    with open(os.path.join(DATA_DIR, "golden_satake_sp6.json")) as fh:
        want = json.load(fh)
    assert got == want


def test_empty_sweep_grid_exits_two(capsys):
    # a sweep that checked nothing must not read as passing
    for argv in (["--Nmax", "1"], ["--series", "sp", "--Nmax", "3"], ["--N", "1"],
                 ["--series", "so", "--Nmax", "-1", "--format", "text"]):
        assert main(["sweep", *argv]) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert "empty sweep grid" in out.err
    assert main(["sweep", "--series", "sp", "--Nmax", "4"]) == 0
    assert [r["case"] for r in json.loads(capsys.readouterr().out)["cases"]] == [
        "sp4-t2-m0-p", "sp4-t2-m0-m", "sp4-t2-m2-p", "sp4-t2-m2-m", "sp4-t4"]


# --- the exit-code contract under arbitrary argv ----------------------------

_N_VALUES = ["-1", "0", "1", "2", "3", "4", "5", "6", "7", "8", "17"]
_LITERALS = st.sampled_from([
    "1", "0", "q", "q^-2", "-q^-1", "i", "2/3", "i*q^-3", "q^2 + 1", "(q+1)/(q-1)",
    "1/(q-1)", "q^70", "1/0", "0^-1", ")(", "", "q^", "2*i - 1/2"])
_MATRICES = st.sampled_from([
    '[["1","0"],["0","1"]]', '[["4","0","0"],["0","1","0"],["0","0","1/4"]]',
    '[["0","0"],["0","0"]]', '[["q","0"],["0","1"]]', '[["i","0"],["0","-i"]]',
    '[["1"]]', '[[1]]', "5", "not json"])
_CASE_FLAGS = {
    "--series": st.sampled_from(["sl", "so", "sp", "gl"]),
    "--N": st.sampled_from(_N_VALUES),
    "--family": st.sampled_from(["t2", "t4", "t3"]),
    "--m": st.sampled_from(["-1", "0", "1", "2", "3", "4"]),
    "--sign": st.sampled_from(["1", "-1", "0"]),
    "--format": st.sampled_from(["json", "text"]),
    "--out": st.just("OUT"),
}
_FLAGS = {
    "verify": _CASE_FLAGS,
    "satake": _CASE_FLAGS,
    "stabilizer": _CASE_FLAGS,
    "poisson": dict(_CASE_FLAGS, **{"--matrix": _MATRICES}),
    # --N abbreviates --Nmax; both stay at most 4 so that a sweep stays small
    "sweep": {"--series": _CASE_FLAGS["--series"],
              "--Nmax": st.sampled_from(_N_VALUES[:6]),
              "--format": _CASE_FLAGS["--format"],
              "--out": _CASE_FLAGS["--out"]},
}
# flags a case needs are left out only now and then
_NEEDED = {"--series", "--N", "--family", "--m", "--Nmax"}


def _case_values(spec):
    """The flag values that select spec, and its parameter names."""
    values = {"--series": spec.group, "--N": str(spec.N), "--family": spec.family,
              "--sign": str(spec.sign)}
    if spec.m is not None:
        values["--m"] = str(spec.m)
    names = [f"{spec.param_kind}{i}" for i in param_indices(spec)]
    return values, names + [n + "'" for n in names]


@st.composite
def _argv(draw):
    """argv for one subcommand: mostly a valid case from the reference grid
    (N <= 8), with some flag values replaced, dropped or malformed."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    values, names = _case_values(draw(st.sampled_from(standard_cases())))
    argv = [command]
    for flag in sorted(flags):
        if draw(st.integers(0, 15)) < (1 if flag in _NEEDED else 8):
            continue
        value = values.get(flag) if command != "sweep" and draw(st.integers(0, 7)) else None
        spelling = draw(st.sampled_from(["--Nmax", "--N"])) if flag == "--Nmax" else flag
        argv += [spelling, value or draw(flags[flag])]
    if command in ("verify", "satake", "stabilizer"):
        name = st.sampled_from(names * 3 + ["y0", "z9", "w1", "y", "y1''"])
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--param", f"{draw(name)}={draw(_LITERALS)}"]
    return argv


@settings(max_examples=120, deadline=None)
@given(_argv())
def test_cli_exit_code_contract(tmp_path_factory, argv):
    out = str(tmp_path_factory.getbasetemp() / "fuzz-out.txt")
    argv = [out if a == "OUT" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    assert code in (0, 1, 2), (argv, code, stderr.getvalue())
