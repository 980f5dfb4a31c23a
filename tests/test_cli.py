"""Command-line interface: exit codes, output formats, golden regression."""
import json
import os

import pytest

from repoints.cli import main

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


def test_primed_param_override(capsys):
    # y1' names the partner index y5; a consistent override still passes
    code = main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--param", "y1=q^-1", "--param", "y1'=q^-4"])
    assert code == 0


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "1", "--param", "y1=)q("]) == 2
    assert main(["verify", "--series", "so", "--N", "5", "--family", "t2",
                 "--m", "9"]) == 2
    assert main(["verify", "--series", "sp", "--N", "6", "--family", "t2",
                 "--m", "2", "--param", "zebra=1"]) == 2
    assert main(["verify", "--series", "sp", "--N", "6", "--family", "t2",
                 "--m", "2", "--param", "y1=1"]) == 2


def test_argparse_rejects_unknown_flags():
    with pytest.raises(SystemExit) as e:
        main(["verify", "--series", "xx", "--N", "5", "--family", "t2", "--m", "1"])
    assert e.value.code == 2


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


def test_stabilizer_command(capsys):
    code = main(["stabilizer", "--series", "sp", "--N", "4", "--family", "t4",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in payload["checks"])
    assert all(g["agrees"] for g in payload["generators"])


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
    assert not payload["vanishes"] and payload["largest"]


def test_poisson_matrix_requires_algebra():
    assert main(["poisson", "--matrix", "[[\"1\"]]"]) == 2


def test_poisson_singular_or_malformed_matrix_exits_two(capsys):
    for literal in ('[["0","0"],["0","0"]]', '[["1","1"],["1","1"]]', '[["1"]]',
                    '5', '[[1,0],[0,1]]', '[["1/(q-1)","0"],["0","1"]]',
                    '[["q^2","0"],["0","1"]]'):
        assert main(["poisson", "--series", "sl", "--N", "2", "--matrix", literal]) == 2, literal


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
    for literal in ("(q+1)^3000", "q^-65", "((q+1)^64)^64", "(q^2+1)^33", "0^-1"):
        assert main([*base, "--param", f"y1={literal}"]) == 2, literal
    assert "exceeds 64" in capsys.readouterr().err
    assert main([*base, "--param", "y1=q^-64", "--param", "y1'=q^60"]) == 0


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
