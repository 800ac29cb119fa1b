"""Subcommands, exit codes, and the machine report format."""

import json
from pathlib import Path

import pytest

from lckverify.cli import run

SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


def test_verify_table_single_entry(capsys):
    assert run(["verify-table", "--entry", "rh3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] rh3/jacobi" in out
    assert "0 failed" in out


def test_verify_table_unknown_entry():
    assert run(["verify-table", "--entry", "nope"]) == 1


def test_usage_error_exit_code(capsys):
    assert run(["vaisman", "--entry", "rh3", "--family", "nope"]) == 2
    assert run(["nonsense"]) == 2


def _spec(tmp_path, example="ot_extension.json", **changes):
    data = json.loads((SPECS / example).read_text())
    data.update(changes)
    data = {k: v for k, v in data.items() if v is not None}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


_ZERO4 = [["0"] * 4] * 4
_COKAHLER = "cokahler_torus.json"


@pytest.mark.parametrize("argv, location", [
    (lambda tmp: ["extend", "--spec", _spec(tmp, entry=None)], "'entry'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, family="nope")], "'family'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, fiber_dim="x")], "'fiber_dim'"),
    (lambda tmp: ["verify-table", "--catalog", str(tmp / "missing.json")],
     "--catalog"),
    (lambda tmp: ["mn", "--algebra", "0,0,0,0", "--theta", "0", "--at", "{bad"],
     "--at"),
    (lambda tmp: ["ot", "--n", "1", "--c", "1,x"], "--c"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, rho=5)], "'rho'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, rho=[_ZERO4[:3] + [["0"] * 3]]
                                            + [_ZERO4] * 3)], "'rho'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, rho=[_ZERO4] * 2)], "'rho'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, rho=[[["1+"] + ["0"] * 3] + _ZERO4[1:]]
                                            + [_ZERO4] * 3)], "'rho'"),
    (lambda tmp: ["cokahler", "--spec", _spec(tmp, _COKAHLER, Phi=["0"])], "'Phi'"),
    (lambda tmp: ["cokahler", "--spec", _spec(tmp, _COKAHLER, metric=["1"])], "'metric'"),
    (lambda tmp: ["cokahler", "--spec", _spec(tmp, _COKAHLER, D=["0"])], "'D'"),
    (lambda tmp: ["cokahler", "--spec", _spec(tmp, _COKAHLER, eta=5)], "'eta'"),
], ids=["extend-no-entry", "extend-unknown-family", "extend-bad-fiber-dim",
        "missing-catalog", "mn-bad-at", "ot-bad-c", "extend-rho-not-a-list",
        "extend-ragged-rho", "extend-too-few-rho", "extend-bad-rho-expression",
        "cokahler-short-phi", "cokahler-short-metric", "cokahler-short-d",
        "cokahler-eta-not-a-string"])
def test_bad_input_is_a_located_usage_error(tmp_path, capsys, argv, location):
    assert run(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert location in err
    assert "Traceback" not in err


def test_vaisman_output(capsys):
    assert run(["vaisman", "--entry", "rh3"]) == 0
    out = capsys.readouterr().out
    assert "expected=always" in out and "A = -e4" in out


def test_vaisman_witness_index(capsys):
    assert run(["vaisman", "--entry", "d4p_delta", "--family", "J1",
                "--witness", "0"]) == 0
    out = capsys.readouterr().out
    assert "vaisman=False" in out


def test_mn_output(capsys):
    assert run(["mn", "--algebra", "0,0,-12,0", "--theta", "-e4"]) == 0
    assert "(0, 0, 0, 0, 0)" in capsys.readouterr().out
    assert run(["mn", "--algebra", "0,0,0,0", "--theta", "0"]) == 0
    assert "(1, 4, 6, 4, 1)" in capsys.readouterr().out


def test_lee_output(capsys):
    assert run(["lee", "--algebra", "0,0,-12,0", "--omega", "e12+e34"]) == 0
    assert "theta = -e4" in capsys.readouterr().out


def test_solve_with_catalog_j(capsys):
    assert run(["solve", "--algebra", "0,0,-12,0",
                "--theta", "t1*e1+t2*e2+t4*e4", "--J", "rh3.J"]) == 0
    out = capsys.readouterr().out
    assert "dim 3" in out and "dim 1" in out


def test_ot_subcommand(capsys):
    assert run(["ot", "--n", "2", "--c", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "not_vaisman" in out


def test_extend_subcommand(capsys):
    assert run(["extend", "--spec", str(SPECS / "ot_extension.json")]) == 0
    out = capsys.readouterr().out
    assert "unimodular  True" in out
    assert "not_vaisman" in out


def test_cokahler_subcommand(capsys):
    assert run(["cokahler", "--spec", str(SPECS / "cokahler_torus.json")]) == 0
    out = capsys.readouterr().out
    assert "theta  -e4" in out


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["verify-table", "--entry", "rh3", "--json", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 1
    assert doc["exit_code"] == 0
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["records"])
    assert all(r["status"] in ("pass", "fail") for r in doc["records"])


def test_json_to_stdout(capsys):
    assert run(["mn", "--algebra", "0,0,-12,0", "--theta", "-e4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool_version"]


def test_json_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["verify-table", "--json", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_external_catalog_override(tmp_path, capsys):
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    doc["entries"] = [e for e in doc["entries"] if e["id"] == "rh3"]
    doc["table_rows"] = [r for r in doc["table_rows"] if r.startswith("rh3/")]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rh3/jacobi" in out and "gl2" not in out
