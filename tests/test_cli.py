"""Subcommands, exit codes, and the machine report format."""

import hashlib
import json
from pathlib import Path

import pytest

from lckverify.cli import run

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "examples" / "specs"


def test_verify_table_single_entry(capsys):
    assert run(["verify-table", "--entry", "rh3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] rh3/jacobi" in out
    assert "0 failed" in out


def test_verify_table_unknown_entry():
    assert run(["verify-table", "--entry", "nope"]) == 2


def test_report_bytes_match_the_benchmark_reference(capsys):
    """The built-in catalog's JSON report has the digest the benchmark
    checks every run against."""
    assert run(["verify-table", "--json", "-"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    assert digest == reference["catalog"]["full"]


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


def _j_file(tmp_path, matrix):
    path = tmp_path / "J.json"
    path.write_text(json.dumps({"matrix": matrix}))
    return str(path)


def _catalog(tmp_path, **entry):
    """A one-entry catalog file."""
    doc = {"schema_version": 1, "entries": [dict(id="x", salamon="0,0,0,0", **entry)]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return str(path)


_ZERO4 = [["0"] * 4] * 4
_COKAHLER = "cokahler_torus.json"


@pytest.mark.parametrize("argv, location", [
    (lambda tmp: ["extend", "--spec", _spec(tmp, entry=None)], "'entry'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, family="nope")], "'family'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, fiber_dim="x")], "'fiber_dim'"),
    (lambda tmp: ["verify-table", "--catalog", str(tmp / "missing.json")],
     "--catalog"),
    (lambda tmp: ["verify-table", "--catalog",
                  _catalog(tmp, params=["g"], param_constraints=["g >> zz"])],
     "$.entries[0].param_constraints[0]"),
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
    (lambda tmp: ["solve", "--algebra", "0,0,-12,0", "--theta", "e4",
                  "--J", _j_file(tmp, [0] * 16)], "'matrix'"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, params=5)], "'params'"),
    (lambda tmp: ["solve", "--algebra", "0,0,-12,0", "--theta", "e4+"], "--theta"),
    (lambda tmp: ["solve", "--algebra", "0,0,-12+,0", "--theta", "e4"], "--algebra"),
    (lambda tmp: ["lee", "--algebra", "0,0,-12,0", "--omega", "e12+"], "--omega"),
    (lambda tmp: ["mn", "--algebra", "0,0,-12,0", "--theta", "e4+"], "--theta"),
    (lambda tmp: ["solve", "--algebra", "0,0,-12,0", "--theta", "e4",
                  "--J", _j_file(tmp, ["1+"] + ["0"] * 15)], "'matrix'"),
    (lambda tmp: ["solve", "--algebra", "0,0,-12,0", "--theta", "e4",
                  "--J", "nope.J"], "--J nope.J"),
    (lambda tmp: ["solve", "--algebra", "0,0,-12,0", "--theta", "e4",
                  "--J", "rh3.nope"], "--J rh3.nope"),
    (lambda tmp: ["vaisman", "--entry", "nope"], "--entry"),
    (lambda tmp: ["verify-table", "--entry", "nope"], "--entry"),
    (lambda tmp: ["extend", "--spec", _spec(tmp, entry="nope")], "'entry'"),
    (lambda tmp: ["verify-table", "--catalog",
                  _catalog(tmp, params=["g"], param_constraints=["(g-g)^-1 > 0"])],
     "$.entries[0].param_constraints[0]"),
    (lambda tmp: ["lee", "--algebra", "0,0,-12,0", "--omega", "(1-1)^-1*e12+e34"],
     "--omega"),
    (lambda tmp: ["solve", "--algebra", "0,0,-12,0", "--theta", "e12"], "--theta"),
    (lambda tmp: ["solve", "--algebra", "0,0,-15,0", "--theta", "e4"], "--algebra"),
    (lambda tmp: ["mn", "--algebra", "a*14,0,0,0", "--theta", "e4", "--at", '{"b": 1}'],
     "--at: no value for a"),
    (lambda tmp: ["cokahler", "--spec", _spec(tmp, _COKAHLER, salamon="0,0,0,-15")],
     "'salamon'"),
], ids=["extend-no-entry", "extend-unknown-family", "extend-bad-fiber-dim",
        "missing-catalog", "catalog-schema-error", "mn-bad-at", "ot-bad-c",
        "extend-rho-not-a-list", "extend-ragged-rho", "extend-too-few-rho",
        "extend-bad-rho-expression",
        "cokahler-short-phi", "cokahler-short-metric", "cokahler-short-d",
        "cokahler-eta-not-a-string", "solve-j-matrix-not-strings",
        "extend-params-not-a-list", "solve-bad-theta", "solve-bad-algebra",
        "lee-bad-omega", "mn-bad-theta", "solve-bad-j-expression",
        "solve-unknown-j-entry", "solve-unknown-j-name", "vaisman-unknown-entry",
        "verify-table-unknown-entry", "extend-unknown-entry",
        "catalog-zero-power-constraint", "lee-zero-power-omega", "solve-theta-wrong-degree",
        "solve-algebra-index-out-of-range", "mn-at-missing-parameter",
        "cokahler-bad-salamon"])
def test_bad_input_is_a_located_usage_error(tmp_path, capsys, argv, location):
    assert run(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
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


def test_parameter_under_a_division_is_collected(capsys):
    assert run(["lee", "--algebra", "0,0,-12,0", "--omega", "e12/(a-1) + e34"]) == 0
    assert "theta = (-a + 1)*e4; closed = True" in capsys.readouterr().out


def test_solve_with_catalog_j(capsys):
    assert run(["solve", "--algebra", "0,0,-12,0",
                "--theta", "t1*e1+t2*e2+t4*e4", "--J", "rh3.J"]) == 0
    out = capsys.readouterr().out
    assert "dim 3" in out and "dim 1" in out


def test_solve_with_parametric_catalog_j(capsys):
    # the parameters a, b of r2p.J2ab join the field of the algebra
    assert run(["solve", "--algebra", "0,0,-13+24,-14-23", "--theta", "e1",
                "--J", "r2p.J2ab"]) == 0
    out = capsys.readouterr().out
    assert "lck_space  dim 1: e12  [needs a, 4*a^2 + b^2 + 4*b + 4 != 0]" in out


def test_math_failure_exits_1_with_its_message(capsys):
    assert run(["lee", "--algebra", "0,0,-12,0", "--omega", "e12"]) == 1
    assert capsys.readouterr().err == "error: LckError: omega ^ omega = 0\n"


def test_ot_subcommand(capsys):
    assert run(["ot", "--n", "2", "--c", "1,2"]) == 0
    assert capsys.readouterr().out == (
        "[PASS] algebra  LieAlgebra(ot(2): 0, 0, -e13, -e24, "
        "1/2*e15 + e16 + 1/2*e25 + 2*e26, -e15 + 1/2*e16 - 2*e25 + 1/2*e26)\n"
        "[PASS] theta  e1 + e2\n"
        "[PASS] omega  2*e13 + e14 + e23 + 2*e24 + e56\n"
        "[PASS] not_vaisman\n"
        "4 passed, 0 failed\n")


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


def test_singular_metric_at_a_witness_is_a_failing_record(tmp_path, capsys):
    """At a witness where the metric is singular, the Vaisman test fails its
    record and the full report is printed with exit 1."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    [entry] = [e for e in doc["entries"] if e["id"] == "rh3"]
    doc["entries"], doc["table_rows"] = [entry], ["rh3/main"]
    [fam] = entry["lck_families"]
    # Omega = s*e12 + s*e34 vanishes at s = 0
    fam["constraints"], fam["witnesses"] = [], [{"s": "1"}, {"s": "0"}]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if not line.startswith("[PASS]")] == [
        "[FAIL] rh3/lck:main/positive@1  residual: minor 1 = 0  at {s=0}",
        "[FAIL] rh3/lck:main/vaisman@1  residual: LckError: metric is singular at the witness  at {s=0}",
        "18 passed, 2 failed",
    ]


def test_singular_automorphism_at_a_sample_is_a_failing_record(tmp_path, capsys):
    """A candidate automorphism that is singular at an in-region sample fails
    its record, and the full report is printed with exit 1."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    [entry] = [e for e in doc["entries"] if e["id"] == "rh3"]
    doc["entries"], doc["table_rows"] = [entry], ["rh3/main"]
    [aut] = entry["automorphisms"]
    # the generic matrix is singular where a11 = a12 = 0
    aut["constraints"] = []
    aut["samples"][0] = {"a11": "0", "a12": "0", "a13": "0", "a14": "0"}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if not line.startswith("[PASS]")] == [
        "[FAIL] rh3/aut:generic@0  automorphism=False complex-linear=True  "
        "residual: LckError: candidate automorphism is singular  "
        "at {a11=0, a12=0, a13=0, a14=0}",
        "19 passed, 1 failed",
    ]


def test_failing_automorphism_names_its_equation(tmp_path, capsys):
    """A non-singular candidate that is not an automorphism fails each
    sample's record with the first k where d(M*e^k) != M*(de^k), and both
    sides: doubling the e3, e4 block of rh3's generic matrix breaks
    de3 = -e12 but keeps it complex-linear."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    [entry] = [e for e in doc["entries"] if e["id"] == "rh3"]
    doc["entries"], doc["table_rows"] = [entry], ["rh3/main"]
    [aut] = entry["automorphisms"]
    aut["matrix"][10] = aut["matrix"][15] = "2*a11^2 + 2*a12^2"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if not line.startswith("[PASS]")][1:] == [
        "[FAIL] rh3/aut:generic@1  automorphism=False complex-linear=True  "
        "residual: d(M*e3) = -10*e12, M*(de3) = -5*e12  at {a11=2, a12=1, a13=3, a14=-1}",
        "[FAIL] rh3/aut:generic@2  automorphism=False complex-linear=True  "
        "residual: d(M*e3) = -2*e12, M*(de3) = -e12  at {a11=0, a12=1, a13=1/2, a14=2}",
        "17 passed, 3 failed",
    ]


def test_singular_chain_step_is_a_failing_record(tmp_path, capsys):
    """A normalising-chain step that is singular at its witness fails its
    record, and the full report is printed with exit 1."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    [entry] = [e for e in doc["entries"] if e["id"] == "rr3_1"]
    doc["entries"], doc["table_rows"] = [entry], ["rr3_1/main"]
    [chain] = entry["equivalences"]
    chain["chain"][0] = ["0"] * 16
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [line for line in out.splitlines() if not line.startswith("[PASS]")]
    assert failed[0] == ("[FAIL] rr3_1/equiv:normalize/step0  "
                         "residual: LckError: candidate automorphism is singular  "
                         "at {w14=3, w23=-4}")
    assert failed[1].startswith("[FAIL] rr3_1/equiv:normalize/normal_form  ")
    assert failed[2].endswith(" passed, 2 failed")


@pytest.mark.parametrize("entry_id, change", [
    ("h4", lambda e: e["no_lck"][0].update(theta="e4 +")),
    ("h4", lambda e: e["replays"][0].update(theta="e4 +")),
    ("rh3", lambda e: e["equivalences"][0].update(start_omega="e4 +")),
], ids=["no-lck-theta", "replay-theta", "equivalence-start-omega"])
def test_unreadable_driver_text_is_a_failing_record(tmp_path, capsys, entry_id, change):
    """Text that only a driver reads, and cannot read, fails one record
    ENTRY/verify; the other entry is still verified and the full report is
    printed with exit 1."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    doc["entries"] = [e for e in doc["entries"] if e["id"] in ("h4", "rh3")]
    doc["table_rows"] = ["rh3/main"]
    change(next(e for e in doc["entries"] if e["id"] == entry_id))
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("[PASS]")][:-1] == [
        f"[FAIL] {entry_id}/verify  residual: ParseError: "
        "unexpected end of input in 'e4 +'"]
    other = "rh3" if entry_id == "h4" else "h4"
    assert any(line.startswith(f"[PASS] {other}/") for line in lines)
    assert lines[-1].endswith(" passed, 1 failed")


@pytest.mark.parametrize("entry_id, change, location", [
    ("rr3p_gamma", lambda e: e.update(center_witness={"g": "abc"}),
     "$.entries[0].center_witness: cannot read {'g': 'abc'}: "
     "Invalid literal for Fraction: 'abc'"),
    ("rr3_1", lambda e: e["automorphisms"][0]["samples"][0].update(a22="1/0"),
     "$.entries[0].automorphisms[0].samples[0]: cannot read "
     "{'a22': '1/0', 'a23': '0'}: Fraction(1, 0)"),
    ("rh3", lambda e: e.update(salamon=5), "$.entries[0].salamon: expected a string, got 5"),
    ("rh3", lambda e: e.update(params=5), "$.entries[0].params: expected a list, got 5"),
    ("rh3", lambda e: e["complex_structures"][0].update(matrix=5),
     "$.entries[0].complex_structures[0].matrix: expected a list, got 5"),
    ("rh3", lambda e: e["equivalences"][0]["witness"].update(t1="abc"),
     "$.entries[0].equivalences[0].witness: cannot read "
     "{'t1': 'abc', 't2': '1', 't4': '-4', 'w34': '1'}: Invalid literal for Fraction: 'abc'"),
], ids=["center-witness", "automorphism-sample", "salamon", "params", "j-matrix",
        "equivalence-witness"])
def test_unreadable_catalog_value_is_a_located_usage_error(tmp_path, capsys, entry_id,
                                                           change, location):
    """A catalog value of the wrong JSON type, or a point that is not
    rational, fails at load with its JSON path and exit 2, equivalence
    witnesses included, which only a driver uses."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    [entry] = [e for e in doc["entries"] if e["id"] == entry_id]
    doc["entries"] = [entry]
    doc["table_rows"] = [r for r in doc["table_rows"] if r.startswith(f"{entry_id}/")]
    change(entry)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-table", "--catalog", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: --catalog: cannot read {path}: {location}\n"


def _rr3_1_catalog(tmp_path, change):
    """A catalog of `rr3_1` alone, its entry edited by `change`."""
    from lckverify.catalog import builtin_catalog_text

    doc = json.loads(builtin_catalog_text())
    [entry] = [e for e in doc["entries"] if e["id"] == "rr3_1"]
    doc["entries"], doc["table_rows"] = [entry], ["rr3_1/main"]
    change(entry)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return path


def test_undefined_chain_step_is_a_failing_record(tmp_path, capsys):
    """A chain step undefined at its witness (1/sqrt(-w23) at w23 = 0) fails
    its record, the forms are not carried past it, and the full report is
    printed with exit 1."""
    def change(entry):
        entry["equivalences"][0]["witness"] = {"w14": "3", "w23": "0"}

    assert run(["verify-table", "--catalog", str(_rr3_1_catalog(tmp_path, change))]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if not line.startswith("[PASS]")] == [
        "[FAIL] rr3_1/equiv:normalize/step0  "
        "residual: LckError: division by zero in expression  at {w14=3, w23=0}",
        "[FAIL] rr3_1/equiv:normalize/normal_form  "
        "residual: not carried past the failing step0  at {w14=3, w23=0}",
        "18 passed, 2 failed",
    ]


def test_undefined_automorphism_at_a_sample_is_a_failing_record(tmp_path, capsys):
    """A candidate automorphism undefined at a sample fails that sample's
    record, and the full report is printed with exit 1."""
    def change(entry):
        [aut] = entry["automorphisms"]
        aut["matrix"][5] = "a22/a23"

    assert run(["verify-table", "--catalog", str(_rr3_1_catalog(tmp_path, change))]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if not line.startswith("[PASS]")][0] == (
        "[FAIL] rr3_1/aut:rotation@0  automorphism=False complex-linear=False  "
        "residual: LckError: division by zero in expression  at {a22=1, a23=0}")
