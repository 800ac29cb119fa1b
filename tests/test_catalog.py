"""Loading, cross-validation, and row-level verification of the catalog."""

import gc
import json
import random
import weakref

import pytest

import lckverify.catalog as catalog_module
from lckverify.catalog import (
    builtin_catalog_text,
    load_builtin,
    load_catalog,
    verify_catalog,
    verify_entry,
    verify_equivalence,
)
from lckverify.errors import LckError, SchemaError
from lckverify.exterior import KForm
from lckverify.lck import Constraint, LcKStructure, lee_form, verify_lck


def mutate_omega_sign(entry, fam, index):
    """The family with the sign of one stored Omega term flipped.

    Used by the mutation smoke tests: any single sign flip must make at
    least one verification check fail.
    """
    s = entry.family_structure(fam)
    keys = sorted(s.omega.coeffs)
    key = keys[index % len(keys)]
    coeffs = dict(s.omega.coeffs)
    coeffs[key] = -coeffs[key]
    mutated = KForm(s.algebra.field, s.algebra.dim, 2, coeffs)
    return LcKStructure(s.algebra, s.J, s.theta, mutated, s.constraints,
                        s.witnesses, name=s.name + "~mut")


@pytest.fixture(scope="module")
def catalog():
    return load_builtin()


def test_counts(catalog):
    assert len(catalog.entries) >= 18
    assert sum(len(e.complex_structures) for e in catalog.entries) >= 25
    assert len(catalog.family_ids()) >= 30
    assert catalog.table_rows == catalog.family_ids()


def test_load_empty_catalog():
    cat = load_catalog('{"schema_version": 1, "entries": []}')
    assert cat.entries == []


def test_load_rejects_bad_schema_version():
    with pytest.raises(SchemaError):
        load_catalog('{"schema_version": 99, "entries": []}')


@pytest.mark.parametrize("text, error", [
    ("[]", "$: expected an object, got []"),
    ('{"schema_version": 1, "entries": 5}', "$.entries: expected a list, got 5"),
    ('{"schema_version": 1, "entries": [5]}', "$.entries[0]: "),
], ids=["document", "entries", "entry"])
def test_load_rejects_a_document_of_the_wrong_shape(text, error):
    with pytest.raises(SchemaError) as err:
        load_catalog(text)
    assert str(err.value).startswith(error)


def test_load_rejects_witness_outside_region():
    doc = json.loads(builtin_catalog_text())
    entry = next(e for e in doc["entries"] if e["id"] == "rh3")
    entry["lck_families"][0]["witnesses"][0] = {"s": "-1"}  # violates s > 0
    with pytest.raises(SchemaError) as err:
        load_catalog(json.dumps(doc))
    assert "witnesses[0]" in str(err.value)


def _load_with(entry_id, change):
    """Load the built-in catalog after `change(entry)` on one raw entry."""
    doc = json.loads(builtin_catalog_text())
    change(next(e for e in doc["entries"] if e["id"] == entry_id))
    load_catalog(json.dumps(doc))


@pytest.mark.parametrize("entry_id, change, location, message", [
    ("rr3p_gamma", lambda e: e.update(param_constraints=["g >> zz"]),
     "param_constraints[0]", "unexpected token"),
    ("rr3p_gamma", lambda e: e.update(param_constraints=["g > zz"]),
     "param_constraints[0]", "unknown parameter 'zz'"),
    ("rr3p_gamma", lambda e: e.update(param_constraints=["g > 0", "g"]),
     "param_constraints[1]", "constraint needs one of"),
    ("rr3p_gamma", lambda e: e.update(param_constraints=["g < 0"]),
     "center_witness", "violates constraint g < 0"),
    # a family witness outside a loosened exclusion of the entry: l = 3
    ("d4_lambda", lambda e: e.update(param_constraints=["2*l-1 > 0", "l != 3"]),
     "lck_families[0].witnesses[1]", "violates constraint l - 3 != 0"),
    ("rh3", lambda e: e["automorphisms"][0]["samples"][0].update(a11="0"),
     "automorphisms[0].samples[0]", "violates constraint a11^2 + a12^2 != 0"),
    ("rh3", lambda e: e["automorphisms"][0].update(constraints=["a11^2 +"]),
     "automorphisms[0].constraints[0]", "cannot read"),
    ("rh3", lambda e: e["lck_families"][0].update(constraints=["s > 0", "s >"]),
     "lck_families[0].constraints[1]", "cannot read"),
    ("gl2", lambda e: e["lck_families"][0]["vaisman"].update(iff=["w23 = 0", "w12 w13"]),
     "lck_families[0].vaisman.iff[1]", "cannot read 'w12 w13'"),
], ids=["param-bad-syntax", "param-unknown-name", "param-no-comparator",
        "param-center-witness-outside", "param-family-witness-outside",
        "aut-sample-outside", "aut-bad-syntax", "family-bad-syntax", "vaisman-iff-bad"])
def test_load_reads_every_region_and_checks_every_point(entry_id, change, location,
                                                        message):
    """Each constraint string is read at load, conjoined with the entry's
    parameter constraints, and every stored point is checked against its
    region; a fault is a SchemaError at its JSON path."""
    with pytest.raises(SchemaError) as err:
        _load_with(entry_id, change)
    ids = [e["id"] for e in json.loads(builtin_catalog_text())["entries"]]
    assert err.value.location == f"$.entries[{ids.index(entry_id)}].{location}"
    assert message in err.value.message


@pytest.mark.parametrize("change, message", [
    (lambda f: f["witnesses"][0].update(s="abc"), "Invalid literal for Fraction: 'abc'"),
    (lambda f: f["witnesses"][0].update(s=[1]),
     "argument should be a string or a Rational instance"),
    (lambda f: f["witnesses"][0].update(s="1/0"), "Fraction(1, 0)"),
    (lambda f: f.update(witnesses=[1, 2]), "'int' object has no attribute 'items'"),
    (lambda f: f.update(theta="e1 +"), "unexpected end of input in 'e1 +'"),
], ids=["ValueError", "TypeError", "ZeroDivisionError", "AttributeError", "ParseError"])
def test_unbuildable_family_is_a_located_schema_error(change, message):
    """Each type of error that bad family text raises while its structure is
    built is a SchemaError at the family's JSON path."""
    with pytest.raises(SchemaError) as err:
        _load_with("rh3", lambda e: change(e["lck_families"][0]))
    ids = [e["id"] for e in json.loads(builtin_catalog_text())["entries"]]
    assert str(err.value) == (f"$.entries[{ids.index('rh3')}].lck_families[0]: "
                              f"cannot build structure: {message}")


@pytest.mark.parametrize("entry_id, change, location, message", [
    ("rh3", lambda e: e["lck_families"][0].update(params="s"),
     "lck_families[0].params", "expected a list, got 's'"),
    ("rh3", lambda e: e["lck_families"][0].update(constraints="s > 0"),
     "lck_families[0].constraints", "expected a list, got 's > 0'"),
    ("gl2", lambda e: e["lck_families"][0]["vaisman"].update(iff="w23 = 0"),
     "lck_families[0]", "bad vaisman value {'iff': 'w23 = 0'}"),
], ids=["params", "constraints", "vaisman-iff"])
def test_a_string_for_a_list_is_a_schema_error(entry_id, change, location, message):
    """A string where the schema wants a list of strings is not read
    character by character: loading fails at its JSON path."""
    with pytest.raises(SchemaError) as err:
        _load_with(entry_id, change)
    ids = [e["id"] for e in json.loads(builtin_catalog_text())["entries"]]
    assert err.value.location == f"$.entries[{ids.index(entry_id)}].{location}"
    assert err.value.message == message


def test_regions_are_parsed_once_at_load(monkeypatch):
    """After loading, verifying the whole table twice parses no constraint:
    family, automorphism and Vaisman regions are read from the records."""
    cat = load_builtin()

    def refuse(cls, field, text):
        raise AssertionError(f"constraint {text!r} parsed after load")

    monkeypatch.setattr(Constraint, "parse", classmethod(refuse))
    for _ in range(2):
        records = verify_catalog(cat)
        assert len(records) == 543
        assert all(r.passed for r in records)


def test_family_region_carries_the_entry_constraints(catalog):
    entry = catalog.get("d4_lambda")
    s = entry.family_structure(entry.lck_families[0])
    assert [str(c) for c in s.constraints] == [
        "2*l - 1 > 0", "l - 1 != 0", "s > 0", "l - 2 != 0"]


def test_load_rejects_unknown_j_reference():
    doc = json.loads(builtin_catalog_text())
    entry = next(e for e in doc["entries"] if e["id"] == "rh3")
    entry["lck_families"][0]["J"] = "nonsense"
    with pytest.raises(SchemaError):
        load_catalog(json.dumps(doc))


def test_load_rejects_manifest_mismatch():
    doc = json.loads(builtin_catalog_text())
    doc["table_rows"] = doc["table_rows"][:-1]
    with pytest.raises(SchemaError) as err:
        load_catalog(json.dumps(doc))
    assert "manifest" in str(err.value)


def test_verify_entry_rh3(catalog):
    records = verify_entry(catalog.get("rh3"))
    assert all(r.passed for r in records)
    ids = [r.id for r in records]
    assert "rh3/jacobi" in ids
    assert "rh3/center" in ids
    assert "rh3/J:J/complex" in ids
    assert any(i.startswith("rh3/lck:main/vaisman") for i in ids)


def test_failing_complex_structure_names_its_nijenhuis_component():
    """J e1 = e3, J e2 = e4 squares to -1 on rh3 but is not integrable:
    the failing `complex` record carries N(e1, e2) = -[e1, e2] = -e3."""
    doc = json.loads(builtin_catalog_text())
    entry = next(e for e in doc["entries"] if e["id"] == "rh3")
    entry["complex_structures"].append(
        {"name": "swap", "matrix": ["0", "0", "-1", "0", "0", "0", "0", "-1",
                                    "1", "0", "0", "0", "0", "1", "0", "0"]})
    [failed] = [r for r in verify_entry(load_catalog(json.dumps(doc)).get("rh3"))
                if not r.passed]
    assert (failed.id, failed.residual) == ("rh3/J:swap/complex", "N(e1, e2) = (0, 0, -1, 0)")


def test_lee_form_error_is_a_failing_record_and_a_bug_propagates(catalog, monkeypatch):
    def degenerate(g, omega):
        raise LckError("omega is degenerate")

    monkeypatch.setattr(catalog_module, "lee_form", degenerate)
    records = [r for r in verify_entry(catalog.get("rh3"))
               if r.id.endswith("/lee_roundtrip")]
    assert records
    for r in records:
        assert not r.passed
        assert "omega is degenerate" in r.residual

    def bug(g, omega):
        raise ZeroDivisionError("a programming error")

    monkeypatch.setattr(catalog_module, "lee_form", bug)
    with pytest.raises(ZeroDivisionError, match="a programming error"):
        verify_entry(catalog.get("rh3"))
    with pytest.raises(ZeroDivisionError, match="a programming error"):
        verify_catalog(catalog, ["rh3"])


def test_verify_entry_d4p_delta_never_vaisman(catalog):
    records = verify_entry(catalog.get("d4p_delta"))
    assert all(r.passed for r in records)


def test_verify_entry_h4_obstructions(catalog):
    records = verify_entry(catalog.get("h4"))
    assert all(r.passed for r in records)
    assert any(r.id.startswith("h4/nolck:") for r in records)


def test_verify_equivalences(catalog):
    for eid in ("rh3", "rr3_1"):
        records = verify_equivalence(catalog.get(eid))
        assert records and all(r.passed for r in records)
        assert any(r.id.endswith("normal_form") for r in records)


def test_identity_chain_is_a_no_op(catalog):
    import copy

    entry = copy.deepcopy(catalog.get("rr3_1"))
    chain = entry.equivalences[0]
    chain.chain = [["1", "0", "0", "0", "0", "1", "0", "0",
                    "0", "0", "1", "0", "0", "0", "0", "1"]]
    chain.expected_theta = chain.start_theta
    chain.expected_omega = chain.start_omega
    records = verify_equivalence(entry)
    assert all(r.passed for r in records)


def test_complex_structure_is_built_once_per_parameter_list(catalog):
    entry = catalog.get("gl2")
    name = entry.complex_structures[0].name
    J = entry.complex_structure(name, ["x"])
    assert entry.complex_structure(name, ["x"]) is J
    assert J.algebra is entry.algebra(entry.j_record(name).params, ["x"])
    assert J.field.vars[-1] == "x"
    assert entry.complex_structure(name) is not J


def test_family_structure_is_built_once_per_parameter_list(catalog):
    entry = catalog.get("gl2")
    fam = entry.lck_families[0]
    s = entry.family_structure(fam)
    assert entry.family_structure(fam) is s
    assert s.J is entry.complex_structure(fam.J, fam.params)
    assert entry.family_structure(fam, ["x"]) is not s


def test_verify_catalog_drops_the_entry_cache():
    """What an entry builds lives only until its records are done, so a
    full run holds one entry's objects at a time.  The family structures
    that loading validated are the ones verified."""
    cat = load_builtin()
    entry = cat.get("rh3")
    built = [entry.algebra()] + [entry.family_structure(f) for f in entry.lck_families]
    refs = [weakref.ref(x) for x in built]
    del built
    again = [entry.algebra()] + [entry.family_structure(f) for f in entry.lck_families]
    assert all(r() is x for r, x in zip(refs, again))
    del again
    records = verify_catalog(cat, ["rh3"])
    gc.collect()
    assert records and [r() for r in refs] == [None] * len(refs)


def test_full_catalog_passes(catalog):
    records = verify_catalog(catalog)
    failures = [r for r in records if not r.passed]
    assert not failures, failures


def test_catalog_records_are_ordered_by_entry_id(catalog):
    records = verify_catalog(catalog, entry_ids=["rh3", "u2", "gl2"])
    expected = []
    for eid in ("gl2", "rh3", "u2"):
        entry = catalog.get(eid)
        expected += verify_entry(entry) + verify_equivalence(entry)
    assert records == expected


def test_d_squared_zero_on_random_forms(catalog):
    """d^2 = 0 beyond the coframe, symbolically, for every catalog algebra."""
    from lckverify.exterior import KForm, basis_tuples

    rng = random.Random(21)
    for entry in catalog.entries:
        g = entry.algebra()
        F = g.field
        for degree in (1, 2):
            coeffs = {idx: F.scalar(rng.randint(-2, 2))
                      for idx in basis_tuples(4, degree)}
            form = KForm(F, 4, degree, coeffs)
            assert g.ce_d(g.ce_d(form)).is_zero(), entry.id


def test_ad_bracket_identity_all_entries(catalog):
    """ad_[x,y] = [ad_x, ad_y] on random vectors for every catalog algebra."""
    from lckverify import linalg

    rng = random.Random(23)
    for entry in catalog.entries:
        g = entry.algebra()
        F = g.field
        x = [F.scalar(rng.randint(-2, 2)) for _ in range(4)]
        y = [F.scalar(rng.randint(-2, 2)) for _ in range(4)]
        lhs = g.ad_matrix(g.bracket(x, y))
        rhs = linalg.mat_sub(linalg.mat_mul(g.ad_matrix(x), g.ad_matrix(y)),
                             linalg.mat_mul(g.ad_matrix(y), g.ad_matrix(x)))
        assert linalg.mat_eq(lhs, rhs), entry.id


def test_mutation_smoke(catalog):
    """Flipping any single sign in five randomly chosen stored forms must
    break at least one check."""
    rng = random.Random(20260810)
    rows = [(e, f) for e in catalog.entries for f in e.lck_families]
    for entry, fam in rng.sample(rows, 5):
        nterms = len(entry.family_structure(fam).omega.coeffs)
        mutated = mutate_omega_sign(entry, fam, rng.randrange(nterms))
        report = verify_lck(mutated)
        broke = not report.passed
        if not broke:
            theta, closed = lee_form(mutated.algebra, mutated.omega)
            broke = not (closed and (theta - mutated.theta).is_zero())
        assert broke, f"{entry.id}/{fam.name} survived a sign flip"
