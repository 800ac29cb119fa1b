"""The built-in catalog of structures and its verification drivers.

Every record of the classification table is stored as data: structure
equations, complex structures (dual matrices, exactly as printed in the
sources), lcK families with constraints and rational witnesses, the
excluded Lee-form families with their positivity obstructions, the
automorphism families, and normalizing chains.

`verify_entry` replays all checks for one algebra; `verify_catalog`
runs the whole table.  The driver never trusts the data: identities are
recomputed symbolically and sign conditions re-evaluated at witnesses,
so a transcription error anywhere surfaces as a failed check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from importlib import resources

from . import linalg
from .errors import SchemaError
from .exterior import KForm, parse_form
from .hermitian import (
    ComplexStructure,
    commutes_with,
    coframe_substitution,
    is_automorphism,
    is_complex_structure,
)
from .lck import Constraint, LcKStructure, lee_form, vaisman_test, verify_lck
from .liealg import parse_salamon
from .scalars import QQ, ScalarField, eval_expression
from .solver import (
    degeneracy_certificate,
    lck_space,
    positivity_clash,
    satisfies_conditions,
    twisted_closed_space,
)

SCHEMA_VERSION = 1

_COMPARATORS = (">=", "<=", "!=", ">", "<", "=")


def parse_constraint(field, text):
    for op in _COMPARATORS:
        if op in text:
            lhs, rhs = text.split(op, 1)
            expr = field.parse(lhs) - field.parse(rhs)
            return Constraint(expr, op)
    raise SchemaError(text, "constraint needs one of " + " ".join(_COMPARATORS))


def _fractions(d):
    return {k: Fraction(v) for k, v in d.items()}


@dataclass
class JRecord:
    name: str
    matrix: list
    params: list = dataclass_field(default_factory=list)
    note: str = ""


@dataclass
class AutRecord:
    name: str
    matrix: list
    params: list = dataclass_field(default_factory=list)
    constraints: list = dataclass_field(default_factory=list)
    samples: list = dataclass_field(default_factory=list)
    J: str = ""
    note: str = ""


@dataclass
class FamilyRecord:
    name: str
    J: str
    theta: str
    omega: str
    params: list = dataclass_field(default_factory=list)
    constraints: list = dataclass_field(default_factory=list)
    witnesses: list = dataclass_field(default_factory=list)
    vaisman: object = "never"  # "always" | "never" | {"iff": [...]}
    vaisman_vector: str = ""
    note: str = ""


@dataclass
class NoLckRecord:
    name: str
    J: str
    theta: str
    params: list = dataclass_field(default_factory=list)
    space: str = "twisted"  # or "lck"
    kind: str = "vanishing"  # or "negative_pair"
    v: int = 1
    u: int = 0
    note: str = ""


@dataclass
class ReplayRecord:
    name: str
    J: str
    theta: str
    params: list = dataclass_field(default_factory=list)
    twisted_dim: int = 0
    lck_dim: int = 0
    note: str = ""


@dataclass
class EquivalenceRecord:
    name: str
    J: str
    start_theta: str
    start_omega: str
    chain: list = dataclass_field(default_factory=list)
    params: list = dataclass_field(default_factory=list)
    witness: dict = dataclass_field(default_factory=dict)
    expected_theta: str = ""
    expected_omega: str = ""
    note: str = ""


@dataclass
class CatalogEntry:
    id: str
    salamon: str
    params: list = dataclass_field(default_factory=list)
    param_constraints: list = dataclass_field(default_factory=list)
    center_witness: dict = dataclass_field(default_factory=dict)
    center_basis: list = None
    complex_structures: list = dataclass_field(default_factory=list)
    automorphisms: list = dataclass_field(default_factory=list)
    lck_families: list = dataclass_field(default_factory=list)
    no_lck: list = dataclass_field(default_factory=list)
    replays: list = dataclass_field(default_factory=list)
    equivalences: list = dataclass_field(default_factory=list)
    notes: list = dataclass_field(default_factory=list)

    # -- builders ---------------------------------------------------------

    def field_for(self, *groups):
        names = list(self.params)
        for group in groups:
            for p in group:
                if p not in names:
                    names.append(p)
        return ScalarField(tuple(names))

    def algebra(self, field=None):
        field = field or self.field_for()
        return parse_salamon(self.salamon, field=field, name=self.id)

    def j_record(self, name):
        for rec in self.complex_structures:
            if rec.name == name:
                return rec
        raise SchemaError(f"{self.id}", f"unknown complex structure {name!r}")

    def complex_structure(self, name, field=None):
        rec = self.j_record(name)
        field = field or self.field_for(rec.params)
        g = self.algebra(field)
        n = g.dim
        matrix = [[field.parse(rec.matrix[i * n + j]) for j in range(n)]
                  for i in range(n)]
        return ComplexStructure(g, matrix, name=f"{self.id}.{name}")

    def family_structure(self, fam, extra_params=()):
        jrec = self.j_record(fam.J)
        field = self.field_for(jrec.params, fam.params, extra_params)
        g = self.algebra(field)
        J = self.complex_structure(fam.J, field)
        theta = parse_form(field, g.dim, fam.theta, degree=1)
        omega = parse_form(field, g.dim, fam.omega, degree=2)
        constraints = [parse_constraint(field, c) for c in fam.constraints]
        witnesses = [_fractions(w) for w in fam.witnesses]
        return LcKStructure(g, J, theta, omega, constraints, witnesses,
                            name=f"{self.id}/{fam.name}")


@dataclass
class Catalog:
    entries: list
    table_rows: list

    def get(self, entry_id):
        for e in self.entries:
            if e.id == entry_id:
                return e
        raise SchemaError(entry_id, "no such catalog entry")

    def family_ids(self):
        return [f"{e.id}/{f.name}" for e in self.entries for f in e.lck_families]


# -- loading -------------------------------------------------------------------


def _dataclass_from(cls, raw, location):
    try:
        return cls(**raw)
    except TypeError as exc:
        raise SchemaError(location, str(exc)) from None


def load_catalog(text):
    """Parse and cross-validate a catalog document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("$.schema_version",
                          f"expected {SCHEMA_VERSION}, got {doc.get('schema_version')}")
    entries = []
    for i, raw in enumerate(doc.get("entries", [])):
        loc = f"$.entries[{i}]"
        raw = dict(raw)
        for key, cls in (("complex_structures", JRecord),
                         ("automorphisms", AutRecord),
                         ("lck_families", FamilyRecord),
                         ("no_lck", NoLckRecord),
                         ("replays", ReplayRecord),
                         ("equivalences", EquivalenceRecord)):
            raw[key] = [_dataclass_from(cls, r, f"{loc}.{key}[{k}]")
                        for k, r in enumerate(raw.get(key, []))]
        entry = _dataclass_from(CatalogEntry, raw, loc)
        _validate_entry(entry, loc)
        entries.append(entry)
    catalog = Catalog(entries, doc.get("table_rows", []))
    missing = [r for r in catalog.table_rows if r not in catalog.family_ids()]
    if missing:
        raise SchemaError("$.table_rows", f"rows without catalog data: {missing}")
    extra = [r for r in catalog.family_ids() if r not in catalog.table_rows]
    if extra:
        raise SchemaError("$.table_rows", f"families missing from the manifest: {extra}")
    return catalog


def _validate_entry(entry, loc):
    n = len(entry.salamon.split(","))
    names = set()
    for j, rec in enumerate(entry.complex_structures):
        if rec.name in names:
            raise SchemaError(f"{loc}.complex_structures[{j}]",
                              f"duplicate name {rec.name!r}")
        names.add(rec.name)
        if len(rec.matrix) != n * n:
            raise SchemaError(f"{loc}.complex_structures[{j}]",
                              f"matrix needs {n * n} entries, got {len(rec.matrix)}")
    for j, fam in enumerate(entry.lck_families):
        floc = f"{loc}.lck_families[{j}]"
        if fam.J not in names:
            raise SchemaError(floc, f"unknown complex structure {fam.J!r}")
        if len(fam.witnesses) < 2:
            raise SchemaError(floc, "every family needs at least two witnesses")
        try:
            s = entry.family_structure(fam)
        except SchemaError:
            raise
        except Exception as exc:
            raise SchemaError(floc, f"cannot build structure: {exc}") from None
        for k, w in enumerate(s.witnesses):
            for c in s.constraints:
                if not c.holds_at(w):
                    raise SchemaError(f"{floc}.witnesses[{k}]",
                                      f"violates constraint {c}")
            if s.theta.instantiate(w).is_zero():
                raise SchemaError(f"{floc}.witnesses[{k}]", "theta vanishes")
        if isinstance(fam.vaisman, dict):
            keys = set(fam.vaisman) - {"iff"}
            if keys:
                raise SchemaError(floc, f"bad vaisman keys {keys}")
        elif fam.vaisman not in ("always", "never"):
            raise SchemaError(floc, f"bad vaisman value {fam.vaisman!r}")
    for j, rec in enumerate(entry.no_lck):
        if rec.J not in names:
            raise SchemaError(f"{loc}.no_lck[{j}]", f"unknown complex structure {rec.J!r}")
        if rec.kind not in ("vanishing", "negative_pair"):
            raise SchemaError(f"{loc}.no_lck[{j}]", f"bad obstruction kind {rec.kind!r}")
        if rec.space not in ("twisted", "lck"):
            raise SchemaError(f"{loc}.no_lck[{j}]", f"bad space {rec.space!r}")


def builtin_catalog_text():
    return resources.files("lckverify.data").joinpath("builtin_catalog.json").read_text()


def load_builtin():
    return load_catalog(builtin_catalog_text())


# -- verification drivers ------------------------------------------------------------


@dataclass
class Check:
    id: str
    status: str  # "pass" | "fail"
    residual: str = ""
    witness: object = None
    note: str = ""

    @property
    def passed(self):
        return self.status == "pass"


def _check(records, cid, ok, residual="", witness=None, note=""):
    records.append(Check(cid, "pass" if ok else "fail", residual=residual,
                         witness=witness, note=note))


def _span_equal(basis_a, basis_b, dim):
    """Exact equality of row spans over QQ."""
    if len(basis_a) != len(basis_b):
        return False
    if not basis_a:
        return True
    stacked = [list(v) for v in basis_a] + [list(v) for v in basis_b]
    return (linalg.rank(stacked, dim) == linalg.rank([list(v) for v in basis_a], dim)
            == len(basis_a))


def verify_entry(entry):
    """All checks for one catalog entry, as a stable-ordered record list."""
    records = []
    g = entry.algebra()
    _check(records, f"{entry.id}/jacobi", g.jacobi_holds())

    if entry.center_basis is not None:
        witness = _fractions(entry.center_witness)
        got = g.center(witness)
        expected = []
        for text in entry.center_basis:
            vec_form = parse_form(QQ, g.dim, text, degree=1)
            expected.append([vec_form.coeffs.get((i,), QQ.zero())
                             for i in range(1, g.dim + 1)])
        ok = _span_equal(got, expected, g.dim)
        _check(records, f"{entry.id}/center", ok,
               witness=entry.center_witness or None,
               residual="" if ok else f"got {[[str(x) for x in v] for v in got]}")

    for rec in entry.complex_structures:
        field = entry.field_for(rec.params)
        J = entry.complex_structure(rec.name, field)
        ok = is_complex_structure(entry.algebra(field), J)
        _check(records, f"{entry.id}/J:{rec.name}/complex", ok, note=rec.note)

    for rec in entry.automorphisms:
        records.extend(_verify_automorphism(entry, rec))

    for fam in entry.lck_families:
        records.extend(_verify_family(entry, fam))

    for rec in entry.no_lck:
        records.extend(_verify_no_lck(entry, rec))

    for rec in entry.replays:
        records.extend(_verify_replay(entry, rec))

    return records


def _verify_automorphism(entry, rec):
    records = []
    field = entry.field_for(rec.params)
    n = len(entry.salamon.split(","))
    samples = rec.samples or [{}]
    for k, sample in enumerate(samples):
        assignment = dict(_fractions(entry.center_witness))
        assignment.update(_fractions(sample))
        gq = entry.algebra(field).instantiate(assignment)
        matrix = [[QQ.scalar(eval_expression(rec.matrix[i * n + j], assignment))
                   for j in range(n)] for i in range(n)]
        ok = is_automorphism(gq, matrix)
        constraint_ok = all(parse_constraint(field, c).holds_at(assignment)
                            for c in rec.constraints)
        commute_ok = not rec.J or commutes_with(
            matrix, entry.complex_structure(rec.J).instantiate(assignment))
        _check(records, f"{entry.id}/aut:{rec.name}@{k}",
               ok and constraint_ok and commute_ok, witness=sample,
               note="" if ok and constraint_ok and commute_ok else
               f"automorphism={ok} constraint={constraint_ok} complex-linear={commute_ok}")
    return records


def _verify_family(entry, fam):
    records = []
    s = entry.family_structure(fam)
    prefix = f"{entry.id}/lck:{fam.name}"
    report = verify_lck(s)
    seen = {}
    for c in report.checks:
        suffix = ""
        if c.witness is not None:
            k = seen.get(c.check, 0)
            seen[c.check] = k + 1
            suffix = f"@{k}"
        _check(records, f"{prefix}/{c.check}{suffix}", c.passed,
               residual=c.residual, witness=c.witness, note=c.note)

    if s.algebra.dim == 4:
        try:
            theta, closed = lee_form(s.algebra, s.omega)
            roundtrip = closed and (theta - s.theta).is_zero()
            residual = "" if roundtrip else f"lee form {theta}"
        except Exception as exc:  # Degenerate cannot happen on verified rows
            roundtrip, residual = False, f"{type(exc).__name__}: {exc}"
        _check(records, f"{prefix}/lee_roundtrip", roundtrip, residual=residual)

    for k, w in enumerate(s.witnesses):
        expected = fam.vaisman
        if isinstance(expected, dict):
            field = s.algebra.field
            want = all(parse_constraint(field, c).holds_at(w) for c in expected["iff"])
        else:
            want = expected == "always"
        got, A = vaisman_test(s, w)
        ok = got == want
        note = ""
        if ok and fam.vaisman_vector:
            vec_form = parse_form(s.algebra.field, s.algebra.dim,
                                  fam.vaisman_vector, degree=1)
            vec = [vec_form.coeffs.get((i,), s.algebra.field.zero()).eval(w)
                   for i in range(1, s.algebra.dim + 1)]
            ok = vec == A
            note = "" if ok else f"expected A={vec}, got {A}"
        _check(records, f"{prefix}/vaisman@{k}", ok, witness=w,
               note=note or ("" if ok else f"expected {want}, got {got}"))
    return records


def _lee_setup(entry, rec):
    """Algebra, J and theta of a no-lcK or replay record, over one field."""
    field = entry.field_for(entry.j_record(rec.J).params, rec.params)
    g = entry.algebra(field)
    J = entry.complex_structure(rec.J, field)
    return g, J, parse_form(field, g.dim, rec.theta, degree=1)


def _verify_no_lck(entry, rec):
    records = []
    g, J, theta = _lee_setup(entry, rec)
    space = (lck_space(g, J, theta) if rec.space == "lck"
             else twisted_closed_space(g, theta))
    sound = satisfies_conditions(space, g, theta, J if rec.space == "lck" else None)
    if rec.kind == "vanishing":
        ok = degeneracy_certificate(space, J, rec.v)
    else:
        ok = positivity_clash(space, J, rec.u, rec.v)
    _check(records, f"{entry.id}/nolck:{rec.name}", ok and sound,
           note=rec.note if ok and sound else
           f"obstruction={ok} soundness={sound} dim={space.dimension}")
    return records


def _verify_replay(entry, rec):
    records = []
    g, J, theta = _lee_setup(entry, rec)
    twisted = twisted_closed_space(g, theta)
    full = lck_space(g, J, theta)
    ok = (twisted.dimension == rec.twisted_dim and full.dimension == rec.lck_dim
          and satisfies_conditions(twisted, g, theta)
          and satisfies_conditions(full, g, theta, J))
    _check(records, f"{entry.id}/replay:{rec.name}", ok,
           note="" if ok else
           f"twisted {twisted.dimension} (want {rec.twisted_dim}), "
           f"lck {full.dimension} (want {rec.lck_dim})")
    return records


def verify_equivalence(entry):
    """Replay each normalizing chain at its radical-free witness."""
    records = []
    for rec in entry.equivalences:
        prefix = f"{entry.id}/equiv:{rec.name}"
        jrec = entry.j_record(rec.J)
        field = entry.field_for(jrec.params, rec.params)
        g = entry.algebra(field)
        n = g.dim
        witness = _fractions(rec.witness)
        gq = g.instantiate(witness)
        Jq = entry.complex_structure(rec.J, field).instantiate(witness)

        theta = parse_form(field, n, rec.start_theta, degree=1).instantiate(witness)
        omega = parse_form(field, n, rec.start_omega, degree=2).instantiate(witness)
        all_ok = True
        for k, step in enumerate(rec.chain):
            matrix = [[QQ.scalar(eval_expression(step[i * n + j], witness))
                       for j in range(n)] for i in range(n)]
            step_ok = is_automorphism(gq, matrix) and commutes_with(matrix, Jq)
            _check(records, f"{prefix}/step{k}", step_ok, witness=rec.witness)
            all_ok = all_ok and step_ok
            theta = coframe_substitution(matrix, theta)
            omega = coframe_substitution(matrix, omega)
        want_theta = parse_form(field, n, rec.expected_theta, degree=1).instantiate(witness)
        want_omega = parse_form(field, n, rec.expected_omega, degree=2).instantiate(witness)
        final_ok = theta == want_theta and omega == want_omega
        _check(records, f"{prefix}/normal_form", final_ok, witness=rec.witness,
               residual="" if final_ok else f"got theta={theta}, omega={omega}")
    return records


def verify_catalog(catalog, entry_ids=None):
    """Verify entries (all by default), ordered by entry id."""
    records = []
    for eid in sorted(set(entry_ids or [e.id for e in catalog.entries])):
        entry = catalog.get(eid)
        records.extend(verify_entry(entry) + verify_equivalence(entry))
    return records


def mutate_omega_sign(entry, fam, index):
    """The family with the sign of one stored Omega term flipped.

    Used by the mutation smoke test: any single sign flip must make at
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
