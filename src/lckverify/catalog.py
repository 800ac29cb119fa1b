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
from dataclasses import dataclass, field as dataclass_field, fields, replace
from fractions import Fraction
from importlib import resources
from itertools import chain

from . import linalg
from .errors import READ_ERRORS, LckError, SchemaError
from .exterior import parse_form
from .hermitian import (
    ComplexStructure,
    automorphism_residual,
    coframe_substitution,
    commutes_with,
    complex_residual,
    is_automorphism,
    is_complex_structure,
)
from .lck import Check, Constraint, LcKStructure, lee_form, vaisman_test, verify_lck
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


def rational_point(d):
    """The parameter point {name: Fraction} of a mapping to numbers or strings."""
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
    constraints: list = dataclass_field(default_factory=list)  # Constraints once loaded
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
    constraints: list = dataclass_field(default_factory=list)  # Constraints once loaded
    witnesses: list = dataclass_field(default_factory=list)
    vaisman: object = "never"  # "always" | "never" | {"iff": [constraints]}
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
    param_constraints: list = dataclass_field(default_factory=list)  # Constraints once loaded
    center_witness: dict = dataclass_field(default_factory=dict)
    center_basis: list = None
    complex_structures: list = dataclass_field(default_factory=list)
    automorphisms: list = dataclass_field(default_factory=list)
    lck_families: list = dataclass_field(default_factory=list)
    no_lck: list = dataclass_field(default_factory=list)
    replays: list = dataclass_field(default_factory=list)
    equivalences: list = dataclass_field(default_factory=list)
    notes: list = dataclass_field(default_factory=list)
    #: algebras by (None, names), Js by (name, names), family structures by
    #: (family, names, "lck"); dropped by `verify_catalog`
    _built: dict = dataclass_field(default_factory=dict, init=False, repr=False, compare=False)

    # -- builders ---------------------------------------------------------

    def names(self, *groups):
        """The params, then the new names of each group."""
        return tuple(dict.fromkeys(chain(self.params, *groups)))

    def algebra(self, *groups):
        """The algebra over QQ(`names(*groups)`), parsed once per name list."""
        key = (None, self.names(*groups))
        if key not in self._built:
            self._built[key] = parse_salamon(self.salamon, field=ScalarField(key[1]),
                                             name=self.id)
        return self._built[key]

    def j_record(self, name):
        for rec in self.complex_structures:
            if rec.name == name:
                return rec
        raise SchemaError(f"{self.id}", f"unknown complex structure {name!r}")

    def complex_structure(self, name, *groups):
        """J over the algebra of `algebra(J params, *groups)`, built once
        per name list; it carries that algebra and its field."""
        rec = self.j_record(name)
        g = self.algebra(rec.params, *groups)
        key = (name, g.field.vars)
        if key not in self._built:
            n = g.dim
            matrix = [[g.field.parse(rec.matrix[i * n + j]) for j in range(n)]
                      for i in range(n)]
            self._built[key] = ComplexStructure(g, matrix, name=f"{self.id}.{name}")
        return self._built[key]

    def family_structure(self, fam, extra_params=()):
        """The family's structure over the field of `complex_structure(fam.J,
        fam.params, extra_params)`, built once per name list."""
        J = self.complex_structure(fam.J, fam.params, extra_params)
        g, field = J.algebra, J.field
        key = (fam.name, field.vars, "lck")
        if key not in self._built:
            theta = parse_form(field, g.dim, fam.theta, degree=1)
            omega = parse_form(field, g.dim, fam.omega, degree=2)
            witnesses = [rational_point(w) for w in fam.witnesses]
            self._built[key] = LcKStructure(g, J, theta, omega, list(fam.constraints),
                                            witnesses, name=f"{self.id}/{fam.name}")
        return self._built[key]


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


_JSON_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
               "list": (list, "a list"), "dict": (dict, "an object")}


def _dataclass_from(cls, raw, location):
    """The record `cls` of the JSON object `raw`; each field annotated
    str, int, list or dict holds that JSON type, or None where that is
    its default."""
    try:
        record = cls(**raw)
    except TypeError as exc:
        raise SchemaError(location, str(exc)) from None
    for f in fields(cls):
        value = getattr(record, f.name)
        if f.type in _JSON_TYPES and not (value is None and f.default is None):
            kind, what = _JSON_TYPES[f.type]
            if not isinstance(value, kind):
                raise SchemaError(f"{location}.{f.name}", f"expected {what}, got {value!r}")
    return record


def load_catalog(text):
    """Parse and cross-validate a catalog document (JSON text), constraints included."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", f"expected an object, got {doc!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("$.schema_version",
                          f"expected {SCHEMA_VERSION}, got {doc.get('schema_version')}")
    catalog = _dataclass_from(Catalog, {"entries": doc.get("entries", []),
                                        "table_rows": doc.get("table_rows", [])}, "$")
    for i, raw in enumerate(catalog.entries):
        loc = f"$.entries[{i}]"
        entry = _dataclass_from(CatalogEntry, raw, loc)
        for key, cls in (("complex_structures", JRecord),
                         ("automorphisms", AutRecord),
                         ("lck_families", FamilyRecord),
                         ("no_lck", NoLckRecord),
                         ("replays", ReplayRecord),
                         ("equivalences", EquivalenceRecord)):
            setattr(entry, key, [_dataclass_from(cls, r, f"{loc}.{key}[{k}]")
                                 for k, r in enumerate(getattr(entry, key))])
        _validate_entry(entry, loc)
        catalog.entries[i] = entry
    missing = [r for r in catalog.table_rows if r not in catalog.family_ids()]
    if missing:
        raise SchemaError("$.table_rows", f"rows without catalog data: {missing}")
    extra = [r for r in catalog.family_ids() if r not in catalog.table_rows]
    if extra:
        raise SchemaError("$.table_rows", f"families missing from the manifest: {extra}")
    return catalog


def _region(field, texts, location, base=()):
    """`base` and the constraints `texts` over `field`, each located for errors."""
    region = list(base)
    for k, text in enumerate(texts):
        try:
            region.append(Constraint.parse(field, text))
        except READ_ERRORS as exc:
            raise SchemaError(f"{location}[{k}]", f"cannot read {text!r}: {exc}") from None
    return region


def _check_point(region, location, *raws):
    """The rational point that merges the mappings `raws` is readable and
    lies in `region`."""
    try:
        point = rational_point({k: v for raw in raws for k, v in raw.items()})
    except READ_ERRORS as exc:
        raise SchemaError(location, f"cannot read {raws[-1]!r}: {exc}") from None
    for c in region:
        if not c.holds_at(point):
            raise SchemaError(location, f"violates constraint {c}")


def _validate_entry(entry, loc):
    """Cross-check the entry, parse its constraints and check its points."""
    n = len(entry.salamon.split(","))
    entry.param_constraints = _region(ScalarField(entry.names()), entry.param_constraints,
                                      f"{loc}.param_constraints")
    _check_point(entry.param_constraints, f"{loc}.center_witness", entry.center_witness)
    names = set()
    for j, rec in enumerate(entry.complex_structures):
        if rec.name in names:
            raise SchemaError(f"{loc}.complex_structures[{j}]",
                              f"duplicate name {rec.name!r}")
        names.add(rec.name)
        if len(rec.matrix) != n * n:
            raise SchemaError(f"{loc}.complex_structures[{j}]",
                              f"matrix needs {n * n} entries, got {len(rec.matrix)}")
    for j, rec in enumerate(entry.automorphisms):
        aloc = f"{loc}.automorphisms[{j}]"
        rec.constraints = _region(ScalarField(entry.names(rec.params)), rec.constraints,
                                  f"{aloc}.constraints", entry.param_constraints)
        for k, sample in enumerate(rec.samples):
            _check_point(rec.constraints, f"{aloc}.samples[{k}]", entry.center_witness,
                         sample)
    for j, fam in enumerate(entry.lck_families):
        floc = f"{loc}.lck_families[{j}]"
        if fam.J not in names:
            raise SchemaError(floc, f"unknown complex structure {fam.J!r}")
        if len(fam.witnesses) < 2:
            raise SchemaError(floc, "every family needs at least two witnesses")
        try:
            fam.constraints = _region(entry.complex_structure(fam.J, fam.params).field,
                                      fam.constraints, f"{floc}.constraints",
                                      entry.param_constraints)
            s = entry.family_structure(fam)
        except SchemaError:
            raise
        except READ_ERRORS as exc:
            raise SchemaError(floc, f"cannot build structure: {exc}") from None
        for k, w in enumerate(s.witnesses):
            _check_point(s.constraints, f"{floc}.witnesses[{k}]", w)
            if s.theta.instantiate(w).is_zero():
                raise SchemaError(f"{floc}.witnesses[{k}]", "theta vanishes")
        if (isinstance(fam.vaisman, dict) and set(fam.vaisman) == {"iff"}
                and isinstance(fam.vaisman["iff"], list)):
            fam.vaisman["iff"] = _region(s.algebra.field, fam.vaisman["iff"],
                                         f"{floc}.vaisman.iff")
        elif fam.vaisman not in ("always", "never"):
            raise SchemaError(floc, f"bad vaisman value {fam.vaisman!r}")
    for j, rec in enumerate(entry.no_lck):
        if rec.J not in names:
            raise SchemaError(f"{loc}.no_lck[{j}]", f"unknown complex structure {rec.J!r}")
        if rec.kind not in ("vanishing", "negative_pair"):
            raise SchemaError(f"{loc}.no_lck[{j}]", f"bad obstruction kind {rec.kind!r}")
        if rec.space not in ("twisted", "lck"):
            raise SchemaError(f"{loc}.no_lck[{j}]", f"bad space {rec.space!r}")
    for j, rec in enumerate(entry.equivalences):
        _check_point((), f"{loc}.equivalences[{j}].witness", rec.witness)


def builtin_catalog_text():
    return resources.files("lckverify.data").joinpath("builtin_catalog.json").read_text()


def load_builtin():
    return load_catalog(builtin_catalog_text())


# -- verification drivers ------------------------------------------------------------


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
    records.append(Check(f"{entry.id}/jacobi", g.jacobi_holds()))

    if entry.center_basis is not None:
        got = g.center(rational_point(entry.center_witness))
        expected = [parse_form(QQ, g.dim, text, degree=1).vector()
                    for text in entry.center_basis]
        ok = _span_equal(got, expected, g.dim)
        records.append(Check(f"{entry.id}/center", ok,
                             witness=entry.center_witness or None,
                             residual="" if ok else f"got {[[str(x) for x in v] for v in got]}"))

    for rec in entry.complex_structures:
        J = entry.complex_structure(rec.name)
        ok = is_complex_structure(J.algebra, J)
        records.append(Check(f"{entry.id}/J:{rec.name}/complex", ok, note=rec.note,
                             residual="" if ok else complex_residual(J.algebra, J)))

    for rec in entry.automorphisms:
        records.extend(_verify_automorphism(entry, rec))

    for fam in entry.lck_families:
        records.extend(_verify_family(entry, fam))

    for rec in entry.no_lck:
        records.extend(_verify_no_lck(entry, rec))

    for rec in entry.replays:
        records.extend(_verify_replay(entry, rec))

    return records


def _matrix_at(entries, n, assignment):
    """The n x n matrix of row-major expression `entries` at a rational point."""
    return [[QQ.scalar(eval_expression(entries[i * n + j], assignment))
             for j in range(n)] for i in range(n)]


def _verify_automorphism(entry, rec):
    records = []
    g = entry.algebra(rec.params)
    n = g.dim
    for k, sample in enumerate(rec.samples or [{}]):
        assignment = rational_point({**entry.center_witness, **sample})
        matrix = None
        try:
            matrix = _matrix_at(rec.matrix, n, assignment)
            gq = g.instantiate(assignment)
            ok = is_automorphism(gq, matrix)
            residual = "" if ok else automorphism_residual(gq, matrix)
        except LckError as exc:  # the matrix is undefined or singular at the sample
            ok, residual = False, f"{type(exc).__name__}: {exc}"
        commute_ok = not rec.J or matrix is not None and commutes_with(
            matrix, entry.complex_structure(rec.J).instantiate(assignment))
        records.append(Check(f"{entry.id}/aut:{rec.name}@{k}", ok and commute_ok,
                             witness=sample, residual=residual, note="" if ok and commute_ok
                             else f"automorphism={ok} complex-linear={commute_ok}"))
    return records


def _verify_family(entry, fam):
    s = entry.family_structure(fam)
    prefix = f"{entry.id}/lck:{fam.name}"
    records = [replace(c, id=f"{prefix}/{c.id}") for c in verify_lck(s).checks]

    if s.algebra.dim == 4:
        try:
            theta, closed = lee_form(s.algebra, s.omega)
            roundtrip = closed and (theta - s.theta).is_zero()
            residual = "" if roundtrip else f"lee form {theta}"
        except LckError as exc:  # omega ^ omega = 0 cannot happen on verified rows
            roundtrip, residual = False, f"{type(exc).__name__}: {exc}"
        records.append(Check(f"{prefix}/lee_roundtrip", roundtrip, residual=residual))

    vector = fam.vaisman_vector and parse_form(s.algebra.field, s.algebra.dim,
                                               fam.vaisman_vector, degree=1).vector()
    for k, w in enumerate(s.witnesses):
        want = (all(c.holds_at(w) for c in fam.vaisman["iff"])
                if isinstance(fam.vaisman, dict) else fam.vaisman == "always")
        try:
            got, A = vaisman_test(s, w)
        except LckError as exc:  # G singular or theta(G^-1 theta) = 0 at w
            records.append(Check(f"{prefix}/vaisman@{k}", False, witness=w,
                                 residual=f"{type(exc).__name__}: {exc}"))
            continue
        ok = got == want
        note = ""
        if ok and vector:
            vec = [c.eval(w) for c in vector]
            ok = vec == A
            note = "" if ok else f"expected A={vec}, got {A}"
        records.append(Check(f"{prefix}/vaisman@{k}", ok, witness=w,
                             note=note or ("" if ok else f"expected {want}, got {got}")))
    return records


def _lee_setup(entry, rec):
    """Algebra, J and theta of a no-lcK or replay record, over one field."""
    J = entry.complex_structure(rec.J, rec.params)
    return J.algebra, J, parse_form(J.field, J.algebra.dim, rec.theta, degree=1)


def _verify_no_lck(entry, rec):
    g, J, theta = _lee_setup(entry, rec)
    space = (lck_space(g, J, theta) if rec.space == "lck"
             else twisted_closed_space(g, theta))
    sound = satisfies_conditions(space, g, theta, J if rec.space == "lck" else None)
    if rec.kind == "vanishing":
        ok = degeneracy_certificate(space, J, rec.v)
    else:
        ok = positivity_clash(space, J, rec.u, rec.v)
    return [Check(f"{entry.id}/nolck:{rec.name}", ok and sound,
                  note=rec.note if ok and sound else
                  f"obstruction={ok} soundness={sound} dim={space.dimension}")]


def _verify_replay(entry, rec):
    g, J, theta = _lee_setup(entry, rec)
    twisted = twisted_closed_space(g, theta)
    full = lck_space(g, J, theta)
    ok = (twisted.dimension == rec.twisted_dim and full.dimension == rec.lck_dim
          and satisfies_conditions(twisted, g, theta)
          and satisfies_conditions(full, g, theta, J))
    return [Check(f"{entry.id}/replay:{rec.name}", ok,
                  note="" if ok else
                  f"twisted {twisted.dimension} (want {rec.twisted_dim}), "
                  f"lck {full.dimension} (want {rec.lck_dim})")]


def verify_equivalence(entry):
    """Replay each normalizing chain at its radical-free witness."""
    records = []
    for rec in entry.equivalences:
        prefix = f"{entry.id}/equiv:{rec.name}"
        J = entry.complex_structure(rec.J, rec.params)
        field, n = J.field, J.algebra.dim
        witness = rational_point(rec.witness)
        Jq = J.instantiate(witness)
        gq = Jq.algebra
        theta = parse_form(field, n, rec.start_theta, degree=1).instantiate(witness)
        omega = parse_form(field, n, rec.start_omega, degree=2).instantiate(witness)
        failed_step = None
        for k, step in enumerate(rec.chain):
            try:
                matrix = _matrix_at(step, n, witness)
                step_ok = is_automorphism(gq, matrix) and commutes_with(matrix, Jq)
                residual = "" if step_ok else (automorphism_residual(gq, matrix)
                                               or "not complex-linear")
            except LckError as exc:  # the step is undefined or singular at the witness
                step_ok, residual = False, f"{type(exc).__name__}: {exc}"
            records.append(Check(f"{prefix}/step{k}", step_ok, witness=rec.witness,
                                 residual=residual))
            if failed_step is None and step_ok:
                theta = coframe_substitution(matrix, theta)
                omega = coframe_substitution(matrix, omega)
            elif failed_step is None:
                failed_step = k
        want_theta = parse_form(field, n, rec.expected_theta, degree=1).instantiate(witness)
        want_omega = parse_form(field, n, rec.expected_omega, degree=2).instantiate(witness)
        if failed_step is not None:
            final_ok, residual = False, f"not carried past the failing step{failed_step}"
        else:
            final_ok = theta == want_theta and omega == want_omega
            residual = "" if final_ok else f"got theta={theta}, omega={omega}"
        records.append(Check(f"{prefix}/normal_form", final_ok, witness=rec.witness,
                             residual=residual))
    return records


def verify_catalog(catalog, entry_ids=None):
    """Verify entries (all by default), ordered by entry id.  An entry whose
    text only the drivers read, and which fails with an LckError, gives the
    one failing record ENTRY/verify, and the next entry is verified."""
    records = []
    for eid in sorted(set(entry_ids or [e.id for e in catalog.entries])):
        entry = catalog.get(eid)
        try:
            records.extend(verify_entry(entry) + verify_equivalence(entry))
        except LckError as exc:
            records.append(Check(f"{eid}/verify", False,
                                 residual=f"{type(exc).__name__}: {exc}"))
        entry._built.clear()
    return records
