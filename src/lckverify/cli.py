"""Command-line driver producing human-readable and machine reports.

Subcommands:

  verify-table [--entry ID] [--json PATH] [--catalog FILE]
  solve    --algebra SPEC --theta EXPR [--J NAME|FILE] [--json PATH]
  vaisman  --entry ID [--family NAME] [--witness K] [--json PATH]
  lee      --algebra SPEC --omega EXPR [--json PATH]
  mn       --algebra SPEC --theta EXPR [--json PATH]
  extend   --spec FILE [--json PATH]
  ot       --n N --c LIST [--json PATH]
  cokahler --spec FILE [--json PATH]

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error.
Machine reports are deterministic: records are ordered by id and the
JSON is dumped with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field as dataclass_field
from fractions import Fraction

from . import __version__
from .catalog import (
    Check,
    _fractions,
    load_builtin,
    load_catalog,
    verify_catalog,
    verify_entry,
    verify_equivalence,
)
from .constructions import (
    CoKaehlerData,
    LcKExtensionSpec,
    cokahler_mapping_torus,
    lck_extension,
    ot_algebra,
    unimodularity_check,
)
from .errors import LckError, UsageError
from .exterior import parse_form
from .hermitian import ComplexStructure
from .lck import LcKStructure, lee_form, morse_novikov_betti, vaisman_test
from .liealg import parse_salamon
from .scalars import ScalarField, parse_expression
from .solver import lck_space, twisted_closed_space

SCHEMA_VERSION = 1


@dataclass
class Report:
    command: list
    records: list = dataclass_field(default_factory=list)

    def add(self, check):
        self.records.append(check)

    def result(self, rid, value):
        self.records.append(Check(rid, "pass", note=str(value)))

    @property
    def failures(self):
        return [r for r in self.records if r.status == "fail"]

    @property
    def exit_code(self):
        return 1 if self.failures else 0

    def to_json(self):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": self.command,
            "records": [_record_dict(r) for r in self.records],
            "summary": {
                "total": len(self.records),
                "passed": len(self.records) - len(self.failures),
                "failed": len(self.failures),
            },
            "exit_code": self.exit_code,
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def to_text(self):
        lines = []
        for r in self.records:
            line = f"[{r.status.upper():4s}] {r.id}"
            if r.note:
                line += f"  {r.note}"
            if r.residual:
                line += f"  residual: {r.residual}"
            if r.witness:
                line += f"  at {_witness_str(r.witness)}"
            lines.append(line)
        lines.append(f"{len(self.records) - len(self.failures)} passed, "
                     f"{len(self.failures)} failed")
        return "\n".join(lines) + "\n"


def _witness_str(w):
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(w.items())) + "}"


def _record_dict(r):
    d = asdict(r)
    if isinstance(d.get("witness"), dict):
        d["witness"] = {k: str(v) for k, v in sorted(d["witness"].items())}
    return d


def _emit(report, args):
    json_path = getattr(args, "json", None)
    if json_path:
        text = report.to_json()
        if json_path == "-":
            sys.stdout.write(text)
        else:
            with open(json_path, "w") as fh:
                fh.write(text)
            print(f"report written to {json_path} "
                  f"({len(report.records) - len(report.failures)} passed, "
                  f"{len(report.failures)} failed)")
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code


def _collect_names(*texts):
    """Parameter names appearing in expressions, in first-appearance order,
    skipping basis atoms like e12."""
    names = []

    def walk(node):
        op = node[0]
        if op == "var":
            name = node[1]
            is_atom = name[0] == "e" and name[1:].isdigit() and len(name) > 1
            if not is_atom and name not in names:
                names.append(name)
        elif op in ("add", "sub", "mul", "div"):
            walk(node[1])
            walk(node[2])
        elif op in ("neg", "pow"):
            walk(node[1])
        elif op == "call":
            walk(node[2])

    for text in texts:
        for piece in text.split(","):
            piece = piece.strip()
            if piece:
                walk(parse_expression(piece))
    return names


def _algebra_and_field(spec, *exprs):
    names = _collect_names(spec, *exprs)
    field = ScalarField(tuple(names))
    return parse_salamon(spec, field=field, name="algebra"), field


def _load_json_file(path, what, required=()):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {what} from {path}: {exc}") from None
    for key in required:
        if not isinstance(data, dict) or key not in data:
            raise UsageError(f"{path}: {what} needs key {key!r}")
    return data


def _read(parse, value, where):
    """`parse(value)`, with a bad value reported as a usage error at `where`."""
    try:
        return parse(value)
    except (LckError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise UsageError(f"{where}: cannot read {value!r}: {exc}") from None


def _square(field, rows, size, where):
    """A size x size matrix of Scalars from a JSON list of rows of expressions."""
    if not (isinstance(rows, list) and len(rows) == size
            and all(isinstance(row, list) and len(row) == size for row in rows)):
        raise UsageError(f"{where}: expected a {size} x {size} matrix")
    return [[_read(field.parse, x, where) for x in row] for row in rows]


def _flat_square(field, entries, size, where):
    """The same from a flat list of size^2 expressions, row by row."""
    if not (isinstance(entries, list) and len(entries) == size * size):
        raise UsageError(f"{where}: expected a list of {size * size} entries")
    return _square(field, [entries[i * size:(i + 1) * size] for i in range(size)],
                   size, where)


# -- subcommands ----------------------------------------------------------------


def cmd_verify_table(args):
    if args.catalog:
        try:
            with open(args.catalog) as fh:
                catalog = load_catalog(fh.read())
        except OSError as exc:
            raise UsageError(f"--catalog: cannot read {args.catalog}: {exc}") from None
    else:
        catalog = load_builtin()
    ids = [args.entry] if args.entry else None
    report = Report(command=["verify-table"] + (["--entry", args.entry] if args.entry else []))
    for check in verify_catalog(catalog, entry_ids=ids):
        report.add(check)
    return _emit(report, args)


def cmd_solve(args):
    report = Report(command=["solve", args.algebra, args.theta])
    g, field = _algebra_and_field(args.algebra, args.theta,
                                  *(_j_exprs(args.J) if args.J else []))
    theta = parse_form(field, g.dim, args.theta, degree=1)
    space = twisted_closed_space(g, theta)
    report.result("twisted_closed_space", str(space))
    if args.J:
        J = _resolve_j(args.J, g, field)
        space = lck_space(g, J, theta)
        report.result("lck_space", str(space))
    return _emit(report, args)


def _j_exprs(jarg):
    if "." in jarg and "/" not in jarg:
        return []
    data = _load_json_file(jarg, "complex structure")
    return data.get("matrix", [])


def _resolve_j(jarg, g, field):
    if "." in jarg and "/" not in jarg:
        entry_id, name = jarg.split(".", 1)
        entries, name = load_builtin().get(entry_id).j_record(name).matrix, jarg
    else:
        data = _load_json_file(jarg, "complex structure", ("matrix",))
        entries, name = data["matrix"], data.get("name", "J")
    matrix = _flat_square(field, entries, g.dim, f"--J {jarg}: key 'matrix'")
    return ComplexStructure(g, matrix, name=name)


def cmd_vaisman(args):
    catalog = load_builtin()
    entry = catalog.get(args.entry)
    report = Report(command=["vaisman", args.entry])
    families = [f for f in entry.lck_families
                if args.family in ("", f.name)]
    if not families:
        raise UsageError(f"entry {args.entry} has no lcK family {args.family!r}")
    for fam in families:
        s = entry.family_structure(fam)
        witnesses = s.witnesses
        if args.witness is not None:
            if not 0 <= args.witness < len(witnesses):
                raise UsageError(f"witness index {args.witness} out of range")
            witnesses = [witnesses[args.witness]]
        for k, w in enumerate(witnesses):
            is_vaisman, A = vaisman_test(s, w)
            report.result(
                f"{entry.id}/{fam.name}@{k if args.witness is None else args.witness}",
                f"expected={_vaisman_str(fam.vaisman)}; "
                f"vaisman={is_vaisman}; A = {_vector_str(A)}")
    return _emit(report, args)


def _vector_str(coords):
    pieces = []
    for i, a in enumerate(coords):
        if not a:
            continue
        sign = "-" if a < 0 else ("+" if pieces else "")
        mag = abs(a)
        body = f"e{i + 1}" if mag == 1 else f"{mag}*e{i + 1}"
        pieces.append(f"{sign}{body}" if not pieces else f"{sign} {body}")
    return " ".join(pieces) or "0"


def _vaisman_str(v):
    return v if isinstance(v, str) else "iff " + " and ".join(v["iff"])


def cmd_lee(args):
    report = Report(command=["lee", args.algebra, args.omega])
    g, field = _algebra_and_field(args.algebra, args.omega)
    omega = parse_form(field, g.dim, args.omega, degree=2)
    theta, closed = lee_form(g, omega)
    report.result("lee_form", f"theta = {theta}; closed = {closed}")
    return _emit(report, args)


def cmd_mn(args):
    report = Report(command=["mn", args.algebra, args.theta])
    g, field = _algebra_and_field(args.algebra, args.theta)
    theta = parse_form(field, g.dim, args.theta, degree=1)
    point = (_read(lambda t: _fractions(json.loads(t)), args.at, "--at")
             if args.at else {})
    betti = morse_novikov_betti(g, theta, point)
    report.result("morse_novikov_betti", "(" + ", ".join(map(str, betti)) + ")")
    return _emit(report, args)


def _bind_structure(s, bind):
    """Pin some family parameters to rationals before extending.

    Witness coordinates at the bound parameters are overridden so they
    stay consistent with the substitution."""
    g = s.algebra
    algebra = type(g)(g.field, [f.subs(bind) for f in g.d_coframe], name=g.name)
    J = ComplexStructure(algebra, [[x.subs(bind) for x in row]
                                   for row in s.J.dual], name=s.J.name)
    witnesses = [dict(w, **bind) for w in s.witnesses]
    return LcKStructure(algebra, J, s.theta.subs(bind), s.omega.subs(bind),
                        list(s.constraints), witnesses, name=s.name)


def cmd_extend(args):
    data = _load_json_file(args.spec, "extension spec",
                           ("entry", "family", "fiber_dim", "rho"))
    entry = load_builtin().get(data["entry"])
    fam = next((f for f in entry.lck_families if f.name == data["family"]), None)
    if fam is None:
        raise UsageError(f"{args.spec}: key 'family': entry {entry.id} has no "
                         f"lcK family {data['family']!r}")
    extra = list(data.get("params", []))
    base = entry.family_structure(fam, extra_params=extra)
    bind = _read(_fractions, data.get("bind", {}), f"{args.spec}: key 'bind'")
    if bind:
        base = _bind_structure(base, bind)
    field = base.algebra.field
    n2 = _read(int, data["fiber_dim"], f"{args.spec}: key 'fiber_dim'")
    where = f"{args.spec}: key 'rho'"
    dim = base.algebra.dim
    if not isinstance(data["rho"], list) or len(data["rho"]) != dim:
        raise UsageError(f"{where}: expected {dim} matrices, one per base basis vector")
    rho = [_square(field, m, n2, f"{where}, matrix {k}") for k, m in enumerate(data["rho"])]
    spec = LcKExtensionSpec(
        base, n2, rho, name=data.get("name", ""),
        extra_witnesses=_read(lambda ws: [_fractions(w) for w in ws],
                              data.get("witnesses", [{}]),
                              f"{args.spec}: key 'witnesses'"))
    g, out = lck_extension(spec)
    report = Report(command=["extend", args.spec])
    report.result("algebra", str(g))
    report.result("theta", str(out.theta))
    report.result("omega", str(out.omega))
    report.result("unimodular", unimodularity_check(spec))
    for k, w in enumerate(out.witnesses):
        is_vaisman, _ = vaisman_test(out, w)
        report.add(Check(f"not_vaisman@{k}", "pass" if not is_vaisman else "fail",
                         witness=w))
    return _emit(report, args)


def cmd_ot(args):
    c = (_read(lambda t: [Fraction(x) for x in t.split(",")], args.c, "--c")
         if args.c else [])
    g, s = ot_algebra(args.n, c)
    report = Report(command=["ot", str(args.n), args.c])
    report.result("algebra", str(g))
    report.result("theta", str(s.theta))
    report.result("omega", str(s.omega))
    is_vaisman, _ = vaisman_test(s, {})
    report.add(Check("not_vaisman", "pass" if not is_vaisman else "fail"))
    return _emit(report, args)


def cmd_cokahler(args):
    data = _load_json_file(args.spec, "coKaehler spec",
                           ("salamon", "eta", "xi", "Phi", "metric", "D"))
    data.setdefault("alpha", "1")

    def where(key):
        return f"{args.spec}: key {key!r}"

    matrices = ("Phi", "metric", "D")
    names = []
    for key in ("salamon", "eta", "xi") + matrices + ("alpha",):
        found = _read(lambda v: _collect_names(*(v if key in matrices else [v])),
                      data[key], where(key))
        names += [name for name in found if name not in names]
    field = ScalarField(tuple(names))
    h = parse_salamon(data["salamon"], field=field, name=data.get("name", "h"))
    dim = h.dim
    eta, xi_form = (_read(lambda t: parse_form(field, dim, t, degree=1), data[key], where(key))
                    for key in ("eta", "xi"))
    xi = [xi_form.coeffs.get((i,), field.zero()) for i in range(1, dim + 1)]
    Phi, metric, D = (_flat_square(field, data[key], dim, where(key)) for key in matrices)
    cdata = CoKaehlerData(h, eta, xi, Phi, metric, D,
                          _read(field.parse, data["alpha"], where("alpha")),
                          name=data.get("name", ""))
    g, s = cokahler_mapping_torus(cdata)
    report = Report(command=["cokahler", args.spec])
    report.result("algebra", str(g))
    report.result("theta", str(s.theta))
    report.result("omega", str(s.omega))
    return _emit(report, args)


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lckverify",
        description="exact verification of lcK structures on Lie algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_json(p):
        p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", help="machine report (PATH or - for stdout)")

    p = sub.add_parser("verify-table", help="verify catalog entries")
    p.add_argument("--entry", default=None, help="single entry id")
    p.add_argument("--catalog", default=None, help="external catalog file")
    add_json(p)
    p.set_defaults(fn=cmd_verify_table)

    p = sub.add_parser("solve", help="solution spaces for a Lee form")
    p.add_argument("--algebra", required=True, help="structure equations")
    p.add_argument("--theta", required=True, help="closed 1-form expression")
    p.add_argument("--J", default=None, help="catalog name entry.J or JSON file")
    add_json(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("vaisman", help="Vaisman test on catalog witnesses")
    p.add_argument("--entry", required=True)
    p.add_argument("--family", default="")
    p.add_argument("--witness", type=int, default=None)
    add_json(p)
    p.set_defaults(fn=cmd_vaisman)

    p = sub.add_parser("lee", help="recover the Lee form of a 2-form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--omega", required=True)
    add_json(p)
    p.set_defaults(fn=cmd_lee)

    p = sub.add_parser("mn", help="twisted cohomology dimensions")
    p.add_argument("--algebra", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--at", default=None, help='JSON parameter point, e.g. {"l": "1/2"}')
    add_json(p)
    p.set_defaults(fn=cmd_mn)

    p = sub.add_parser("extend", help="lcK extension from a JSON spec")
    p.add_argument("--spec", required=True)
    add_json(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("ot", help="the standard unimodular solvable family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", default="", help="comma-separated rotation speeds")
    add_json(p)
    p.set_defaults(fn=cmd_ot)

    p = sub.add_parser("cokahler", help="mapping torus from a JSON spec")
    p.add_argument("--spec", required=True)
    add_json(p)
    p.set_defaults(fn=cmd_cokahler)
    return parser


_VALUE_FLAGS = ("--theta", "--omega", "--algebra", "--c", "--at")


def _join_value_flags(argv):
    """Merge `--theta -e4` into `--theta=-e4` so leading minus signs in
    expression arguments survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def run(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_value_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
