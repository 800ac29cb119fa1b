"""The three workloads: seeded inputs, one timed operation per item, and
output checks that do not rely on the code under test.

A workload's `round(index)` runs every input once and returns a `Round`:

* ``catalog``: one full ``verify-table --json`` run (the pass) and one
  ``verify-table --entry ID --json`` run per entry (the items), all through
  ``lckverify.cli.run`` on a seeded, entry-shuffled copy of the built-in
  catalog passed with ``--catalog``;
* ``solve``: for each entry and complex structure, the twisted-closed and
  lcK solution spaces of a seeded closed Lee form, then
  ``satisfies_conditions`` (the items; the pass is their sum);
* ``construct``: ``ot_algebra(n, c)`` for n = 1..5 (n = 5 twice) and
  coKaehler mapping tori in dimension 4, 6 and 8, each verified and
  Vaisman-tested, with twisted Betti numbers up to dimension 6 (the items;
  the pass is their sum).

Only the operation itself is timed; the checks run after the clock stops.
Outputs are compared with `reference.json` (written by `make_reference.py`)
when it holds the seed; the catalog reports are the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

from lckverify import catalog, cli, constructions, exterior, hermitian, lck, liealg, solver
from lckverify.scalars import QQ, ScalarField


@dataclass
class Op:
    """One timed operation and the verdict of its checks."""

    id: str
    seconds: float
    ok: bool
    output: str = ""  # canonical output compared with the reference
    detail: str = ""  # why the checks failed


@dataclass
class Round:
    passes: list = field(default_factory=list)  # ops that are a full pass
    items: list = field(default_factory=list)

    @property
    def ops(self):
        return self.passes + self.items

    @property
    def pass_s(self):
        ops = self.passes or self.items
        return sum(op.seconds for op in ops)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _rational(rng, top, den, nonzero=True):
    while True:
        value = Fraction(rng.randint(-top, top), rng.randint(1, den))
        if value or not nonzero:
            return value


def _timed(item_id, work):
    """Run `work`, returning (result, seconds, failed Op or None)."""
    start = time.perf_counter()
    try:
        result = work()
    except Exception as exc:  # a crash is a failed operation, not a crash of the run
        return None, 0.0, Op(item_id, time.perf_counter() - start, False,
                             detail=f"{type(exc).__name__}: {exc}")
    return result, time.perf_counter() - start, None


class _Workload:
    def __init__(self, root):
        self.out_dir = os.path.join(root, "bench", "out")
        self.builtin_path = os.path.join(root, "src", "lckverify", "data",
                                         "builtin_catalog.json")
        with open(self.builtin_path) as fh:
            self.builtin = json.load(fh)
        #: context in which the checks run; a tracer replaces it to leave
        #: them out of the per-layer numbers
        self.untimed = contextlib.nullcontext

    @property
    def setup_catalog(self):
        """Catalog file that the set-up measurement loads."""
        return self.builtin_path

    def close(self):
        pass

    def entry_max_s(self, rounds):
        """`catalog.entry_max_s` from untraced rounds; 0 outside `catalog`."""
        return 0.0

    @staticmethod
    def _compare(op, expected):
        """Fail `op` when its output differs from the stored reference."""
        got = digest(op.output)
        if op.ok and expected is not None and got[:len(expected)] != expected:
            op.ok = False
            shown = f": {op.output}" if len(op.output) < 500 else ""
            op.detail = f"output {got[:len(expected)]} differs from reference {expected}{shown}"


# -- catalog ---------------------------------------------------------------------


class CatalogWorkload(_Workload):
    def __init__(self, root, seed, reference):
        super().__init__(root)
        doc = dict(self.builtin)
        doc["entries"] = list(doc["entries"])
        random.Random(f"catalog:{seed}").shuffle(doc["entries"])
        self.entry_ids = [e["id"] for e in doc["entries"]]
        os.makedirs(self.out_dir, exist_ok=True)
        self.path = os.path.join(self.out_dir, f"catalog-{seed}-{os.getpid()}.json")
        with open(self.path, "w") as fh:
            json.dump(doc, fh, indent=1)
        ref = (reference or {}).get("catalog", {})
        self.ref_full = ref.get("full")
        self.ref_entries = ref.get("entries", {})

    @property
    def setup_catalog(self):
        return self.path

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)

    def entry_max_s(self, rounds):
        """Wall seconds of the slowest entry: per entry id, the median time
        of its `verify-table --entry ID` runs in `rounds`, less the median
        time of five loads and validations of the catalog; the largest of
        these.

        The full pass loads the catalog and verifies every entry, so no
        parallel driver brings its `pass_s` below this.
        """
        with open(self.path) as fh:
            text = fh.read()
        load = []
        for _ in range(5):
            start = time.perf_counter()
            catalog.load_catalog(text)
            load.append(time.perf_counter() - start)
        per_entry = {}
        for r in rounds:
            for op in r.items:
                per_entry.setdefault(op.id, []).append(op.seconds)
        return (max(statistics.median(v) for v in per_entry.values())
                - statistics.median(load))

    def _run(self, op_id, extra, expected):
        argv = ["verify-table", "--catalog", self.path] + extra + ["--json"]
        buf = io.StringIO()

        def work():
            with contextlib.redirect_stdout(buf):
                return cli.run(argv)

        code, seconds, failed = _timed(op_id, work)
        if failed:
            return failed
        text = buf.getvalue()
        op = Op(op_id, seconds, True, output=text)
        try:
            doc = json.loads(text)
            failed = doc["summary"]["failed"]
            exit_code = doc["exit_code"]
        except (ValueError, KeyError, TypeError) as exc:
            op.ok, op.detail = False, f"unreadable report: {exc}"
            return op
        if code != 0 or exit_code != 0 or failed != 0:
            op.ok = False
            op.detail = f"exit {code}, report exit_code {exit_code}, {failed} failed records"
        self._compare(op, expected)
        op.output = digest(text)  # keep the digest, not 78 kB per pass
        return op

    def round(self, index=0):
        r = Round()
        r.passes.append(self._run("verify-table", [], self.ref_full))
        for eid in self.entry_ids:
            r.items.append(self._run(eid, ["--entry", eid], self.ref_entries.get(eid)))
        return r


# -- solve -------------------------------------------------------------------------


#: dimension of the 2-forms on a 4-dimensional algebra, where every
#: catalog entry lives
TWO_FORMS = 6


class SolveWorkload(_Workload):
    def __init__(self, root, seed, reference):
        super().__init__(root)
        self.seed = seed
        self.structures = []
        for entry in self.builtin["entries"]:
            pieces = [p.strip() for p in entry["salamon"].split(",")]
            closed = [i + 1 for i, p in enumerate(pieces) if p == "0"]
            for jrec in entry["complex_structures"]:
                names = list(entry.get("params", []))
                names += [p for p in jrec.get("params", []) if p not in names]
                self.structures.append((f"{entry['id']}/{jrec['name']}", entry["salamon"],
                                        jrec["matrix"], names, closed))
        self.expected = ((reference or {}).get("solve", {})).get(str(seed), {})

    def _inputs(self, index):
        """The Lee forms and check points of round `index`.

        Each round draws afresh, so a run's medians cover many draws and
        depend little on the seed.  The seed picks which coefficients are
        parameters; their number is fixed for the same reason.
        """
        items = []
        for item_id, salamon, matrix, names, closed in self.structures:
            rng = random.Random(f"solve:{self.seed}:{index}:{item_id}")
            params = set(rng.sample(closed, (len(closed) + 1) // 2))
            fresh, terms = [], []
            for i in closed:
                if i in params:
                    fresh.append(f"t{i}")
                    terms.append(f"t{i}*e{i}")
                else:
                    terms.append(f"({_rational(rng, 5, 3)})*e{i}")
            all_names = tuple(names + fresh)
            point = {n: _rational(rng, 9999, 999) for n in all_names}
            items.append((item_id, salamon, matrix, all_names, " + ".join(terms), point))
        return items

    def round(self, index=0):
        """Round `index`; only round 0 has stored reference outputs."""
        r = Round()
        for item in self._inputs(index):
            op = self._item(*item)
            self._compare(op, self.expected.get(op.id) if index == 0 else None)
            r.items.append(op)
        return r

    def _item(self, item_id, salamon, matrix, names, theta_text, point):
        def work():
            F = ScalarField(names)
            g = liealg.parse_salamon(salamon, field=F, name=item_id)
            n = g.dim
            J = hermitian.ComplexStructure(
                g, [[F.parse(matrix[i * n + j]) for j in range(n)] for i in range(n)])
            theta = exterior.parse_form(F, n, theta_text, degree=1)
            twisted = solver.twisted_closed_space(g, theta)
            full = solver.lck_space(g, J, theta)
            sound = (solver.satisfies_conditions(twisted, g, theta)
                     and solver.satisfies_conditions(full, g, theta, J))
            return g, J, theta, twisted, full, sound

        result, seconds, failed = _timed(item_id, work)
        if failed:
            return failed
        g, J, theta, twisted, full, sound = result
        op = Op(item_id, seconds, True)
        problems = [] if sound else ["a basis element fails satisfies_conditions"]
        try:
            with self.untimed():
                spans = []
                for label, space, j in (("twisted", twisted, None), ("lck", full, J)):
                    for cond in space.side_conditions:
                        if _value_at(cond, g.field, point) == 0:
                            problems.append(f"{label}: seeded point lies on side condition {cond}")
                    rank = solver.rank_at_instantiation(g, theta, point, j)
                    if space.dimension + rank != TWO_FORMS:
                        problems.append(f"{label}: dimension {space.dimension} + rank {rank}"
                                        f" != {TWO_FORMS}")
                    spans.append(f"{label} {space.dimension} {_span_at(space, point)}")
                op.output = "; ".join(spans)
        except Exception as exc:
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        if problems:
            op.ok, op.detail = False, "; ".join(problems)
        return op


def _value_at(expr, field_, point):
    """A side condition (Scalar or Polynomial) at a rational point."""
    if hasattr(expr, "den"):
        return expr.eval(point)
    return expr.eval([Fraction(point[v]) for v in field_.vars])


def _span_at(space, point):
    """Canonical text of the span of the basis at a point: the reduced row
    echelon form over plain Fractions, computed here rather than by
    lckverify.linalg, so it does not depend on how the basis was chosen."""
    rows = [[b.coeffs[c].eval(point) if c in b.coeffs else Fraction(0)
             for c in space.ambient] for b in space.basis]
    return str([[str(x) for x in row] for row in _rref(rows)])


def _rref(rows):
    rows = [list(r) for r in rows]
    lead = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [x * inv for x in rows[lead]]
        for i in range(len(rows)):
            if i != lead and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[lead])]
        lead += 1
    return rows[:lead]


# -- construct -------------------------------------------------------------------


class ConstructWorkload(_Workload):
    #: twisted Betti numbers are computed up to this dimension
    MAX_BETTI_DIM = 6

    def __init__(self, root, seed, reference):
        super().__init__(root)
        rng = random.Random(f"construct:{seed}")
        self.items = []
        # two draws of the largest ot, so that item_s_p90 lies inside
        # its group of times rather than on the edge of it
        for item_id, n in [(f"ot({n})", n) for n in range(1, 6)] + [("ot(5)b", 5)]:
            speeds = [_rational(rng, 6, 4, nonzero=False) for _ in range(n)]
            self.items.append((item_id, "ot", (n, speeds)))
        for m in (1, 2, 3):
            data = {
                "rotation": [_rational(rng, 3, 3, nonzero=False) for _ in range(m)],
                "spin": [_rational(rng, 3, 3, nonzero=False) for _ in range(m)],
                # positivity of Omega(xi, J xi) = alpha needs alpha > 0
                "conformal": Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                "orientation": rng.choice((1, -1)),
            }
            self.items.append((f"torus({2 * m + 2})", "torus", (m, data)))
        self.expected = ((reference or {}).get("construct", {})).get(str(seed), {})

    def round(self, index=0):
        r = Round()
        for item_id, kind, args in self.items:
            r.items.append(self._item(item_id, kind, args))
        return r

    def _item(self, item_id, kind, args):
        def work():
            if kind == "ot":
                n, speeds = args
                g, s = constructions.ot_algebra(n, speeds)
            else:
                g, s = constructions.cokahler_mapping_torus(_torus_data(*args))
            report = lck.verify_lck(s)
            vaisman, A = lck.vaisman_test(s, {})
            betti = (lck.morse_novikov_betti(g, s.theta)
                     if g.dim <= self.MAX_BETTI_DIM else None)
            return g, s, report, vaisman, A, betti

        result, seconds, failed = _timed(item_id, work)
        if failed:
            return failed
        g, s, report, vaisman, A, betti = result
        with self.untimed():
            problems = []
            if not report.passed:
                problems.append(f"lcK checks fail: {[c.check for c in report.failures()]}")
            if vaisman:
                problems.append("output is Vaisman")
            if betti is not None:
                own = _twisted_betti(g, s.theta)
                if betti != own:
                    problems.append(f"Betti numbers {betti}, recomputed {own}")
            op = Op(item_id, seconds, not problems, detail="; ".join(problems),
                    output=(f"dim {g.dim}; vaisman {vaisman}; A {[str(a) for a in A]}; "
                            f"betti {betti}; theta {s.theta}; omega {s.omega}"))
        self._compare(op, self.expected.get(item_id))
        return op


def _twisted_betti(g, theta):
    """Betti numbers of d_theta = d - theta ^ _ on an algebra over QQ,
    computed here from de^1, ..., de^n over plain Fractions, with ranks from
    `_rref`, rather than by lckverify.lck."""
    n = g.dim
    de = [{idx: c.constant_value() for idx, c in form.coeffs.items()}
          for form in g.d_coframe]
    theta = {idx: c.constant_value() for idx, c in theta.coeffs.items()}

    def wedge(a, b):
        out = {}
        for ia, ca in a.items():
            for ib, cb in b.items():
                merged = ia + ib
                if len(set(merged)) < len(merged):
                    continue
                swaps = sum(x > y for x, y in itertools.combinations(merged, 2))
                key = tuple(sorted(merged))
                out[key] = out.get(key, 0) + (-1) ** swaps * ca * cb
        return out

    def d_theta(idx):
        # d(e^i1 ^ ... ^ e^ik) = sum_j (-1)^j e^i1 ^ .. ^ de^ij ^ .. ^ e^ik
        out = {}
        for j, i in enumerate(idx):
            term = wedge(wedge({idx[:j]: 1}, de[i - 1]), {idx[j + 1:]: 1})
            for key, c in term.items():
                out[key] = out.get(key, 0) + (-1) ** j * c
        for key, c in wedge(theta, {idx: 1}).items():
            out[key] = out.get(key, 0) - c
        return out

    bases = [list(itertools.combinations(range(1, n + 1), k)) for k in range(n + 1)]
    ranks = []
    for k in range(n):
        images = [d_theta(idx) for idx in bases[k]]
        ranks.append(len(_rref([[Fraction(im.get(t, 0)) for t in bases[k + 1]]
                                for im in images])))
    ranks.append(0)
    return [len(bases[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(n + 1)]


def _torus_data(m, data):
    """CoKaehler data on h = R^2m x| R xi over QQ.

    xi acts on the k-th plane by a rotation of speed rotation[k]; Phi is
    the standard complex structure of R^2m with the given orientation,
    the metric is the identity, eta = e^{2m+1}, and the derivation D is
    conformal * id plus a rotation of speed spin[k] on the k-th plane, so
    that D rescales the cosymplectic form by alpha = 2 * conformal.
    """
    dim = 2 * m + 1
    zero, one = QQ.zero(), QQ.one()
    brackets = {}
    for k, a in enumerate(data["rotation"]):
        x, y = 2 * k + 1, 2 * k + 2  # [xi, e_x] = a e_y, [xi, e_y] = -a e_x
        col = [zero] * dim
        col[y - 1] = QQ.scalar(-a)
        brackets[(x, dim)] = col
        col = [zero] * dim
        col[x - 1] = QQ.scalar(a)
        brackets[(y, dim)] = col
    h = liealg.LieAlgebra.from_structure_constants(QQ, dim, brackets, name=f"cok{dim}")
    phi = [[zero] * dim for _ in range(dim)]
    D = [[zero] * dim for _ in range(dim)]
    s = QQ.scalar(data["orientation"])
    p = QQ.scalar(data["conformal"])
    for k, b in enumerate(data["spin"]):
        x, y = 2 * k, 2 * k + 1
        phi[x][y], phi[y][x] = s, -s
        D[x][x] = D[y][y] = p
        D[y][x], D[x][y] = QQ.scalar(b), QQ.scalar(-b)
    eta = exterior.KForm(QQ, dim, 1, {(dim,): one})
    xi = [zero] * (dim - 1) + [one]
    metric = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    return constructions.CoKaehlerData(h, eta, xi, phi, metric, D,
                                       2 * data["conformal"], name=f"torus({dim + 1})")


def make(name, root, seed, reference):
    cls = {"catalog": CatalogWorkload, "solve": SolveWorkload,
           "construct": ConstructWorkload}[name]
    return cls(root, seed, reference)
