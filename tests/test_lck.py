"""The lcK checks, Lee-form recovery, Vaisman criterion, twisted Betti numbers.

The twisted cohomology dimensions get an independent oracle: matrices
assembled directly from the bracket formula for d and reduced by a
self-contained Fraction Gaussian elimination, sharing no code with the
implementation under test.
"""

import itertools
import random
from fractions import Fraction

import pytest

from lckverify.errors import LckError
from lckverify.exterior import KForm, basis_tuples, parse_form
from lckverify.hermitian import ComplexStructure
from lckverify.lck import (
    Constraint,
    LcKStructure,
    lee_form,
    morse_novikov_betti,
    vaisman_test,
    verify_lck,
)
from lckverify.liealg import parse_salamon
from lckverify.scalars import QQ, ScalarField


def mat(field, rows):
    return [[field.parse(str(x)) for x in row] for row in rows]


def rh3_structure(theta="-e4", omega="s*e12+s*e34"):
    F = ScalarField(("s",))
    g = parse_salamon("0,0,-12,0", field=F, name="rh3")
    J = ComplexStructure(g, mat(F, [[0, -1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 0, -1], [0, 0, 1, 0]]))
    return LcKStructure(g, J, parse_form(F, 4, theta), parse_form(F, 4, omega),
                        [Constraint(F.parse("s"), ">")],
                        [{"s": Fraction(1)}, {"s": Fraction(2)}], name="rh3")


def test_verify_lck_rh3():
    report = verify_lck(rh3_structure())
    assert report.passed
    names = [c.check for c in report.checks]
    assert names.count("positive") == 2


def test_verify_lck_rr31():
    F = ScalarField(("s",))
    g = parse_salamon("0,-12,-13,0", field=F)
    J = ComplexStructure(g, mat(F, [[0, 0, 0, -1], [0, 0, 1, 0],
                                    [0, -1, 0, 0], [1, 0, 0, 0]]))
    s = LcKStructure(g, J, parse_form(F, 4, "-2*e1"), parse_form(F, 4, "s*e14-e23"),
                     [Constraint(F.parse("s"), ">")], [{"s": Fraction(1)}])
    report = verify_lck(s)
    assert report.passed
    # both sides of the twisted identity equal 2 e^123
    assert g.ce_d(s.omega) == parse_form(F, 4, "2*e123")
    assert s.theta.wedge(s.omega) == parse_form(F, 4, "2*e123")


def test_verify_lck_flipped_sign_fails():
    report = verify_lck(rh3_structure(theta="e4"))
    assert not report.passed
    [failure] = [c for c in report.checks if not c.passed]
    assert failure.check == "twisted_closed"
    assert failure.residual == "-2*s*e124"


def test_verify_lck_needs_witness():
    s = rh3_structure()
    s.witnesses = []
    with pytest.raises(LckError, match="has no witnesses"):
        verify_lck(s)


def test_failing_positivity_names_the_first_nonpositive_minor():
    """A failing `positive` record carries the first leading minor of the
    metric at the witness that is not positive, and its value."""
    from test_catalog import mutate_omega_sign
    from test_linalg import sylvester_reference

    from lckverify.catalog import load_builtin
    from lckverify.constructions import ot_algebra

    entry = load_builtin().get("r2p")
    fam = next(f for f in entry.lck_families if f.name == "J2-generic")
    flipped = mutate_omega_sign(entry, fam, 1)
    _, ot = ot_algebra(2, [1, 2])
    negative = LcKStructure(ot.algebra, ot.J, ot.theta, -ot.omega, ot.constraints,
                            ot.witnesses, name="ot(2), -Omega")
    for s, k in ((flipped, 3), (negative, 1)):
        failed = [c for c in verify_lck(s).checks if not c.passed]
        assert failed and all(c.check == "positive" for c in failed), s.name
        for c in failed:
            assert c.residual.startswith(f"minor {k} = "), c.residual
            assert (False, c.residual) == sylvester_reference(s.metric, c.witness)


def test_failing_j_invariance_names_its_residual():
    """The residual of a failing `j_invariant` record is the 2-form
    Omega(P., P.) - Omega; a passing one has none."""
    [record] = [c for c in verify_lck(rh3_structure(omega="s*e12+s*e34+e13")).checks
                if c.check == "j_invariant"]
    assert not record.passed
    assert record.residual == "-e13 + e24"  # P e_1 = e_2, P e_3 = e_4
    assert all(c.residual == "" for c in verify_lck(rh3_structure()).checks)


def test_lee_form_examples():
    F = ScalarField(("s",))
    g = parse_salamon("0,0,-12,0", field=F)
    theta, closed = lee_form(g, parse_form(F, 4, "e12+e34"))
    assert theta == parse_form(F, 4, "-e4")
    assert closed

    ab = parse_salamon("0,0,0,0")
    theta0, closed0 = lee_form(ab, parse_form(QQ, 4, "e12+e34"))
    assert theta0.is_zero() and closed0

    with pytest.raises(LckError, match=r"omega \^ omega = 0"):
        lee_form(g, parse_form(F, 4, "e12"))


def test_lee_form_roundtrip_on_catalog_rows():
    from lckverify.catalog import load_builtin
    catalog = load_builtin()
    for eid in ("rh3", "rr3_0", "r2r2", "d4p_delta", "gl2"):
        entry = catalog.get(eid)
        for fam in entry.lck_families:
            s = entry.family_structure(fam)
            theta, closed = lee_form(s.algebra, s.omega)
            assert closed and theta == s.theta, f"{eid}/{fam.name}"


def test_metric_is_built_once_per_structure(monkeypatch):
    """verify_lck and vaisman_test at every witness share one gram matrix."""
    from lckverify import hermitian, lck
    from lckverify.catalog import load_builtin

    real, calls = hermitian.gram_metric, []

    def counted(omega, J):
        calls.append(J.name)
        return real(omega, J)

    for module in (hermitian, lck):
        monkeypatch.setattr(module, "gram_metric", counted)
    entry = load_builtin().get("gl2")
    s = entry.family_structure(entry.lck_families[0])
    assert verify_lck(s).passed
    for w in s.witnesses:
        vaisman_test(s, w)
    assert len(s.witnesses) >= 2 and len(calls) == 1


def test_vaisman_rh3():
    ok, A = vaisman_test(rh3_structure(), {"s": Fraction(1)})
    assert ok
    assert A == [0, 0, 0, -1]


def test_vaisman_theta_zero():
    s = rh3_structure()
    s.theta = KForm.zero(s.algebra.field, 4, 1)
    with pytest.raises(LckError, match="theta vanishes at the witness"):
        vaisman_test(s, {"s": Fraction(1)})


def test_vaisman_degenerate_metric_is_an_lck_error():
    """A singular metric, or theta(G^-1 theta) = 0, at the witness is an
    LckError, never a ZeroDivisionError."""
    w = {"s": Fraction(1)}
    # G = diag(s, s, 0, 0): G x = theta has no solution for theta = -e4 and
    # many for theta = e1
    for theta in ("-e4", "e1"):
        with pytest.raises(LckError, match="^metric is singular at the witness$"):
            vaisman_test(rh3_structure(theta=theta, omega="s*e12"), w)
    # G = diag(s, s, -s, -s) and theta = e1 + e3: x = (e1 - e3)/s, theta(x) = 0
    with pytest.raises(LckError, match=r"^theta\(G\^-1 theta\) = 0 at the witness$"):
        vaisman_test(rh3_structure(theta="e1+e3", omega="s*e12-s*e34"), w)


def test_vaisman_d4_lambda_rows_never():
    from lckverify.catalog import load_builtin
    entry = load_builtin().get("d4_lambda")
    for fam in entry.lck_families:
        s = entry.family_structure(fam)
        for w in s.witnesses:
            ok, _ = vaisman_test(s, w)
            assert not ok


def test_vaisman_d4p_conditional_on_delta():
    from lckverify.catalog import load_builtin
    catalog = load_builtin()
    # delta = 0 entry: always Vaisman with A = e4 / mu
    entry0 = catalog.get("d4p_0")
    s = entry0.family_structure(entry0.lck_families[0])
    ok, A = vaisman_test(s, {"m": Fraction(-1), "s": Fraction(1)})
    assert ok and A == [0, 0, 0, -1]
    # delta > 0 entry: never
    entry = catalog.get("d4p_delta")
    s = entry.family_structure(entry.lck_families[0])
    ok, A = vaisman_test(s, {"d": Fraction(1), "m": Fraction(-2), "s": Fraction(-1)})
    assert not ok and A == [0, 0, 0, Fraction(-1, 2)]


# -- independent twisted-cohomology oracle --------------------------------------


def frac_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def betti_oracle(g, theta_coeffs):
    """Twisted Betti numbers from scratch: structure constants -> d matrices
    -> Fraction ranks.  theta_coeffs maps 1-based indices to Fractions."""
    n = g.dim
    c = {}
    for (i, j), vec in g.bracket_table().items():
        c[(i, j)] = [x.constant_value() for x in vec]

    def bracket(i, j):
        if i == j:
            return [Fraction(0)] * n
        if i < j:
            return c[(i, j)]
        return [-x for x in c[(j, i)]]

    def sign_insert(idx, k):
        """(-1)^position when inserting k into the sorted tuple idx; None if present."""
        if k in idx:
            return None, None
        pos = sum(1 for t in idx if t < k)
        return (-1) ** pos, tuple(sorted(idx + (k,)))

    bases = [list(itertools.combinations(range(1, n + 1), k)) for k in range(n + 1)]

    def d_matrix(k):
        rows = {t: [Fraction(0)] * len(bases[k]) for t in bases[k + 1]}
        for col, idx in enumerate(bases[k]):
            # d of the basis k-form via d(e^m) terms
            for pos, m in enumerate(idx):
                rest = idx[:pos] + idx[pos + 1:]
                for (i, j) in itertools.combinations(range(1, n + 1), 2):
                    dm = -bracket(i, j)[m - 1]
                    if dm == 0:
                        continue
                    # wedge e^i^e^j into rest with the antiderivation sign
                    s1, t1 = sign_insert(rest, i)
                    if s1 is None:
                        continue
                    s2, t2 = sign_insert(t1, j)
                    if s2 is None:
                        continue
                    rows[t2][col] += ((-1) ** pos) * dm * s1 * s2
            # the -theta ^ _ part
            for m, tm in theta_coeffs.items():
                s1, t1 = sign_insert(idx, m)
                if s1 is None:
                    continue
                rows[t1][col] -= tm * s1
        return [rows[t] for t in bases[k + 1]]

    mats = [d_matrix(k) for k in range(n)]
    ranks = [frac_rank(m) for m in mats]
    betti = []
    for k in range(n + 1):
        rank_out = ranks[k] if k < n else 0
        rank_in = ranks[k - 1] if k > 0 else 0
        betti.append(len(bases[k]) - rank_out - rank_in)
    return betti


def test_morse_novikov_rh3():
    g = parse_salamon("0,0,-12,0")
    theta = parse_form(QQ, 4, "-e4")
    assert morse_novikov_betti(g, theta) == [0, 0, 0, 0, 0]
    assert betti_oracle(g, {4: Fraction(-1)}) == [0, 0, 0, 0, 0]

    zero = KForm.zero(QQ, 4, 1)
    assert morse_novikov_betti(g, zero) == [1, 3, 4, 3, 1]
    assert betti_oracle(g, {}) == [1, 3, 4, 3, 1]


def test_morse_novikov_abelian():
    ab = parse_salamon("0,0,0,0")
    assert morse_novikov_betti(ab, KForm.zero(QQ, 4, 1)) == [1, 4, 6, 4, 1]


def test_morse_novikov_not_closed():
    g = parse_salamon("0,0,-12,0")
    with pytest.raises(LckError, match="theta is not closed at the assignment"):
        morse_novikov_betti(g, parse_form(QQ, 4, "e3"))


def test_morse_novikov_matches_oracle_on_random_theta():
    rng = random.Random(13)
    for spec in ("0,0,-12,0", "0,-12,0,-34", "14,-24,-12,0"):
        g = parse_salamon(spec)
        closed = [i for i in range(1, 5)
                  if g.ce_d(KForm.basis(QQ, 4, (i,))).is_zero()]
        for _ in range(4):
            coeffs = {i: Fraction(rng.randint(-2, 2)) for i in closed}
            coeffs = {i: v for i, v in coeffs.items() if v}
            theta = KForm(QQ, 4, 1, {(i,): QQ.scalar(v) for i, v in coeffs.items()})
            assert morse_novikov_betti(g, theta) == betti_oracle(g, coeffs)
