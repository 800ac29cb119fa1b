"""Verdicts do not depend on the coframe.

The paper classifies up to linear equivalence, so a family carried to
another coframe by a change of basis A in GL(4, Z) must get the same
verdicts at the same witnesses.  With sub(A) the coframe map
e^i -> sum_j A[j][i] e^j (`coframe_substitution`), the carried data are

    d' = sub(A^-1) o d o sub(A),   M' = A^-1 M A,
    theta' = sub(A^-1) theta,      Omega' = sub(A^-1) Omega,

and lee_form(Omega') = theta' is checked as an identity in the parameters.
A positive rescaling Omega' -> lambda Omega' keeps theta' and every verdict,
so it is checked on the same carried structure.

This pins the dual convention P = -M^T: written the wrong way round,
M' = A M A^-1, the carried structure must fail for every family, so the
suite cannot pass vacuously.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lckverify import linalg
from lckverify.catalog import load_builtin
from lckverify.exterior import KForm
from lckverify.hermitian import ComplexStructure, coframe_substitution, is_complex_structure
from lckverify.lck import LcKStructure, lee_form, vaisman_test, verify_lck
from lckverify.liealg import LieAlgebra

CATALOG = load_builtin()
FAMILIES = [(e, f) for e in CATALOG.entries for f in e.lck_families]
IDS = [f"{e.id}/{f.name}" for e, f in FAMILIES]


def change_of_coframe(s, label):
    """A seeded A in GL(4, Z) with entries in {-1, 0, 1}, over the family's
    field, and its inverse, solved for column by column.

    A is redrawn while A^-1 M A = A M A^-1, where the wrong-way control
    would coincide with the right way and prove nothing.
    """
    rng = random.Random(f"covariance:{label}")
    field, n = s.algebra.field, s.algebra.dim
    while True:
        A = [[field.scalar(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        if linalg.det(A) not in (field.one(), -field.one()):
            continue
        Ainv = linalg.transpose([linalg.solve(A, e) for e in linalg.identity(field, n)])
        M = s.J.dual
        if not linalg.mat_eq(linalg.mat_mul(Ainv, linalg.mat_mul(M, A)),
                             linalg.mat_mul(A, linalg.mat_mul(M, Ainv))):
            return A, Ainv


def carried(s, A, Ainv, right_way=True):
    """The structure `s` in the coframe changed by A."""
    g, field = s.algebra, s.algebra.field
    d = [coframe_substitution(Ainv, g.ce_d(coframe_substitution(
        A, KForm.basis(field, g.dim, (k,))))) for k in range(1, g.dim + 1)]
    g2 = LieAlgebra(field, d, name=g.name)
    left, right = (Ainv, A) if right_way else (A, Ainv)
    J2 = ComplexStructure(g2, linalg.mat_mul(left, linalg.mat_mul(s.J.dual, right)),
                          name=s.J.name)
    return LcKStructure(g2, J2, coframe_substitution(Ainv, s.theta),
                        coframe_substitution(Ainv, s.omega), s.constraints,
                        s.witnesses, name=s.name)


def rescaled(s, label):
    """`s` with Omega multiplied by a seeded rational lambda > 0, lambda != 1."""
    rng = random.Random(f"rescaling:{label}")
    lam = Fraction(1)
    while lam == 1:
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return replace(s, omega=s.omega * lam)


def verdicts(s):
    checks = [(c.id, c.passed, c.witness) for c in verify_lck(s).checks]
    return checks, [vaisman_test(s, w)[0] for w in s.witnesses]


@pytest.mark.slow
@pytest.mark.parametrize("entry, fam", FAMILIES, ids=IDS)
def test_verdicts_survive_a_change_of_coframe(entry, fam, time_limit):
    label = f"{entry.id}/{fam.name}"
    s = entry.family_structure(fam)
    s2 = carried(s, *change_of_coframe(s, label))
    assert s2.algebra.jacobi_holds()
    assert is_complex_structure(s2.algebra, s2.J)
    for t in (s2, rescaled(s2, label)):
        assert verdicts(t) == verdicts(s)
        with time_limit(5):  # a stall fails the family instead of hanging the suite
            theta, closed = lee_form(t.algebra, t.omega)
        assert closed and theta == s2.theta


@pytest.mark.slow
def test_wrong_way_conjugation_fails_every_family():
    survivors = []
    for (entry, fam), label in zip(FAMILIES, IDS):
        s = entry.family_structure(fam)
        bad = carried(s, *change_of_coframe(s, label), right_way=False)
        if is_complex_structure(bad.algebra, bad.J) and verify_lck(bad).passed:
            survivors.append(label)
    assert survivors == []
