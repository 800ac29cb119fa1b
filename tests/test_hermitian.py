"""Complex structures, coframe substitution, automorphisms, metric positivity.

The automorphism predicate gets an independent oracle: brute-force
bracket preservation A[x, y] = [Ax, Ay] of the operator on vectors.
"""

import random
from fractions import Fraction

import pytest

from lckverify import linalg
from lckverify.errors import LckError
from lckverify.exterior import KForm, basis_tuples, parse_form
from lckverify.hermitian import (
    ComplexStructure,
    automorphism_residual,
    coframe_substitution,
    complex_residual,
    dual_to_primal,
    gram_metric,
    is_automorphism,
    is_complex_structure,
    is_j_invariant,
    is_positive_at,
)
from lckverify.liealg import parse_salamon
from lckverify.scalars import QQ, ScalarField


def mat(field, rows):
    return [[field.parse(str(x)) for x in row] for row in rows]


RH3 = parse_salamon("0,0,-12,0", name="rh3")
RH3_J = ComplexStructure(RH3, mat(QQ, [[0, -1, 0, 0], [1, 0, 0, 0],
                                       [0, 0, 0, -1], [0, 0, 1, 0]]))


def preserves_brackets(g, primal):
    """Independent check that the operator on vectors is an automorphism."""
    for i, j in basis_tuples(g.dim, 2):
        ei = [g.field.one() if t == i - 1 else g.field.zero() for t in range(g.dim)]
        ej = [g.field.one() if t == j - 1 else g.field.zero() for t in range(g.dim)]
        lhs = linalg.mat_vec(primal, g.bracket(ei, ej))
        rhs = g.bracket(linalg.mat_vec(primal, ei), linalg.mat_vec(primal, ej))
        if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
            return False
    return True


def test_dual_to_primal_rh3():
    P = dual_to_primal(RH3_J)
    # J e1 = e2 and J e3 = e4 on vectors, as the dual matrix prescribes
    assert [P[t][0] for t in range(4)] == [QQ.zero(), QQ.one(), QQ.zero(), QQ.zero()]
    assert [P[t][2] for t in range(4)] == [QQ.zero(), QQ.zero(), QQ.zero(), QQ.one()]


def test_dual_to_primal_roundtrip():
    P = dual_to_primal(RH3_J)
    assert linalg.mat_eq(linalg.mat_neg(linalg.transpose(P)), RH3_J.dual)


def test_dual_to_primal_u2():
    F = ScalarField(("a", "b"))
    u2 = parse_salamon("23,-13,12,0", field=F)
    J = ComplexStructure(u2, mat(F, [["a", 0, 0, "(a^2+1)/b"],
                                     [0, 0, 1, 0], [0, -1, 0, 0],
                                     ["-b", 0, 0, "-a"]]))
    P = dual_to_primal(J)
    assert [P[t][3] for t in range(4)] == [F.var("b"), F.zero(), F.zero(), F.var("a")]


def test_dual_to_primal_rejects_non_complex():
    bad = ComplexStructure(RH3, linalg.identity(QQ, 4))
    for _ in range(2):  # a failed check is not cached
        with pytest.raises(LckError, match="dual matrix does not square to -Id"):
            dual_to_primal(bad)


def test_is_complex_structure():
    """`complex_residual` says why J is not integrable: the failed M^2 = -Id
    or the first nonzero Nijenhuis component; "" when it is."""
    assert is_complex_structure(RH3, RH3_J)
    assert complex_residual(RH3, RH3_J) == ""
    bad = ComplexStructure(RH3, linalg.identity(QQ, 4), name="id")
    assert not is_complex_structure(RH3, bad)
    assert complex_residual(RH3, bad) == "id: dual matrix does not square to -Id"
    # J e1 = e3 and J e2 = e4 square to -1; on rh3 the only bracket is
    # [e1, e2] = e3, and e3, e4 are central, so N(e1, e2) = -[e1, e2] = -e3
    swapped = ComplexStructure(RH3, mat(QQ, [[0, 0, -1, 0], [0, 0, 0, -1],
                                             [1, 0, 0, 0], [0, 1, 0, 0]]))
    assert not is_complex_structure(RH3, swapped)
    assert complex_residual(RH3, swapped) == "N(e1, e2) = (0, 0, -1, 0)"
    Fg = ScalarField(("m1", "m2"))
    gl2 = parse_salamon("-23,-2*12,2*13,0", field=Fg)
    J1mu = ComplexStructure(gl2, mat(Fg, [
        [0, -1, -1, 0],
        ["1/2", "m2/(2*m1)", "-m2/(2*m1)", "-1/m1"],
        ["1/2", "-m2/(2*m1)", "m2/(2*m1)", "1/m1"],
        [0, "(m1^2+m2^2)/(2*m1)", "-(m1^2+m2^2)/(2*m1)", "-m2/m1"]]))
    assert is_complex_structure(gl2, J1mu)


def test_pullback_scaling():
    two = mat(QQ, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert coframe_substitution(two, parse_form(QQ, 4, "e12")) == parse_form(QQ, 4, "4*e12")


def test_pullback_is_multiplicative():
    rng = random.Random(6)
    for _ in range(10):
        m = mat(QQ, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        if linalg.det(m).is_zero():
            continue
        a = KForm(QQ, 4, 1, {(i,): QQ.scalar(rng.randint(-2, 2)) for i in range(1, 5)})
        b = KForm(QQ, 4, 1, {(i,): QQ.scalar(rng.randint(-2, 2)) for i in range(1, 5)})
        assert coframe_substitution(m, a.wedge(b)) == \
            coframe_substitution(m, a).wedge(coframe_substitution(m, b))


def test_rh3_reduction_automorphism_pullback():
    # the first normalizing step sends the generic pair to theta = t4 e^4,
    # Omega = -(w34/t4) e^12 + w34 e^34
    F = ScalarField(("t1", "t2", "t4", "w34"))
    A = mat(F, [[0, 1, "t1/t4", "-t2/t4"],
                [-1, 0, "t2/t4", "t1/t4"],
                [0, 0, 1, 0],
                [0, 0, 0, 1]])
    theta = parse_form(F, 4, "t1*e1+t2*e2+t4*e4")
    omega = parse_form(
        F, 4,
        "((t1^2+t2^2-t4)/t4^2*w34)*e12 - (w34*t1/t4)*e13 + (w34*t2/t4)*e14"
        " - (w34*t2/t4)*e23 - (w34*t1/t4)*e24 + w34*e34")
    assert coframe_substitution(A, theta) == parse_form(F, 4, "t4*e4")
    assert coframe_substitution(A, omega) == parse_form(F, 4, "-(w34/t4)*e12 + w34*e34")


def test_is_automorphism_examples():
    r2r2 = parse_salamon("0,-12,0,-34")
    swap = mat(QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert is_automorphism(r2r2, swap)
    assert is_automorphism(r2r2, linalg.identity(QQ, 4))
    pseudo = mat(QQ, [[1, 2, 0, 1], [0, 1, 1, 0], [3, 0, 1, 0], [0, 1, 0, 1]])
    assert not is_automorphism(RH3, pseudo)
    assert automorphism_residual(RH3, pseudo) == "d(M*e1) = -3*e12, M*(de1) = 0"
    assert automorphism_residual(r2r2, swap) == ""
    assert not preserves_brackets(RH3, linalg.mat_neg(linalg.transpose(pseudo)))


def test_is_automorphism_agrees_with_bracket_oracle():
    rng = random.Random(8)
    algebras = [RH3, parse_salamon("0,-12,0,-34"), parse_salamon("14,-24,-12,0")]
    for g in algebras:
        for _ in range(15):
            c = mat(QQ, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if linalg.det(c).is_zero():
                continue
            # the coframe action C corresponds to the vector operator C^T
            primal = linalg.transpose(c)
            assert is_automorphism(g, c) == preserves_brackets(g, primal)


def test_is_j_invariant():
    omega = parse_form(QQ, 4, "e12+e34")
    assert is_j_invariant(omega, RH3_J)
    assert not is_j_invariant(parse_form(QQ, 4, "e13"), RH3_J)
    # -J gives the same answer
    minus = ComplexStructure(RH3, linalg.mat_neg(RH3_J.dual))
    assert is_j_invariant(omega, minus)
    assert not is_j_invariant(parse_form(QQ, 4, "e13"), minus)


def test_gram_metric_examples():
    omega = parse_form(QQ, 4, "e12+e34")
    G = gram_metric(omega, RH3_J)
    assert linalg.mat_eq(G, linalg.identity(QQ, 4))
    # scaling Omega scales G
    G2 = gram_metric(omega * QQ.scalar(3), RH3_J)
    assert all(G2[i][j] == G[i][j] * QQ.scalar(3) for i in range(4) for j in range(4))


def test_gram_metric_u2_entry():
    F = ScalarField(("a", "b", "t4", "w23"))
    u2 = parse_salamon("23,-13,12,0", field=F)
    J = ComplexStructure(u2, mat(F, [["a", 0, 0, "(a^2+1)/b"],
                                     [0, 0, 1, 0], [0, -1, 0, 0],
                                     ["-b", 0, 0, "-a"]]))
    omega = parse_form(F, 4, "(w23*t4)*e14 + w23*e23")
    G = gram_metric(omega, J)
    assert G[1][1] == F.parse("-w23")


def test_gram_metric_not_invariant():
    with pytest.raises(LckError, match=r"^gram matrix asymmetric at \(1,4\): -1 vs 0$"):
        gram_metric(parse_form(QQ, 4, "e13"), RH3_J)
    with pytest.raises(LckError, match="1-form applied to 2 vectors"):
        gram_metric(parse_form(QQ, 4, "e1"), RH3_J)


def _metric_structures():
    from test_constructions import cok3_data

    from lckverify.catalog import load_builtin
    from lckverify.constructions import cokahler_mapping_torus, ot_algebra

    for entry in load_builtin().entries:
        for fam in entry.lck_families:
            yield f"{entry.id}/{fam.name}", entry.family_structure(fam)
    for n, c in ((1, [0]), (2, [1, 2]), (3, [1, 2, 3])):
        yield f"ot({n})", ot_algebra(n, c)[1]
    yield "torus(4)", cokahler_mapping_torus(cok3_data())[1]


def test_gram_metric_is_omega_on_e_i_and_p_e_j():
    """W P, with W read off the coefficients of Omega, is Omega(e_i, P e_j)
    by two interior products, as identities over the family's field."""
    names = []
    for name, s in _metric_structures():
        g = s.algebra
        columns = linalg.transpose(dual_to_primal(s.J))  # the vectors P e_j
        reference = [[s.omega(ei, pj) for pj in columns]
                     for ei in linalg.identity(g.field, g.dim)]
        assert linalg.mat_eq(gram_metric(s.omega, s.J), reference), name
        names.append(name)
    assert len(names) == 36 + 4


def test_positivity_examples():
    F = ScalarField(("s",))
    rh3 = parse_salamon("0,0,-12,0", field=F)
    J = ComplexStructure(rh3, mat(F, [[0, -1, 0, 0], [1, 0, 0, 0],
                                      [0, 0, 0, -1], [0, 0, 1, 0]]))
    omega = parse_form(F, 4, "s*e12+s*e34")
    assert is_positive_at(omega, J, {"s": Fraction(1)})
    assert not is_positive_at(omega, J, {"s": Fraction(-1)})


def test_positivity_gl2_family():
    F = ScalarField(("m1", "w12", "w13", "w23"))
    gl2 = parse_salamon("-23,-2*12,2*13,0", field=F)
    J = ComplexStructure(gl2, mat(F, [
        [0, -1, -1, 0], ["1/2", 0, 0, "-1/m1"],
        ["1/2", 0, 0, "1/m1"], [0, "m1/2", "-m1/2", 0]]))
    omega = parse_form(
        F, 4, "w12*e12 + w13*e13 + (w23*m1)*e14 + w23*e23"
              " + (1/2*w12*m1)*e24 - (1/2*w13*m1)*e34")
    assert is_positive_at(omega, J, {"m1": 1, "w12": 1, "w13": 1, "w23": 0})


def test_coframe_substitution_is_ring_map():
    F = ScalarField(("x",))
    m = mat(F, [[1, "x", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    a = parse_form(F, 4, "e1+e2")
    b = parse_form(F, 4, "e34")
    assert coframe_substitution(m, a.wedge(b)) == \
        coframe_substitution(m, a).wedge(coframe_substitution(m, b))
