"""Solution spaces, their soundness/completeness, and the obstructions."""

import random
from fractions import Fraction

import pytest

from lckverify import linalg
from lckverify.errors import LckError
from lckverify.exterior import KForm, parse_form
from lckverify.hermitian import ComplexStructure
from lckverify.liealg import parse_salamon
from lckverify.scalars import QQ, ScalarField
from lckverify.solver import (
    degeneracy_certificate,
    lck_space,
    positivity_clash,
    rank_at_instantiation,
    satisfies_conditions,
    twisted_closed_space,
)


def mat(field, rows):
    return [[field.parse(str(x)) for x in row] for row in rows]


def rh3_setup():
    F = ScalarField(("t1", "t2", "t4"))
    g = parse_salamon("0,0,-12,0", field=F, name="rh3")
    J = ComplexStructure(g, mat(F, [[0, -1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 0, -1], [0, 0, 1, 0]]))
    theta = parse_form(F, 4, "t1*e1+t2*e2+t4*e4")
    return g, J, theta


def test_nullspace_of_no_rows_is_an_lck_error():
    with pytest.raises(LckError, match="at least one row"):
        linalg.nullspace([], 3)


def test_twisted_space_rh3():
    g, J, theta = rh3_setup()
    space = twisted_closed_space(g, theta)
    assert space.dimension == 3
    # free directions are the e14, e24, e34 coefficients
    free = sorted(idx for b in space.basis for idx, c in b.coeffs.items()
                  if c == g.field.one())
    assert free == [(1, 4), (2, 4), (3, 4)]
    assert [str(s) for s in space.side_conditions] == ["t4"]
    assert satisfies_conditions(space, g, theta)


def test_twisted_space_abelian():
    ab = parse_salamon("0,0,0,0")
    space = twisted_closed_space(ab, KForm.zero(QQ, 4, 1))
    assert space.dimension == 6


def test_twisted_space_rr31():
    g = parse_salamon("0,-12,-13,0")
    space = twisted_closed_space(g, parse_form(QQ, 4, "-2*e1"))
    assert space.dimension == 4
    free = sorted(idx for b in space.basis for idx, c in b.coeffs.items())
    assert free == [(1, 2), (1, 3), (1, 4), (2, 3)]


def test_theta_not_closed():
    g = parse_salamon("0,0,-12,0")
    with pytest.raises(LckError, match="needs a closed theta"):
        twisted_closed_space(g, parse_form(QQ, 4, "e3"))


def test_lck_space_rh3():
    g, J, theta = rh3_setup()
    space = lck_space(g, J, theta)
    assert space.dimension == 1
    [basis] = space.basis
    F = g.field
    expected = parse_form(
        F, 4,
        "((t1^2+t2^2-t4)/t4^2)*e12 - (t1/t4)*e13 + (t2/t4)*e14"
        " - (t2/t4)*e23 - (t1/t4)*e24 + e34")
    assert basis == expected
    assert satisfies_conditions(space, g, theta, J)


def test_lck_space_rr31():
    g = parse_salamon("0,-12,-13,0")
    J = ComplexStructure(g, mat(QQ, [[0, 0, 0, -1], [0, 0, 1, 0],
                                     [0, -1, 0, 0], [1, 0, 0, 0]]))
    space = lck_space(g, J, parse_form(QQ, 4, "-2*e1"))
    assert space.dimension == 2
    assert {tuple(b.coeffs) for b in space.basis} == {((1, 4),), ((2, 3),)}


def test_lck_space_h4_and_certificate():
    g = parse_salamon("1/2*14+24,1/2*24,-12+34,0")
    J = ComplexStructure(g, mat(QQ, [[0, 0, -2, 0], [0, 0, 0, 1],
                                     ["1/2", 0, 0, 0], [0, -1, 0, 0]]))
    space = lck_space(g, J, parse_form(QQ, 4, "-3/2*e4"))
    assert space.dimension == 2
    assert degeneracy_certificate(space, J, 1)


def test_degeneracy_certificate_examples():
    # r4_1: Omega(e1, J e1) = 0 on the twisted space
    g = parse_salamon("14,24+34,34,0")
    J = ComplexStructure(g, mat(QQ, [[0, -1, 0, 0], [1, 0, 0, 0],
                                     [0, 0, 0, 1], [0, 0, -1, 0]]))
    space = twisted_closed_space(g, parse_form(QQ, 4, "-2*e4"))
    assert degeneracy_certificate(space, J, 1)

    # rh3 generic: the e34 functional is not identically zero
    g, Jr, theta = rh3_setup()
    space = lck_space(g, Jr, theta)
    assert not degeneracy_certificate(space, Jr, 3)
    with pytest.raises(LckError, match=r"vector index 5 is not in 1\.\.4"):
        degeneracy_certificate(space, Jr, 5)


def test_positivity_clash():
    g = parse_salamon("1/2*14,1/2*24,-12+34,0")
    J1 = ComplexStructure(g, mat(QQ, [[0, -1, 0, 0], [1, 0, 0, 0],
                                      [0, 0, 0, 1], [0, 0, -1, 0]]))
    space = twisted_closed_space(g, parse_form(QQ, 4, "-3/2*e4"))
    assert positivity_clash(space, J1, 1, 3)
    assert not degeneracy_certificate(space, J1, 1)
    assert not positivity_clash(space, J1, 1, 2)


def test_completeness_at_random_instantiations():
    g, J, theta = rh3_setup()
    twisted = twisted_closed_space(g, theta)
    full = lck_space(g, J, theta)
    rng = random.Random(17)
    found = 0
    while found < 3:
        point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for v in g.field.vars}
        values = [point[v] for v in g.field.vars]
        if any(p.eval(values) == 0
               for p in twisted.side_conditions + full.side_conditions):
            continue
        if point["t4"] == 0:
            continue
        assert rank_at_instantiation(g, theta, point) == 6 - twisted.dimension
        assert rank_at_instantiation(g, theta, point, J) == 6 - full.dimension
        found += 1


def test_gl2_branch_side_conditions():
    F = ScalarField(("m1", "m2", "t4"))
    g = parse_salamon("-23,-2*12,2*13,0", field=F)
    J = ComplexStructure(g, mat(F, [
        [0, -1, -1, 0],
        ["1/2", "m2/(2*m1)", "-m2/(2*m1)", "-1/m1"],
        ["1/2", "-m2/(2*m1)", "m2/(2*m1)", "1/m1"],
        [0, "(m1^2+m2^2)/(2*m1)", "-(m1^2+m2^2)/(2*m1)", "-m2/m1"]]))
    theta = parse_form(F, 4, "t4*e4")
    space = lck_space(g, J, theta)
    assert space.dimension == 1
    # the generic branch excludes the locus m2 = 0 and t4 = -m1
    side = [str(s) for s in space.side_conditions]
    assert any("m2" in s for s in side)
    assert any(s == "m1^2 + 2*m1*t4 + m2^2 + t4^2" for s in side)
