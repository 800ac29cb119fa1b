"""Structure equations, the differential, adjoints, centers, traces.

The differential is cross-checked against an independent evaluation
oracle: on a 1-form, (d a)(x, y) = -a([x, y]); on a 2-form,
(d w)(x, y, z) = -w([x,y], z) + w([x,z], y) - w([y,z], x).
"""

import random
from fractions import Fraction

import pytest

from lckverify.errors import LckError, ParseError
from lckverify.exterior import KForm, basis_tuples, parse_form
from lckverify.liealg import parse_salamon
from lckverify.scalars import QQ, ScalarField


def d_oracle(g, form):
    """CE differential evaluated through the bracket formula, degree <= 2."""
    field = g.field
    n = g.dim

    def basis_vec(i):
        return [field.one() if t == i - 1 else field.zero() for t in range(n)]

    out = {}
    if form.degree == 1:
        for i, j in basis_tuples(n, 2):
            val = -form(g.bracket(basis_vec(i), basis_vec(j)))
            if not val.is_zero():
                out[(i, j)] = val
        return KForm(field, n, 2, out)
    assert form.degree == 2
    for i, j, k in basis_tuples(n, 3):
        x, y, z = basis_vec(i), basis_vec(j), basis_vec(k)
        val = (-form(g.bracket(x, y), z)
               + form(g.bracket(x, z), y)
               - form(g.bracket(y, z), x))
        if not val.is_zero():
            out[(i, j, k)] = val
    return KForm(field, n, 3, out)


RH3 = parse_salamon("0,0,-12,0", name="rh3")
RR31 = parse_salamon("0,-12,-13,0", name="rr3_1")


def test_sign_convention_self_test():
    # de^3 = -e^1 ^ e^2 must pair with [e_1, e_2] = e_3; this pins the global
    # sign convention and must never be weakened.
    e1 = [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]
    e2 = [QQ.zero(), QQ.one(), QQ.zero(), QQ.zero()]
    assert RH3.d_coframe[2] == -parse_form(QQ, 4, "e12")
    assert RH3.bracket(e1, e2) == [QQ.zero(), QQ.zero(), QQ.one(), QQ.zero()]


def test_parse_salamon_examples():
    g = parse_salamon("0,0,-12,0")
    assert g.d_coframe[2] == parse_form(QQ, 4, "-e12")
    assert all(g.d_coframe[k].is_zero() for k in (0, 1, 3))

    ab = parse_salamon("0,0,0,0")
    assert all(f.is_zero() for f in ab.d_coframe)

    F = ScalarField(("l",))
    d4l = parse_salamon("l*14,(1-l)*24,-12+34,0", field=F)
    assert d4l.d_coframe == [parse_form(F, 4, text, degree=2)
                             for text in ("l*e14", "(1-l)*e24", "-e12+e34", "0")]


def test_parse_salamon_errors():
    with pytest.raises(ParseError):
        parse_salamon("0,0,-21,0")  # atom must have i < j
    with pytest.raises(ParseError,
                       match=r"entry 3 \('-15'\): index out of range in 'e15' \(dim 4\)"):
        parse_salamon("0,0,-15,0")  # index out of range
    with pytest.raises(ParseError):
        parse_salamon("0,0,12+,0")


def test_ce_d_examples():
    assert RH3.ce_d(parse_form(QQ, 4, "e34")) == parse_form(QQ, 4, "-e124")
    ab = parse_salamon("0,0,0,0")
    assert ab.ce_d(parse_form(QQ, 4, "e12+e34")).is_zero()
    assert RR31.ce_d(parse_form(QQ, 4, "e23")) == parse_form(QQ, 4, "-2*e123")


@pytest.mark.parametrize("spec", ["0,0,-12,0", "0,-12,-13,0", "0,-12,0,-34",
                                  "14,-24,-12,0", "1/2*14+24,1/2*24,-12+34,0"])
def test_ce_d_matches_bracket_oracle(spec):
    g = parse_salamon(spec)
    for k in range(1, 5):
        ek = KForm.basis(QQ, 4, (k,))
        assert g.ce_d(ek) == d_oracle(g, ek)
    for idx in basis_tuples(4, 2):
        b = KForm.basis(QQ, 4, idx)
        assert g.ce_d(b) == d_oracle(g, b)


def test_ce_d_leibniz_on_random_forms():
    rng = random.Random(9)
    F = ScalarField(("l",))
    g = parse_salamon("l*14,(1-l)*24,-12+34,0", field=F)
    for _ in range(20):
        a = KForm(F, 4, 1, {(i,): F.scalar(rng.randint(-2, 2)) for i in range(1, 5)})
        b = KForm(F, 4, 1, {(i,): F.scalar(rng.randint(-2, 2)) for i in range(1, 5)})
        lhs = g.ce_d(a.wedge(b))
        rhs = g.ce_d(a).wedge(b) - a.wedge(g.ce_d(b))
        assert lhs == rhs
        # d^2 = 0 beyond the coframe
        assert g.ce_d(g.ce_d(a)).is_zero()


def test_jacobi_examples():
    assert RH3.jacobi_holds()
    F = ScalarField(("l",))
    assert parse_salamon("l*14,(1-l)*24,-12+34,0", field=F).jacobi_holds()
    assert not parse_salamon("0,-12,-13,-23").jacobi_holds()


def test_ad_matrix_examples():
    e1 = [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]
    ad = RH3.ad_matrix(e1)
    # e2 -> e3, everything else -> 0
    assert ad[2][1] == QQ.one()
    assert all(ad[i][j].is_zero() for i in range(4) for j in range(4)
               if (i, j) != (2, 1))
    ab = parse_salamon("0,0,0,0")
    assert all(x.is_zero() for row in ab.ad_matrix(e1) for x in row)


def test_ad_matrix_d4_lambda_display():
    # the adjoint of a generic vector, rows as printed up to the corrected
    # (2,2) entry (1-l)*a4
    F = ScalarField(("l", "a1", "a2", "a3", "a4"))
    g = parse_salamon("l*14,(1-l)*24,-12+34,0", field=F)
    x = [F.var("a1"), F.var("a2"), F.var("a3"), F.var("a4")]
    ad = g.ad_matrix(x)
    expect = [
        ["l*a4", "0", "0", "-l*a1"],
        ["0", "(1-l)*a4", "0", "(l-1)*a2"],
        ["-a2", "a1", "a4", "-a3"],
        ["0", "0", "0", "0"],
    ]
    for i in range(4):
        for j in range(4):
            assert ad[i][j] == F.parse(expect[i][j]), (i, j)


def test_ad_bracket_identity():
    rng = random.Random(2)
    for spec in ["0,0,-12,0", "0,-12,0,-34", "14,-24,-12,0"]:
        g = parse_salamon(spec)
        for _ in range(10):
            x = [QQ.scalar(rng.randint(-2, 2)) for _ in range(4)]
            y = [QQ.scalar(rng.randint(-2, 2)) for _ in range(4)]
            from lckverify import linalg
            lhs = g.ad_matrix(g.bracket(x, y))
            axy = linalg.mat_mul(g.ad_matrix(x), g.ad_matrix(y))
            ayx = linalg.mat_mul(g.ad_matrix(y), g.ad_matrix(x))
            assert linalg.mat_eq(lhs, linalg.mat_sub(axy, ayx))


def test_center_examples():
    assert RH3.center() == [[QQ.zero(), QQ.zero(), QQ.one(), QQ.zero()],
                            [QQ.zero(), QQ.zero(), QQ.zero(), QQ.one()]]
    ab = parse_salamon("0,0,0,0")
    assert len(ab.center()) == 4
    assert parse_salamon("0,-12,0,-34").center() == []


def test_center_requires_instantiation():
    F = ScalarField(("l",))
    g = parse_salamon("l*14,(1-l)*24,-12+34,0", field=F)
    with pytest.raises(LckError, match="needs values for its parameters"):
        g.center()
    assert g.center({"l": Fraction(3, 4)}) == []


def test_unimodular_character():
    rng = random.Random(4)
    for _ in range(5):
        x = [QQ.scalar(rng.randint(-3, 3)) for _ in range(4)]
        assert RH3.unimodular_character(x).is_zero()
    F = ScalarField(("l",))
    g = parse_salamon("l*14,(1-l)*24,-12+34,0", field=F)
    e4 = [F.zero(), F.zero(), F.zero(), F.one()]
    assert g.unimodular_character(e4) == F.scalar(2)
    # linearity
    x = [F.scalar(1), F.scalar(2), F.scalar(0), F.scalar(3)]
    y = [F.scalar(0), F.scalar(1), F.scalar(1), F.scalar(-1)]
    s = [a + b for a, b in zip(x, y)]
    assert (g.unimodular_character(s)
            == g.unimodular_character(x) + g.unimodular_character(y))


def test_aff_block_trace():
    from lckverify.constructions import aff_block_algebra
    g = aff_block_algebra(QQ, 2)
    e1 = [QQ.one()] + [QQ.zero()] * 3
    assert g.unimodular_character(e1) == QQ.one()
