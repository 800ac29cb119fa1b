"""Wedge product, interior product, and the textual form syntax."""

import random
import re
from fractions import Fraction

import pytest

from lckverify import linalg
from lckverify.errors import LckError, ParseError
from lckverify.exterior import KForm, basis_tuples, parse_form
from lckverify.scalars import QQ, ScalarField


def perm_sign(seq):
    """Independent sign oracle: parity of the number of inversions."""
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def e(*indices):
    return KForm.basis(QQ, 4, indices)


def test_wedge_examples():
    assert e(1).wedge(e(2)) == e(1, 2)
    assert e(4).wedge(e(1, 2)) == e(1, 2, 4) * perm_sign((4, 1, 2))
    assert e(4).wedge(e(1, 2)) == e(1, 2, 4)
    assert e(1).wedge(e(1, 2)).is_zero()


def test_wedge_sign_against_permutation_oracle():
    for left in basis_tuples(4, 2):
        for right in basis_tuples(4, 2):
            got = KForm.basis(QQ, 4, left).wedge(KForm.basis(QQ, 4, right))
            merged = left + right
            if len(set(merged)) < 4:
                assert got.is_zero()
            else:
                expected = KForm.basis(QQ, 4, tuple(sorted(merged)),
                                       coeff=perm_sign(merged))
                assert got == expected


def random_form(rng, field, dim, degree):
    coeffs = {}
    for idx in basis_tuples(dim, degree):
        if rng.random() < 0.6:
            coeffs[idx] = field.scalar(Fraction(rng.randint(-3, 3)))
    return KForm(field, dim, degree, coeffs)


def test_graded_anticommutativity_and_associativity():
    rng = random.Random(3)
    for _ in range(40):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        a = random_form(rng, QQ, 4, p)
        b = random_form(rng, QQ, 4, q)
        sign = (-1) ** (p * q)
        assert a.wedge(b) == b.wedge(a) * sign
        c = random_form(rng, QQ, 4, 1)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_interior_product_examples():
    e3 = [QQ.zero(), QQ.zero(), QQ.one(), QQ.zero()]
    assert e(3, 4).interior(e3) == e(4)
    e1 = [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]
    assert e(2, 3).interior(e1).is_zero()
    with pytest.raises(LckError, match="cannot contract a 0-form"):
        KForm(QQ, 4, 0, {(): QQ.one()}).interior(e1)


def test_interior_product_leibniz_and_square_zero():
    rng = random.Random(5)
    for _ in range(30):
        a = random_form(rng, QQ, 4, rng.randint(1, 2))
        b = random_form(rng, QQ, 4, 1)
        x = [QQ.scalar(rng.randint(-2, 2)) for _ in range(4)]
        lhs = a.wedge(b).interior(x)
        rhs = a.interior(x).wedge(b) + a.wedge(b.interior(x)) * ((-1) ** a.degree)
        assert lhs == rhs
        if a.degree == 2:
            assert a.interior(x).interior(x).is_zero()


def test_evaluation_on_vectors():
    omega = parse_form(QQ, 4, "2*e12 + e34")
    e1 = [QQ.one(), QQ.zero(), QQ.zero(), QQ.zero()]
    e2 = [QQ.zero(), QQ.one(), QQ.zero(), QQ.zero()]
    assert omega(e1, e2) == QQ.scalar(2)
    assert omega(e2, e1) == QQ.scalar(-2)
    assert omega(e1, e1).is_zero()


def seeded_form(rng, field, dim, degree, texts):
    """About half of the basis forms, each with a coefficient from `texts`."""
    return KForm(field, dim, degree, {idx: field.parse(rng.choice(texts))
                                      for idx in basis_tuples(dim, degree)
                                      if rng.random() < 0.5})


@pytest.mark.parametrize("field, texts", [
    (QQ, ["1", "-2", "3/4", "-5/3"]),
    (ScalarField(("a", "b")), ["1", "-3/4", "a", "a*b - 1", "(a^2 + 1)/b", "1/(a - b)"]),
], ids=["QQ", "Qab"])
def test_coordinates_are_values_on_the_basis(field, texts):
    """vector() and matrix() agree with evaluation on basis vectors, and
    from_matrix reads matrix() back."""
    rng = random.Random(7)
    e = linalg.identity(field, 5)
    for _ in range(10):
        theta = seeded_form(rng, field, 5, 1, texts)
        omega = seeded_form(rng, field, 5, 2, texts)
        assert theta.vector() == [theta(ei) for ei in e]
        assert omega.matrix() == [[omega(ea, eb) for eb in e] for ea in e]
        assert KForm.from_matrix(field, omega.matrix()) == omega
    for form in (omega, KForm.basis(field, 5, (1, 2, 3)), KForm(field, 5, 0, {(): field.one()})):
        with pytest.raises(LckError, match=f"^{form.degree}-form applied to 1 vectors$"):
            form.vector()
    for form in (theta, KForm.basis(field, 5, (1, 2, 3))):
        with pytest.raises(LckError, match=f"^{form.degree}-form applied to 2 vectors$"):
            form.matrix()


def test_dimension_mismatch():
    with pytest.raises(LckError, match="forms of dimension 4 and 3 do not combine"):
        e(1).wedge(KForm.basis(QQ, 3, (1,)))


def test_parse_form_syntax():
    F = ScalarField(("s", "t4"))
    omega = parse_form(F, 4, "s*e12 + e34")
    assert omega.coeffs[(1, 2)] == F.var("s")
    assert omega.coeffs[(3, 4)] == F.one()
    theta = parse_form(F, 4, "-e4")
    assert theta.coeffs[(4,)] == F.scalar(-1)
    rational = parse_form(F, 4, "(t4^2-1)/t4*e13")
    assert rational.coeffs[(1, 3)] == F.parse("(t4^2-1)/t4")
    assert parse_form(F, 4, "0", degree=2).is_zero()
    zero = parse_form(F, 4, "0*e12", degree=1)
    assert zero.degree == 1 and zero.vector() == [F.zero()] * 4
    # a zero scalar is the zero form of every degree, so it may be added
    for text in ("0 + e12", "e12 - (s - s)", "(1-1) - -e12"):
        assert parse_form(F, 4, text) == parse_form(F, 4, "e12")
    assert parse_form(F, 4, "e12/(s-1)") == parse_form(F, 4, "1/(s-1)*e12")


def test_parse_form_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_form(QQ, 4, "e12*e34")  # no wedge products in the syntax
    with pytest.raises(ParseError):
        parse_form(QQ, 4, "e21")  # indices must increase
    with pytest.raises(ParseError):
        parse_form(QQ, 4, "e12 + e134")  # mixed degree
    with pytest.raises(ParseError):
        parse_form(QQ, 4, "3 + e12")
    for text in ("e12/e34", "e12^2", "sqrt(2)*e12", "e12/(1-1)", "(1-1)^-1*e12"):
        with pytest.raises(ParseError, match=f"in the form {re.escape(repr(text))}$"):
            parse_form(QQ, 4, text)


def test_degree_beyond_dimension_is_zero():
    a = parse_form(QQ, 4, "e123")
    b = parse_form(QQ, 4, "e34")
    assert a.wedge(b).is_zero()
