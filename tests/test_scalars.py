"""Field axioms and normalization of the exact scalar arithmetic."""

import random
from fractions import Fraction

import pytest

from lckverify.errors import DenominatorVanishes, MissingParameter, ParseError
from lckverify.scalars import (
    QQ,
    Polynomial,
    ScalarField,
    _exact_div,
    eval_expression,
    poly_gcd,
    sqrt_fraction,
)

F = ScalarField(("a", "b", "m1", "m2", "t4"))


def random_scalar(rng, field=F, max_terms=3, allow_zero=True):
    def poly():
        s = field.zero()
        for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
            term = field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 2)):
                term = term * field.var(rng.choice(field.vars))
            s = s + term
        return s

    num = poly()
    den = field.zero()
    while den.is_zero():
        den = poly()
    return num / den


def random_point(rng, field=F):
    while True:
        point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for v in field.vars}
        if all(v != 0 for v in point.values()):
            return point


def test_eval_examples():
    s = F.parse("(a^2+1)/b")
    assert s.eval({"a": 0, "b": 1}) == 1
    assert F.parse("m1").eval({"m1": 0}) == 0
    assert F.parse("(m1^2+m2^2)/(2*m1)").eval({"m1": 1, "m2": 2}) == Fraction(5, 2)


def test_eval_errors():
    with pytest.raises(DenominatorVanishes):
        F.parse("1/b").eval({"b": 0})
    with pytest.raises(MissingParameter):
        F.parse("a+b").eval({"a": 1})
    # a zero divisor in the text itself, in both evaluators
    with pytest.raises(DenominatorVanishes):
        eval_expression("1/(t4-t4)", {"t4": Fraction(1)})
    with pytest.raises(DenominatorVanishes):
        F.parse("a/(b-b)")


def test_is_zero_examples():
    assert F.parse("a - a").is_zero()
    assert F.parse("(1-a) + a - 1").is_zero()
    assert not F.parse("t4").is_zero()


def test_field_axioms_on_random_scalars():
    rng = random.Random(7)
    for _ in range(60):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert ((x + y) + z - (x + (y + z))).is_zero()
        assert (x * (y + z) - (x * y + x * z)).is_zero()
        if not x.is_zero():
            assert (x * (F.one() / x) - 1).is_zero()


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    done = 0
    while done < 100:
        x, y = random_scalar(rng), random_scalar(rng)
        point = random_point(rng)
        try:
            vx, vy = x.eval(point), y.eval(point)
            vxy = (x * y).eval(point)
            vsum = (x + y).eval(point)
        except DenominatorVanishes:
            continue
        assert vxy == vx * vy
        assert vsum == vx + vy
        done += 1


def test_normalization_is_canonical():
    pairs = [
        ("a/b + b/a", "(a^2+b^2)/(a*b)"),
        ("(a^2-b^2)/(a-b)", "a+b"),
        ("(2*a)/(4*b)", "a/(2*b)"),
        ("1/(-b)", "-1/b"),
        ("(a*b)/(b*b)", "a/b"),
    ]
    for left, right in pairs:
        x, y = F.parse(left), F.parse(right)
        assert x == y
        assert str(x) == str(y)
        assert hash(x) == hash(y)


def test_denominator_sign_normalization():
    x = F.parse("a/(-2*b+b)")
    assert str(x.den) == "b"
    assert x == F.parse("-a/b")


def test_parse_errors():
    with pytest.raises(ParseError):
        F.parse("a +")
    with pytest.raises(ParseError):
        F.parse("(a")
    with pytest.raises(ParseError):
        F.parse("sqrt(a)")  # radicals are point-evaluation only


def test_sqrt_evaluation():
    assert eval_expression("sqrt(-1/t4)", {"t4": Fraction(-4)}) == Fraction(1, 2)
    assert sqrt_fraction(Fraction(9, 16)) == Fraction(3, 4)
    from lckverify.errors import IrrationalRadical
    with pytest.raises(IrrationalRadical):
        sqrt_fraction(Fraction(2))
    with pytest.raises(IrrationalRadical):
        eval_expression("sqrt(t4)", {"t4": Fraction(-1)})


def test_subs_partial():
    s = F.parse("(a+m2)/(b-m2)")
    t = s.subs({"m2": Fraction(2)})
    assert t == F.parse("(a+2)/(b-2)")


def test_qq_field_is_plain_rationals():
    x = QQ.parse("3/4 - 1/4")
    assert x.is_constant() and x.constant_value() == Fraction(1, 2)


def poly(text):
    return F.parse(text).num


@pytest.mark.parametrize("p, q, g", [
    ("6*a^2*b", "a*b^3 + a^3", "a"),   # monomial input
    ("a^2*b", "a*b^2", "a*b"),          # two monomials
    ("a + 1", "b + 2", "1"),            # no shared variable
    ("2*a", "4", "1"),                  # constant input
    ("0", "3*a*b", "a*b"),              # zero input
])
def test_poly_gcd_examples(p, q, g):
    assert poly_gcd(poly(p), poly(q)) == poly(g)
    assert poly_gcd(poly(q), poly(p)) == poly(g)


def random_poly(rng, names, max_terms=3, max_exp=2):
    """Nonzero polynomial with up to max_terms terms in the given variables."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_exp) if v in names else 0 for v in F.vars)
            terms[exps] = terms.get(exps, 0) + Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                                        rng.randint(1, 3))
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            return Polynomial(F, terms)


def test_poly_gcd_random_common_factor():
    """gcd(p*h, q*h) divides both inputs and is divisible by h; when p and q
    share no variable it is exactly h, up to a unit."""
    rng = random.Random(19)
    for _ in range(120):
        names = list(F.vars)
        rng.shuffle(names)
        cut = rng.randint(1, len(names) - 1)
        disjoint = rng.random() < 0.5
        p = random_poly(rng, names[:cut] if disjoint else names)
        q = random_poly(rng, names[cut:] if disjoint else names)
        h = random_poly(rng, names, max_terms=rng.choice([1, 1, 2, 3]),
                        max_exp=rng.choice([0, 2]))
        ph, qh = p * h, q * h
        g = poly_gcd(ph, qh)
        assert g == g.primitive()
        assert g * _exact_div(ph, g) == ph
        assert g * _exact_div(qh, g) == qh
        assert h.primitive() * _exact_div(g, h.primitive()) == g
        if disjoint:
            assert g == h.primitive()
