"""Field axioms and normalization of the exact scalar arithmetic."""

import operator
import random
import sys
from fractions import Fraction

import pytest

from lckverify.errors import LckError, ParseError
from lckverify.scalars import (
    QQ,
    Polynomial,
    Scalar,
    ScalarField,
    _exact_div,
    _subs_poly,
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
    with pytest.raises(LckError, match="vanishes at the point"):
        F.parse("1/b").eval({"b": 0})
    with pytest.raises(LckError, match="missing parameter 'b'"):
        F.parse("a+b").eval({"a": 1})
    # a zero divisor in the text itself, in both evaluators, written as a
    # quotient or as a negative power
    for text in ("1/(t4-t4)", "a^-1", "(t4-t4)^-2*a"):
        with pytest.raises(LckError, match="division by zero in expression"):
            eval_expression(text, {"a": Fraction(0), "t4": Fraction(1)})
    for text in ("a/(b-b)", "(a-a)^-1", "(0)**-3"):
        with pytest.raises(LckError, match="division by zero in expression"):
            F.parse(text)


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
        except LckError as exc:  # a pole of x or y
            if "vanishes at the point" not in str(exc):
                raise
            continue
        assert vxy == vx * vy
        assert vsum == vx + vy
        done += 1


def _normal_form(field, num, den):
    """num/den normalised with one gcd of the full numerator and
    denominator, then the signed content of the denominator: the tests'
    reference, independent of the arithmetic's cancellation of factors."""
    if num.is_zero():
        return field.zero()
    _, num, den = poly_gcd(num, den)
    content, sign = den.content_sign()
    factor = 1 / (content * sign)
    return Scalar(field, num * factor, den * factor)


def _general_path(op, a, b):
    """a op b through the one-gcd normalisation, in a's field."""
    if op is operator.mul:
        return _normal_form(a.field, a.num * b.num, a.den * b.den)
    if op is operator.truediv:
        return _normal_form(a.field, a.num * b.den, a.den * b.num)
    return _normal_form(a.field, op(a.num * b.den, b.num * a.den), a.den * b.den)


@pytest.mark.parametrize("field", [F, QQ], ids=["parametric", "QQ"])
def test_zero_operand_matches_normal_form(field):
    """x + 0, 0 + x, x - 0, 0 - x, x * 0 and 0 * x skip the arithmetic but
    give what the one-gcd normalisation gives, in the left operand's
    field, also for a zero from a distinct field with the same names."""
    rng = random.Random(23)
    twin = ScalarField(field.vars)
    for _ in range(40):
        if field.vars:
            x = random_scalar(rng, field)
        else:
            x = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for zero in (field.zero(), 0, twin.zero()):
            z = zero if isinstance(zero, Scalar) else field.scalar(zero)
            for op in (operator.add, operator.sub, operator.mul):
                for got, want in ((op(x, zero), _general_path(op, x, z)),
                                  (op(zero, x), _general_path(op, z, x))):
                    assert got.field is want.field
                    assert got.num.terms == want.num.terms
                    assert got.den.terms == want.den.terms


def _operand(rng, field, kind, max_terms=2):
    """A Scalar built by the one-gcd normalisation: a constant, a
    nonconstant polynomial, or a quotient with a nonconstant denominator,
    each polynomial of 1 to `max_terms` terms of degree at most 2."""
    def poly(constant):
        while True:
            terms = {}
            for _ in range(rng.randint(1, max_terms)):
                exps = [0] * field.nvars
                for _ in range(0 if constant else rng.randint(1, 2)):
                    exps[rng.randrange(field.nvars)] += 1
                exps = tuple(exps)
                terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-6, 6),
                                                            rng.randint(1, 4))
            p = Polynomial(field, {e: c for e, c in terms.items() if c})
            if not p.is_zero() and p.is_constant() == constant:
                return p

    one = Polynomial.constant(field, 1)
    if kind == "constant":
        return _normal_form(field, poly(True), one)
    if kind == "polynomial":
        return _normal_form(field, poly(False), one)
    return _normal_form(field, poly(False), poly(False))


@pytest.mark.parametrize("field, kinds", [
    (F, ("constant", "polynomial", "quotient")),
    (QQ, ("constant",)),
], ids=["parametric", "QQ"])
def test_polynomial_operands_match_normal_form(field, kinds):
    """+, -, * and / on seeded pairs of constants, polynomials and
    quotients, mixed in every way, and on quotients over one denominator
    (whose sum is 1, 0, a polynomial or a constant over it), with the
    right operand also from a distinct field with the same names, give
    what the one-gcd normalisation gives, in the left operand's field."""
    rng = random.Random(31)
    twin = ScalarField(field.vars)
    pairs = []
    for _ in range(12):
        for left in kinds:
            for right in kinds:
                x = _operand(rng, field, left)
                pairs += [(x, _operand(rng, field, right)), (x, _operand(rng, twin, right))]
    if field.vars:
        shared = [("a/(a+b)", "b/(a+b)"), ("(a^2+m1)/(b-t4)", "(a^2+m1)/(b-t4)"),
                  ("a^2*m1/(a*m1+b)", "a*b/(a*m1+b)"), ("(a+1)/(b*m2+3)", "-a/(b*m2+3)")]
        for left, right in shared:
            pairs += [(field.parse(left), field.parse(right)),
                      (field.parse(left), twin.parse(right))]
        for _ in range(12):
            x = _operand(rng, field, "quotient")
            pairs.append((x, _normal_form(field, _operand(rng, field, "polynomial").num,
                                          x.den)))
    for x, y in pairs:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            got, want = op(x, y), _general_path(op, x, y)
            assert got.field is want.field is field
            assert got.num.terms == want.num.terms
            assert got.den.terms == want.den.terms


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_term_operands_give_reduced_results(seed, time_limit):
    """+, -, * and / on seeded quotients, constants and polynomials of up to
    three terms each.  The one-gcd normalisation stalls on some of these
    pairs, so each result is checked without it: it equals the operation by
    cross-multiplication, its numerator and denominator are coprime, and
    its denominator has integer coprime coefficients, the leading one
    positive.  That is the normal form."""
    rng = random.Random(f"three-term:{seed}")
    kinds = ("constant", "polynomial", "quotient")
    for _ in range(100):
        x, y = (_operand(rng, F, rng.choice(kinds), max_terms=3) for _ in range(2))
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with time_limit(2):
                got = op(x, y)
            assert_reduced_result(op, x, y, got)


def assert_reduced_result(op, x, y, got):
    """got is the normal form of `x op y`, checked without building it."""
    if op is operator.mul:
        want_num, want_den = x.num * y.num, x.den * y.den
    elif op is operator.truediv:
        want_num, want_den = x.num * y.den, x.den * y.num
    else:
        want_num, want_den = op(x.num * y.den, y.num * x.den), x.den * y.den
    assert got.num * want_den == want_num * got.den
    assert_coprime(got.num, got.den)
    assert got.den.content_sign() == (1, 1)  # integer, coprime, leading one > 0


def assert_coprime(p, q):
    """gcd(p, q) is constant, shown on univariate images, since the gcd of
    full products is the one that stalls.  For each variable x, the other
    variables are set to a rational point where p keeps its degree in x:
    there a common factor of degree k in x keeps degree k, so the images
    of p and q would share a factor of degree k."""
    assert p.terms or q.is_constant()
    rng = random.Random(0)
    for i, name in enumerate(p.field.vars):
        degree = max((e[i] for e in p.terms), default=0)
        if not degree or not any(e[i] for e in q.terms):
            continue
        for _ in range(20):  # a point where the images share a root proves nothing
            point = {v: Fraction(rng.randint(1, 50), rng.randint(1, 7))
                     for v in p.field.vars if v != name}
            image = _subs_poly(p, point)
            if (max((e[i] for e in image.terms), default=0) == degree
                    and poly_gcd(image, _subs_poly(q, point))[0].is_constant()):
                break
        else:
            pytest.fail(f"no point shows {p} and {q} coprime in {name}")


def test_stalled_quotient_operations_finish(time_limit):
    """Quotients whose sum, taken over the full products, stalls in a
    pseudo-remainder gcd: each of + - * / finishes in well under a second,
    and so do the gcds and operations on that sum s that stalled next."""
    x = F.parse("(2*a*m2 + 2*b*m2 + 3*m1^2)/(5*b - 2*m2)")
    y = F.parse("(-6*a^2 - m2*t4 - 5/2*m1)/(3*b*m2 - 4*m1*t4 + 4*m2)")
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with time_limit(2):
            got = op(x, y)
        assert_reduced_result(op, x, y, got)
    s = x + y
    for other in (poly("5*b - 2*m2"), s.den):
        with time_limit(2):
            assert poly_gcd(s.num, other)[0] == poly("1")
    for op, u, v in ((operator.truediv, s, F.parse("a + 1")), (operator.mul, s, s),
                     (operator.add, s, x)):
        with time_limit(2):
            got = op(u, v)
        assert_reduced_result(op, u, v, got)


def test_gcds_with_a_constant_are_skipped(monkeypatch):
    """Only the gcds of nonconstant factors are taken: a power of a quotient
    takes none, a sum with a polynomial or a product with a constant takes
    none, and a product with a polynomial takes one.  A sum over a shared
    denominator and a substitution take one, and none when the new
    numerator or denominator is constant.  Calls that `poly_gcd` makes of
    itself are not counted."""
    import lckverify.scalars as scalars

    calls, depth = [], [0]
    gcd = scalars.poly_gcd

    def counted(p, q):
        if not depth[0]:
            calls.append((p, q))
        depth[0] += 1
        try:
            return gcd(p, q)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(scalars, "poly_gcd", counted)
    q = F.parse("(a^2 + m1)/(a*b - 3*m2 + 1)")
    p = F.parse("a*m1 - b + 2")
    r = F.parse("(2 - a^2)/(a*b - 3*m2 + 1)")
    u = F.parse("(5 - a^2 - m1)/(a*b - 3*m2 + 1)")
    for value, count in ((lambda: q ** 3, 0), (lambda: q + p, 0), (lambda: q - p, 0),
                         (lambda: q * 3, 0), (lambda: q / 3, 0),
                         (lambda: q * p, 1), (lambda: p * q, 1), (lambda: q / p, 1),
                         (lambda: q + r, 1), (lambda: q - r, 1), (lambda: q + u, 0),
                         (lambda: q - q, 0),
                         (lambda: q.subs({"m2": 1}), 1), (lambda: q.subs({"a": 0}), 1),
                         (lambda: q.subs({"a": 0, "m1": 1}), 0),
                         (lambda: q.subs({"a": 0, "m2": 0}), 0)):
        calls.clear()
        value()
        assert len(calls) == count


def test_cancellation_divides_only_inside_the_gcd(monkeypatch):
    """The only exact division is `poly_gcd`'s check of its candidate, whose
    quotients are the cofactors that a sum, product, quotient or
    substitution keeps: the arithmetic never divides by a gcd again.  The
    operations of `test_gcds_with_a_constant_are_skipped` run with ones
    that cancel a monomial or a polynomial gcd."""
    import lckverify.scalars as scalars

    callers = []
    divide = scalars._exact_div

    def recorded(p, d):
        callers.append(sys._getframe(1).f_code.co_name)
        return divide(p, d)

    monkeypatch.setattr(scalars, "_exact_div", recorded)
    q = F.parse("(a^2 + m1)/(a*b - 3*m2 + 1)")
    p = F.parse("a*m1 - b + 2")
    r = F.parse("(2 - a^2)/(a*b - 3*m2 + 1)")
    u = F.parse("(5 - a^2 - m1)/(a*b - 3*m2 + 1)")
    for value in (q ** 3, q + p, q - p, q * 3, q / 3, q * p, p * q, q / p, q + r, q - r,
                  q + u, q - q, q.subs({"m2": 1}), q.subs({"a": 0}),
                  q.subs({"a": 0, "m1": 1}), q.subs({"a": 0, "m2": 0})):
        assert value.den.content_sign() == (1, 1)
    x = F.parse("(a^2 - b^2)/(m1 + 1)")
    for value, want in ((x * F.parse("(m1 + 1)/(a + b)"), "a - b"),
                        (x / F.parse("(a - b)/(m2 - 1)"), "(a + b)*(m2 - 1)/(m1 + 1)"),
                        (F.parse("a*b/(m1 + 1)") * F.parse("(m1 + 2)/(a*m2 + a)"),
                         "b*(m1 + 2)/((m1 + 1)*(m2 + 1))"),
                        (F.parse("1/(a*b + b^2)") + F.parse("1/(a^2 + a*b)"), "1/(a*b)"),
                        (F.parse("1/((a + b)*(m1 + 1))") - F.parse("1/((a + b)*(m2 + 1))"),
                         "(m2 - m1)/((a + b)*(m1 + 1)*(m2 + 1))"),
                        (F.parse("(a*m1 + b)/(a + b*m1)").subs({"m1": 1}), "1"),
                        (F.parse("(a*m1 + a*b)/(a*t4 + m1)").subs({"m1": 0}), "b/t4")):
        assert value == F.parse(want)
    assert callers and set(callers) == {"poly_gcd"}


def test_polynomial_operands_skip_normalisation(monkeypatch):
    """A sum or product of two constants over QQ, or of two polynomials,
    never reaches the content computation of `_reduced`."""
    calls = []
    content_sign = Polynomial.content_sign

    def counted(self):
        calls.append(self)
        return content_sign(self)

    monkeypatch.setattr(Polynomial, "content_sign", counted)
    pairs = [(QQ.scalar(Fraction(3, 4)), QQ.scalar(Fraction(-5, 6))),
             (F.parse("a^2 + 2*b"), F.parse("3*a - m1/2"))]
    for x, y in pairs:
        assert (x * y, x + y) == (_general_path(operator.mul, x, y),
                                  _general_path(operator.add, x, y))
        calls.clear()
        x * y
        x + y
        assert calls == []


@pytest.mark.parametrize("other", [1.5, "1", None], ids=["float", "str", "None"])
@pytest.mark.parametrize("op, symbol", [(operator.sub, "-"), (operator.truediv, "/")],
                         ids=["sub", "div"])
@pytest.mark.parametrize("scalar_left", [True, False], ids=["scalar-left", "scalar-right"])
def test_unsupported_operand_is_a_type_error(other, op, symbol, scalar_left):
    """Either way round, the TypeError names both operand types in order."""
    x = QQ.scalar(2)
    left, right = (x, other) if scalar_left else (other, x)
    with pytest.raises(TypeError) as info:
        op(left, right)
    assert (f"for {symbol}: '{type(left).__name__}' and '{type(right).__name__}'"
            in str(info.value))


def test_normalization_is_canonical():
    pairs = [
        ("a/b + b/a", "(a^2+b^2)/(a*b)"),
        ("(a^2-b^2)/(a-b)", "a+b"),
        ("(2*a)/(4*b)", "a/(2*b)"),
        ("1/(-b)", "-1/b"),
        ("(a*b)/(b*b)", "a/b"),
        # a common factor of the denominators that the sum's numerator shares
        ("1/(a*b) + 1/(a*(a-b))", "1/(b*(a-b))"),
        ("(a+b)/(a-b) * (a-b)/(a+b+1)", "(a+b)/(a+b+1)"),
        ("((a+1)/b) / ((a+1)/(b+m1))", "(b+m1)/b"),
        ("((a+1)/(2 - 4*b))^2", "(a^2+2*a+1)/(16*b^2-16*b+4)"),
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
    with pytest.raises(ParseError, match=r"^unexpected end of input in 'a \+'$"):
        F.parse("a +")
    with pytest.raises(ParseError, match=r"^expected '\)' in '\(a', got end of input$"):
        F.parse("(a")
    with pytest.raises(ParseError, match=r"^expected '\)' in '\(a b', got 'b'$"):
        F.parse("(a b")
    with pytest.raises(ParseError):
        F.parse("sqrt(a)")  # radicals are point-evaluation only


def test_sqrt_evaluation():
    assert eval_expression("sqrt(-1/t4)", {"t4": Fraction(-4)}) == Fraction(1, 2)
    assert sqrt_fraction(Fraction(9, 16)) == Fraction(3, 4)
    with pytest.raises(LckError, match="is irrational"):
        sqrt_fraction(Fraction(2))
    with pytest.raises(LckError, match="sqrt of negative value"):
        eval_expression("sqrt(t4)", {"t4": Fraction(-1)})


def test_subs_partial():
    s = F.parse("(a+m2)/(b-m2)")
    t = s.subs({"m2": Fraction(2)})
    assert t == F.parse("(a+2)/(b-2)")
    # a factor that the substitution makes common cancels
    t = F.parse("(a^2 - m2)/(a*m1 - 1)").subs({"m1": Fraction(1), "m2": Fraction(1)})
    assert (str(t.num), str(t.den)) == ("a + 1", "1")


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
    ("16 - a", "a^2 + a", "1"),         # xi = 4 reads the images' gcd 4 as a
])
def test_poly_gcd_examples(p, q, g):
    for x, y in ((poly(p), poly(q)), (poly(q), poly(p))):
        got, x1, y1 = poly_gcd(x, y)
        assert got == poly(g)
        assert got * x1 == x and got * y1 == y


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
    """gcd(p*h, q*h) divides both inputs, with the returned cofactors, and
    is divisible by h; when p and q share no variable it is exactly h, up
    to a unit."""
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
        g, p1, q1 = poly_gcd(ph, qh)
        assert g == g.primitive()
        assert g * p1 == ph
        assert g * q1 == qh
        assert h.primitive() * _exact_div(g, h.primitive()) == g
        if disjoint:
            assert g == h.primitive()


# -- the pseudo-remainder reference gcd -----------------------------------------
#
# The gcd that `poly_gcd` used before the heuristic one: content/primitive
# part recursion on the last occurring variable with a primitive
# pseudo-remainder sequence, after the same short-circuits.  It evaluates
# nothing and reads no digits, so it is the tests' reference for the
# heuristic gcd, on inputs small enough for it to finish.


def _degree_in(p, i):
    return max((e[i] for e in p.terms), default=0)


def _coeffs_in(p, i):
    """Coefficients of p as a polynomial in variable i (dense, by degree)."""
    d = _degree_in(p, i)
    coeffs = [Polynomial(p.field, {}) for _ in range(d + 1)]
    for exps, c in p.terms.items():
        rest = exps[:i] + (0,) + exps[i + 1:]
        coeffs[exps[i]] = coeffs[exps[i]] + Polynomial(p.field, {rest: c})
    return coeffs


def _pseudo_rem(p, q, i):
    """Pseudo-remainder of p by q as polynomials in variable i."""
    dq = _degree_in(q, i)
    lead_q = _coeffs_in(q, i)[dq]
    r = p
    while not r.is_zero() and _degree_in(r, i) >= dq:
        rc = _coeffs_in(r, i)
        dr = len(rc) - 1
        shift = {exps[:i] + (exps[i] + dr - dq,) + exps[i + 1:]: v
                 for exps, v in rc[dr].terms.items()}
        r = r * lead_q - q * Polynomial(p.field, shift)
        assert r.is_zero() or _degree_in(r, i) < dr
    return r


def _content_in(p, i):
    """Gcd of the variable-i coefficients of p (a polynomial in fewer vars)."""
    coeffs = [c for c in _coeffs_in(p, i) if not c.is_zero()]
    g = coeffs[0].primitive()
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = _prs_gcd(g, c)
    return g


def _primitive_in(p, i):
    return p if p.is_zero() else _exact_div(p, _content_in(p, i))


def _prs_gcd(p, q):
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
    if len(p.terms) == 1 or len(q.terms) == 1:
        least = tuple(map(min, zip(*p.terms, *q.terms)))
        return Polynomial(p.field, {least: Fraction(1)})
    in_p = [any(col) for col in zip(*p.terms)]
    in_q = [any(col) for col in zip(*q.terms)]
    if not any(a and b for a, b in zip(in_p, in_q)):
        return Polynomial.constant(p.field, 1)
    var = max(i for i, (a, b) in enumerate(zip(in_p, in_q)) if a or b)
    cp, cq = _content_in(p, var), _content_in(q, var)
    c = _prs_gcd(cp, cq)
    a, b = _exact_div(p, cp), _exact_div(q, cq)
    if _degree_in(a, var) < _degree_in(b, var):
        a, b = b, a
    while not b.is_zero():
        a, b = b, _primitive_in(_pseudo_rem(a, b, var), var)
    return (c * a).primitive()


def test_poly_gcd_matches_the_prs_reference(time_limit):
    """gcd(p*h, q*h) on 300 seeded pairs with a planted factor h, each of
    p, q, h of up to two, three or four terms in a random subset of the
    variables, is the PRS reference's gcd.  Where the reference runs past
    its second, the returned cofactors are checked to be coprime; most
    pairs are compared.  The gcd times each cofactor is its input."""
    rng = random.Random("planted")
    unchecked = 0
    for _ in range(300):
        names = [v for v in F.vars if rng.random() < 0.7] or [F.vars[0]]
        p, q, h = (random_poly(rng, names, max_terms=rng.choice([2, 3, 4]))
                   for _ in range(3))
        ph, qh = p * h, q * h
        with time_limit(2):
            g, p1, q1 = poly_gcd(ph, qh)
        assert g * p1 == ph and g * q1 == qh
        try:
            with time_limit(1):
                want = _prs_gcd(ph, qh)
        except TimeoutError:
            unchecked += 1
            assert_coprime(p1, q1)
            continue
        assert g == want
    assert unchecked <= 30
