"""Exact arithmetic in the rational function field QQ(p1, ..., pm).

Every coefficient in the verification pipeline is a Scalar: a reduced
fraction of multivariate polynomials over the rationals.  There is no
floating point anywhere; every identity check reduces to an exact
`is_zero` of a difference, and sign conditions are decided on rational
witness points only.

A ScalarField fixes the ordered tuple of parameter names.  Polynomials
are sparse maps from exponent vectors to Fraction coefficients, kept in
canonical form (no zero coefficients, graded-lex term order for
printing and leading terms).  Scalars are normalized so that

  * gcd(numerator, denominator) is constant,
  * the denominator has integer coprime coefficients,
  * the leading coefficient of the denominator is positive,

which makes equality a comparison of representations.  Only this module
builds a Scalar, and its constructor stores parts that are already
reduced, so every result is reduced on one of three paths:

  * addition, subtraction and multiplication with a zero operand return
    that normal form without any polynomial arithmetic;
  * a reduced Scalar with a constant denominator has denominator exactly
    1, so it is a polynomial.  When both operands are, the sum,
    difference and product are the polynomial ones, already reduced;
    when both are constants (every Scalar over QQ is one), +, -, * and
    / are one Fraction operation;
  * everything else, `subs` included, cancels gcds of the operands'
    factors before it multiplies, as for rational numbers (Henrici,
    J. ACM 3, 1956; Knuth, TAOCP vol. 2, section 4.5.1).  Each quotient
    by a gcd is a cofactor that `poly_gcd` returns from the division
    check that proves its gcd, the only exact division.

With a/b and c/d reduced, and a gcd with a constant argument taken as 1
without computing it:

  * a/b * c/d is (a/g1)(c/g2) / ((b/g2)(d/g1)) with g1 = gcd(a, d) and
    g2 = gcd(c, b); a quotient is the product with c and d swapped;
  * a/b + c/b is ((a + c)/g) / (b/g) with g = gcd(a + c, b), and a
    substitution of rationals divides the substituted a and b by their
    gcd in the same way;
  * a/b + c/d, for b != d, takes g = gcd(b, d), t = a(d/g) + c(b/g) and
    g2 = gcd(t, g), and is (t/g2) / ((b/g)(g/g2)(d/g)); with g = 1 this
    is (ad + cb)/(bd);
  * a power is a^n / b^n, reduced by Gauss's lemma, and its leading
    coefficient stays positive because graded-lex leading terms multiply.

These gcds are exact only because every operand is reduced.  Each result
then only needs the content and sign of its denominator fixed by
`_reduced`, and it lives in the left operand's field.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm

from .errors import LckError, ParseError


def _grlex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = terms  # dict exponent-tuple -> nonzero Fraction

    # -- constructors -----------------------------------------------------

    @staticmethod
    def constant(field, value):
        value = Fraction(value)
        if value == 0:
            return Polynomial(field, {})
        return Polynomial(field, {(0,) * field.nvars: value})

    @staticmethod
    def variable(field, name):
        i = field.index(name)
        exps = tuple(1 if j == i else 0 for j in range(field.nvars))
        return Polynomial(field, {exps: Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        [(exps, c)] = self.terms.items()
        if sum(exps) != 0:
            raise ValueError("polynomial is not constant")
        return c

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.field, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) - c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.field, terms)

    def __neg__(self):
        return Polynomial(self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Fraction):
            if other == 0:
                return Polynomial(self.field, {})
            return Polynomial(self.field, {e: c * other for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial(self.field, terms)

    def __pow__(self, n):
        result = Polynomial.constant(self.field, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation ----------------------------------------------------------

    def eval(self, values):
        """Evaluate at a full list of Fraction values, one per variable."""
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term *= v ** e
            total += term
        return total

    # -- normalization helpers -------------------------------------------------

    def content_sign(self):
        """Positive rational content c and sign s with self = s*c*(primitive)."""
        if not self.terms:
            return Fraction(1), 1
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = int_gcd(num_gcd, c.numerator)
            den_lcm = lcm(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        sign = 1 if self.leading()[1] > 0 else -1
        return content, sign

    def primitive(self):
        """self divided by its signed content: integer coprime coefficients,
        positive leading coefficient."""
        if not self.terms:
            return self
        content, sign = self.content_sign()
        factor = 1 / (content * sign)
        return Polynomial(self.field, {e: c * factor for e, c in self.terms.items()})

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.field.vars
        pieces = []
        for exps in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


# -- polynomial gcd ------------------------------------------------------------
#
# The gcd g comes with its cofactors p/g and q/g.  Short-circuits come
# first.  Up to units, the divisors of a monomial are monomials, so with a
# monomial input the gcd is x^m, m the least exponent of each variable over
# all terms of both inputs, and the cofactors shift exponents.  A common
# factor of polynomials in disjoint sets of variables (a nonzero constant
# among them) lies in QQ, so the gcd is 1, with cofactors p and q.
#
# Otherwise GCDHEU (Char, Geddes, Gonnet, J. Symbolic Comput. 7, 1989;
# Geddes, Czapor, Labahn, Algorithms for Computer Algebra, 1992, ch. 7) runs
# on the integer primitive parts a and b.  The last occurring variable x is
# set to xi >= 2 min(|a|, |b|) + 2, |.| the largest coefficient; the images'
# gcd h over Z is taken with one variable fewer and read back xi-adically
# with symmetric digits.  A primitive candidate that divides p and q (as it
# does exactly when it divides a and b) is the gcd (CGG 1989, main theorem),
# and the quotients are its cofactors: this check is the only exact division
# in the module.  Otherwise xi grows.  The loop ends: with g the gcd and a',
# b' its cofactors, h = g(xi) s(xi).  s(xi) is a nonconstant polynomial only
# for the finitely many xi with x - xi dividing a' or b', or with a component
# of V(a', b') inside x = xi; for every other xi it is an integer dividing a
# fixed product of resultants, so a large enough xi reads back s g, whose
# primitive part is g.  The result is primitive with positive leading
# coefficient, so the gcd of two nonzero constants is 1.


def poly_gcd(p, q):
    """Gcd g of two polynomials, primitive with positive leading coefficient,
    and the cofactors p/g and q/g."""
    if p.is_zero() or q.is_zero():
        f = q if p.is_zero() else p
        content, sign = f.content_sign()
        g, unit = f.primitive(), Polynomial.constant(f.field, content * sign)
        return (g, p, unit) if f is q else (g, unit, q)
    if len(p.terms) == 1 or len(q.terms) == 1:
        least = tuple(map(min, zip(*p.terms, *q.terms)))
        if any(least):
            p, q = (Polynomial(f.field, {tuple(map(operator.sub, e, least)): c
                                         for e, c in f.terms.items()}) for f in (p, q))
        return Polynomial(p.field, {least: Fraction(1)}), p, q
    in_p = [any(col) for col in zip(*p.terms)]
    in_q = [any(col) for col in zip(*q.terms)]
    if not any(a and b for a, b in zip(in_p, in_q)):
        return Polynomial.constant(p.field, 1), p, q
    # last variable occurring in either polynomial
    var = max(i for i, (a, b) in enumerate(zip(in_p, in_q)) if a or b)
    a, b = p.primitive(), q.primitive()
    xi = 2 * int(min(max(map(abs, a.terms.values())), max(map(abs, b.terms.values())))) + 2
    while True:
        ia, ib = (_subs_poly(f, {p.field.vars[var]: xi}) for f in (a, b))
        content = int_gcd(*(c.numerator for c in [*ia.terms.values(), *ib.terms.values()]))
        g = _xi_adic(poly_gcd(ia, ib)[0], content, var, xi)
        if g.is_constant():
            return g, p, q
        try:
            return g, _exact_div(p, g), _exact_div(q, g)
        except ArithmeticError:
            xi = xi * 73794 // 27011


def _xi_adic(h, scale, i, xi):
    """The primitive part of the polynomial whose coefficients in variable
    i are the symmetric base-xi digits of the integer coefficients of
    scale * h, which lacks variable i."""
    digits = {}
    for exps, c in h.terms.items():
        c, k = c.numerator * scale, 0
        while c:
            digit = c % xi
            if 2 * digit > xi:
                digit -= xi
            if digit:
                digits[exps[:i] + (k,) + exps[i + 1:]] = digit
            c, k = (c - digit) // xi, k + 1
    content = int_gcd(*digits.values())
    if digits[max(digits, key=_grlex_key)] < 0:
        content = -content
    return Polynomial(h.field, {e: Fraction(d // content) for e, d in digits.items()})


def _exact_div(p, d):
    """Exact division p / d by a nonzero d; raises ArithmeticError if the
    division is not exact."""
    quot = {}
    r = p
    d_exps, d_coeff = d.leading()
    while not r.is_zero():
        r_exps, r_coeff = r.leading()
        q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            raise ArithmeticError("inexact polynomial division")
        q_coeff = r_coeff / d_coeff
        quot[q_exps] = q_coeff
        r = r - d * Polynomial(p.field, {q_exps: q_coeff})
    return Polynomial(p.field, quot)


def _cofactors(p, q):
    """poly_gcd(p, q) of nonzero p and q; a gcd with a constant argument is
    1, with p and q as cofactors, and is not computed."""
    if p.is_constant() or q.is_constant():
        return p.field._unit, p, q
    return poly_gcd(p, q)


def _reduced(field, num, den):
    """The Scalar num/den for coprime num and den: both are divided by the
    signed content of den, so that den has integer coprime coefficients
    and a positive leading one."""
    content, sign = den.content_sign()
    factor = 1 / (content * sign)
    if factor != 1:
        num, den = num * factor, den * factor
    return Scalar(field, num, den)


def _quotient(field, a, b):
    """a/b for nonzero b: zero, or a and b divided by their gcd."""
    if a.is_zero():
        return field.zero()
    _, a1, b1 = _cofactors(a, b)
    return _reduced(field, a1, b1)


def _product(field, a, b, c, d):
    """(a/b)(c/d) for reduced nonzero operands."""
    _, a1, d1 = _cofactors(a, d)
    _, c1, b1 = _cofactors(c, b)
    return _reduced(field, a1 * c1, b1 * d1)


def _sum(field, a, b, c, d):
    """a/b + c/d for reduced operands."""
    if b == d:
        return _quotient(field, a + c, b)
    g, b1, d1 = _cofactors(b, d)
    _, t1, g1 = _cofactors(a * d1 + c * b1, g)
    return _reduced(field, t1, b1 * (g1 * d1))


class Scalar:
    """Element of the fraction field QQ(p1, ..., pm), kept reduced."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        """num/den, already reduced; only this module's arithmetic builds one."""
        self.field = field
        self.num = num
        self.den = den

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field.vars != self.field.vars:
                raise ValueError(
                    f"scalars from different fields: {self.field.vars} vs {other.field.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def _polynomial_op(self, other, op):
        """`self op other` when both denominators are 1, else None.

        On two constants this is one Fraction operation.  Otherwise, for
        +, - and *, the polynomial result is already in normal form over
        the denominator 1; a polynomial quotient is left to `_product`.
        """
        origin = self.field._origin
        d1, d2 = self.den.terms, other.den.terms
        if len(d1) != 1 or len(d2) != 1 or origin not in d1 or origin not in d2:
            return None
        n1, n2 = self.num.terms, other.num.terms
        if len(n1) == 1 and len(n2) == 1 and origin in n1 and origin in n2:
            return self.field._constant(op(n1[origin], n2[origin]))
        if op is operator.truediv:
            return None
        return Scalar(self.field, op(self.num, other.num), self.field._unit)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms and other.field is self.field:
            return other
        fast = self._polynomial_op(other, operator.add)
        if fast is not None:
            return fast
        return _sum(self.field, self.num, self.den, other.num, other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms and other.field is self.field:
            return -other
        fast = self._polynomial_op(other, operator.sub)
        if fast is not None:
            return fast
        return _sum(self.field, self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar(self.field, -self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return self.field.zero()
        fast = self._polynomial_op(other, operator.mul)
        if fast is not None:
            return fast
        return _product(self.field, self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if not self.num.terms:
            return self.field.zero()
        fast = self._polynomial_op(other, operator.truediv)
        if fast is not None:
            return fast
        return _product(self.field, self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return (self.field.one() / self) ** (-n)
        return Scalar(self.field, self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    # -- queries -----------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    def eval(self, assignment):
        """Exact rational value at a parameter point.

        `assignment` maps parameter names to Fractions and must cover every
        variable that actually occurs; the denominator must not vanish there.
        """
        values = []
        for i, name in enumerate(self.field.vars):
            if name in assignment:
                values.append(Fraction(assignment[name]))
            else:
                if any(e[i] for e in self.num.terms) or any(e[i] for e in self.den.terms):
                    raise LckError(f"missing parameter {name!r}")
                values.append(Fraction(0))
        den = self.den.eval(values)
        if den == 0:
            raise LckError(f"denominator of {self} vanishes at the point")
        return self.num.eval(values) / den

    def subs(self, assignment):
        """Partial substitution of parameters by rationals; stays in the field."""
        num = _subs_poly(self.num, assignment)
        den = _subs_poly(self.den, assignment)
        if den.is_zero():
            raise LckError(f"denominator of {self} vanishes under the substitution")
        return _quotient(self.field, num, den)

    def __str__(self):
        num = str(self.num)
        if self.den == self.field._unit:
            return num
        den = str(self.den)
        if len(self.den.terms) > 1 or any(c in den for c in "*/ "):
            den = f"({den})"
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/{den}"

    __repr__ = __str__


def _subs_poly(p, assignment):
    field = p.field
    indexed = {field.index(k): Fraction(v) for k, v in assignment.items()}
    terms = {}
    for exps, c in p.terms.items():
        new_exps = list(exps)
        for i, v in indexed.items():
            if exps[i]:
                c *= v ** exps[i]
                new_exps[i] = 0
        key = tuple(new_exps)
        terms[key] = terms[key] + c if key in terms else c
    return Polynomial(field, {e: c for e, c in terms.items() if c})


class ScalarField:
    """The coefficient field QQ(p1, ..., pm) with a fixed variable order."""

    def __init__(self, names=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.vars = names
        self.nvars = len(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._origin = (0,) * self.nvars
        # the denominator 1, shared by the Scalars built here: Polynomials
        # are never mutated
        self._unit = Polynomial.constant(self, 1)
        self._zero = Scalar(self, Polynomial(self, {}), self._unit)
        self._one = self._constant(Fraction(1))

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise LckError(f"unknown parameter {name!r}") from None

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def scalar(self, value):
        """Scalar from an int or Fraction."""
        return self._constant(Fraction(value))

    def _constant(self, value):
        """The normal form of a Fraction: zero, or value over the unit."""
        if not value:
            return self._zero
        return Scalar(self, Polynomial(self, {self._origin: value}), self._unit)

    def var(self, name):
        num = Polynomial.variable(self, name)
        return Scalar(self, num, self._unit)

    def leaf(self, node):
        """The Scalar of a num or var leaf for `evaluate`; a call has none."""
        if node[0] == "num":
            return self.scalar(node[1])
        if node[0] == "var":
            return self.var(node[1])
        raise ParseError(f"function {node[1]!r} is not a rational function")

    def parse(self, text):
        """Scalar from an arithmetic expression over rationals and parameters."""
        return evaluate(text, self.leaf)

    def __repr__(self):
        return f"ScalarField{self.vars}"


QQ = ScalarField(())


# -- expression grammar -----------------------------------------------------------
#
# Signed sums/products over integer literals and names with + - * / ( ),
# integer powers written ^ or **, and one-argument calls name(...).  Only
# this module knows the syntax tree, and `evaluate` is its one evaluator:
# scalars, forms, structure equations and rational points are read by it
# with their own leaves, and `variables` lists names without evaluating.
# sqrt(...) has a value only at a rational point (normalising
# automorphisms); as a Scalar it is a ParseError.


def tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif text.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
        elif c in "+-*/^(),=<>!":
            tokens.append(("op", c))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", "")

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value):
        kind, v = self.next()
        if v != value:
            got = "end of input" if kind == "end" else repr(v)
            raise ParseError(f"expected {value!r} in {self.text!r}, got {got}")

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            rhs = self.parse_factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self):
        kind, v = self.peek()
        if (kind, v) == ("op", "-"):
            self.next()
            return ("neg", self.parse_factor())
        if (kind, v) == ("op", "+"):
            self.next()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.next()
            neg = False
            if self.peek() == ("op", "-"):
                self.next()
                neg = True
            kind, v = self.next()
            if kind != "num":
                raise ParseError(f"exponent must be an integer in {self.text!r}")
            exp = -int(v) if neg else int(v)
            return ("pow", base, exp)
        return base

    def parse_atom(self):
        kind, v = self.next()
        if kind == "num":
            return ("num", Fraction(int(v)))
        if kind == "name":
            if self.peek() == ("op", "("):
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return ("call", v, arg)
            return ("var", v)
        if (kind, v) == ("op", "("):
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "end":
            raise ParseError(f"unexpected end of input in {self.text!r}")
        raise ParseError(f"unexpected token {v!r} in {self.text!r}")


def _parse(text):
    parser = _Parser(tokenize(text), text)
    node = parser.parse_expr()
    if parser.peek() != ("end", ""):
        raise ParseError(f"trailing input in {text!r}")
    return node


_OPERATIONS = {"neg": operator.neg, "add": operator.add, "sub": operator.sub,
               "mul": operator.mul, "div": operator.truediv, "pow": operator.pow}


def _fold(node, leaf):
    if node[0] in ("num", "var"):
        return leaf(node)
    op, *args = [_fold(x, leaf) if isinstance(x, tuple) else x for x in node]
    if op == "call":
        return leaf((op, *args))
    if (op == "div" and not args[1]) or (op == "pow" and args[1] < 0 and not args[0]):
        raise LckError("division by zero in expression")
    return _OPERATIONS[op](*args)


def evaluate(text, leaf):
    """Value of the expression `text`: `leaf` gives the values of the leaves
    ("num", Fraction), ("var", name) and ("call", name, argument value), and
    their own arithmetic combines them.  A zero divisor or a zero base
    under a negative power is an LckError."""
    return _fold(_parse(text), leaf)


def variables(text):
    """The names of the var leaves of `text`, in first-appearance order,
    found without evaluating it; a function's own name is not one."""
    names = []

    def walk(node):
        if node[0] == "var" and node[1] not in names:
            names.append(node[1])
        for child in node[1:]:
            if isinstance(child, tuple):
                walk(child)

    walk(_parse(text))
    return names


def sqrt_fraction(value):
    """Exact square root of a Fraction; LckError when not rational."""
    value = Fraction(value)
    if value < 0:
        raise LckError(f"sqrt of negative value {value}")
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        raise LckError(f"sqrt({value}) is irrational")
    return Fraction(rn, rd)


def eval_expression(text, assignment):
    """Evaluate an expression at a rational point.  Unlike Scalar.eval this
    accepts sqrt(...), failing with LckError unless the radicand is a
    perfect square of a rational."""
    def leaf(node):
        if node[0] == "num":
            return node[1]
        if node[0] == "var":
            try:
                return Fraction(assignment[node[1]])
            except KeyError:
                raise LckError(f"no value for parameter {node[1]!r}") from None
        if node[1] != "sqrt":
            raise ParseError(f"unknown function {node[1]!r}")
        return sqrt_fraction(node[2])

    return evaluate(text, leaf)
