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

which makes equality a comparison of representations.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm

from .errors import (
    DenominatorVanishes,
    IrrationalRadical,
    MissingParameter,
    ParseError,
)


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
# Two exact short-circuits come first:
#
#   * A monomial input: up to units, the divisors of a monomial are
#     monomials, so the gcd is x^m with m the least exponent of each
#     variable over all terms of both inputs.
#   * No variable occurs in both inputs (a nonzero constant input among
#     them): a common factor of polynomials in disjoint sets of variables
#     lies in QQ, so the gcd is 1.
#
# Otherwise: content/primitive-part recursion on the last occurring
# variable, with a primitive pseudo-remainder sequence.  The recursive
# content gcds meet the short-circuits too.  The result is primitive with
# positive leading coefficient; in particular the gcd of two nonzero
# constants is 1.


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
    dp, dq = _degree_in(p, i), _degree_in(q, i)
    qc = _coeffs_in(q, i)
    lead_q = qc[dq]
    r = p
    while not r.is_zero() and _degree_in(r, i) >= dq:
        rc = _coeffs_in(r, i)
        dr = len(rc) - 1
        lead_r = rc[dr]
        shift = {}
        for exps, v in lead_r.terms.items():
            shift[exps[:i] + (exps[i] + dr - dq,) + exps[i + 1:]] = v
        r = r * lead_q - q * Polynomial(p.field, shift)
        if not r.is_zero() and _degree_in(r, i) == dr:
            raise ArithmeticError("pseudo-remainder failed to reduce degree")
    return r


def poly_gcd(p, q):
    """Gcd of two polynomials, primitive with positive leading coefficient."""
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
    # last variable occurring in either polynomial
    var = max(i for i, (a, b) in enumerate(zip(in_p, in_q)) if a or b)
    cp = _content_in(p, var)
    cq = _content_in(q, var)
    c = poly_gcd(cp, cq)
    a = _exact_div(p, cp)
    b = _exact_div(q, cq)
    if _degree_in(a, var) < _degree_in(b, var):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, var)
        a, b = b, _primitive_in(r, var)
    return (c * a).primitive()


def _content_in(p, i):
    """Gcd of the variable-i coefficients of p (a polynomial in fewer vars)."""
    coeffs = [c for c in _coeffs_in(p, i) if not c.is_zero()]
    g = coeffs[0].primitive()
    for c in coeffs[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, c)
    return g


def _primitive_in(p, i):
    if p.is_zero():
        return p
    return _exact_div(p, _content_in(p, i))


def _exact_div(p, d):
    """Exact division p / d; raises if the division is not exact."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if d.is_constant():
        inv = 1 / d.constant_value()
        return Polynomial(p.field, {e: c * inv for e, c in p.terms.items()})
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


class Scalar:
    """Element of the fraction field QQ(p1, ..., pm), kept reduced."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den, _normalized=False):
        self.field = field
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("scalar with zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial.constant(field, 1)
            return
        if not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = _exact_div(num, g)
                den = _exact_div(den, g)
        content, sign = den.content_sign()
        factor = 1 / (content * sign)
        if factor != 1:
            den = den * factor
            num = num * factor
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

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(self.field, self.num + other.num, self.den)
        return Scalar(self.field,
                      self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(self.field, self.num - other.num, self.den)
        return Scalar(self.field,
                      self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        return Scalar(self.field, -self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
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
                    raise MissingParameter(name)
                values.append(Fraction(0))
        den = self.den.eval(values)
        if den == 0:
            raise DenominatorVanishes(str(self))
        return self.num.eval(values) / den

    def subs(self, assignment):
        """Partial substitution of parameters by rationals; stays in the field."""
        num = _subs_poly(self.num, assignment)
        den = _subs_poly(self.den, assignment)
        if den.is_zero():
            raise DenominatorVanishes(str(self))
        return Scalar(self.field, num, den)

    def __str__(self):
        num = str(self.num)
        if self.den == Polynomial.constant(self.field, 1):
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
    out = Polynomial(field, {})
    for exps, c in p.terms.items():
        factor = c
        new_exps = list(exps)
        for i, v in indexed.items():
            if exps[i]:
                factor *= v ** exps[i]
                new_exps[i] = 0
        out = out + Polynomial(field, {tuple(new_exps): factor})
    return out


class ScalarField:
    """The coefficient field QQ(p1, ..., pm) with a fixed variable order."""

    def __init__(self, names=()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.vars = names
        self.nvars = len(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._one = Scalar(self, Polynomial.constant(self, 1),
                           Polynomial.constant(self, 1), _normalized=True)
        self._zero = Scalar(self, Polynomial(self, {}),
                            Polynomial.constant(self, 1), _normalized=True)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise MissingParameter(name) from None

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def scalar(self, value):
        """Scalar from an int or Fraction."""
        num = Polynomial.constant(self, Fraction(value))
        return Scalar(self, num, Polynomial.constant(self, 1), _normalized=True)

    def var(self, name):
        num = Polynomial.variable(self, name)
        return Scalar(self, num, Polynomial.constant(self, 1), _normalized=True)

    def parse(self, text):
        """Scalar from an arithmetic expression over rationals and parameters."""
        ast = parse_expression(text)
        return ast_to_scalar(ast, self)

    def __repr__(self):
        return f"ScalarField{self.vars}"


QQ = ScalarField(())


# -- expression grammar -----------------------------------------------------------
#
# Signed sums/products over integer literals and parameter names with
# + - * / ( ) and integer powers written ^ or **.  The same grammar is
# shared by the structure-equation parser, the form parser, and the
# matrix entries of catalog records.  sqrt(...) is accepted by the
# tokenizer but only meaningful for point evaluation (normalizing
# automorphisms); converting a sqrt to a Scalar raises ParseError.


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
            raise ParseError(f"expected {value!r} in {self.text!r}, got {v!r}")

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
        raise ParseError(f"unexpected token {v!r} in {self.text!r}")


def parse_expression(text):
    parser = _Parser(tokenize(text), text)
    node = parser.parse_expr()
    if parser.peek() != ("end", ""):
        raise ParseError(f"trailing input in {text!r}")
    return node


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _fold(node, leaf):
    """Value of an expression tree: `leaf` gives the values of the num, var
    and call nodes, and the arithmetic nodes combine them."""
    op = node[0]
    if op in ("num", "var", "call"):
        return leaf(node)
    if op == "neg":
        return -_fold(node[1], leaf)
    if op == "pow":
        return _fold(node[1], leaf) ** node[2]
    if op == "div":
        d = _fold(node[2], leaf)
        if not d:
            raise DenominatorVanishes("division by zero in expression")
        return _fold(node[1], leaf) / d
    if op in _ARITHMETIC:
        return _ARITHMETIC[op](_fold(node[1], leaf), _fold(node[2], leaf))
    raise ParseError(f"bad expression node {op!r}")


def ast_to_scalar(node, field):
    def leaf(node):
        if node[0] == "num":
            return field.scalar(node[1])
        if node[0] == "var":
            return field.var(node[1])
        raise ParseError(f"function {node[1]!r} is not a rational function")

    return _fold(node, leaf)


def sqrt_fraction(value):
    """Exact square root of a Fraction; IrrationalRadical when not rational."""
    value = Fraction(value)
    if value < 0:
        raise IrrationalRadical(f"sqrt of negative value {value}")
    rn, rd = isqrt(value.numerator), isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        raise IrrationalRadical(f"sqrt({value}) is irrational")
    return Fraction(rn, rd)


def eval_expression(text, assignment):
    """Evaluate an expression at a rational point.  Unlike Scalar.eval this
    accepts sqrt(...), failing with IrrationalRadical unless the radicand is a
    perfect square of a rational."""
    def leaf(node):
        if node[0] == "num":
            return node[1]
        if node[0] == "var":
            try:
                return Fraction(assignment[node[1]])
            except KeyError:
                raise MissingParameter(node[1]) from None
        if node[1] != "sqrt":
            raise ParseError(f"unknown function {node[1]!r}")
        return sqrt_fraction(_fold(node[2], leaf))

    return _fold(parse_expression(text), leaf)
