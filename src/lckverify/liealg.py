"""Lie algebras given by structure equations on the coframe.

The k-th entry of a structure-equation string is the 2-form de^k; the
sign convention is fixed once and for all as

    de^k(e_i, e_j) = -e^k([e_i, e_j]),

so that "0,0,-12,0" (de^3 = -e^1^e^2) corresponds to [e_1,e_2] = e_3.
A mandatory self-test in the suite pins this convention.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import LckError, ParseError
from .exterior import KForm, basis_tuples, parse_form
from .scalars import QQ, Scalar, tokenize


class LieAlgebra:
    """Lie algebra described by the 2-forms de^1, ..., de^n."""

    def __init__(self, field, d_coframe, name=""):
        self.field = field
        self.dim = len(d_coframe)
        self.name = name
        for k, form in enumerate(d_coframe):
            if form.degree != 2 and not form.is_zero():
                raise LckError(f"de^{k + 1} must be a 2-form")
            if form.dim != self.dim:
                raise LckError(f"de^{k + 1} lives in dim {form.dim}")
        self.d_coframe = list(d_coframe)
        self._brackets = None
        self._d_cache = {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_structure_constants(field, dim, brackets, name=""):
        """brackets: dict (i, j) -> coordinate list of [e_i, e_j], for i < j."""
        d_coframe = []
        for k in range(1, dim + 1):
            coeffs = {}
            for (i, j), vec in brackets.items():
                c = vec[k - 1]
                if isinstance(c, (int, Fraction)):
                    c = field.scalar(c)
                if not c.is_zero():
                    coeffs[(i, j)] = -c
            d_coframe.append(KForm(field, dim, 2, coeffs))
        return LieAlgebra(field, d_coframe, name)

    # -- structure constants ----------------------------------------------------

    def bracket_table(self):
        """[e_i, e_j] for i < j as coordinate lists, from the coframe data."""
        if self._brackets is None:
            table = {}
            for i, j in basis_tuples(self.dim, 2):
                vec = []
                for k in range(1, self.dim + 1):
                    c = self.d_coframe[k - 1].coeffs.get((i, j))
                    vec.append(self.field.zero() if c is None else -c)
                table[(i, j)] = vec
            self._brackets = table
        return self._brackets

    def bracket(self, x, y):
        """Bracket of two coordinate vectors."""
        x = [self._scalar(c) for c in x]
        y = [self._scalar(c) for c in y]
        out = [self.field.zero()] * self.dim
        table = self.bracket_table()
        for i in range(1, self.dim + 1):
            if x[i - 1].is_zero():
                continue
            for j in range(1, self.dim + 1):
                if i == j or y[j - 1].is_zero():
                    continue
                vec = table[(i, j)] if i < j else table[(j, i)]
                factor = x[i - 1] * y[j - 1]
                if i > j:
                    factor = -factor
                for k in range(self.dim):
                    if not vec[k].is_zero():
                        out[k] = out[k] + factor * vec[k]
        return out

    def _scalar(self, c):
        return c if isinstance(c, Scalar) else self.field.scalar(c)

    # -- Chevalley-Eilenberg differential --------------------------------------------

    def _d_basis(self, indices):
        if indices in self._d_cache:
            return self._d_cache[indices]
        if len(indices) == 1:
            out = self.d_coframe[indices[0] - 1]
        else:
            head, tail = indices[0], indices[1:]
            e_head = KForm.basis(self.field, self.dim, (head,))
            d_tail = self._d_basis(tail)
            tail_form = KForm.basis(self.field, self.dim, tail)
            out = self.d_coframe[head - 1].wedge(tail_form) - e_head.wedge(d_tail)
        self._d_cache[indices] = out
        return out

    def ce_d(self, form):
        """Extend d from the coframe as an antiderivation."""
        if form.dim != self.dim:
            raise LckError(f"a form in dim {form.dim} on an algebra of dim {self.dim}")
        if form.degree == 0:
            return KForm.zero(self.field, self.dim, 1)
        out = KForm.zero(self.field, self.dim, min(form.degree + 1, self.dim))
        for idx, c in form.coeffs.items():
            out = out + self._d_basis(idx) * c
        return out

    def jacobi_holds(self):
        """d^2 = 0 on the coframe, as an identity in the parameters."""
        return all(self.ce_d(self.d_coframe[k]).is_zero() for k in range(self.dim))

    # -- adjoint operators --------------------------------------------------------------

    def ad_matrix(self, x):
        """Matrix of ad_x = [x, .] acting on coordinate vectors."""
        cols = [self.bracket(x, ej) for ej in linalg.identity(self.field, self.dim)]
        return linalg.transpose(cols)

    def unimodular_character(self, x):
        """chi(x) = tr(ad_x); the algebra is unimodular iff this vanishes."""
        ad = self.ad_matrix(x)
        return sum((ad[i][i] for i in range(self.dim)), start=self.field.zero())

    def center(self, assignment=None):
        """Basis of {x : ad_x = 0} at a rational parameter point.

        Parametric algebras must be instantiated: the center can jump at
        special parameter values.
        """
        if self.field.nvars and assignment is None:
            raise LckError(f"center of {self.name or 'algebra'} needs values for "
                           f"its parameters {self.field.vars}")
        g = self.instantiate(assignment or {})
        # [e_j, x] = ad_{e_j} x = 0 for every j
        rows = [row for ej in linalg.identity(g.field, g.dim) for row in g.ad_matrix(ej)]
        basis, _ = linalg.nullspace(rows, g.dim)
        return basis

    # -- instantiation --------------------------------------------------------------------

    def instantiate(self, assignment):
        """The same algebra over QQ, with all parameters evaluated."""
        if not self.field.nvars:
            return self
        d_coframe = [f.instantiate(assignment) for f in self.d_coframe]
        return LieAlgebra(QQ, d_coframe, name=self.name)

    def __repr__(self):
        eqs = ", ".join(str(f) for f in self.d_coframe)
        return f"LieAlgebra({self.name or '?'}: {eqs})"


# -- structure-equation parser -------------------------------------------------------------
#
# Comma-separated entries, one per coframe element.  Each entry is a
# 2-form read by `parse_form`, after the one rule of this dialect: a
# two-digit integer atom at parenthesis depth 0 that is not immediately
# followed by '*' denotes a basis 2-form, so "l*14,(1-l)*24,-12+34,0"
# reads as l*e14, (1-l)*e24, -e12+e34 and 0.


def parse_salamon(spec, field=None, name=""):
    field = field or QQ
    entries = [e.strip() for e in spec.split(",")]
    dim = len(entries)
    if dim > 9:
        raise ParseError("structure-equation atoms support dimension <= 9")
    d_coframe = []
    for k, entry in enumerate(entries):
        try:
            d_coframe.append(parse_form(field, dim, _as_form(entry), degree=2))
        except ParseError as exc:
            raise ParseError(f"entry {k + 1} ({entry!r}): {exc}") from None
    return LieAlgebra(field, d_coframe, name=name)


def _as_form(entry):
    """The entry in the form syntax: its two-digit atoms become eIJ."""
    tokens = tokenize(entry)
    words = []
    depth = 0
    for pos, (kind, value) in enumerate(tokens):
        if (kind, value) == ("op", "("):
            depth += 1
        elif (kind, value) == ("op", ")"):
            depth -= 1
        if (kind == "num" and len(value) == 2 and depth == 0
                and tokens[pos + 1:pos + 2] != [("op", "*")]):
            value = f"e{value}"
        words.append(value)
    return " ".join(words)
