"""Alternating forms on an n-dimensional space over a ScalarField.

A KForm is a sparse map from strictly increasing 1-based index tuples to
Scalar coefficients.  Index tuples are 1-based so that catalog data can
be transcribed verbatim in the e^1..e^n coframe notation.

The linear algebra elsewhere works on coordinates: `vector()` gives a
1-form's values (theta(e_1), ..., theta(e_n)), `matrix()` a 2-form's
antisymmetric matrix W[a][b] = Omega(e_a, e_b), and `from_matrix` is the
inverse of `matrix()`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LckError, ParseError
from .scalars import QQ, Scalar, evaluate


def merge_sign(left, right):
    """Concatenate two strictly increasing tuples, returning (sign, merged)
    with the shuffle sign, or (0, None) when an index repeats."""
    sign = 1
    merged = []
    i, j = 0, 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # right[j] jumps over the remaining len(left)-i entries of left
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


class KForm:
    """Alternating k-form with Scalar coefficients."""

    __slots__ = ("field", "dim", "degree", "coeffs")

    def __init__(self, field, dim, degree, coeffs=None):
        if not 0 <= degree <= dim:
            # forms of degree > dim are identically zero; normalize the range
            degree = max(0, min(degree, dim))
            coeffs = {}
        self.field = field
        self.dim = dim
        self.degree = degree
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or any(not 1 <= i <= dim for i in idx):
                raise LckError(f"bad index tuple {idx} for degree {degree}, dim {dim}")
            if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                raise LckError(f"index tuple {idx} is not strictly increasing")
            if not c.is_zero():
                clean[idx] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field, dim, degree):
        return KForm(field, dim, degree, {})

    @staticmethod
    def basis(field, dim, indices, coeff=1):
        indices = tuple(indices)
        c = coeff if isinstance(coeff, Scalar) else field.scalar(coeff)
        return KForm(field, dim, len(indices), {indices: c})

    @staticmethod
    def from_matrix(field, matrix):
        """The 2-form with Omega(e_a, e_b) = matrix[a][b] for a < b; the
        lower triangle is not read."""
        n = len(matrix)
        return KForm(field, n, 2, {(a + 1, b + 1): matrix[a][b]
                                   for a in range(n) for b in range(a + 1, n)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, KForm) and self.dim == other.dim
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.coeffs.items())))

    def _check_compatible(self, other):
        if self.dim != other.dim:
            raise LckError(f"forms of dimension {self.dim} and {other.dim} do not combine")

    # -- linear structure -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, KForm):
            # the zero scalar is the zero form of every degree
            return self if isinstance(other, Scalar) and other.is_zero() else NotImplemented
        self._check_compatible(other)
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise LckError(f"cannot add forms of degree {self.degree} and {other.degree}")
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            s = coeffs.get(idx)
            s = c if s is None else s + c
            if s.is_zero():
                coeffs.pop(idx, None)
            else:
                coeffs[idx] = s
        return KForm(self.field, self.dim, self.degree, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return KForm(self.field, self.dim, self.degree,
                     {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = self.field.scalar(scalar)
        if not isinstance(scalar, Scalar):
            return NotImplemented
        return KForm(self.field, self.dim, self.degree,
                     {i: c * scalar for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, Fraction, Scalar)):
            return NotImplemented
        return self * (self.field.one() / scalar)

    # -- exterior operations ---------------------------------------------------

    def wedge(self, other):
        self._check_compatible(other)
        degree = self.degree + other.degree
        if degree > self.dim:
            return KForm.zero(self.field, self.dim, self.dim)
        coeffs = {}
        for i1, c1 in self.coeffs.items():
            for i2, c2 in other.coeffs.items():
                sign, merged = merge_sign(i1, i2)
                if sign == 0:
                    continue
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = coeffs.get(merged)
                s = c if s is None else s + c
                if s.is_zero():
                    coeffs.pop(merged, None)
                else:
                    coeffs[merged] = s
        return KForm(self.field, self.dim, degree, coeffs)

    def interior(self, vector):
        """Interior product with a coordinate vector (length = dim)."""
        if self.degree == 0:
            raise LckError("cannot contract a 0-form")
        if len(vector) != self.dim:
            raise LckError(f"cannot contract a {self.dim}-dimensional form "
                           f"with a vector of length {len(vector)}")
        coeffs = {}
        for idx, c in self.coeffs.items():
            for pos, i in enumerate(idx):
                x = vector[i - 1]
                if isinstance(x, (int, Fraction)):
                    x = self.field.scalar(x)
                if x.is_zero():
                    continue
                term = c * x
                if pos % 2:
                    term = -term
                rest = idx[:pos] + idx[pos + 1:]
                s = coeffs.get(rest)
                coeffs[rest] = term if s is None else s + term
        return KForm(self.field, self.dim, self.degree - 1, coeffs)

    def __call__(self, *vectors):
        """Evaluate on degree-many coordinate vectors; returns a Scalar."""
        if len(vectors) != self.degree:
            raise LckError(f"{self.degree}-form applied to {len(vectors)} vectors")
        form = self
        for v in vectors:
            if form.degree == 0:
                break
            form = form.interior(v)
        return form.coeffs.get((), self.field.zero())

    def vector(self):
        """[theta(e_1), ..., theta(e_n)] for a 1-form theta."""
        if self.degree != 1:
            raise LckError(f"{self.degree}-form applied to 1 vectors")
        zero = self.field.zero()
        return [self.coeffs.get((i,), zero) for i in range(1, self.dim + 1)]

    def matrix(self):
        """W[a][b] = Omega(e_a, e_b) for a 2-form Omega, antisymmetric."""
        if self.degree != 2:
            raise LckError(f"{self.degree}-form applied to 2 vectors")
        zero = self.field.zero()
        W = [[zero] * self.dim for _ in range(self.dim)]
        for (a, b), c in self.coeffs.items():
            W[a - 1][b - 1] = c
            W[b - 1][a - 1] = -c
        return W

    # -- coefficient maps ----------------------------------------------------------

    def map_coeffs(self, fn, field=None):
        field = field or self.field
        out = {}
        for idx, c in self.coeffs.items():
            v = fn(c)
            if not v.is_zero():
                out[idx] = v
        return KForm(field, self.dim, self.degree, out)

    def instantiate(self, assignment):
        """Evaluate all coefficients at a rational point; result lives over QQ."""
        return self.map_coeffs(lambda c: QQ.scalar(c.eval(assignment)), QQ)

    def subs(self, assignment):
        return self.map_coeffs(lambda c: c.subs(assignment))

    # -- printing -------------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for idx in sorted(self.coeffs):
            c = self.coeffs[idx]
            atom = "e" + "".join(str(i) for i in idx) if idx else "1"
            if c == self.field.one():
                pieces.append(atom)
            elif c == -self.field.one():
                pieces.append(f"-{atom}")
            else:
                cs = str(c)
                if any(ch in cs for ch in "+- ") and not (cs.startswith("-") and " " not in cs):
                    cs = f"({cs})"
                pieces.append(f"{cs}*{atom}")
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def linear_map_matrix(field, dim, degree, operator, target_degree):
    """Matrix of a linear map Lambda^degree -> Lambda^target_degree given on
    forms: column j is the image of the j-th basis form, rows follow
    `basis_tuples(dim, target_degree)`."""
    images = [operator(KForm.basis(field, dim, idx)) for idx in basis_tuples(dim, degree)]
    return [[img.coeffs.get(t, field.zero()) for img in images]
            for t in basis_tuples(dim, target_degree)]


def basis_tuples(dim, degree):
    """All strictly increasing index tuples, in lexicographic order."""
    out = []

    def rec(start, prefix):
        if len(prefix) == degree:
            out.append(tuple(prefix))
            return
        for i in range(start, dim + 1):
            prefix.append(i)
            rec(i + 1, prefix)
            prefix.pop()

    rec(1, [])
    return out


# -- textual form syntax ------------------------------------------------------------
#
# The scalars grammar, read by its one evaluator with each eIJK leaf a
# basis form and every other leaf a Scalar: "s*e12 + e34", "-e4",
# "(t1^2+t2^2-t4)/t4^2*e12".  KForm's arithmetic decides what is legal, so
# a wedge, a form power or a division by a form is a ParseError naming the
# text.  A bare "0" denotes the zero form of the requested degree.


def parse_form(field, dim, text, degree=None):
    def leaf(node):
        indices = _is_form_atom(node[1], dim) if node[0] == "var" else None
        if indices is None:
            return field.leaf(node)
        return KForm.basis(field, dim, indices)

    try:
        value = evaluate(text, leaf)
    except (LckError, TypeError) as exc:  # the text is named once
        where = "" if repr(text) in str(exc) else f" in the form {text!r}"
        raise ParseError(f"{exc}{where}") from None
    if not isinstance(value, KForm):
        if not value.is_zero():
            raise ParseError(f"expression {text!r} has no basis form factor")
        value = KForm.zero(field, dim, 0)
    if degree is not None and value.degree != degree:
        if not value.is_zero():
            raise ParseError(f"expected a {degree}-form in {text!r}, got degree {value.degree}")
        return KForm.zero(field, dim, degree)  # "0*e12" read as a 1-form
    return value


def _is_form_atom(name, dim):
    if len(name) < 2 or name[0] != "e" or not name[1:].isdigit():
        return None
    indices = tuple(int(d) for d in name[1:])
    if any(not 1 <= i <= dim for i in indices):
        raise ParseError(f"index out of range in {name!r} (dim {dim})")
    if any(indices[t] >= indices[t + 1] for t in range(len(indices) - 1)):
        raise ParseError(f"indices must be strictly increasing in {name!r}")
    return indices
