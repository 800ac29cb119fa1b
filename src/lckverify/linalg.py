"""Exact linear algebra over a ScalarField.

Matrices are plain lists of lists of Scalars.  Products skip the terms
with a zero factor: the matrices here are mostly zeros, and Scalars are
kept in normal form, so every entry comes out the same as the dense sum.
Pivots are chosen deterministically (first row with a nonzero entry,
scanning columns left to right), and every pivot that is not a nonzero
constant is surfaced as a side condition: the reduction is only valid on
the locus where those numerators do not vanish.
"""

from __future__ import annotations

from .errors import LckError


def identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def _dot(zero, row, col):
    """sum(x * y for x, y in zip(row, col)) from `zero`, over the pairs
    whose factors are both nonzero."""
    total = zero
    for x, y in zip(row, col):
        if x.num.terms and y.num.terms:
            total = total + x * y
    return total


def mat_mul(a, b):
    zero = a[0][0].field.zero()
    cols = list(zip(*b))
    return [[_dot(zero, row, col) for col in cols] for row in a]


def mat_vec(a, v):
    zero = a[0][0].field.zero()
    return [_dot(zero, row, v) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def is_zero_matrix(a):
    return all(x.is_zero() for row in a for x in row)


def rref(rows, ncols):
    """Reduced row echelon form.

    Returns (reduced rows, pivot column list, side conditions), where the
    side conditions are the non-constant pivot scalars that were divided by.
    """
    rows = [list(r) for r in rows]
    side = []
    assumed = []  # primitive numerators already required nonzero
    pivots = []
    r = 0
    for col in range(ncols):
        # prefer constant pivots, then pivots whose nonvanishing is already
        # assumed, then the first nonzero entry
        pivot_row = None
        fallback = None
        for i in range(r, len(rows)):
            entry = rows[i][col]
            if entry.is_zero():
                continue
            if entry.is_constant():
                pivot_row = i
                break
            if fallback is None:
                fallback = i
            if entry.num.primitive() in assumed:
                pivot_row = i
                break
        if pivot_row is None:
            pivot_row = fallback
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        if not pivot.is_constant():
            side.append(pivot)
            num = pivot.num.primitive()
            if num not in assumed:
                assumed.append(num)
        inv = pivot.field.one() / pivot
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows, pivots, side


def nullspace(rows, ncols):
    """Basis of the right kernel as coordinate vectors, plus side conditions.

    The basis vector for free column j has entry 1 at position j.
    """
    if not rows:
        raise LckError("nullspace needs at least one row to infer the field")
    field = rows[0][0].field
    red, pivots, side = rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [field.zero()] * ncols
        vec[j] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][j]
        basis.append(vec)
    return basis, side


def rank(rows, ncols):
    if not rows:
        return 0
    _, pivots, _ = rref(rows, ncols)
    return len(pivots)


def solve(a, b):
    """Unique solution of a*x = b.

    Raises LckError when the system has no solution or the matrix does not
    have full column rank.
    """
    n, m = len(a), len(a[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    red, pivots, _ = rref(aug, m)
    for row in red[len(pivots):]:
        if not row[m].is_zero():
            raise LckError("system has no solution")
    if len(pivots) < m:
        raise LckError("system is underdetermined")
    x = [None] * m
    for r, pc in enumerate(pivots):
        x[pc] = red[r][m]
    return x


def det(a):
    """Determinant by Gaussian elimination over the field: the product of
    the pivots, negated once per row swap."""
    n = len(a)
    field = a[0][0].field
    rows = [list(r) for r in a]
    result = field.one()
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if not rows[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return field.zero()
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            result = -result
        pivot = rows[col][col]
        result = result * pivot
        inv = field.one() / pivot
        for i in range(col + 1, n):
            if not rows[i][col].is_zero():
                factor = rows[i][col] * inv
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[col])]
    return result

