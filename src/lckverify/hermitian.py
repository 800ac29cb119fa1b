"""Complex structures, automorphisms, and the Hermitian metric.

Complex structures are stored exactly as printed in catalog sources: as
matrices acting on the coframe, with columns the images of e^1..e^n
(the dual convention J(alpha) = alpha(J^{-1} .)).  The operator on
vectors is always derived via P = -M^T, never transcribed, and the map
is written once, in `minus_transpose`, so there is a single place where
the convention can go wrong; the self-tests pin it against the rh3 data
where both sides are known.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import NotAlmostComplex, NotInvariant, SingularMatrix
from .exterior import KForm, basis_tuples
from .scalars import QQ


class ComplexStructure:
    """Almost complex structure given by its action on the coframe."""

    def __init__(self, algebra, dual_matrix, name="J"):
        self.algebra = algebra
        self.dual = [list(row) for row in dual_matrix]
        self.name = name

    @property
    def field(self):
        return self.algebra.field

    def instantiate(self, assignment):
        g = self.algebra.instantiate(assignment)
        dual = [[QQ.scalar(x.eval(assignment)) for x in row] for row in self.dual]
        return ComplexStructure(g, dual, name=self.name)


def squares_to_minus_id(matrix):
    n = len(matrix)
    field = matrix[0][0].field
    m2 = linalg.mat_mul(matrix, matrix)
    for i in range(n):
        for j in range(n):
            want = field.scalar(-1) if i == j else field.zero()
            if m2[i][j] != want:
                return False
    return True


def minus_transpose(matrix):
    """-M^T: the operator P on vectors of a coframe matrix M (uses
    J^{-1} = -J), and, the map being an involution, M from P."""
    return linalg.mat_neg(linalg.transpose(matrix))


def dual_to_primal(J):
    """Operator on vectors: P = -M^T."""
    if not squares_to_minus_id(J.dual):
        raise NotAlmostComplex(f"{J.name}: dual matrix does not square to -Id")
    return minus_transpose(J.dual)


def nijenhuis(g, P, i, j):
    """Nij(e_i, e_j) = -[x,y] + [Px,Py] - P[Px,y] - P[x,Py] as coordinates."""
    field = g.field
    ei = [field.one() if t == i - 1 else field.zero() for t in range(g.dim)]
    ej = [field.one() if t == j - 1 else field.zero() for t in range(g.dim)]
    pi = [P[t][i - 1] for t in range(g.dim)]
    pj = [P[t][j - 1] for t in range(g.dim)]
    term1 = g.bracket(ei, ej)
    term2 = g.bracket(pi, pj)
    term3 = linalg.mat_vec(P, g.bracket(pi, ej))
    term4 = linalg.mat_vec(P, g.bracket(ei, pj))
    return [-a + b - c - d for a, b, c, d in zip(term1, term2, term3, term4)]


def is_complex_structure(g, J):
    """M^2 = -Id and vanishing Nijenhuis tensor, as parameter identities."""
    if not squares_to_minus_id(J.dual):
        return False
    P = minus_transpose(J.dual)
    for i, j in basis_tuples(g.dim, 2):
        if any(not c.is_zero() for c in nijenhuis(g, P, i, j)):
            return False
    return True


def coframe_substitution(matrix, form):
    """Apply the coframe map e^i -> sum_j matrix[j][i] e^j multiplicatively.

    This is the pullback along the vector-space map whose coframe action is
    `matrix`; it is a ring map for the wedge product.
    """
    field = form.field
    dim = form.dim
    images = [KForm(field, dim, 1,
                    {(j + 1,): matrix[j][i] for j in range(dim)
                     if not matrix[j][i].is_zero()})
              for i in range(dim)]
    out = KForm.zero(field, dim, form.degree)
    for idx, c in form.coeffs.items():
        term = KForm(field, dim, 0, {(): c})
        for i in idx:
            term = term.wedge(images[i - 1])
        out = out + term
    return out


def pullback_form(matrix, form):
    """Pullback of a form along an automorphism (dual-matrix action)."""
    if linalg.det(matrix).is_zero():
        raise SingularMatrix("pullback along a singular matrix")
    return coframe_substitution(matrix, form)


def is_automorphism(g, matrix):
    """Pullback commutes with the differential on the coframe."""
    if linalg.det(matrix).is_zero():
        raise SingularMatrix("candidate automorphism is singular")
    for k in range(1, g.dim + 1):
        ek = KForm.basis(g.field, g.dim, (k,))
        lhs = coframe_substitution(matrix, g.ce_d(ek))
        rhs = g.ce_d(coframe_substitution(matrix, ek))
        if lhs != rhs:
            return False
    return True


def commutes_with(matrix, J):
    """Complex-linearity in dual coordinates: C M = M C."""
    return linalg.mat_eq(linalg.mat_mul(matrix, J.dual),
                         linalg.mat_mul(J.dual, matrix))


def is_j_invariant(omega, J):
    """Omega(P., P.) = Omega identically."""
    P = dual_to_primal(J)
    transformed = coframe_substitution(linalg.transpose(P), omega)
    return transformed == omega


def gram_metric(omega, J):
    """G[i][j] = Omega(e_i, P e_j); raises NotInvariant when not symmetric."""
    g = J.algebra
    field = g.field
    P = dual_to_primal(J)
    G = []
    for i in range(1, g.dim + 1):
        row = []
        for j in range(g.dim):
            ei = [field.one() if t == i - 1 else field.zero() for t in range(g.dim)]
            pj = [P[t][j] for t in range(g.dim)]
            row.append(omega(ei, pj))
        G.append(row)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if G[i][j] != G[j][i]:
                raise NotInvariant(
                    f"gram matrix asymmetric at ({i + 1},{j + 1}): "
                    f"{G[i][j]} vs {G[j][i]}")
    return G


def is_positive_at(omega, J, assignment):
    """Sylvester criterion on the gram matrix at a rational point."""
    G = gram_metric(omega, J)
    Gq = [[QQ.scalar(x.eval(assignment)) for x in row] for row in G]
    return all(m.constant_value() > 0 for m in linalg.leading_principal_minors(Gq))
