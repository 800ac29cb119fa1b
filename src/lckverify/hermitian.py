"""Complex structures, automorphisms, and the Hermitian metric.

Complex structures are stored exactly as printed in catalog sources: as
matrices acting on the coframe, with columns the images of e^1..e^n
(the dual convention J(alpha) = alpha(J^{-1} .)).  The operator on
vectors is always derived via P = -M^T, never transcribed, and the map
is written once, in `minus_transpose`, so there is a single place where
the convention can go wrong; the self-tests pin it against the rh3 data
where both sides are known.  P is derived once per J, after the check
M^2 = -Id, and cached on it.  The metric is the matrix product W P, with
W = `KForm.matrix` of Omega.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .errors import LckError
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

    @cached_property
    def P(self):
        """The operator on vectors, P = -M^T; LckError unless M^2 = -Id."""
        minus_id = linalg.mat_neg(linalg.identity(self.field, len(self.dual)))
        if not linalg.mat_eq(linalg.mat_mul(self.dual, self.dual), minus_id):
            raise LckError(f"{self.name}: dual matrix does not square to -Id")
        return minus_transpose(self.dual)

    def instantiate(self, assignment):
        return ComplexStructure(self.algebra.instantiate(assignment),
                                matrix_at(self.dual, assignment), name=self.name)


def matrix_at(matrix, assignment):
    """A matrix of Scalars evaluated at a rational point, over QQ."""
    return [[QQ.scalar(x.eval(assignment)) for x in row] for row in matrix]


def minus_transpose(matrix):
    """-M^T: the operator P on vectors of a coframe matrix M (uses
    J^{-1} = -J), and, the map being an involution, M from P."""
    return linalg.mat_neg(linalg.transpose(matrix))


def dual_to_primal(J):
    """Operator on vectors: P = -M^T."""
    return J.P


def nijenhuis(g, P, i, j):
    """Nij(e_i, e_j) = -[x,y] + [Px,Py] - P[Px,y] - P[x,Py] as coordinates."""
    e = linalg.identity(g.field, g.dim)
    ei, ej = e[i - 1], e[j - 1]
    pi = [P[t][i - 1] for t in range(g.dim)]
    pj = [P[t][j - 1] for t in range(g.dim)]
    term1 = g.bracket(ei, ej)
    term2 = g.bracket(pi, pj)
    term3 = linalg.mat_vec(P, g.bracket(pi, ej))
    term4 = linalg.mat_vec(P, g.bracket(ei, pj))
    return [-a + b - c - d for a, b, c, d in zip(term1, term2, term3, term4)]


def complex_residual(g, J):
    """Why J is not integrable: the failed M^2 = -Id or the first nonzero
    Nijenhuis component; "" when it is."""
    try:
        P = J.P
    except LckError as exc:
        return str(exc)
    for i, j in basis_tuples(g.dim, 2):
        value = nijenhuis(g, P, i, j)
        if any(not c.is_zero() for c in value):
            return f"N(e{i}, e{j}) = ({', '.join(map(str, value))})"
    return ""


def is_complex_structure(g, J):
    """M^2 = -Id and vanishing Nijenhuis tensor, as parameter identities."""
    return not complex_residual(g, J)


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


def automorphism_residual(g, matrix):
    """Why the coframe map M is not an automorphism: the first k with
    d(M^*e^k) != M^*(de^k), and both sides; "" if it is; LckError if singular."""
    if linalg.det(matrix).is_zero():
        raise LckError("candidate automorphism is singular")
    for k in range(1, g.dim + 1):
        ek = KForm.basis(g.field, g.dim, (k,))
        lhs = coframe_substitution(matrix, g.ce_d(ek))
        rhs = g.ce_d(coframe_substitution(matrix, ek))
        if lhs != rhs:
            return f"d(M*e{k}) = {rhs}, M*(de{k}) = {lhs}"
    return ""


def is_automorphism(g, matrix):
    """Pullback commutes with the differential on the coframe."""
    return not automorphism_residual(g, matrix)


def commutes_with(matrix, J):
    """Complex-linearity in dual coordinates: C M = M C."""
    return linalg.mat_eq(linalg.mat_mul(matrix, J.dual),
                         linalg.mat_mul(J.dual, matrix))


def j_residual(omega, J):
    """Omega(P., P.) - Omega, the 2-form that vanishes iff Omega is J-invariant."""
    P = dual_to_primal(J)
    return coframe_substitution(linalg.transpose(P), omega) - omega


def is_j_invariant(omega, J):
    """Omega(P., P.) = Omega identically."""
    return j_residual(omega, J).is_zero()


def gram_metric(omega, J):
    """G[i][j] = Omega(e_i, P e_j), the product W P of the matrix of Omega
    and the operator on vectors; raises LckError when not symmetric."""
    G = linalg.mat_mul(omega.matrix(), J.P)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if G[i][j] != G[j][i]:
                raise LckError(
                    f"gram matrix asymmetric at ({i + 1},{j + 1}): "
                    f"{G[i][j]} vs {G[j][i]}")
    return G


def is_positive_at(omega, J, assignment):
    """Sylvester criterion on the gram matrix at a rational point."""
    return sylvester_positive(gram_metric(omega, J), assignment)[0]


def sylvester_positive(G, assignment):
    """Sylvester criterion on a symmetric matrix at a rational point.

    Returns (positive, residual), the residual naming the first leading
    principal minor that is not positive: "minor k = v".  G is evaluated
    to plain Fractions and reduced by one Gaussian elimination without
    row swaps.  While the first k - 1 pivots are nonzero, the k-th
    leading minor is the product of the first k pivots (Golub-Van Loan,
    Matrix Computations, 4.2), so every minor is positive iff every pivot
    is, and the first pivot <= 0 marks the first minor <= 0.
    """
    rows = [[x.eval(assignment) for x in row] for row in G]
    minor = 1
    for k, row in enumerate(rows):
        pivot = row[k]
        minor *= pivot
        if pivot <= 0:
            return False, f"minor {k + 1} = {minor}"
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / pivot
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], row)]
    return True, ""
