"""Solution spaces of the twisted-closedness and invariance conditions.

These replay the generic derivations behind each catalog family: given a
closed 1-form theta (usually with symbolic coefficients), compute the
space of 2-forms Omega with d(Omega) = theta ^ Omega, optionally
intersect with the J-invariance conditions, and certify the positivity
obstructions behind every "no lcK structure" conclusion.

Pivots are chosen deterministically; every parameter divided by during
elimination is reported as a side condition, since the solution space
can jump where a pivot vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from . import linalg
from .errors import LckError
from .exterior import KForm, basis_tuples, linear_map_matrix
from .hermitian import coframe_substitution, dual_to_primal, is_j_invariant


@dataclass
class SolutionSpace:
    """Span of `basis` inside the 2-forms, valid off the side conditions."""

    ambient: list
    basis: list
    side_conditions: list = dataclass_field(default_factory=list)

    @property
    def dimension(self):
        return len(self.basis)

    def __str__(self):
        forms = "; ".join(str(b) for b in self.basis) or "0"
        side = ", ".join(str(s) for s in self.side_conditions)
        return f"dim {self.dimension}: {forms}" + (f"  [needs {side} != 0]" if side else "")


def _dedupe_side_conditions(side):
    seen = []
    for s in side:
        num = s.num.primitive()
        if num.is_constant():
            continue
        if num not in seen:
            seen.append(num)
    return seen


def _condition_matrix(g, theta, J=None):
    """Columns and rows of the conditions on Omega in Lambda^2: the rows of
    d(Omega) - theta ^ Omega, then those of P^T Omega - Omega if J is given."""
    rows = linear_map_matrix(g.field, g.dim, 2,
                             lambda b: g.ce_d(b) - theta.wedge(b), 3)
    if J is not None:
        Pt = linalg.transpose(dual_to_primal(J))
        rows += linear_map_matrix(g.field, g.dim, 2,
                                  lambda b: coframe_substitution(Pt, b) - b, 2)
    return basis_tuples(g.dim, 2), rows


def _solution_space(g, theta, J=None):
    if not g.ce_d(theta).is_zero():
        raise LckError(f"twisted differential needs a closed theta, got {theta}")
    columns, rows = _condition_matrix(g, theta, J)
    vectors, side = linalg.nullspace(rows, len(columns))
    basis = [KForm(g.field, g.dim, 2,
                   {idx: v[m] for m, idx in enumerate(columns) if not v[m].is_zero()})
             for v in vectors]
    return SolutionSpace(columns, basis, _dedupe_side_conditions(side))


def twisted_closed_space(g, theta):
    """{Omega in Lambda^2 : d(Omega) = theta ^ Omega}.

    Nondegeneracy Omega ^ Omega != 0 is not imposed; it is a separate
    predicate on elements of the space.
    """
    return _solution_space(g, theta)


def lck_space(g, J, theta):
    """Twisted-closed 2-forms that are additionally J-invariant."""
    return _solution_space(g, theta, J)


def _diagonal_functional(space, J, v):
    """Values of Omega -> Omega(e_v, P e_v) on the basis of the space."""
    g = J.algebra
    if not 1 <= v <= g.dim:
        raise LckError(f"vector index {v} is not in 1..{g.dim}")
    pv = [row[v - 1] for row in dual_to_primal(J)]
    # row v of the matrix of Omega times column v of P
    return [linalg.mat_vec([b.matrix()[v - 1]], pv)[0] for b in space.basis]


def degeneracy_certificate(space, J, v):
    """True iff Omega(e_v, J e_v) vanishes identically on the space.

    This certifies that no element of the space can be J-positive, which
    is the standard obstruction pattern behind the "no lcK structure"
    rows of the catalog.
    """
    return all(value.is_zero() for value in _diagonal_functional(space, J, v))


def positivity_clash(space, J, u, v):
    """True iff Omega(e_v, J e_v) = r * Omega(e_u, J e_u) on the whole space
    for a single negative rational constant r.

    Positivity needs both functionals positive, so a negative constant
    ratio certifies an empty positive locus even when neither functional
    vanishes identically.
    """
    fu = _diagonal_functional(space, J, u)
    fv = _diagonal_functional(space, J, v)
    ratio = None
    for a, b in zip(fu, fv):
        if a.is_zero() and b.is_zero():
            continue
        if a.is_zero() or b.is_zero():
            return False
        r = b / a
        if not (r.is_constant() and r.constant_value() < 0):
            return False
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None


def satisfies_conditions(space, g, theta, J=None):
    """Re-check every basis element against the defining conditions,
    independently of the elimination that produced the space."""
    for b in space.basis:
        if not (g.ce_d(b) - theta.wedge(b)).is_zero():
            return False
        if J is not None and not is_j_invariant(b, J):
            return False
    return True


def rank_at_instantiation(g, theta, assignment, J=None):
    """Rank of the condition matrix at a rational point (exact over QQ).

    Together with the returned dimension this gives the completeness
    check: rank + dim = ambient dimension away from side conditions.
    """
    Jq = J.instantiate(assignment) if J is not None else None
    columns, rows = _condition_matrix(g.instantiate(assignment),
                                      theta.instantiate(assignment), Jq)
    return linalg.rank(rows, len(columns))
