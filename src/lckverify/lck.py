"""The lcK conditions, Lee forms, the Vaisman criterion, and twisted cohomology.

An LcKStructure packages a closed 1-form theta, a 2-form Omega with
d(Omega) = theta ^ Omega, a compatible complex structure, and the open
constraints of its family together with rational witness points inside
the constraint region.  The identities are checked symbolically over
the parameter field; positivity only ever at witnesses.

"lcK" always means non-Kaehler here: theta is required to be nonzero at
every witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from . import linalg
from .errors import LckError, ParseError
from .exterior import KForm, basis_tuples, linear_map_matrix
from .hermitian import gram_metric, j_residual, matrix_at, sylvester_positive
from .scalars import QQ


#: constraint operators, in the order `Constraint.parse` looks for them
_OPS = {
    ">=": lambda v: v >= 0,
    "<=": lambda v: v <= 0,
    "!=": lambda v: v != 0,
    ">": lambda v: v > 0,
    "<": lambda v: v < 0,
    "=": lambda v: v == 0,
}


@dataclass
class Constraint:
    """`expr op 0` with op one of >= <= != > < =."""

    expr: object  # Scalar
    op: str

    @classmethod
    def parse(cls, field, text):
        """`lhs op rhs` over `field`, split at the first operator found."""
        for op in _OPS:
            if op in text:
                lhs, rhs = text.split(op, 1)
                return cls(field.parse(lhs) - field.parse(rhs), op)
        raise ParseError(f"constraint needs one of {' '.join(_OPS)}")

    def holds_at(self, assignment):
        return _OPS[self.op](self.expr.eval(assignment))

    def __str__(self):
        return f"{self.expr} {self.op} 0"


@dataclass
class LcKStructure:
    algebra: object
    J: object
    theta: KForm
    omega: KForm
    constraints: list = dataclass_field(default_factory=list)
    witnesses: list = dataclass_field(default_factory=list)
    name: str = ""

    @cached_property
    def metric(self):
        """The gram matrix of Omega and J, built once per structure."""
        return gram_metric(self.omega, self.J)


@dataclass
class Check:
    """One report record: an id such as `rh3/lck:main/positive@0` and its verdict."""

    id: str
    passed: bool
    residual: str = ""
    witness: object = None
    note: str = ""

    @property
    def check(self):
        """The id without its path or `@k`."""
        return self.id.rsplit("/", 1)[-1].split("@")[0]


@dataclass
class LckReport:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_lck(s):
    """Run the four lcK checks; identities symbolic, positivity at witnesses.

    Witness records are numbered by witness: `witness_in_region@k`, `positive@k`.
    """
    if not s.witnesses:
        raise LckError(f"{s.name or 'structure'} has no witnesses")
    checks = [Check(cid, residual.is_zero(), residual="" if residual.is_zero() else str(residual))
              for cid, residual in (
                  ("theta_closed", s.algebra.ce_d(s.theta)),
                  ("twisted_closed", s.algebra.ce_d(s.omega) - s.theta.wedge(s.omega)),
                  ("j_invariant", j_residual(s.omega, s.J)))]
    invariant = checks[-1].passed

    for k, w in enumerate(s.witnesses):
        ok = all(c.holds_at(w) for c in s.constraints)
        nonzero = not s.theta.instantiate(w).is_zero()
        checks.append(Check(f"witness_in_region@{k}", ok and nonzero, witness=w,
                            note="" if nonzero else "theta vanishes at witness"))
        if invariant:
            positive, residual = sylvester_positive(s.metric, w)
            checks.append(Check(f"positive@{k}", positive, residual=residual, witness=w))
    return LckReport(checks)


def lee_form(g, omega):
    """The unique theta with d(omega) = theta ^ omega, in dimension 4.

    Returns (theta, closed) where `closed` reports whether d(theta) = 0.
    Raises LckError unless g has dimension 4 and omega ^ omega != 0.  For
    such an omega, theta -> theta ^ omega maps Lambda^1 onto Lambda^3
    one-to-one, so theta always exists; omega is lcs exactly when it is
    closed.
    """
    if g.dim != 4:
        raise LckError("lee_form is specific to dimension 4")
    if omega.wedge(omega).is_zero():
        raise LckError("omega ^ omega = 0")
    field = g.field
    matrix = linear_map_matrix(field, 4, 1, lambda b: b.wedge(omega), 3)
    d_omega = g.ce_d(omega)
    rhs = [d_omega.coeffs.get(t, field.zero()) for t in basis_tuples(4, 3)]
    coords = linalg.solve(matrix, rhs)
    theta = KForm(field, 4, 1, {(i + 1,): coords[i] for i in range(4)})
    closed = g.ce_d(theta).is_zero()
    return theta, closed


def vaisman_vector(s, assignment):
    """The metric dual A of theta scaled to theta(A) = 1: A = x / theta(x)
    with G x = theta.  Raises LckError when theta vanishes, G is singular
    or theta(x) = 0 at the witness."""
    g = s.algebra.instantiate(assignment)
    theta = s.theta.instantiate(assignment).vector()
    if all(c.is_zero() for c in theta):
        raise LckError("theta vanishes at the witness")
    Gq = matrix_at(s.metric, assignment)
    try:
        x = linalg.solve(Gq, theta)
    except LckError:
        raise LckError("metric is singular at the witness") from None
    [length] = linalg.mat_vec([theta], x)
    if length.is_zero():
        raise LckError("theta(G^-1 theta) = 0 at the witness")
    return g, Gq, [c / length for c in x]


def vaisman_test(s, assignment):
    """Lemma-style criterion: is ad_A skew-symmetric for the Hermitian metric?

    Returns (is_vaisman, A) with A the coordinate vector of the metric dual
    of theta at the witness.
    """
    g, Gq, A = vaisman_vector(s, assignment)
    ad = g.ad_matrix(A)
    lhs = linalg.mat_mul(Gq, ad)
    rhs = linalg.mat_mul(linalg.transpose(ad), Gq)
    skew = linalg.is_zero_matrix([[a + b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(lhs, rhs)])
    return skew, [a.constant_value() for a in A]


def morse_novikov_betti(g, theta, assignment=None):
    """Dimensions of the d_theta = d - theta^_ cohomology in each degree.

    Exact ranks over QQ at a fully instantiated point; d(theta) = 0 is
    required and d_theta^2 = 0 is checked before computing ranks.
    """
    assignment = assignment or {}
    gq = g.instantiate(assignment)
    theta_q = theta.instantiate(assignment) if theta.field.nvars else theta
    if not gq.ce_d(theta_q).is_zero():
        raise LckError("theta is not closed at the assignment")

    n = gq.dim
    bases = [basis_tuples(n, k) for k in range(n + 1)]

    def d_theta(form):
        return gq.ce_d(form) - theta_q.wedge(form)

    matrices = [linear_map_matrix(QQ, n, k, d_theta, k + 1) for k in range(n)]

    for k in range(n - 1):
        if not linalg.is_zero_matrix(linalg.mat_mul(matrices[k + 1], matrices[k])):
            raise LckError("d_theta^2 != 0")

    ranks = [linalg.rank(m, len(bases[k])) for k, m in enumerate(matrices)]
    betti = []
    for k in range(n + 1):
        dim_k = len(bases[k])
        rank_out = ranks[k] if k < n else 0
        rank_in = ranks[k - 1] if k > 0 else 0
        betti.append(dim_k - rank_out - rank_in)
    return betti
