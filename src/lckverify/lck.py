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
from fractions import Fraction

from . import linalg
from .errors import (
    Degenerate,
    Inconsistent,
    LckError,
    NotClosed,
    NoWitness,
    ThetaZero,
)
from .exterior import KForm, basis_tuples
from .hermitian import dual_to_primal, gram_metric, is_j_invariant, is_positive_at
from .scalars import QQ


#: comparison operators allowed in family constraints
_OPS = {
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
    "<": lambda v: v < 0,
    "<=": lambda v: v <= 0,
    "!=": lambda v: v != 0,
    "=": lambda v: v == 0,
}


@dataclass
class Constraint:
    """`expr op 0` with op one of > >= < <= != =."""

    expr: object  # Scalar
    op: str

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


@dataclass
class CheckRecord:
    check: str
    passed: bool
    residual: str = ""
    witness: object = None
    note: str = ""


@dataclass
class LckReport:
    name: str
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def verify_lck(s):
    """Run the four lcK checks; identities symbolic, positivity at witnesses."""
    if not s.witnesses:
        raise NoWitness(f"{s.name or 'structure'} has no witnesses")
    checks = []

    d_theta = s.algebra.ce_d(s.theta)
    checks.append(CheckRecord("theta_closed", d_theta.is_zero(),
                              residual="" if d_theta.is_zero() else str(d_theta)))

    residual = s.algebra.ce_d(s.omega) - s.theta.wedge(s.omega)
    checks.append(CheckRecord("twisted_closed", residual.is_zero(),
                              residual="" if residual.is_zero() else str(residual)))

    invariant = is_j_invariant(s.omega, s.J)
    checks.append(CheckRecord("j_invariant", invariant))

    for w in s.witnesses:
        ok = all(c.holds_at(w) for c in s.constraints)
        theta_w = s.theta.instantiate(w)
        nonzero = not theta_w.is_zero()
        checks.append(CheckRecord("witness_in_region", ok and nonzero, witness=w,
                                  note="" if nonzero else "theta vanishes at witness"))
        if invariant:
            positive = is_positive_at(s.omega, s.J, w)
            checks.append(CheckRecord("positive", positive, witness=w))
    return LckReport(s.name, checks)


_LAMBDA3 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def lee_form(g, omega):
    """The unique theta with d(omega) = theta ^ omega, in dimension 4.

    Returns (theta, closed) where `closed` reports whether d(theta) = 0.
    Raises Degenerate when omega ^ omega = 0 and Inconsistent when
    d(omega) is not a multiple of omega (omega is not lcs).
    """
    if g.dim != 4:
        raise Degenerate("lee_form is specific to dimension 4")
    if omega.wedge(omega).is_zero():
        raise Degenerate("omega ^ omega = 0")
    field = g.field
    # columns: e^i ^ omega expanded in the Lambda^3 basis
    cols = []
    for i in range(1, 5):
        ei = KForm.basis(field, 4, (i,))
        w = ei.wedge(omega)
        cols.append([w.coeffs.get(t, field.zero()) for t in _LAMBDA3])
    matrix = [[cols[j][r] for j in range(4)] for r in range(4)]
    d_omega = g.ce_d(omega)
    rhs = [d_omega.coeffs.get(t, field.zero()) for t in _LAMBDA3]
    try:
        coords = linalg.solve(matrix, rhs)
    except Inconsistent:
        raise Inconsistent("d(omega) is not in the image of omega ^ _") from None
    theta = KForm(field, 4, 1, {(i + 1,): coords[i] for i in range(4)})
    closed = g.ce_d(theta).is_zero()
    return theta, closed


def vaisman_vector(s, assignment):
    """The metric-dual A of theta: theta(A) = 1 and A orthogonal to ker theta."""
    g = s.algebra.instantiate(assignment)
    n = g.dim
    theta = s.theta.instantiate(assignment)
    G = gram_metric(s.omega, s.J)
    Gq = [[QQ.scalar(x.eval(assignment)) for x in row] for row in G]
    theta_coords = [theta.coeffs.get((i,), QQ.zero()) for i in range(1, n + 1)]
    if all(c.is_zero() for c in theta_coords):
        raise ThetaZero("theta vanishes at the witness")
    kernel, _ = linalg.nullspace([theta_coords], n)
    rows = [theta_coords]
    for k in kernel:
        rows.append(linalg.mat_vec(linalg.transpose(Gq), k))  # k^T G as a row
    rhs = [QQ.one()] + [QQ.zero()] * len(kernel)
    A = linalg.solve(rows, rhs)
    return g, Gq, A


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
        raise NotClosed("theta is not closed at the assignment")

    n = gq.dim
    bases = [basis_tuples(n, k) for k in range(n + 1)]

    def d_theta(form):
        return gq.ce_d(form) - theta_q.wedge(form)

    matrices = []
    for k in range(n):
        cols = []
        for idx in bases[k]:
            image = d_theta(KForm.basis(QQ, n, idx))
            cols.append([image.coeffs.get(t, QQ.zero()) for t in bases[k + 1]])
        matrices.append([[cols[j][r] for j in range(len(bases[k]))]
                         for r in range(len(bases[k + 1]))])

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
