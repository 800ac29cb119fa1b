"""Builders for higher-dimensional lcK algebras.

Three constructions are provided, each of which re-verifies its own
output instead of trusting the recipe and raises LckError (also under
`python -O`) when a check fails:

  * `lck_extension`: h |x V for a representation pi = -(1/2) theta Id + rho
    with rho valued in skew matrices commuting with the fiber rotation.
    The output carries theta' extending theta by zero and
    Omega' = Omega + sum u^i ^ v^i.
  * `ot_algebra`: the extension of aff(R)^n by rho(x_i) = c_i J0 on R^2;
    its brackets [x_i,y_i] = y_i, [x_i,z_1] = -z_1/2 + c_i z_2 and
    [x_i,z_2] = -c_i z_1 - z_2/2 are those of Oeljeklaus-Toma manifolds
    of type (n, 1).
  * `cokahler_mapping_torus`: h x|_D R for a coKaehler (eta, xi, Phi, g)
    and a derivation rescaling the cosymplectic 2-form.

Both semidirect products check the Jacobi identity of their output
first.  It holds exactly when the base is a Lie algebra and pi is a
representation (D a derivation), so the law itself is evaluated only to
name a failure.

Conventions: the fiber pairing fixes J0 u_i = v_i and omega_0 = sum
u^i ^ v^i.  The mapping torus uses the fundamental form g(Phi _, _),
whose sign makes the output J-positive with alpha > 0; the companion
ordering g(_, Phi_) differs by an overall sign of Omega and is not used.
Its hypotheses are the matrix identities Phi^2 = -I + xi eta^T,
Phi^T g Phi = g - eta eta^T, D^T W + W D = alpha W and D^T eta = 0, on
the coordinates that `KForm.vector` and `KForm.matrix` give.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from . import linalg
from .errors import LckError
from .exterior import KForm, basis_tuples
from .hermitian import ComplexStructure, is_complex_structure, minus_transpose, nijenhuis
from .lck import LcKStructure, verify_lck
from .liealg import LieAlgebra
from .scalars import QQ, Scalar


def _checked(g, s, what):
    """(g, s), once J is integrable and s passes every lcK check."""
    if not is_complex_structure(g, s.J):
        raise LckError(f"{what}: J fails integrability")
    report = verify_lck(s)
    if not report.passed:
        raise LckError(f"{what} fails lcK checks: {[c.id for c in report.failures()]}")
    return g, s


def _check_square(matrix, size, what):
    if len(matrix) != size or any(len(row) != size for row in matrix):
        raise LckError(f"{what} is not a {size} x {size} matrix")


def _combination(field, coeffs, matrices, size):
    """sum_k coeffs[k] * matrices[k], a size x size matrix."""
    out = [[field.zero()] * size for _ in range(size)]
    for c, m in zip(coeffs, matrices):
        if not c.is_zero():
            out = [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(out, m)]
    return out


def _is_derivation(g, D):
    """D[x,y] = [Dx,y] + [x,Dy] on basis pairs."""
    e = linalg.identity(g.field, g.dim)
    De = linalg.transpose(D)  # De[i] = D e_{i+1}
    for (i, j), bracket in g.bracket_table().items():
        rhs = [a + b for a, b in zip(g.bracket(De[i - 1], e[j - 1]),
                                     g.bracket(e[i - 1], De[j - 1]))]
        if linalg.mat_vec(D, bracket) != rhs:
            return False
    return True


def extension_by_derivation(base, D):
    """base x|_D R: the new generator e_{n+1} acts by [e_{n+1}, x] = Dx.

    Raises LckError unless D is an n x n derivation of the base.
    """
    field = base.field
    n = base.dim
    _check_square(D, n, "D")
    brackets = {key: list(vec) + [field.zero()]
                for key, vec in base.bracket_table().items() if any(vec)}
    for j in range(1, n + 1):
        # [e_{n+1}, e_j] = D e_j, stored as [e_j, e_{n+1}] = -D e_j
        brackets[(j, n + 1)] = [-D[t][j - 1] for t in range(n)] + [field.zero()]
    g = LieAlgebra.from_structure_constants(field, n + 1, brackets, name=f"{base.name}:xR")
    if not g.jacobi_holds():
        if not _is_derivation(base, D):
            raise LckError("matrix is not a derivation of the base")
        raise LckError(f"{g.name} fails the Jacobi identity")
    return g


def extension_by_representation(base, pi):
    """base |x V on an abelian fiber V, where e_i acts on V by pi[i - 1].

    Raises LckError unless the base is nonzero, there is one fiber matrix per
    base basis vector, all square of one size, and pi([x, y]) = [pi(x), pi(y)].
    """
    field = base.field
    n = base.dim
    if len(pi) != n or n == 0:
        raise LckError("need a nonzero base and one fiber matrix per base basis vector")
    fiber = len(pi[0])
    for k, m in enumerate(pi):
        _check_square(m, fiber, f"pi(e_{k + 1})")
    brackets = {key: list(vec) + [field.zero()] * fiber
                for key, vec in base.bracket_table().items() if any(vec)}
    for i in range(1, n + 1):
        for b in range(fiber):
            # [e_i, v_b] = pi(e_i) v_b
            brackets[(i, n + b + 1)] = ([field.zero()] * n
                                        + [pi[i - 1][a][b] for a in range(fiber)])
    g = LieAlgebra.from_structure_constants(field, n + fiber, brackets,
                                            name=f"{base.name}:xV{fiber}")
    if not g.jacobi_holds():
        for (i, j), bracket in base.bracket_table().items():
            comm = linalg.mat_sub(linalg.mat_mul(pi[i - 1], pi[j - 1]),
                                  linalg.mat_mul(pi[j - 1], pi[i - 1]))
            if not linalg.mat_eq(_combination(field, bracket, pi, fiber), comm):
                raise LckError(f"pi([e_{i},e_{j}]) != [pi(e_{i}),pi(e_{j})]")
        raise LckError(f"{g.name} fails the Jacobi identity")
    return g


@dataclass
class LcKExtensionSpec:
    """Data for an lcK extension of a 4-dimensional (or any) lcK base."""

    base: LcKStructure
    fiber_dim: int
    rho: list  # one 2n x 2n matrix per base basis vector
    name: str = ""
    extra_witnesses: list = dataclass_field(default_factory=list)


def _fiber_rotation(field, fiber_dim):
    """J0 pairing u_i -> v_i on (u_1, v_1, ..., u_n, v_n), primal matrix."""
    J0 = [[field.zero()] * fiber_dim for _ in range(fiber_dim)]
    for i in range(0, fiber_dim, 2):
        J0[i + 1][i] = field.one()
        J0[i][i + 1] = -field.one()
    return J0


def _check_extension_spec(spec):
    g = spec.base.algebra
    field = g.field
    n2 = spec.fiber_dim
    if n2 % 2 or n2 <= 0:
        raise LckError(f"fiber dimension {n2} must be even and positive")
    if len(spec.rho) != g.dim:
        raise LckError("need one rho matrix per base basis vector")
    J0 = _fiber_rotation(field, n2)
    for k, m in enumerate(spec.rho):
        _check_square(m, n2, f"rho(e_{k + 1})")
        if not linalg.mat_eq(linalg.transpose(m), linalg.mat_neg(m)):
            raise LckError(f"rho(e_{k + 1}) is not skew-symmetric")
        if not linalg.mat_eq(linalg.mat_mul(m, J0), linalg.mat_mul(J0, m)):
            raise LckError(f"rho(e_{k + 1}) does not commute with the fiber rotation")
    # rho must kill the commutator ideal (it takes values in an abelian
    # subalgebra): every [e_i, e_j] times the rho matrices, flattened, is 0
    brackets = [vec for vec in g.bracket_table().values() if any(vec)]
    flat = [[x for row in m for x in row] for m in spec.rho]
    if brackets and not linalg.is_zero_matrix(linalg.mat_mul(brackets, flat)):
        raise LckError("rho does not vanish on the commutator ideal")


def extension_pi(spec):
    """pi(e_k) = -(1/2) theta(e_k) Id + rho(e_k) as fiber matrices."""
    _check_extension_spec(spec)
    field = spec.base.algebra.field
    n2 = spec.fiber_dim
    half = field.scalar(Fraction(1, 2))
    return [[[rho_k[a][b] - (half * tk if a == b else field.zero()) for b in range(n2)]
             for a in range(n2)] for tk, rho_k in zip(spec.base.theta.vector(), spec.rho)]


def lck_extension(spec):
    """The extended algebra with theta'|_V = 0 and Omega' = Omega + sum u^i^v^i.

    Raises if rho fails skewness, commutation, or the representation law;
    checks (never assumes) that the output itself verifies as lcK, and
    raises LckError when it does not.
    """
    base = spec.base
    field = base.algebra.field
    n = base.algebra.dim
    n2 = spec.fiber_dim
    g = extension_by_representation(base.algebra, extension_pi(spec))
    dim = n + n2

    def embed(form):
        return KForm(field, dim, form.degree, dict(form.coeffs))

    theta = embed(base.theta)
    omega = embed(base.omega)
    for i in range(0, n2, 2):
        omega = omega + KForm.basis(field, dim, (n + i + 1, n + i + 2))

    # block-diagonal complex structure in the dual convention
    J0_dual = minus_transpose(_fiber_rotation(field, n2))
    dual = ([list(row) + [field.zero()] * n2 for row in base.J.dual]
            + [[field.zero()] * n + row for row in J0_dual])
    J = ComplexStructure(g, dual, name=f"{base.J.name}+J0")

    witnesses = [dict(w, **extra) for w in base.witnesses
                 for extra in (spec.extra_witnesses or [{}])]
    out = LcKStructure(g, J, theta, omega, constraints=list(base.constraints),
                       witnesses=witnesses, name=spec.name or f"ext({base.name})")
    return _checked(g, out, "extension")


def unimodularity_check(spec):
    """True iff tr(ad_X) = n theta(X) identically on the base.

    Cross-checked against the vanishing of the unimodular character of
    the extended algebra; raises LckError if the two disagree.
    """
    base = spec.base
    field = base.algebra.field
    n = field.scalar(spec.fiber_dim // 2)
    direct = all(
        (base.algebra.unimodular_character(ek) - n * tk).is_zero()
        for tk, ek in zip(base.theta.vector(), linalg.identity(field, base.algebra.dim)))
    g = extension_by_representation(base.algebra, extension_pi(spec))
    on_output = all(g.unimodular_character(ek).is_zero()
                    for ek in linalg.identity(field, g.dim))
    if direct != on_output:
        raise LckError("unimodularity criteria disagree")
    return direct


# -- the aff(R)^n route and the standard presentation --------------------------------


def aff_block_algebra(field, n, name="aff^n"):
    """[x_i, y_i] = y_i in the basis (x_1, ..., x_n, y_1, ..., y_n)."""
    e = linalg.identity(field, 2 * n)
    return LieAlgebra.from_structure_constants(
        field, 2 * n, {(i + 1, n + i + 1): e[n + i] for i in range(n)}, name=name)


def aff_block_lck(field, n):
    """The lcK structure theta = sum x^i, Omega = sum_{i,j} (1 + delta_ij) x^i ^ y^j,
    J x_i = y_i on aff(R)^n."""
    g = aff_block_algebra(field, n)
    dim = 2 * n
    theta = KForm(field, dim, 1, {(i + 1,): field.one() for i in range(n)})
    omega = KForm(field, dim, 2, {(i + 1, n + j + 1): field.scalar(2 if i == j else 1)
                                  for i in range(n) for j in range(n)})
    e = linalg.identity(field, dim)
    # J x_i = y_i: P = [[0, -I], [I, 0]] is its own dual matrix -P^T
    J = ComplexStructure(g, linalg.mat_neg(e[n:]) + e[:n], name="J")
    return LcKStructure(g, J, theta, omega, constraints=[], witnesses=[{}],
                        name=f"aff^{n}")


def ot_algebra(n, c, field=None):
    """The (2n+2)-dimensional algebra in the basis (x_1..x_n, y_1..y_n, z_1, z_2)
    with its lcK structure: `lck_extension` of aff(R)^n by rho(x_i) = c_i J0,
    rho(y_i) = 0, so pi(x_i) = -Id/2 + c_i J0.  Unimodular for every choice
    of the speeds c; LckError is raised if that or a check of the extension fails."""
    field = field or QQ
    if len(c) != n:
        raise LckError(f"need {n} rotation speeds, got {len(c)}")
    if n < 1:
        raise LckError(f"ot({n}) needs n >= 1")
    c = [x if isinstance(x, Scalar) else field.scalar(Fraction(x)) for x in c]
    z = field.zero()
    rho = [[[z, -ci], [ci, z]] for ci in c] + [[[z, z], [z, z]]] * n  # c_i J0, then 0
    g, s = lck_extension(LcKExtensionSpec(aff_block_lck(field, n), 2, rho, name=f"ot({n})"))
    g.name = f"ot({n})"
    if not all(g.unimodular_character(ek).is_zero()
               for ek in linalg.identity(field, g.dim)):
        raise LckError(f"ot({n}) is not unimodular")
    return g, s


# -- coKaehler mapping torus ----------------------------------------------------------


@dataclass
class CoKaehlerData:
    """An odd-dimensional algebra with (eta, xi, Phi, g) and a derivation D."""

    h: LieAlgebra
    eta: KForm
    xi: list
    Phi: list  # endomorphism matrix on vectors
    metric: list  # symmetric positive matrix
    D: list  # derivation matrix on vectors
    alpha: object  # nonzero Scalar or rational
    name: str = ""


def fundamental_two_form(data):
    """omega = g(Phi _, _), the 2-form of Phi^T g: the pairing that makes
    the torus J-positive."""
    return KForm.from_matrix(data.h.field,
                             linalg.mat_mul(linalg.transpose(data.Phi), data.metric))


def _check_cokahler(data):
    h = data.h
    field = h.field
    dim = h.dim
    eta_xi = data.eta(data.xi)
    if eta_xi != field.one():
        raise LckError(f"cK1: eta(xi) = {eta_xi}")
    eta = data.eta.vector()
    phi2 = linalg.mat_mul(data.Phi, data.Phi)
    xi_eta = linalg.mat_mul([[x] for x in data.xi], [eta])
    if not linalg.mat_eq(phi2, linalg.mat_sub(xi_eta, linalg.identity(field, dim))):
        raise LckError("cK2: Phi^2 != -id + eta (x) xi")
    # metric compatibility Phi^T g Phi = g - eta (x) eta
    lhs = linalg.mat_mul(linalg.transpose(data.Phi), linalg.mat_mul(data.metric, data.Phi))
    eta_eta = linalg.mat_mul([[x] for x in eta], [eta])
    if not linalg.mat_eq(lhs, linalg.mat_sub(data.metric, eta_eta)):
        raise LckError("cK3: g(Phi x, Phi y) != g(x,y) - eta(x)eta(y)")
    omega = fundamental_two_form(data)
    if not h.ce_d(data.eta).is_zero() or not h.ce_d(omega).is_zero():
        raise LckError("cK4: eta or the cosymplectic form is not closed")
    # normality: Nij_Phi + 2 d(eta) (x) xi = 0, where d(eta) = 0 by cK4
    for i, j in basis_tuples(dim, 2):
        if any(not v.is_zero() for v in nijenhuis(h, data.Phi, i, j)):
            raise LckError(f"cK5: normality fails on (e_{i}, e_{j})")
    return omega


def cokahler_mapping_torus(data):
    """h x|_D R with theta = -alpha e^{2n}, Omega = omega + theta ^ eta,
    J(X, a) = (Phi X - a xi, eta(X)).

    All five coKaehler axioms, the derivation law and the D-compatibility
    hypotheses are checked in that order, with a message naming the failed
    one, before the structure is built; integrability and the lcK identities of the output
    are then verified, not assumed, and LckError is raised if one fails.
    """
    field = data.h.field
    alpha = data.alpha if isinstance(data.alpha, Scalar) else field.scalar(Fraction(data.alpha))
    if alpha.is_zero():
        raise LckError("the derivation must rescale the cosymplectic form")
    omega = _check_cokahler(data)
    g = extension_by_derivation(data.h, data.D)
    Dt = linalg.transpose(data.D)
    # L_D omega has the matrix D^T W + W D = D^T W - (D^T W)^T
    DtW = linalg.mat_mul(Dt, omega.matrix())
    if not linalg.mat_eq(linalg.mat_sub(DtW, linalg.transpose(DtW)), (omega * alpha).matrix()):
        raise LckError("D omega != alpha omega")
    if not all(x.is_zero() for x in linalg.mat_vec(Dt, data.eta.vector())):
        raise LckError("D eta != 0")
    if any(not x.is_zero() for x in linalg.mat_vec(data.D, data.xi)):
        raise LckError("D xi != 0")
    if not linalg.mat_eq(linalg.mat_mul(data.D, data.Phi),
                         linalg.mat_mul(data.Phi, data.D)):
        raise LckError("D Phi != Phi D")

    dim = g.dim  # the new generator is e_dim
    theta = KForm(field, dim, 1, {(dim,): -alpha})
    Omega = KForm(field, dim, 2, omega.coeffs) + theta.wedge(KForm(field, dim, 1, data.eta.coeffs))

    # J(X, a) = (Phi X - a xi, eta(X)) on vectors: the block matrix [[Phi, -xi], [eta, 0]]
    P = ([row + [-x] for row, x in zip(data.Phi, data.xi)]
         + [data.eta.vector() + [field.zero()]])
    J = ComplexStructure(g, minus_transpose(P), name="J")

    out = LcKStructure(g, J, theta, Omega, constraints=[], witnesses=[{}],
                       name=data.name or f"torus({data.h.name})")
    return _checked(g, out, "mapping torus")
