"""Builders for higher-dimensional lcK algebras.

Three constructions are provided, each of which re-verifies its own
output instead of trusting the recipe and raises LckError (also under
`python -O`) when a check fails:

  * `lck_extension`: h |x V for a representation pi = -(1/2) theta Id + rho
    with rho valued in skew matrices commuting with the fiber rotation.
    The output carries theta' extending theta by zero and
    Omega' = Omega + sum u^i ^ v^i.
  * `ot_algebra`: the solvable algebras underlying the classical
    non-Kaehler solvmanifold family with brackets [x_i,y_i] = y_i,
    [x_i,z_1] = -z_1/2 + c_i z_2, [x_i,z_2] = -c_i z_1 - z_2/2.
  * `cokahler_mapping_torus`: h x|_D R for a coKaehler (eta, xi, Phi, g)
    and a derivation rescaling the cosymplectic 2-form.

Conventions: the fiber pairing fixes J0 u_i = v_i and omega_0 = sum
u^i ^ v^i.  The mapping torus uses the fundamental form g(Phi _, _),
whose sign makes the output J-positive with alpha > 0; the companion
ordering g(_, Phi_) differs by an overall sign of Omega and is not used.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from . import linalg
from .errors import (
    AlphaZero,
    DNotCompatible,
    LckError,
    NotADerivation,
    NotARepresentation,
    NotCoKaehler,
    RhoNotCommuting,
    RhoNotSkew,
)
from .exterior import KForm, basis_tuples
from .hermitian import ComplexStructure, is_complex_structure, minus_transpose, nijenhuis
from .lck import LcKStructure, verify_lck
from .liealg import LieAlgebra
from .scalars import QQ, Scalar


def _jacobi_checked(g):
    if not g.jacobi_holds():
        raise LckError(f"{g.name} fails the Jacobi identity")
    return g


def _checked(g, s, what):
    """(g, s), once J is integrable and s passes every lcK check."""
    if not is_complex_structure(g, s.J):
        raise LckError(f"{what}: J fails integrability")
    report = verify_lck(s)
    if not report.passed:
        raise LckError(f"{what} fails lcK checks: {report.failures()}")
    return g, s


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
    for i, j in basis_tuples(g.dim, 2):
        ei, ej = e[i - 1], e[j - 1]
        lhs = linalg.mat_vec(D, g.bracket(ei, ej))
        rhs = [a + b for a, b in zip(g.bracket(linalg.mat_vec(D, ei), ej),
                                     g.bracket(ei, linalg.mat_vec(D, ej)))]
        if any(not (a - b).is_zero() for a, b in zip(lhs, rhs)):
            return False
    return True


def extension_by_derivation(base, D):
    """base x|_D R: the new generator e_{n+1} acts by [e_{n+1}, x] = Dx.

    Raises NotADerivation unless the matrix D is a derivation of the base.
    """
    if not _is_derivation(base, D):
        raise NotADerivation("matrix is not a derivation of the base")
    field = base.field
    n = base.dim
    brackets = {key: list(vec) + [field.zero()]
                for key, vec in base.bracket_table().items()}
    for j in range(1, n + 1):
        # [e_{n+1}, e_j] = D e_j, stored as [e_j, e_{n+1}] = -D e_j
        brackets[(j, n + 1)] = [-D[t][j - 1] for t in range(n)] + [field.zero()]
    return _jacobi_checked(LieAlgebra.from_structure_constants(
        field, n + 1, brackets, name=f"{base.name}:xR"))


def extension_by_representation(base, pi):
    """base |x V on an abelian fiber V, where e_i acts on V by pi[i - 1].

    Raises NotARepresentation unless there is one fiber matrix per base
    basis vector and pi([x, y]) = [pi(x), pi(y)].
    """
    field = base.field
    n = base.dim
    if len(pi) != n:
        raise NotARepresentation("need one fiber matrix per base basis vector")
    fiber = len(pi[0])
    e = linalg.identity(field, n)
    for i, j in basis_tuples(n, 2):
        lhs = _combination(field, base.bracket(e[i - 1], e[j - 1]), pi, fiber)
        comm = linalg.mat_sub(linalg.mat_mul(pi[i - 1], pi[j - 1]),
                              linalg.mat_mul(pi[j - 1], pi[i - 1]))
        if not linalg.mat_eq(lhs, comm):
            raise NotARepresentation(f"pi([e_{i},e_{j}]) != [pi(e_{i}),pi(e_{j})]")

    brackets = {key: list(vec) + [field.zero()] * fiber
                for key, vec in base.bracket_table().items()}
    for i in range(1, n + 1):
        for b in range(fiber):
            # [e_i, v_b] = pi(e_i) v_b
            brackets[(i, n + b + 1)] = ([field.zero()] * n
                                        + [pi[i - 1][a][b] for a in range(fiber)])
    return _jacobi_checked(LieAlgebra.from_structure_constants(
        field, n + fiber, brackets, name=f"{base.name}:xV{fiber}"))


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
        raise NotARepresentation(f"fiber dimension {n2} must be even and positive")
    if len(spec.rho) != g.dim:
        raise NotARepresentation("need one rho matrix per base basis vector")
    J0 = _fiber_rotation(field, n2)
    for k, m in enumerate(spec.rho):
        if not linalg.mat_eq(linalg.transpose(m), linalg.mat_neg(m)):
            raise RhoNotSkew(f"rho(e_{k + 1}) is not skew-symmetric")
        if not linalg.mat_eq(linalg.mat_mul(m, J0), linalg.mat_mul(J0, m)):
            raise RhoNotCommuting(f"rho(e_{k + 1}) does not commute with the fiber rotation")
    # rho must kill the commutator ideal (it takes values in an abelian
    # subalgebra); checked directly on brackets of basis vectors
    e = linalg.identity(field, g.dim)
    for i, j in basis_tuples(g.dim, 2):
        image = _combination(field, g.bracket(e[i - 1], e[j - 1]), spec.rho, n2)
        if not linalg.is_zero_matrix(image):
            raise NotARepresentation("rho does not vanish on the commutator ideal")


def extension_pi(spec):
    """pi(e_k) = -(1/2) theta(e_k) Id + rho(e_k) as fiber matrices."""
    _check_extension_spec(spec)
    field = spec.base.algebra.field
    n2 = spec.fiber_dim
    half = field.scalar(Fraction(1, 2))
    matrices = []
    for k, rho_k in enumerate(spec.rho):
        tk = spec.base.theta.coeffs.get((k + 1,), field.zero())
        matrices.append([[rho_k[a][b] - (half * tk if a == b else field.zero())
                          for b in range(n2)] for a in range(n2)])
    return matrices


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
        (base.algebra.unimodular_character(ek)
         - n * base.theta.coeffs.get((k + 1,), field.zero())).is_zero()
        for k, ek in enumerate(linalg.identity(field, base.algebra.dim)))
    g = extension_by_representation(base.algebra, extension_pi(spec))
    on_output = all(g.unimodular_character(ek).is_zero()
                    for ek in linalg.identity(field, g.dim))
    if direct != on_output:
        raise LckError("unimodularity criteria disagree")
    return direct


# -- the aff(R)^n route and the standard presentation --------------------------------


def aff_block_algebra(field, n, name="aff^n"):
    """[e_i, f_i] = f_i in the basis (e_1, f_1, ..., e_n, f_n)."""
    dim = 2 * n
    brackets = {}
    for i in range(n):
        col = [field.zero()] * dim
        col[2 * i + 1] = field.one()
        brackets[(2 * i + 1, 2 * i + 2)] = col
    return LieAlgebra.from_structure_constants(field, dim, brackets, name=name)


def aff_block_lck(field, n):
    """The lcK structure theta = sum e^i, omega = 2 sum e^i^f^i + sum_{i!=j} e^i^f^j."""
    g = aff_block_algebra(field, n)
    dim = 2 * n
    theta = KForm(field, dim, 1, {(2 * i + 1,): field.one() for i in range(n)})
    coeffs = {}
    for i in range(n):
        for j in range(n):
            a, b = 2 * i + 1, 2 * j + 2
            c = field.scalar(2 if i == j else 1)
            if a < b:
                coeffs[(a, b)] = coeffs.get((a, b), field.zero()) + c
            else:
                coeffs[(b, a)] = coeffs.get((b, a), field.zero()) - c
    omega = KForm(field, dim, 2, coeffs)
    # the J e_i = f_i pairing
    J = ComplexStructure(g, minus_transpose(_fiber_rotation(field, dim)), name="J")
    return LcKStructure(g, J, theta, omega, constraints=[], witnesses=[{}],
                        name=f"aff^{n}")


def ot_algebra(n, c, field=None):
    """The (2n+2)-dimensional algebra in the basis (x_1..x_n, y_1..y_n, z_1, z_2)
    with its lcK structure; unimodular for every choice of the rationals c.

    Jacobi, integrability, the lcK checks and unimodularity are checked on
    the output; LckError is raised if one fails."""
    field = field or QQ
    if len(c) != n:
        raise NotARepresentation(f"need {n} rotation speeds, got {len(c)}")
    c = [x if isinstance(x, Scalar) else field.scalar(Fraction(x)) for x in c]
    dim = 2 * n + 2
    half = field.scalar(Fraction(1, 2))
    brackets = {}
    for i in range(n):
        xi, yi = i + 1, n + i + 1
        col = [field.zero()] * dim
        col[yi - 1] = field.one()
        brackets[(xi, yi)] = col  # [x_i, y_i] = y_i
        z1, z2 = 2 * n + 1, 2 * n + 2
        col1 = [field.zero()] * dim
        col1[z1 - 1] = -half
        col1[z2 - 1] = c[i]
        brackets[(xi, z1)] = col1  # [x_i, z_1] = -z_1/2 + c_i z_2
        col2 = [field.zero()] * dim
        col2[z1 - 1] = -c[i]
        col2[z2 - 1] = -half
        brackets[(xi, z2)] = col2  # [x_i, z_2] = -c_i z_1 - z_2/2
    g = _jacobi_checked(
        LieAlgebra.from_structure_constants(field, dim, brackets, name=f"ot({n})"))

    theta = KForm(field, dim, 1, {(i + 1,): field.one() for i in range(n)})
    coeffs = {(2 * n + 1, 2 * n + 2): field.one()}
    for i in range(n):
        for j in range(n):
            coeffs[(i + 1, n + j + 1)] = field.scalar(2 if i == j else 1)
    omega = KForm(field, dim, 2, coeffs)

    # J x_i = y_i, J z_1 = z_2 (primal), stored dually
    P = [[field.zero()] * dim for _ in range(dim)]
    for i in range(n):
        P[n + i][i] = field.one()
        P[i][n + i] = -field.one()
    P[2 * n + 1][2 * n] = field.one()
    P[2 * n][2 * n + 1] = -field.one()
    J = ComplexStructure(g, minus_transpose(P), name="J")

    s = LcKStructure(g, J, theta, omega, constraints=[], witnesses=[{}],
                     name=f"ot({n})")
    _checked(g, s, f"ot({n})")
    if not all(g.unimodular_character(ek).is_zero()
               for ek in linalg.identity(field, dim)):
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


def _pullback_one_form(form, op):
    """(op^* form)(x) = form(op x) for a 1-form and an endomorphism."""
    field = form.field
    dim = form.dim
    coeffs = {}
    for j in range(dim):
        val = field.zero()
        for (i,), c in form.coeffs.items():
            val = val + c * op[i - 1][j]
        if not val.is_zero():
            coeffs[(j + 1,)] = val
    return KForm(field, dim, 1, coeffs)


def _derivative_two_form(form, op):
    """(L_op form)(x, y) = form(op x, y) + form(x, op y)."""
    field = form.field
    dim = form.dim
    out = KForm.zero(field, dim, 2)
    e = linalg.identity(field, dim)
    for a in range(1, dim + 1):
        for b in range(a + 1, dim + 1):
            ea, eb = e[a - 1], e[b - 1]
            val = form(linalg.mat_vec(op, ea), eb) + form(ea, linalg.mat_vec(op, eb))
            if not val.is_zero():
                out = out + KForm(field, dim, 2, {(a, b): val})
    return out


def fundamental_two_form(data):
    """omega = g(Phi _, _): the pairing that makes the torus J-positive."""
    field = data.h.field
    dim = data.h.dim
    coeffs = {}
    for a in range(1, dim + 1):
        for b in range(a + 1, dim + 1):
            val = field.zero()
            for t in range(dim):
                val = val + data.Phi[t][a - 1] * data.metric[t][b - 1]
            if not val.is_zero():
                coeffs[(a, b)] = val
    return KForm(field, dim, 2, coeffs)


def reeb_vector(data):
    """The vector R with i_R omega = 0 and eta(R) = 1; equals xi here."""
    omega = fundamental_two_form(data)
    if not omega.interior(data.xi).is_zero():
        raise NotCoKaehler("cK4", "xi does not contract the cosymplectic form to zero")
    if data.eta.interior(data.xi) != KForm(data.h.field, data.h.dim, 0,
                                           {(): data.h.field.one()}):
        raise NotCoKaehler("cK1", "eta(xi) != 1")
    return data.xi


def _check_cokahler(data):
    h = data.h
    field = h.field
    dim = h.dim
    eta_xi = data.eta(data.xi)
    if eta_xi != field.one():
        raise NotCoKaehler("cK1", f"eta(xi) = {eta_xi}")
    # Phi^2 = -id + eta (x) xi
    phi2 = linalg.mat_mul(data.Phi, data.Phi)
    eta_coords = [data.eta.coeffs.get((i,), field.zero()) for i in range(1, dim + 1)]
    for i in range(dim):
        for j in range(dim):
            want = data.xi[i] * eta_coords[j] - (field.one() if i == j else field.zero())
            if phi2[i][j] != want:
                raise NotCoKaehler("cK2", "Phi^2 != -id + eta (x) xi")
    # metric compatibility g(Phi x, Phi y) = g(x, y) - eta(x) eta(y)
    Pt = linalg.transpose(data.Phi)
    lhs = linalg.mat_mul(Pt, linalg.mat_mul(data.metric, data.Phi))
    for i in range(dim):
        for j in range(dim):
            want = data.metric[i][j] - eta_coords[i] * eta_coords[j]
            if lhs[i][j] != want:
                raise NotCoKaehler("cK3", "g(Phi x, Phi y) != g(x,y) - eta(x)eta(y)")
    omega = fundamental_two_form(data)
    if not h.ce_d(data.eta).is_zero() or not h.ce_d(omega).is_zero():
        raise NotCoKaehler("cK4", "eta or the cosymplectic form is not closed")
    # normality: Nij_Phi + 2 d(eta) (x) xi = 0
    d_eta = h.ce_d(data.eta)
    for i, j in basis_tuples(dim, 2):
        corr = 2 * d_eta.coeffs.get((i, j), field.zero())
        vec = [v + corr * x for v, x in zip(nijenhuis(h, data.Phi, i, j), data.xi)]
        if any(not v.is_zero() for v in vec):
            raise NotCoKaehler("cK5", f"normality fails on (e_{i}, e_{j})")
    return omega


def cokahler_mapping_torus(data):
    """h x|_D R with theta = -alpha e^{2n}, Omega = omega + theta ^ eta,
    J(X, a) = (Phi X - a xi, eta(X)).

    All five coKaehler axioms, the derivation law and the D-compatibility
    hypotheses are checked with named errors, in that order, before the
    structure is built; integrability and the lcK identities of the output
    are then verified, not assumed, and LckError is raised if one fails.
    """
    field = data.h.field
    alpha = data.alpha if isinstance(data.alpha, Scalar) else field.scalar(Fraction(data.alpha))
    if alpha.is_zero():
        raise AlphaZero("the derivation must rescale the cosymplectic form")
    omega = _check_cokahler(data)
    g = extension_by_derivation(data.h, data.D)
    if _derivative_two_form(omega, data.D) != omega * alpha:
        raise DNotCompatible("D omega != alpha omega")
    if not _pullback_one_form(data.eta, data.D).is_zero():
        raise DNotCompatible("D eta != 0")
    if any(not x.is_zero() for x in linalg.mat_vec(data.D, data.xi)):
        raise DNotCompatible("D xi != 0")
    if not linalg.mat_eq(linalg.mat_mul(data.D, data.Phi),
                         linalg.mat_mul(data.Phi, data.D)):
        raise DNotCompatible("D Phi != Phi D")

    dim = g.dim
    new = dim  # index of the new generator

    def embed2(form):
        return KForm(field, dim, 2, dict(form.coeffs))

    theta = KForm(field, dim, 1, {(new,): -alpha})
    eta_ext = KForm(field, dim, 1, dict(data.eta.coeffs))
    Omega = embed2(omega) + theta.wedge(eta_ext)

    # J(X, a) = (Phi X - a xi, eta(X)) on vectors
    P = [[field.zero()] * dim for _ in range(dim)]
    eta_coords = [data.eta.coeffs.get((i,), field.zero())
                  for i in range(1, data.h.dim + 1)]
    for i in range(data.h.dim):
        for j in range(data.h.dim):
            P[i][j] = data.Phi[i][j]
        P[new - 1][i] = eta_coords[i]
        P[i][new - 1] = -data.xi[i]
    J = ComplexStructure(g, minus_transpose(P), name="J")

    out = LcKStructure(g, J, theta, Omega, constraints=[], witnesses=[{}],
                       name=data.name or f"torus({data.h.name})")
    return _checked(g, out, "mapping torus")
