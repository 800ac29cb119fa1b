"""Extension builders: representations, the unimodular family, mapping tori."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lckverify import constructions, lck, linalg
from lckverify.constructions import (
    CoKaehlerData,
    LcKExtensionSpec,
    aff_block_lck,
    cokahler_mapping_torus,
    extension_by_derivation,
    extension_by_representation,
    lck_extension,
    ot_algebra,
    reeb_vector,
    unimodularity_check,
)
from lckverify.errors import (
    DNotCompatible,
    NotADerivation,
    NotARepresentation,
    NotCoKaehler,
    RhoNotCommuting,
    RhoNotSkew,
)
from lckverify.exterior import basis_tuples, parse_form
from lckverify.lck import CheckRecord, LckReport, vaisman_test, verify_lck
from lckverify.liealg import LieAlgebra, parse_salamon
from lckverify.scalars import QQ, ScalarField


def mat(field, rows):
    return [[field.parse(str(x)) for x in row] for row in rows]


# -- semidirect products -------------------------------------------------------


def test_extension_by_zero_derivation():
    g = parse_salamon("0,0,-12,0")
    zero = [[QQ.zero()] * 4 for _ in range(4)]
    out = extension_by_derivation(g, zero)
    assert out.dim == 5 and out.jacobi_holds()
    # direct sum: the new generator brackets to zero
    e5 = [QQ.zero()] * 4 + [QQ.one()]
    assert out.unimodular_character(e5).is_zero()


def test_extension_by_rotation_derivation():
    r2 = LieAlgebra.abelian(QQ, 2)
    B = mat(QQ, [[0, -1], [1, 0]])
    h = extension_by_derivation(r2, B)
    assert h.dim == 3 and h.jacobi_holds()
    # [e3, e1] = e2 and [e3, e2] = -e1
    e3 = [QQ.zero(), QQ.zero(), QQ.one()]
    e1 = [QQ.one(), QQ.zero(), QQ.zero()]
    assert h.bracket(e3, e1) == [QQ.zero(), QQ.one(), QQ.zero()]


def test_extension_rejects_non_derivation():
    g = parse_salamon("0,0,-12,0")
    bad = mat(QQ, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(NotADerivation):
        extension_by_derivation(g, bad)


def test_representation_mode_rejects_non_representation():
    g = parse_salamon("0,0,-12,0")  # [e1,e2] = e3
    z = [[QQ.zero()] * 2 for _ in range(2)]
    rot = mat(QQ, [[0, -1], [1, 0]])
    # pi(e1), pi(e2) commute but pi([e1,e2]) = pi(e3) = rot != 0
    with pytest.raises(NotARepresentation):
        extension_by_representation(g, [z, z, rot, z])


# -- lcK extensions --------------------------------------------------------------


def ot_extension_spec(symbolic=True):
    if symbolic:
        F = ScalarField(("c1", "c2"))
        c1, c2 = F.var("c1"), F.var("c2")
        witnesses = [{"c1": Fraction(1), "c2": Fraction(2)}]
    else:
        F = QQ
        c1, c2 = F.scalar(1), F.scalar(2)
        witnesses = [{}]
    base = aff_block_lck(F, 2)
    z = F.zero()
    rot = lambda c: [[z, -c], [c, z]]
    zero = [[z, z], [z, z]]
    return LcKExtensionSpec(base, 2, [rot(c1), zero, rot(c2), zero],
                            name="ot-ext", extra_witnesses=witnesses)


def test_lck_extension_builds_and_verifies():
    spec = ot_extension_spec()
    g, out = lck_extension(spec)
    assert g.dim == 6
    assert verify_lck(out).passed  # also checked inside the builder


def test_lck_extension_never_vaisman():
    spec = ot_extension_spec()
    _, out = lck_extension(spec)
    for w in out.witnesses:
        ok, _ = vaisman_test(out, w)
        assert not ok


def test_lck_extension_with_zero_rho():
    F = ScalarField(())
    base = aff_block_lck(F, 1)
    zero = [[F.zero()] * 2 for _ in range(2)]
    spec = LcKExtensionSpec(base, 2, [zero, zero])
    g, out = lck_extension(spec)
    assert g.dim == 4 and verify_lck(out).passed


def test_lck_extension_rejects_bad_rho():
    F = ScalarField(())
    base = aff_block_lck(F, 1)
    not_skew = mat(F, [[1, 0], [0, 1]])
    zero = [[F.zero()] * 2 for _ in range(2)]
    with pytest.raises(RhoNotSkew):
        lck_extension(LcKExtensionSpec(base, 2, [not_skew, zero]))
    # skew but not commuting with the fiber rotation needs fiber dim >= 4
    base4 = aff_block_lck(F, 1)
    skew_non_commuting = mat(F, [
        [0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
    zero4 = [[F.zero()] * 4 for _ in range(4)]
    with pytest.raises(RhoNotCommuting):
        lck_extension(LcKExtensionSpec(base4, 4, [skew_non_commuting, zero4]))


def test_unimodularity_check_ot_base():
    assert unimodularity_check(ot_extension_spec())


def test_unimodularity_check_fails_on_unimodular_base():
    # rh3 is nilpotent, hence unimodular: tr(ad) = 0 != n theta
    F = ScalarField(("s",))
    from lckverify.hermitian import ComplexStructure
    from lckverify.lck import Constraint, LcKStructure

    g = parse_salamon("0,0,-12,0", field=F)
    J = ComplexStructure(g, mat(F, [[0, -1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 0, -1], [0, 0, 1, 0]]))
    base = LcKStructure(g, J, parse_form(F, 4, "-e4"),
                        parse_form(F, 4, "s*e12+s*e34"),
                        [Constraint(F.parse("s"), ">")], [{"s": Fraction(1)}])
    zero = [[F.zero()] * 2 for _ in range(2)]
    spec = LcKExtensionSpec(base, 2, [zero] * 4)
    assert not unimodularity_check(spec)


def d4p_extension_spec(n, bind_mu=True):
    """The almost-nilpotent extension of the delta > 0 entry with fiber R^2n."""
    params = ["d", "s"] + ([] if bind_mu else ["m"]) + [f"a{i}" for i in range(1, n + 1)]
    F = ScalarField(tuple(params))
    g = parse_salamon("d/2*14+24,-14+d/2*24,-12+d*34,0", field=F)
    from lckverify.hermitian import ComplexStructure
    from lckverify.lck import Constraint, LcKStructure

    J1 = ComplexStructure(g, mat(F, [[0, 1, 0, 0], [-1, 0, 0, 0],
                                     [0, 0, 0, 1], [0, 0, -1, 0]]))
    mu = F.parse(f"2*d/{n}") if bind_mu else F.var("m")
    theta = parse_form(F, 4, "e4") * mu
    omega = parse_form(F, 4, "e12") - parse_form(F, 4, "e34") * (F.var("d") + mu)
    omega = omega * F.var("s")
    base = LcKStructure(
        g, J1, theta, omega,
        [Constraint(F.parse("s"), "<"), Constraint(F.var("d") + mu, "<")],
        [{"d": Fraction(-1), "s": Fraction(-1),
          **{f"a{i}": Fraction(i) for i in range(1, n + 1)}}]
        if bind_mu else
        [{"d": Fraction(1), "m": Fraction(-3), "s": Fraction(-1),
          **{f"a{i}": Fraction(i) for i in range(1, n + 1)}}])
    z = F.zero()
    zero = [[z] * (2 * n) for _ in range(2 * n)]
    rho4 = [[z] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        ai = F.var(f"a{i + 1}")
        rho4[2 * i][2 * i + 1] = ai
        rho4[2 * i + 1][2 * i] = -ai
    return LcKExtensionSpec(base, 2 * n, [zero, zero, zero, rho4],
                            name=f"d4p-ext-{n}")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_d4p_extension_verifies(n):
    spec = d4p_extension_spec(n)
    g, out = lck_extension(spec)
    assert g.dim == 2 * n + 4
    for w in out.witnesses:
        ok, _ = vaisman_test(out, w)
        assert not ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_d4p_extension_unimodular_iff_trace_matches(n):
    assert unimodularity_check(d4p_extension_spec(n, bind_mu=True))
    assert not unimodularity_check(d4p_extension_spec(n, bind_mu=False))


# -- the standard unimodular family ----------------------------------------------


@pytest.mark.parametrize("n,c", [(1, [0]), (2, [1, 2]), (3, [1, 2, 3])])
def test_ot_algebra(n, c):
    g, s = ot_algebra(n, c)
    assert g.dim == 2 * n + 2
    assert verify_lck(s).passed
    ok, _ = vaisman_test(s, {})
    assert not ok


def test_ot_matches_aff_extension_under_phi():
    """The explicit basis change identifies the extension with the standard
    presentation: brackets, J, theta, Omega all transported exactly."""
    spec = ot_extension_spec(symbolic=False)
    g_ext, ext = lck_extension(spec)
    g_ot, ot = ot_algebra(2, [1, 2])

    # phi maps the standard basis (x1, x2, y1, y2, z1, z2) to the extension
    # basis (e1, f1, e2, f2, u1, u2): x_i -> e_i, y_i -> f_i, z_i -> u_i
    perm = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}
    phi = [[QQ.one() if perm[j] == i else QQ.zero() for j in range(1, 7)]
           for i in range(1, 7)]

    # brackets
    for i, j in basis_tuples(6, 2):
        vi = [phi[t][i - 1] for t in range(6)]
        vj = [phi[t][j - 1] for t in range(6)]
        ei = [QQ.one() if t == i - 1 else QQ.zero() for t in range(6)]
        ej = [QQ.one() if t == j - 1 else QQ.zero() for t in range(6)]
        lhs = g_ext.bracket(vi, vj)
        rhs = linalg.mat_vec(phi, g_ot.bracket(ei, ej))
        assert lhs == rhs, (i, j)

    # tensors: pull the extension data back along phi and compare
    from lckverify.hermitian import coframe_substitution, dual_to_primal

    phi_t = linalg.transpose(phi)
    assert coframe_substitution(phi_t, ext.theta) == ot.theta
    assert coframe_substitution(phi_t, ext.omega) == ot.omega
    P_ext = dual_to_primal(ext.J)
    P_back = linalg.mat_mul(linalg.inverse(phi), linalg.mat_mul(P_ext, phi))
    assert linalg.mat_eq(P_back, dual_to_primal(ot.J))


def test_ot_theta_closed_for_any_n():
    for n in (1, 2, 3):
        g, s = ot_algebra(n, [Fraction(i, 2) for i in range(1, n + 1)])
        assert g.ce_d(s.theta).is_zero()


# -- coKaehler mapping torus ------------------------------------------------------


def cok3_data(alpha=1, phi_sign=1, conformal=Fraction(1, 2)):
    """The 3-dimensional coKaehler algebra R^2 x| R xi with a conformal
    derivation on the Kaehler block."""
    h = parse_salamon("-23,13,0", name="cok3")
    one, zero = QQ.one(), QQ.zero()
    eta = parse_form(QQ, 3, "e3")
    xi = [zero, zero, one]
    Phi = mat(QQ, [[0, phi_sign, 0], [-phi_sign, 0, 0], [0, 0, 0]])
    metric = linalg.identity(QQ, 3)
    p = QQ.scalar(conformal)
    D = [[p, zero, zero], [zero, p, zero], [zero, zero, zero]]
    return CoKaehlerData(h, eta, xi, Phi, metric, D, alpha, name="cok3-torus")


def test_cokahler_example_builds_r2p():
    g, s = cokahler_mapping_torus(cok3_data(alpha=1))
    assert g.dim == 4
    assert s.theta == parse_form(QQ, 4, "-e4")
    assert verify_lck(s).passed

    # explicit identification with (0,0,-13+24,-14-23): E1 -> 2 e4, E2 -> e3,
    # E3 -> e1, E4 -> e2 preserves all brackets
    phi = mat(QQ, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [2, 0, 0, 0]])
    target = parse_salamon("0,0,-13+24,-14-23", name="r2p")
    for i, j in basis_tuples(4, 2):
        vi = [phi[t][i - 1] for t in range(4)]
        vj = [phi[t][j - 1] for t in range(4)]
        ei = [QQ.one() if t == i - 1 else QQ.zero() for t in range(4)]
        ej = [QQ.one() if t == j - 1 else QQ.zero() for t in range(4)]
        assert g.bracket(vi, vj) == linalg.mat_vec(phi, target.bracket(ei, ej)), (i, j)

    # the transported Lee form is -2 E^1, matching the catalog rows there
    from lckverify.hermitian import coframe_substitution
    assert coframe_substitution(linalg.transpose(phi), s.theta) == \
        parse_form(QQ, 4, "-2*e1")


def test_cokahler_alpha_two_still_passes():
    g, s = cokahler_mapping_torus(cok3_data(alpha=2, conformal=1))
    assert verify_lck(s).passed
    assert s.theta == parse_form(QQ, 4, "-2*e4")


def test_cokahler_other_orientation():
    g, s = cokahler_mapping_torus(cok3_data(phi_sign=-1))
    assert verify_lck(s).passed


def test_cokahler_reeb_vector():
    data = cok3_data()
    assert reeb_vector(data) == data.xi
    # and the defining contraction property, via the public operator
    from lckverify.constructions import fundamental_two_form
    assert fundamental_two_form(data).interior(data.xi).is_zero()


def test_cokahler_rejects_incompatible_derivation():
    data = cok3_data()
    data.D[0][1] = QQ.scalar(1)  # no longer conformal on the block
    with pytest.raises((DNotCompatible, NotADerivation)):
        cokahler_mapping_torus(data)


def test_cokahler_rejects_rotation_derivation():
    # a pure rotation rescales the cosymplectic form by zero
    data = cok3_data()
    data.D = mat(QQ, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(DNotCompatible):
        cokahler_mapping_torus(data)


def test_cokahler_rejects_broken_axioms():
    from lckverify.errors import AlphaZero

    data = cok3_data()
    data.Phi[0][1] = QQ.scalar(2)
    with pytest.raises(NotCoKaehler) as err:
        cokahler_mapping_torus(data)
    assert err.value.condition == "cK2"

    data = cok3_data()
    with pytest.raises(AlphaZero):
        cokahler_mapping_torus(CoKaehlerData(
            data.h, data.eta, data.xi, data.Phi, data.metric, data.D, 0))


# -- the self-checks survive python -O ---------------------------------------------


def _failing_report(s):
    return LckReport(s.name, [CheckRecord("positive", False)])


def _break_check_and_build(case):
    """Patch one self-check to fail, then run the code that makes it."""
    if case == "ot":
        constructions.verify_lck = _failing_report
        constructions.ot_algebra(2, [1, 2])
    elif case == "cokahler":
        constructions.is_complex_structure = lambda g, J: False
        constructions.cokahler_mapping_torus(cok3_data())
    elif case == "extension":
        constructions.verify_lck = _failing_report
        constructions.lck_extension(ot_extension_spec())
    else:
        linalg.is_zero_matrix = lambda m: False
        lck.morse_novikov_betti(parse_salamon("0,0,-12,0"), parse_form(QQ, 4, "-e4"))


_OPTIMIZED_RUN = """
import sys
import test_constructions
from lckverify.errors import LckError
if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    test_constructions._break_check_and_build(sys.argv[1])
except LckError:
    sys.exit(0)
sys.exit("returned although its self-check failed")
"""


@pytest.mark.parametrize("case", ["ot", "cokahler", "extension", "betti"])
def test_self_checks_survive_optimize(case):
    """`python -O` strips asserts; the self-checks must still raise."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN, case],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
