"""Extension builders: representations, the unimodular family, mapping tori."""

import importlib.util
import json
import os
import random
import re
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
    unimodularity_check,
)
from lckverify.errors import LckError
from lckverify.exterior import KForm, basis_tuples, parse_form
from lckverify.lck import Check, LckReport, vaisman_test, verify_lck
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
    r2 = parse_salamon("0,0")
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
    with pytest.raises(LckError, match="matrix is not a derivation of the base"):
        extension_by_derivation(g, bad)


NON_LIE = parse_salamon("0,-12,-13,-23", name="bad")  # d(de^4) = 2 e123


def test_extensions_of_a_non_lie_base_fail_jacobi():
    zero2 = [[QQ.zero()] * 2 for _ in range(2)]
    with pytest.raises(LckError, match=r"^bad:xV2 fails the Jacobi identity$"):
        extension_by_representation(NON_LIE, [zero2] * 4)
    with pytest.raises(LckError, match=r"^bad:xR fails the Jacobi identity$"):
        extension_by_derivation(NON_LIE, [[QQ.zero()] * 4 for _ in range(4)])


def test_extensions_reject_wrongly_sized_matrices():
    g = parse_salamon("0,0,-12,0")
    with pytest.raises(LckError, match=r"^D is not a 4 x 4 matrix$"):
        extension_by_derivation(g, linalg.identity(QQ, 3))
    with pytest.raises(LckError, match=r"^D is not a 4 x 4 matrix$"):
        extension_by_derivation(g, [row[:3] for row in linalg.identity(QQ, 4)])
    z2, z3 = linalg.identity(QQ, 2), linalg.identity(QQ, 3)
    with pytest.raises(LckError, match=r"^pi\(e_3\) is not a 2 x 2 matrix$"):
        extension_by_representation(g, [z2, z2, z3, z2])
    with pytest.raises(LckError, match=r"^pi\(e_1\) is not a 2 x 2 matrix$"):
        extension_by_representation(g, [[row + [QQ.zero()] for row in z2], z2, z2, z2])
    spec = ot_extension_spec(symbolic=False)
    spec.rho[3] = [[QQ.zero()] * 4 for _ in range(4)]
    with pytest.raises(LckError, match=r"^rho\(e_4\) is not a 2 x 2 matrix$"):
        lck_extension(spec)
    data = cok3_data()
    data.D = linalg.identity(QQ, 2)
    with pytest.raises(LckError, match=r"^D is not a 3 x 3 matrix$"):
        cokahler_mapping_torus(data)


def test_representation_of_a_zero_dimensional_base_is_a_named_error():
    """With no base vector there is no fiber matrix to read the fiber size
    from; the builder says so instead of indexing an empty list."""
    with pytest.raises(LckError, match="nonzero base"):
        extension_by_representation(LieAlgebra(QQ, []), [])


def test_semidirect_laws_are_not_evaluated_on_valid_input(monkeypatch):
    """The Jacobi identity of the output stands for the representation and
    derivation laws, which are evaluated only to name a failure."""
    def refuse(*args):
        raise RuntimeError("a semidirect law was evaluated on valid input")

    monkeypatch.setattr(constructions, "_combination", refuse)
    monkeypatch.setattr(constructions, "_is_derivation", refuse)
    ot_algebra(5, [1, 2, 3, 4, 5])
    lck_extension(ot_extension_spec())
    cokahler_mapping_torus(cok3_data())


def test_representation_mode_rejects_non_representation():
    g = parse_salamon("0,0,-12,0")  # [e1,e2] = e3
    z = [[QQ.zero()] * 2 for _ in range(2)]
    rot = mat(QQ, [[0, -1], [1, 0]])
    # pi(e1), pi(e2) commute but pi([e1,e2]) = pi(e3) = rot != 0
    with pytest.raises(LckError, match=re.escape("pi([e_1,e_2]) != [pi(e_1),pi(e_2)]")):
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
    return LcKExtensionSpec(base, 2, [rot(c1), rot(c2), zero, zero],
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
    with pytest.raises(LckError, match=r"rho\(e_1\) is not skew-symmetric"):
        lck_extension(LcKExtensionSpec(base, 2, [not_skew, zero]))
    # skew but not commuting with the fiber rotation needs fiber dim >= 4
    base4 = aff_block_lck(F, 1)
    skew_non_commuting = mat(F, [
        [0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
    zero4 = [[F.zero()] * 4 for _ in range(4)]
    with pytest.raises(LckError, match=r"rho\(e_1\) does not commute with the fiber rotation"):
        lck_extension(LcKExtensionSpec(base4, 4, [skew_non_commuting, zero4]))
    # [x, y] = y, and rho(y) = J0 is skew and commutes with J0 but is not 0
    J0 = mat(F, [[0, -1], [1, 0]])
    with pytest.raises(LckError, match="^rho does not vanish on the commutator ideal$"):
        lck_extension(LcKExtensionSpec(base, 2, [zero, J0]))


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
    """The extension of aff(R)^2 by rho(x_i) = c_i J0 is ot(2) with phi the
    identity: brackets, J, theta and Omega agree in the basis
    (x_1, x_2, y_1, y_2, z_1, z_2)."""
    g_ext, ext = lck_extension(ot_extension_spec(symbolic=False))
    g_ot, ot = ot_algebra(2, [1, 2])
    assert g_ext.d_coframe == g_ot.d_coframe
    assert ext.J.dual == ot.J.dual
    assert (ext.theta, ext.omega) == (ot.theta, ot.omega)


def _ot_oracle(field, n, c):
    """ot(n) written out: [e_a, e_b] for a < b, P on vectors, theta, Omega."""
    dim = 2 * n + 2
    e = linalg.identity(field, dim)
    x, y, z1, z2 = e[:n], e[n:2 * n], e[2 * n], e[2 * n + 1]
    half = field.scalar(Fraction(1, 2))

    def combination(a, u, b, v):  # a u + b v
        return [a * p + b * q for p, q in zip(u, v)]

    brackets = {key: [field.zero()] * dim for key in basis_tuples(dim, 2)}
    for i in range(n):
        brackets[(i + 1, n + i + 1)] = y[i]  # [x_i, y_i] = y_i
        brackets[(i + 1, dim - 1)] = combination(-half, z1, c[i], z2)
        brackets[(i + 1, dim)] = combination(-c[i], z1, -half, z2)
    images = y + [[-t for t in v] for v in x] + [z2, [-t for t in z1]]  # P e_1, ..., P e_dim
    theta = sum((KForm.basis(field, dim, (i + 1,)) for i in range(n)),
                KForm.zero(field, dim, 1))
    omega = sum((KForm.basis(field, dim, (i + 1, n + j + 1), 2 if i == j else 1)
                 for i in range(n) for j in range(n)), KForm.basis(field, dim, (dim - 1, dim)))
    return brackets, linalg.transpose(images), theta, omega


def _seeded_speeds(n, seed):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (2, "Q(c1,c2)")])
def test_ot_matches_the_written_out_formulas(n, seed):
    """[x_i, y_j] = delta_ij y_j, [x_i, z_1] = -z_1/2 + c_i z_2,
    [x_i, z_2] = -c_i z_1 - z_2/2 and all other brackets 0; J x_i = y_i,
    J z_1 = z_2; theta = sum x^i, Omega = sum (1 + delta_ij) x^i ^ y^j + z^1 ^ z^2."""
    if seed == "Q(c1,c2)":
        field = ScalarField(("c1", "c2"))
        c = [field.var("c1"), field.var("c2")]
    else:
        field, c = QQ, [QQ.scalar(x) for x in _seeded_speeds(n, seed)]
    g, s = ot_algebra(n, c, field)
    brackets, P, theta, omega = _ot_oracle(field, n, c)
    e = linalg.identity(field, 2 * n + 2)
    for (a, b), expected in brackets.items():
        assert g.bracket(e[a - 1], e[b - 1]) == expected, (a, b)
    assert s.J.P == P
    assert (s.theta, s.omega) == (theta, omega)
    assert g.name == s.name == f"ot({n})"
    assert str(g).startswith(f"LieAlgebra(ot({n}): ")


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2)])
def test_ot_brackets_carry_the_speeds(n, seed):
    """[x_i, z_1] = -z_1/2 + c_i z_2 and [x_i, z_2] = -c_i z_1 - z_2/2 for
    seeded rational speeds c, and other speeds give other structure equations."""
    c = _seeded_speeds(n, seed)
    g, _ = ot_algebra(n, c)
    e = linalg.identity(QQ, 2 * n + 2)
    z1, z2 = e[2 * n], e[2 * n + 1]

    def combination(a, b):  # a z_1 + b z_2
        return [QQ.scalar(a) * p + QQ.scalar(b) * q for p, q in zip(z1, z2)]

    for i in range(n):
        assert g.bracket(e[i], z1) == combination(Fraction(-1, 2), c[i]), i
        assert g.bracket(e[i], z2) == combination(-c[i], Fraction(-1, 2)), i
    other, _ = ot_algebra(n, [x + 1 for x in c])
    assert other.d_coframe != g.d_coframe


@pytest.mark.parametrize("n, c, message", [
    (2, [1], "need 2 rotation speeds, got 1"),
    (-1, [], "need -1 rotation speeds, got 0"),
    (0, [], "ot(0) needs n >= 1"),  # theta = sum x^i would vanish
])
def test_ot_rejects_bad_speed_counts(n, c, message):
    with pytest.raises(LckError, match=f"^{re.escape(message)}$"):
        ot_algebra(n, c)


def test_ot_theta_closed_for_any_n():
    for n in (1, 2, 3):
        g, s = ot_algebra(n, [Fraction(i, 2) for i in range(1, n + 1)])
        assert g.ce_d(s.theta).is_zero()


def test_construct_outputs_match_the_benchmark_reference(monkeypatch):
    """One seed-0 round of the benchmark's `construct` workload: every
    output (dimension, Vaisman verdict, A, Betti numbers, theta, Omega)
    has the digest stored in bench/reference.json."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays untouched
    spec.loader.exec_module(workloads)
    reference = json.loads((root / "bench" / "reference.json").read_text())
    workload = workloads.ConstructWorkload(str(root), 0, reference)
    ops = workload.round(0).ops
    assert sorted(op.id for op in ops) == sorted(reference["construct"]["0"])
    assert [(op.id, op.detail) for op in ops if not op.ok] == []


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
    """xi is the Reeb vector: eta(xi) = 1 (cK1) and i_xi omega = 0."""
    from lckverify.constructions import fundamental_two_form
    data = cok3_data()
    assert data.eta(data.xi) == QQ.one()
    assert fundamental_two_form(data).interior(data.xi).is_zero()


def test_cokahler_rejects_incompatible_derivation():
    data = cok3_data()
    data.D[0][1] = QQ.scalar(1)  # no longer conformal on the block
    with pytest.raises(LckError, match="matrix is not a derivation of the base"):
        cokahler_mapping_torus(data)


def test_cokahler_rejects_rotation_derivation():
    # a pure rotation rescales the cosymplectic form by zero
    data = cok3_data()
    data.D = mat(QQ, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(LckError, match="D omega != alpha omega"):
        cokahler_mapping_torus(data)


def test_cokahler_rejects_broken_axioms():
    data = cok3_data()
    data.Phi[0][1] = QQ.scalar(2)
    with pytest.raises(LckError, match=r"^cK2: Phi\^2 != -id"):
        cokahler_mapping_torus(data)

    data = cok3_data()
    with pytest.raises(LckError, match="the derivation must rescale the cosymplectic form"):
        cokahler_mapping_torus(CoKaehlerData(
            data.h, data.eta, data.xi, data.Phi, data.metric, data.D, 0))


R3 = parse_salamon("0,0,0", name="R3")  # every matrix is a derivation of it


@pytest.mark.parametrize("changes, message", [
    ({"eta": parse_form(QQ, 3, "2*e3")}, "cK1: eta(xi) = 2"),
    ({"metric": mat(QQ, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])},
     "cK3: g(Phi x, Phi y) != g(x,y) - eta(x)eta(y)"),
    # [e_3, e_1] = e_1 and [e_3, e_2] = -e_2 keep eta and omega closed but
    # do not commute with Phi
    ({"h": parse_salamon("13,-23,0")}, "cK5: normality fails on (e_1, e_3)"),
    ({"h": R3, "D": mat(QQ, [["1/2", 0, 0], [0, "1/2", 0], [1, 0, 0]])}, "D eta != 0"),
    # g = eta (x) eta makes omega = 0, which every D rescales; D = ad_{e_1}
    # is a derivation with D xi = -e_2
    ({"metric": mat(QQ, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
      "D": mat(QQ, [[0, 0, 0], [0, 0, -1], [0, 0, 0]])}, "D xi != 0"),
    ({"h": R3, "D": mat(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])}, "D Phi != Phi D"),
], ids=["cK1", "cK3", "cK5", "D-eta", "D-xi", "D-Phi"])
def test_cokahler_rejection_messages(changes, message):
    data = cok3_data()
    for key, value in changes.items():
        setattr(data, key, value)
    with pytest.raises(LckError, match=f"^{re.escape(message)}$"):
        cokahler_mapping_torus(data)


def test_cokahler_rejects_eta_not_closed():
    # on the Heisenberg algebra d(e3) = e12, so the same eta, xi, Phi and
    # metric pass cK1-cK3 but are not coKaehler
    data = cok3_data()
    data.h = parse_salamon("0,0,12", name="heis3")
    with pytest.raises(LckError, match="^cK4: eta or the cosymplectic form is not closed"):
        cokahler_mapping_torus(data)


# -- the self-checks survive python -O ---------------------------------------------


def _failing_report(s):
    return LckReport([Check("positive@0", False)])


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
except LckError as exc:
    print(exc)
    sys.exit(0)
sys.exit("returned although its self-check failed")
"""

#: the message each broken self-check raises; a failing lcK report is named by record ids
_SELF_CHECK_MESSAGES = {
    "ot": "extension fails lcK checks: ['positive@0']",
    "cokahler": "mapping torus: J fails integrability",
    "extension": "extension fails lcK checks: ['positive@0']",
    "betti": "d_theta^2 != 0",
}


@pytest.mark.parametrize("case", ["ot", "cokahler", "extension", "betti"])
def test_self_checks_survive_optimize(case):
    """`python -O` strips asserts; the self-checks must still raise, with
    a message that names what failed."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_RUN, case],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _SELF_CHECK_MESSAGES[case] + "\n"
