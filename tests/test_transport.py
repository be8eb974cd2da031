from fractions import Fraction

import numpy as np
import pytest

from orbikit.bases import CircleModes, FourierCircle
from orbikit.cocycles import reconstruct_bundle, sign_cocycle, trivial_bundle, induced_bundle
from orbikit.groupoids import FiniteGroup, group_groupoid, rotation_groupoid
from orbikit.morita import QuotientCovering, double_cover_bitorsor, inverse_bitorsor
from orbikit.transport import (
    BundleSection,
    CircleForm,
    InvarianceError,
    InvariantConnection,
    InvariantInnerProduct,
    contraction_residual,
    induce_connection,
    induce_inner_product,
    invariant_section_basis,
    leibnitz_residual,
    mat_apply,
    pair_sections,
    pushforward_form,
    pushforward_form_inverse,
    pushforward_function,
    pushforward_function_inverse,
    pushforward_modes_section,
    pullback_modes_section,
    pushforward_section,
    pushforward_section_inverse,
    scale_section,
    section_invariance_witness,
    solve_downstairs_twist,
)

RNG = np.random.default_rng(11)


def circle_cov(m=2, M=8):
    return QuotientCovering.of(rotation_groupoid(m, FourierCircle(mode_cutoff=M)))


def invariant_modes(cov, seed=0, degree=None):
    G = cov.upstairs
    M = G.base.mode_cutoff
    rng = np.random.default_rng(seed)
    f = CircleModes.zero(G.base, M)
    degree = M if degree is None else degree
    for k in range(-degree, degree + 1):
        if k % cov.degree == 0:
            f.coeffs[k + M] = rng.standard_normal() + 1j * rng.standard_normal()
    return f


# -- finite functions


def test_constant_function_through_a2():
    theta, xi, b = double_cover_bitorsor(3)
    f = {"*": 4.5}
    out = pushforward_function(b, f)
    assert all(v == 4.5 for v in out.values())
    back = pushforward_function_inverse(b, out)
    assert back == f


def test_non_invariant_function_rejected_with_witness():
    theta, xi, b = double_cover_bitorsor(3)
    inv = inverse_bitorsor(b)
    f = {0: 1.0, 1: 2.0, 2: 3.0}  # not invariant under the translation action
    with pytest.raises(InvarianceError) as err:
        pushforward_function(inv, f)
    assert err.value.witness is not None


def test_roundtrip_on_random_invariant_functions():
    theta, xi, b = double_cover_bitorsor(3)
    for trial in range(20):
        c = complex(RNG.standard_normal(), RNG.standard_normal())
        f = {"*": c}
        assert pushforward_function_inverse(b, pushforward_function(b, f)) == f
    # and the reverse direction on the target side
    inv = inverse_bitorsor(b)
    for trial in range(20):
        c = complex(RNG.standard_normal(), RNG.standard_normal())
        g = {y: c for y in xi.objects}
        assert pushforward_function_inverse(inv, pushforward_function(inv, g)) == g


def test_pushforward_is_algebra_homomorphism():
    theta, xi, b = double_cover_bitorsor(3)
    f1, f2 = {"*": 2.0 + 1j}, {"*": -3.0}
    prod = {"*": f1["*"] * f2["*"]}
    lhs = pushforward_function(b, prod)
    p1, p2 = pushforward_function(b, f1), pushforward_function(b, f2)
    assert lhs == {y: p1[y] * p2[y] for y in lhs}


# -- finite sections


def test_sign_bundle_has_no_invariant_sections_on_either_side():
    theta, xi, b = double_cover_bitorsor(3)
    sign = reconstruct_bundle(sign_cocycle(theta, lambda a: -1 if a == 1 else 1))
    assert invariant_section_basis(sign).shape[0] == 0
    induced = induced_bundle(b, sign)
    assert invariant_section_basis(induced).shape[0] == 0
    # zero section transports to the zero section
    zero = BundleSection(sign, {"*": np.zeros(1)})
    out = pushforward_section(b, zero, induced)
    assert all(np.allclose(v, 0) for v in out.values.values())


def test_trivial_bundle_sections_roundtrip_and_module_law():
    theta, xi, b = double_cover_bitorsor(3)
    bundle = trivial_bundle(theta, 2)
    induced = induced_bundle(b, bundle)
    for trial in range(20):
        vec = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
        psi = BundleSection(bundle, {"*": vec})
        assert section_invariance_witness(psi) is None
        out = pushforward_section(b, psi, induced)
        back = pushforward_section_inverse(b, out, bundle)
        assert np.allclose(back.vector("*"), vec)
        # module law with an invariant function
        f = {"*": 1.5 - 0.5j}
        lhs = pushforward_section(b, scale_section(f, psi), induced)
        ff = pushforward_function(b, f)
        rhs = scale_section(ff, out)
        for y in lhs.values:
            assert np.allclose(lhs.vector(y), rhs.vector(y), atol=1e-12)


def test_forward_then_inverse_is_identity_on_induced_side():
    theta, xi, b = double_cover_bitorsor(3)
    bundle = trivial_bundle(theta, 1)
    induced = induced_bundle(b, bundle)
    zeta = BundleSection(induced, {y: np.array([2.0 + 1j]) for y in xi.objects})
    assert section_invariance_witness(zeta) is None
    back = pushforward_section_inverse(b, zeta, bundle)
    again = pushforward_section(b, back, induced)
    for y in xi.objects:
        assert np.allclose(again.vector(y), zeta.vector(y))


# -- covering quotients on mode data


def test_cos2theta_pushes_to_mode_one_cosine():
    cov = circle_cov(2, 8)
    f = CircleModes.zero(cov.upstairs.base, 8)
    f.coeffs[2 + 8] = 0.5
    f.coeffs[-2 + 8] = 0.5  # cos(2 theta)
    down = pushforward_function(cov, f)
    nz = {int(k) for k in down.modes if abs(down.coeffs[k + down.cutoff]) > 0}
    assert nz == {1, -1}
    # pointwise oracle on the downstairs grid
    ys = down.circle.grid()
    assert np.allclose(down.evaluate(ys), f.evaluate(ys), atol=1e-12)


def test_non_invariant_function_rejected_on_circle():
    cov = circle_cov(2, 8)
    f = CircleModes.mode(cov.upstairs.base, 8, 1)  # cos/sin of theta: odd mode
    with pytest.raises(InvarianceError) as err:
        pushforward_function(cov, f)
    assert err.value.witness == 1  # the rotation generator


def test_mode_roundtrip_random_invariant_functions():
    for m in (2, 4):
        cov = circle_cov(m, 8)
        for seed in range(20):
            f = invariant_modes(cov, seed)
            down = pushforward_function(cov, f)
            back = pushforward_function_inverse(cov, down)
            assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-10


def test_invariant_spinor_mode_descends_with_half_twist_for_sign_character():
    cov = circle_cov(2, 8)
    signs = {0: 1.0, 1: -1.0}
    assert solve_downstairs_twist(cov, Fraction(0), signs) == Fraction(1, 2)
    psi = CircleModes.mode(cov.upstairs.base, 8, 1)  # odd mode survives the sign lift
    down = pushforward_modes_section(cov, psi, signs)
    assert down.twist == Fraction(1, 2)
    back = pullback_modes_section(cov, down, up_twist=Fraction(0))
    assert np.max(np.abs(back.coeffs - psi.with_cutoff(back.cutoff).coeffs)) == 0


def test_even_spinor_mode_descends_to_half_index():
    cov = circle_cov(2, 8)
    signs = {0: 1.0, 1: 1.0}
    psi = CircleModes.mode(cov.upstairs.base, 8, 4)
    down = pushforward_modes_section(cov, psi, signs)
    assert down.twist == Fraction(0)
    assert abs(down.coeffs[2 + down.cutoff] - 1.0) == 0
    ys = down.circle.grid()
    assert np.allclose(down.evaluate(ys), psi.evaluate(ys), atol=1e-12)


# -- forms


def test_dtheta_pushes_to_darclength():
    cov = circle_cov(2, 8)
    omega = CircleForm(1, CircleModes.mode(cov.upstairs.base, 8, 0))
    down = pushforward_form(cov, omega)
    assert down.degree == 1
    assert abs(down.comp.coeffs[down.comp.cutoff] - 1.0) == 0
    back = pushforward_form_inverse(cov, down)
    assert abs(back.comp.coeffs[back.comp.cutoff] - 1.0) == 0


def test_d_commutes_with_pushforward_per_mode():
    cov = circle_cov(2, 8)
    f = invariant_modes(cov, 3)
    lhs = pushforward_form(cov, CircleForm(0, f).d()).comp
    rhs = CircleForm(0, pushforward_function(cov, f)).d().comp
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-10


def test_zero_form_pushes_to_zero():
    cov = circle_cov(2, 8)
    omega = CircleForm(1, CircleModes.zero(cov.upstairs.base, 8))
    assert np.max(np.abs(pushforward_form(cov, omega).comp.coeffs)) == 0


def test_overlap_agreement_of_branch_pullbacks():
    cov = circle_cov(2, 8)
    comp = invariant_modes(cov, 5)
    omega = CircleForm(1, comp)
    ys = np.linspace(0.2, 1.1, 13)  # sits inside an overlap of adjacent branch charts
    # branch b reads the form at ys + b L/m, L/m the quotient circumference
    v0, v1 = (omega.comp.evaluate(ys + b * cov.downstairs.circumference) for b in (0, 1))
    assert np.max(np.abs(v0 - v1)) <= 1e-10


def test_module_compatibility_f0_df1():
    cov = circle_cov(2, 8)
    f0 = invariant_modes(cov, 1, degree=2)
    f1 = invariant_modes(cov, 2, degree=2)
    lhs = pushforward_form(cov, CircleForm(1, f0.mul(f1.derivative())))
    p0 = pushforward_function(cov, f0)
    p1 = pushforward_function(cov, f1)
    rhs = p0.mul(p1.derivative())
    cut = max(lhs.comp.degree(), rhs.degree(), 2)
    diff = lhs.comp.with_cutoff(cut) - rhs.with_cutoff(cut)
    assert np.max(np.abs(diff.coeffs)) <= 1e-10


# -- connections


def flat_plus_constant(circle, a0=0.7j, rank=1):
    pot = CircleModes.zero(circle, circle.mode_cutoff, (rank, rank))
    pot.coeffs[circle.mode_cutoff] = a0 * np.eye(rank)
    return InvariantConnection(circle, rank, pot)


def test_flat_connection_induces_flat():
    cov = circle_cov(2, 8)
    conn = InvariantConnection(
        cov.upstairs.base, 1, CircleModes.zero(cov.upstairs.base, 8, (1, 1))
    )
    down = induce_connection(cov, conn)
    assert np.max(np.abs(down.potential.coeffs)) == 0


def test_constant_potential_keeps_arclength_coefficient():
    cov = circle_cov(2, 8)
    conn = flat_plus_constant(cov.upstairs.base)
    down = induce_connection(cov, conn)
    # arclength charts: the constant coefficient is unchanged
    assert np.allclose(down.potential.coeffs[down.potential.cutoff], 0.7j * np.eye(1))


def test_leibnitz_rule_exact():
    cov = circle_cov(2, 8)
    conn = flat_plus_constant(cov.upstairs.base)
    f = invariant_modes(cov, 4, degree=2)
    psi_s = invariant_modes(cov, 5, degree=2)
    psi = CircleModes(psi_s.circle, psi_s.cutoff, psi_s.coeffs[:, None])
    assert leibnitz_residual(conn, f, psi) <= 1e-12


def test_contraction_identity():
    cov = circle_cov(2, 8)
    conn = flat_plus_constant(cov.upstairs.base)
    signs = {0: 1.0, 1: 1.0}
    psi_s = invariant_modes(cov, 6, degree=4)
    psi = CircleModes(psi_s.circle, psi_s.cutoff, psi_s.coeffs[:, None])
    assert contraction_residual(cov, conn, psi, signs) <= 1e-12


def test_noninvariant_connection_rejected():
    cov = circle_cov(2, 8)
    pot = CircleModes.zero(cov.upstairs.base, 8, (1, 1))
    pot.coeffs[1 + 8] = np.eye(1)  # odd mode potential
    with pytest.raises(InvarianceError):
        induce_connection(cov, InvariantConnection(cov.upstairs.base, 1, pot))


def test_mat_apply_matches_pointwise_products():
    circle = FourierCircle(mode_cutoff=6)
    A = CircleModes.zero(circle, 6, (2, 2))
    A.coeffs[6] = np.array([[1.0, 2.0], [0.0, 1.0]])
    A.coeffs[2 + 6] = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = CircleModes.zero(circle, 6, (2,))
    v.coeffs[1 + 6] = np.array([1.0, -1.0])
    out = mat_apply(A, v)
    xs = circle.grid()
    lhs = out.evaluate(xs)
    rhs = np.einsum("xij,xj->xi", A.evaluate(xs), v.evaluate(xs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


# -- inner products


def test_standard_form_through_a2():
    theta, xi, b = double_cover_bitorsor(3)
    bundle = trivial_bundle(theta, 2)
    ip = InvariantInnerProduct(np.eye(2))
    out = induce_inner_product(b, ip, bundle)
    assert np.allclose(out.matrix, np.eye(2))


def test_weighted_form_preserved():
    theta, xi, b = double_cover_bitorsor(3)
    bundle = trivial_bundle(theta, 1)
    ip = InvariantInnerProduct(2.0 * np.eye(1))
    out = induce_inner_product(b, ip, bundle)
    assert np.allclose(out.matrix, 2.0 * np.eye(1))


def test_pairing_identity_on_invariant_sections():
    theta, xi, b = double_cover_bitorsor(3)
    bundle = trivial_bundle(theta, 2)
    induced = induced_bundle(b, bundle)
    ip = InvariantInnerProduct(np.diag([2.0, 3.0]))
    v1 = np.array([1.0 + 1j, 0.5])
    v2 = np.array([0.25, -2.0j])
    psi1 = BundleSection(bundle, {"*": v1})
    psi2 = BundleSection(bundle, {"*": v2})
    p1 = pushforward_section(b, psi1, induced)
    p2 = pushforward_section(b, psi2, induced)
    lhs = pair_sections(induce_inner_product(b, ip, bundle), p1, p2)
    rhs = pushforward_function(b, pair_sections(ip, psi1, psi2))
    for y in lhs:
        assert abs(lhs[y] - rhs[y]) <= 1e-12


def test_noninvariant_inner_product_rejected():
    theta, xi, b = double_cover_bitorsor(3)
    sign = reconstruct_bundle(sign_cocycle(theta, lambda a: -1 if a == 1 else 1))
    rank2 = reconstruct_bundle(
        __import__("orbikit.cocycles", fromlist=["Cocycle"]).Cocycle(
            theta,
            2,
            {0: np.eye(2, dtype=int), 1: np.array([[0, 2], [1, 0]])},
        )
    )
    ip = InvariantInnerProduct(np.eye(2))
    with pytest.raises(InvarianceError):
        induce_inner_product(b, ip, rank2)


def test_pairing_identity_on_rotation_circle_grid():
    cov = circle_cov(2, 8)
    signs = {0: 1.0, 1: 1.0}
    psi1 = invariant_modes(cov, 7, degree=4)
    psi2 = invariant_modes(cov, 8, degree=4)
    d1 = pushforward_modes_section(cov, psi1, signs)
    d2 = pushforward_modes_section(cov, psi2, signs)
    ys = d1.circle.grid()
    lhs = np.conj(d1.evaluate(ys)) * d2.evaluate(ys)
    rhs = np.conj(psi1.evaluate(ys)) * psi2.evaluate(ys)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_two_isomorphic_bitorsors_transport_sections_identically():
    # relabel the carrier through an equivariant bijection; after aligning
    # fibre representatives through the same bijection the transported
    # sections coincide pointwise
    theta, xi, b = double_cover_bitorsor(3)
    shift = {q: (q + 2) % 6 for q in b.carrier}
    from orbikit.morita import Bitorsor

    b2 = Bitorsor(
        left=theta, right=xi,
        carrier=tuple(shift[q] for q in b.carrier),
        rho={shift[q]: b.rho[q] for q in b.carrier},
        alpha={shift[q]: b.alpha[q] for q in b.carrier},
        left_act={(s, shift[q]): shift[v] for (s, q), v in b.left_act.items()},
        right_act={(shift[q], t): shift[v] for (q, t), v in b.right_act.items()},
        name="relabeled",
    )
    bundle = trivial_bundle(theta, 2)
    ind1 = induced_bundle(b, bundle)
    ind2 = induced_bundle(b2, bundle)
    vec = np.array([1.0 + 2j, -0.5])
    psi = BundleSection(bundle, {"*": vec})
    out1 = pushforward_section(b, psi, ind1)
    out2 = pushforward_section(b2, psi, ind2)
    for y in xi.objects:
        # representatives differ by a left-groupoid arrow; align through it
        q1 = ind1.reps[y]
        q2 = ind2.reps[y]
        from orbikit.morita import left_witness

        sigma = left_witness(b2, shift[q1], q2)
        transport = np.asarray(bundle.action[sigma], dtype=complex)
        assert np.allclose(out2.vector(y), transport @ out1.vector(y), atol=1e-12)


def test_torus_forms_under_the_flip():
    from orbikit.bases import FourierTorus, TorusModes
    from orbikit.groupoids import negation_torus_groupoid
    from orbikit.transport import (
        TorusForm,
        torus_form_invariance_residual,
        torus_form_pullback,
    )

    torus = FourierTorus((2 * np.pi, 2 * np.pi), 6)
    G = negation_torus_groupoid(torus)
    one = TorusModes.mode(torus, 6, (0, 0))
    # the area form is flip invariant (two sign flips cancel)
    vol = TorusForm(2, {(0, 1): one})
    assert torus_form_invariance_residual(vol, G) == 0.0
    # a constant one-form flips sign: not invariant
    d1 = TorusForm(1, {(0,): one, (1,): 0.0 * one})
    assert torus_form_invariance_residual(d1, G) == 2.0
    # sin(x1) d(x1) is invariant: both factors flip
    sin1 = TorusModes.zero(torus, 6)
    sin1.coeffs[1 + 6, 0 + 6] = -0.5j
    sin1.coeffs[-1 + 6, 0 + 6] = 0.5j
    odd_form = TorusForm(1, {(0,): sin1, (1,): 0.0 * one})
    assert torus_form_invariance_residual(odd_form, G) <= 1e-15


def test_torus_form_differential_commutes_with_pullback():
    from orbikit.bases import FourierTorus, TorusModes, TorusIsometry
    from fractions import Fraction
    from orbikit.transport import TorusForm, torus_form_pullback

    torus = FourierTorus((2 * np.pi, 2 * np.pi), 6)
    f = TorusModes.zero(torus, 6)
    f.coeffs[1 + 6, 2 + 6] = 1.0 - 0.5j
    f.coeffs[-2 + 6, 1 + 6] = 0.25
    form = TorusForm(0, {(): f})
    iso = TorusIsometry(negate=True, shift=(Fraction(1, 4), Fraction(0)))
    lhs = torus_form_pullback(form.d(), iso)
    rhs = torus_form_pullback(form, iso).d()
    for key in lhs.components:
        assert np.max(np.abs(lhs.components[key].coeffs - rhs.components[key].coeffs)) <= 1e-12
    # d of d vanishes
    dd = form.d().d()
    assert np.max(np.abs(dd.components[(0, 1)].coeffs)) <= 1e-12
