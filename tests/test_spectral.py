import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from orbikit.bases import CatalogError, CircleModes, FiniteSet, FourierCircle, FourierTorus, TorusModes
from orbikit.clifford import build_clifford, projective_lift, spin_lift_search, trivial_lift
from orbikit.groupoids import (
    CechCover,
    CircleArc,
    cech_groupoid,
    negation_torus_groupoid,
    rotation_groupoid,
    trivial_groupoid,
)
from orbikit.morita import QuotientCovering
from orbikit.spectral import (
    Chart,
    DiracSpec,
    OrbifoldMeasure,
    action_matrix,
    assemble_dirac,
    check_spectral_triple,
    chirality_matrix,
    downstairs_tangent_cocycle,
    growth_exponent,
    induced_dirac,
    induced_tangent_cocycle,
    invariant_projector,
    matched_interior_spectra,
    mult_operator,
    orbifold_inner,
    orbifold_integral,
    spin_structure_transport,
    tangent_cocycle,
    uniform_measure,
)
from orbikit.clifford import SpinLift


def circle_spec(m=2, M=8, twist=0, signs=None):
    G = rotation_groupoid(m, FourierCircle(mode_cutoff=M))
    rep = build_clifford(1)
    if signs is None:
        lift = trivial_lift(G, rep)
    else:
        lift = SpinLift(G, rep, dict(signs), strict=True)
    return DiracSpec(G, lift, (Fraction(twist),), M)


def unit_circle_spec(M=8, L=2 * np.pi, twist=0):
    G = trivial_groupoid(FourierCircle(L, M))
    rep = build_clifford(1)
    return DiracSpec(G, trivial_lift(G, rep), (Fraction(twist),), M)


def pillowcase_spec(M=12):
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 2 * np.pi), M))
    rep = build_clifford(2)
    return DiracSpec(G, projective_lift(G, rep), (Fraction(0), Fraction(0)), M)


# -- assembly


def test_circle_dirac_spectrum_integers():
    D = assemble_dirac(unit_circle_spec(M=8))
    assert np.array_equal(D.eigenvalues(), np.arange(-8, 9, dtype=float))
    dense = np.sort(np.linalg.eigvalsh(D.dense()))
    assert np.max(np.abs(dense - D.eigenvalues())) <= 1e-12


def test_circle_dirac_half_twist_has_no_zero_mode():
    D = assemble_dirac(unit_circle_spec(M=8, twist=Fraction(1, 2)))
    vals = D.eigenvalues()
    assert np.min(np.abs(vals)) == 0.5
    assert np.allclose(vals, np.arange(-8, 9) + 0.5)


def test_torus_mode_block_eigenvalues():
    spec = pillowcase_spec(M=8)
    D = assemble_dirac(spec)
    vals = D.eigenvalues()
    assert np.isclose(np.abs(vals), 5.0, atol=1e-12).sum() >= 2  # the (3,4) block
    dense_block = 3.0 * spec.lift.rep.gammas[0] + 4.0 * spec.lift.rep.gammas[1]
    assert np.allclose(np.linalg.eigvalsh(dense_block), [-5.0, 5.0])


def test_dirac_commutes_with_lifted_action():
    for spec in (circle_spec(2, 8), circle_spec(4, 9, twist=Fraction(1, 2)), pillowcase_spec(M=8)):
        D = assemble_dirac(spec)
        for g in spec.groupoid.group.elements:
            U = action_matrix(spec, g).toarray()
            assert np.max(np.abs(D.dense() @ U - U @ D.dense())) <= 1e-12


def test_lift_that_does_not_commute_with_the_dirac_is_refused(monkeypatch):
    spec = pillowcase_spec(M=8)
    # the identity on spinors does not intertwine D with its negation
    monkeypatch.setattr(spec.lift, "matrix", lambda g: np.eye(2, dtype=complex))
    with pytest.raises(CatalogError, match="lift/action mismatch"):
        assemble_dirac(spec)


# -- one build per spec


def test_dirac_and_doubled_spec_are_built_once_per_spec():
    spec = pillowcase_spec(M=8)
    assert assemble_dirac(spec).matrix is assemble_dirac(spec).matrix
    double = spec.with_cutoff(16)
    assert spec.with_cutoff(16) is double
    assert double.cutoff == 16 and double.groupoid is not spec.groupoid
    # a fresh spec builds its own
    assert assemble_dirac(pillowcase_spec(M=8)).matrix is not assemble_dirac(spec).matrix


def test_a_triple_check_without_generators_builds_no_doubled_spec(monkeypatch):
    spec = circle_spec(2, 16)

    def refuse(cutoff):
        raise AssertionError(f"built the spec at cutoff {cutoff}")

    monkeypatch.setattr(spec, "with_cutoff", refuse)
    report = check_spectral_triple(spec, [], buffer=2)
    assert report.growth_exponent is not None
    with pytest.raises(AssertionError, match="cutoff 32"):
        check_spectral_triple(spec, [("e1", CircleModes.mode(spec.groupoid.base, 16, 1))])


def test_a_spec_and_its_caches_die_with_their_last_reference():
    # without the cycle collector, only reference counting frees the spec:
    # a Dirac cached with a pointer back to its spec would keep it alive
    gc.disable()
    try:
        spec = pillowcase_spec(M=8)
        f = TorusModes.zero(spec.groupoid.base, 8)
        f.coeffs[9, 8] = f.coeffs[7, 8] = 0.5
        report = check_spectral_triple(spec, [("cos10", f)])
        assert report.commutator_norms["cos10"] > 0
        action_matrix(spec, 1)
        refs = [weakref.ref(spec), weakref.ref(spec.with_cutoff(16))]
        del spec
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_hermiticity_residual_zero():
    assert assemble_dirac(pillowcase_spec(M=8)).hermiticity_residual() == 0.0


# -- projectors


def test_projector_keeps_even_modes():
    spec = circle_spec(2, 8)
    P = invariant_projector(spec).toarray()
    ks = np.arange(-8, 9)
    assert np.allclose(P, np.diag((ks % 2 == 0).astype(float)))


def test_projector_trivial_group_is_identity():
    spec = unit_circle_spec(M=8)
    P = invariant_projector(spec).toarray()
    assert np.array_equal(P, np.eye(17))


def test_projector_rank_equals_trace():
    spec = circle_spec(4, 8)
    P = invariant_projector(spec).toarray()
    rank = np.linalg.matrix_rank(P)
    assert abs(np.trace(P).real - rank) <= 1e-9


def test_projector_commutes_with_dirac_and_multiplication():
    spec = circle_spec(2, 8)
    P = invariant_projector(spec).toarray()
    D = assemble_dirac(spec).dense()
    assert np.max(np.abs(P @ D - D @ P)) <= 1e-12
    f = CircleModes.zero(spec.groupoid.base, 8)
    f.coeffs[2 + 8] = 1.0
    f.coeffs[-2 + 8] = 1.0  # invariant generator
    Mf = mult_operator(spec.space, f).toarray()
    assert np.max(np.abs(P @ Mf - Mf @ P)) <= 1e-12


def test_projector_refuses_projective_lift():
    with pytest.raises(CatalogError):
        invariant_projector(pillowcase_spec(M=8))


def test_antiperiodic_structure_does_not_descend():
    # strict group-level lift, but the half-twist action squares to -1
    spec = circle_spec(2, 8, twist=Fraction(1, 2))
    with pytest.raises(CatalogError):
        invariant_projector(spec)


# -- orbifold integration


def test_free_rotation_circle_integral_is_pi():
    base = FourierCircle(mode_cutoff=8)
    measure = uniform_measure(base, group_order=2, principal_rank=1)
    G = rotation_groupoid(2, base)
    measure.validate(G)
    f = CircleModes.mode(base, 8, 0)
    assert orbifold_integral(measure, f) == pytest.approx(np.pi, abs=1e-10)


def test_point_chart_counting_integral():
    base = FiniteSet(("*",))
    measure = OrbifoldMeasure(base, [Chart("pt", 2, 2, {"*": 1.0})])
    measure.validate()
    assert orbifold_integral(measure, {"*": 1.0}) == pytest.approx(1.0)


def test_chart_decomposition_independence():
    base = FourierCircle(mode_cutoff=8)
    G = rotation_groupoid(2, base)
    single = uniform_measure(base, 2, 1)
    rho1 = CircleModes.zero(base, 8)
    rho1.coeffs[8] = 0.5
    rho1.coeffs[2 + 8] = 0.25
    rho1.coeffs[-2 + 8] = 0.25  # (1 + cos 2x)/2
    rho2 = CircleModes.mode(base, 8, 0) - rho1
    double = OrbifoldMeasure(
        base, [Chart("lobe1", 2, 1, rho1), Chart("lobe2", 2, 1, rho2)]
    )
    double.validate(G)
    f = CircleModes.zero(base, 8)
    f.coeffs[8] = 1.0
    f.coeffs[2 + 8] = 0.5
    f.coeffs[-2 + 8] = 0.5  # 1 + cos 2x
    lhs = orbifold_integral(single, f)
    rhs = orbifold_integral(double, f)
    assert abs(lhs - rhs) <= 1e-10
    assert lhs == pytest.approx(np.pi, abs=1e-10)


def test_coefficient_integrals_match_a_resolving_grid():
    """Against grid quadrature fine enough to resolve the whole product."""
    rng = np.random.default_rng(6)
    circle = FourierCircle(3.0, 8)
    rho = CircleModes.zero(circle, 8)
    rho.coeffs[8 + np.array([-1, 0, 2])] = [0.3 - 0.1j, 0.5, 0.2j]  # not symmetric in k
    psi1 = CircleModes.random(circle, 6, rng, (2,), twist=Fraction(1, 2))
    psi2 = CircleModes.random(circle, 9, rng, (2,), twist=Fraction(1, 2))
    xs = circle.grid(64)
    measure = OrbifoldMeasure(circle, [Chart("a", 2, 1, rho)])
    pairing = np.einsum("xi,xi->x", np.conj(psi1.evaluate(xs)), psi2.evaluate(xs))
    ref = 0.5 * 3.0 * np.mean(rho.evaluate(xs) * pairing)
    assert abs(orbifold_inner(measure, psi1, psi2) - ref) <= 1e-12
    f = CircleModes.random(circle, 5, rng)
    assert abs(orbifold_integral(measure, f) - 1.5 * np.mean(rho.evaluate(xs) * f.evaluate(xs))) <= 1e-12

    torus = FourierTorus((2.0, 5.0), 4)
    trho = TorusModes.zero(torus, 4)
    trho.coeffs[4 + 1, 4 - 2] = 0.25
    trho.coeffs[4, 4] = 1.0
    g = TorusModes(torus, 3, rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    txs, tys = torus.grid(32)
    ref = 10.0 * np.mean(trho.evaluate(txs, tys) * g.evaluate(txs, tys))
    got = orbifold_integral(OrbifoldMeasure(torus, [Chart("t", 1, 1, trho)]), g)
    assert abs(got - ref) <= 1e-12


def test_partition_must_sum_to_one():
    base = FourierCircle(mode_cutoff=8)
    bad = OrbifoldMeasure(base, [Chart("half", 2, 1, CircleModes.mode(base, 8, 0) * 0.5)])
    with pytest.raises(CatalogError):
        bad.validate()


def test_partition_must_be_invariant():
    base = FourierCircle(mode_cutoff=8)
    G = rotation_groupoid(2, base)
    rho1 = CircleModes.mode(base, 8, 0) * 0.5 + CircleModes.mode(base, 8, 1, amplitude=0.25)
    rho2 = CircleModes.mode(base, 8, 0) - rho1  # sums to one, but the half turn flips mode 1
    split = OrbifoldMeasure(base, [Chart("a", 2, 1, rho1), Chart("b", 2, 1, rho2)])
    split.validate()
    with pytest.raises(CatalogError, match="not invariant"):
        split.validate(G)


def test_twisted_integrand_is_refused():
    base = FourierCircle(mode_cutoff=8)
    spinor = CircleModes.mode(base, 8, 0, twist=Fraction(1, 2))
    with pytest.raises(CatalogError, match="not a scalar function"):
        orbifold_integral(uniform_measure(base, 2, 1), spinor)


# -- induced Dirac (covering scenarios)


def test_induced_dirac_z2_matches_quotient_spectrum():
    spec = circle_spec(2, 32)
    cov = QuotientCovering.of(spec.groupoid)
    ind = induced_dirac(cov, spec)
    assert ind.down_twist == 0
    up_vals, dn_vals = matched_interior_spectra(ind)
    assert len(up_vals) > 10
    assert np.max(np.abs(up_vals - dn_vals)) <= 1e-9
    assert ind.conjugation_residual <= 1e-12
    assert ind.branch_residual <= 1e-12


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("M", [8, 12, 48, 96, 192, 256])
def test_covering_residuals_hold_at_every_cutoff(m, M):
    """local-representatives and divergence-symmetry at their default tolerances."""
    spec = circle_spec(m, M)
    ind = induced_dirac(QuotientCovering.of(spec.groupoid), spec)
    assert max(ind.conjugation_residual, ind.branch_residual) <= 1e-12
    rng = np.random.default_rng(1)
    reach = M - 2  # the default buffer
    pairs = []
    for _ in range(4):
        coeffs = np.zeros((2, 2 * M + 1), dtype=complex)
        for k in ind.invariant_modes:
            if abs(k) <= reach:
                coeffs[:, k + M] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        pairs.append(tuple(CircleModes(spec.groupoid.base, M, c) for c in coeffs))
    report = check_spectral_triple(
        spec, [], measure=uniform_measure(spec.groupoid.base, m, 1), invariant_pairs=pairs
    )
    assert report.symmetry_residual <= 1e-10


def test_induced_dirac_z4():
    spec = circle_spec(4, 32)
    cov = QuotientCovering.of(spec.groupoid)
    ind = induced_dirac(cov, spec)
    up_vals, dn_vals = matched_interior_spectra(ind)
    assert np.max(np.abs(up_vals - dn_vals)) <= 1e-9
    # invariant modes are the multiples of four
    assert all(k % 4 == 0 for k in ind.invariant_modes)


def test_induced_dirac_sign_character_gives_half_twist():
    spec = circle_spec(2, 32, signs={0: 1, 1: -1})
    cov = QuotientCovering.of(spec.groupoid)
    ind = induced_dirac(cov, spec)
    assert ind.down_twist == Fraction(1, 2)
    assert max(ind.conjugation_residual, ind.branch_residual) <= 1e-12
    up_vals, dn_vals = matched_interior_spectra(ind)
    assert np.max(np.abs(up_vals - dn_vals)) <= 1e-9


def test_identity_covering_unitary_is_identity():
    spec = unit_circle_spec(M=8)
    cov = QuotientCovering.of(spec.groupoid)
    ind = induced_dirac(cov, spec)
    assert np.array_equal(ind.unitary, np.eye(17))
    assert np.max(np.abs(ind.downstairs.eigenvalues() - ind.upstairs.eigenvalues())) == 0


def test_unitary_preserves_orbifold_inner_products():
    spec = circle_spec(2, 16)
    cov = QuotientCovering.of(spec.groupoid)
    ind = induced_dirac(cov, spec)
    base_up = spec.groupoid.base
    up_measure = uniform_measure(base_up, 2, 1)
    down_base = ind.downstairs.space.base
    down_measure = uniform_measure(down_base, 1, 1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = np.zeros(33, dtype=complex)
        for k in range(-16, 17, 2):
            c[k + 16] = rng.standard_normal() + 1j * rng.standard_normal()
        psi = CircleModes(base_up, 16, c)
        down_c = ind.unitary @ c
        down = CircleModes(down_base, ind.downstairs.spec.cutoff, down_c)
        lhs = orbifold_inner(up_measure, psi, psi)
        rhs = orbifold_inner(down_measure, down, down)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# -- spectral triple reports


def test_commutator_norm_of_single_mode_is_its_degree():
    spec = unit_circle_spec(M=16)
    gens = []
    for l in (1, 2, 3):
        f = CircleModes.mode(spec.groupoid.base, 16, l)
        gens.append((f"e{l}", f))
    report = check_spectral_triple(spec, gens)
    for l in (1, 2, 3):
        assert report.commutator_norms[f"e{l}"] == pytest.approx(l, abs=1e-12)
        assert report.commutator_drift[f"e{l}"] <= 1e-9
        assert report.frame_identity_residuals[f"e{l}"] <= 1e-12


def test_constant_generator_commutes_exactly():
    spec = unit_circle_spec(M=8)
    f = CircleModes.mode(spec.groupoid.base, 8, 0)
    report = check_spectral_triple(spec, [("const", f)])
    assert report.commutator_norms["const"] == 0.0


def test_circle_growth_exponent_near_one():
    spec = unit_circle_spec(M=32)
    report = check_spectral_triple(spec, [])
    assert abs(report.growth_exponent - 1.0) / 1.0 <= 0.15


def test_pillowcase_chirality_package():
    spec = pillowcase_spec(M=12)
    base = spec.groupoid.base
    f = TorusModes.zero(base, 12)
    f.coeffs[1 + 12, 1 + 12] = 0.5
    f.coeffs[-1 + 12, -1 + 12] = 0.5  # cos(x1 + x2), negation invariant
    report = check_spectral_triple(spec, [("cos11", f)], label="pillowcase")
    assert report.hermiticity_residual == 0.0
    assert report.chirality_square_residual == 0.0
    assert report.chirality_anticommutator <= 1e-12
    assert report.chirality_commutators["cos11"] <= 1e-12
    assert abs(report.growth_exponent - 2.0) / 2.0 <= 0.15
    assert report.frame_identity_residuals["cos11"] <= 1e-12


def test_divergence_symmetry_residual():
    spec = circle_spec(2, 32)
    base = spec.groupoid.base
    measure = uniform_measure(base, 2, 1)
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(4):
        c1 = np.zeros(65, dtype=complex)
        c2 = np.zeros(65, dtype=complex)
        for k in range(-30, 31, 2):
            c1[k + 32] = rng.standard_normal() + 1j * rng.standard_normal()
            c2[k + 32] = rng.standard_normal() + 1j * rng.standard_normal()
        pairs.append((CircleModes(base, 32, c1), CircleModes(base, 32, c2)))
    report = check_spectral_triple(
        spec, [], measure=measure, invariant_pairs=pairs, label="divergence"
    )
    assert report.symmetry_residual <= 1e-10


def test_divergence_symmetry_on_the_torus():
    spec = pillowcase_spec(M=8)
    torus = spec.groupoid.base
    rng = np.random.default_rng(4)
    shape = (17, 17, spec.lift.rep.spinor_dim)
    pairs = [tuple(TorusModes(torus, 8, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                   for _ in range(2)) for _ in range(3)]
    report = check_spectral_triple(
        spec, [], measure=uniform_measure(torus, 2, 1), invariant_pairs=pairs
    )
    assert report.symmetry_residual <= 1e-10


def test_growth_exponent_needs_levels():
    with pytest.raises(CatalogError):
        growth_exponent(np.array([0.0, 0.1]), 1.0)


# -- tangent cocycles and spin transport (covering identification)


def arcs_cover(n_sheets=3):
    return CechCover(
        tuple(
            CircleArc(Fraction(i, n_sheets), Fraction(1, n_sheets))
            for i in range(n_sheets)
        )
    )


def test_tangent_cocycle_of_rotation_groupoid_is_identity():
    G = rotation_groupoid(2, FourierCircle(mode_cutoff=4))
    C = cech_groupoid(G, arcs_cover())
    tc = tangent_cocycle(C)
    assert all(np.array_equal(v, np.eye(1)) for v in tc.values())


def test_induced_tangent_cocycle_matches_downstairs():
    spec = circle_spec(2, 8)
    cov = QuotientCovering.of(spec.groupoid)
    cover = arcs_cover(3)
    branches = {0: 0, 1: 1, 2: 0}
    induced = induced_tangent_cocycle(cov, cover, branches)
    downstairs = downstairs_tangent_cocycle(cov, cover)
    assert set(induced) == set(downstairs)
    for key in induced:
        assert np.array_equal(induced[key], downstairs[key])


def test_tangent_cocycles_see_an_overlap_between_grid_points():
    spec = circle_spec(2, 8)
    cov = QuotientCovering.of(spec.groupoid)
    spacing = Fraction(1, cov.downstairs.grid_size)
    # (-1/4, 1/4) and (15/64, 47/64) meet on (15/64, 1/4), which holds no point k/32;
    # the open arc (1/4, 3/4) only touches the first one, at both ends
    quarter = Fraction(1, 4)
    cover = CechCover((CircleArc(0, quarter), CircleArc(Fraction(31, 64), quarter),
                       CircleArc(Fraction(1, 2), quarter)))
    assert quarter - Fraction(15, 64) < spacing
    induced = induced_tangent_cocycle(cov, cover, {0: 0, 1: 1, 2: 0})
    downstairs = downstairs_tangent_cocycle(cov, cover)
    meeting = {(i, j) for i in range(3) for j in range(3)} - {(0, 2), (2, 0)}
    assert set(induced) == set(downstairs) == meeting
    for key in induced:
        assert np.array_equal(induced[key], downstairs[key])


def test_spin_structure_transport_bijection():
    for m in (2, 4):
        spec_G = rotation_groupoid(m, FourierCircle(mode_cutoff=16))
        rep = build_clifford(1)
        lifts = spin_lift_search(spec_G, rep)
        cov = QuotientCovering.of(spec_G)
        mapping = spin_structure_transport(cov, lifts)
        assert len(mapping) == 2
        assert sorted(mapping.values()) == [Fraction(0), Fraction(1, 2)]


def test_generator_beyond_cutoff_rejected():
    spec = unit_circle_spec(M=8)
    f = CircleModes.mode(spec.groupoid.base, 8, 8)
    with pytest.raises(CatalogError):
        check_spectral_triple(spec, [("edge", f)])


def test_connection_transport_rejects_plain_bitorsors():
    from orbikit.bases import CatalogError as CE
    from orbikit.morita import double_cover_bitorsor
    from orbikit.transport import InvariantConnection, induce_connection

    _, _, b = double_cover_bitorsor(3)
    circle = FourierCircle(mode_cutoff=8)
    conn = InvariantConnection(circle, 1, CircleModes.zero(circle, 8, (1, 1)))
    with pytest.raises(CE):
        induce_connection(b, conn)


def test_interior_band_spectra_stable_under_cutoff_doubling():
    # no spurious truncation modes inside the band: the spectrum over the
    # cutoff-M interior band agrees with the same band read at cutoff 2M
    M, B = 12, 2
    for make in (lambda M_: unit_circle_spec(M=M_), lambda M_: pillowcase_spec(M=M_)):
        d_m = assemble_dirac(make(M))
        d_2m = assemble_dirac(make(2 * M))
        vals_m = d_m.eigenvalues(buffer=B)
        vals_2m = d_2m.eigenvalues(buffer=2 * M - (M - B))
        assert len(vals_m) == len(vals_2m)
        assert np.max(np.abs(np.sort(vals_m) - np.sort(vals_2m))) <= 1e-12


def test_report_carries_interior_eigenvalues():
    spec = unit_circle_spec(M=8)
    report = check_spectral_triple(spec, [])
    assert report.eigenvalues is not None
    assert np.array_equal(report.eigenvalues, np.arange(-6.0, 7.0))
    doc = report.as_dict()
    assert doc["eigenvalues"][0] == -6.0


def test_unitary_conjugates_algebra_action_to_quotient():
    from orbikit.spectral import conjugated_multiplication_residual
    from orbikit.transport import pushforward_function

    for m in (2, 4):
        spec = circle_spec(m, 16)
        cov = QuotientCovering.of(spec.groupoid)
        ind = induced_dirac(cov, spec)
        f = CircleModes.zero(spec.groupoid.base, 16)
        f.coeffs[m + 16] = 0.5
        f.coeffs[-m + 16] = 0.5  # the lowest invariant cosine
        f_down = pushforward_function(cov, f)
        f_down = CircleModes(ind.downstairs.space.base, f_down.cutoff, f_down.coeffs)
        resid = conjugated_multiplication_residual(ind, f, f_down, buffer=2)
        assert resid <= 1e-12


def test_pillowcase_orbifold_measure_and_volume():
    from orbikit.bases import TorusModes

    torus = FourierTorus((2 * np.pi, 2 * np.pi), 8)
    G = negation_torus_groupoid(torus)
    measure = uniform_measure(torus, 2, 1)
    measure.validate(G)
    one = TorusModes.mode(torus, 8, (0, 0))
    total = orbifold_integral(measure, one)
    assert abs(total - 2.0 * np.pi**2) <= 1e-9
    # a two-chart flip-invariant decomposition gives the same integral
    rho1 = TorusModes.zero(torus, 8)
    rho1.coeffs[8, 8] = 0.5
    rho1.coeffs[1 + 8, 0 + 8] = 0.25
    rho1.coeffs[-1 + 8, 0 + 8] = 0.25  # (1 + cos x1)/2, flip invariant
    rho2 = TorusModes.mode(torus, 8, (0, 0)) - rho1
    split = OrbifoldMeasure(torus, [Chart("a", 2, 1, rho1), Chart("b", 2, 1, rho2)])
    split.validate(G)
    f = TorusModes.zero(torus, 8)
    f.coeffs[8, 8] = 1.0
    f.coeffs[1 + 8, 1 + 8] = 0.5
    f.coeffs[-1 + 8, -1 + 8] = 0.5
    assert abs(orbifold_integral(split, f) - orbifold_integral(measure, f)) <= 1e-10
