from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbikit.bases import BandLimitError, CatalogError, CircleModes, FourierCircle, FourierTorus, TorusModes
from orbikit.clifford import build_clifford, projective_lift, trivial_lift
from orbikit.cocycles import ReconstructedBundle, trivial_bundle
from orbikit.convolution import (
    ConvolutionElement,
    act,
    act_modes,
    convolve,
    convolution_triple_report,
    delta,
    faithfulness_probe,
    fourier_element,
    fourier_unit,
    representation_matrix,
    unit_element,
)
from orbikit.groupoids import (
    FiniteGroup,
    cyclic_translation_groupoid,
    group_groupoid,
    negation_torus_groupoid,
    rotation_groupoid,
    trivial_groupoid,
    unit_groupoid,
)
from orbikit.clifford import SpinLift
from orbikit.spectral import DiracSpec, action_matrix, mult_operator
from orbikit.transport import BundleSection


def z2():
    return group_groupoid(FiniteGroup.cyclic(2))


def rotation_spec(m=2, M=8, signs=None, twist=0):
    G = rotation_groupoid(m, FourierCircle(mode_cutoff=M))
    rep = build_clifford(1)
    lift = trivial_lift(G, rep) if signs is None else SpinLift(G, rep, dict(signs), True)
    return DiracSpec(G, lift, (Fraction(twist),), M)


# -- the product


def test_group_algebra_of_z2():
    G = z2()
    d = delta(G, 1)
    prod = convolve(d, d)
    assert prod.data == {0: 1.0}


def test_translation_groupoid_delta_product():
    G = cyclic_translation_groupoid(6, 3)
    for (a, y) in G.arrows:
        for (b, z) in G.arrows:
            prod = convolve(delta(G, (a, y)), delta(G, (b, z)))
            if y == (z + b) % 3:
                assert prod.data == {((a + b) % 6, z): 1.0}
            else:
                assert prod.data == {}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_associativity_on_random_triples(data):
    G = cyclic_translation_groupoid(6, 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    elements = []
    for _ in range(3):
        support = rng.choice(len(G.arrows), size=4, replace=False)
        el = ConvolutionElement(
            G,
            {G.arrows[i]: complex(rng.standard_normal(), rng.standard_normal()) for i in support},
        )
        elements.append(el)
    f1, f2, f3 = elements
    lhs = convolve(convolve(f1, f2), f3)
    rhs = convolve(f1, convolve(f2, f3))
    keys = set(lhs.data) | set(rhs.data)
    for k in keys:
        assert lhs.data.get(k, 0) == pytest.approx(rhs.data.get(k, 0), abs=1e-12)


def test_unit_element_is_neutral():
    G = cyclic_translation_groupoid(6, 3)
    e = unit_element(G)
    f = ConvolutionElement(G, {(1, 0): 2.0, (4, 2): -1.0j})
    for prod in (convolve(e, f), convolve(f, e)):
        assert set(prod.data) == set(f.data)
        for k in f.data:
            assert prod.data[k] == pytest.approx(f.data[k])


# -- the representation (finite)


def test_delta_sum_acts_as_twice_identity_on_z2_point():
    G = z2()
    bundle = trivial_bundle(G, 1)
    psi = BundleSection(bundle, {"*": np.array([1.5 + 0.5j])})
    f = ConvolutionElement(G, {0: 1.0, 1: 1.0})
    out = act(f, psi)
    assert np.allclose(out.vector("*"), 2.0 * psi.vector("*"))


def test_unit_acts_as_identity():
    G = cyclic_translation_groupoid(6, 3)
    bundle = trivial_bundle(G, 1)
    rng = np.random.default_rng(0)
    psi = BundleSection(bundle, {y: rng.standard_normal(1) for y in G.objects})
    out = act(unit_element(G), psi)
    for y in G.objects:
        assert np.allclose(out.vector(y), psi.vector(y))


def test_representation_law_exact_finite():
    G = cyclic_translation_groupoid(6, 3)
    bundle = trivial_bundle(G, 1)
    rng = np.random.default_rng(1)
    f1 = ConvolutionElement(G, {a: complex(*rng.standard_normal(2)) for a in G.arrows[:7]})
    f2 = ConvolutionElement(G, {a: complex(*rng.standard_normal(2)) for a in G.arrows[5:11]})
    psi = BundleSection(bundle, {y: rng.standard_normal(1) + 1j * rng.standard_normal(1) for y in G.objects})
    lhs = act(convolve(f1, f2), psi)
    rhs = act(f1, act(f2, psi))
    for y in G.objects:
        assert np.allclose(lhs.vector(y), rhs.vector(y), atol=1e-12)


# -- the representation (Fourier)


def test_rotation_element_acts_by_shifted_evaluation():
    spec = rotation_spec(2, 8)
    G = spec.groupoid
    base = G.base
    one = CircleModes.mode(base, 8, 0)
    f = fourier_element(G, {1: one})  # supported on the rotation component
    rng = np.random.default_rng(4)
    psi = CircleModes.random(base, 8, rng, degree=4)
    out = act_modes(spec, f, psi)
    xs = base.grid()
    expected = psi.evaluate(xs - np.pi)  # transport pulls back along the rotation
    assert np.max(np.abs(out.evaluate(xs) - expected)) <= 1e-10


def test_fourier_unit_acts_as_identity():
    spec = rotation_spec(2, 8)
    psi = CircleModes.random(spec.groupoid.base, 8, np.random.default_rng(6), degree=5)
    out = act_modes(spec, fourier_unit(spec.groupoid), psi)
    assert np.max(np.abs(out.coeffs - psi.coeffs)) <= 1e-12


def test_band_limit_overflow_raises():
    spec = rotation_spec(2, 8)
    base = spec.groupoid.base
    f = fourier_element(spec.groupoid, {0: CircleModes.mode(base, 8, 6)})
    psi = CircleModes.mode(base, 8, 5)
    with pytest.raises(BandLimitError):
        act_modes(spec, f, psi)


def test_representation_matrix_matches_act_modes():
    spec = rotation_spec(2, 8)
    base = spec.groupoid.base
    parts = {
        0: CircleModes.mode(base, 8, 2, amplitude=0.7),
        1: CircleModes.mode(base, 8, -1, amplitude=1.2j),
    }
    f = fourier_element(spec.groupoid, parts)
    rng = np.random.default_rng(9)
    psi = CircleModes.random(base, 8, rng, degree=5)
    out = act_modes(spec, f, psi)
    mat = representation_matrix(spec, f).toarray()
    vec = mat @ psi.coeffs
    # interior modes agree; the matrix truncates at the window edge
    for k in range(-6, 7):
        assert abs(vec[k + 8] - out.coeffs[k + 8]) <= 1e-12


def entries(mat):
    coo = mat.tocoo()
    return {(int(r), int(c)): v for r, c, v in zip(coo.row, coo.col, coo.data)}


def random_part(base, M, seed, degree=3):
    """Random mode data on the base, modes up to ``degree``."""
    rng = np.random.default_rng(seed)
    if base.dim == 1:
        return CircleModes.random(base, M, rng, degree=degree)
    f = TorusModes.zero(base, M)
    window, shape = slice(M - degree, M + degree + 1), (2 * degree + 1,) * 2
    f.coeffs[window, window] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return f


def noneffective_spec(M=9):
    G = rotation_groupoid(4, FourierCircle(mode_cutoff=M), through="1/2")
    return DiracSpec(G, SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True), (Fraction(0),), M)


def pillowcase(M=9):
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 2 * np.pi), M))
    return DiracSpec(G, projective_lift(G, build_clifford(2)), (Fraction(0), Fraction(0)), M)


def cos10(spec):
    M = spec.cutoff
    f = TorusModes.zero(spec.groupoid.base, M)
    f.coeffs[M + 1, M] = f.coeffs[M - 1, M] = 0.5
    return {0: f}


REPRESENTED = {
    "circle m=2": (lambda: rotation_spec(2, 9), lambda s: {1: random_part(s.groupoid.base, 9, 1)}),
    # phases off the quarter turns, where the two products round differently
    "circle m=3": (lambda: rotation_spec(3, 9), lambda s: {2: random_part(s.groupoid.base, 9, 8)}),
    "circle m=4 half twist": (lambda: rotation_spec(4, 10, twist=Fraction(1, 2)),
                              lambda s: {3: random_part(s.groupoid.base, 10, 2)}),
    "non-effective circle": (noneffective_spec, lambda s: {2: random_part(s.groupoid.base, 9, 3)}),
    "torus cos10": (pillowcase, cos10),
    "torus flip": (pillowcase, lambda s: {1: TorusModes.mode(s.groupoid.base, 9, (0, 0))}),
    "torus random flip": (pillowcase, lambda s: {1: random_part(s.groupoid.base, 9, 4)}),
    "two components": (pillowcase, lambda s: {0: random_part(s.groupoid.base, 9, 5, 2),
                                              1: random_part(s.groupoid.base, 9, 6, 2)}),
    "four components": (lambda: rotation_spec(4, 9), lambda s: {
        g: random_part(s.groupoid.base, 9, 7 + g) for g in s.groupoid.group.elements}),
}


@pytest.mark.parametrize("case", sorted(REPRESENTED))
def test_representation_matrix_is_the_sum_of_action_times_multiplication(case):
    make_spec, make_parts = REPRESENTED[case]
    spec = make_spec()
    parts = make_parts(spec)
    op = representation_matrix(spec, fourier_element(spec.groupoid, parts))
    reference = None
    for g, part in parts.items():
        term = action_matrix(spec, g) @ mult_operator(spec.space, part)
        reference = term if reference is None else reference + term
    # entry by entry and bit for bit, with sorted indices and no stored zeros
    assert entries(op) == entries(reference)
    assert op.has_canonical_format and op.indices.dtype == np.int32
    assert op.count_nonzero() == op.nnz


# -- faithfulness


def test_kernel_witness_for_z2_point():
    G = z2()
    rep = faithfulness_probe(G)
    assert not rep.faithful
    assert rep.matches_effectiveness
    w = rep.witness.data
    assert set(w) == {0, 1}
    assert w[0] == pytest.approx(-w[1])


def test_kernel_witness_for_translation_groupoid():
    G = cyclic_translation_groupoid(6, 3)
    rep = faithfulness_probe(G)
    assert not rep.faithful
    assert rep.kernel_dim == 9  # pairs of arrows acting identically
    assert rep.matches_effectiveness
    # the witness pairs arrows of equal germ: a and a+3 at the same point
    w = rep.witness.data
    assert sum(abs(v) for v in w.values()) > 0
    germs = {((a % 3), y) for (a, y) in w}
    assert len(germs) == 1


def test_unit_groupoid_is_faithful():
    from orbikit.groupoids import unit_groupoid

    G = unit_groupoid(("p", "q"))
    rep = faithfulness_probe(G)
    assert rep.faithful and rep.kernel_dim == 0 and rep.matches_effectiveness


def reference_finite_kernel(G, bundle):
    """kernel_dim and first nullspace vector of the action map, by one global RREF.

    The map sends an element to its ``(n k) x (n k)`` action matrix; its
    matrix has one column per arrow in ``G.arrows`` order and no hom-set
    split.  The first basis vector is that of the first free column.
    """
    k, n = bundle.rank, len(G.objects)
    index = {x: i for i, x in enumerate(G.objects)}
    A = [[Fraction(0)] * len(G.arrows) for _ in range((n * k) ** 2)]
    for j, a in enumerate(G.arrows):
        r, c = index[G.tgt[a]], index[G.src[a]]
        T = np.asarray(bundle.action[a], dtype=float)
        for p in range(k):
            for q in range(k):
                A[(r * k + p) * n * k + c * k + q][j] = Fraction(float(T[p, q])).limit_denominator(10**6)
    pivots = []
    for col in range(len(G.arrows)):
        row = len(pivots)
        pick = next((i for i in range(row, len(A)) if A[i][col] != 0), None)
        if pick is None:
            continue
        A[row], A[pick] = A[pick], A[row]
        lead = A[row][col]
        A[row] = [v / lead for v in A[row]]
        for i in range(len(A)):
            if i != row and A[i][col] != 0:
                factor = A[i][col]
                A[i] = [x - factor * y for x, y in zip(A[i], A[row])]
        pivots.append(col)
    free = [c for c in range(len(G.arrows)) if c not in pivots]
    if not free:
        return 0, None
    vec = [Fraction(0)] * len(G.arrows)
    vec[free[0]] = Fraction(1)
    for i, p in enumerate(pivots):
        vec[p] = -A[i][free[0]]
    return len(free), [(a, complex(v)) for a, v in zip(G.arrows, vec) if v != 0]


def assert_probe_matches_reference(G, bundle):
    rep = faithfulness_probe(G, bundle)
    dim, witness = reference_finite_kernel(G, bundle)
    assert rep.kernel_dim == dim
    assert (None if rep.witness is None else list(rep.witness.data.items())) == witness
    return rep


def sign_bundle_on_xi():
    from orbikit.cocycles import induced_bundle, reconstruct_bundle, sign_cocycle
    from orbikit.morita import double_cover_bitorsor

    theta, xi, b = double_cover_bitorsor(3)
    sign = reconstruct_bundle(sign_cocycle(theta, lambda a: -1 if a == 1 else 1))
    return xi, induced_bundle(b, sign)


def later_hom_set_frees_first():
    """Z9 x Z3 translations, rank 2: hom(0, 0) comes first but frees (6, 0);
    hom(0, 1) frees (4, 0), which precedes (6, 0) in the arrows."""
    G = cyclic_translation_groupoid(9, 3)
    eye, flip, swap = np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    action = {}
    for a, y in G.arrows:
        action[(a, y)] = (eye, flip, swap)[a // 3]
    action[(6, 0)] = -flip  # in the span of I and flip
    action[(4, 0)] = eye  # equal to the transport of (1, 0)
    return G, ReconstructedBundle(G, 2, action)


def with_trivial_bundle(G):
    return G, trivial_bundle(G, 1)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: with_trivial_bundle(z2()), id="z2-point"),
        pytest.param(lambda: with_trivial_bundle(cyclic_translation_groupoid(6, 3)), id="z6-z3"),
        pytest.param(lambda: with_trivial_bundle(cyclic_translation_groupoid(12, 4)), id="z12-z4"),
        pytest.param(lambda: with_trivial_bundle(unit_groupoid(("p", "q"))), id="unit-pq"),
        pytest.param(sign_bundle_on_xi, id="sign-on-xi"),
    ],
)
def test_finite_kernel_matches_global_elimination(case):
    G, bundle = case()
    assert_probe_matches_reference(G, bundle)


def test_witness_is_the_earliest_free_arrow_over_all_hom_sets():
    rep = assert_probe_matches_reference(*later_hom_set_frees_first())
    assert list(rep.witness.data.items()) == [((1, 0), -1 + 0j), ((4, 0), 1 + 0j)]


SMALL_RATIONALS = [0.0, 1.0, -1.0, 0.5, -0.5, 1 / 3, -1 / 3]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_finite_kernel_matches_global_elimination_on_random_bundles(data):
    G = data.draw(
        st.sampled_from([z2(), group_groupoid(FiniteGroup.cyclic(3)), cyclic_translation_groupoid(4, 2),
                         cyclic_translation_groupoid(6, 3)])
    )
    k = data.draw(st.sampled_from([1, 2]))
    entry = st.sampled_from(SMALL_RATIONALS)
    action = {a: np.array(data.draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
              for a in G.arrows}
    assert_probe_matches_reference(G, ReconstructedBundle(G, k, action))


def test_decimal_transport_reads_as_its_fraction():
    G = z2()
    # as binary fractions 0.3 / 0.1 is 2.9999999999999996
    bundle = ReconstructedBundle(G, 1, {0: np.array([[0.1]]), 1: np.array([[0.3]])})
    rep = assert_probe_matches_reference(G, bundle)
    assert list(rep.witness.data.items()) == [(0, -3 + 0j), (1, 1 + 0j)]


@pytest.mark.parametrize(
    "entry", [np.sqrt(3) / 2, np.pi, 0.5 + 0.5j, np.nan, np.inf], ids=["sqrt3-over-2", "pi", "complex", "nan", "inf"]
)
def test_transport_that_is_not_an_exact_rational_is_refused(entry):
    G = z2()
    bundle = ReconstructedBundle(G, 1, {0: np.array([[1.0]]), 1: np.array([[entry]])})
    with pytest.raises(CatalogError, match="transport of arrow 1 "):
        faithfulness_probe(G, bundle)


def test_effective_rotation_circle_zero_kernel():
    spec = rotation_spec(2, 8)
    rep = faithfulness_probe(spec.groupoid, spec, generator_degree=2)
    assert rep.faithful
    assert rep.matches_effectiveness


def test_noneffective_rotation_circle_kernel_witness():
    G = rotation_groupoid(4, FourierCircle(mode_cutoff=8), through="1/2")
    lift = SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True)
    spec = DiracSpec(G, lift, (Fraction(0),), 8)
    rep = faithfulness_probe(G, spec, generator_degree=1)
    assert not rep.faithful
    assert rep.matches_effectiveness
    assert rep.witness is not None
    # witness combines the two elements acting by the same rotation
    assert len(rep.witness.data) >= 2


# -- convolution spectral triples


def test_commutator_norm_of_unit_component_exponential():
    spec = rotation_spec(2, 12)
    base = spec.groupoid.base
    f = fourier_element(spec.groupoid, {0: CircleModes.mode(base, 12, 2)})
    report = convolution_triple_report(spec, [("e2", f)])
    assert report.commutator_norms["e2"] == pytest.approx(2.0, abs=1e-12)
    assert report.frame_identity_residuals["e2"] <= 1e-12
    assert report.representation_residual <= 1e-12
    assert report.faithfulness_note == ""


def test_representation_residual_keeps_the_product_order():
    spec = rotation_spec(4, 12)
    base = spec.groupoid.base
    e1 = fourier_element(spec.groupoid, {0: CircleModes.mode(base, 12, 1)})
    turn = fourier_element(spec.groupoid, {1: CircleModes.mode(base, 12, 0)})
    r1, r2 = representation_matrix(spec, e1), representation_matrix(spec, turn)
    assert abs(r1 @ r2 - r2 @ r1).max() > 0.1  # the pair does not commute
    report = convolution_triple_report(spec, [("e1", e1), ("turn", turn)])
    assert report.representation_residual <= 1e-12


def test_triple_report_hands_back_the_operators_it_built():
    spec = rotation_spec(4, 12)
    base = spec.groupoid.base
    gens = [
        ("e1", fourier_element(spec.groupoid, {0: CircleModes.mode(base, 12, 1)})),
        ("turn", fourier_element(spec.groupoid, {1: CircleModes.mode(base, 12, 0)})),
    ]
    report = convolution_triple_report(spec, gens)
    assert [name for name, _ in report.operators] == ["e1", "turn"]
    band = spec.space.band(report.buffer)
    for (_, f), (_, op) in zip(gens, report.operators):
        assert (op != representation_matrix(spec, f, band)).nnz == 0


def test_unit_generator_commutes():
    spec = rotation_spec(2, 8)
    report = convolution_triple_report(spec, [("unit", fourier_unit(spec.groupoid))])
    assert report.commutator_norms["unit"] == 0.0
    assert report.representation_residual <= 1e-12


def test_pillowcase_convolution_triple_even_structure():
    M = 12
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 2 * np.pi), M))
    rep2 = build_clifford(2)
    spec = DiracSpec(G, projective_lift(G, rep2), (Fraction(0), Fraction(0)), M)
    base = G.base
    sym = TorusModes.zero(base, M)
    sym.coeffs[1 + M, 0 + M] = 0.5
    sym.coeffs[-1 + M, 0 + M] = 0.5  # cos(x1), negation invariant
    flip_part = TorusModes.mode(base, M, (0, 0))
    gens = [
        ("cos10", fourier_element(G, {0: sym})),
        ("flip", fourier_element(G, {1: flip_part})),
    ]
    report = convolution_triple_report(spec, gens, label="pillowcase-convolution")
    assert report.chirality_square_residual == 0.0
    assert report.chirality_anticommutator <= 1e-12
    assert max(report.chirality_commutators.values()) <= 1e-12
    assert abs(report.growth_exponent - 2.0) / 2.0 <= 0.15
    assert report.faithfulness_note == ""  # negation action is effective


def test_noneffective_scenario_is_flagged():
    G = rotation_groupoid(4, FourierCircle(mode_cutoff=8), through="1/2")
    lift = SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True)
    spec = DiracSpec(G, lift, (Fraction(0),), 8)
    report = convolution_triple_report(spec, [("unit", fourier_unit(G))])
    assert "not faithful" in report.faithfulness_note


def test_kernel_dimension_invariant_under_two_morphisms():
    from orbikit.cocycles import induced_bundle, reconstruct_bundle, sign_cocycle
    from orbikit.morita import Bitorsor, double_cover_bitorsor

    theta, xi, b = double_cover_bitorsor(3)
    shift = {q: (q + 2) % 6 for q in b.carrier}
    b2 = Bitorsor(
        left=theta, right=xi,
        carrier=tuple(shift[q] for q in b.carrier),
        rho={shift[q]: b.rho[q] for q in b.carrier},
        alpha={shift[q]: b.alpha[q] for q in b.carrier},
        left_act={(s, shift[q]): shift[v] for (s, q), v in b.left_act.items()},
        right_act={(shift[q], t): shift[v] for (q, t), v in b.right_act.items()},
        name="relabeled",
    )
    sign = reconstruct_bundle(sign_cocycle(theta, lambda a: -1 if a == 1 else 1))
    dims = []
    for phi in (b, b2):
        bundle = induced_bundle(phi, sign)
        dims.append(faithfulness_probe(xi, bundle).kernel_dim)
    assert dims[0] == dims[1]
