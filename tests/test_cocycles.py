import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbikit.bases import CatalogError
from orbikit.cocycles import (
    Cocycle,
    INCONCLUSIVE,
    cohomologous,
    default_sections,
    identity_cocycle,
    induce_cocycle,
    induced_bundle,
    reconstruct_bundle,
    sections_from_offsets,
    sign_cocycle,
    trivial_bundle,
    validate_cocycle,
    validate_section_family,
    verify_coboundary,
)
from orbikit.groupoids import (
    CechCover,
    FiniteGroup,
    cyclic_translation_groupoid,
    cech_groupoid,
    finite_action_groupoid,
    group_groupoid,
    trivial_cover,
)
from orbikit.morita import Bitorsor, double_cover_bitorsor, localize_cech


def z2():
    return group_groupoid(FiniteGroup.cyclic(2))


def localized_a2(N=3):
    theta, xi, b = double_cover_bitorsor(N)
    loc, cx, cy = localize_cech(b, trivial_cover(theta), trivial_cover(xi))
    return theta, xi, b, loc, cx, cy


def a2_sign_cocycle(cx):
    # the nontrivial character of the two-element group, on the Cech copy
    return sign_cocycle(cx, lambda arrow: -1 if arrow[0] == 1 else 1)


def test_sign_cocycle_valid():
    G = z2()
    g = sign_cocycle(G, lambda a: -1 if a == 1 else 1)
    assert validate_cocycle(g).ok


def test_identity_cocycle_valid_on_cech():
    G = cyclic_translation_groupoid(6, 3)
    C = cech_groupoid(G, CechCover(((0, 1), (1, 2), (2, 0))))
    assert validate_cocycle(identity_cocycle(C, 2)).ok


def test_bad_sign_assignment_fails_at_named_pair():
    G = z2()
    g = sign_cocycle(G, lambda a: -1)  # g(e) = -1 breaks (sigma, sigma)
    rep = validate_cocycle(g)
    assert not rep.ok
    assert any("cocycle law" in v or "normalization" in v for v in rep.violations)


def test_rank_mismatch_raises():
    G = z2()
    g = Cocycle(G, 2, {0: np.eye(2, dtype=int), 1: np.eye(1, dtype=int)})
    with pytest.raises(CatalogError):
        validate_cocycle(g)


# -- induced cocycles


def oracle_carry_value(N, a, y):
    """Independent transport oracle on raw A.2 arithmetic.

    For the arrow (a, y): y -> y+(a mod N), the unique two-element-group
    member s with  s*N + beta(y) = beta(y') - a  (mod 2N), where
    beta(y) = y in {0..N-1}.
    """
    y2 = (y + a) % N
    for s in (0, 1):
        if (s * N + y) % (2 * N) == (y2 - a) % (2 * N):
            return -1 if s else 1
    raise AssertionError("no transport witness")


def test_induced_sign_cocycle_matches_oracle_entrywise():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    g = a2_sign_cocycle(cx)
    beta = default_sections(loc)
    # pin the expected section: beta(y) = y in {0,1,2}
    assert {y: p[0] for y, p in beta.assignments[0].items()} == {0: 0, 1: 1, 2: 2}
    induced = induce_cocycle(loc, g, beta)
    assert validate_cocycle(induced).ok
    for arrow in cy.arrows:
        (a, y), _, _ = arrow
        assert int(induced.entries[arrow][0, 0]) == oracle_carry_value(3, a, y)


def test_induced_cocycle_value_is_wrap_count_sign():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    induced = induce_cocycle(loc, a2_sign_cocycle(cx), default_sections(loc))
    for arrow in cy.arrows:
        (a, y), _, _ = arrow
        wraps = (y + a) // 3  # how often transport passes the seam
        assert int(induced.entries[arrow][0, 0]) == (-1) ** wraps


def test_identity_cocycle_induces_identity():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    induced = induce_cocycle(loc, identity_cocycle(cx, 1), default_sections(loc))
    for arrow in cy.arrows:
        assert int(induced.entries[arrow][0, 0]) == 1


def test_two_section_families_give_cohomologous_results():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    g = a2_sign_cocycle(cx)
    g_a = induce_cocycle(loc, g, sections_from_offsets(loc, 0))
    g_b = induce_cocycle(loc, g, sections_from_offsets(loc, 1))
    assert validate_cocycle(g_a).ok and validate_cocycle(g_b).ok
    lam = cohomologous(g_a, g_b)
    assert lam not in (None, INCONCLUSIVE)
    assert verify_coboundary(g_a, g_b, lam)


def test_mixed_sections_also_cohomologous():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    g = a2_sign_cocycle(cx)
    beta = default_sections(loc)
    other = sections_from_offsets(loc, 1)
    mixed = dict(beta.assignments)
    mixed[0] = dict(mixed[0])
    mixed[0][1] = other.assignments[0][1]  # swap one point's preimage
    from orbikit.cocycles import SectionFamily

    beta2 = SectionFamily(mixed)
    assert validate_section_family(loc, beta2).ok
    g_a = induce_cocycle(loc, g, beta)
    g_b = induce_cocycle(loc, g, beta2)
    lam = cohomologous(g_a, g_b)
    assert lam not in (None, INCONCLUSIVE)


def test_three_sheet_cover_on_target_side():
    theta, xi, b = double_cover_bitorsor(3)
    cover_y = CechCover(((0, 1), (1, 2), (2, 0)))
    loc, cx, cy = localize_cech(b, trivial_cover(theta), cover_y)
    g = a2_sign_cocycle(cx)
    beta = default_sections(loc)
    assert validate_section_family(loc, beta).ok
    induced = induce_cocycle(loc, g, beta)
    assert validate_cocycle(induced).ok


# -- coboundary search


def test_twist_roundtrip_recovers_coboundary():
    G = cyclic_translation_groupoid(6, 3)
    g1 = identity_cocycle(G, 1)
    lam = {0: np.array([[1]]), 1: np.array([[-1]]), 2: np.array([[1]])}
    twisted = Cocycle(
        G,
        1,
        {
            a: lam[G.tgt[a]] @ g1.entries[a] @ np.linalg.inv(lam[G.src[a]].astype(float)).astype(int)
            for a in G.arrows
        },
    )
    assert validate_cocycle(twisted).ok
    found = cohomologous(g1, twisted)
    assert found not in (None, INCONCLUSIVE)
    assert verify_coboundary(g1, twisted, found)


def test_identity_vs_identity():
    G = z2()
    lam = cohomologous(identity_cocycle(G), identity_cocycle(G))
    assert lam not in (None, INCONCLUSIVE)
    assert int(lam["*"][0, 0]) in (1, -1)


def test_sign_vs_identity_has_no_coboundary():
    G = z2()
    g_sign = sign_cocycle(G, lambda a: -1 if a == 1 else 1)
    assert cohomologous(g_sign, identity_cocycle(G)) is None


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
def test_random_rank1_twists_recovered(signs):
    G = cyclic_translation_groupoid(6, 3)
    g1 = sign_cocycle(G, lambda arrow: -1 if arrow[0] % 2 else 1)
    assert validate_cocycle(g1).ok
    lam = {y: np.array([[signs[y]]]) for y in G.objects}
    g2 = Cocycle(
        G,
        1,
        {a: np.array([[signs[G.tgt[a]] * int(g1.entries[a][0, 0]) * signs[G.src[a]]]]) for a in G.arrows},
    )
    found = cohomologous(g1, g2)
    assert found not in (None, INCONCLUSIVE)
    assert verify_coboundary(g1, g2, found)


def test_rank2_twist_recovered_by_linear_solver():
    G = cyclic_translation_groupoid(6, 3)
    rng = np.random.default_rng(7)
    base = identity_cocycle(G, 2)
    lam = {}
    for y in G.objects:
        m = rng.standard_normal((2, 2))
        while abs(np.linalg.det(m)) < 0.3:
            m = rng.standard_normal((2, 2))
        lam[y] = m
    g2 = Cocycle(
        G,
        2,
        {
            a: lam[G.tgt[a]] @ base.entries[a] @ np.linalg.inv(lam[G.src[a]])
            for a in G.arrows
        },
    )
    found = cohomologous(base, g2)
    assert found not in (None, INCONCLUSIVE)
    assert verify_coboundary(base, g2, found)


SWAP = np.array([[0, 1], [1, 0]])


def z2_on_points(n):
    """Z2 acting trivially on n points: n components, each a copy of Z2."""
    return finite_action_groupoid(FiniteGroup.cyclic(2), range(n), lambda g, x: x)


SWAP_GROUPOIDS = {
    "Z2": (z2, lambda a: a),
    "Z6xZ3": (lambda: cyclic_translation_groupoid(6, 3), lambda a: a[0]),
    "Z2 on 3 points": (lambda: z2_on_points(3), lambda a: a[0]),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(SWAP_GROUPOIDS))
def test_rank2_twist_of_a_swap_cocycle_recovered(name, seed):
    """The swap cocycle commutes with the plane a I + b swap, so each twist
    has a two-dimensional null space, read back as column-major vecs."""
    build, element = SWAP_GROUPOIDS[name]
    G = build()
    g1 = Cocycle(G, 2, {a: np.linalg.matrix_power(SWAP, element(a) % 2) for a in G.arrows})
    assert validate_cocycle(g1).ok
    rng = np.random.default_rng(seed)
    lam = {x: rng.standard_normal((2, 2)) + 2 * np.eye(2) for x in G.objects}
    g2 = Cocycle(G, 2, {a: lam[G.tgt[a]] @ g1.entries[a] @ np.linalg.inv(lam[G.src[a]]) for a in G.arrows})
    found = cohomologous(g1, g2)
    assert found not in (None, INCONCLUSIVE)
    assert verify_coboundary(g1, g2, found)


def test_one_signed_component_of_24_has_no_coboundary():
    """Each component is decided by its own null space, not by a search over
    the 2^24 anchor signs."""
    G = z2_on_points(24)
    g_sign = sign_cocycle(G, lambda a: -1 if a == (1, 0) else 1)
    assert validate_cocycle(g_sign).ok
    assert cohomologous(g_sign, identity_cocycle(G)) is None


def test_a_null_space_of_singular_matrices_has_no_coboundary():
    """diag(1, -1) and the identity on Z2: every solution of lambda = diag(1, -1)
    lambda has a zero second row, so both trials are singular."""
    G = z2()
    g = Cocycle(G, 2, {x: np.diag([1, (-1) ** x]) for x in G.arrows})
    assert validate_cocycle(g).ok
    assert cohomologous(g, identity_cocycle(G, 2)) is None


# -- bundles


def test_trivial_bundle_induces_trivial():
    theta, xi, b = double_cover_bitorsor(3)
    out = induced_bundle(b, trivial_bundle(theta, 1))
    assert validate_cocycle(out).ok
    assert all(int(m[0, 0]) == 1 for m in out.entries.values())


def test_sign_bundle_through_a2_matches_carry_cocycle():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    sign_on_theta = sign_cocycle(theta, lambda a: -1 if a == 1 else 1)
    out = induced_bundle(b, reconstruct_bundle(sign_on_theta))
    assert validate_cocycle(out).ok
    # compare against induce_cocycle with the representative sections
    beta = default_sections(loc)
    induced = induce_cocycle(loc, a2_sign_cocycle(cx), beta)
    for arrow in cy.arrows:
        t = arrow[0]
        assert int(out.entries[t][0, 0]) == int(induced.entries[arrow][0, 0])


def test_rank2_bundle_section_independence():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    swap = np.array([[0, 1], [1, 0]])
    g = Cocycle(cx, 2, {a: (swap if a[0] == 1 else np.eye(2, dtype=int)) for a in cx.arrows})
    assert validate_cocycle(g).ok
    g_a = induce_cocycle(loc, g, sections_from_offsets(loc, 0))
    g_b = induce_cocycle(loc, g, sections_from_offsets(loc, 1))
    assert validate_cocycle(g_a).ok and validate_cocycle(g_b).ok
    lam = cohomologous(g_a, g_b)
    assert lam not in (None, INCONCLUSIVE)


def test_reconstruction_induction_square_commutes():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    for g in (
        a2_sign_cocycle(cx),
        identity_cocycle(cx, 2),
    ):
        lhs = reconstruct_bundle(induce_cocycle(loc, g, default_sections(loc)))
        rhs = induced_bundle(b, reconstruct_bundle(sign_to_plain(g, theta)))
        # entries over matching arrows are cohomologous rank-k cocycles
        lhs_plain = Cocycle(
            xi,
            g.rank,
            {arrow[0]: lhs.entries[arrow] for arrow in cy.arrows},
        )
        lam = cohomologous(lhs_plain, rhs)
        assert lam not in (None, INCONCLUSIVE)


def sign_to_plain(g, theta):
    """Rebase a trivial-cover Cech cocycle onto the plain groupoid."""
    from orbikit.cocycles import Cocycle

    return Cocycle(theta, g.rank, {a[0]: v for a, v in g.entries.items()})


# -- error contracts of the two inductions


def without_right_arrow(b, tau):
    """``b`` with the right action of the arrow ``tau`` left undefined."""
    right = {key: v for key, v in b.right_act.items() if key[1] != tau}
    return Bitorsor(b.left, b.right, b.carrier, b.rho, b.alpha, dict(b.left_act.items()), right, name="stuck")


def test_induce_cocycle_rejects_a_cocycle_off_the_left_groupoid():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    with pytest.raises(CatalogError, match="^cocycle does not live on the left Cech groupoid$"):
        induce_cocycle(loc, sign_cocycle(theta, lambda a: 1), default_sections(loc))


def test_induce_cocycle_names_the_section_point_that_cannot_move():
    theta, xi, b, loc, cx, cy = localized_a2(3)
    tau = cy.arrows[-1]
    stuck = without_right_arrow(loc, tau)
    with pytest.raises(CatalogError) as exc:
        induce_cocycle(stuck, a2_sign_cocycle(cx), default_sections(stuck))
    assert str(exc.value) == f"section point over {cy.tgt[tau][0]!r} cannot move along {tau!r}"


def test_induced_bundle_rejects_a_bundle_off_the_left_groupoid():
    theta, xi, b = double_cover_bitorsor(3)
    with pytest.raises(CatalogError, match="^bundle base mismatch: expected the left groupoid$"):
        induced_bundle(b, trivial_bundle(xi, 1))


def test_induced_bundle_needs_a_point_over_every_right_object():
    theta, xi, b = double_cover_bitorsor(3)
    y0, y1 = xi.objects[:2]
    alpha = {q: y1 if y == y0 else y for q, y in b.alpha.items()}
    moved = Bitorsor(theta, xi, b.carrier, b.rho, alpha, dict(b.left_act.items()), dict(b.right_act.items()))
    with pytest.raises(CatalogError, match=f"^alpha not surjective; no representative over {y0!r}$"):
        induced_bundle(moved, trivial_bundle(theta, 1))


def test_induced_bundle_names_the_representative_that_cannot_move():
    theta, xi, b = double_cover_bitorsor(3)
    tau = xi.arrows[-1]
    stuck = without_right_arrow(b, tau)
    first_over_target = next(q for q in stuck.carrier if stuck.alpha[q] == xi.tgt[tau])
    with pytest.raises(KeyError) as exc:
        induced_bundle(stuck, trivial_bundle(theta, 1))
    assert exc.value.args == ((first_over_target, tau),)
