import itertools

import pytest

from orbikit import morita
from orbikit.bases import CatalogError, FourierCircle
from orbikit.groupoids import CechCover, cyclic_translation_groupoid, trivial_cover
from orbikit.morita import (
    Bitorsor,
    INCONCLUSIVE,
    QuotientCovering,
    double_cover_bitorsor,
    cech_bitorsor,
    compose_homs,
    fibre_partition_report,
    find_two_morphism,
    identity_bitorsor,
    inverse_bitorsor,
    left_witness,
    lift_bisection,
    localize_cech,
    right_witness,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from orbikit.groupoids import rotation_groupoid


def test_double_cover_bitorsor_valid_n3_and_n5():
    for n in (3, 5):
        _, _, b = double_cover_bitorsor(n)
        rep = validate_generalized_hom(b, mode="bitorsor")
        assert rep.ok, rep.render()


def test_a2_generalized_mode_also_valid():
    _, _, b = double_cover_bitorsor(3)
    assert validate_generalized_hom(b, mode="generalized").ok


def test_identity_bitorsor_valid():
    G = cyclic_translation_groupoid(6, 3)
    rep = validate_generalized_hom(identity_bitorsor(G), mode="bitorsor")
    assert rep.ok, rep.render()


def test_mutated_right_action_fails_with_witness():
    theta, xi, b = double_cover_bitorsor(3)
    bad_right = {
        (q, (a, y)): (q + a) % 6 for (q, (a, y)) in b.right_act
    }
    bad = Bitorsor(
        left=theta,
        right=xi,
        carrier=b.carrier,
        rho=b.rho,
        alpha=b.alpha,
        left_act=b.left_act,
        right_act=bad_right,
        name="mutated a2",
    )
    rep = validate_generalized_hom(bad, mode="bitorsor")
    assert not rep.ok
    assert any(":" in v for v in rep.violations)


def test_torsor_witnesses_unique_everywhere():
    _, _, b = double_cover_bitorsor(3)
    for q, q2 in itertools.product(b.carrier, repeat=2):
        if b.rho[q] == b.rho[q2]:
            t = right_witness(b, q, q2)
            assert b.right_act[(q, t)] == q2
        if b.alpha[q] == b.alpha[q2]:
            s = left_witness(b, q, q2)
            assert b.left_act[(s, q)] == q2


# -- composition and 2-morphisms


def test_compose_with_identity_is_two_isomorphic():
    theta, xi, b = double_cover_bitorsor(3)
    comp = compose_homs(b, identity_bitorsor(xi))
    assert validate_generalized_hom(comp, mode="bitorsor").ok
    tm = find_two_morphism(b, comp)
    assert tm not in (None, INCONCLUSIVE)


def test_compose_with_inverse_is_identity():
    theta, xi, b = double_cover_bitorsor(3)
    comp = compose_homs(b, inverse_bitorsor(b))
    assert validate_generalized_hom(comp, mode="bitorsor").ok
    assert len(comp.carrier) == 2  # classes indexed by q - q' mod 6 in {0, 3}
    tm = find_two_morphism(comp, identity_bitorsor(theta))
    assert tm not in (None, INCONCLUSIVE)


def test_composition_associative_up_to_two_morphism():
    theta, xi, b = double_cover_bitorsor(3)
    inv = inverse_bitorsor(b)
    idx = identity_bitorsor(xi)
    lhs = compose_homs(compose_homs(b, idx), inv)
    rhs = compose_homs(b, compose_homs(idx, inv))
    assert find_two_morphism(lhs, rhs) not in (None, INCONCLUSIVE)


def test_compose_requires_matching_middle():
    theta, xi, b = double_cover_bitorsor(3)
    with pytest.raises(CatalogError):
        compose_homs(b, b)


def test_two_morphism_found_for_relabeled_carrier():
    theta, xi, b = double_cover_bitorsor(3)
    shift = {q: (q + 2) % 6 for q in b.carrier}
    relabeled = Bitorsor(
        left=theta,
        right=xi,
        carrier=tuple(shift[q] for q in b.carrier),
        rho={shift[q]: b.rho[q] for q in b.carrier},
        alpha={shift[q]: b.alpha[q] for q in b.carrier},
        left_act={(s, shift[q]): shift[v] for (s, q), v in b.left_act.items()},
        right_act={(shift[q], t): shift[v] for (q, t), v in b.right_act.items()},
        name="relabeled a2",
    )
    assert validate_generalized_hom(relabeled, mode="bitorsor").ok
    tm = find_two_morphism(b, relabeled)
    assert tm not in (None, INCONCLUSIVE)
    assert tm.check(b, relabeled)


def test_two_morphism_none_when_orbits_differ():
    theta, xi, b = double_cover_bitorsor(3)
    assert find_two_morphism(b, identity_bitorsor(xi)) is None


def test_two_morphism_identity_for_same_carrier():
    _, _, b = double_cover_bitorsor(3)
    tm = find_two_morphism(b, b)
    assert tm not in (None, INCONCLUSIVE)


def test_two_isomorphic_bitorsors_share_fibre_images():
    theta, xi, b = double_cover_bitorsor(3)
    shift = {q: (q + 1) % 6 for q in b.carrier}
    other = Bitorsor(
        left=theta,
        right=xi,
        carrier=b.carrier,
        rho=b.rho,
        alpha={shift[q]: b.alpha[q] for q in b.carrier},
        left_act={(s, shift[q]): shift[v] for (s, q), v in b.left_act.items()},
        right_act={(shift[q], t): shift[v] for (q, t), v in b.right_act.items()},
        name="shifted",
    )
    # same rho (constant) so the set equalities reduce to rho(alpha^-1(y))
    for y in xi.objects:
        left_image = {b.rho[q] for q in b.alpha_fibre(y)}
        right_image = {other.rho[q] for q in other.alpha_fibre(y)}
        assert left_image == right_image


# -- localization


def test_localize_a2_carrier_count():
    _, xi, b = double_cover_bitorsor(3)
    cover_y = CechCover(((0, 1), (1, 2), (2, 0)))
    loc, cx, cy = localize_cech(b, trivial_cover(b.left), cover_y)
    assert len(loc.carrier) == 12  # each sheet holds 2 points with 2 preimages
    rep = validate_generalized_hom(loc, mode="bitorsor")
    assert rep.ok, rep.render()


def test_localize_trivial_covers_isomorphic_copy():
    theta, xi, b = double_cover_bitorsor(3)
    loc, cx, cy = localize_cech(b, trivial_cover(theta), trivial_cover(xi))
    assert len(loc.carrier) == len(b.carrier)
    assert validate_generalized_hom(loc, mode="bitorsor").ok


def test_localized_identity_matches_canonical_cech_bitorsor():
    G = cyclic_translation_groupoid(6, 3)
    cover = CechCover(((0, 1), (1, 2), (2, 0)))
    canonical = cech_bitorsor(G, cover)
    rep = validate_generalized_hom(canonical, mode="bitorsor")
    assert rep.ok, rep.render()
    loc, _, _ = localize_cech(identity_bitorsor(G), trivial_cover(G), cover)
    assert validate_generalized_hom(loc, mode="bitorsor").ok
    # same carrier size: arrows tagged by source sheet
    assert len(loc.carrier) == len(canonical.carrier)


def test_localized_composed_with_canonical_cech_recovers_original():
    theta, xi, b = double_cover_bitorsor(3)
    cover_y = CechCover(((0, 1), (1, 2), (2, 0)))
    cover_x = trivial_cover(theta)
    loc, cx, cy = localize_cech(b, cover_x, cover_y)
    cb_x = cech_bitorsor_on(theta, cover_x, cx)
    cb_y = cech_bitorsor_on(xi, cover_y, cy)
    recovered = compose_homs(compose_homs(cb_x, loc), inverse_bitorsor(cb_y))
    assert validate_generalized_hom(recovered, mode="bitorsor").ok
    assert find_two_morphism(recovered, b) not in (None, INCONCLUSIVE)


def cech_bitorsor_on(G, cover, cech):
    """cech_bitorsor but anchored on an existing Cech groupoid object."""
    b = cech_bitorsor(G, cover)
    return Bitorsor(
        left=G,
        right=cech,
        carrier=b.carrier,
        rho=b.rho,
        alpha=b.alpha,
        left_act=b.left_act,
        right_act=b.right_act,
        name=b.name,
    )


# -- bisection lifts


def test_left_lift_through_nontrivial_element():
    _, _, b = double_cover_bitorsor(3)
    lift = lift_bisection(b, 1, 0, side="left")
    assert lift.intertwines
    assert lift.mapping == {q: (q + 3) % 6 for q in range(6)}


def test_unit_lift_is_identity():
    theta, xi, b = double_cover_bitorsor(3)
    lift = lift_bisection(b, 0, 2, side="left")
    assert lift.mapping == {q: q for q in range(6)}


def test_right_lift_matches_expected_translation():
    theta, xi, b = double_cover_bitorsor(3)
    tau = (1, 0)  # arrow 0 -> 1 in the translation groupoid
    lift = lift_bisection(b, tau, 1, side="right")
    assert lift.intertwines
    assert lift.mapping == {1: 0, 4: 3}
    # dual intertwining: alpha o lift^-1 = (germ of tau) o alpha
    inv_map = {v: k for k, v in lift.mapping.items()}
    for q, q2 in inv_map.items():
        assert b.alpha[q2] == xi.tgt[tau] and b.alpha[q] == xi.src[tau]


def test_lift_anchor_mismatch_raises():
    _, xi, b = double_cover_bitorsor(3)
    with pytest.raises(CatalogError):
        lift_bisection(b, (1, 0), 0, side="right")  # alpha(0)=0 != tgt=1


# -- weak equivalence pairs


def test_weak_equivalence_pair_a2():
    _, _, b = double_cover_bitorsor(3)
    pair = weak_equivalence_pair(b)
    assert len(pair.middle.objects) == 6
    # cartesian count: one middle arrow per (pair of carrier points, base arrow)
    expected = sum(
        len(b.alpha_fibre(b.right.src[t])) * len(b.alpha_fibre(b.right.tgt[t]))
        for t in b.right.arrows
    )
    assert len(pair.middle.arrows) == expected
    rep = pair.check()
    assert rep.ok, rep.render()


def test_weak_equivalence_pair_identity_z2():
    from orbikit.groupoids import FiniteGroup, group_groupoid

    G = group_groupoid(FiniteGroup.cyclic(2))
    pair = weak_equivalence_pair(identity_bitorsor(G))
    rep = pair.check()
    assert rep.ok, rep.render()


def test_weak_equivalence_pair_cech():
    G = cyclic_translation_groupoid(6, 3)
    cover = CechCover(((0, 1), (1, 2), (2, 0)))
    pair = weak_equivalence_pair(cech_bitorsor(G, cover))
    rep = pair.check()
    assert rep.ok, rep.render()


def test_middle_groupoid_is_a_valid_groupoid():
    from orbikit.groupoids import validate_groupoid

    _, _, b = double_cover_bitorsor(3)
    pair = weak_equivalence_pair(b)
    assert validate_groupoid(pair.middle).ok


# -- fibre partitions


def test_fibre_partition_a2_n3():
    _, _, b = double_cover_bitorsor(3)
    for y in b.right.objects:
        rep = fibre_partition_report(b, y)
        assert rep.isotropy_rank == 2
        assert rep.block_sizes == [2]
        assert rep.rho_constant_on_blocks
        assert rep.left_ranks_match
        assert rep.ok()
    rep0 = fibre_partition_report(b, 0)
    assert sorted(rep0.blocks[0]) == [0, 3]


def test_fibre_partition_a2_n5():
    _, _, b = double_cover_bitorsor(5)
    rep = fibre_partition_report(b, 2)
    assert sorted(rep.blocks[0]) == [2, 7]
    assert rep.ok()


def test_fibre_partition_identity_bitorsor():
    G = cyclic_translation_groupoid(6, 3)
    b = identity_bitorsor(G)
    for y in G.objects:
        rep = fibre_partition_report(b, y)
        assert all(s == rep.isotropy_rank for s in rep.block_sizes)
        assert rep.ok()


def test_unknown_fibre_object_raises():
    _, _, b = double_cover_bitorsor(3)
    with pytest.raises(KeyError):
        fibre_partition_report(b, 99)


# -- the covering family


def test_quotient_covering_accepts_free_rotations():
    cov = QuotientCovering.of(rotation_groupoid(2, FourierCircle(mode_cutoff=8)))
    assert cov.degree == 2
    assert cov.downstairs.circumference == pytest.approx(3.141592653589793)


def test_quotient_covering_rejects_non_free():
    G = rotation_groupoid(4, FourierCircle(), through="1/2")
    with pytest.raises(CatalogError):
        QuotientCovering.of(G)


def test_quotient_covering_rejects_torus():
    from orbikit.groupoids import negation_torus_groupoid
    from orbikit.bases import FourierTorus

    with pytest.raises(CatalogError):
        QuotientCovering.of(negation_torus_groupoid(FourierTorus()))


def test_deck_elements():
    cov = QuotientCovering.of(rotation_groupoid(4, FourierCircle()))
    g = cov.deck_element(1, 3)
    assert cov.upstairs.iso[g].turns == pytest.approx(0.5)


def test_two_morphism_search_time_box(monkeypatch):
    monkeypatch.setattr(morita, "TWO_MORPHISM_NODE_CAP", 0)
    _, _, b = double_cover_bitorsor(3)
    assert find_two_morphism(b, b) is INCONCLUSIVE
