from fractions import Fraction

import pytest

from orbikit.bases import CatalogError, FourierCircle, FourierTorus
from orbikit.groupoids import (
    CechCover,
    CircleArc,
    FiniteGroup,
    FiniteGroupoid,
    cech_groupoid,
    cyclic_translation_groupoid,
    germ_of,
    group_groupoid,
    is_effective,
    isotropy,
    negation_torus_groupoid,
    orbits,
    rotation_groupoid,
    trivial_cover,
    unit_groupoid,
    validate_cover,
    validate_groupoid,
)


def z2_point():
    return group_groupoid(FiniteGroup.cyclic(2))


def z6z3():
    return cyclic_translation_groupoid(6, 3)


def test_group_groupoid_valid():
    assert validate_groupoid(z2_point()).ok


@pytest.mark.parametrize("order, n_points", [(2, 3), (6, 4), (6, 0), (3, -1)])
def test_translation_groupoid_needs_n_dividing_order(order, n_points):
    # y + a mod n is a Z_order action only when n divides the order
    with pytest.raises(CatalogError):
        cyclic_translation_groupoid(order, n_points)


def test_translation_groupoid_valid_exhaustively():
    G = z6z3()
    assert len(G.arrows) == 18
    assert validate_groupoid(G).ok


def test_corrupted_table_is_reported_with_witness():
    G = z2_point()
    bad_cmp = dict(G.cmp)
    bad_cmp[(1, 1)] = 1  # should be the unit
    bad = FiniteGroupoid(
        objects=G.objects,
        arrows=G.arrows,
        src=G.src,
        tgt=G.tgt,
        cmp=bad_cmp,
        inv=G.inv,
        unit=G.unit,
        name="corrupted Z2",
    )
    rep = validate_groupoid(bad)
    assert not rep.ok
    assert any("1" in v for v in rep.violations)


def test_orbits_translation():
    part = orbits(z6z3())
    assert part.count == 1
    assert sorted(part.blocks[0]) == [0, 1, 2]


def test_orbits_unit_groupoid():
    part = orbits(unit_groupoid(("p", "q", "r")))
    assert part.count == 3
    assert all(len(b) == 1 for b in part.blocks)


def test_orbits_rotation_circle_transitive_on_grid():
    G = rotation_groupoid(2, FourierCircle(mode_cutoff=2))
    part = orbits(G)
    # pi rotation pairs up the 8 grid points
    assert part.count == 4
    G4 = rotation_groupoid(8, FourierCircle(mode_cutoff=2))
    assert orbits(G4).count == 1
    assert orbits(G4).note == "transitive on sampled points"


def test_isotropy_translation():
    iso = isotropy(z6z3(), 0)
    assert iso.rank == 2
    assert sorted(a for a, y in iso.arrows) == [0, 3]


def test_isotropy_group_point():
    assert isotropy(z2_point(), "*").rank == 2


def test_isotropy_torus_negation_fixed_point():
    G = negation_torus_groupoid(FourierTorus())
    iso = isotropy(G, (Fraction(0), Fraction(0)))
    assert iso.rank == 2
    # generic point is free
    assert isotropy(G, (Fraction(1, 16), Fraction(0))).rank == 1


def test_effectiveness_witnesses():
    eff, wit = is_effective(z2_point())
    assert not eff and set(wit) == {0, 1}
    eff, wit = is_effective(z6z3())
    assert not eff
    a, b = wit
    assert a[1] == b[1] and {a[0] % 3} == {b[0] % 3}
    eff, wit = is_effective(rotation_groupoid(2, FourierCircle()))
    assert eff and wit is None


def test_germs():
    G = z6z3()
    g = germ_of(G, (2, 1))
    assert g.source == 1 and g.data == 0  # 1 + 2 mod 3
    u = germ_of(G, (0, 2))
    assert u.data == 2
    R = rotation_groupoid(2, FourierCircle())
    grm = germ_of(R, (1, Fraction(0)))
    assert grm.data.turns == Fraction(1, 2)


def test_cech_trivial_cover_is_isomorphic_copy():
    G = z2_point()
    C = cech_groupoid(G, trivial_cover(G))
    assert len(C.objects) == 1 and len(C.arrows) == 2
    assert validate_groupoid(C).ok


def test_cech_three_sheets_counts():
    G = z6z3()
    cover = CechCover(((0, 1), (1, 2), (2, 0)))
    C = cech_groupoid(G, cover)
    assert len(C.objects) == 6
    expected = sum(
        1
        for s in G.arrows
        for a in range(3)
        for b in range(3)
        if G.tgt[s] in cover.sheet(a) and G.src[s] in cover.sheet(b)
    )
    assert len(C.arrows) == expected
    assert validate_groupoid(C).ok
    assert orbits(C).count == orbits(G).count


def test_cech_disjoint_cover_of_unit_groupoid():
    G = unit_groupoid(("p", "q"))
    C = cech_groupoid(G, CechCover((("p",), ("q",))))
    assert len(C.objects) == 2 and len(C.arrows) == 2
    assert validate_groupoid(C).ok


def test_cech_empty_sheet_rejected():
    G = z2_point()
    with pytest.raises(ValueError):
        cech_groupoid(G, CechCover(((), ("*",))))


def test_unit_laws_and_germ_of_units():
    G = z6z3()
    for x in G.objects:
        u = G.unit[x]
        assert G.src[u] == G.tgt[u] == x
        assert germ_of(G, u).data == x
    for a in G.arrows:
        assert G.src[G.inv[a]] == G.tgt[a]
        assert G.tgt[G.inv[a]] == G.src[a]


def test_symbolic_cech_on_circle():
    G = rotation_groupoid(2, FourierCircle(mode_cutoff=4))
    cover = CechCover(
        (
            CircleArc(Fraction(0), Fraction(5, 16)),
            CircleArc(Fraction(1, 2), Fraction(5, 16)),
        )
    )
    C = cech_groupoid(G, cover)
    # every group element appears on some sheet pair
    gs = {g for (g, a, b) in C.arrows}
    assert gs == {0, 1}
    for arrow in C.arrows:
        assert C.domain(arrow)


def test_action_groupoid_homomorphism_violation():
    G = rotation_groupoid(4, FourierCircle())
    bad = dict(G.iso)
    bad[2] = G.iso[1]
    from orbikit.groupoids import ActionGroupoid

    H = ActionGroupoid(G.group, G.base, bad, name="broken")
    rep = validate_groupoid(H)
    assert not rep.ok


def test_circle_cover_is_decided_on_exact_arcs():
    G = rotation_groupoid(2, FourierCircle(mode_cutoff=8))  # 32 sample points
    # (-65/256, 65/256) and (67/256, 193/256) leave [65/256, 67/256], which holds no k/32
    gap = CechCover((CircleArc(0, Fraction(65, 256)), CircleArc(Fraction(130, 256), Fraction(63, 256))))
    rep = validate_cover(G, gap)
    assert rep.violations == [f"point {Fraction(66, 256)} not covered"]
    assert not any(gap.sheets_containing(Fraction(66, 256)))
    # open arcs that only touch leave their common endpoints uncovered
    touching = CechCover((CircleArc(Fraction(1, 4), Fraction(1, 4)), CircleArc(Fraction(3, 4), Fraction(1, 4))))
    assert validate_cover(G, touching).violations == ["point 0 not covered", "point 1/2 not covered"]
    overlapping = CechCover((CircleArc(Fraction(1, 4), Fraction(1, 4)), CircleArc(Fraction(3, 4), Fraction(65, 256))))
    assert validate_cover(G, overlapping).ok
    whole_but_one = CechCover((CircleArc(0, Fraction(1, 2)),))
    assert validate_cover(G, whole_but_one).violations == ["point 1/2 not covered"]
    assert validate_cover(G, CechCover(())).violations == ["point 0 not covered"]
    with pytest.raises(ValueError, match="not covered"):
        cech_groupoid(G, gap)


def grid_cech(G, cover, n):
    """Arrows and composable pairs decided on the sample points k/n."""
    pts = [Fraction(k, n) for k in range(n)]
    group, idx = G.group, cover.indices()

    dom = {
        (g, a, b): [t for t in pts if cover.member(b, t) and cover.member(a, G.apply(g, t))]
        for g in group.elements for a in idx for b in idx
    }
    arrows = [arrow for arrow, points in dom.items() if points]
    pairs = [
        ((g1, a1, b1), (g2, a2, b2), (group.mul(g1, g2), a1, b2))
        for (g1, a1, b1) in arrows for (g2, a2, b2) in arrows
        if b1 == a2 and any(cover.member(a1, G.apply(group.mul(g1, g2), t)) for t in dom[g2, a2, b2])
    ]
    return arrows, pairs


def test_cech_arrows_are_decided_on_exact_arcs():
    G = rotation_groupoid(2, FourierCircle(mode_cutoff=8))  # 32 sample points
    quarter = Fraction(1, 4)
    # sheets 0 and 1 meet on (15/64, 1/4), which holds no point k/32
    cover = CechCover(tuple(CircleArc(c, quarter) for c in (0, Fraction(31, 64), Fraction(1, 2), Fraction(3, 4))))
    C = cech_groupoid(G, cover)
    assert {(0, 0, 1), (0, 1, 0)} <= set(C.arrows)
    assert C.domain((0, 0, 1)) == [CircleArc(Fraction(31, 128), Fraction(1, 128))]
    # every arc end is a multiple of 1/64, so the points k/128 fall inside
    # every overlap: sampled on them, the groupoid is the exact one
    arrows, pairs = grid_cech(G, cover, 128)
    assert list(C.arrows) == arrows
    assert list(C.composable_pairs()) == pairs
    # the 32 sample points of the base's own grid miss the narrow overlaps
    coarse = set(grid_cech(G, cover, 32)[0])
    assert coarse < set(arrows) and coarse.isdisjoint({(0, 0, 1), (0, 1, 0)})


def test_cech_composable_pairs_need_a_triple_overlap():
    G = rotation_groupoid(3, FourierCircle(mode_cutoff=8))
    # pairwise overlapping arcs with no point common to all three
    cover = CechCover(tuple(CircleArc(Fraction(k, 3), Fraction(1, 4)) for k in range(3)))
    C = cech_groupoid(G, cover)
    pairs = list(C.composable_pairs())
    assert ((0, 0, 1), (0, 1, 2), (0, 0, 2)) not in pairs
    assert ((0, 0, 1), (0, 1, 1), (0, 0, 1)) in pairs
    assert pairs == grid_cech(G, cover, 24)[1]  # arc ends and rotations are multiples of 1/12


def test_arc_overlap_is_exact_and_wraps():
    half = Fraction(1, 2)
    assert CircleArc(0, half).overlap(CircleArc(half, half)) == [
        CircleArc(Fraction(3, 4), Fraction(1, 4)), CircleArc(Fraction(1, 4), Fraction(1, 4))]
    # arcs that only touch share no point
    assert CircleArc(Fraction(1, 4), Fraction(1, 4)).overlap(CircleArc(Fraction(3, 4), Fraction(1, 4))) == []
    assert CircleArc(Fraction(9, 10), Fraction(1, 5)).overlap(CircleArc(Fraction(1, 20), Fraction(1, 10))) == [
        CircleArc(Fraction(1, 40), Fraction(3, 40))]


@pytest.mark.parametrize("m", [2, 4])
def test_trivial_circle_cover_is_a_valid_cover(m):
    G = rotation_groupoid(m, FourierCircle(mode_cutoff=8))
    cover = trivial_cover(G)
    assert validate_cover(G, cover).ok
    C = cech_groupoid(G, cover)
    # every sheet meets every rotated sheet
    assert set(C.arrows) == {(g, a, b) for g in G.group.elements for a in (0, 1) for b in (0, 1)}


def test_cech_localization_of_an_action_groupoid_needs_a_circle():
    from orbikit.groupoids import CechActionGroupoid

    G = negation_torus_groupoid(FourierTorus(mode_cutoff=4))
    with pytest.raises(CatalogError, match="circle"):
        CechActionGroupoid(G, CechCover((CircleArc(0, Fraction(1, 2)),)))
