"""Bitorsors that hold integer actions, against the label-loop constructors they replace.

The references build each bitorsor's actions as label dicts, as the
constructors did before the actions became int arrays: ``identity_bitorsor``
through composite labels, ``inverse_bitorsor`` and ``localize_cech`` by
nested label scans, ``double_cover_bitorsor`` and ``cech_bitorsor`` by dict
comprehensions, and ``compose_homs`` by its label closure
(``test_span_arrays.ref_compose_homs``).  Every array-built bitorsor's label
views must equal them.
"""

from dataclasses import replace

import numpy as np
import pytest

from orbikit.cocycles import default_sections, induce_cocycle, induced_bundle, reconstruct_bundle, sign_cocycle
from orbikit.groupoids import (
    CechCover,
    FiniteGroup,
    cech_groupoid,
    composable_index,
    cyclic_translation_groupoid,
    group_groupoid,
    trivial_cover,
)
from orbikit.morita import (
    Bitorsor,
    cech_bitorsor,
    compose_homs,
    double_cover_bitorsor,
    find_two_morphism,
    identity_bitorsor,
    inverse_bitorsor,
    localize_cech,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from test_span_arrays import ref_compose_homs
from test_table import bitorsor_cases, ref_validate_generalized_hom

COVER = CechCover(((0, 1), (1, 2), (2, 0)))


# ---------------------------------------------------------------------------
# references


def ref_composite_labels(G, later, earlier):
    result = G.compose_ids(later, earlier)
    arrows = G.arrows
    values = [arrows[i] for i in result.tolist()]
    for i in np.flatnonzero(result < 0).tolist():
        values[i] = G.cmp[(arrows[later[i]], arrows[earlier[i]])]
    pairs = zip(map(arrows.__getitem__, later.tolist()), map(arrows.__getitem__, earlier.tolist()))
    return dict(zip(pairs, values))


def ref_identity_bitorsor(G):
    _, src, tgt = G.endpoint_ids
    q, s = composable_index(tgt, src)
    later, earlier, _ = G.composites
    return dict(carrier=tuple(G.arrows), rho=dict(G.tgt), alpha=dict(G.src),
                left_act=ref_composite_labels(G, s, q), right_act=ref_composite_labels(G, later, earlier))


def ref_inverse_bitorsor(b):
    left_act = {
        (t, q): b.right_act[(q, b.right.inv[t])]
        for q in b.carrier
        for t in b.right.arrows
        if (q, b.right.inv[t]) in b.right_act
    }
    right_act = {
        (q, s): b.left_act[(b.left.inv[s], q)]
        for q in b.carrier
        for s in b.left.arrows
        if (b.left.inv[s], q) in b.left_act
    }
    return dict(carrier=b.carrier, rho=dict(b.alpha), alpha=dict(b.rho), left_act=left_act, right_act=right_act)


def ref_localize_cech(b, cover_x, cover_y):
    cech_x, cech_y = cech_groupoid(b.left, cover_x), cech_groupoid(b.right, cover_y)
    carrier = tuple(
        (q, a, i)
        for q in b.carrier
        for a in cover_x.indices()
        for i in cover_y.indices()
        if cover_x.member(a, b.rho[q]) and cover_y.member(i, b.alpha[q])
    )
    left_act = {}
    for (s, a, bb) in cech_x.arrows:
        for (q, c, i) in carrier:
            if c == bb and (s, q) in b.left_act:
                left_act[((s, a, bb), (q, c, i))] = (b.left_act[(s, q)], a, i)
    right_act = {}
    for (q, a, i) in carrier:
        for (t, ii, j) in cech_y.arrows:
            if ii == i and (q, t) in b.right_act:
                right_act[((q, a, i), (t, ii, j))] = (b.right_act[(q, t)], a, j)
    return dict(carrier=carrier, rho={(q, a, i): (b.rho[q], a) for (q, a, i) in carrier},
                alpha={(q, a, i): (b.alpha[q], i) for (q, a, i) in carrier}, left_act=left_act, right_act=right_act)


def ref_double_cover_bitorsor(N):
    xi = cyclic_translation_groupoid(2 * N, N)
    carrier = tuple(range(2 * N))
    left_act = {(s, q): (q + s * N) % (2 * N) for q in carrier for s in (0, 1)}
    right_act = {(q, (a, y)): (q - a) % (2 * N) for q in carrier for (a, y) in xi.arrows_into(q % N)}
    return dict(carrier=carrier, rho={q: "*" for q in carrier}, alpha={q: q % N for q in carrier},
                left_act=left_act, right_act=right_act)


def ref_cech_bitorsor(G, cover):
    cech = cech_groupoid(G, cover)
    carrier = tuple((s, a) for s in G.arrows for a in cover.indices() if cover.member(a, G.src[s]))
    alpha = {(s, a): (G.src[s], a) for (s, a) in carrier}
    left_act = {(r, (s, a)): (G.compose(r, s), a) for (s, a) in carrier for r in G.arrows_from(G.tgt[s])}
    right_act = {
        ((s, a), (t, aa, bb)): (G.compose(s, t), bb)
        for (s, a) in carrier
        for (t, aa, bb) in cech.arrows_into(alpha[(s, a)])
    }
    return dict(carrier=carrier, rho={(s, a): G.tgt[s] for (s, a) in carrier}, alpha=alpha,
                left_act=left_act, right_act=right_act)


def fields(b):
    return dict(carrier=b.carrier, rho=b.rho, alpha=b.alpha, left_act=b.left_act, right_act=b.right_act)


def assert_same(b, ref):
    mine = fields(b)
    for name in ref:
        assert mine[name] == ref[name], name
    assert b.left_act == ref["left_act"] and b.right_act == ref["right_act"]


# ---------------------------------------------------------------------------
# the inputs: a2 at N = 1, 2, 5, and the Cech bitorsor of Z6xZ3 with its localization


def halves(N):
    """Two overlapping sheets over Z_N, or the trivial cover when N is 1."""
    if N == 1:
        return CechCover((tuple(range(N)),))
    return CechCover((tuple(range(N // 2 + 1)), tuple(range(N // 2, N)) + (0,)))


def inputs():
    out = {}
    for N in (1, 2, 5):
        theta, xi, b = double_cover_bitorsor(N)
        out[f"a2 N={N}"] = (b, trivial_cover(theta), halves(N))
    G = cyclic_translation_groupoid(6, 3)
    cb = cech_bitorsor(G, COVER)
    out["Cech(Z6xZ3)"] = (cb, COVER, trivial_cover(cb.right))
    loc = localize_cech(cb, COVER, trivial_cover(cb.right))[0]
    out["Cech(Z6xZ3) localized"] = (loc, trivial_cover(loc.left), trivial_cover(loc.right))
    return out


NAMES = ["a2 N=1", "a2 N=2", "a2 N=5", "Cech(Z6xZ3)", "Cech(Z6xZ3) localized"]


@pytest.mark.parametrize("N", [1, 2, 5])
def test_double_cover_matches_its_dicts(N):
    assert_same(double_cover_bitorsor(N)[2], ref_double_cover_bitorsor(N))


def test_cech_bitorsor_matches_its_dicts():
    G = cyclic_translation_groupoid(6, 3)
    assert_same(cech_bitorsor(G, COVER), ref_cech_bitorsor(G, COVER))


@pytest.mark.parametrize("name", NAMES)
def test_constructions_match_the_label_loops(name):
    b, cover_x, cover_y = inputs()[name]
    for G in (b.left, b.right):
        assert_same(identity_bitorsor(G), ref_identity_bitorsor(G))
    assert_same(inverse_bitorsor(b), ref_inverse_bitorsor(b))
    assert_same(localize_cech(b, cover_x, cover_y)[0], ref_localize_cech(b, cover_x, cover_y))
    for b1, b2 in ((b, inverse_bitorsor(b)), (inverse_bitorsor(b), b), (b, identity_bitorsor(b.right))):
        composite, ref = compose_homs(b1, b2), ref_compose_homs(b1, b2)
        assert_same(composite, ref)
        assert validate_generalized_hom(composite).ok


@pytest.mark.parametrize("name", NAMES)
def test_label_views_are_lazy_and_read_only(name):
    b = inputs()[name][0]
    assert len(b.left_act) == len(dict(b.left_act.items())) and "_dict" in vars(b.left_act)
    assert "_dict" not in vars(b.right_act) and len(b.right_act) == int((b.right_ids[:-1, :-1] >= 0).sum())
    with pytest.raises(TypeError):
        b.right_act[next(iter(b.right_act))] = b.carrier[0]


# ---------------------------------------------------------------------------
# dataclasses.replace


def reordered(G):
    """G with its arrows listed backwards; its table is derived again from the label cmp."""
    return replace(G, arrows=G.arrows[::-1], cmp=dict(G.cmp))


@pytest.mark.parametrize("case", ["sound", "broken commutativity", "wrong anchors", "Cech stray left entry"])
def test_replace_with_reordered_arrows_rederives_the_arrays(case):
    b = double_cover_bitorsor(3)[2] if case == "sound" else bitorsor_cases()[case]
    H = reordered(b.right)
    moved = replace(b, right=H)
    assert moved.right_act == b.right_act and moved.left_act == b.left_act
    assert moved.right_ids.shape == b.right_ids.shape and not np.array_equal(moved.right_ids, b.right_ids)
    found = validate_generalized_hom(moved).violations
    assert found == ref_validate_generalized_hom(moved)
    assert sorted(found) == sorted(validate_generalized_hom(b).violations)
    assert bool(found) == (case != "sound")


def test_replace_with_the_same_arrows_lends_the_arrays():
    theta, xi, b = double_cover_bitorsor(3)
    same = replace(xi)  # another groupoid, the same arrows in the same order
    moved = replace(b, right=same)
    assert moved.right_ids is b.right_ids and moved.left_ids is b.left_ids
    assert "_dict" not in vars(b.right_act)
    shifted = replace(b, carrier=b.carrier[1:] + b.carrier[:1])
    assert shifted.right_act == b.right_act and shifted.right_ids is not b.right_ids
    assert validate_generalized_hom(shifted).ok


def test_given_dicts_stay_the_views():
    b = double_cover_bitorsor(3)[2]
    left, right = dict(b.left_act), {**b.right_act, ("stray", "pair"): 0}
    given = Bitorsor(b.left, b.right, b.carrier, b.rho, b.alpha, left, right)
    assert given.left_act == left and given.right_act[("stray", "pair")] == 0
    assert np.array_equal(given.left_ids, b.left_ids) and np.array_equal(given.right_ids, b.right_ids)


# ---------------------------------------------------------------------------
# the integer readers build no label action dict


def views(*bitorsors):
    return [act for b in bitorsors for act in (b.left_act, b.right_act)]


def test_integer_readers_build_no_label_dict():
    theta, xi, b = double_cover_bitorsor(4)
    cb = cech_bitorsor(cyclic_translation_groupoid(6, 3), COVER)
    ident, inv = identity_bitorsor(xi), inverse_bitorsor(b)
    loc, cx, cy = localize_cech(b, trivial_cover(theta), trivial_cover(xi))
    composite, unit = compose_homs(b, inv), identity_bitorsor(theta)
    built = [b, cb, ident, inv, loc, composite, unit, compose_homs(b, ident)]
    assert validate_generalized_hom(b).ok and validate_generalized_hom(composite).ok
    assert weak_equivalence_pair(b).check().ok and weak_equivalence_pair(cb).check().ok
    assert find_two_morphism(composite, unit) is not None
    sign = sign_cocycle(cx, lambda a: -1 if a[0] == 1 else 1)
    induce_cocycle(loc, sign, default_sections(loc))
    induced_bundle(b, reconstruct_bundle(sign_cocycle(theta, lambda a: -1 if a == 1 else 1)))
    assert not [act for act in views(*built) if "_dict" in vars(act)]


def test_the_guard_sees_a_label_read():
    b = double_cover_bitorsor(2)[2]
    dict(b.left_act)
    assert "_dict" in vars(b.left_act) and "_dict" not in vars(b.right_act)


def test_group_groupoid_identity_matches():
    G = group_groupoid(FiniteGroup.cyclic(4))
    assert_same(identity_bitorsor(G), ref_identity_bitorsor(G))


@pytest.mark.parametrize("name", NAMES)
def test_span_hands_the_middle_what_it_computed(name):
    """The middle's endpoint ids and composites, and each projection's images,
    equal what a groupoid and morphisms built afresh from the labels compute."""
    pair = weak_equivalence_pair(inputs()[name][0])
    M, fresh = pair.middle, replace(pair.middle)
    assert "endpoint_ids" in vars(M) and "endpoint_ids" not in vars(fresh)
    assert M.endpoint_ids[0] == fresh.endpoint_ids[0]
    for mine, ref in zip((*M.endpoint_ids[1:], *M.composites), (*fresh.endpoint_ids[1:], *fresh.composites)):
        assert np.array_equal(mine, ref)
    for mor in (pair.to_left, pair.to_right):
        assert mor.given is not None and replace(mor).given is None
        for mine, ref in zip(mor._images(), replace(mor)._images()):
            assert np.array_equal(mine, ref)
