"""Slot-grid composition, the span and bitorsor composition against label-loop references.

The references are the code these array paths replace: the sorted search
of ``compose_ids`` over the table's pair keys, and the label loops of
``weak_equivalence_pair``, ``StrictMorphism.check_functor`` and
``check_weak_equivalence``, ``compose_homs`` and ``identity_bitorsor``.
"""

from dataclasses import replace

import numpy as np
import pytest

from orbikit.bases import CatalogError
from orbikit.groupoids import (
    CechCover,
    FiniteGroup,
    cech_groupoid,
    cyclic_translation_groupoid,
    finite_action_groupoid,
    group_groupoid,
    trivial_cover,
    unit_groupoid,
)
from orbikit.morita import (
    StrictMorphism,
    cech_bitorsor,
    compose_homs,
    double_cover_bitorsor,
    identity_bitorsor,
    inverse_bitorsor,
    localize_cech,
    weak_equivalence_pair,
)

COVER = CechCover(((0, 1), (1, 2), (2, 0)))


# ---------------------------------------------------------------------------
# references


def ref_compose_ids(G, later, earlier):
    """The sorted search over ``later * n + earlier`` keys of the table."""
    table, n = G.table, len(G.arrows)
    if not len(table):
        return np.full(later.shape, -1, dtype=np.int64)
    keys = table[:, 0] * n + table[:, 1]
    wanted = later * n + earlier
    pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
    found = (keys[pos] == wanted) & (later >= 0) & (earlier >= 0)
    return np.where(found, table[pos, 2], -1)


def ref_identity_bitorsor(G):
    carrier = tuple(G.arrows)
    return dict(
        carrier=carrier,
        rho=dict(G.tgt),
        alpha=dict(G.src),
        left_act={(s, q): G.compose(s, q) for q in carrier for s in G.arrows_from(G.tgt[q])},
        right_act={(q, t): G.compose(q, t) for q in carrier for t in G.arrows_into(G.src[q])},
    )


def ref_compose_homs(b1, b2):
    """Each pair closed under the middle action by a stack walk over every middle arrow."""
    mid = b1.right
    pairs = [(q1, q2) for q1 in b1.carrier for q2 in b2.rho_fibre(b1.alpha[q1])]
    cls_of = {}
    classes = []
    for p in pairs:
        if p in cls_of:
            continue
        block = {p}
        stack = [p]
        while stack:
            (q1, q2) = stack.pop()
            for s in mid.arrows:
                if (q1, s) in b1.right_act and (mid.inv[s], q2) in b2.left_act:
                    nxt = (b1.right_act[(q1, s)], b2.left_act[(mid.inv[s], q2)])
                    if nxt not in block:
                        block.add(nxt)
                        stack.append(nxt)
        block = frozenset(block)
        classes.append(block)
        for m in block:
            cls_of[m] = block
    carrier = tuple(sorted(classes, key=lambda c: sorted(map(repr, c))))
    rho = {c: b1.rho[next(iter(c))[0]] for c in carrier}
    alpha = {c: b2.alpha[next(iter(c))[1]] for c in carrier}
    for c in carrier:
        for (q1, q2) in c:
            if b1.rho[q1] != rho[c] or b2.alpha[q2] != alpha[c]:
                raise CatalogError("composite anchors are not class invariants")
    left_act = {}
    right_act = {}
    for c in carrier:
        q1, q2 = next(iter(c))
        for s in b1.left.arrows:
            if (s, q1) in b1.left_act:
                left_act[(s, c)] = cls_of[(b1.left_act[(s, q1)], q2)]
        for t in b2.right.arrows:
            if (q2, t) in b2.right_act:
                right_act[(c, t)] = cls_of[(q1, b2.right_act[(q2, t)])]
    return dict(carrier=carrier, rho=rho, alpha=alpha, left_act=left_act, right_act=right_act)


def ref_middle(b):
    """The span's middle by its label rule: arrows, ends, inverses, units and ``cmp``."""
    L, R = b.left, b.right
    arrows = tuple(
        (s, q, t)
        for q in b.carrier
        for s in L.arrows
        if (s, q) in b.left_act
        for t in R.arrows_into(b.alpha[q])
    )
    src = {a: a[1] for a in arrows}
    tgt = {(s, q, t): b.right_act[(b.left_act[(s, q)], t)] for s, q, t in arrows}
    into = {}
    for a in arrows:
        into.setdefault(tgt[a], []).append(a)
    cmp = {
        (a2, a1): (L.cmp[(a2[0], a1[0])], a1[1], R.cmp[(a1[2], a2[2])])
        for a2 in arrows
        for a1 in into.get(src[a2], ())
    }
    return dict(
        arrows=arrows,
        src=src,
        tgt=tgt,
        inv={(s, q, t): (L.inv[s], tgt[(s, q, t)], R.inv[t]) for s, q, t in arrows},
        unit={q: (L.unit[b.rho[q]], q, R.unit[b.alpha[q]]) for q in b.carrier},
        cmp=cmp,
        left_map={a: a[0] for a in arrows},
        right_map={a: R.inv[a[2]] for a in arrows},
    )


def ref_check_functor(mor):
    S, T = mor.source, mor.target
    out = []
    for a in S.arrows:
        img = mor.arr_map.get(a)
        if img is None:
            out.append(f"totality: no image for arrow {a!r}")
            continue
        if T.src[img] != mor.obj_map[S.src[a]] or T.tgt[img] != mor.obj_map[S.tgt[a]]:
            out.append(f"endpoints: image of {a!r} has wrong endpoints")
    for tau, sigma in S.composable_pairs():
        lhs = mor.arr_map.get(S.cmp.get((tau, sigma)))
        rhs = T.cmp.get((mor.arr_map.get(tau), mor.arr_map.get(sigma)))
        if lhs is None or lhs != rhs:
            out.append(f"functoriality: ({tau!r},{sigma!r})")
    for x in S.objects:
        if mor.arr_map.get(S.unit[x]) != T.unit[mor.obj_map[x]]:
            out.append(f"units: image of unit at {x!r} is not a unit")
    return out


def ref_check_weak_equivalence(mor):
    out = ref_check_functor(mor)
    S, T = mor.source, mor.target
    if set(mor.obj_map[x] for x in S.objects) != set(T.objects):
        out.append("weak equivalence: object map is not surjective")
    for q in S.objects:
        for q2 in S.objects:
            here = S.arrows_between(q, q2)
            there = T.arrows_between(mor.obj_map[q], mor.obj_map[q2])
            images = [mor.arr_map.get(a) for a in here]
            if len(images) != len(there) or set(images) != set(there) or len(set(images)) != len(images):
                out.append(f"cartesian: arrows {q!r}->{q2!r} do not match the base arrows")
    return out


def bitorsor_fields(b):
    return dict(
        carrier=b.carrier, rho=b.rho, alpha=b.alpha, left_act=b.left_act, right_act=b.right_act
    )


def assert_same_fields(mine, ref):
    """Equal tuples and dicts, with the same order of carrier points and of dict keys."""
    assert mine.keys() == ref.keys()
    for name in ref:
        if isinstance(ref[name], dict):
            assert list(mine[name].items()) == list(ref[name].items()), name
        else:
            assert mine[name] == ref[name], name


# ---------------------------------------------------------------------------
# compose_ids: a slot-grid gather on every table, malformed ones included


def s3_groupoid():
    """S3 acting on three points by permutation: a non-abelian action groupoid."""
    els = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1))
    table = {(g, h): tuple(g[h[i]] for i in range(3)) for g in els for h in els}
    return finite_action_groupoid(FiniteGroup(els, table, els[0]), range(3), lambda g, x: g[x])


def valid_groupoids():
    G = cyclic_translation_groupoid(6, 3)
    return {
        "Z6xZ3": G,
        "Z12xZ4": cyclic_translation_groupoid(12, 4),
        "S3 on 3 points": s3_groupoid(),
        "group Z5": group_groupoid(FiniteGroup.cyclic(5)),
        "unit": unit_groupoid(range(4)),
        "Cech(Z6xZ3)": cech_groupoid(G, COVER),
        "Cech(S3)": cech_groupoid(s3_groupoid(), CechCover(((0, 1), (1, 2), (0, 2)))),
        "middle(a2 N=4)": weak_equivalence_pair(double_cover_bitorsor(4)[2]).middle,
    }


def malformed_groupoids(rng):
    """Each valid groupoid with pairs dropped, non-composable rows added and a stray result."""
    out = {}
    for name, G in valid_groupoids().items():
        cmp = dict(G.cmp)
        keys = list(cmp)
        for i in rng.choice(len(keys), size=max(1, len(keys) // 7), replace=False):
            del cmp[keys[i]]
        odd = [(t, s) for t in G.arrows for s in G.arrows if G.src[t] != G.tgt[s]]
        if odd:
            for i in rng.choice(len(odd), size=min(len(odd), 5), replace=False):
                cmp[odd[i]] = G.arrows[int(rng.integers(len(G.arrows)))]
        cmp[next(iter(cmp))] = "stray"
        out[f"malformed {name}"] = replace(G, cmp=cmp)
    return out


def every_query(G, rng):
    """Every ordered pair of arrow indices, plus negative and random ones, shuffled."""
    n = len(G.arrows)
    later, earlier = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    extra = rng.integers(-3, n, size=(2, 200))
    later, earlier = np.concatenate([later, extra[0], [-1, 0, -2]]), np.concatenate([earlier, extra[1], [0, -1, -2]])
    order = rng.permutation(len(later))
    return later[order], earlier[order]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compose_ids_matches_the_sorted_search(seed):
    rng = np.random.default_rng(seed)
    groupoids = {**valid_groupoids(), **malformed_groupoids(rng)}
    for name, G in groupoids.items():
        later, earlier = every_query(G, rng)
        assert np.array_equal(G.compose_ids(later, earlier), ref_compose_ids(G, later, earlier)), name
        # the composites of every composable pair come from the grid
        tau, sigma, result = G.composites
        assert np.array_equal(result, ref_compose_ids(G, tau, sigma)), name
    assert any((G.table[:, 2] < 0).any() for G in groupoids.values())


def test_compose_ids_follows_writes_into_the_table():
    G = cyclic_translation_groupoid(6, 3)
    later, earlier = every_query(G, np.random.default_rng(3))
    G.compose_ids(later, earlier)  # builds the grid of the first table
    non_composable = next((t, s) for t in G.arrows for s in G.arrows if G.src[t] != G.tgt[s])
    G.cmp[non_composable] = G.arrows[1]
    del G.cmp[(G.arrows[0], G.arrows[0])]
    assert np.array_equal(G.compose_ids(later, earlier), ref_compose_ids(G, later, earlier))
    i, j = (G.arrow_index[a] for a in non_composable)
    assert G.compose_ids(np.array([i, 0]), np.array([j, 0])).tolist() == [1, -1]


def test_empty_table_composes_nothing():
    G = replace(group_groupoid(FiniteGroup.cyclic(3)), cmp={})
    assert G.compose_ids(np.array([0, 1, -1]), np.array([0, 2, 0])).tolist() == [-1, -1, -1]
    # a groupoid with no arrows answers a missing arrow, as a check of a map into it asks
    bare = replace(unit_groupoid([0]), arrows=(), cmp={})
    assert bare.compose_ids(np.array([-1, -1]), np.array([-1, -1])).tolist() == [-1, -1]


# ---------------------------------------------------------------------------
# the span


def span_bitorsors():
    G = cyclic_translation_groupoid(6, 3)
    out = {f"a2 N={N}": double_cover_bitorsor(N)[2] for N in (1, 3, 5)}
    out["Cech(Z6xZ3)"] = cech_bitorsor(G, COVER)
    out["id(S3)"] = identity_bitorsor(s3_groupoid())
    return out


@pytest.mark.parametrize("name", ["a2 N=1", "a2 N=3", "a2 N=5", "Cech(Z6xZ3)", "id(S3)"])
def test_weak_equivalence_pair_matches_the_label_rule(name):
    b = span_bitorsors()[name]
    pair, ref = weak_equivalence_pair(b), ref_middle(b)
    M = pair.middle
    assert M.arrows == ref["arrows"] and M.objects == b.carrier
    for field in ("src", "tgt", "inv", "unit", "cmp"):
        assert list(getattr(M, field).items()) == list(ref[field].items()), field
    assert list(pair.to_left.arr_map.items()) == list(ref["left_map"].items())
    assert list(pair.to_right.arr_map.items()) == list(ref["right_map"].items())
    assert pair.check().ok
    # the label hom-set index is built only when read
    assert not {"_hom", "_out", "_into"} & set(vars(M))


def test_weak_equivalence_pair_of_a_broken_action_raises_as_the_label_rule():
    b = double_cover_bitorsor(3)[2]
    key = next(iter(b.right_act))
    broken = replace(b, right_act={k: v for k, v in b.right_act.items() if k != key})
    with pytest.raises(KeyError) as mine:
        weak_equivalence_pair(broken)
    with pytest.raises(KeyError) as ref:
        ref_middle(broken)
    assert mine.value.args == ref.value.args == (key,)
    L = b.left
    stray = replace(L, cmp={**L.cmp, (1, 1): "stray"})
    with pytest.raises(CatalogError, match=r"middle composite of \(\(1, 0, \(0, 0\)\),\(1, 0, \(3, 0\)\)\)"):
        weak_equivalence_pair(replace(b, left=stray))


def mutated_spans():
    """Strict morphisms of the a2 N=3 span, each broken in one way."""
    pair = weak_equivalence_pair(double_cover_bitorsor(3)[2])
    M, left, right = pair.middle, pair.to_left, pair.to_right
    a = M.arrows[7]
    # two arrows between the same carrier points with one image
    b = next(x for x in M.arrows_between(M.src[a], M.tgt[a]) if x != a)
    other = next(t for t in right.target.arrows if right.arr_map[a] != t
                 and right.target.src[t] == right.target.src[right.arr_map[a]])
    unit = M.unit[M.objects[2]]
    moved = {**right.obj_map, M.objects[0]: right.obj_map[M.objects[1]]}
    collapsed = {q: right.target.objects[0] for q in M.objects}
    # one more base arrow 0 -> 1 than there are arrows between the carrier points over them
    T = right.target
    extra = replace(T, arrows=(*T.arrows, "extra"), src={**T.src, "extra": 0}, tgt={**T.tgt, "extra": 1})
    return {
        "sound left": left,
        "sound right": right,
        "missing image": replace(right, arr_map={k: v for k, v in right.arr_map.items() if k != a}),
        "wrong endpoints": replace(right, arr_map={**right.arr_map, a: other}),
        "duplicated image": replace(right, arr_map={**right.arr_map, b: right.arr_map[a]}),
        "broken unit": replace(left, arr_map={**left.arr_map, unit: 1}),
        "moved object": replace(right, obj_map=moved),
        "non-surjective object map": replace(right, obj_map=collapsed),
        "extra base arrow": replace(right, target=extra),
        "object outside the target": replace(left, obj_map={**left.obj_map, M.objects[3]: "nowhere"}),
    }


@pytest.mark.parametrize("case", [c for c in mutated_spans() if c != "object outside the target"])
def test_span_checks_match_the_label_loops(case):
    mor = mutated_spans()[case]
    assert mor.check_functor().violations == ref_check_functor(mor)
    found = mor.check_weak_equivalence().violations
    assert found == ref_check_weak_equivalence(mor)
    assert bool(found) == (not case.startswith("sound"))


def test_object_outside_the_target_raises_as_the_label_loop():
    mor = mutated_spans()["object outside the target"]
    for check in (mor.check_functor, mor.check_weak_equivalence, lambda: ref_check_functor(mor)):
        with pytest.raises(KeyError, match="nowhere"):
            check()


def test_span_checks_on_the_cech_middle_match_the_label_loops():
    pair = weak_equivalence_pair(cech_bitorsor(cyclic_translation_groupoid(6, 3), COVER))
    M, right = pair.middle, pair.to_right
    a, b = M.arrows[100], M.arrows[2000]
    mutated = replace(right, arr_map={**right.arr_map, a: right.arr_map[b]})
    for mor in (pair.to_left, right, mutated):
        assert mor.check_weak_equivalence().violations == ref_check_weak_equivalence(mor)
    assert mutated.check_weak_equivalence().violations


def test_image_outside_the_target_raises_as_the_label_loop():
    right = weak_equivalence_pair(double_cover_bitorsor(3)[2]).to_right
    a = right.source.arrows[5]
    mor = replace(right, arr_map={**right.arr_map, a: "stray"})
    for check in (mor.check_functor, mor.check_weak_equivalence, lambda: ref_check_functor(mor)):
        with pytest.raises(KeyError, match="stray"):
            check()


# ---------------------------------------------------------------------------
# bitorsor composition and the identity bitorsor


def roundtrip_compositions(N):
    """The compositions of the Cech localization round trip at N."""
    theta, xi, b = double_cover_bitorsor(N)
    cover_y = COVER if N == 3 else trivial_cover(xi)
    loc, cx, cy = localize_cech(b, trivial_cover(theta), cover_y)
    cb_x = replace(cech_bitorsor(theta, trivial_cover(theta)), right=cx)
    cb_y = replace(cech_bitorsor(xi, cover_y), right=cy)
    first = (cb_x, loc)
    return [first, (compose_homs(*first), inverse_bitorsor(cb_y))]


def composition_cases(N):
    theta, xi, b = double_cover_bitorsor(N)
    return [(b, identity_bitorsor(xi)), (b, inverse_bitorsor(b)),
            (identity_bitorsor(theta), b), (inverse_bitorsor(b), b)]


@pytest.mark.parametrize("N", [3, 8, 12])
def test_compose_homs_matches_the_label_closure(N):
    cases = composition_cases(N) + (roundtrip_compositions(N) if N < 12 else [])
    for b1, b2 in cases:
        assert_same_fields(bitorsor_fields(compose_homs(b1, b2)), ref_compose_homs(b1, b2))


def test_compose_homs_of_the_cech_scenario_matches_the_label_closure():
    G = cyclic_translation_groupoid(6, 3)
    cb = cech_bitorsor(G, COVER)
    cases = roundtrip_compositions(3) + [(cb, inverse_bitorsor(cb)), (inverse_bitorsor(cb), cb)]
    for b1, b2 in cases:
        assert_same_fields(bitorsor_fields(compose_homs(b1, b2)), ref_compose_homs(b1, b2))


def test_compose_homs_guards_anchor_invariance():
    theta, xi, b = double_cover_bitorsor(3)
    ident = identity_bitorsor(xi)
    # one carrier point of the identity moved to another alpha-fibre
    q = ident.carrier[0]
    bad = replace(ident, alpha={**ident.alpha, q: (ident.alpha[q] + 1) % 3})
    for compose in (compose_homs, ref_compose_homs):
        with pytest.raises(CatalogError, match="not class invariants"):
            compose(b, bad)


@pytest.mark.parametrize("N", [3, 8, 12])
def test_identity_bitorsor_matches_the_label_loops(N):
    theta, xi, _ = double_cover_bitorsor(N)
    for G in (theta, xi, cech_groupoid(cyclic_translation_groupoid(6, 3), COVER), s3_groupoid()):
        assert_same_fields(bitorsor_fields(identity_bitorsor(G)), ref_identity_bitorsor(G))


def test_identity_bitorsor_of_a_malformed_table_reads_cmp():
    G = cyclic_translation_groupoid(6, 3)
    first = next(iter(G.cmp))
    stray = replace(G, cmp={**G.cmp, first: "stray"})
    assert_same_fields(bitorsor_fields(identity_bitorsor(stray)), ref_identity_bitorsor(stray))
    dropped = replace(G, cmp={k: v for k, v in G.cmp.items() if k != first})
    raised = []
    for build in (identity_bitorsor, ref_identity_bitorsor):
        with pytest.raises(KeyError) as err:
            build(dropped)
        raised.append(err.value.args)
    assert raised[0] == raised[1] == (first,)


def test_compose_homs_of_empty_carriers():
    theta, xi, b = double_cover_bitorsor(3)
    empty = replace(b, carrier=(), rho={}, alpha={}, left_act={}, right_act={})
    for b1, b2 in ((empty, identity_bitorsor(xi)), (b, inverse_bitorsor(empty))):
        composite = compose_homs(b1, b2)
        assert composite.carrier == () and not composite.left_act and not composite.right_act
        assert_same_fields(bitorsor_fields(composite), ref_compose_homs(b1, b2))


def test_compose_homs_closes_over_pairs_a_broken_action_reaches():
    """A move that breaks the anchors reaches a pair that is not listed; it joins the class."""
    theta, xi, b = double_cover_bitorsor(3)
    (q, t), v = list(b.right_act.items())[4]
    bad = replace(b, right_act={**b.right_act, (q, t): (v + 1) % 6})
    ident = identity_bitorsor(xi)
    composite = compose_homs(bad, ident)
    members = [p for cls in composite.carrier for p in cls]
    listed = {(q1, q2) for q1 in bad.carrier for q2 in ident.rho_fibre(bad.alpha[q1])}
    assert len(members) == len(set(members)) and listed < set(members)
    class_of = {p: cls for cls in composite.carrier for p in cls}
    for q2 in ident.rho_fibre(bad.alpha[q]):
        moved = ((v + 1) % 6, ident.left_act[(xi.inv[t], q2)])
        assert moved not in listed and class_of[moved] is class_of[(q, q2)]
