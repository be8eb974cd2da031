"""The integer composition table and its readers against label-loop references.

The references below are the label loops the table replaces: the sorted
index rows of ``cmp.items()``, the functoriality loop of ``check_functor``
over ``composable_pairs``, the torsor hit scans of
``validate_generalized_hom``, and the indented JSON writer.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from orbikit.groupoids import CechCover, cech_groupoid, cyclic_translation_groupoid
from orbikit.morita import (
    StrictMorphism,
    cech_bitorsor,
    double_cover_bitorsor,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from orbikit.serialize import groupoid_from_dict, groupoid_to_dict, load_json, save_json

COVER = CechCover(((0, 1), (1, 2), (2, 0)))


def ref_table(G):
    """A result outside ``arrows`` reads -1; a pair naming such a label has no row."""
    index = {a: i for i, a in enumerate(G.arrows)}
    return sorted(
        [index[t], index[s], index.get(r, -1)]
        for (t, s), r in G.cmp.items()
        if t in index and s in index
    )


def ref_functor_violations(mor):
    """``check_functor`` as a label loop; a missing composite or image fails its pair."""
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


def ref_torsor_violations(b):
    """The torsor scans over every ordered pair of points in a fibre."""
    L, R = b.left, b.right
    out = []
    for x in L.objects:
        fibre = b.rho_fibre(x)
        for q, q2 in itertools.product(fibre, fibre):
            hits = [t for t in R.arrows if b.right_act.get((q, t)) == q2]
            if len(hits) != 1:
                out.append(f"right torsor: {len(hits)} arrows carry {q!r} to {q2!r} over {x!r}")
    for y in R.objects:
        fibre = b.alpha_fibre(y)
        for q, q2 in itertools.product(fibre, fibre):
            hits = [s for s in L.arrows if b.left_act.get((s, q)) == q2]
            if len(hits) != 1:
                out.append(f"left torsor: {len(hits)} arrows carry {q!r} to {q2!r} over {y!r}")
    return out


def malformed(G):
    """``G`` with one composable pair dropped and one non-composable entry added."""
    cmp = dict(G.cmp)
    dropped = next(iter(cmp))
    del cmp[dropped]
    extra = next((t, s) for t in G.arrows for s in G.arrows if G.src[t] != G.tgt[s])
    cmp[extra] = G.arrows[0]
    return replace(G, cmp=cmp), dropped, extra


def stray(G):
    """``G`` with one result and one pair naming a label outside its arrows."""
    cmp = dict(G.cmp)
    cmp[next(iter(cmp))] = "stray"
    cmp[("stray", G.arrows[0])] = G.arrows[0]
    return replace(G, cmp=cmp)


@pytest.fixture(scope="module")
def groupoids():
    G = cyclic_translation_groupoid(6, 3)
    a2 = weak_equivalence_pair(double_cover_bitorsor(3)[2])
    cech = weak_equivalence_pair(cech_bitorsor(G, COVER))
    return {
        "Z6xZ3": G,
        "Cech(Z6xZ3)": cech_groupoid(G, COVER),
        "middle(a2 N=3)": a2.middle,
        "middle(Cech)": cech.middle,
        "read back": groupoid_from_dict(json.loads(json.dumps(groupoid_to_dict(cech.middle)))),
        "malformed": malformed(G)[0],
        "stray labels": stray(G),
    }


@pytest.mark.parametrize(
    "name",
    ["Z6xZ3", "Cech(Z6xZ3)", "middle(a2 N=3)", "middle(Cech)", "read back", "malformed", "stray labels"],
)
def test_table_is_the_sorted_index_rows_of_cmp(groupoids, name):
    G = groupoids[name]
    ref = ref_table(G)
    assert G.table.dtype == np.int64 and G.table.shape == (len(ref), 3)
    assert G.table.tolist() == ref
    assert (len(ref) == len(G.cmp)) == (name != "stray labels")


def test_writer_refuses_labels_outside_the_arrows(groupoids):
    with pytest.raises(ValueError, match="outside its arrows"):
        groupoid_to_dict(groupoids["stray labels"])


@pytest.mark.parametrize("name", ["middle(a2 N=3)", "middle(Cech)"])
def test_span_table_equals_the_derived_one(groupoids, name):
    G = groupoids[name]
    derived = replace(G)  # a new groupoid derives its table from cmp
    assert "table" not in vars(derived)
    assert np.array_equal(G.table, derived.table)


def test_lookups_on_a_malformed_table():
    G = cyclic_translation_groupoid(6, 3)
    bad, dropped, extra = malformed(G)
    index = bad.arrow_index
    ids = lambda pairs: tuple(np.array([index[p[k]] for p in pairs]) for k in (0, 1))
    later, earlier = ids([dropped, extra, next(iter(bad.cmp))])
    found = bad.compose_ids(later, earlier).tolist()
    assert found == [-1, 0, index[bad.cmp[next(iter(bad.cmp))]]]
    # a missing image (-1) reads -1, also where its key would hit a real pair
    n = len(bad.arrows)
    l, e = next((l, e) for l, e, _ in bad.table.tolist() if e == n - 1)
    assert bad.compose_ids(np.array([l + 1, -1]), np.array([-1, e])).tolist() == [-1, -1]
    # composites walk composable_pairs: the dropped pair reads -1, the extra one is absent
    later, earlier, result = bad.composites
    pairs = [(bad.arrows[t], bad.arrows[s]) for t, s in zip(later.tolist(), earlier.tolist())]
    assert pairs == list(bad.composable_pairs())
    expect = [index[bad.cmp[p]] if p in bad.cmp else -1 for p in pairs]
    assert result.tolist() == expect and expect.count(-1) == 1


def test_shuffled_document_rows_read_back_as_the_dict_reads_them():
    G = cyclic_translation_groupoid(6, 3)
    doc = groupoid_to_dict(G)
    rows = doc["compose"][::-1]
    rows.append(list(rows[0]))
    rows[0] = [rows[0][0], rows[0][1], rows[1][2]]  # repeated pair: the later row wins
    rows[5] = [rows[5][0] - len(G.arrows), rows[5][1], rows[5][2] - len(G.arrows)]
    back = groupoid_from_dict({**doc, "compose": rows})
    assert back.cmp == G.cmp
    assert back.table.tolist() == ref_table(back) == doc["compose"]


def functor_cases():
    pair = weak_equivalence_pair(double_cover_bitorsor(3)[2])
    M, right = pair.middle, pair.to_right
    a = M.arrows[7]
    wrong = replace(right, arr_map={**right.arr_map, a: right.target.arrows[0]})
    missing = replace(right, arr_map={k: v for k, v in right.arr_map.items() if k != a})
    cmp = dict(M.cmp)
    first, second = list(cmp)[10], list(cmp)[20]
    cmp[first] = cmp[second]
    del cmp[list(cmp)[30]]
    cmp[list(cmp)[40]] = "stray"
    cmp[("stray", M.arrows[0])] = M.arrows[0]
    corrupted = replace(M, cmp=cmp)
    # the image of one composable middle pair composes to a label outside T
    T = right.target
    tau, sigma = next(iter(M.composable_pairs()))
    target_cmp = {**T.cmp, (right.arr_map[tau], right.arr_map[sigma]): "stray"}
    return {
        "sound": pair.to_left,
        "wrong image": wrong,
        "missing image": missing,
        "corrupted middle": StrictMorphism(corrupted, right.target, right.obj_map, right.arr_map),
        "stray target result": replace(right, target=replace(T, cmp=target_cmp)),
    }


@pytest.mark.parametrize(
    "case", ["sound", "wrong image", "missing image", "corrupted middle", "stray target result"]
)
def test_check_functor_matches_the_label_loop(case):
    mor = functor_cases()[case]
    ref = ref_functor_violations(mor)
    assert mor.check_functor().violations == ref
    assert bool(ref) == (case != "sound")
    if case != "sound":
        assert any(v.startswith("functoriality") for v in ref)


def torsor_cases():
    _, _, b = double_cover_bitorsor(3)
    R = b.right
    t1 = R.arrows[4]  # not a unit: it now fixes every point, so one pair has 2 hits, another 0
    q0 = b.carrier[0]
    stray = next(t for t in R.arrows if R.tgt[t] != b.alpha[q0])  # outside the action's domain
    s1 = b.left.arrows[1]
    return {
        "collapsed right arrow": replace(
            b, right_act={(q, t): q if t == t1 else v for (q, t), v in b.right_act.items()}
        ),
        "stray right entry": replace(b, right_act={**b.right_act, (q0, stray): q0}),
        "doubled left hit": replace(b, left_act={**b.left_act, (s1, q0): q0}),
    }


@pytest.mark.parametrize(
    "case", ["collapsed right arrow", "stray right entry", "doubled left hit"]
)
def test_torsor_counts_match_the_pairwise_scan(case):
    b = torsor_cases()[case]
    found = [v for v in validate_generalized_hom(b, mode="bitorsor").violations if "torsor:" in v]
    ref = ref_torsor_violations(b)
    assert ref and found == ref


def test_compact_file_reads_as_the_document_and_the_indented_bytes(tmp_path):
    G = weak_equivalence_pair(double_cover_bitorsor(3)[2]).middle
    doc = groupoid_to_dict(G, covers=[COVER])
    path = tmp_path / "middle.json"
    save_json(path, doc)
    text = path.read_text()
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert load_json(path) == doc
    assert load_json(path) == json.loads(json.dumps(doc, indent=1, sort_keys=True) + "\n")
