"""The integer composition table and its readers against label-loop references.

The references below are the label loops the index arrays replace: the
sorted index rows of ``cmp.items()``, the functoriality loop of
``check_functor`` over ``composable_pairs``, the torsor hit scans and the
whole of ``validate_generalized_hom``, ``validate_cocycle`` and
``verify_coboundary`` one label or matrix at a time, and the indented JSON
writer.
"""

import base64
import itertools
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from orbikit.bases import CatalogError
from orbikit.cocycles import (
    ENTRY_TOL,
    Cocycle,
    identity_cocycle,
    validate_cocycle,
    verify_coboundary,
)
from orbikit.groupoids import (
    CechCover,
    FiniteGroup,
    TableCmp,
    cech_groupoid,
    cmp_from_table,
    cyclic_translation_groupoid,
    group_groupoid,
    validate_groupoid,
)
from orbikit.morita import (
    StrictMorphism,
    cech_bitorsor,
    double_cover_bitorsor,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from orbikit.serialize import groupoid_from_dict, groupoid_to_dict, load_json, save_json

COVER = CechCover(((0, 1), (1, 2), (2, 0)))
# cyclic_translation_groupoid(6, 3) as the orbikit/groupoid/1 writer wrote it
SCHEMA_1_FILE = Path(__file__).parent / "data" / "groupoid-1-Z6xZ3.json"
# the same groupoid as the orbikit/groupoid/2 writer wrote it
SCHEMA_2_FILE = Path(__file__).parent / "data" / "groupoid-2-Z6xZ3.json"


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


def test_writer_refuses_a_table_that_is_not_the_composable_pairs():
    G = cyclic_translation_groupoid(6, 3)
    _, dropped, extra = malformed(G)
    missing = replace(G, cmp={k: v for k, v in G.cmp.items() if k != dropped})
    with pytest.raises(ValueError, match=re.escape(f"no composite of {dropped[0]!r} after {dropped[1]!r}")):
        groupoid_to_dict(missing)
    surplus = replace(G, cmp={**G.cmp, extra: G.arrows[0]})
    with pytest.raises(ValueError, match=re.escape(f"composes {extra[0]!r} after {extra[1]!r}, which are not")):
        groupoid_to_dict(surplus)
    a = G.arrows[4]
    astray = replace(G, src={**G.src, a: "nowhere"})
    with pytest.raises(ValueError, match=re.escape(f"endpoint of {a!r} is not one of its objects")):
        groupoid_to_dict(astray)


@pytest.mark.parametrize("name", ["middle(a2 N=3)", "middle(Cech)"])
def test_span_table_equals_the_derived_one(groupoids, name):
    G = groupoids[name]
    derived = replace(G, cmp=dict(G.cmp))  # a plain dict: the table is derived from it
    assert isinstance(derived.cmp, TableCmp) and derived.cmp._table is None  # not before first use
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
    doc = load_json(SCHEMA_1_FILE)
    rows = doc["compose"][::-1]
    rows.append(list(rows[0]))
    rows[0] = [rows[0][0], rows[0][1], rows[1][2]]  # repeated pair: the later row wins
    rows[5] = [rows[5][0] - len(G.arrows), rows[5][1], rows[5][2] - len(G.arrows)]
    back = groupoid_from_dict({**doc, "compose": rows})
    assert back.cmp == G.cmp
    assert back.table.tolist() == ref_table(back) == doc["compose"]


def ref_read_cmp(arrows, rows):
    """The label dict reader the table reader replaces."""
    return {(arrows[t], arrows[s]): arrows[r] for t, s, r in rows}


@pytest.mark.parametrize(
    "rows, error",
    [
        pytest.param([[0, 1]], ValueError, id="pair"),
        pytest.param([[3, 0, 3], [0, 1, 2, 3]], ValueError, id="quadruple"),
        pytest.param([[3, 0, 3], [0, 1]], ValueError, id="ragged"),
        pytest.param([3, 0, 3], TypeError, id="flat"),
        pytest.param([[3, 0, 18]], IndexError, id="past-the-end"),
        pytest.param([[3, -19, 3]], IndexError, id="before-the-start"),
        pytest.param([[3, 0, 2**63]], IndexError, id="past-int64"),
        pytest.param([[3, 1.5, 3]], TypeError, id="float"),
        pytest.param([[3, 0, 3.0]], TypeError, id="integral-float"),
        pytest.param([[3, "2", 3]], TypeError, id="string"),
        pytest.param([[3, [0], 3]], TypeError, id="nested"),
    ],
)
def test_malformed_document_rows_fail_as_the_dict_reader_did(rows, error):
    doc = load_json(SCHEMA_1_FILE)  # 18 arrows
    arrows = tuple(map(tuple, doc["arrows"]))
    with pytest.raises(error):
        ref_read_cmp(arrows, rows)
    with pytest.raises(error):
        groupoid_from_dict({**doc, "compose": rows})


@pytest.mark.parametrize(
    "field, value, error",
    [
        pytest.param("result", 3, TypeError, id="not-a-list"),
        pytest.param("result", {"0": 3}, TypeError, id="object"),
        pytest.param("result", [1.5], TypeError, id="float"),
        pytest.param("result", [3.0], TypeError, id="integral-float"),
        pytest.param("result", ["2"], TypeError, id="string"),
        pytest.param("result", [[0]], TypeError, id="nested"),
        pytest.param("src", [0.0], TypeError, id="float-src"),
        pytest.param("result", "short", ValueError, id="short-result"),
        pytest.param("result", "long", ValueError, id="long-result"),
        pytest.param("src", "short", ValueError, id="short-src"),
        pytest.param("tgt", "long", ValueError, id="long-tgt"),
        pytest.param("inverse", "short", ValueError, id="short-inverse"),
        pytest.param("result", [18], IndexError, id="past-the-end"),
        pytest.param("result", [-1], IndexError, id="negative"),
        pytest.param("result", [2**63], IndexError, id="past-int64"),
        pytest.param("src", [3], IndexError, id="src-past-the-objects"),
        pytest.param("tgt", [-3], IndexError, id="negative-tgt"),
        pytest.param("unit", [-1], IndexError, id="negative-unit"),
    ],
)
def test_malformed_schema_2_documents_are_refused(field, value, error):
    doc = load_json(SCHEMA_2_FILE)  # 3 objects, 18 arrows
    assert doc["schema"] == "orbikit/groupoid/2"
    good = doc[field]
    if value == "short":
        value = good[:-1]
    elif value == "long":
        value = good + good[:1]
    elif isinstance(value, list):
        value = value + good[1:]  # the first entry replaced
    with pytest.raises(error):
        groupoid_from_dict({**doc, field: value})
    assert groupoid_from_dict(doc).table.tolist() == ref_table(cyclic_translation_groupoid(6, 3))


def unpack(text):
    """A schema-3 column of two-byte indices, decoded by the standard library."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<u2").tolist()


def packed(ids, dtype="<u2"):
    return base64.b64encode(np.asarray(ids, dtype).tobytes()).decode()


def first(value):
    return lambda good: packed([value] + unpack(good)[1:])


@pytest.mark.parametrize(
    "field, make, error",
    [
        pytest.param("result", unpack, TypeError, id="list"),
        pytest.param("result", lambda good: 3, TypeError, id="number"),
        pytest.param("unit", lambda good: None, TypeError, id="null"),
        pytest.param("src", lambda good: {"0": good}, TypeError, id="object"),
        pytest.param("result", lambda good: "!" + good[1:], ValueError, id="bad-character"),
        pytest.param("result", lambda good: "\u00e9" + good[1:], ValueError, id="non-ascii"),
        pytest.param("tgt", lambda good: good + "\n", ValueError, id="newline"),
        pytest.param("inverse", lambda good: good[:4] + " " + good[4:], ValueError, id="space"),
        pytest.param("result", lambda good: packed(unpack(good)[:-1]), ValueError, id="short-result"),
        pytest.param("result", lambda good: packed(unpack(good) + [0]), ValueError, id="long-result"),
        pytest.param("src", lambda good: base64.b64encode(base64.b64decode(good) + b"\0").decode(), ValueError, id="odd-bytes"),
        pytest.param("unit", lambda good: packed(unpack(good), "<u4"), ValueError, id="four-byte-unit"),
        pytest.param("result", first(18), IndexError, id="past-the-end"),
        pytest.param("result", first(65535), IndexError, id="largest-u2"),
        pytest.param("src", first(3), IndexError, id="src-past-the-objects"),
        pytest.param("unit", first(18), IndexError, id="unit-past-the-end"),
    ],
)
def test_malformed_schema_3_documents_are_refused(field, make, error):
    doc = groupoid_to_dict(cyclic_translation_groupoid(6, 3))  # 3 objects, 18 arrows: 2-byte indices
    assert doc["schema"] == "orbikit/groupoid/3"
    with pytest.raises(error):
        groupoid_from_dict({**doc, field: make(doc[field])})
    assert groupoid_from_dict(doc).table.tolist() == ref_table(cyclic_translation_groupoid(6, 3))


@pytest.mark.parametrize("text", ["AAB=", "AAA", "AAA==", "AA A=", "=AAA"])
def test_non_canonical_base64_is_refused(text):
    """Each of these decodes, without strict mode, to bytes that re-encode otherwise."""
    doc = groupoid_to_dict(group_groupoid(FiniteGroup.cyclic(2)))  # one object, two arrows
    assert doc["unit"] == "AAA="  # index 0: two bytes, so one padding character
    with pytest.raises(ValueError):
        groupoid_from_dict({**doc, "unit": text})
    assert groupoid_from_dict(doc).unit == {"*": 0}


def translation_rule(t, s):
    return ((t[0] + s[0]) % 6, s[1])


def rule_table(G, rule):
    """Sorted index rows of ``rule`` over every composable pair, from the labels alone."""
    index = {a: i for i, a in enumerate(G.arrows)}
    return sorted(
        [index[t], index[s], index[rule(t, s)]]
        for t in G.arrows for s in G.arrows if G.src[t] == G.tgt[s]
    )


def test_construction_and_writing_build_no_label_dict():
    G = cyclic_translation_groupoid(6, 3)
    C = cech_groupoid(G, COVER)
    back = groupoid_from_dict(json.loads(json.dumps(groupoid_to_dict(C))))
    for X in (G, C, back):
        groupoid_to_dict(X)
    assert all("_dict" not in vars(X.cmp) for X in (G, C, back))
    cech_rule = lambda t, s: (translation_rule(t[0], s[0]), t[1], s[2])
    assert G.table.tolist() == rule_table(G, translation_rule)
    assert C.table.tolist() == back.table.tolist() == rule_table(C, cech_rule)


def test_writes_into_a_table_cmp_reach_the_table():
    G = cyclic_translation_groupoid(6, 3)
    back = groupoid_from_dict(json.loads(json.dumps(groupoid_to_dict(cech_groupoid(G, COVER)))))
    for X in (G, back):
        before = X.composites  # read, and kept, before the writes
        ref, dropped, extra = malformed(X)  # the same edits on a plain dict
        rows = len(X.table)
        del X.cmp[dropped]
        assert len(X.table) == rows - 1
        X.cmp[extra] = X.arrows[0]
        assert X.cmp == ref.cmp and len(X.cmp) == len(ref.cmp)
        assert X.table.tolist() == ref_table(ref) == ref.table.tolist()
        for mine, theirs in zip(X.composites, ref.composites):
            assert np.array_equal(mine, theirs)
        assert not np.array_equal(before[2], X.composites[2])
        # neither is a groupoid table now, so schema 2 cannot hold either
        errors = []
        for Y in (X, ref):
            with pytest.raises(ValueError, match="cannot serialize") as err:
                groupoid_to_dict(Y)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        X.cmp[("stray", X.arrows[0])] = X.arrows[0]
        with pytest.raises(ValueError, match="outside its arrows"):
            groupoid_to_dict(X)


def test_writes_into_a_given_cmp_dict_reach_the_table():
    """A groupoid given a plain ``cmp`` dict holds it in a ``TableCmp`` too, so a
    write after the table was first read does not leave that table stale."""
    read, fresh = (group_groupoid(FiniteGroup.cyclic(3)) for _ in range(2))
    read.table
    for G in (read, fresh):
        G.cmp[(1, 1)] = 0
    assert read.table.tolist() == fresh.table.tolist() == ref_table(fresh)
    violations = [validate_groupoid(G).violations for G in (read, fresh)]
    assert violations[0] == violations[1] and len(violations[0]) == 4


def test_cech_groupoid_of_a_broken_parent_raises():
    G = cyclic_translation_groupoid(6, 3)
    bad, dropped, _ = malformed(G)
    with pytest.raises(KeyError) as err:
        cech_groupoid(bad, COVER)
    assert err.value.args == (dropped,)
    with pytest.raises(CatalogError, match="is not an arrow between the sheets"):
        cech_groupoid(stray(G), COVER)


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


def stray_right(b):
    """A right arrow outside the action's domain at the first carrier point."""
    return next(t for t in b.right.arrows if b.right.tgt[t] != b.alpha[b.carrier[0]])


def torsor_cases():
    _, _, b = double_cover_bitorsor(3)
    R = b.right
    t1 = R.arrows[4]  # not a unit: it now fixes every point, so one pair has 2 hits, another 0
    q0 = b.carrier[0]
    stray = stray_right(b)
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


# ---------------------------------------------------------------------------
# bitorsor and cocycle validation against label loops


def ref_validate_generalized_hom(b, mode="bitorsor"):
    """The label loops of ``validate_generalized_hom``; a missing action entry reads None."""
    out = []
    L, R = b.left, b.right
    carrier = set(b.carrier)
    for q in b.carrier:
        if q not in b.rho or q not in b.alpha:
            return [f"anchors: {q!r} missing rho or alpha"]
        if b.rho[q] not in L.objects:
            out.append(f"anchors: rho({q!r}) not an object of the left groupoid")
        if b.alpha[q] not in R.objects:
            out.append(f"anchors: alpha({q!r}) not an object of the right groupoid")
    for s in L.arrows:
        for q in b.carrier:
            defined = (s, q) in b.left_act
            if defined != (L.src[s] == b.rho[q]):
                out.append(f"left domain: ({s!r},{q!r}) defined={defined}")
                continue
            if defined:
                q2 = b.left_act[(s, q)]
                if q2 not in carrier:
                    out.append(f"left action: ({s!r},{q!r}) leaves the carrier")
                elif b.rho[q2] != L.tgt[s] or b.alpha[q2] != b.alpha[q]:
                    out.append(f"left anchors: ({s!r},{q!r}) moved anchors wrongly")
    for t in R.arrows:
        for q in b.carrier:
            defined = (q, t) in b.right_act
            if defined != (R.tgt[t] == b.alpha[q]):
                out.append(f"right domain: ({q!r},{t!r}) defined={defined}")
                continue
            if defined:
                q2 = b.right_act[(q, t)]
                if q2 not in carrier:
                    out.append(f"right action: ({q!r},{t!r}) leaves the carrier")
                elif b.alpha[q2] != R.src[t] or b.rho[q2] != b.rho[q]:
                    out.append(f"right anchors: ({q!r},{t!r}) moved anchors wrongly")
    for q in b.carrier:
        if b.left_act.get((L.unit[b.rho[q]], q)) != q:
            out.append(f"left unit: unit does not fix {q!r}")
        if b.right_act.get((q, R.unit[b.alpha[q]])) != q:
            out.append(f"right unit: unit does not fix {q!r}")
    for (tau, sigma) in L.composable_pairs():
        for q in b.rho_fibre(L.src[sigma]):
            two_step = b.left_act.get((tau, b.left_act.get((sigma, q))))
            if two_step != b.left_act.get((L.compose(tau, sigma), q)):
                out.append(f"left action law: ({tau!r},{sigma!r}) on {q!r}")
    for (tau, kappa) in R.composable_pairs():
        for q in b.alpha_fibre(R.tgt[tau]):
            two_step = b.right_act.get((b.right_act.get((q, tau)), kappa))
            if two_step != b.right_act.get((q, R.compose(tau, kappa))):
                out.append(f"right action law: ({tau!r},{kappa!r}) on {q!r}")
    for s in L.arrows:
        for q in b.carrier:
            if (s, q) not in b.left_act:
                continue
            for t in R.arrows:
                if (q, t) not in b.right_act:
                    continue
                a = b.right_act.get((b.left_act[(s, q)], t))
                c = b.left_act.get((s, b.right_act[(q, t)]))
                if a != c or a is None:
                    out.append(f"commutativity: ({s!r},{q!r},{t!r})")
    for x in L.objects:
        fibre = b.rho_fibre(x)
        if not fibre:
            out.append(f"rho surjectivity: empty fibre over {x!r}")
        for q in fibre:
            hits = Counter(b.right_act.get((q, t)) for t in R.arrows)
            for q2 in fibre:
                if hits[q2] != 1:
                    out.append(f"right torsor: {hits[q2]} arrows carry {q!r} to {q2!r} over {x!r}")
    if mode == "generalized":
        return out
    for y in R.objects:
        fibre = b.alpha_fibre(y)
        if not fibre:
            out.append(f"alpha surjectivity: empty fibre over {y!r}")
        for q in fibre:
            hits = Counter(b.left_act.get((s, q)) for s in L.arrows)
            for q2 in fibre:
                if hits[q2] != 1:
                    out.append(f"left torsor: {hits[q2]} arrows carry {q!r} to {q2!r} over {y!r}")
    return out


def ref_same(a, b, scale=1.0):
    """Equal if both are integer, else within ENTRY_TOL * max(1, scale)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind in "iu" and b.dtype.kind in "iu":
        return np.array_equal(a, b)
    return bool(np.abs(a - b).max() <= ENTRY_TOL * max(1.0, scale))


def ref_validate_cocycle(g):
    """``validate_cocycle`` one arrow and one composable pair at a time."""
    out = []
    for a in g.groupoid.arrows:
        m = g.entries.get(a)
        if m is None:
            out.append(f"totality: no entry for arrow {a!r}")
            continue
        if np.asarray(m).shape != (g.rank, g.rank):
            raise CatalogError(f"rank mismatch at arrow {a!r}")
        if abs(np.linalg.det(np.asarray(m, dtype=complex))) < 1e-9:
            out.append(f"invertibility: entry at {a!r} is singular")
    if out:
        return out
    for tau, sigma in g.groupoid.composable_pairs():
        later, earlier = np.asarray(g.entries[tau]), np.asarray(g.entries[sigma])
        scale = np.linalg.norm(later) * np.linalg.norm(earlier)
        if not ref_same(later @ earlier, g.entries[g.groupoid.compose(tau, sigma)], scale):
            out.append(f"cocycle law: ({tau!r},{sigma!r})")
    for x in g.groupoid.objects:
        if not ref_same(g.entries[g.groupoid.unit[x]], np.eye(g.rank)):
            out.append(f"normalization: unit arrow at {x!r} is not the identity")
    return out


def ref_verify_coboundary(g1, g2, lam):
    G = g1.groupoid
    for a in G.arrows:
        lhs = np.asarray(g2.entries[a])
        x, x2 = G.src[a], G.tgt[a]
        inv = np.linalg.inv(np.asarray(lam[x], dtype=complex))
        factors = (np.asarray(lam[x2]), np.asarray(g1.entries[a]), inv)
        scale = np.prod([np.linalg.norm(f) for f in factors])
        if not ref_same(lhs, factors[0] @ factors[1] @ factors[2], scale):
            return False
    return True


def missing_entry_bitorsor():
    _, _, b = double_cover_bitorsor(3)
    return replace(b, right_act={k: v for k, v in b.right_act.items() if k != (0, (0, 0))})


def bitorsor_cases():
    _, _, b = double_cover_bitorsor(3)
    q0, q1 = b.carrier[0], b.carrier[1]
    t_unit = b.right.unit[b.alpha[q0]]
    t1 = next(t for t in b.right.arrows_into(b.alpha[q0]) if t != t_unit)
    # an entry changed on every side it touches, so one commutativity triple breaks
    swapped = b.right_act[(q0, t1)]
    target = next(q for q in b.alpha_fibre(b.right.src[t1]) if q != swapped)
    cech = cech_bitorsor(cyclic_translation_groupoid(6, 3), COVER)
    p0 = cech.carrier[0]
    return {
        **torsor_cases(),
        # the second entry is outside the action's domain too, which is reported first
        "point leaves the carrier": replace(
            b, left_act={**b.left_act, (1, q0): "outside"},
            right_act={**b.right_act, (q0, stray_right(b)): "outside"},
        ),
        "wrong anchors": replace(b, alpha={**b.alpha, q0: b.alpha[q1]}),
        "broken unit": replace(
            b, left_act={**b.left_act, (0, q1): b.carrier[2]},
            right_act={**b.right_act, (q0, t_unit): b.carrier[3]},
        ),
        "broken left action law": replace(b, left_act={**b.left_act, (1, q1): q1}),
        "broken commutativity": replace(b, right_act={**b.right_act, (q0, t1): target}),
        "missing entry": missing_entry_bitorsor(),
        "Cech stray left entry": replace(cech, left_act={**cech.left_act, (cech.left.arrows[5], p0): p0}),
    }


BITORSOR_CASES = [
    "collapsed right arrow", "stray right entry", "doubled left hit", "point leaves the carrier",
    "wrong anchors", "broken unit", "broken left action law", "broken commutativity",
    "missing entry", "Cech stray left entry",
]


@pytest.mark.parametrize("case", BITORSOR_CASES)
def test_bitorsor_report_matches_the_label_loops(case):
    b = bitorsor_cases()[case]
    for mode in ("generalized", "bitorsor"):
        ref = ref_validate_generalized_hom(b, mode)
        assert ref and validate_generalized_hom(b, mode).violations == ref


def test_sound_bitorsors_match_the_label_loops():
    G = cyclic_translation_groupoid(6, 3)
    for b in (double_cover_bitorsor(4)[2], cech_bitorsor(G, COVER)):
        assert validate_generalized_hom(b).violations == ref_validate_generalized_hom(b) == []


def test_missing_action_entry_fails_naming_the_pair():
    rep = validate_generalized_hom(missing_entry_bitorsor())
    assert not rep.ok
    assert rep.violations[0] == "right domain: (0,(0, 0)) defined=False"


def float_cocycle(C, rank=2):
    """A coboundary of random float matrices per object: a cocycle up to rounding."""
    rng = np.random.default_rng(7)
    lam = {x: rng.standard_normal((rank, rank)) + 2 * np.eye(rank) for x in C.objects}
    entries = {a: lam[C.tgt[a]] @ np.linalg.inv(lam[C.src[a]]) for a in C.arrows}
    return Cocycle(C, rank, entries, name="float")


def with_entry(g, arrow, m):
    return Cocycle(g.groupoid, g.rank, {**g.entries, arrow: m}, name=g.name)


def cocycle_cases():
    C = cech_groupoid(cyclic_translation_groupoid(6, 3), COVER)
    a = C.arrows[9]
    exact, floats = identity_cocycle(C, 2), float_cocycle(C)
    bump = np.array([[0, 1], [0, 0]])
    return {
        "sound integer": exact,
        "sound float": floats,
        "singular entry": with_entry(exact, a, np.zeros((2, 2), dtype=int)),
        "integer entry off by 1": with_entry(exact, a, exact.entries[a] + bump),
        "float entry off by 1e-13": with_entry(floats, a, floats.entries[a] + 1e-13 * bump),
        "float entry off by 1e-11": with_entry(floats, a, floats.entries[a] + 1e-11 * bump),
        "missing entry": Cocycle(C, 2, {k: v for k, v in exact.entries.items() if k != a}),
        # totality and invertibility messages interleave in arrow order
        "missing and singular entries": Cocycle(C, 2, {
            k: np.zeros((2, 2)) if k == C.arrows[0] else v
            for k, v in exact.entries.items() if k != a
        }),
    }


@pytest.mark.parametrize("case", [
    "sound integer", "sound float", "singular entry", "integer entry off by 1",
    "float entry off by 1e-13", "float entry off by 1e-11", "missing entry",
    "missing and singular entries",
])
def test_cocycle_report_matches_the_label_loop(case):
    g = cocycle_cases()[case]
    ref = ref_validate_cocycle(g)
    assert validate_cocycle(g).violations == ref
    if case.startswith(("sound", "float entry")):
        # the bumped entry has norm ~13, so 1e-13 and 1e-11 stay within the scaled tolerance
        assert ref == []
    else:
        assert ref


def test_coboundary_matches_the_label_loop():
    cases = cocycle_cases()
    C = cases["sound integer"].groupoid
    rng = np.random.default_rng(3)
    floats = {x: rng.standard_normal((2, 2)) + 2 * np.eye(2) for x in C.objects}
    signs = {x: np.diag([1, -1 if i % 2 else 1]) for i, x in enumerate(C.objects)}
    a, bump = C.arrows[9], np.array([[0, 1], [0, 0]])
    for g1, lam in ((cases["sound float"], floats), (cases["sound integer"], signs)):
        twisted = {b: lam[C.tgt[b]] @ np.asarray(g1.entries[b]) @ np.linalg.inv(lam[C.src[b]])
                   for b in C.arrows}
        if lam is signs:  # an integer coboundary of an integer cocycle
            twisted = {b: np.rint(m).astype(int) for b, m in twisted.items()}
        g2 = Cocycle(C, 2, twisted)
        for off in (0, 1e-13, 1e-11, 1e-4, 1):
            moved = with_entry(g2, a, g2.entries[a] + off * bump)
            assert verify_coboundary(g1, moved, lam) == ref_verify_coboundary(g1, moved, lam)
        assert verify_coboundary(g1, g2, lam)
        assert not verify_coboundary(g1, with_entry(g2, a, g2.entries[a] + bump), lam)


def large_coboundary():
    """lam(tgt) lam(src)^-1 for random lam(x) @ diag(s_x, 1): entries up to about 1.4e4."""
    C = cech_groupoid(cyclic_translation_groupoid(6, 3), COVER)
    rng = np.random.default_rng(0)
    lam = {x: rng.standard_normal((2, 2)) @ np.diag([2500.0 ** (i % 2), 1.0])
           for i, x in enumerate(C.objects)}
    g = Cocycle(C, 2, {a: lam[C.tgt[a]] @ np.linalg.inv(lam[C.src[a]]) for a in C.arrows})
    return g, lam


def test_large_exact_coboundary_validates():
    g, lam = large_coboundary()
    assert 1e4 < max(np.abs(m).max() for m in g.entries.values()) < 2e4
    assert validate_cocycle(g).ok
    assert verify_coboundary(identity_cocycle(g.groupoid, 2), g, lam)


def test_large_coboundary_off_by_relative_1e9_fails():
    g, lam = large_coboundary()
    a = max(g.groupoid.arrows, key=lambda b: np.abs(g.entries[b]).max())
    moved = with_entry(g, a, g.entries[a] + 1e-9 * np.linalg.norm(g.entries[a]) * np.array([[0, 1], [0, 0]]))
    assert not validate_cocycle(moved).ok
    assert validate_cocycle(moved).violations == ref_validate_cocycle(moved)
    assert not verify_coboundary(identity_cocycle(g.groupoid, 2), moved, lam)


# ---------------------------------------------------------------------------
# the span's label cmp, built when it is read


def test_span_check_leaves_the_middle_cmp_unbuilt():
    pair = weak_equivalence_pair(double_cover_bitorsor(3)[2])
    assert pair.check().ok
    M = pair.middle
    doc = groupoid_to_dict(M)
    assert len(M.cmp) == len(M.table) == len(unpack(doc["result"]))
    assert "_dict" not in vars(M.cmp)
    ref = cmp_from_table(M.arrows, M.table)
    assert list(M.cmp.items()) == list(ref.items())
    assert M.cmp == ref and not (M.cmp != ref) and M.cmp.get(("no", "pair")) is None
    assert replace(M).cmp == M.cmp and dict(M.cmp) == ref
