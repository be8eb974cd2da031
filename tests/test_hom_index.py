"""The hom-set and fibre indexes against brute-force scans over every arrow.

The reference scans below are the endpoint loops the indexes replace; every
list is compared in order, not only as a set.
"""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbikit.groupoids import (
    CechCover,
    cech_groupoid,
    cyclic_translation_groupoid,
    validate_groupoid,
)
from orbikit.morita import (
    cech_bitorsor,
    double_cover_bitorsor,
    identity_bitorsor,
    weak_equivalence_pair,
)
from orbikit.serialize import groupoid_from_dict, groupoid_to_dict

COVER = CechCover(((0, 1), (1, 2), (2, 0)))


def ref_composable_pairs(G):
    return [(t, s) for t in G.arrows for s in G.arrows if G.src[t] == G.tgt[s]]


def ref_cmp(G, rule):
    return [((t, s), rule(t, s)) for t, s in ref_composable_pairs(G)]


def assert_index_matches(G):
    assert list(G.composable_pairs()) == ref_composable_pairs(G)
    for x in G.objects:
        assert list(G.arrows_from(x)) == [a for a in G.arrows if G.src[a] == x]
        assert list(G.arrows_into(x)) == [a for a in G.arrows if G.tgt[a] == x]
        for y in G.objects:
            ref = [a for a in G.arrows if G.src[a] == x and G.tgt[a] == y]
            assert list(G.arrows_between(x, y)) == ref
    assert G.arrows_between("nowhere", "nowhere") == ()
    assert G.arrows_from("nowhere") == () and G.arrows_into("nowhere") == ()


def assert_fibres_match(b):
    for x in set(b.rho.values()) | set(b.left.objects):
        assert list(b.rho_fibre(x)) == [q for q in b.carrier if b.rho[q] == x]
    for y in set(b.alpha.values()) | set(b.right.objects):
        assert list(b.alpha_fibre(y)) == [q for q in b.carrier if b.alpha[q] == y]


def translation_rule(order):
    return lambda t, s: ((t[0] + s[0]) % order, s[1])


def cases():
    G = cyclic_translation_groupoid(6, 3)
    C = cech_groupoid(G, COVER)
    _, _, b = double_cover_bitorsor(3)
    L, R = b.left, b.right
    M = weak_equivalence_pair(b).middle
    return {
        "Z6xZ3": (G, translation_rule(6)),
        "Cech(Z6xZ3)": (C, lambda t, s: (G.compose(t[0], s[0]), t[1], s[2])),
        "middle(a2 N=3)": (
            M,
            lambda t, s: (L.compose(t[0], s[0]), s[1], R.compose(s[2], t[2])),
        ),
    }


@pytest.mark.parametrize("name", ["Z6xZ3", "Cech(Z6xZ3)", "middle(a2 N=3)"])
def test_index_and_cmp_match_reference_scans(name):
    G, rule = cases()[name]
    assert_index_matches(G)
    assert list(G.cmp.items()) == ref_cmp(G, rule)


def test_index_of_serialized_read_back():
    G, _ = cases()["Cech(Z6xZ3)"]
    back = groupoid_from_dict(json.loads(json.dumps(groupoid_to_dict(G))))
    assert_index_matches(back)
    assert back.cmp == G.cmp and validate_groupoid(back).ok


def test_associativity_walk_matches_reference_triples():
    G = cyclic_translation_groupoid(6, 3)
    # (5, 0) has the endpoints of the true composite (2, 0), so only associativity breaks
    closed = {((1, 1), (1, 0)): (5, 0)}
    # (0, 1) starts at the wrong object; one entry off the composable pairs
    # still answers one of its triples, and one pair is missing
    cmp = {**G.cmp, ((1, 1), (1, 0)): (0, 1), ((0, 1), (0, 0)): (0, 1)}
    del cmp[((2, 0), (3, 0))]
    for bad in (replace(G, cmp={**G.cmp, **closed}), replace(G, cmp=cmp)):
        ref = [
            f"associativity: triple ({r!r},{t!r},{s!r}) fails"
            for r, t, s in itertools.product(bad.arrows, repeat=3)
            if bad.src[r] == bad.tgt[t] and bad.src[t] == bad.tgt[s]
            and bad.cmp.get((bad.cmp.get((r, t)), s)) != bad.cmp.get((r, bad.cmp.get((t, s))))
        ]
        found = [v for v in validate_groupoid(bad).violations if v.startswith("associativity")]
        assert ref and found == ref


def test_fibre_index_matches_reference_scans():
    G = cyclic_translation_groupoid(6, 3)
    _, _, b = double_cover_bitorsor(3)
    for bitorsor in (b, identity_bitorsor(G), cech_bitorsor(G, COVER)):
        assert_fibres_match(bitorsor)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_index_matches_reference_on_translation_groupoids(n_points, multiple):
    # Z_order acts on Z_n only when n divides the order
    order = n_points * multiple
    G = cyclic_translation_groupoid(order, n_points)
    assert_index_matches(G)
    assert list(G.cmp.items()) == ref_cmp(G, translation_rule(order))
    assert validate_groupoid(G).ok
    assert_fibres_match(identity_bitorsor(G))
