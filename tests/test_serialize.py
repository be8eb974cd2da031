import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orbikit.bases import CircleModes, FourierCircle, FourierTorus, TorusModes
from orbikit.cocycles import identity_cocycle, sign_cocycle, validate_cocycle
from orbikit.convolution import ConvolutionElement, fourier_element
from orbikit.groupoids import (
    CechCover,
    CircleArc,
    cyclic_translation_groupoid,
    negation_torus_groupoid,
    rotation_groupoid,
    validate_groupoid,
)
from orbikit.morita import (
    cech_bitorsor,
    double_cover_bitorsor,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from orbikit.serialize import (
    bitorsor_from_dict,
    bitorsor_to_dict,
    cocycle_from_dict,
    cocycle_to_dict,
    convolution_from_dict,
    convolution_to_dict,
    cover_from_dict,
    cover_to_dict,
    groupoid_from_dict,
    groupoid_to_dict,
    load_json,
    modes_from_dict,
    modes_to_dict,
    save_json,
)


SCHEMA_1_FILE = Path(__file__).parent / "data" / "groupoid-1-Z6xZ3.json"
FINITE_FIELDS = ("objects", "arrows", "src", "tgt", "cmp", "inv", "unit", "name")


def roundtrip(doc):
    return json.loads(json.dumps(doc, sort_keys=True))


def assert_same_finite_groupoid(H, G):
    for name in FINITE_FIELDS:
        assert getattr(H, name) == getattr(G, name), name
    assert np.array_equal(H.table, G.table)


def test_finite_groupoid_roundtrip():
    G = cyclic_translation_groupoid(6, 3)
    doc = roundtrip(groupoid_to_dict(G))
    H = groupoid_from_dict(doc)
    assert H.objects == G.objects
    assert set(H.arrows) == set(G.arrows)
    assert H.cmp == G.cmp and H.inv == G.inv and H.unit == G.unit
    assert validate_groupoid(H).ok


def test_schema_1_file_reads_to_the_same_groupoid():
    G = cyclic_translation_groupoid(6, 3)
    doc = load_json(SCHEMA_1_FILE)
    assert doc["schema"] == "orbikit/groupoid/1" and "compose" in doc
    H = groupoid_from_dict(doc)
    assert_same_finite_groupoid(H, G)
    rewritten = groupoid_to_dict(H)
    assert rewritten["schema"] == "orbikit/groupoid/2" and "compose" not in rewritten
    assert rewritten["result"] == [r for _, _, r in doc["compose"]]


def test_cech_span_middle_file_is_small_and_reads_back_equal(tmp_path):
    G = cyclic_translation_groupoid(6, 3)
    M = weak_equivalence_pair(cech_bitorsor(G, CechCover(((0, 1), (1, 2), (2, 0))))).middle
    path = tmp_path / "middle.json"
    save_json(path, groupoid_to_dict(M))
    assert path.stat().st_size < 1_200_000
    assert_same_finite_groupoid(groupoid_from_dict(load_json(path)), M)


def test_action_groupoid_roundtrip():
    for G in (
        rotation_groupoid(4, FourierCircle(mode_cutoff=8)),
        negation_torus_groupoid(FourierTorus((2 * np.pi, np.pi), 8)),
    ):
        H = groupoid_from_dict(roundtrip(groupoid_to_dict(G)))
        assert H.group.elements == G.group.elements
        assert H.iso == G.iso
        assert type(H.base) is type(G.base)
        assert validate_groupoid(H).ok


def test_cover_roundtrip():
    finite = CechCover(((0, 1), (1, 2)))
    arcs = CechCover(
        (CircleArc(Fraction(0), Fraction(1, 3)), CircleArc(Fraction(1, 2), Fraction(1, 3)))
    )
    for cover in (finite, arcs):
        back = cover_from_dict(roundtrip(cover_to_dict(cover)))
        assert back == cover


def test_bitorsor_roundtrip_validates(tmp_path):
    theta, xi, b = double_cover_bitorsor(3)
    doc = roundtrip(bitorsor_to_dict(b, "theta", "xi"))
    path = tmp_path / "bitorsor.json"
    save_json(path, doc)
    loaded = load_json(path)
    back = bitorsor_from_dict(loaded, {"theta": theta, "xi": xi})
    assert back.carrier == b.carrier
    assert back.left_act == b.left_act and back.right_act == b.right_act
    assert validate_generalized_hom(back, mode="bitorsor").ok


def test_cocycle_roundtrip():
    G = cyclic_translation_groupoid(6, 3)
    g = sign_cocycle(G, lambda a: -1 if a[0] % 2 else 1)
    back = cocycle_from_dict(roundtrip(cocycle_to_dict(g)), G)
    assert validate_cocycle(back).ok
    for a in G.arrows:
        assert np.array_equal(back.entries[a], g.entries[a])


def test_cocycle_sheet_fields_present():
    from orbikit.groupoids import cech_groupoid, trivial_cover

    G = cyclic_translation_groupoid(6, 3)
    C = cech_groupoid(G, trivial_cover(G))
    doc = cocycle_to_dict(identity_cocycle(C, 2))
    assert all(e["sheets"] == [0, 0] for e in doc["entries"])


def test_modes_roundtrip_circle_and_torus():
    circle = FourierCircle(np.pi, 6)
    m = CircleModes.random(circle, 6, np.random.default_rng(0), fibre_shape=(2,), twist=Fraction(1, 2))
    back = modes_from_dict(roundtrip(modes_to_dict(m)))
    assert back.twist == m.twist and back.cutoff == m.cutoff
    assert np.allclose(back.coeffs, m.coeffs)
    torus = FourierTorus((2 * np.pi, np.pi), 4)
    t = TorusModes.mode(torus, 4, (1, -2), amplitude=1.5 - 0.5j)
    back_t = modes_from_dict(roundtrip(modes_to_dict(t)))
    assert np.allclose(back_t.coeffs, t.coeffs)
    assert back_t.torus.circumferences == t.torus.circumferences


def test_convolution_roundtrip_finite_and_fourier():
    G = cyclic_translation_groupoid(6, 3)
    f = ConvolutionElement(G, {(1, 0): 2.0 - 1j, (3, 2): 0.5})
    back = convolution_from_dict(roundtrip(convolution_to_dict(f)), G)
    assert back.data == f.data

    R = rotation_groupoid(2, FourierCircle(mode_cutoff=6))
    fe = fourier_element(
        R,
        {0: CircleModes.mode(R.base, 6, 1), 1: CircleModes.mode(R.base, 6, 0, amplitude=2j)},
    )
    back_f = convolution_from_dict(roundtrip(convolution_to_dict(fe)), R)
    assert set(back_f.data) == {0, 1}
    for g in (0, 1):
        assert np.allclose(back_f.data[g].coeffs, fe.data[g].coeffs)


def test_schema_mismatch_raises():
    with pytest.raises(ValueError):
        groupoid_from_dict({"schema": "nope"})
    with pytest.raises(ValueError):
        cover_from_dict({"schema": "nope"})


def test_groupoid_doc_bundles_covers():
    from orbikit.serialize import covers_from_groupoid_doc

    G = cyclic_translation_groupoid(6, 3)
    cover = CechCover(((0, 1), (1, 2), (2, 0)))
    doc = roundtrip(groupoid_to_dict(G, covers=[cover]))
    assert covers_from_groupoid_doc(doc) == [cover]
    assert covers_from_groupoid_doc(roundtrip(groupoid_to_dict(G))) == []


def test_freeze_and_thaw_match_the_leafwise_recursion():
    """Only lists (tuples) are entered; each leaf comes back as the same object."""
    from orbikit.serialize import _freeze, _thaw

    def ref_freeze(value):
        return tuple(map(ref_freeze, value)) if isinstance(value, list) else value

    def ref_thaw(value):
        return [ref_thaw(v) for v in value] if isinstance(value, tuple) else value

    M = weak_equivalence_pair(cech_bitorsor(cyclic_translation_groupoid(6, 3), CechCover(((0, 1), (1, 2), (2, 0))))).middle
    labels = [*M.arrows, *M.objects, "*", 3, [], (), ((),), ("id", (1, [2, (3,)]))]
    for label in labels:
        thawed = _thaw(label)
        assert thawed == ref_thaw(label) and json.dumps(thawed) == json.dumps(ref_thaw(label))
        assert _freeze(thawed) == ref_freeze(thawed) == ref_freeze(ref_thaw(label))
        assert type(_freeze(thawed)) is type(ref_freeze(thawed))
    assert _freeze(_thaw(M.arrows[5])) == M.arrows[5]
