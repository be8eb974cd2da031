import numpy as np
import pytest

from orbikit.bases import CatalogError, FourierCircle, FourierTorus
from orbikit.clifford import (
    build_clifford,
    cocycle_law_holds,
    projective_lift,
    spin_element,
    spin_lift_search,
    trivial_lift,
)
from orbikit.groupoids import (
    negation_torus_groupoid,
    rotation_groupoid,
    trivial_groupoid,
)


def test_dimension_one_module():
    rep = build_clifford(1)
    assert rep.spinor_dim == 1
    assert np.array_equal(rep.gammas[0] @ rep.gammas[0], np.eye(1))


def test_dimension_two_relations():
    rep = build_clifford(2)
    g1, g2 = rep.gammas
    assert np.array_equal(g1 @ g2 + g2 @ g1, np.zeros((2, 2)))
    assert np.array_equal(g1 @ g1, np.eye(2))
    w = rep.chirality
    assert np.array_equal(w @ w, np.eye(2))
    assert np.array_equal(w @ g1 + g1 @ w, np.zeros((2, 2)))
    assert np.array_equal(w, np.diag([1.0, -1.0]))
    # entries stay in the Gaussian integers
    assert np.array_equal(w, np.real(w) + 1j * np.imag(w))


def test_unsupported_dimension():
    with pytest.raises(CatalogError):
        build_clifford(3)


def test_half_turn_spin_element_is_g1g2():
    rep = build_clifford(2)
    from fractions import Fraction

    S = spin_element(rep, Fraction(1, 2))
    assert np.array_equal(S, rep.gammas[0] @ rep.gammas[1])
    assert np.array_equal(S @ S, -np.eye(2))


def test_circle_rotation_has_two_lifts():
    G = rotation_groupoid(2, FourierCircle())
    lifts = spin_lift_search(G, build_clifford(1))
    assert len(lifts) == 2
    sign_patterns = sorted(tuple(l.signs[g] for g in G.group.elements) for l in lifts)
    assert sign_patterns == [(1, -1), (1, 1)]
    for l in lifts:
        assert l.strict and cocycle_law_holds(l)


def test_z4_rotation_has_two_plus_minus_character_lifts():
    G = rotation_groupoid(4, FourierCircle())
    lifts = spin_lift_search(G, build_clifford(1))
    patterns = sorted(tuple(l.signs[g] for g in G.group.elements) for l in lifts)
    assert patterns == [(1, -1, 1, -1), (1, 1, 1, 1)]


def test_trivial_group_has_exactly_one_lift():
    G = trivial_groupoid(FourierCircle())
    lifts = spin_lift_search(G, build_clifford(1))
    assert len(lifts) == 1
    assert lifts[0].signs == {0: 1}


def test_negation_torus_has_no_strict_lift():
    # the half-turn lift squares to -1, so no sign assignment closes the cocycle
    G = negation_torus_groupoid(FourierTorus())
    assert spin_lift_search(G, build_clifford(2)) == []


def test_projective_lift_for_negation():
    G = negation_torus_groupoid(FourierTorus())
    rep = build_clifford(2)
    lift = projective_lift(G, rep)
    assert not lift.strict
    S = lift.matrix(1)
    assert np.array_equal(S, rep.gammas[0] @ rep.gammas[1])
    # adjoint action flips both gammas, matching the differential -1
    for g in rep.gammas:
        assert np.allclose(S @ g @ np.linalg.inv(S), -g)
    # chirality commutes with the transport (both sit in even degree)
    assert np.allclose(rep.chirality @ S - S @ rep.chirality, 0)


def test_trivial_lift_picker():
    G = rotation_groupoid(2, FourierCircle())
    lift = trivial_lift(G, build_clifford(1))
    assert all(s == 1 for s in lift.signs.values())
    G2 = negation_torus_groupoid(FourierTorus())
    with pytest.raises(CatalogError):
        trivial_lift(G2, build_clifford(2))


def test_rotation_lifts_commute_with_chirality():
    rep = build_clifford(2)
    from fractions import Fraction

    for turns in (Fraction(0), Fraction(1, 2)):
        S = spin_element(rep, turns)
        assert np.allclose(rep.chirality @ S, S @ rep.chirality)


def test_cocycle_law_evaluates_each_element_matrix_once(monkeypatch):
    from orbikit.clifford import SpinLift

    G = rotation_groupoid(4, FourierCircle())
    calls = []
    matrix = SpinLift.matrix
    monkeypatch.setattr(SpinLift, "matrix", lambda lift, g: calls.append(g) or matrix(lift, g))
    lifts = spin_lift_search(G, build_clifford(1))
    assert len(lifts) == 2
    assert len(calls) == 2 ** 3 * G.group.order  # each of the 8 sign cochains, once per element
