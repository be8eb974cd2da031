"""Complexified Clifford data for base dimensions 1 and 2.

Pinned gamma conventions (all modules must use these; spectra only depend
on them up to unitary equivalence, but fixtures need bit-stable matrices):

    n = 1:  gamma1 = [[1]] on a one-dimensional module
    n = 2:  gamma1 = [[0, 1], [1, 0]]
            gamma2 = [[0, -i], [i, 0]]
            chirality = -i * gamma1 * gamma2 = [[1, 0], [0, -1]]

Rotation by a fraction f of a full turn lifts to
+-(cos(pi f) + sin(pi f) gamma1 gamma2); catalog isometries only need the
exact values f in {0, 1/2}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bases import CatalogError, CircleRotation, TorusIsometry, unit_phase
from .groupoids import ActionGroupoid


@dataclass(frozen=True, eq=False)
class CliffordRep:
    dimension: int
    gammas: tuple  # of ndarrays
    chirality: np.ndarray | None  # even dimension only

    @property
    def spinor_dim(self):
        return self.gammas[0].shape[0]


def build_clifford(n: int) -> CliffordRep:
    if n == 1:
        rep = CliffordRep(1, (np.array([[1.0 + 0j]]),), None)
    elif n == 2:
        g1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        g2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
        omega = -1j * (g1 @ g2)
        rep = CliffordRep(2, (g1, g2), omega)
    else:
        raise CatalogError(f"unsupported dimension {n}; the catalog stops at 2")
    _verify_relations(rep)
    return rep


def _verify_relations(rep: CliffordRep):
    eye = np.eye(rep.spinor_dim)
    for i, gi in enumerate(rep.gammas):
        if not np.array_equal(gi, np.conj(gi.T)):
            raise CatalogError(f"gamma{i + 1} is not Hermitian")
        for j, gj in enumerate(rep.gammas):
            anti = gi @ gj + gj @ gi
            expected = 2.0 * eye if i == j else 0.0 * eye
            if not np.array_equal(anti, expected):
                raise CatalogError(f"Clifford relation fails at ({i + 1},{j + 1})")
    if rep.chirality is not None:
        w = rep.chirality
        if not np.array_equal(w @ w, eye):
            raise CatalogError("chirality does not square to one")
        for gi in rep.gammas:
            if not np.array_equal(w @ gi + gi @ w, 0.0 * eye):
                raise CatalogError("chirality does not anticommute with a gamma")


def rotation_turns_of(iso) -> Fraction:
    """The tangent rotation (in turns) of a catalog isometry."""
    if isinstance(iso, CircleRotation):
        return Fraction(0)  # one-dimensional tangent space: d(rotation) = 1
    if isinstance(iso, TorusIsometry):
        return Fraction(1, 2) if iso.negate else Fraction(0)
    raise CatalogError(f"no tangent rotation for {iso!r}")


def spin_element(rep: CliffordRep, turns: Fraction) -> np.ndarray:
    """exp(pi * turns * gamma1 gamma2) (the identity in dimension 1)."""
    if rep.dimension == 1:
        return np.array([[1.0 + 0j]])
    phase = unit_phase(Fraction(turns) / 2)  # cos(pi t) + i sin(pi t)
    c, s = phase.real, phase.imag
    g12 = rep.gammas[0] @ rep.gammas[1]
    return c * np.eye(2) + s * g12


@dataclass(eq=False)
class SpinLift:
    """Sign-twisted spin lift of a catalog action.

    ``matrix(g)`` is the spinor transport of the group element: the sign
    cochain times the spin element over its tangent rotation.  ``strict``
    records whether the assignment satisfies the cocycle law on all pairs;
    lifts failing it can still be used projectively.
    """

    groupoid: ActionGroupoid
    rep: CliffordRep
    signs: dict
    strict: bool

    def matrix(self, g) -> np.ndarray:
        iso = self.groupoid.iso[g]
        return self.signs[g] * spin_element(self.rep, rotation_turns_of(iso))

    def describe(self) -> str:
        kind = "strict" if self.strict else "projective"
        pat = ",".join(
            f"{g}:{'+' if self.signs[g] > 0 else '-'}" for g in self.groupoid.group.elements
        )
        return f"{kind} lift [{pat}]"


def adjoint_condition_holds(G: ActionGroupoid, rep: CliffordRep, g) -> bool:
    """Ad(S(g)) gamma(v) == gamma(dphi_g v) on the frame basis."""
    S = spin_element(rep, rotation_turns_of(G.iso[g]))
    d = G.iso[g].differential()
    for i in range(rep.dimension):
        lhs = S @ rep.gammas[i] @ np.linalg.inv(S)
        rhs = sum(d[j, i] * rep.gammas[j] for j in range(rep.dimension))
        if not np.allclose(lhs, rhs, atol=1e-14):
            return False
    return True


def cocycle_law_holds(lift: SpinLift) -> bool:
    """S(gh) = S(g) S(h) on every pair, each S(g) evaluated once."""
    group = lift.groupoid.group
    S = {g: lift.matrix(g) for g in group.elements}
    lhs = [S[group.mul(g, h)] for g in group.elements for h in group.elements]
    rhs = [S[g] @ S[h] for g in group.elements for h in group.elements]
    return bool(np.allclose(lhs, rhs, atol=1e-14))


def spin_lift_search(G: ActionGroupoid, rep: CliffordRep):
    """All sign assignments making the lift a strict cocycle.

    Exhausts sign cochains over the group (identity pinned to +1) and
    keeps those satisfying both the cocycle law and the adjoint condition.
    Returns a possibly empty list.
    """
    for g in G.group.elements:
        if not adjoint_condition_holds(G, rep, g):
            return []
    others = [g for g in G.group.elements if g != G.group.identity]
    found = []
    for assignment in itertools.product((1, -1), repeat=len(others)):
        signs = {G.group.identity: 1}
        signs.update(dict(zip(others, assignment)))
        lift = SpinLift(G, rep, signs, strict=True)
        if cocycle_law_holds(lift):
            found.append(lift)
    return found


def projective_lift(G: ActionGroupoid, rep: CliffordRep, signs=None) -> SpinLift:
    """A lift with the correct adjoint action but no cocycle guarantee.

    Used where the strict search comes back empty (the flip action on the
    torus: the half-turn lift has order four); the chirality and Dirac
    commutation checks it feeds do not need strictness.
    """
    for g in G.group.elements:
        if not adjoint_condition_holds(G, rep, g):
            raise CatalogError(f"adjoint condition fails for {g!r}; not liftable at all")
    signs = {g: 1 for g in G.group.elements} if signs is None else dict(signs)
    lift = SpinLift(G, rep, signs, strict=False)
    lift.strict = cocycle_law_holds(lift)
    return lift


def trivial_lift(G: ActionGroupoid, rep: CliffordRep) -> SpinLift:
    lifts = spin_lift_search(G, rep)
    for lift in lifts:
        if all(s == 1 for s in lift.signs.values()):
            return lift
    if lifts:
        return lifts[0]
    raise CatalogError("no strict lift exists; use projective_lift")
