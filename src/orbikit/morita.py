"""Bitorsors between groupoids: verification, composition, localization.

A generalized homomorphism from a left groupoid (arrows Theta over X) to a
right groupoid (arrows Xi over Y) is a carrier Q with anchors rho: Q -> X
and alpha: Q -> Y, a left Theta-action along rho and a right Xi-action
along alpha.  Conventions, matching the composition rule
``compose(tau, sigma) = "sigma then tau"``:

* ``sigma . q`` is defined iff src(sigma) == rho(q); then
  rho(sigma . q) == tgt(sigma) and alpha is unchanged.
* ``q . tau`` is defined iff tgt(tau) == alpha(q); then
  alpha(q . tau) == src(tau) and rho is unchanged.

The structure is a Morita bitorsor when the right action is free and
transitive on rho-fibres and the left action is free and transitive on
alpha-fibres.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bases import CatalogError, FourierCircle
from .groupoids import (
    ActionGroupoid,
    CechCover,
    FiniteGroupoid,
    cech_groupoid,
    composable_index,
    group_by,
    group_groupoid,
    cyclic_translation_groupoid,
    FiniteGroup,
    isotropy,
    label_ids,
    object_ids,
    table_groupoid,
    validate_cover,
)
from .reports import ValidationReport

INCONCLUSIVE = object()  # sentinel returned by capped searches


@dataclass(frozen=True, eq=False)
class Bitorsor:
    left: FiniteGroupoid
    right: FiniteGroupoid
    carrier: tuple
    rho: dict
    alpha: dict
    left_act: dict  # (sigma, q) -> q'
    right_act: dict  # (q, tau) -> q'
    name: str = "bitorsor"
    # fibre index, built from rho/alpha: anchor value -> carrier points in carrier order
    _rho_fibres: dict = field(init=False, repr=False)
    _alpha_fibres: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_rho_fibres", group_by(self.carrier, self.rho.get))
        object.__setattr__(self, "_alpha_fibres", group_by(self.carrier, self.alpha.get))

    def rho_fibre(self, x):
        return self._rho_fibres.get(x, ())

    def alpha_fibre(self, y):
        return self._alpha_fibres.get(y, ())


# ---------------------------------------------------------------------------
# torsor witnesses


def left_witness(b: Bitorsor, q, q2):
    """The unique left arrow with sigma . q == q2 (same alpha-fibre)."""
    hits = [s for s in b.left.arrows if b.left_act.get((s, q)) == q2]
    if len(hits) != 1:
        raise CatalogError(
            f"left torsor witness for {q!r} -> {q2!r} is not unique: {hits!r}"
        )
    return hits[0]


def right_witness(b: Bitorsor, q, q2):
    """The unique right arrow with q . tau == q2 (same rho-fibre)."""
    hits = [t for t in b.right.arrows if b.right_act.get((q, t)) == q2]
    if len(hits) != 1:
        raise CatalogError(
            f"right torsor witness for {q!r} -> {q2!r} is not unique: {hits!r}"
        )
    return hits[0]


# ---------------------------------------------------------------------------
# validation


def validate_generalized_hom(b: Bitorsor, mode: str = "bitorsor") -> ValidationReport:
    """Exhaustive check of the generalized-homomorphism / bitorsor axioms.

    mode "generalized" checks the one-sided (right torsor over X) axioms;
    mode "bitorsor" additionally checks the left torsor condition over Y.
    Violations are report entries naming the failing pair or fibre.

    The actions are checked as int arrays (``_action_arrays``); each
    violation is reported as a loop over the labels would meet it, for
    example arrow-major and then in carrier order for the action domains.
    A missing action entry reads as undefined, and so does a composite or
    unit that is not one of the groupoid's arrows.
    """
    if mode not in ("generalized", "bitorsor"):
        raise ValueError(f"unknown mode {mode!r}")
    rep = ValidationReport(subject=f"{mode} {b.name}")
    L, R = b.left, b.right

    for q in b.carrier:
        if q not in b.rho or q not in b.alpha:
            rep.add(f"anchors: {q!r} missing rho or alpha")
            return rep
        if b.rho[q] not in L.objects:
            rep.add(f"anchors: rho({q!r}) not an object of the left groupoid")
        if b.alpha[q] not in R.objects:
            rep.add(f"anchors: alpha({q!r}) not an object of the right groupoid")

    carrier, n, n_left, n_right = b.carrier, len(b.carrier), len(L.arrows), len(R.arrows)
    left_act, right_act, index = _action_arrays(b)
    n_points, points = len(index), np.arange(n)
    # object ids per side: the left side's for L's endpoints and rho, the right's for R's and alpha
    left_ids, right_ids = {}, {}
    l_src, l_tgt = (label_ids(left_ids, L.arrows, end) for end in (L.src, L.tgt))
    r_src, r_tgt = (label_ids(right_ids, R.arrows, end) for end in (R.src, R.tgt))
    rho, alpha = label_ids(left_ids, carrier, b.rho), label_ids(right_ids, carrier, b.alpha)
    # anchors of every point index; a point outside the carrier reads -1
    rho_of = np.append(rho, np.full(n_points + 1 - n, -1))
    alpha_of = np.append(alpha, np.full(n_points + 1 - n, -1))

    # action domains and anchor compatibility: left per (sigma, q), right per (tau, q)
    q2 = left_act[:n_left, :n]
    _report_domains(
        rep, "left", q2, l_src[:, None] == rho[None, :],
        (rho_of[q2] != l_tgt[:, None]) | (alpha_of[q2] != alpha[None, :]),
        lambda s, q: f"({L.arrows[s]!r},{carrier[q]!r})",
    )
    q2 = right_act[:n, :n_right].T
    _report_domains(
        rep, "right", q2, r_tgt[:, None] == alpha[None, :],
        (alpha_of[q2] != r_src[:, None]) | (rho_of[q2] != rho[None, :]),
        lambda t, q: f"({carrier[q]!r},{R.arrows[t]!r})",
    )

    # unit and associativity laws
    l_unit = np.array([L.arrow_index.get(L.unit.get(b.rho[q]), -1) for q in carrier], np.int64)
    r_unit = np.array([R.arrow_index.get(R.unit.get(b.alpha[q]), -1) for q in carrier], np.int64)
    l_fixed = left_act[l_unit, points] == points
    r_fixed = right_act[points, r_unit] == points
    for q in np.flatnonzero(~l_fixed | ~r_fixed):
        if not l_fixed[q]:
            rep.add(f"left unit: unit does not fix {carrier[q]!r}")
        if not r_fixed[q]:
            rep.add(f"right unit: unit does not fix {carrier[q]!r}")
    # each composable pair beside the points of its fibre, in carrier order
    tau, sigma, composite = L.composites
    pair, q = composable_index(l_src[sigma], rho)
    two_step = left_act[tau[pair], left_act[sigma[pair], q]]
    one_step = left_act[composite[pair], q]
    for i in np.flatnonzero(two_step != one_step):
        p = pair[i]
        rep.add(f"left action law: ({L.arrows[tau[p]]!r},{L.arrows[sigma[p]]!r}) on {carrier[q[i]]!r}")
    tau, kappa, composite = R.composites
    pair, q = composable_index(r_tgt[tau], alpha)
    two_step = right_act[right_act[q, tau[pair]], kappa[pair]]
    one_step = right_act[q, composite[pair]]
    for i in np.flatnonzero(two_step != one_step):
        p = pair[i]
        rep.add(f"right action law: ({R.arrows[tau[p]]!r},{R.arrows[kappa[p]]!r}) on {carrier[q[i]]!r}")

    # commutativity, over (s, q, t) with s . q and q . t both defined
    s, q = np.nonzero(left_act[:n_left, :n] >= 0)
    q_right, t = np.nonzero(right_act[:n, :n_right] >= 0)
    row, j = composable_index(q, q_right)
    s, q, t = s[row], q[row], t[j]
    a = right_act[left_act[s, q], t]
    c = left_act[s, right_act[q, t]]
    for i in np.flatnonzero((a != c) | (a < 0)):
        rep.add(f"commutativity: ({L.arrows[s[i]]!r},{carrier[q[i]]!r},{R.arrows[t[i]]!r})")

    # right torsor over X: rho surjective, Xi free and transitive on rho-fibres
    _report_torsor(rep, "right", "rho", L.objects, b.rho_fibre, index,
                   lambda ids: right_act[ids, :n_right])
    if mode == "generalized":
        return rep
    # left torsor over Y
    _report_torsor(rep, "left", "alpha", R.objects, b.alpha_fibre, index,
                   lambda ids: left_act[:n_left, ids].T)
    return rep


def _report_domains(rep, side, values, in_domain, moved, pair):
    """Domain, carrier and anchor violations of one action, row-major over ``values``.

    ``values[i, q]`` is the point index that arrow ``i`` moves carrier point
    ``q`` to, -1 where undefined; ``moved`` marks wrong anchors there.
    """
    n = values.shape[1]
    defined = values >= 0
    domain = defined != in_domain
    leaves = defined & (values >= n)
    for i, q in zip(*np.nonzero(domain | (defined & (leaves | moved)))):
        if domain[i, q]:
            rep.add(f"{side} domain: {pair(i, q)} defined={bool(defined[i, q])}")
        elif leaves[i, q]:
            rep.add(f"{side} action: {pair(i, q)} leaves the carrier")
        else:
            rep.add(f"{side} anchors: {pair(i, q)} moved anchors wrongly")


def _report_torsor(rep, side, anchor, objects, fibre_of, index, values_of):
    """Surjectivity, and one arrow carrying each point of a fibre to each other.

    ``values_of(ids)`` holds, per fibre point, the point indices its arrows
    move it to; the hits of one fibre are one ``bincount``.
    """
    for x in objects:
        fibre = fibre_of(x)
        if not fibre:
            rep.add(f"{anchor} surjectivity: empty fibre over {x!r}")
        ids = [index[p] for p in fibre]
        f = len(ids)
        position = np.full(len(index) + 1, -1)
        position[ids] = np.arange(f)
        found = position[values_of(ids)]
        rows = np.broadcast_to(np.arange(f)[:, None], found.shape)[found >= 0]
        hits = np.bincount(rows * f + found[found >= 0], minlength=f * f).reshape(f, f)
        for i, k in zip(*np.nonzero(hits != 1)):
            rep.add(f"{side} torsor: {hits[i, k]} arrows carry {fibre[i]!r} to {fibre[k]!r} over {x!r}")


def _action_arrays(b: Bitorsor):
    """Both actions as int arrays of point indices, and the point index.

    The points are the carrier, in carrier order, then each action value
    outside the carrier.  ``left[s, q]`` is the index of ``sigma . q`` for
    the left arrow of index ``s``, and ``right[q, t]`` that of ``q . tau``;
    -1 where undefined.  Each array has one more row and column, all -1, so
    a gather at index -1 reads undefined.  Entries keyed by a label that is
    neither an arrow nor a point are never read and are left out.
    """
    points = {q: i for i, q in enumerate(b.carrier)}
    left_values = [points.setdefault(v, len(points)) for v in b.left_act.values()]
    right_values = [points.setdefault(v, len(points)) for v in b.right_act.values()]
    left = _action_array(b.left_act, b.left.arrow_index, points, left_values)
    right = _action_array(b.right_act, points, b.right.arrow_index, right_values)
    return left, right, points


def _action_array(act, row_index, column_index, values):
    out = np.full((len(row_index) + 1, len(column_index) + 1), -1, dtype=np.int64)
    n = len(act)
    rows = np.fromiter((row_index.get(r, -1) for r, _ in act), np.int64, n)
    columns = np.fromiter((column_index.get(c, -1) for _, c in act), np.int64, n)
    keep = (rows >= 0) & (columns >= 0)
    out[rows[keep], columns[keep]] = np.asarray(values, dtype=np.int64)[keep]
    return out


# ---------------------------------------------------------------------------
# canonical constructions


def identity_bitorsor(G: FiniteGroupoid) -> Bitorsor:
    """G as a bitorsor over itself: carrier = arrows, anchors (tgt, src).

    Composition acts on both sides; this is the unit of bitorsor
    composition (a carrier of bare objects fails freeness as soon as the
    groupoid has isotropy).
    """
    carrier = tuple(G.arrows)
    return Bitorsor(
        left=G,
        right=G,
        carrier=carrier,
        rho=dict(G.tgt),
        alpha=dict(G.src),
        left_act={(s, q): G.compose(s, q) for q in carrier for s in G.arrows_from(G.tgt[q])},
        right_act={(q, t): G.compose(q, t) for q in carrier for t in G.arrows_into(G.src[q])},
        name=f"id({G.name})",
    )


def inverse_bitorsor(b: Bitorsor) -> Bitorsor:
    """Swap the two sides; actions are re-anchored through arrow inverses."""
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
    return Bitorsor(
        left=b.right,
        right=b.left,
        carrier=b.carrier,
        rho=dict(b.alpha),
        alpha=dict(b.rho),
        left_act=left_act,
        right_act=right_act,
        name=f"inv({b.name})",
    )


def double_cover_bitorsor(N: int):
    """Cyclic discretization of the double-cover example at scale N.

    Left groupoid: the two-element group over a point.  Right groupoid:
    Z_{2N} translating Z_N.  Carrier Z_{2N}; the nontrivial left element
    shifts by N, the right action subtracts the acting group element.
    Returns (theta, xi, bitorsor).
    """
    theta = group_groupoid(FiniteGroup.cyclic(2), name="Z2 over point")
    xi = cyclic_translation_groupoid(2 * N, N)
    carrier = tuple(range(2 * N))
    rho = {q: "*" for q in carrier}
    alpha = {q: q % N for q in carrier}
    left_act = {}
    for q in carrier:
        left_act[(0, q)] = q
        left_act[(1, q)] = (q + N) % (2 * N)
    right_act = {
        (q, (a, y)): (q - a) % (2 * N) for q in carrier for (a, y) in xi.arrows_into(alpha[q])
    }
    return theta, xi, Bitorsor(
        left=theta,
        right=xi,
        carrier=carrier,
        rho=rho,
        alpha=alpha,
        left_act=left_act,
        right_act=right_act,
        name=f"a2(N={N})",
    )


# ---------------------------------------------------------------------------
# composition and 2-morphisms


def compose_homs(b1: Bitorsor, b2: Bitorsor) -> Bitorsor:
    """Compose X<->Y with Y<->Z through the shared middle groupoid.

    Carrier: pairs (q1, q2) with alpha1(q1) == rho2(q2), modulo
    (q1, q2) ~ (q1 . sigma, sigma^-1 . q2).  Classes are stored as
    canonical frozensets of pairs.
    """
    if b1.right is not b2.left:
        raise CatalogError("middle groupoids differ; cannot compose")
    mid = b1.right
    pairs = [(q1, q2) for q1 in b1.carrier for q2 in b2.rho_fibre(b1.alpha[q1])]
    # close each pair under the middle action
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
    # anchors are class invariants; guard while building
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
    return Bitorsor(
        left=b1.left,
        right=b2.right,
        carrier=carrier,
        rho=rho,
        alpha=alpha,
        left_act=left_act,
        right_act=right_act,
        name=f"({b1.name} * {b2.name})",
    )


@dataclass
class TwoMorphism:
    mapping: dict  # carrier of b1 -> carrier of b2

    def check(self, b1: Bitorsor, b2: Bitorsor) -> bool:
        T = self.mapping
        if set(T.values()) != set(b2.carrier) or len(T) != len(b2.carrier):
            return False
        for q in b1.carrier:
            if b1.rho[q] != b2.rho[T[q]] or b1.alpha[q] != b2.alpha[T[q]]:
                return False
        for (s, q), q2 in b1.left_act.items():
            if b2.left_act.get((s, T[q])) != T[q2]:
                return False
        for (q, t), q2 in b1.right_act.items():
            if b2.right_act.get((T[q], t)) != T[q2]:
                return False
        return True


def find_two_morphism(b1: Bitorsor, b2: Bitorsor, node_cap: int = 10**6):
    """Search for an equivariant bijection between two carriers.

    Returns a TwoMorphism, None when provably absent, or INCONCLUSIVE when
    the backtracking search exceeds ``node_cap`` nodes.  Equivariance
    propagates through both actions, so a single seed per connected block
    forces the rest.
    """
    if b1.left is not b2.left or b1.right is not b2.right:
        return None
    if len(b1.carrier) != len(b2.carrier):
        return None

    order = list(b1.carrier)
    nodes = 0

    def propagate(assign, q0, image):
        """Close assign under both actions starting from q0; None on clash."""
        stack = [q0]
        assign = dict(assign)
        assign[q0] = image
        if len(set(assign.values())) != len(assign):
            return None
        while stack:
            q = stack.pop()
            for (s, p), p2 in b1.left_act.items():
                if p != q:
                    continue
                t2 = b2.left_act.get((s, assign[q]))
                if t2 is None:
                    return None
                if p2 in assign:
                    if assign[p2] != t2:
                        return None
                else:
                    assign[p2] = t2
                    stack.append(p2)
            for (p, t), p2 in b1.right_act.items():
                if p != q:
                    continue
                t2 = b2.right_act.get((assign[q], t))
                if t2 is None:
                    return None
                if p2 in assign:
                    if assign[p2] != t2:
                        return None
                else:
                    assign[p2] = t2
                    stack.append(p2)
        if len(set(assign.values())) != len(assign):
            return None
        return assign

    def extend(assign):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return INCONCLUSIVE
        missing = [q for q in order if q not in assign]
        if not missing:
            tm = TwoMorphism(dict(assign))
            return tm if tm.check(b1, b2) else None
        q0 = missing[0]
        taken = set(assign.values())
        for cand in b2.carrier:
            if cand in taken:
                continue
            if b2.rho[cand] != b1.rho[q0] or b2.alpha[cand] != b1.alpha[q0]:
                continue
            closed = propagate(assign, q0, cand)
            if closed is None:
                continue
            res = extend(closed)
            if res is INCONCLUSIVE or res is not None:
                return res
        return None

    return extend({})


# ---------------------------------------------------------------------------
# Cech localization


def localize_cech(b: Bitorsor, cover_x: CechCover, cover_y: CechCover):
    """Restrict a bitorsor to Cech groupoids of covers on both bases.

    Carrier points are tagged (q, a, i) with rho(q) in sheet a and
    alpha(q) in sheet i.  Returns (localized bitorsor, cech_x, cech_y).
    """
    validate_cover(b.left, cover_x).raise_if_invalid()
    validate_cover(b.right, cover_y).raise_if_invalid()
    cech_x = cech_groupoid(b.left, cover_x)
    cech_y = cech_groupoid(b.right, cover_y)
    carrier = tuple(
        (q, a, i)
        for q in b.carrier
        for a in cover_x.indices()
        for i in cover_y.indices()
        if cover_x.member(a, b.rho[q]) and cover_y.member(i, b.alpha[q])
    )
    for q in b.carrier:
        if not any(c[0] == q for c in carrier):
            raise CatalogError(f"cover mismatch: carrier point {q!r} lies in no sheet pair")
    rho = {(q, a, i): (b.rho[q], a) for (q, a, i) in carrier}
    alpha = {(q, a, i): (b.alpha[q], i) for (q, a, i) in carrier}
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
    localized = Bitorsor(
        left=cech_x,
        right=cech_y,
        carrier=carrier,
        rho=rho,
        alpha=alpha,
        left_act=left_act,
        right_act=right_act,
        name=f"Cech({b.name})",
    )
    return localized, cech_x, cech_y


def cech_bitorsor(G: FiniteGroupoid, cover: CechCover) -> Bitorsor:
    """The canonical equivalence between G and its Cech groupoid.

    Carrier: arrows with source inside a sheet, tagged by the sheet; the
    left G-action composes, the right Cech-action composes through the
    untagged arrow.
    """
    cech = cech_groupoid(G, cover)
    carrier = tuple(
        (s, a) for s in G.arrows for a in cover.indices() if cover.member(a, G.src[s])
    )
    rho = {(s, a): G.tgt[s] for (s, a) in carrier}
    alpha = {(s, a): (G.src[s], a) for (s, a) in carrier}
    left_act = {
        (r, (s, a)): (G.compose(r, s), a) for (s, a) in carrier for r in G.arrows_from(G.tgt[s])
    }
    right_act = {
        ((s, a), (t, aa, bb)): (G.compose(s, t), bb)
        for (s, a) in carrier
        for (t, aa, bb) in cech.arrows_into(alpha[(s, a)])
    }
    return Bitorsor(
        left=G,
        right=cech,
        carrier=carrier,
        rho=rho,
        alpha=alpha,
        left_act=left_act,
        right_act=right_act,
        name=f"cech-bitorsor({G.name})",
    )


# ---------------------------------------------------------------------------
# bisection lifts


@dataclass
class BisectionLift:
    """A lift of the local diffeomorphism of one arrow to the carrier."""

    side: str  # "left" or "right"
    arrow: object
    mapping: dict  # carrier point -> carrier point
    intertwines: bool


def lift_bisection(b: Bitorsor, arrow, q, side: str = "left") -> BisectionLift:
    """Lift the bisection through ``arrow`` to the carrier near ``q``.

    Left side: domain is the rho-fibre of src(arrow); the lift acts by the
    left action and satisfies rho o lift = (germ of arrow) o rho.  Right
    side: domain is the alpha-fibre of tgt(arrow); the inverse of the lift
    pushes alpha forward along the arrow's germ.
    """
    if side == "left":
        if b.rho[q] != b.left.src[arrow]:
            raise CatalogError("anchor mismatch: rho(q) is not the arrow's source")
        domain = b.rho_fibre(b.left.src[arrow])
        mapping = {p: b.left_act[(arrow, p)] for p in domain}
        ok = all(b.rho[mapping[p]] == b.left.tgt[arrow] for p in domain)
        return BisectionLift("left", arrow, mapping, ok)
    if side == "right":
        if b.alpha[q] != b.right.tgt[arrow]:
            raise CatalogError("anchor mismatch: alpha(q) is not the arrow's target")
        domain = b.alpha_fibre(b.right.tgt[arrow])
        mapping = {p: b.right_act[(p, arrow)] for p in domain}
        # alpha o mapping^-1 sends src(arrow) to tgt(arrow), the arrow's germ
        ok = all(b.alpha[mapping[p]] == b.right.src[arrow] for p in domain)
        return BisectionLift("right", arrow, mapping, ok)
    raise ValueError(f"unknown side {side!r}")


# ---------------------------------------------------------------------------
# weak equivalence pairs (appendix construction)


@dataclass
class StrictMorphism:
    source: FiniteGroupoid
    target: FiniteGroupoid
    obj_map: dict
    arr_map: dict

    def check_functor(self) -> ValidationReport:
        rep = ValidationReport(subject="strict morphism")
        S, T = self.source, self.target
        for a in S.arrows:
            img = self.arr_map.get(a)
            if img is None:
                rep.add(f"totality: no image for arrow {a!r}")
                continue
            if T.src[img] != self.obj_map[S.src[a]] or T.tgt[img] != self.obj_map[S.tgt[a]]:
                rep.add(f"endpoints: image of {a!r} has wrong endpoints")
        # image indices in T, -1 for a missing image; a pair fails unless its
        # composite and both images exist and the composite's image composes them
        index = T.arrow_index
        image = np.fromiter(
            (index.get(self.arr_map.get(a), -1) for a in S.arrows), np.int64, len(S.arrows)
        )
        later, earlier, composite = S.composites
        lhs = np.append(image, -1)[composite]
        rhs = T.compose_ids(image[later], image[earlier])
        for i in np.flatnonzero((lhs < 0) | (lhs != rhs)).tolist():
            rep.add(f"functoriality: ({S.arrows[later[i]]!r},{S.arrows[earlier[i]]!r})")
        for x in S.objects:
            if self.arr_map.get(S.unit[x]) != T.unit[self.obj_map[x]]:
                rep.add(f"units: image of unit at {x!r} is not a unit")
        return rep

    def check_weak_equivalence(self) -> ValidationReport:
        """Surjectivity on objects plus the cartesian arrow condition."""
        rep = self.check_functor()
        S, T = self.source, self.target
        if set(self.obj_map[x] for x in S.objects) != set(T.objects):
            rep.add("weak equivalence: object map is not surjective")
        # arrows q -> q' must biject with target arrows between the images
        for q in S.objects:
            for q2 in S.objects:
                here = S.arrows_between(q, q2)
                there = T.arrows_between(self.obj_map[q], self.obj_map[q2])
                images = [self.arr_map.get(a) for a in here]
                if len(images) != len(there) or set(images) != set(there) or len(
                    set(images)
                ) != len(images):
                    rep.add(
                        f"cartesian: arrows {q!r}->{q2!r} do not match the base arrows"
                    )
        return rep


@dataclass
class WeakEquivalencePair:
    middle: FiniteGroupoid
    to_left: StrictMorphism
    to_right: StrictMorphism

    def check(self) -> ValidationReport:
        rep = ValidationReport(subject="weak equivalence pair")
        for side, mor in (("left", self.to_left), ("right", self.to_right)):
            sub = mor.check_weak_equivalence()
            for v in sub.violations:
                rep.add(f"{side}: {v}")
        return rep


def weak_equivalence_pair(b: Bitorsor) -> WeakEquivalencePair:
    """Realize a bitorsor as a span of weak equivalences.

    The middle groupoid has the carrier as objects and arrows
    (sigma, q, tau) with src(sigma) == rho(q) and tgt(tau) == alpha(q),
    read as q -> (sigma . q) . tau.  One projection keeps sigma, the other
    keeps tau^-1.  This is one valid realization; nothing downstream may
    depend on the arrow labels.  The middle's composition is computed as
    its integer table, and its ``cmp`` is a ``TableCmp`` over that table.
    """
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

    # The rule a2 o a1 = (s2 o s1, q1, t1 o t2) in integers.  Arrows come
    # q-major, then s and t in arrow order, so the code (q, s, t) ascends
    # with the arrow index.
    carrier_index = {q: i for i, q in enumerate(b.carrier)}
    n_left, n_right = len(L.arrows), len(R.arrows)
    sigmas, points, taus = np.array(
        [(L.arrow_index[s], carrier_index[q], R.arrow_index[t]) for s, q, t in arrows],
        dtype=np.int64,
    ).reshape(-1, 3).T
    codes = (points * n_left + sigmas) * n_right + taus
    later, earlier = composable_index(*object_ids(arrows, src, tgt))
    left = L.compose_ids(sigmas[later], sigmas[earlier])
    right = R.compose_ids(taus[earlier], taus[later])
    wanted = (points[earlier] * n_left + left) * n_right + right
    result = np.searchsorted(codes, wanted).clip(max=max(len(codes) - 1, 0))
    bad = np.flatnonzero((left < 0) | (right < 0) | (codes[result] != wanted))
    if len(bad):
        i = bad[0]
        raise CatalogError(
            f"middle composite of ({arrows[later[i]]!r},{arrows[earlier[i]]!r}) is not a middle arrow"
        )
    table = np.stack([later, earlier, result], axis=1)

    inv = {}
    for a in arrows:
        s, q, t = a
        inv[a] = (L.inv[s], tgt[a], R.inv[t])
    unit = {q: (L.unit[b.rho[q]], q, R.unit[b.alpha[q]]) for q in b.carrier}
    middle = table_groupoid(
        arrows,
        table,
        objects=b.carrier,
        src=src,
        tgt=tgt,
        inv=inv,
        unit=unit,
        name=f"middle({b.name})",
    )
    to_left = StrictMorphism(
        source=middle,
        target=L,
        obj_map={q: b.rho[q] for q in b.carrier},
        arr_map={a: a[0] for a in arrows},
    )
    to_right = StrictMorphism(
        source=middle,
        target=R,
        obj_map={q: b.alpha[q] for q in b.carrier},
        arr_map={a: R.inv[a[2]] for a in arrows},
    )
    return WeakEquivalencePair(middle, to_left, to_right)


# ---------------------------------------------------------------------------
# fibre structure (isotropy bookkeeping across the equivalence)


@dataclass
class FibrePartition:
    y: object
    blocks: list
    block_sizes: list
    isotropy_rank: int
    rho_constant_on_blocks: bool
    rho_values: list
    left_ranks_match: bool

    def ok(self) -> bool:
        return (
            all(s == self.isotropy_rank for s in self.block_sizes)
            and self.rho_constant_on_blocks
            and self.left_ranks_match
        )


def fibre_partition_report(b: Bitorsor, y) -> FibrePartition:
    """Partition an alpha-fibre into isotropy orbits and compare ranks."""
    if y not in b.right.objects:
        raise KeyError(f"unknown object {y!r}")
    iso = isotropy(b.right, y)
    fibre = b.alpha_fibre(y)
    blocks = []
    seen = set()
    for q in fibre:
        if q in seen:
            continue
        block = sorted(
            {b.right_act[(q, t)] for t in iso.arrows} | {q}, key=repr
        )
        blocks.append(tuple(block))
        seen.update(block)
    sizes = [len(blk) for blk in blocks]
    rho_vals = [sorted({b.rho[q] for q in blk}, key=repr) for blk in blocks]
    constant = all(len(v) == 1 for v in rho_vals)
    ranks_ok = all(
        isotropy(b.left, b.rho[blk[0]]).rank == iso.rank for blk in blocks
    )
    return FibrePartition(
        y=y,
        blocks=blocks,
        block_sizes=sizes,
        isotropy_rank=iso.rank,
        rho_constant_on_blocks=constant,
        rho_values=[v[0] for v in rho_vals] if constant else rho_vals,
        left_ranks_match=ranks_ok,
    )


# ---------------------------------------------------------------------------
# the covering family (free rotation quotients)


@dataclass(frozen=True, eq=False)
class QuotientCovering:
    """Morita equivalence between a free rotation groupoid and its quotient.

    Upstairs: Z_m acting freely on a circle by rotations.  The carrier is
    the upstairs circle itself; rho is the identity and alpha the covering
    projection onto the quotient circle of circumference L/m.  This is the
    only mixed Fourier carrier family in the catalog; anything else is
    rejected at construction time.
    """

    upstairs: ActionGroupoid
    degree: int
    downstairs: FourierCircle

    @classmethod
    def of(cls, G: ActionGroupoid, cutoff=None) -> "QuotientCovering":
        if not isinstance(G.base, FourierCircle):
            raise CatalogError("covering family needs a circle base")
        m = G.group.order
        turns = sorted(G.iso[g].turns for g in G.group.elements)
        if turns != [Fraction(k, m) for k in range(m)]:
            raise CatalogError(
                "covering family needs a free rotation action (turns k/m); "
                f"got {turns!r}"
            )
        cutoff = G.base.mode_cutoff if cutoff is None else cutoff
        down = FourierCircle(G.base.circumference / m, max(2, cutoff))
        return cls(upstairs=G, degree=m, downstairs=down)

    def deck_element(self, branch_from: int, branch_to: int):
        """Group element whose rotation carries one branch onto another."""
        diff = (branch_to - branch_from) % self.degree
        for g in self.upstairs.group.elements:
            if self.upstairs.iso[g].turns == Fraction(diff, self.degree):
                return g
        raise CatalogError("no deck element between branches")
