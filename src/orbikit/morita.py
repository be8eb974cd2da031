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
from itertools import repeat

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
    expand_runs,
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
    groupoid has isotropy).  Both actions are read from ``G.table``.
    """
    carrier = tuple(G.arrows)
    _, src, tgt = G.endpoint_ids
    q, s = composable_index(tgt, src)  # s . q, q-major
    later, earlier, _ = G.composites  # q . t, q-major
    return Bitorsor(
        left=G,
        right=G,
        carrier=carrier,
        rho=dict(G.tgt),
        alpha=dict(G.src),
        left_act=_composite_labels(G, s, q),
        right_act=_composite_labels(G, later, earlier),
        name=f"id({G.name})",
    )


def _composite_labels(G: FiniteGroupoid, later, earlier) -> dict:
    """``(later, earlier) -> later o earlier`` as labels, in the order of the index
    arrays; a pair the table lacks is read from ``G.cmp``, so it raises ``KeyError``."""
    result = G.compose_ids(later, earlier)
    arrows = G.arrows
    values = [arrows[i] for i in result.tolist()]
    for i in np.flatnonzero(result < 0).tolist():
        values[i] = G.cmp[(arrows[later[i]], arrows[earlier[i]])]
    pairs = zip(map(arrows.__getitem__, later.tolist()), map(arrows.__getitem__, earlier.tolist()))
    return dict(zip(pairs, values))


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
    canonical frozensets of pairs, sorted by their members' reprs.  The
    pairs are point indices of the action arrays (``_action_arrays``); a
    class is a connected component of the graph of those moves, and each
    class acts through its first pair.
    """
    if b1.right is not b2.left:
        raise CatalogError("middle groupoids differ; cannot compose")
    mid = b1.right
    left1, right1, index1 = _action_arrays(b1)
    left2, right2, index2 = _action_arrays(b2)
    points1, points2 = list(index1), list(index2)
    # a pair (i1, i2) of point indices has the code i1 * m + i2
    m = len(points2)
    ids = {}
    alpha1 = label_ids(ids, b1.carrier, b1.alpha)
    rho2 = label_ids(ids, b2.carrier, {q: b2.rho.get(q) for q in b2.carrier})
    codes = np.ravel_multi_index(composable_index(alpha1, rho2), (len(points1), m))
    # the moves sigma from each point of b1, sigma^-1 on the b2 side
    moves_from, sigma = np.nonzero(right1[:-1, : len(mid.arrows)] >= 0)
    n_moves = np.bincount(moves_from, minlength=len(points1))
    inverse = np.array([mid.arrow_index.get(mid.inv[s], -1) for s in mid.arrows], dtype=np.int64)
    # close the pairs under the moves; a move may reach a pair that is not
    # listed (an action that breaks the anchors), which then moves on too
    no_edges = np.zeros(0, dtype=np.int64)
    frontier, tail, head = codes, [no_edges], [no_edges]
    while len(frontier):
        i1, i2 = np.divmod(frontier, m)
        row, j = expand_runs(n_moves[i1], (np.cumsum(n_moves) - n_moves)[i1])
        there = left2[inverse[sigma[j]], i2[row]]
        step = there >= 0
        tail.append(frontier[row][step])
        head.append(right1[i1[row], sigma[j]][step] * m + there[step])
        frontier = np.setdiff1d(head[-1], codes)
        codes = np.union1d(codes, frontier)
    tail, head = np.searchsorted(codes, np.concatenate(tail)), np.searchsorted(codes, np.concatenate(head))
    root = _components(len(codes), tail, head)

    i1, i2 = np.divmod(codes, m)
    pairs = list(zip([points1[i] for i in i1.tolist()], [points2[i] for i in i2.tolist()]))
    # one block of pair indices per class, ascending, so a block starts at its root
    order = np.argsort(root, kind="stable")
    sizes = np.bincount(root, minlength=len(codes))
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    blocks = [order[start:end] for start, end in zip([0, *ends], ends)]
    reprs = [repr(p) for p in pairs]
    blocks.sort(key=lambda block: sorted(reprs[k] for k in block.tolist()))
    carrier = tuple(frozenset(pairs[k] for k in block.tolist()) for block in blocks)
    position = np.empty(len(codes), dtype=np.int64)
    for c, block in enumerate(blocks):
        position[block] = c
    first = np.array([block[0] for block in blocks], dtype=np.int64)
    # anchors are class invariants; guard while building
    rho = label_ids({}, [points1[i] for i in i1.tolist()], b1.rho)
    alpha = label_ids({}, [points2[i] for i in i2.tolist()], b2.alpha)
    anchor = first[position]
    if (rho != rho[anchor]).any() or (alpha != alpha[anchor]).any():
        raise CatalogError("composite anchors are not class invariants")

    def classes(to):
        """The carrier classes of the pair codes ``to``; a code that is no pair raises."""
        k = np.searchsorted(codes, to).clip(max=len(codes) - 1)
        missing = np.flatnonzero(codes[k] != to)
        if len(missing):
            raise KeyError((points1[to[missing[0]] // m], points2[to[missing[0]] % m]))
        return [carrier[p] for p in position[k].tolist()]

    # each class acts through its first pair (r1, r2)
    r1, r2 = i1[first], i2[first]
    c, s = np.nonzero(left1[: len(b1.left.arrows), r1].T >= 0)
    left_act = dict(zip(
        zip([b1.left.arrows[i] for i in s.tolist()], [carrier[i] for i in c.tolist()]),
        classes(left1[s, r1[c]] * m + r2[c]),
    ))
    c, t = np.nonzero(right2[r2, : len(b2.right.arrows)] >= 0)
    right_act = dict(zip(
        zip([carrier[i] for i in c.tolist()], [b2.right.arrows[i] for i in t.tolist()]),
        classes(r1[c] * m + right2[r2[c], t]),
    ))
    return Bitorsor(
        left=b1.left,
        right=b2.right,
        carrier=carrier,
        rho={cls: b1.rho[points1[i]] for cls, i in zip(carrier, r1.tolist())},
        alpha={cls: b2.alpha[points2[i]] for cls, i in zip(carrier, r2.tolist())},
        left_act=left_act,
        right_act=right_act,
        name=f"({b1.name} * {b2.name})",
    )


def _components(n, tail, head) -> np.ndarray:
    """The smallest node of each node's connected component, over edges ``tail -- head``.

    Each node takes the smallest label among its neighbours and then its
    label's label, until nothing moves: on a union of cliques, such as the
    classes of a groupoid action, that is two rounds.
    """
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, tail, label[head])
        np.minimum.at(low, head, label[tail])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


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
        return self._check_functor(*self._images())

    def _images(self):
        """``(image, obj, onto)`` as int arrays over the target's ``endpoint_ids``.

        ``image`` is the target index of each source arrow's image, -1 where
        it has none; ``obj`` the target id of each source object id; and
        ``onto`` whether an arrow's image runs between the images of its
        ends.  An image that is not a target arrow raises ``KeyError``.
        """
        S, T = self.source, self.target
        images = list(map(self.arr_map.get, S.arrows))
        image = np.fromiter(map(T.arrow_index.get, images, repeat(-1)), np.int64, len(images))
        for i in np.flatnonzero(image < 0).tolist():
            if images[i] is not None:
                raise KeyError(images[i])
        obj = label_ids(dict(T.endpoint_ids[0]), S.endpoint_ids[0], self.obj_map)
        _, s_src, s_tgt = S.endpoint_ids
        _, t_src, t_tgt = T.endpoint_ids
        onto = (np.append(t_src, -1)[image] == obj[s_src]) & (np.append(t_tgt, -1)[image] == obj[s_tgt])
        return image, obj, onto

    def _check_functor(self, image, obj, onto) -> ValidationReport:
        rep = ValidationReport(subject="strict morphism")
        S, T = self.source, self.target
        for i in np.flatnonzero(~onto).tolist():
            if image[i] < 0:
                rep.add(f"totality: no image for arrow {S.arrows[i]!r}")
            else:
                rep.add(f"endpoints: image of {S.arrows[i]!r} has wrong endpoints")
        # a pair fails unless its composite and both images exist and the
        # composite's image composes them
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
        """Surjectivity on objects plus the cartesian arrow condition.

        For each ordered pair of source objects, the arrows between them
        must map one to one onto the target arrows between their images:
        per pair, the count of arrows, of distinct images, of images that
        are target arrows between the images of the ends, and of those
        target arrows must all agree.
        """
        image, obj, onto = self._images()
        rep = self._check_functor(image, obj, onto)
        S, T = self.source, self.target
        if set(self.obj_map[x] for x in S.objects) != set(T.objects):
            rep.add("weak equivalence: object map is not surjective")
        objects = list(dict.fromkeys(S.objects))  # ids 0, 1, ... of S.endpoint_ids
        k, n_images = len(objects), len(T.arrows) + 1
        _, s_src, s_tgt = S.endpoint_ids
        _, t_src, t_tgt = T.endpoint_ids
        inside = (s_src < k) & (s_tgt < k)
        ends, image = (s_src * k + s_tgt)[inside], image[inside]
        here = np.bincount(ends, minlength=k * k)
        distinct = np.bincount(np.unique(ends * n_images + image + 1) // n_images, minlength=k * k)
        hits = np.bincount(ends[onto[inside]], minlength=k * k)
        # target arrows between the images of each pair of source objects
        width = int(max(obj.max(initial=-1), t_src.max(initial=-1), t_tgt.max(initial=-1))) + 1
        codes, counts = np.unique(t_src * width + t_tgt, return_counts=True)
        wanted = (obj[:k, None] * width + obj[None, :k]).ravel()
        pos = np.searchsorted(codes, wanted).clip(max=max(len(codes) - 1, 0))
        there = np.where(codes[pos] == wanted, counts[pos], 0) if len(codes) else np.zeros_like(wanted)
        for i in np.flatnonzero((here != there) | (distinct != here) | (hits != here)).tolist():
            q, q2 = objects[i // k], objects[i % k]
            rep.add(f"cartesian: arrows {q!r}->{q2!r} do not match the base arrows")
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
    depend on the arrow labels.  The middle is built from the action arrays
    (``_action_arrays``): its arrows, ends and composition table are index
    arrays, and its ``cmp`` is a ``TableCmp`` over that table.
    """
    L, R = b.left, b.right
    carrier, n = b.carrier, len(b.carrier)
    left_act, right_act, index = _action_arrays(b)
    points = list(index)
    ids, _, r_tgt = R.endpoint_ids
    into, into_start, by_target, slot = R.into_fibres
    alpha = np.fromiter((ids.get(b.alpha[q], -1) for q in carrier), np.int64, n)
    n_taus = np.where(alpha >= 0, into[alpha], 0)
    # arrows q-major, then sigma among those acting on q, then tau among the arrows into alpha(q)
    acts = left_act[: len(L.arrows), :n] >= 0
    point, sigma = np.nonzero(acts.T)
    row, j = expand_runs(n_taus[point], np.where(alpha >= 0, into_start[alpha], 0)[point])
    sigmas, qs, taus = sigma[row], point[row], by_target[j]
    ends = right_act[left_act[sigmas, qs], taus]
    if (ends < 0).any():
        i = np.flatnonzero(ends < 0)[0]
        raise KeyError((points[left_act[sigmas[i], qs[i]]], R.arrows[taus[i]]))
    sigma_of = [L.arrows[s] for s in sigmas.tolist()]
    q_of = [points[i] for i in qs.tolist()]
    end_of = [points[i] for i in ends.tolist()]
    arrows = tuple(zip(sigma_of, q_of, [R.arrows[t] for t in taus.tolist()]))

    # The rule a2 o a1 = (s2 o s1, q1, t1 o t2) in integers.  (s, q, t) sits
    # at start[q] + rank(s at q) * n_taus[q] + slot(t), where rank(s at q)
    # counts the arrows acting on q before s and slot(t) the arrows into
    # alpha(q) before t.  For a1 ending at p, its composite with (s2, p, t2)
    # takes the first two terms from s2 alone and the last from t2 alone, so
    # each is composed once per (a1, s2) and per (a1, t2), then gathered.
    n_sigmas = acts.sum(axis=0)
    sizes = n_sigmas * n_taus
    start = np.cumsum(sizes) - sizes
    ranks = np.vstack([np.where(acts, np.cumsum(acts, axis=0) - 1, -1), np.full(n, -1)])
    inside = ends < n  # an arrow ending outside the carrier composes with nothing
    p = np.where(inside, ends, 0)
    s_counts = np.where(inside, n_sigmas[p], 0)
    e, j = expand_runs(s_counts, (np.cumsum(n_sigmas) - n_sigmas)[p])
    s_rank = ranks[L.compose_ids(sigma[j], sigmas[e]), qs[e]]
    s_part = start[qs[e]] + s_rank * n_taus[qs[e]]
    t_counts = np.where(inside, n_taus[p], 0)
    e, j = expand_runs(t_counts, np.where(alpha >= 0, into_start[alpha], 0)[p])
    right = R.compose_ids(taus[e], by_target[j])
    t_ok = (right >= 0) & (np.append(r_tgt, -1)[right] == alpha[qs[e]])
    t_part = slot[right]

    later, earlier = composable_index(qs, ends)
    s_at = (np.cumsum(s_counts) - s_counts)[earlier] + ranks[sigmas, qs][later]
    t_at = (np.cumsum(t_counts) - t_counts)[earlier] + slot[taus][later]
    if (s_rank < 0).any() or not t_ok.all():
        bad = np.flatnonzero((s_rank[s_at] < 0) | ~t_ok[t_at])
        if len(bad):
            i = bad[0]
            raise CatalogError(
                f"middle composite of ({arrows[later[i]]!r},{arrows[earlier[i]]!r}) is not a middle arrow"
            )
    result = s_part[s_at] + t_part[t_at]

    left_inverse = [L.inv[s] for s in L.arrows]
    right_inverse = [R.inv[t] for t in R.arrows]
    tau_inverse = [right_inverse[t] for t in taus.tolist()]
    middle = table_groupoid(
        arrows,
        np.stack([later, earlier, result], axis=1),
        objects=carrier,
        src=dict(zip(arrows, q_of)),
        tgt=dict(zip(arrows, end_of)),
        inv=dict(zip(arrows, zip([left_inverse[s] for s in sigmas.tolist()], end_of, tau_inverse))),
        unit={q: (L.unit[b.rho[q]], q, R.unit[b.alpha[q]]) for q in carrier},
        name=f"middle({b.name})",
    )
    to_left = StrictMorphism(
        source=middle,
        target=L,
        obj_map={q: b.rho[q] for q in carrier},
        arr_map=dict(zip(arrows, sigma_of)),
    )
    to_right = StrictMorphism(
        source=middle,
        target=R,
        obj_map={q: b.alpha[q] for q in carrier},
        arr_map=dict(zip(arrows, tau_inverse)),
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
