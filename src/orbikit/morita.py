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

A ``Bitorsor`` holds both actions as int arrays of point indices
(``left_ids``, ``right_ids``), which the constructors here fill directly
and every check, construction and witness reads.  Labels appear only at
the boundary: ``left_act`` and ``right_act`` are label views built on
first read, and label dicts handed in by a caller are converted once, when
the bitorsor is built.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat

import numpy as np

from .bases import CatalogError, FourierCircle
from .groupoids import (
    ActionGroupoid,
    CechCover,
    FiniteGroupoid,
    cech_groupoid,
    components,
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


class ActionTable(Mapping):
    """One action of a bitorsor: its int array ``ids``, read as a label mapping.

    ``ids`` has the layout of ``Bitorsor.left_ids`` (``side`` "left") or of
    ``Bitorsor.right_ids``, filled from ``entries``, the ``(rows, columns,
    values)`` index arrays of the defined entries.  The label dict is built
    on the first key access, point-major (by q, then arrow); ``len`` counts
    the array.  Given ``labels``, that dict is the view, kept as given.
    """

    def __init__(self, side, arrows, carrier, points, entries, labels=None):
        self.side, self.arrows, self.carrier, self.points = side, arrows, carrier, points
        shape = (len(arrows) + 1, len(points) + 1)
        self.ids = np.full(shape if side == "left" else shape[::-1], -1, dtype=np.int64)
        self.ids[entries[0], entries[1]] = entries[2]
        if labels is not None:
            self._dict = labels

    @cached_property
    def _dict(self) -> dict:
        by_point = self.ids[:-1, :-1].T if self.side == "left" else self.ids[:-1, :-1]
        q, a = np.nonzero(by_point >= 0)
        points = np.fromiter(self.points, dtype=object, count=len(self.points))
        qs = points[q].tolist()
        arrows = np.fromiter(self.arrows, dtype=object, count=len(self.arrows))[a].tolist()
        keys = zip(arrows, qs) if self.side == "left" else zip(qs, arrows)
        return dict(zip(keys, points[by_point[q, a]].tolist()))

    def fits(self, arrows, carrier) -> bool:
        """Whether ``ids`` is laid out over these arrows and this carrier, in this order."""
        return (self.arrows is arrows or self.arrows == arrows) and (
            self.carrier is carrier or self.carrier == carrier)

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        labels = self.__dict__.get("_dict")
        return int(np.count_nonzero(self.ids[:-1, :-1] >= 0)) if labels is None else len(labels)


@dataclass(frozen=True, eq=False)
class Bitorsor:
    """A generalized homomorphism, with both actions held as int arrays.

    ``points`` lists the carrier, then each action value outside it.
    ``left_ids[s, q]`` (``(|L|+1, points+1)``) is the point index of
    ``sigma . q`` for the left arrow of index ``s``, ``right_ids[q, t]``
    (``(points+1, |R|+1)``) that of ``q . tau``; -1 where undefined, and the
    last row and column are all -1, so a gather at -1 reads undefined.

    ``left_act`` and ``right_act`` are their label views (``ActionTable``).
    Given label dicts, the bitorsor converts them once, here, and keeps them
    as its views; a key naming neither an arrow nor a point is left out of
    the arrays.  Two ``ActionTable``s over one ``points`` and over this
    bitorsor's arrows and carrier, in the same order, lend their arrays; so
    ``dataclasses.replace`` re-derives the arrays from the labels when an
    action is replaced, or a new ``left``, ``right`` or ``carrier`` reorders
    them.
    """

    left: FiniteGroupoid
    right: FiniteGroupoid
    carrier: tuple
    rho: dict
    alpha: dict
    left_act: Mapping  # (sigma, q) -> q'
    right_act: Mapping  # (q, tau) -> q'
    name: str = "bitorsor"
    points: tuple = field(init=False, repr=False)
    left_ids: np.ndarray = field(init=False, repr=False)
    right_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        left, right, carrier = self.left_act, self.right_act, self.carrier
        lent = (isinstance(left, ActionTable) and isinstance(right, ActionTable) and left.points is right.points
                and left.fits(self.left.arrows, carrier) and right.fits(self.right.arrows, carrier))
        if not lent:
            index = {q: i for i, q in enumerate(carrier)}
            values = [[index.setdefault(v, len(index)) for v in act.values()] for act in (left, right)]
            points = tuple(index)
            left, right = (_table_of_labels(side, act, G, carrier, points, index, v) for side, act, G, v
                           in zip(("left", "right"), (left, right), (self.left, self.right), values))
        for name, value in (("left_act", left), ("right_act", right), ("points", left.points),
                            ("left_ids", left.ids), ("right_ids", right.ids)):
            object.__setattr__(self, name, value)

    @classmethod
    def of_entries(cls, left, right, carrier, rho, alpha, left_entries, right_entries, name, points=None):
        """The bitorsor whose actions have the defined entries ``(s, q, v)``
        (``sigma_s . q = v``) and ``(q, t, v)`` (``q . tau_t = v``), index
        arrays over ``points`` (the carrier when None)."""
        points = carrier if points is None else points
        return cls(left, right, carrier, rho, alpha, ActionTable("left", left.arrows, carrier, points, left_entries),
                   ActionTable("right", right.arrows, carrier, points, right_entries), name)

    @cached_property
    def point_index(self) -> dict:
        """point -> its index in ``points``."""
        return {q: i for i, q in enumerate(self.points)}

    # fibre index, built from rho/alpha: anchor value -> carrier points in carrier order
    @cached_property
    def _rho_fibres(self) -> dict:
        return group_by(self.carrier, self.rho.get)

    @cached_property
    def _alpha_fibres(self) -> dict:
        return group_by(self.carrier, self.alpha.get)

    def rho_fibre(self, x):
        return self._rho_fibres.get(x, ())

    def alpha_fibre(self, y):
        return self._alpha_fibres.get(y, ())


def _table_of_labels(side, act, G, carrier, points, index, values) -> ActionTable:
    """The ``ActionTable`` over a label action ``act`` of ``G``'s arrows on
    ``points``; ``values`` are the point indices of its values, in its order."""
    at = 0 if side == "left" else 1
    arrows = np.fromiter((G.arrow_index.get(key[at], -1) for key in act), np.int64, len(act))
    moved = np.fromiter((index.get(key[1 - at], -1) for key in act), np.int64, len(act))
    keep = (arrows >= 0) & (moved >= 0)
    entries = (arrows[keep], moved[keep]) if side == "left" else (moved[keep], arrows[keep])
    return ActionTable(side, G.arrows, carrier, points, (*entries, np.array(values, np.int64)[keep]), act)


def _extra_points(found, label_of, n, extras) -> np.ndarray:
    """``found`` point indices, each -1 replaced by the point after the ``n``
    carrier points named ``label_of(i)``; ``extras`` numbers those points."""
    for i in np.flatnonzero(found < 0).tolist():
        found[i] = n + extras.setdefault(label_of(i), len(extras))
    return found


# ---------------------------------------------------------------------------
# torsor witnesses


def left_witness(b: Bitorsor, q, q2):
    """The unique left arrow with sigma . q == q2 (same alpha-fibre)."""
    index = b.point_index
    return b.left.arrows[_witnesses(b, "left", [index.get(q, -1)], [index.get(q2, -2)], lambda _: (q, q2))[0]]


def right_witness(b: Bitorsor, q, q2):
    """The unique right arrow with q . tau == q2 (same rho-fibre)."""
    index = b.point_index
    return b.right.arrows[_witnesses(b, "right", [index.get(q, -1)], [index.get(q2, -2)], lambda _: (q, q2))[0]]


def left_witnesses(b: Bitorsor, sources, targets, stuck) -> np.ndarray:
    """Per right arrow tau, the index of the unique left arrow sigma with
    ``sigma . sources[tau] == targets[tau] . tau``, over point indices.

    The first arrow that fails raises: ``stuck(k)`` when ``targets[k]``
    cannot move along arrow ``k``, the witness error otherwise.
    """
    moved = b.right_ids[targets, np.arange(len(b.right.arrows))]
    sources = np.asarray(sources, dtype=np.int64)

    def pair_of(k):
        return b.points[sources[k]], b.points[moved[k]]

    for k in np.flatnonzero(moved < 0)[:1].tolist():
        _witnesses(b, "left", sources[:k], moved[:k], pair_of)
        raise stuck(k)
    return _witnesses(b, "left", sources, moved, pair_of)


def _witnesses(b: Bitorsor, side, q, q2, pair_of) -> np.ndarray:
    """Per point pair ``(q[i], q2[i])`` of indices, the index of the one arrow of
    ``side`` carrying ``q[i]`` to ``q2[i]``; the first pair with no such arrow,
    or more than one, raises, naming the labels ``pair_of(i)``."""
    q = np.asarray(q, dtype=np.int64)
    moved = b.left_ids[:-1, q] if side == "left" else b.right_ids[q, :-1].T
    hits = moved == np.asarray(q2, dtype=np.int64)
    bad = np.flatnonzero(hits.sum(axis=0) != 1)
    if len(bad):
        arrows = b.left.arrows if side == "left" else b.right.arrows
        found = [arrows[i] for i in np.flatnonzero(hits[:, bad[0]]).tolist()]
        p, p2 = pair_of(bad[0])
        raise CatalogError(f"{side} torsor witness for {p!r} -> {p2!r} is not unique: {found!r}")
    return hits.argmax(axis=0)


# ---------------------------------------------------------------------------
# validation


def validate_generalized_hom(b: Bitorsor, mode: str = "bitorsor") -> ValidationReport:
    """Exhaustive check of the generalized-homomorphism / bitorsor axioms.

    mode "generalized" checks the one-sided (right torsor over X) axioms;
    mode "bitorsor" additionally checks the left torsor condition over Y.
    Violations are report entries naming the failing pair or fibre.

    The actions are checked on the bitorsor's int arrays; each violation is
    reported as a loop over the labels would meet it, for example
    arrow-major and then in carrier order for the action domains.  A
    missing action entry reads as undefined, and so does a composite or
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
    left_act, right_act = b.left_ids, b.right_ids
    n_points, points = len(b.points), np.arange(n)
    # object ids per side, from the groupoid's endpoint ids; rho and alpha extend a copy
    left_ids, l_src, l_tgt = L.endpoint_ids
    right_ids, r_src, r_tgt = R.endpoint_ids
    rho, alpha = label_ids(dict(left_ids), carrier, b.rho), label_ids(dict(right_ids), carrier, b.alpha)
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
    index = b.point_index
    _report_torsor(rep, "right", "rho", L.objects, b.rho_fibre, index, n_points,
                   lambda ids: right_act[ids, :n_right])
    if mode == "generalized":
        return rep
    # left torsor over Y
    _report_torsor(rep, "left", "alpha", R.objects, b.alpha_fibre, index, n_points,
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


def _report_torsor(rep, side, anchor, objects, fibre_of, index, n_points, values_of):
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
        position = np.full(n_points + 1, -1)
        position[ids] = np.arange(f)
        found = position[values_of(ids)]
        rows = np.broadcast_to(np.arange(f)[:, None], found.shape)[found >= 0]
        hits = np.bincount(rows * f + found[found >= 0], minlength=f * f).reshape(f, f)
        for i, k in zip(*np.nonzero(hits != 1)):
            rep.add(f"{side} torsor: {hits[i, k]} arrows carry {fibre[i]!r} to {fibre[k]!r} over {x!r}")


# ---------------------------------------------------------------------------
# canonical constructions


def identity_bitorsor(G: FiniteGroupoid) -> Bitorsor:
    """G as a bitorsor over itself: carrier = arrows, anchors (tgt, src).

    Composition acts on both sides; this is the unit of bitorsor
    composition (a carrier of bare objects fails freeness as soon as the
    groupoid has isotropy).  Both actions are read from ``G.table``; a pair
    the table lacks is read from ``G.cmp``, so it raises ``KeyError``, and a
    composite there that is no arrow is a point after the carrier.
    """
    carrier = tuple(G.arrows)
    n, extras = len(carrier), {}
    _, src, tgt = G.endpoint_ids
    q, s = composable_index(tgt, src)  # s . q, q-major
    later, earlier, result = G.composites  # q . t, q-major
    left = _extra_points(G.compose_ids(s, q), lambda i: G.cmp[(carrier[s[i]], carrier[q[i]])], n, extras)
    right = _extra_points(result.copy(), lambda i: G.cmp[(carrier[later[i]], carrier[earlier[i]])], n, extras)
    return Bitorsor.of_entries(G, G, carrier, dict(G.tgt), dict(G.src), (s, q, left),
                               (later, earlier, right), f"id({G.name})", carrier + tuple(extras))


def inverse_bitorsor(b: Bitorsor) -> Bitorsor:
    """Swap the two sides; actions are re-anchored through arrow inverses."""
    n, inv_left, inv_right = len(b.carrier), b.left.inverse_ids, b.right.inverse_ids
    q, t = np.nonzero(b.right_ids[:n, inv_right] >= 0)  # t . q = q . t^-1
    p, s = np.nonzero(b.left_ids[inv_left, :n].T >= 0)  # p . s = s^-1 . p
    return Bitorsor.of_entries(b.right, b.left, b.carrier, dict(b.alpha), dict(b.rho),
                               (t, q, b.right_ids[q, inv_right[t]]), (p, s, b.left_ids[inv_left[s], p]),
                               f"inv({b.name})", b.points)


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
    q, a = np.arange(2 * N)[:, None], np.arange(2 * N)[None, :]
    # 1 . q = q + N; q . (a, y) is defined iff y + a = q mod N, and (a, y) has index a * N + y
    left = (np.array([[0], [1]]), q.T, (q.T + np.array([[0], [N]])) % (2 * N))
    right = (q, a * N + (q - a) % N, (q - a) % (2 * N))
    return theta, xi, Bitorsor.of_entries(
        theta, xi, carrier, {q: "*" for q in carrier}, {q: q % N for q in carrier}, left, right, f"a2(N={N})"
    )


# ---------------------------------------------------------------------------
# composition and 2-morphisms


def compose_homs(b1: Bitorsor, b2: Bitorsor) -> Bitorsor:
    """Compose X<->Y with Y<->Z through the shared middle groupoid.

    Carrier: pairs (q1, q2) with alpha1(q1) == rho2(q2), modulo
    (q1, q2) ~ (q1 . sigma, sigma^-1 . q2).  Classes are stored as
    canonical frozensets of pairs, sorted by their members' reprs.  The
    pairs are point indices of the two bitorsors; a class is a connected
    component of the graph of those moves, and each class acts through its
    first pair.
    """
    if b1.right is not b2.left:
        raise CatalogError("middle groupoids differ; cannot compose")
    mid = b1.right
    left1, right1, points1 = b1.left_ids, b1.right_ids, b1.points
    left2, right2, points2 = b2.left_ids, b2.right_ids, b2.points
    # a pair (i1, i2) of point indices has the code i1 * m + i2
    m = len(points2)
    ids = {}
    alpha1 = label_ids(ids, b1.carrier, b1.alpha)
    rho2 = label_ids(ids, b2.carrier, {q: b2.rho.get(q) for q in b2.carrier})
    codes = np.ravel_multi_index(composable_index(alpha1, rho2), (len(points1), m))
    # the moves sigma from each point of b1, sigma^-1 on the b2 side
    moves_from, sigma = np.nonzero(right1[:-1, : len(mid.arrows)] >= 0)
    n_moves = np.bincount(moves_from, minlength=len(points1))
    inverse = mid.inverse_ids
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
    root = components(len(codes), tail, head)

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
        return position[k]

    # each class acts through its first pair (r1, r2)
    r1, r2 = i1[first], i2[first]
    c, s = np.nonzero(left1[:-1, r1].T >= 0)
    left = (s, c, classes(left1[s, r1[c]] * m + r2[c]))
    c2, t = np.nonzero(right2[r2, :-1] >= 0)
    right = (c2, t, classes(r1[c2] * m + right2[r2[c2], t]))
    return Bitorsor.of_entries(
        b1.left, b2.right, carrier,
        {cls: b1.rho[points1[i]] for cls, i in zip(carrier, r1.tolist())},
        {cls: b2.alpha[points2[i]] for cls, i in zip(carrier, r2.tolist())},
        left, right, f"({b1.name} * {b2.name})",
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
        # T on the points of b1, as point indices of b2; -2 where T names none
        index = b2.point_index
        image = np.array([index.get(T.get(p), -2) for p in b1.points] + [-1], dtype=np.int64)
        for G1, G2, ids1, ids2 in ((b1.left, b2.left, b1.left_ids, b2.left_ids),
                                   (b1.right, b2.right, b1.right_ids.T, b2.right_ids.T)):
            arrows = (np.arange(len(G1.arrows)) if G1.arrows == G2.arrows else
                      np.array([G2.arrow_index.get(a, -1) for a in G1.arrows], dtype=np.int64))
            a, q = np.nonzero(ids1[:-1, :-1] >= 0)
            there = image[q]
            moved = np.where(there >= 0, ids2[arrows[a], there.clip(0)], -3)
            if (moved != image[ids1[a, q]]).any():
                return False
        return True


def find_two_morphism(b1: Bitorsor, b2: Bitorsor, node_cap: int = 10**6):
    """Search for an equivariant bijection between two carriers.

    Returns a TwoMorphism, None when provably absent, or INCONCLUSIVE when
    the backtracking search exceeds ``node_cap`` nodes.  Equivariance
    propagates through both actions, so a single seed per connected block
    forces the rest.  An assignment is an int array from the points of b1
    to those of b2, -1 where unassigned.
    """
    if b1.left is not b2.left or b1.right is not b2.right:
        return None
    if len(b1.carrier) != len(b2.carrier):
        return None

    n, nodes = len(b1.carrier), 0
    # row per arrow of either side: where it moves each point
    moves1 = np.vstack([b1.left_ids[:-1], b1.right_ids.T[:-1]])
    moves2 = np.vstack([b2.left_ids[:-1], b2.right_ids.T[:-1]])
    anchors1 = [(b1.rho[q], b1.alpha[q]) for q in b1.carrier]
    anchors2 = [(b2.rho[q], b2.alpha[q]) for q in b2.carrier]

    def propagate(assign, q0, image):
        """Close assign under both actions starting from q0; None on clash."""
        if image in assign:
            return None
        assign = assign.copy()
        assign[q0] = image
        stack = [q0]
        while stack:
            q = stack.pop()
            p2, t2 = moves1[:, q], moves2[:, assign[q]]
            p2, t2 = p2[p2 >= 0], t2[p2 >= 0]
            if (t2 < 0).any():
                return None
            known = assign[p2] >= 0
            if (assign[p2][known] != t2[known]).any():
                return None
            fresh, t2 = p2[~known], t2[~known]
            assign[fresh] = t2
            if (assign[fresh] != t2).any():  # one point reached with two images
                return None
            stack.extend(np.unique(fresh).tolist())
        images = assign[assign >= 0]
        return assign if len(np.unique(images)) == len(images) else None

    def extend(assign):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            return INCONCLUSIVE
        missing = np.flatnonzero(assign[:n] < 0)
        if not len(missing):
            tm = TwoMorphism({b1.points[i]: b2.points[j] for i, j in enumerate(assign.tolist()) if j >= 0})
            return tm if tm.check(b1, b2) else None
        q0 = missing[0]
        taken = set(assign.tolist())
        for cand in range(n):
            if cand in taken or anchors2[cand] != anchors1[q0]:
                continue
            closed = propagate(assign, q0, cand)
            if closed is None:
                continue
            res = extend(closed)
            if res is INCONCLUSIVE or res is not None:
                return res
        return None

    return extend(np.full(len(b1.points), -1, dtype=np.int64))


# ---------------------------------------------------------------------------
# Cech localization


def _cech_parts(C: FiniteGroupoid, G: FiniteGroupoid):
    """Parent index, target sheet and source sheet of each arrow (s, a, b) of C, the Cech groupoid of G."""
    index = G.arrow_index
    return np.array([(index[s], a, b) for s, a, b in C.arrows], dtype=np.int64).reshape(-1, 3).T


def localize_cech(b: Bitorsor, cover_x: CechCover, cover_y: CechCover):
    """Restrict a bitorsor to Cech groupoids of covers on both bases.

    Carrier points are tagged (q, a, i) with rho(q) in sheet a and
    alpha(q) in sheet i.  Returns (localized bitorsor, cech_x, cech_y).
    Both actions are gathers from the parent's arrays.
    """
    validate_cover(b.left, cover_x).raise_if_invalid()
    validate_cover(b.right, cover_y).raise_if_invalid()
    cech_x = cech_groupoid(b.left, cover_x)
    cech_y = cech_groupoid(b.right, cover_y)
    x_sheets, y_sheets = cache(cover_x.sheets_containing), cache(cover_y.sheets_containing)
    tags = [(j, a, i) for j, q in enumerate(b.carrier) for a in x_sheets(b.rho[q]) for i in y_sheets(b.alpha[q])]
    q_of, a_of, i_of = np.array(tags, dtype=np.int64).reshape(-1, 3).T
    lone = np.flatnonzero(np.bincount(q_of, minlength=len(b.carrier)) == 0)
    if len(lone):
        raise CatalogError(f"cover mismatch: carrier point {b.carrier[lone[0]]!r} lies in no sheet pair")
    carrier = tuple((b.carrier[j], a, i) for j, a, i in tags)
    rho = {p: (b.rho[p[0]], p[1]) for p in carrier}
    alpha = {p: (b.alpha[p[0]], p[2]) for p in carrier}
    # the index of (q, a, i) by the point index of q; a point outside b's carrier has none
    place = np.full((len(b.points) + 1, len(cover_x.sheets), len(cover_y.sheets)), -1, dtype=np.int64)
    place[q_of, a_of, i_of] = np.arange(len(carrier))
    n, extras = len(carrier), {}
    # (s, a, c) . (q, c, i) = (s . q, a, i)
    s, a, c = _cech_parts(cech_x, b.left)
    moved = b.left_ids[s[:, None], q_of]
    e, p = np.nonzero((moved >= 0) & (c[:, None] == a_of))
    v = moved[e, p]
    left = _extra_points(place[v, a[e], i_of[p]],
                         lambda k: (b.points[v[k]], int(a[e[k]]), int(i_of[p[k]])), n, extras)
    # (q, a, i) . (t, i, j) = (q . t, a, j)
    t, i, j = _cech_parts(cech_y, b.right)
    moved = b.right_ids[q_of[:, None], t]
    p2, e2 = np.nonzero((moved >= 0) & (i == i_of[:, None]))
    v2 = moved[p2, e2]
    right = _extra_points(place[v2, a_of[p2], j[e2]],
                          lambda k: (b.points[v2[k]], int(a_of[p2[k]]), int(j[e2[k]])), n, extras)
    localized = Bitorsor.of_entries(cech_x, cech_y, carrier, rho, alpha, (e, p, left), (p2, e2, right),
                                    f"Cech({b.name})", carrier + tuple(extras))
    return localized, cech_x, cech_y


def cech_bitorsor(G: FiniteGroupoid, cover: CechCover) -> Bitorsor:
    """The canonical equivalence between G and its Cech groupoid.

    Carrier: arrows with source inside a sheet, tagged by the sheet; the
    left G-action composes, the right Cech-action composes through the
    untagged arrow.  A pair ``G.table`` lacks is read from ``G.cmp``.
    """
    cech = cech_groupoid(G, cover)
    sheets, k = cache(cover.sheets_containing), len(cover.sheets)
    tags = [(i, a) for i, s in enumerate(G.arrows) for a in sheets(G.src[s])]
    s_of, a_of = np.array(tags, dtype=np.int64).reshape(-1, 2).T
    carrier = tuple((G.arrows[i], a) for i, a in tags)
    rho = {(s, a): G.tgt[s] for (s, a) in carrier}
    alpha = {(s, a): (G.src[s], a) for (s, a) in carrier}
    place = np.full((len(G.arrows) + 1, k), -1, dtype=np.int64)
    place[s_of, a_of] = np.arange(len(carrier))
    n, extras, arrows = len(carrier), {}, G.arrows
    _, src, tgt = G.endpoint_ids
    # r . (s, a) = (r s, a)
    r, p = composable_index(src, tgt[s_of])
    left = _extra_points(place[G.compose_ids(r, s_of[p]), a_of[p]],
                         lambda i: (G.compose(arrows[r[i]], arrows[s_of[p[i]]]), int(a_of[p[i]])), n, extras)
    # (s, a) . (t, a, b) = (s t, b), over the Cech arrows into (src s, a)
    t, ta, tb = _cech_parts(cech, G)
    p2, e = composable_index(src[s_of] * k + a_of, tgt[t] * k + ta)
    right = _extra_points(place[G.compose_ids(s_of[p2], t[e]), tb[e]],
                          lambda i: (G.compose(arrows[s_of[p2[i]]], arrows[t[e[i]]]), int(tb[e[i]])), n, extras)
    return Bitorsor.of_entries(G, cech, carrier, rho, alpha, (r, p, left), (p2, e, right),
                               f"cech-bitorsor({G.name})", carrier + tuple(extras))


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
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    left = side == "left"
    G, anchor = (b.left, b.rho) if left else (b.right, b.alpha)
    start, end = (G.src, G.tgt) if left else (G.tgt, G.src)
    if anchor[q] != start[arrow]:
        raise CatalogError("anchor mismatch: rho(q) is not the arrow's source" if left else
                           "anchor mismatch: alpha(q) is not the arrow's target")
    domain = b.rho_fibre(start[arrow]) if left else b.alpha_fibre(start[arrow])
    ids, s = [b.point_index[p] for p in domain], G.arrow_index[arrow]
    moved = b.left_ids[s, ids] if left else b.right_ids[ids, s]
    for i in np.flatnonzero(moved < 0)[:1].tolist():
        raise KeyError((arrow, domain[i]) if left else (domain[i], arrow))
    mapping = dict(zip(domain, [b.points[v] for v in moved.tolist()]))
    # on the right, alpha o mapping^-1 sends src(arrow) to tgt(arrow), the arrow's germ
    ok = all(anchor[mapping[p]] == end[arrow] for p in domain)
    return BisectionLift(side, arrow, mapping, ok)


# ---------------------------------------------------------------------------
# weak equivalence pairs (appendix construction)


@dataclass
class StrictMorphism:
    source: FiniteGroupoid
    target: FiniteGroupoid
    obj_map: dict
    arr_map: dict
    # (source, arr_map, target, image) handed over by weak_equivalence_pair;
    # ``image`` is read only while those three are still the fields
    given: tuple = field(default=None, init=False, repr=False, compare=False)

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
        given = self.given
        if given and all(x is y for x, y in zip(given, (S, self.arr_map, T))):
            image = given[3]
        else:
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
    depend on the arrow labels.  The middle is built from the bitorsor's
    action arrays: its arrows, ends and composition table are index arrays,
    and its ``cmp`` is a ``TableCmp`` over that table.  The middle gets its
    endpoint ids, and each projection its image array, from the same
    arrays.
    """
    L, R = b.left, b.right
    carrier, n = b.carrier, len(b.carrier)
    left_act, right_act, points = b.left_ids, b.right_ids, b.points
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
    # objects are the carrier, so a middle with no end outside it has the ids of its points
    endpoint_ids = None
    if len(b.point_index) == len(points) == n and (ends < n).all():
        endpoint_ids = dict(b.point_index), qs, ends
    middle = table_groupoid(
        arrows,
        np.array([later, earlier, result]).T,  # its columns, which are the composites, contiguous
        endpoint_ids,
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
    to_left.given = middle, to_left.arr_map, L, sigmas
    tau_inverse_ids = R.inverse_ids[taus]
    if (tau_inverse_ids >= 0).all():
        to_right.given = middle, to_right.arr_map, R, tau_inverse_ids
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
    loops = [b.right.arrow_index[t] for t in iso.arrows]
    for q in fibre:
        if q in seen:
            continue
        moved = b.right_ids[b.point_index[q], loops]
        for i in np.flatnonzero(moved < 0)[:1].tolist():
            raise KeyError((q, iso.arrows[i]))
        block = sorted({b.points[v] for v in moved.tolist()} | {q}, key=repr)
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
