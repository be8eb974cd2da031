"""Groupoids of the two catalog flavors and their combinatorics.

A finite groupoid is stored as explicit tables (objects, arrows, source,
target, composition, inverse, units).  An action groupoid stores a finite
group acting by exact catalog isometries on a base; when the base is a
finite label set it can be expanded into explicit tables.

Composition is written ``compose(tau, sigma)`` = "sigma, then tau" and is
defined exactly when ``src(tau) == tgt(sigma)``.

Endpoint queries go through one hom-set index that ``FiniteGroupoid``
builds from ``src``/``tgt`` when it is constructed: ``arrows_between``,
``arrows_from``, ``arrows_into`` and ``composable_pairs`` read it.  Every
result keeps the arrow order.

Composition lives in one integer table, ``FiniteGroupoid.table``: ``(P, 3)``
rows ``[later, earlier, result]`` of arrow indices, sorted by ``(later,
earlier)``.  On a groupoid its first two columns are the pairs
``composable_index`` lists, in that order, so the groupoid file format
stores only the ``result`` column.
``finite_action_groupoid``, ``cech_groupoid``, a span's middle
(``morita.weak_equivalence_pair``) and the file reader
(``serialize.groupoid_from_dict``) compute that table in integers
(``composable_index`` lists the composable pairs) and build their groupoid
with ``table_groupoid``, whose ``cmp`` is a ``TableCmp``: the label dict is
built only when a key is read, and a write into it keeps the table in step.
``compose_ids`` reads pairs from a slot grid of the table: an arrow's slot
is its rank among the arrows into its target, so a composable pair sits at
``grid[later, slot[earlier]]``.  ``composites`` lists the composable pairs
and their composites as index arrays.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bases import (
    CatalogError,
    CircleRotation,
    FiniteSet,
    FourierCircle,
    FourierTorus,
    LabelPermutation,
    TorusIsometry,
    identity_isometry,
)
from .reports import ValidationReport


# ---------------------------------------------------------------------------
# finite groups


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    elements: tuple
    table: dict  # (g, h) -> g*h
    identity: object

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        els = tuple(range(n))
        table = {(g, h): (g + h) % n for g in els for h in els}
        return cls(els, table, 0)

    def mul(self, g, h):
        return self.table[(g, h)]

    def inv(self, g):
        for h in self.elements:
            if self.mul(g, h) == self.identity:
                return h
        raise CatalogError(f"group element {g!r} has no inverse in the table")

    @property
    def order(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# finite groupoids


def group_by(items, key) -> dict:
    """``key(item) -> tuple of items``, each tuple in the order of ``items``."""
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return {k: tuple(v) for k, v in groups.items()}


def _composable(arrows, src, into):
    """Pairs (tau, sigma) with src(tau) == tgt(sigma), tau-major in arrow order."""
    for tau in arrows:
        for sigma in into.get(src[tau], ()):
            yield tau, sigma


def cmp_from_table(arrows, table) -> dict:
    """The label ``cmp`` dict of ``[later, earlier, result]`` index rows, in row order."""
    # fromiter keeps each label, tuples included, as one entry
    labels = np.fromiter(arrows, dtype=object, count=len(arrows))
    later, earlier, result = (labels[column].tolist() for column in table.T)
    return dict(zip(zip(later, earlier), result))


def table_from_cmp(arrows, cmp) -> np.ndarray:
    """The ``[later, earlier, result]`` index rows of a label ``cmp``, sorted by ``(later, earlier)``.

    A result outside ``arrows`` reads -1, and an entry whose pair names a
    label outside ``arrows`` has no row.
    """
    index = {a: i for i, a in enumerate(arrows)}
    flat = np.fromiter(
        (index.get(a, -1) for pair, result in cmp.items() for a in (*pair, result)),
        np.int64,
        3 * len(cmp),
    )
    rows = flat.reshape(-1, 3)
    rows = rows[(rows[:, 0] >= 0) & (rows[:, 1] >= 0)]
    return rows[np.argsort(rows[:, 0] * len(arrows) + rows[:, 1])]


class TableCmp(MutableMapping):
    """A label ``cmp`` over ``[later, earlier, result]`` index rows.

    The label dict is ``cmp_from_table(arrows, table)``, built on the first
    key access; ``len`` reads the table, so it builds nothing.  Given
    ``labels`` instead of a table, that dict is the label dict, and the
    table is derived from it on first use.  A write goes into the label
    dict and drops the table, which ``table`` then derives again from the
    labels, so the two never disagree.
    """

    def __init__(self, arrows, table=None, labels=None):
        self._arrows, self._table = arrows, table
        if labels is not None:
            self._dict = labels

    @cached_property
    def _dict(self) -> dict:
        return cmp_from_table(self._arrows, self._table)

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = table_from_cmp(self._arrows, self._dict)
        return self._table

    def __getitem__(self, key):
        return self._dict[key]

    def __setitem__(self, key, value):
        self._dict[key] = value
        self._table = None

    def __delitem__(self, key):
        del self._dict[key]
        self._table = None

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        labels = self.__dict__.get("_dict")
        return len(self._table) if labels is None else len(labels)

    def items(self):  # the dict's own view: deriving a table walks every item
        return self._dict.items()


def label_ids(ids, labels, of) -> np.ndarray:
    """``ids[of[label]]`` per label; a value met for the first time gets the next id."""
    return np.fromiter((ids.setdefault(of[a], len(ids)) for a in labels), np.int64, len(labels))


def composable_index(src, tgt):
    """``(later, earlier)`` index arrays of the pairs with ``src[later] == tgt[earlier]``.

    ``src`` and ``tgt`` hold integer object ids per arrow.  The pairs come in
    the order of ``FiniteGroupoid.composable_pairs``: ``later`` ascending,
    then ``earlier`` ascending.
    """
    n_objects = int(max(src.max(initial=-1), tgt.max(initial=-1))) + 1
    counts, starts, by_target, _ = fibres(tgt, n_objects)
    later, j = expand_runs(counts[src], starts[src])
    return later, by_target[j]


def fibres(ids, n_ids):
    """``(counts, starts, order, slot)`` of the items carrying integer ``ids``.

    ``order`` lists the items sorted stably by id; id ``i`` has ``counts[i]``
    items there, from ``starts[i]`` on, and ``slot`` is each item's rank
    among the items of its id.
    """
    counts = np.bincount(ids, minlength=n_ids)
    starts = np.cumsum(counts) - counts
    order = np.argsort(ids, kind="stable")
    slot = np.empty_like(ids)
    slot[order] = np.arange(len(ids)) - starts[ids[order]]
    return counts, starts, order, slot


def expand_runs(counts, starts):
    """``(row, position)``: row ``i`` repeated ``counts[i]`` times, beside ``starts[i]``, ``starts[i] + 1``, ..."""
    row = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return row, np.repeat(starts - first, counts) + np.arange(len(row))


def components(n, tail, head) -> np.ndarray:
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


def table_groupoid(arrows, table, endpoint_ids=None, **tables) -> FiniteGroupoid:
    """The ``FiniteGroupoid`` over ``arrows`` composing by ``table``.

    ``table`` holds sorted ``[later, earlier, result]`` rows of indices into
    ``arrows``; the groupoid's ``cmp`` is a ``TableCmp`` over it, which
    keeps it as the groupoid's table.  ``endpoint_ids``, when given, is the
    groupoid's ``endpoint_ids``, computed by the caller, whose table rows
    are then exactly the composable pairs of those ends, in the order of
    ``composable_index``, each with a composite: its ``composites`` are the
    table's columns.  ``tables`` are the other fields.
    """
    G = FiniteGroupoid(arrows=arrows, cmp=TableCmp(arrows, table), **tables)
    if endpoint_ids is not None:
        G.__dict__["endpoint_ids"] = endpoint_ids
        G.__dict__["_composites"] = table, tuple(table.T)
    return G


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    objects: tuple
    arrows: tuple
    src: dict
    tgt: dict
    cmp: dict  # (tau, sigma) -> tau after sigma; held as a TableCmp
    inv: dict
    unit: dict  # object -> unit arrow
    base: object = None  # optional BaseSpace (FiniteSet) for flavor checks
    name: str = "groupoid"

    def __post_init__(self):
        if not isinstance(self.cmp, TableCmp):
            object.__setattr__(self, "cmp", TableCmp(self.arrows, labels=self.cmp))

    # hom-set index, built from src/tgt when first read: (x, y), x or y -> arrows in arrow order

    @cached_property
    def _hom(self) -> dict:
        src, tgt = self.src, self.tgt
        return group_by(self.arrows, lambda a: (src[a], tgt[a]))

    @cached_property
    def _out(self) -> dict:
        return group_by(self.arrows, self.src.__getitem__)

    @cached_property
    def _into(self) -> dict:
        return group_by(self.arrows, self.tgt.__getitem__)

    # -- structure access

    def compose(self, tau, sigma):
        return self.cmp[(tau, sigma)]

    def composable_pairs(self):
        return _composable(self.arrows, self.src, self._into)

    def arrows_from(self, x):
        return self._out.get(x, ())

    def arrows_into(self, y):
        return self._into.get(y, ())

    def arrows_between(self, x, y):
        return self._hom.get((x, y), ())

    # -- the integer composition table

    @cached_property
    def arrow_index(self) -> dict:
        """arrow -> its position in ``arrows``."""
        return {a: i for i, a in enumerate(self.arrows)}

    @cached_property
    def inverse_ids(self) -> np.ndarray:
        """Index of each arrow's inverse, in arrow order; -1 where ``inv`` names no arrow."""
        index = self.arrow_index
        return np.fromiter((index.get(self.inv[a], -1) for a in self.arrows), np.int64, len(self.arrows))

    @cached_property
    def endpoint_ids(self):
        """``(ids, src, tgt)``: integer object ids, and those of each arrow's ends.

        ``ids`` numbers the distinct objects in order, then each other label
        met as an end; ``src`` and ``tgt`` are int arrays in arrow order.
        """
        ids = {}
        for x in self.objects:
            ids.setdefault(x, len(ids))
        return ids, label_ids(ids, self.arrows, self.src), label_ids(ids, self.arrows, self.tgt)

    @cached_property
    def into_fibres(self):
        """``fibres`` of the arrows by target id: ``slot`` is each arrow's rank
        among the arrows into its target, in arrow order."""
        ids, _, tgt = self.endpoint_ids
        return fibres(tgt, len(ids))

    @property
    def table(self) -> np.ndarray:
        """``cmp`` as ``(P, 3)`` int rows ``[later, earlier, result]`` of arrow indices.

        Sorted by ``(later, earlier)``; on a groupoid this is the order of
        ``composable_pairs``.  A result outside ``arrows`` reads -1, and an
        entry whose pair names a label outside ``arrows`` has no row.
        ``cmp`` is a ``TableCmp``, which keeps the table in step with writes.
        """
        return self.cmp.table

    def _per_table(self, name, build):
        """``build(table)``, kept under ``name`` until the table changes."""
        table = self.table
        kept = self.__dict__.get(name)
        if kept is None or kept[0] is not table:
            kept = self.__dict__[name] = table, build(table)
        return kept[1]

    def _grid(self):
        """The table as ``grid[later, slot[earlier]] = result`` over its composable
        pairs (-1 where it has none), plus the sorted pair keys and results of
        the rows whose pair is not composable.  Kept until the table changes.
        """

        def build(table):
            _, src, tgt = self.endpoint_ids
            counts, _, _, slot = self.into_fibres
            later, earlier, result = table.T
            fits = src[later] == tgt[earlier]
            grid = np.full((len(self.arrows), counts.max(initial=0)), -1, dtype=np.int64)
            grid[later[fits], slot[earlier[fits]]] = result[fits]
            odd = table[~fits]
            return grid, odd[:, 0] * len(self.arrows) + odd[:, 1], odd[:, 2]

        return self._per_table("_slot_grid", build)

    def compose_ids(self, later, earlier) -> np.ndarray:
        """Index of ``later o earlier`` for two index arrays; -1 where undefined.

        A negative index, standing for an arrow that is not there, reads -1.
        A composable pair is a gather from the slot grid; only a pair that is
        not composable is searched for, among the table's other rows.
        """
        if not len(self.table):
            return np.full(later.shape, -1, dtype=np.int64)
        grid, odd_keys, odd_results = self._grid()
        _, src, tgt = self.endpoint_ids
        slot = self.into_fibres[3]
        known = (later >= 0) & (earlier >= 0)
        if not known.all():
            later, earlier = np.where(known, later, 0), np.where(known, earlier, 0)
        fits = known & (src[later] == tgt[earlier])
        out = grid[later, slot[earlier]]
        out[~fits] = -1
        ask = known & ~fits
        if len(odd_keys) and ask.any():
            wanted = later[ask] * len(self.arrows) + earlier[ask]
            pos = np.searchsorted(odd_keys, wanted).clip(max=len(odd_keys) - 1)
            out[ask] = np.where(odd_keys[pos] == wanted, odd_results[pos], -1)
        return out

    @property
    def composites(self):
        """``(later, earlier, result)`` index arrays over ``composable_pairs()``, in its order.

        ``result`` reads -1 where ``cmp`` misses a pair; on a groupoid the
        three arrays are the columns of ``table``.  Kept until the table
        changes.
        """

        def build(table):
            _, src, tgt = self.endpoint_ids
            later, earlier = composable_index(src, tgt)
            grid = self._grid()[0]
            return later, earlier, grid[later, self.into_fibres[3][earlier]]

        return self._per_table("_composites", build)


def group_groupoid(group: FiniteGroup, point="*", name=None) -> FiniteGroupoid:
    """The one-object groupoid of a finite group."""
    arrows = group.elements
    return FiniteGroupoid(
        objects=(point,),
        arrows=arrows,
        src={g: point for g in arrows},
        tgt={g: point for g in arrows},
        cmp={(g, h): group.mul(g, h) for g in arrows for h in arrows},
        inv={g: group.inv(g) for g in arrows},
        unit={point: group.identity},
        base=FiniteSet((point,)),
        name=name or f"group({group.order})",
    )


def unit_groupoid(points, name=None) -> FiniteGroupoid:
    points = tuple(points)
    arrows = tuple(("id", p) for p in points)
    return FiniteGroupoid(
        objects=points,
        arrows=arrows,
        src={a: a[1] for a in arrows},
        tgt={a: a[1] for a in arrows},
        cmp={(a, a): a for a in arrows},
        inv={a: a for a in arrows},
        unit={p: ("id", p) for p in points},
        base=FiniteSet(points),
        name=name or "unit",
    )


def finite_action_groupoid(group: FiniteGroup, points, act, name=None) -> FiniteGroupoid:
    """Action groupoid tables for a group acting on a finite label set.

    ``act(g, x)`` is the action; arrows are (g, x) with source x and
    target act(g, x).
    """
    points = tuple(points)
    arrows = tuple((g, x) for g in group.elements for x in points)
    src = {a: a[1] for a in arrows}
    tgt = {a: act(a[0], a[1]) for a in arrows}
    # (g, x) sits at index g * |points| + x, and (g, x) o (h, y) = (g h, y)
    element = {g: i for i, g in enumerate(group.elements)}
    mul = np.array(
        [element[group.mul(g, h)] for g in group.elements for h in group.elements], dtype=np.int64
    ).reshape(group.order, group.order)
    n = len(points)
    ids = {}
    later, earlier = composable_index(label_ids(ids, arrows, src), label_ids(ids, arrows, tgt))
    table = np.stack([later, earlier, mul[later // n, earlier // n] * n + earlier % n], axis=1)
    inverse = {g: group.inv(g) for g in group.elements}
    inv = {(g, x): (inverse[g], tgt[(g, x)]) for (g, x) in arrows}
    unit = {x: (group.identity, x) for x in points}
    return table_groupoid(
        arrows,
        table,
        objects=points,
        src=src,
        tgt=tgt,
        inv=inv,
        unit=unit,
        base=FiniteSet(points),
        name=name or f"action({group.order}x{len(points)})",
    )


def cyclic_translation_groupoid(order: int, n_points: int, name=None) -> FiniteGroupoid:
    """Z_order acting on Z_n by a.y = y + (a mod n); the finite workhorse.

    This is a group action only when n divides the order; other pairs raise.
    """
    if n_points < 1 or order % n_points:
        raise CatalogError(f"Z{order} acts on Z{n_points} only when {n_points} >= 1 divides {order}")
    group = FiniteGroup.cyclic(order)
    return finite_action_groupoid(
        group,
        range(n_points),
        lambda a, y: (y + a) % n_points,
        name=name or f"Z{order}xZ{n_points}",
    )


# ---------------------------------------------------------------------------
# action groupoids on Fourier bases


@dataclass(frozen=True, eq=False)
class ActionGroupoid:
    """A finite group acting by exact catalog isometries on a Fourier base.

    Arrows are conceptually pairs (g, x); they are never materialized.
    Pointwise checks run on the base's uniform sample grid, which catalog
    isometries map to itself.
    """

    group: FiniteGroup
    base: object  # FourierCircle | FourierTorus
    iso: dict  # g -> CircleRotation | TorusIsometry
    name: str = "action groupoid"

    def isometry(self, g):
        return self.iso[g]

    def grid_turns(self):
        n = self.base.grid_size
        if isinstance(self.base, FourierCircle):
            return [Fraction(j, n) for j in range(n)]
        return [
            (Fraction(i, n), Fraction(j, n)) for i in range(n) for j in range(n)
        ]

    def apply(self, g, t):
        return self.iso[g].apply_turns(t)


def rotation_groupoid(m: int, circle: FourierCircle, through=None, name=None) -> ActionGroupoid:
    """Z_m acting on a circle by rotations.

    ``through`` optionally remaps generator -> turns; default is the free
    rotation by 1/m of a turn.
    """
    group = FiniteGroup.cyclic(m)
    step = Fraction(1, m) if through is None else Fraction(through)
    iso = {a: CircleRotation(step * a) for a in group.elements}
    return ActionGroupoid(group, circle, iso, name=name or f"Z{m} rotation circle")


def negation_torus_groupoid(torus: FourierTorus, name=None) -> ActionGroupoid:
    group = FiniteGroup.cyclic(2)
    iso = {0: TorusIsometry(), 1: TorusIsometry(negate=True)}
    return ActionGroupoid(group, torus, iso, name=name or "Z2 negation torus")


def trivial_groupoid(base, name=None) -> ActionGroupoid:
    """The unit groupoid of a Fourier base, as a trivial-group action."""
    group = FiniteGroup.cyclic(1)
    return ActionGroupoid(group, base, {0: identity_isometry(base)}, name=name or "unit")


# ---------------------------------------------------------------------------
# germs and effectiveness


@dataclass(frozen=True)
class GermAction:
    """Germ data of the local diffeomorphism attached to one arrow."""

    arrow: object
    source: object
    data: object  # finite base: the target point; Fourier: the isometry


def germ_of(G, arrow) -> GermAction:
    if isinstance(G, FiniteGroupoid):
        return GermAction(arrow, G.src[arrow], G.tgt[arrow])
    if isinstance(G, ActionGroupoid):
        g, x = arrow
        return GermAction(arrow, x, G.iso[g])
    raise CatalogError(f"unsupported groupoid {G!r}")


def is_effective(G):
    """Whether distinct arrows always carry distinct germs.

    Returns (flag, witness); witness is a pair of arrows sharing a germ
    when the flag is False.
    """
    if isinstance(G, FiniteGroupoid):
        seen = {}
        for a in G.arrows:
            key = (G.src[a], G.tgt[a])
            if key in seen:
                return False, (seen[key], a)
            seen[key] = a
        return True, None
    if isinstance(G, ActionGroupoid):
        seen = {}
        for g in G.group.elements:
            key = G.iso[g]
            if key in seen:
                x0 = G.grid_turns()[0]
                return False, ((seen[key], x0), (g, x0))
            seen[key] = g
        return True, None
    raise CatalogError(f"unsupported groupoid {G!r}")


# ---------------------------------------------------------------------------
# orbits and isotropy


@dataclass
class OrbitPartition:
    blocks: list
    note: str = ""

    @property
    def count(self):
        return len(self.blocks)


def orbits(G) -> OrbitPartition:
    """The orbits of a finite groupoid's objects, or of an action groupoid's sample grid.

    Each block lists its points in their order, and the blocks come in the
    order of their first points.
    """
    note = ""
    if isinstance(G, FiniteGroupoid):
        points = G.objects
        index = {x: i for i, x in enumerate(points)}
        edges = [(index[G.src[a]], index[G.tgt[a]]) for a in G.arrows]
    elif isinstance(G, ActionGroupoid):
        points = G.grid_turns()
        index = {p: i for i, p in enumerate(points)}
        edges = [(index[p], index[G.apply(g, p)]) for g in G.group.elements for p in points]
        note = "orbits of the uniform sample grid (exact for catalog isometries)"
    else:
        raise CatalogError(f"unsupported groupoid {G!r}")
    tail, head = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    root = components(len(index), tail, head)
    blocks = group_by(points, lambda x: root[index[x]])
    if note and len(blocks) == 1:
        note = "transitive on sampled points"
    return OrbitPartition(list(blocks.values()), note=note)


@dataclass
class IsotropyGroup:
    point: object
    arrows: tuple

    @property
    def rank(self):
        return len(self.arrows)


def isotropy(G, x) -> IsotropyGroup:
    if isinstance(G, FiniteGroupoid):
        if x not in G.objects:
            raise KeyError(f"unknown object {x!r}")
        return IsotropyGroup(x, G.arrows_between(x, x))
    if isinstance(G, ActionGroupoid):
        loops = tuple(
            (g, x) for g in G.group.elements if G.apply(g, x) == x
        )
        return IsotropyGroup(x, loops)
    raise CatalogError(f"unsupported groupoid {G!r}")


# ---------------------------------------------------------------------------
# validation


def validate_groupoid(G) -> ValidationReport:
    if isinstance(G, FiniteGroupoid):
        return _validate_finite(G)
    if isinstance(G, ActionGroupoid):
        return _validate_action(G)
    raise CatalogError(f"unsupported groupoid {G!r}")


def _validate_finite(G: FiniteGroupoid) -> ValidationReport:
    rep = ValidationReport(subject=f"groupoid {G.name}")
    for x in G.objects:
        u = G.unit.get(x)
        if u is None or G.src.get(u) != x or G.tgt.get(u) != x:
            rep.add(f"unit law: unit({x!r}) missing or not a loop at {x!r}")
    for a in G.arrows:
        b = G.inv.get(a)
        if b is None or G.src.get(b) != G.tgt[a] or G.tgt.get(b) != G.src[a]:
            rep.add(f"inverse law: inverse({a!r}) missing or endpoints wrong")
            continue
        if G.cmp.get((b, a)) != G.unit[G.src[a]] or G.cmp.get((a, b)) != G.unit[G.tgt[a]]:
            rep.add(f"inverse law: {a!r} composed with its inverse is not a unit")
    for tau, sigma in G.composable_pairs():
        c = G.cmp.get((tau, sigma))
        if c is None:
            rep.add(f"totality: compose({tau!r},{sigma!r}) undefined")
            continue
        if G.src[c] != G.src[sigma] or G.tgt[c] != G.tgt[tau]:
            rep.add(f"endpoint law: compose({tau!r},{sigma!r}) has wrong endpoints")
    for (tau, sigma) in list(G.cmp):
        if G.src[tau] != G.tgt[sigma]:
            rep.add(f"domain law: compose({tau!r},{sigma!r}) defined but not composable")
    for a in G.arrows:
        u_t, u_s = G.unit[G.tgt[a]], G.unit[G.src[a]]
        if G.cmp.get((u_t, a)) != a or G.cmp.get((a, u_s)) != a:
            rep.add(f"unit law: units do not act neutrally on {a!r}")
    for rho, tau, sigma in _associativity_failures(G):
        rep.add(f"associativity: triple ({rho!r},{tau!r},{sigma!r}) fails")
    return rep


# The associativity walk gathers about this many composable triples at a
# time (whole runs of one rho), so no array holds all of them: the Cech
# span's middle has 13.4 M.
ASSOCIATIVITY_CHUNK = 1 << 16


def _associativity_failures(G: FiniteGroupoid):
    """Triples ``(rho, tau, sigma)`` with ``(rho tau) sigma != rho (tau sigma)``.

    The walk is ``(rho, tau)`` over ``composable_pairs``, then ``sigma`` over
    ``arrows_into(src tau)``: tau's block of ``composites``, which also holds
    ``tau sigma``.  When the endpoints are right, ``(rho tau) sigma`` sits at
    the same place in the block of ``rho tau``, and ``rho (tau sigma)`` in
    rho's block at the rank of ``tau sigma`` among the arrows into its
    target, so all three are gathers, taken for a run of ``rho`` at a time.
    Any other triple (a missing composite, wrong endpoints) is settled by
    the label lookups of ``cmp``.
    """
    later, earlier, result = G.composites
    _, src, tgt = G.endpoint_ids
    rank = G.into_fibres[3]
    counts = np.bincount(later, minlength=len(G.arrows))
    starts = np.cumsum(counts) - counts
    n = counts[earlier]  # triples of each pair
    rho_ends = np.cumsum(counts)[counts > 0]
    rho_triples = np.add.reduceat(n, rho_ends - counts[counts > 0]) if len(n) else n
    lo, size = 0, 0
    for hi, k in zip(rho_ends.tolist(), rho_triples.tolist()):
        size += k
        if size < ASSOCIATIVITY_CHUNK and hi < len(later):
            continue
        pair, block = expand_runs(n[lo:hi], starts[earlier[lo:hi]])
        pair += lo
        rho, tau, rho_tau = later[pair], earlier[pair], result[pair]
        offset = block - starts[tau]
        tau_sigma = result[block]
        rt, ts = rho_tau.clip(0), tau_sigma.clip(0)
        left_ok = (rho_tau >= 0) & (src[rt] == src[tau])
        right_ok = (tau_sigma >= 0) & (tgt[ts] == src[rho])
        left = result[np.where(left_ok, starts[rt] + offset, 0)]
        right = result[np.where(right_ok, starts[rho] + rank[ts], 0)]
        for i in np.flatnonzero(~left_ok | ~right_ok | (left != right) | (left < 0)).tolist():
            r, t, s = (G.arrows[j] for j in (rho[i], tau[i], earlier[block[i]]))
            if G.cmp.get((G.cmp.get((r, t)), s)) != G.cmp.get((r, G.cmp.get((t, s)))):
                yield r, t, s
        lo, size = hi, 0


def _validate_action(G: ActionGroupoid) -> ValidationReport:
    rep = ValidationReport(subject=f"action groupoid {G.name}")
    ident = identity_isometry(G.base)
    if G.iso.get(G.group.identity) != ident:
        rep.add("homomorphism: identity element does not act as the identity isometry")
    for g in G.group.elements:
        iso = G.iso.get(g)
        if iso is None:
            rep.add(f"totality: no isometry for {g!r}")
            continue
        expected = (CircleRotation if isinstance(G.base, FourierCircle) else TorusIsometry
                    if isinstance(G.base, FourierTorus) else LabelPermutation)
        if not isinstance(iso, expected):
            rep.add(f"flavor: isometry for {g!r} does not match the base")
    for g in G.group.elements:
        for h in G.group.elements:
            gh = G.group.mul(g, h)
            if G.iso[gh] != G.iso[g].after(G.iso[h]):
                rep.add(f"homomorphism: act({g!r}*{h!r}) != act({g!r}) o act({h!r})")
    return rep


# ---------------------------------------------------------------------------
# covers and Cech groupoids


@dataclass(frozen=True)
class CircleArc:
    """Open arc given by center and half width, in turns."""

    center: Fraction
    half_width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center) % 1)
        object.__setattr__(self, "half_width", Fraction(self.half_width))
        if not 0 < self.half_width <= Fraction(1, 2):
            raise CatalogError("arc half width must be in (0, 1/2] turns")

    def contains(self, t: Fraction) -> bool:
        d = (Fraction(t) - self.center) % 1
        if d > Fraction(1, 2):
            d -= 1
        return abs(d) < self.half_width

    def meets(self, other: "CircleArc") -> bool:
        """Whether the two open arcs share a point, decided on the exact turns."""
        return bool(self.overlap(other))

    def overlap(self, other: "CircleArc") -> list:
        """The open arcs that make up the common points of the two arcs: none,
        one, or two when they wrap round the circle; exact on the turns."""
        lo, hi = self.center - self.half_width, self.center + self.half_width
        out = []
        for lift in (-1, 0, 1):  # other's copies near self's interval
            c = other.center + lift
            a, b = max(lo, c - other.half_width), min(hi, c + other.half_width)
            if a < b:
                out.append(CircleArc((a + b) / 2, (b - a) / 2))
        return out


@dataclass(frozen=True)
class CechCover:
    sheets: tuple  # finite flavor: tuples of labels; circle flavor: CircleArcs

    def __post_init__(self):
        object.__setattr__(
            self,
            "sheets",
            tuple(s if isinstance(s, CircleArc) else tuple(s) for s in self.sheets),
        )

    def sheet(self, a):
        return self.sheets[a]

    def indices(self):
        return range(len(self.sheets))

    def member(self, a, x) -> bool:
        s = self.sheets[a]
        if isinstance(s, CircleArc):
            return s.contains(x)
        return x in s

    def sheets_containing(self, x):
        return [a for a in self.indices() if self.member(a, x)]


def trivial_cover(G) -> CechCover:
    """One sheet holding every object; on a circle, where an open arc misses
    at least one point, the two half-width-1/2 arcs missing 1/2 and 0."""
    if isinstance(G, FiniteGroupoid):
        return CechCover((tuple(G.objects),))
    return CechCover((CircleArc(Fraction(0), Fraction(1, 2)), CircleArc(Fraction(1, 2), Fraction(1, 2))))


def validate_cover(G, cover: CechCover) -> ValidationReport:
    """An empty sheet, or an object or a point of the circle in no sheet, is a violation.

    On a circle only the open ``CircleArc`` sheets cover, and their union is
    decided exactly (``uncovered_turns``), not on the sample grid.
    """
    rep = ValidationReport(subject="cover")
    for a in cover.indices():
        s = cover.sheet(a)
        if not isinstance(s, CircleArc) and len(s) == 0:
            rep.add(f"sheet {a} is empty")
    if isinstance(G, FiniteGroupoid):
        for x in G.objects:
            if not cover.sheets_containing(x):
                rep.add(f"object {x!r} not covered")
    elif isinstance(G, ActionGroupoid):
        for t in uncovered_turns([s for s in cover.sheets if isinstance(s, CircleArc)]):
            rep.add(f"point {t} not covered")
    return rep


def uncovered_turns(arcs) -> list:
    """One point, in turns, of each gap that the open ``arcs`` leave on the circle, ascending.

    A gap is a closed arc, possibly a single point, that starts where some
    arc ends and runs to the nearest arc start; the point named is its
    midpoint.  Exact on the rational turns.
    """
    if not arcs:
        return [Fraction(0)]
    starts = [(a.center - a.half_width) % 1 for a in arcs]
    points = set()
    for a in arcs:
        end = (a.center + a.half_width) % 1
        if not any(b.contains(end) for b in arcs):
            points.add((end + min((s - end) % 1 for s in starts) / 2) % 1)
    return sorted(points)


def cech_groupoid(G, cover: CechCover):
    """Localize a groupoid to a cover.

    Finite flavor returns explicit tables with objects (x, a) and arrows
    (sigma, a, b) for sigma with source in sheet b and target in sheet a.
    Fourier action groupoids return a symbolic Cech groupoid.  A composable
    pair whose parent pair ``G.cmp`` lacks raises ``KeyError``.
    """
    validate_cover(G, cover).raise_if_invalid()
    if isinstance(G, ActionGroupoid):
        return CechActionGroupoid(G, cover)
    objects = tuple((x, a) for a in cover.indices() for x in cover.sheet(a))
    sheets = {x: cover.sheets_containing(x) for x in {*G.src.values(), *G.tgt.values()}}
    arrows = tuple(
        (s, a, b) for s in G.arrows for a in sheets[G.tgt[s]] for b in sheets[G.src[s]]
    )
    src = {(s, a, b): (G.src[s], b) for (s, a, b) in arrows}
    tgt = {(s, a, b): (G.tgt[s], a) for (s, a, b) in arrows}

    # (s2, a, c) o (s1, c, b) = (s2 o s1, a, b): compose the parents in G's
    # table, then find (composite, a, b) among the Cech arrows
    k, index = len(cover.sheets), G.arrow_index
    parent, a_of, b_of = np.array(
        [(index[s], a, b) for s, a, b in arrows], dtype=np.int64
    ).reshape(-1, 3).T
    _, parent_src, parent_tgt = G.endpoint_ids
    later, earlier = composable_index(parent_src[parent] * k + b_of, parent_tgt[parent] * k + a_of)
    composite = G.compose_ids(parent[later], parent[earlier])
    where = np.full((len(G.arrows), k, k), -1, dtype=np.int64)
    where[parent, a_of, b_of] = np.arange(len(arrows))
    result = np.where(composite >= 0, where[composite, a_of[later], b_of[earlier]], -1)
    bad = np.flatnonzero(result < 0)
    if len(bad):
        pair = (G.arrows[parent[later[bad[0]]]], G.arrows[parent[earlier[bad[0]]]])
        raise KeyError(pair) if pair not in G.cmp else CatalogError(
            f"composite of {pair!r} in {G.name} is not an arrow between the sheets"
        )
    inv = {(s, a, b): (G.inv[s], b, a) for (s, a, b) in arrows}
    unit = {(x, a): (G.unit[x], a, a) for (x, a) in objects}
    return table_groupoid(
        arrows,
        np.stack([later, earlier, result], axis=1),
        objects=objects,
        src=src,
        tgt=tgt,
        inv=inv,
        unit=unit,
        base=None,
        name=f"Cech({G.name})",
    )


@dataclass(frozen=True, eq=False)
class CechActionGroupoid:
    """Symbolic Cech localization of a circle rotation groupoid.

    Arrows are (g, a, b): the action of g restricted to sheet b with image
    meeting sheet a.  Domains are open arcs, decided exactly on the turns.
    """

    parent: ActionGroupoid
    cover: CechCover
    arrows: tuple = field(init=False)

    def __post_init__(self):
        if not isinstance(self.parent.base, FourierCircle):
            raise CatalogError("Cech localization of an action groupoid needs a circle base")
        idx = self.cover.indices()
        arrs = tuple(
            (g, a, b) for g in self.parent.group.elements for a in idx for b in idx
            if self.domain((g, a, b))
        )
        object.__setattr__(self, "arrows", arrs)

    def _into(self, g, a) -> CircleArc:
        """The points that g, a rotation, moves into sheet a."""
        sheet = self.cover.sheet(a)
        return CircleArc(sheet.center - self.parent.iso[g].turns, sheet.half_width)

    def domain(self, arrow) -> list:
        """The points of sheet b that g moves into sheet a, as open arcs."""
        g, a, b = arrow
        return self.cover.sheet(b).overlap(self._into(g, a))

    def composable_pairs(self):
        group = self.parent.group
        for (g1, a1, b1) in self.arrows:
            for (g2, a2, b2) in self.arrows:
                if b1 != a2:
                    continue
                # a point of (g2, a2, b2)'s domain that g1 g2 moves into sheet a1
                g = group.mul(g1, g2)
                if any(arc.meets(self._into(g, a1)) for arc in self.domain((g2, a2, b2))):
                    yield (g1, a1, b1), (g2, a2, b2), (g, a1, b2)
