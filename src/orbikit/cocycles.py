"""Structure cocycles on Cech groupoids and their transport.

A cocycle assigns an invertible k x k matrix to every arrow so that
g(tau) g(sigma) = g(tau sigma) on composable pairs.  Unit arrows within a
single sheet are therefore forced to the identity (our normalization);
unit arrows across sheet overlaps are genuine transition functions.

Matrix entries stay exact (integer dtype) whenever the inputs are exact.
A float product is compared with the entry it should equal at 1e-12
relative to the product of its factors' Frobenius norms (at least 1): the
rounding of a product entry is bounded by that product of norms, so a
unit-scale cocycle is held to 1e-12 absolute and a large one is not failed
by its rounding alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bases import CatalogError
from .groupoids import FiniteGroupoid, label_ids
from .morita import Bitorsor, INCONCLUSIVE, left_witnesses
from .reports import ValidationReport

ENTRY_TOL = 1e-12


def _close(a, b, scale=1.0):
    """Per matrix of two ``(n, k, k)`` stacks: equal if both are integer, else
    the largest entry of ``a - b`` is at most ``ENTRY_TOL * max(1, scale)``.

    ``scale`` holds, per matrix, the product of the Frobenius norms of the
    factors multiplied to form the compared product.
    """
    if a.dtype.kind in "iu" and b.dtype.kind in "iu":
        return (a == b).all(axis=(1, 2))
    return np.abs(a - b).max(axis=(1, 2)) <= ENTRY_TOL * np.maximum(1.0, scale)


def _norms(stack):
    return np.linalg.norm(stack, axis=(1, 2))


@dataclass(eq=False)
class Cocycle:
    groupoid: FiniteGroupoid
    rank: int
    entries: dict  # arrow -> (rank x rank) ndarray
    name: str = "cocycle"

    def value(self, arrow):
        return self.entries[arrow]


def identity_cocycle(G: FiniteGroupoid, rank: int = 1) -> Cocycle:
    eye = np.eye(rank, dtype=int)
    return Cocycle(G, rank, {a: eye.copy() for a in G.arrows}, name="identity")


def sign_cocycle(G: FiniteGroupoid, sign_of) -> Cocycle:
    """Rank-1 cocycle from a +-1 assignment ``sign_of(arrow)``."""
    entries = {a: np.array([[int(sign_of(a))]]) for a in G.arrows}
    return Cocycle(G, 1, entries, name="sign")


def validate_cocycle(g: Cocycle) -> ValidationReport:
    """Totality, invertibility, the cocycle law and normalization.

    The entries are checked as one ``(arrows, k, k)`` stack: one batched
    determinant, and the cocycle law as ``E[later] @ E[earlier]`` against
    ``E[result]`` over ``composites``.  An all-integer stack compares
    exactly, any other by ``_close``: within ``ENTRY_TOL`` times
    ``max(1, |E[later]| |E[earlier]|)``.  A composite or unit that is
    not one of the arrows fails its pair or object.
    """
    G = g.groupoid
    rep = ValidationReport(subject=f"cocycle {g.name}")
    held, entries = [], []
    for i, a in enumerate(G.arrows):
        m = g.entries.get(a)
        if m is None:
            continue
        m = np.asarray(m)
        if m.shape != (g.rank, g.rank):
            raise CatalogError(f"rank mismatch at arrow {a!r}")
        held.append(i)
        entries.append(m)
    E = np.stack(entries) if entries else np.zeros((0, g.rank, g.rank), dtype=int)
    missing = np.ones(len(G.arrows), dtype=bool)
    missing[held] = False
    singular = np.zeros(len(G.arrows), dtype=bool)
    singular[held] = np.abs(np.linalg.det(E.astype(complex))) < 1e-9
    for i in np.flatnonzero(missing | singular):
        if missing[i]:
            rep.add(f"totality: no entry for arrow {G.arrows[i]!r}")
        else:
            rep.add(f"invertibility: entry at {G.arrows[i]!r} is singular")
    if not rep.ok:
        return rep
    # a -1 (no composite, or no unit among the arrows) gathers the last entry and fails
    later, earlier, result = G.composites
    norms = _norms(E)
    law = (result >= 0) & _close(E[later] @ E[earlier], E[result], norms[later] * norms[earlier])
    for i in np.flatnonzero(~law):
        rep.add(f"cocycle law: ({G.arrows[later[i]]!r},{G.arrows[earlier[i]]!r})")
    units = np.array([G.arrow_index.get(G.unit.get(x), -1) for x in G.objects], np.int64)
    normal = (units >= 0) & _close(E[units], np.eye(g.rank)[None])
    for i in np.flatnonzero(~normal):
        rep.add(f"normalization: unit arrow at {G.objects[i]!r} is not the identity")
    return rep


# ---------------------------------------------------------------------------
# sections of the localized anchor


@dataclass
class SectionFamily:
    """Local sections of the localized alpha, one per Y-sheet.

    ``assignments[i][y]`` is a localized carrier point (q, a, i) with
    alpha(q) == y; all points of one sheet must share the X-sheet tag a.
    """

    assignments: dict

    def point(self, i, y):
        return self.assignments[i][y]

    def x_sheet(self, i):
        tags = {p[1] for p in self.assignments[i].values()}
        if len(tags) != 1:
            raise CatalogError(f"section over sheet {i} straddles X-sheets {tags!r}")
        return next(iter(tags))


def validate_section_family(loc: Bitorsor, beta: SectionFamily) -> ValidationReport:
    rep = ValidationReport(subject="section family")
    carrier = set(loc.carrier)
    for i, table in beta.assignments.items():
        try:
            beta.x_sheet(i)
        except CatalogError as exc:
            rep.add(str(exc))
        for y, p in table.items():
            if p not in carrier:
                rep.add(f"sheet {i}: section point {p!r} not in carrier")
                continue
            if p[2] != i:
                rep.add(f"sheet {i}: point {p!r} tagged with the wrong Y-sheet")
            if loc.alpha[p] != (y, i):
                rep.add(f"sheet {i}: alpha of section point at {y!r} is wrong")
    return rep


def default_sections(loc: Bitorsor) -> SectionFamily:
    """Pick, per Y-sheet, the first carrier point over each base point.

    The X-sheet is chosen as the smallest tag serving the whole sheet.
    """
    sheets = {}
    for (y, i) in loc.right.objects:
        sheets.setdefault(i, set()).add(y)
    assignments = {}
    for i, ys in sorted(sheets.items()):
        x_tags = sorted(
            {a for (q, a, ii) in loc.carrier if ii == i},
        )
        chosen = None
        for a in x_tags:
            table = {}
            for y in ys:
                hits = [p for p in loc.alpha_fibre((y, i)) if p[1] == a and p[2] == i]
                if not hits:
                    table = None
                    break
                table[y] = hits[0]
            if table is not None:
                chosen = table
                break
        if chosen is None:
            raise CatalogError(
                f"no single X-sheet serves Y-sheet {i}; refine the cover"
            )
        assignments[i] = chosen
    return SectionFamily(assignments)


def sections_from_offsets(loc: Bitorsor, offset: int) -> SectionFamily:
    """Alternate section choice: rotate each fibre's preimage list."""
    base = default_sections(loc)
    assignments = {}
    for i, table in base.assignments.items():
        a = base.x_sheet(i)
        new = {}
        for y in table:
            hits = sorted(
                (p for p in loc.alpha_fibre((y, i)) if p[1] == a and p[2] == i), key=repr
            )
            new[y] = hits[offset % len(hits)]
        assignments[i] = new
    return SectionFamily(assignments)


# ---------------------------------------------------------------------------
# induced cocycles


def induce_cocycle(loc: Bitorsor, g: Cocycle, beta: SectionFamily) -> Cocycle:
    """Transport a cocycle through a localized equivalence.

    For an arrow tau: y -> y' (sheets j -> i), the entry is the value of g
    on the unique left arrow carrying the source section point onto the
    target section point moved back along tau:

        sigma . beta_j(y) = beta_i(y') . tau
    """
    if g.groupoid is not loc.left:
        raise CatalogError("cocycle does not live on the left Cech groupoid")
    validate_section_family(loc, beta).raise_if_invalid()
    R, index = loc.right, loc.point_index
    # arrow (t, i, j) runs from sheet j to sheet i
    q_src = [index[beta.point(a[2], R.src[a][0])] for a in R.arrows]
    q_tgt = [index[beta.point(a[1], R.tgt[a][0])] for a in R.arrows]
    sigma = left_witnesses(loc, q_src, q_tgt, lambda k: CatalogError(
        f"section point over {R.tgt[R.arrows[k]][0]!r} cannot move along {R.arrows[k]!r}"))
    entries = {arrow: np.asarray(g.entries[loc.left.arrows[s]]).copy()
               for arrow, s in zip(R.arrows, sigma.tolist())}
    return Cocycle(loc.right, g.rank, entries, name=f"induced({g.name})")


# ---------------------------------------------------------------------------
# coboundary search


def verify_coboundary(g1: Cocycle, g2: Cocycle, lam: dict) -> bool:
    """Whether ``g2(a) = lam(tgt a) g1(a) lam(src a)^-1`` on every arrow.

    Compared by ``_close``, scaled by the norms of the three factors.  One
    stack per side, and one batched inverse of the ``lam`` values.
    """
    G = g1.groupoid
    ids = {}
    src, tgt = (label_ids(ids, G.arrows, end) for end in (G.src, G.tgt))
    lams = np.stack([np.asarray(lam[x]) for x in ids])
    inverses = np.linalg.inv(lams.astype(complex))
    lhs = np.stack([np.asarray(g2.entries[a]) for a in G.arrows])
    middle = np.stack([np.asarray(g1.entries[a]) for a in G.arrows])
    rhs = lams[tgt] @ middle @ inverses[src]
    scale = _norms(lams)[tgt] * _norms(middle) * _norms(inverses)[src]
    return bool(_close(lhs, rhs, scale).all())


def _components_and_tree(G: FiniteGroupoid):
    """Spanning forest of the object graph; returns (anchors, tree edges)."""
    adj = {x: [] for x in G.objects}
    for a in G.arrows:
        adj[G.src[a]].append((a, G.tgt[a], False))
        adj[G.tgt[a]].append((a, G.src[a], True))
    seen = set()
    anchors, edges = [], []
    for x0 in G.objects:
        if x0 in seen:
            continue
        anchors.append(x0)
        seen.add(x0)
        stack = [x0]
        while stack:
            x = stack.pop()
            for (a, y, reverse) in adj[x]:
                if y in seen:
                    continue
                seen.add(y)
                edges.append((a, reverse))
                stack.append(y)
    return anchors, edges


def cohomologous(g1: Cocycle, g2: Cocycle, node_cap: int = 10**6):
    """Search for lambda with g2(x->x') = lambda(x') g1(x->x') lambda(x)^-1.

    Rank-1 cocycles with +-1 entries are searched exhaustively over +-1
    anchors (exact).  Otherwise anchors are solved as a linear intertwiner
    problem after spanning-tree propagation; returns a coboundary dict,
    None when none exists, or INCONCLUSIVE past the effort cap.
    """
    if g1.groupoid is not g2.groupoid or g1.rank != g2.rank:
        raise CatalogError("cocycles live on different groupoids or ranks")
    G = g1.groupoid
    signish = g1.rank == 1 and all(
        int(np.asarray(g.entries[a]).reshape(())) in (1, -1)
        for g in (g1, g2)
        for a in G.arrows
    )
    if signish:
        return _cohomologous_signs(g1, g2)
    return _cohomologous_linear(g1, g2, node_cap)


def _cohomologous_signs(g1: Cocycle, g2: Cocycle):
    G = g1.groupoid
    anchors, edges = _components_and_tree(G)
    for choice in itertools.product((1, -1), repeat=len(anchors)):
        lam = {x0: np.array([[s]]) for x0, s in zip(anchors, choice)}
        for (a, reverse) in edges:
            v1 = int(np.asarray(g1.entries[a]).reshape(()))
            v2 = int(np.asarray(g2.entries[a]).reshape(()))
            if not reverse:
                lam[G.tgt[a]] = np.array([[v2 * int(lam[G.src[a]][0, 0]) * v1]])
            else:
                lam[G.src[a]] = np.array([[v2 * int(lam[G.tgt[a]][0, 0]) * v1]])
        if all(
            int(np.asarray(g2.entries[a]).reshape(()))
            == int(lam[G.tgt[a]][0, 0])
            * int(np.asarray(g1.entries[a]).reshape(()))
            * int(lam[G.src[a]][0, 0])
            for a in G.arrows
        ):
            return lam
    return None


def _cohomologous_linear(g1: Cocycle, g2: Cocycle, node_cap: int):
    G = g1.groupoid
    k = g1.rank
    anchors, edges = _components_and_tree(G)
    if len(anchors) != 1:
        # solve component by component and merge
        lam = {}
        for x0 in anchors:
            comp_objs = _component_of(G, x0)
            sub = _restrict(G, comp_objs)
            sub1 = Cocycle(sub, k, {a: g1.entries[a] for a in sub.arrows})
            sub2 = Cocycle(sub, k, {a: g2.entries[a] for a in sub.arrows})
            res = _cohomologous_linear(sub1, sub2, node_cap)
            if res is None or res is INCONCLUSIVE:
                return res
            lam.update(res)
        return lam

    # propagate lambda(x) = A_x lambda0 B_x along a spanning tree
    A = {anchors[0]: np.eye(k)}
    B = {anchors[0]: np.eye(k)}
    for (a, reverse) in edges:
        m1 = np.asarray(g1.entries[a], dtype=complex)
        m2 = np.asarray(g2.entries[a], dtype=complex)
        if not reverse:
            x, x2 = G.src[a], G.tgt[a]
            A[x2] = m2 @ A[x]
            B[x2] = B[x] @ np.linalg.inv(m1)
        else:
            x, x2 = G.src[a], G.tgt[a]
            A[x] = np.linalg.inv(m2) @ A[x2]
            B[x] = B[x2] @ m1

    # every arrow yields lambda0 = M lambda0 K
    constraints = []
    for a in G.arrows:
        x, x2 = G.src[a], G.tgt[a]
        m1 = np.asarray(g1.entries[a], dtype=complex)
        m2 = np.asarray(g2.entries[a], dtype=complex)
        M = np.linalg.inv(A[x2]) @ m2 @ A[x]
        K = B[x] @ np.linalg.inv(m1) @ np.linalg.inv(B[x2])
        constraints.append(np.eye(k * k) - np.kron(K.T, M))
    stacked = np.vstack(constraints) if constraints else np.zeros((1, k * k))
    _, s, vh = np.linalg.svd(stacked)
    padded = np.concatenate([s, np.zeros(max(0, k * k - len(s)))])
    null_count = int((padded < 1e-10).sum())
    basis = vh[k * k - null_count :] if null_count else np.zeros((0, k * k))
    if basis.shape[0] == 0:
        return None
    rng = np.random.default_rng(0)
    for trial in range(64):
        combo = basis.T @ (
            rng.standard_normal(basis.shape[0])
            + 1j * rng.standard_normal(basis.shape[0])
            if trial
            else np.ones(basis.shape[0])
        )
        lam0 = combo.reshape(k, k)
        if abs(np.linalg.det(lam0)) > 1e-8:
            lam = {x: A[x] @ lam0 @ B[x] for x in G.objects}
            if verify_coboundary(g1, g2, lam):
                return lam
    return INCONCLUSIVE


def _component_of(G: FiniteGroupoid, x0):
    seen = {x0}
    stack = [x0]
    while stack:
        x = stack.pop()
        near = [G.tgt[a] for a in G.arrows_from(x)] + [G.src[a] for a in G.arrows_into(x)]
        for y in near:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _restrict(G: FiniteGroupoid, objs) -> FiniteGroupoid:
    arrows = tuple(a for a in G.arrows if G.src[a] in objs and G.tgt[a] in objs)
    kept = set(arrows)
    return FiniteGroupoid(
        objects=tuple(x for x in G.objects if x in objs),
        arrows=arrows,
        src={a: G.src[a] for a in arrows},
        tgt={a: G.tgt[a] for a in arrows},
        cmp={k: v for k, v in G.cmp.items() if k[0] in kept and k[1] in kept},
        inv={a: G.inv[a] for a in arrows},
        unit={x: G.unit[x] for x in objs if x in G.unit},
        name=f"{G.name}|component",
    )


# ---------------------------------------------------------------------------
# bundles


@dataclass(eq=False)
class ReconstructedBundle:
    """A rank-k bundle over a groupoid base, glued from a structure cocycle.

    Local trivializations are the standard fibres; ``action[arrow]`` is the
    matrix applied when the arrow carries its source fibre to its target
    fibre.  Cross-sheet unit arrows hold the geometric transition data.
    """

    groupoid: FiniteGroupoid
    rank: int
    action: dict
    name: str = "bundle"


def reconstruct_bundle(g: Cocycle, name=None) -> ReconstructedBundle:
    return ReconstructedBundle(
        g.groupoid,
        g.rank,
        {a: np.asarray(g.entries[a]).copy() for a in g.groupoid.arrows},
        name=name or f"bundle({g.name})",
    )


def structure_cocycle(bundle: ReconstructedBundle) -> Cocycle:
    return Cocycle(bundle.groupoid, bundle.rank, dict(bundle.action), name=bundle.name)


def validate_bundle(bundle: ReconstructedBundle) -> ValidationReport:
    rep = validate_cocycle(structure_cocycle(bundle))
    rep.subject = f"bundle {bundle.name}"
    return rep


def trivial_bundle(G: FiniteGroupoid, rank: int = 1) -> ReconstructedBundle:
    return reconstruct_bundle(identity_cocycle(G, rank), name="trivial")


def induced_bundle(b: Bitorsor, bundle: ReconstructedBundle) -> ReconstructedBundle:
    """Transport a bundle along a bitorsor.

    Fibres over the right base are presented through one carrier
    representative per alpha-fibre; the right action of an arrow tau is the
    left-groupoid matrix of the unique sigma with
    sigma . rep(src tau) = rep(tgt tau) . tau.
    """
    if bundle.groupoid is not b.left:
        raise CatalogError("bundle base mismatch: expected the left groupoid")
    reps = {}
    for q in b.carrier:
        reps.setdefault(b.alpha[q], q)
    missing = [y for y in b.right.objects if y not in reps]
    if missing:
        raise CatalogError(f"alpha not surjective; no representative over {missing[0]!r}")
    R, index = b.right, b.point_index
    sigma = left_witnesses(b, [index[reps[R.src[t]]] for t in R.arrows],
                           [index[reps[R.tgt[t]]] for t in R.arrows],
                           lambda k: KeyError((reps[R.tgt[R.arrows[k]]], R.arrows[k])))
    action = {t: np.asarray(bundle.action[b.left.arrows[s]]).copy() for t, s in zip(R.arrows, sigma.tolist())}
    out = ReconstructedBundle(
        b.right, bundle.rank, action, name=f"induced({bundle.name})"
    )
    out.reps = reps  # kept for tests and section alignment
    return out
