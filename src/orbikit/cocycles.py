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

Two cocycles are cohomologous when some lambda on the objects gives
g2(a) = lambda(tgt a) g1(a) lambda(src a)^-1 on every arrow.  ``cohomologous``
finds one by linear algebra alone, for every rank and component count: the
spanning forest fixes lambda up to its value at each component's anchor,
the arrows cut that value down to one null space per component, and a
candidate from it is kept only once ``verify_coboundary``'s array core
accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import CatalogError
from .groupoids import FiniteGroupoid, components
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


def _stack(g: Cocycle) -> np.ndarray:
    """The entries of ``g`` as one ``(arrows, k, k)`` stack, in arrow order."""
    return np.array([g.entries[a] for a in g.groupoid.arrows])


def _coboundary_holds(E1, E2, lams, src, tgt) -> np.ndarray:
    """Per arrow, whether ``E2 = lams[tgt] E1 lams[src]^-1`` by ``_close``,
    scaled by the norms of the three factors."""
    inverses = np.linalg.inv(lams)
    rhs = lams[tgt] @ E1 @ inverses[src]
    scale = _norms(lams)[tgt] * _norms(E1) * _norms(inverses)[src]
    return _close(E2, rhs, scale)


def verify_coboundary(g1: Cocycle, g2: Cocycle, lam: dict) -> bool:
    """Whether ``g2(a) = lam(tgt a) g1(a) lam(src a)^-1`` on every arrow."""
    ids, src, tgt = g1.groupoid.endpoint_ids
    lams = np.array([lam[x] for x in ids])
    return bool(_coboundary_holds(_stack(g1), _stack(g2), lams, src, tgt).all())


def _components_and_tree(n, src, tgt):
    """Spanning forest of the object graph on ids ``0..n-1``.

    Returns each object's anchor, the least id of its component, and the
    tree as batches ``(arrows, reverse)``: each arrow of a batch joins an
    object reached before to a new one, from its source to its target, or
    back when ``reverse``.  In a groupoid the first batch, arrows out of the
    anchors, reaches every object.
    """
    anchor = components(n, src, tgt)
    reached = anchor == np.arange(n)
    batches = []
    while not reached.all():
        for near, far, reverse in ((src, tgt, False), (tgt, src, True)):
            hit = np.flatnonzero(reached[near] & ~reached[far])
            if hit.size:
                hit = hit[np.unique(far[hit], return_index=True)[1]]
                reached[far[hit]] = True
                batches.append((hit, reverse))
    return anchor, batches


def _combinations(n, complex_):
    """Coefficients for ``n`` basis vectors: all ones, then 63 seeded random
    ones, complex when ``complex_``."""
    yield np.ones(n)
    rng = np.random.default_rng(0)
    for _ in range(63):
        c = rng.standard_normal(n)
        yield c + 1j * rng.standard_normal(n) if complex_ else c


def cohomologous(g1: Cocycle, g2: Cocycle):
    """Search for lambda with g2(x->x') = lambda(x') g1(x->x') lambda(x)^-1.

    Along the spanning forest, lambda(x) = A_x lambda0 B_x with lambda0 the
    value at the component's anchor, and every arrow asks lambda0 = M
    lambda0 K: ``(I - K^T kron M) vec(lambda0) = 0``, column-major ``vec``.
    One SVD of a component's stacked conditions gives their null space.
    Combinations of its basis (``_combinations``), each scaled to largest
    entry 1, are tried until one is invertible; the lambda they give is
    then checked on every arrow by ``_coboundary_holds``.  A rank-1 null
    space is everything or nothing, so the all-ones trial decides rank 1,
    and +-1 entries give lambda of exactly +-1; real entries give real
    lambda.

    Returns ``{object: lambda}``; None when a component's conditions have
    only the zero solution; INCONCLUSIVE when every trial of a component
    is singular or the check fails.
    """
    if g1.groupoid is not g2.groupoid or g1.rank != g2.rank:
        raise CatalogError("cocycles live on different groupoids or ranks")
    ids, src, tgt = g1.groupoid.endpoint_ids
    k, n = g1.rank, len(ids)
    E1, E2 = _stack(g1), _stack(g2)
    dtype = np.result_type(E1, E2, float)
    E1inv = np.linalg.inv(E1)
    anchor, batches = _components_and_tree(n, src, tgt)
    AB = np.zeros((2, n, k, k), dtype) + np.eye(k)
    A, B = AB
    for hit, reverse in batches:
        if reverse:
            A[src[hit]] = np.linalg.inv(E2[hit]) @ A[tgt[hit]]
            B[src[hit]] = B[tgt[hit]] @ E1[hit]
        else:
            A[tgt[hit]] = E2[hit] @ A[src[hit]]
            B[tgt[hit]] = B[src[hit]] @ E1inv[hit]
    Ainv, Binv = np.linalg.inv(AB)
    M = Ainv[tgt] @ E2 @ A[src]
    K = B[src] @ E1inv @ Binv[tgt]
    # vec(M X K) = (K^T kron M) vec(X) for the column-major vec
    conditions = np.eye(k * k) - np.einsum("aji,ars->airjs", K, M).reshape(-1, k * k, k * k)
    lams = np.empty_like(A)
    for x0 in np.flatnonzero(anchor == np.arange(n)):
        objs, arrows = np.flatnonzero(anchor == x0), np.flatnonzero(anchor[src] == x0)
        # k * k zero rows keep vh square when the component has few arrows
        stacked = np.concatenate([conditions[arrows].reshape(-1, k * k), np.zeros((k * k, k * k))])
        _, s, vh = np.linalg.svd(stacked, full_matrices=False)
        basis = vh[s <= 1e-10 * max(1.0, s[0])].conj()
        if not len(basis):
            return None
        for c in _combinations(len(basis), dtype.kind == "c"):
            lam0 = (c @ basis).reshape(k, k, order="F")
            lam0 = lam0 / lam0.flat[np.abs(lam0).argmax()]
            if abs(np.linalg.det(lam0)) > 1e-8:
                break
        else:
            return INCONCLUSIVE
        lams[objs] = A[objs] @ lam0 @ B[objs]
    if not _coboundary_holds(E1, E2, lams, src, tgt).all():
        return INCONCLUSIVE
    return {x: lams[i] for x, i in ids.items()}


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
