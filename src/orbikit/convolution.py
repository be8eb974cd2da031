"""The convolution algebra of a groupoid with the counting Haar system.

Elements are finitely supported functions on arrows (finite flavor) or,
for Fourier action groupoids, one band-limited function on the base per
group element, read at the arrow's source.  The product is fixed by the
representation law: with the representation

    (f . psi)(x) = sum over arrows sigma into x of
                   f(sigma) * transport(sigma) psi(src sigma)

the product (f1 * f2)(sigma) = sum over factorizations sigma = tau kappa
of f1(tau) f2(kappa) satisfies act(f1 * f2) = act(f1) o act(f2) with no
opposite-algebra twist.  Worked three-arrow example (translation action,
arrows written (a, y): y -> y + a):

    delta_(1,0) * delta_(1,2) = delta_(2,2)   since (1, 0) o (1, 2)
    composes (first (1,2): 2 -> 0, then (1,0): 0 -> 1) and
    delta_(1,0) * delta_(1,1) = 0             (endpoints do not meet).

The counting system makes every lambda-density of a kernel witness equal
to one, so kernel elements are exact difference vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .bases import BandLimitError, CatalogError, mode_class
from .cocycles import Cocycle, trivial_bundle
from .groupoids import ActionGroupoid, FiniteGroupoid, is_effective
from .spectral import (
    DiracSpec,
    TripleRun,
    _mode_action,
    action_mult_operator,
    chirality_step,
    commutator_step,
    growth_step,
    interior_norm,
    mult_operator,
    triple_header,
)
from .transport import BundleSection

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(eq=False)
class ConvolutionElement:
    groupoid: object  # FiniteGroupoid | ActionGroupoid
    data: dict  # finite: arrow -> value; action: group element -> mode data

    @property
    def flavor(self):
        return "finite" if isinstance(self.groupoid, FiniteGroupoid) else "fourier"

    def degree(self):
        if self.flavor == "finite":
            return 0
        return max((f.degree() for f in self.data.values()), default=0)


def delta(G, arrow, value=1.0) -> ConvolutionElement:
    return ConvolutionElement(G, {arrow: value})


def unit_element(G: FiniteGroupoid) -> ConvolutionElement:
    return ConvolutionElement(G, {G.unit[x]: 1.0 for x in G.objects})


def fourier_element(G: ActionGroupoid, parts: dict) -> ConvolutionElement:
    """parts: group element -> mode data (CircleModes | TorusModes) on the base."""
    return ConvolutionElement(G, dict(parts))


def fourier_unit(G: ActionGroupoid, cutoff=None) -> ConvolutionElement:
    base = G.base
    cutoff = base.mode_cutoff if cutoff is None else cutoff
    one = mode_class(base).mode(base, cutoff, (0,) * base.dim)
    return fourier_element(G, {G.group.identity: one})


# ---------------------------------------------------------------------------
# the product


def convolve(f1: ConvolutionElement, f2: ConvolutionElement) -> ConvolutionElement:
    if f1.groupoid is not f2.groupoid:
        raise CatalogError("convolution factors live on different groupoids")
    G = f1.groupoid
    if f1.flavor == "finite":
        out = {}
        for tau, v1 in f1.data.items():
            for kappa, v2 in f2.data.items():
                if G.src[tau] != G.tgt[kappa]:
                    continue
                arrow = G.compose(tau, kappa)
                out[arrow] = out.get(arrow, 0.0) + v1 * v2
        return ConvolutionElement(G, {a: v for a, v in out.items() if v != 0})
    # action flavor: (f1 * f2)_g = sum over g = g1 g2 of (f1_g1 o phi_g2) f2_g2
    group = G.group
    out = {}
    cutoff = max(
        [f.cutoff for f in f1.data.values()] + [f.cutoff for f in f2.data.values()]
    )
    if f1.degree() + f2.degree() > cutoff:
        raise BandLimitError("convolution leaves the declared band")
    for g1, p1 in f1.data.items():
        for g2, p2 in f2.data.items():
            g = group.mul(g1, g2)
            # p1 o phi_g2, an exact pullback under the isometry
            term = p1.pullback(G.iso[g2]).mul(p2).with_cutoff(cutoff)
            if g in out:
                out[g] = out[g] + term
            else:
                out[g] = term
    return ConvolutionElement(G, out)


# ---------------------------------------------------------------------------
# the representation


def act(f: ConvolutionElement, psi: BundleSection) -> BundleSection:
    """Counting-measure representation on sections of a finite bundle."""
    G = f.groupoid
    bundle = psi.bundle
    if bundle.groupoid is not G:
        raise CatalogError("section bundle lives on a different groupoid")
    values = {x: np.zeros(bundle.rank, dtype=complex) for x in G.objects}
    for sigma, v in f.data.items():
        x = G.tgt[sigma]
        transport = np.asarray(bundle.entries[sigma], dtype=complex)
        values[x] = values[x] + v * (transport @ psi.vector(G.src[sigma]))
    return BundleSection(bundle, values)


def act_modes(spec: DiracSpec, f: ConvolutionElement, psi):
    """Representation on band-limited spinor data over an action groupoid."""
    G = spec.groupoid
    if f.groupoid is not G:
        raise CatalogError("element lives on a different groupoid")
    if f.degree() + psi.degree() > psi.cutoff:
        raise BandLimitError("generator degree plus section degree exceeds the cutoff")
    total = None
    for g, part in f.data.items():
        # transport along g: lift sign/spin matrix times pullback by g^{-1}
        moved = part.mul(psi).with_cutoff(psi.cutoff).pullback(G.iso[g].inverse())
        S = spec.lift.matrix(g)
        if moved.fibre_shape == ():
            moved = moved * complex(S[0, 0])
        else:
            moved = moved.with_coeffs(np.einsum("...j,ij->...i", moved.coeffs, np.asarray(S)))
        total = moved if total is None else total + moved
    return total


def representation_matrix(spec: DiracSpec, f: ConvolutionElement, band=None) -> sp.csr_matrix:
    """pi(f) = sum_g U(g) mult(f_g) on the truncated spinor space.

    ``band`` (see the operator builders of ``spectral``) builds only a
    block of it, with the entries of that block of the whole matrix.
    """
    if f.groupoid is not spec.groupoid:
        raise CatalogError("element lives on a different groupoid")
    total = None
    for g, part in f.data.items():
        term = action_mult_operator(spec, g, part, band)
        total = term if total is None else total + term
    if total is None:  # the zero element
        base = spec.groupoid.base
        total = mult_operator(spec.space, mode_class(base).zero(base, base.mode_cutoff), band)
    return total


# ---------------------------------------------------------------------------
# faithfulness


# transport entries are read as fractions with at most this denominator
RATIONAL_DENOMINATOR = 10**6


@dataclass
class FaithfulnessReport:
    faithful: bool
    kernel_dim: int
    witness: ConvolutionElement | None
    matches_effectiveness: bool
    detail: str = ""


def faithfulness_probe(G, bundle_or_spec=None, generator_degree=2) -> FaithfulnessReport:
    """Kernel of the representation, exactly (finite) or within band.

    Finite flavor solves the exact rational nullspace of the linear map
    sending an element to its action matrix, by ``Fraction`` elimination
    one hom-set at a time; a transport entry that is not a fraction with
    denominator at most ``RATIONAL_DENOMINATOR`` (sqrt(3)/2, a non-real or
    non-finite value) raises ``CatalogError``.  Fourier flavor probes the
    span of single-mode elements per group element up to
    ``generator_degree``.  The outcome is compared against effectiveness.
    """
    effective, _ = is_effective(G)
    if isinstance(G, FiniteGroupoid):
        bundle = bundle_or_spec or trivial_bundle(G, 1)
        return _finite_probe(G, bundle, effective)
    if isinstance(G, ActionGroupoid):
        if not isinstance(bundle_or_spec, DiracSpec):
            raise CatalogError("fourier probe needs a DiracSpec")
        return _fourier_probe(G, bundle_or_spec, generator_degree, effective)
    raise CatalogError(f"unsupported groupoid {G!r}")


def _finite_probe(G: FiniteGroupoid, bundle: Cocycle, effective) -> FaithfulnessReport:
    """Exact kernel of ``f -> act(f)``, one small elimination per hom-set.

    An arrow's column of the action map is nonzero only in the block
    ``(tgt, src)``, so the kernel is the direct sum over hom-sets of the
    kernels of their ``k^2 x |hom(x, y)|`` transport matrices, each reduced
    to RREF in ``G.arrows`` order.  The witness is the basis vector of the
    earliest free arrow in ``G.arrows``; restricted to one hom-set the
    global RREF is that hom-set's RREF, so it is the first basis vector of
    the global nullspace.
    """
    k = bundle.rank
    position = G.arrow_index
    kernel_dim = 0
    witness = None
    first_free = len(G.arrows)
    for arrows in (G.arrows_between(x, y) for x in G.objects for y in G.objects):
        if not arrows:
            continue
        columns = [_exact_transport(bundle.entries[a], k, a) for a in arrows]
        rows, pivots = _rref(zip(*columns))
        kernel_dim += len(arrows) - len(pivots)
        free = next((j for j in range(len(arrows)) if j not in pivots), None)
        if free is None or position[arrows[free]] >= first_free:
            continue
        first_free = position[arrows[free]]
        # every column before the first free one is a pivot: row i pivots at column i
        data = {arrows[i]: complex(-rows[i][free]) for i in range(free) if rows[i][free]}
        data[arrows[free]] = complex(1)
        witness = ConvolutionElement(G, data)
    return FaithfulnessReport(
        faithful=kernel_dim == 0,
        kernel_dim=kernel_dim,
        witness=witness,
        matches_effectiveness=(kernel_dim == 0) == effective,
        detail=f"exact rational nullspace over {len(G.arrows)} arrows",
    )


def _exact_transport(transport, k, arrow) -> list:
    """The ``k^2`` entries of a transport matrix as exact rationals.

    Each entry is read as the nearest fraction with denominator at most
    ``RATIONAL_DENOMINATOR``; an entry that is not that fraction's float
    (an irrational such as sqrt(3)/2, a non-real or non-finite value) is
    refused.
    """
    out = []
    for v in np.asarray(transport, dtype=complex).reshape(k * k).tolist():
        exact = None
        if v.imag == 0 and math.isfinite(v.real):
            exact = Fraction(v.real).limit_denominator(RATIONAL_DENOMINATOR)
        if exact is None or float(exact) != v.real:
            raise CatalogError(f"transport of arrow {arrow!r} has entry {v!r}, not an exact rational")
        out.append(exact)
    return out


def _rref(rows) -> tuple[list, list]:
    """Reduced row echelon form of a nonempty Fraction matrix, given by rows.

    Returns its nonzero rows and, for each, the column of its pivot.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        done = len(pivots)
        pick = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[done], rows[pick] = rows[pick], rows[done]
        lead = rows[done][col]
        rows[done] = [v / lead for v in rows[done]]
        for i, row in enumerate(rows):
            if i != done and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[done])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _fourier_probe(G: ActionGroupoid, spec: DiracSpec, degree, effective) -> FaithfulnessReport:
    base = G.base
    kind = mode_class(base)
    labels = list(itertools.product(range(-degree, degree + 1), repeat=base.dim))
    params = [(g, l) for g in G.group.elements for l in labels]
    elements = [fourier_element(G, {g: kind.mode(base, base.mode_cutoff, l)}) for g, l in params]
    A = _probe_matrix(spec, elements, spec.space.band(max(2, spec.cutoff - degree - 2)))
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    tol = 1e-10 * (s[0] if len(s) else 1.0)
    candidates = [vh[i] for i in range(len(s)) if s[i] < tol]
    # a kernel element of the whole representation also kills the interior
    # block, so solving on the block and verifying each candidate on the
    # whole matrices, taken only when there is a candidate, is sound both ways
    kernel_vectors = []
    if candidates:
        whole = _probe_matrix(spec, elements, None)
        kernel_vectors = [vec for vec in candidates if np.abs(whole @ vec).max(initial=0.0) <= 1e-9]
    kernel_dim = len(kernel_vectors)
    witness = None
    if kernel_vectors:
        vec = kernel_vectors[0]
        data = {}
        for (g, l), c in zip(params, vec):
            if abs(c) < 1e-9:
                continue
            part = kind.mode(base, base.mode_cutoff, l, amplitude=c)
            if g in data:
                data[g] = data[g] + part
            else:
                data[g] = part
        witness = fourier_element(G, data)
    return FaithfulnessReport(
        faithful=kernel_dim == 0,
        kernel_dim=kernel_dim,
        witness=witness,
        matches_effectiveness=(kernel_dim == 0) == effective,
        detail=f"band-limited probe, degree {degree}, smallest singular value "
        f"{float(s[-1]) if len(s) else float('nan'):.3e}",
    )


def _probe_matrix(spec: DiracSpec, elements, band) -> np.ndarray:
    """Column e: the ``band`` block of pi(elements[e]), flattened.

    Each element is one mode of one part f_g, no two alike, and ``band`` is
    an interior band or None.  The modes of one g land at distinct places
    of U(g) mult(sum of their parts), so that operator is built once per g:
    its entry in the row that mode row s feeds and in column k belongs to
    the element of mode s - k, and holds that element's own value.  Only
    the rows that are nonzero in some column are kept: a row zero in every
    column adds exact zeros to A^H A, so the singular values are those of
    the full matrix of flattened blocks.
    """
    space = spec.space
    d, modes = space.rep.spinor_dim, space.modes
    kept = np.arange(len(modes)) if band is None else band[0].kept
    key = (4 * space.cutoff + 1) ** np.arange(space.n - 1, -1, -1)  # one per mode of [-2M, 2M]^n
    by_g = {}
    for e, f in enumerate(elements):
        ((g, part),) = f.data.items()
        by_g.setdefault(g, []).append((e, part))
    flat, column, values = [], [], []
    for g, members in by_g.items():
        op = action_mult_operator(spec, g, sum((part for _, part in members[1:]), members[0][1]), band)
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        shift = modes[_mode_action(spec, g)[1][kept[rows // d]]] - modes[kept[op.indices // d]]
        ids, own = zip(*((e, next(part.nonzero_modes())) for e, part in members))
        own = np.array(own) @ key
        order = np.argsort(own)
        owner = np.array(ids)[order][np.searchsorted(own[order], shift @ key)]
        flat.append(rows.astype(np.int64) * op.shape[1] + op.indices)
        column.append(owner)
        values.append(op.data)
    flat, column, values = (np.concatenate(x) for x in (flat, column, values))
    nonzero = values != 0
    rows, row_of = np.unique(flat[nonzero], return_inverse=True)
    A = np.zeros((len(rows), len(elements)), dtype=complex)
    A[row_of, column[nonzero]] = values[nonzero]
    return A


# ---------------------------------------------------------------------------
# the convolution spectral triple


def _ensure_element(spec: DiracSpec, f) -> ConvolutionElement:
    """Wrap bare mode data as a unit-component element of the right groupoid."""
    if isinstance(f, ConvolutionElement):
        return f
    return fourier_element(spec.groupoid, {spec.groupoid.group.identity: f})


def convolution_header(spec: DiracSpec, generators, *, buffer=None, label="convolution-triple") -> TripleRun:
    """``spectral.triple_header`` with pi = the convolution representation.

    Bare mode data among ``generators`` is wrapped as a unit-component
    element; every generator is built by ``representation_matrix``.
    """
    elements = [(name, _ensure_element(spec, f)) for name, f in generators]
    return triple_header(spec, elements, buffer=buffer, operator_builder=representation_matrix, label=label)


def law_step(run: TripleRun) -> None:
    """The representation-law residual max ||pi(f1 * f2) - pi(f1) pi(f2)||
    on the interior band, over the generator pairs whose product stays
    within the cutoff."""
    spec, band = run.spec, run.band
    elements = run.generators
    # the band block of pi(f1) pi(f2) sums over every middle mode: the band's
    # rows of pi(f1), all columns, times pi(f2) on the band's columns
    left = [representation_matrix(spec, f, (band[0], None)) for _, f in elements]
    right = [representation_matrix(spec, f, (None, band[1])) for _, f in elements]
    degrees = [f.degree() for _, f in elements]
    worst = 0.0
    for (_, f1), r1, deg1 in zip(elements, left, degrees):
        for (_, f2), r2, deg2 in zip(elements, right, degrees):
            if deg1 + deg2 > spec.cutoff:
                continue
            lhs = representation_matrix(spec, convolve(f1, f2), band)
            worst = max(worst, interior_norm(spec.space, lhs - r1 @ r2, run.buffer))
    run.report.representation_residual = worst


def convolution_triple_report(spec: DiracSpec, generators, *, buffer=None, label="convolution-triple"):
    """Every spectral-triple step with pi = the convolution representation.

    ``convolution_header``, then the commutator, growth and chirality steps
    of ``spectral.check_spectral_triple``, then ``law_step``, and an
    effectiveness note (a non-effective groupoid still produces a report,
    flagged as a non-faithful representation).  The chirality commutators
    double as the even-structure check: the induced chirality must commute
    with every represented generator.
    """
    effective, _ = is_effective(spec.groupoid)
    run = convolution_header(spec, generators, buffer=buffer, label=label)
    commutator_step(run)
    growth_step(run)
    chirality_step(run)
    law_step(run)
    if not effective:
        run.report.faithfulness_note = "representation not faithful (groupoid not effective)"
    return run.report
