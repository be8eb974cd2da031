"""Truncated Dirac operators and spectral-triple checks.

Operators act on the spinor-mode basis {modes |k| <= M} x spinor module,
as sparse matrices; eigenvalues come from the per-mode blocks
analytically.  Every Fourier operator but the Dirac itself is U mult(f),
written by one builder (``_operator``) straight into canonical CSR: the
multiplications, the lifted unitaries, pi(f) = sum_g U(g) mult(f_g), the
chirality and the frame identity's right-hand side.

Operator-norm and spectrum statements are restricted to the interior band
|k| <= M - B: multiplication operators couple modes across the cutoff, and
the interior block is exact for band-limited generators.  The checks build
each operator on that band only (the builders' ``band``), never whole and
then sliced: D and the chirality are block-diagonal over modes, so the
interior block of a commutator with either is the commutator of the
interior blocks.  ``interior_norm`` gives the exact 2-norm of either.

The spectral-triple checks are steps that fill one report:
``triple_header`` (the assembled Dirac, its Hermiticity residual and
eigenvalues, and the interior-band operators the other steps share), then
``commutator_step`` (norms, drift at double cutoff, frame residuals),
``growth_step``, ``chirality_step`` and ``symmetry_step``;
``convolution.law_step`` adds the representation law.
``check_spectral_triple`` runs them all.  A scenario check runs only the
steps whose fields it reads: the torus ``chirality-package`` the header,
the chirality and the law; the circle ``convolution-commutators`` the
header, the commutators and the law; ``growth-exponent`` the header and
the growth; ``divergence-symmetry`` the header and the symmetry.  So only
a check that reports drift builds the doubled cutoff.

Each operator is built once per ``DiracSpec``: the spec keeps its assembled
Dirac matrix with its Hermiticity residual, the mode permutation, its
inverse, the spin block and the spin-value levels of each lifted group
element and its specs at other cutoffs.  These caches assume that a spec
is not mutated after construction; build a new spec to change one.

The finite layers need only numpy.  scipy loads with the first Fourier
operator: each function here that calls scipy imports ``scipy.sparse``
(or ``scipy.sparse.csgraph`` and ``scipy.sparse.linalg``) in its body, so
``import orbikit`` loads no scipy module, and a run of a finite scenario
none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .bases import (
    CatalogError,
    CircleModes,
    FiniteSet,
    FourierCircle,
    ModeData,
    mode_class,
    mode_map,
    phase_vector,
)
from .clifford import CliffordRep, SpinLift
from .groupoids import ActionGroupoid, CechActionGroupoid, trivial_groupoid
from .morita import QuotientCovering
from .transport import (
    invariant_mode_indices,
    pullback_modes_section,
    solve_downstairs_twist,
    twist_of_modes,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_BUFFER = 2
MIN_CUTOFF = 8  # the smallest mode cutoff a DiracSpec accepts
LANCZOS_ROWS = 500  # a coupling component above this many rows takes svds, not a dense SVD


# ---------------------------------------------------------------------------
# spinor mode spaces


@dataclass(frozen=True, eq=False)
class KeptModes:
    """One side of a builder's band: the kept mode rows, ascending, and the
    place ``rank[r]`` of each mode row r among them, -1 where not kept."""

    kept: np.ndarray
    rank: np.ndarray

    @classmethod
    def of(cls, mask) -> "KeptModes":
        rank = np.cumsum(mask, dtype=np.int32) - 1
        rank[~mask] = -1
        return cls(np.flatnonzero(mask).astype(np.int32), rank)


@dataclass(frozen=True, eq=False)
class SpinorModeSpace:
    """Modes k in {-M..M}^n, row-major, each carrying a spinor block.

    ``modes`` is the ``(n_modes, n)`` integer array of mode labels and
    ``freqs`` the matching ``(2 pi / L_i)(k_i + twist_i)``; spinor index
    ``j`` of mode row ``r`` is basis vector ``r * spinor_dim + j``.
    """

    base: object  # FourierCircle | FourierTorus
    cutoff: int
    twist: tuple  # one Fraction per circle factor
    rep: CliffordRep

    @property
    def n(self):
        return self.base.dim

    @cached_property
    def modes(self) -> np.ndarray:
        side = 2 * self.cutoff + 1
        return np.indices((side,) * self.n).reshape(self.n, -1).T - self.cutoff

    @property
    def lengths(self) -> tuple:
        """The circumference of each circle factor."""
        return self.base.lengths

    @cached_property
    def freqs(self) -> np.ndarray:
        scale = np.array([2.0 * np.pi / L for L in self.lengths])
        return scale * (self.modes + np.array([float(t) for t in self.twist]))

    @property
    def dim(self):
        return len(self.modes) * self.rep.spinor_dim

    def mode_index(self, k) -> np.ndarray:
        """Row of each mode label in ``modes``; ``k`` has shape (..., n)."""
        k = np.asarray(k) + self.cutoff
        return np.ravel_multi_index(tuple(np.moveaxis(k, -1, 0)), (2 * self.cutoff + 1,) * self.n)

    def interior(self, buffer) -> np.ndarray:
        """Mask of the modes with max_i |k_i| <= M - buffer."""
        return np.abs(self.modes).max(axis=1) <= self.cutoff - buffer

    def band(self, buffer) -> tuple:
        """The interior band as the ``band`` of the operator builders: the
        same ``KeptModes`` for rows and columns, made once per buffer."""
        if buffer not in self._bands:
            keep = KeptModes.of(self.interior(buffer))
            self._bands[buffer] = (keep, keep)
        return self._bands[buffer]

    @cached_property
    def _bands(self) -> dict:
        return {}  # buffer -> band

    # the SpinBlock of each constant spinor block, made on first read
    @cached_property
    def _one_block(self) -> SpinBlock:
        return _constant_block(np.eye(self.rep.spinor_dim))

    @cached_property
    def _chirality_block(self) -> SpinBlock:
        return _constant_block(self.rep.chirality)

    @cached_property
    def _gamma_blocks(self) -> tuple:
        return tuple(_constant_block(gamma) for gamma in self.rep.gammas)

    def interior_indices(self, buffer) -> np.ndarray:
        d = self.rep.spinor_dim
        rows = np.flatnonzero(self.interior(buffer))
        return (rows[:, None] * d + np.arange(d)).reshape(-1)


# ---------------------------------------------------------------------------
# Dirac specifications


@dataclass(eq=False)
class DiracSpec:
    """Groupoid, spin lift, twist per circle factor and mode cutoff of a Dirac.

    A spec is not mutated after construction: it caches what is built from
    it on itself, and those caches live and die with it.  They hold the mode
    space, the mode permutation, its inverse and the spin values of each
    lifted group element, the assembled Dirac matrix and the specs at other
    cutoffs.
    """

    groupoid: ActionGroupoid
    lift: SpinLift
    twist: tuple
    cutoff: int

    def __post_init__(self):
        if self.cutoff < MIN_CUTOFF:
            raise CatalogError(f"mode cutoff must be at least {MIN_CUTOFF}")
        self.twist = tuple(Fraction(t) for t in self.twist)
        if any(t not in (Fraction(0), Fraction(1, 2)) for t in self.twist):
            raise CatalogError("twists must be 0 or 1/2 per circle factor")
        n = self.groupoid.base.dim
        if len(self.twist) != n or self.lift.rep.dimension != n:
            raise CatalogError("twist/representation dimension mismatch")
        if self.lift.groupoid is not self.groupoid:
            raise CatalogError("lift was built for a different groupoid")
        self._action_cache = {}  # group element -> (target, inverse, S, SpinBlock of phase S)
        self._dirac = None  # (matrix, Hermiticity residual): a TruncatedDirac would point back here
        self._cutoff_cache = {}  # cutoff -> DiracSpec

    @cached_property
    def space(self):
        return SpinorModeSpace(self.groupoid.base, self.cutoff, self.twist, self.lift.rep)

    def with_cutoff(self, cutoff) -> "DiracSpec":
        """The same structure at another cutoff; one spec per cutoff."""
        if cutoff not in self._cutoff_cache:
            new_base = replace(self.groupoid.base, mode_cutoff=cutoff)
            G = ActionGroupoid(self.groupoid.group, new_base, dict(self.groupoid.iso), self.groupoid.name)
            lift = SpinLift(G, self.lift.rep, dict(self.lift.signs), self.lift.strict)
            self._cutoff_cache[cutoff] = DiracSpec(G, lift, self.twist, cutoff)
        return self._cutoff_cache[cutoff]


# ---------------------------------------------------------------------------
# operator builders
#
# Every builder is one call of ``_operator``, which writes U mult(f) on the
# spinor modes straight into canonical CSR, with no COO matrix in between:
# rows in order, each row's columns ascending, the arrays a COO -> CSR sort
# of the same entries gives.  mult(f) sends mode k to mode k + l with the
# coefficient of mode l of f; U sends mode row s to row target[s] times a
# spinor block.  ``mult_operator`` has U = 1 on the identity block;
# ``action_matrix`` f = 1 and U(g) (its mode permutation, inverse and spin
# values phase[s] S come from ``_mode_action``, cached per spec);
# ``action_mult_operator`` both; ``chirality_matrix`` f = 1 on the
# chirality block, and ``_frame_identity_rhs`` mult(-i d_a f) on gamma_a.
# The identity, chirality and gamma blocks are made once per space.
#
# A value that is a product, (phase[s] S[i, j]) c_l or c_l gamma_a[i, j],
# is the textbook complex product that the sparse product rounds, taken
# once per distinct (spin value, coefficient) pair and gathered.
#
# A builder's ``band`` is None for the whole space, or a (row, column) pair
# of ``KeptModes``, either of them None for every mode.  Only the entries
# inside both are built, with the kept modes numbered in order: the result
# is that block of the whole operator, with the same entries in the same
# order.  ``SpinorModeSpace.band`` gives the interior band's pair.


class SpinBlock(NamedTuple):
    """A spinor block as ``_operator`` reads it, per mode row.

    ``values`` are the bitwise distinct values its entries take;
    ``level[s, i, q]`` indexes the value of the q-th nonzero of block row i
    on mode row s (one row of ``level`` serves every mode row of a block
    that does not vary); ``column[i, q]`` is that nonzero's column, or -1
    past the last nonzero of a row shorter than the longest.
    """

    values: np.ndarray
    level: np.ndarray
    column: np.ndarray


def _spin_block(block, values) -> SpinBlock:
    """``values[p, s]`` is the p-th nonzero of ``block`` (row-major) on mode
    row s; a single column serves every mode row, and so does the first
    column when each row's bits are all the same."""
    i, j = np.nonzero(block)
    per_row = np.bincount(i, minlength=len(block))
    q = np.arange(len(i)) - (np.cumsum(per_row) - per_row)[i]
    column = np.full((len(block), per_row.max()), -1, dtype=np.int32)
    column[i, q] = j
    values = np.asarray(values, dtype=complex)
    bits = values.view(np.uint64).reshape(len(values), -1, 2)
    if (bits == bits[:, :1]).all():
        values = values[:, :1]
    distinct, index = np.unique(values.reshape(-1).view("V16"), return_inverse=True)
    level = np.zeros((values.shape[1],) + column.shape, dtype=np.intp)
    level[:, i, q] = index.reshape(values.shape).T
    return SpinBlock(distinct.view(complex), level, column)


def _constant_block(block) -> SpinBlock:
    """A spinor block that is the same on every mode row."""
    return _spin_block(block, block[np.nonzero(block)][:, None])


def _mode_action(spec: DiracSpec, g):
    """U(g) on modes: mode row s goes to row ``target[s]`` times ``phase[s]`` S.

    U(g) is the pullback psi -> psi o iso^{-1} of ``bases.mode_map`` with
    the spin block S of the lift; every mode must stay in the window.
    Returns (target, inverse, S, spin): ``inverse[R]`` is the row that goes
    to row R, and ``spin`` the ``SpinBlock`` of the values phase[s] S[i, j].
    Cached per spec.
    """
    if g not in spec._action_cache:
        target, phase = mode_map(spec.cutoff, spec.twist, spec.groupoid.iso[g].inverse())
        if (target < 0).any():
            raise CatalogError("pullback leaves the truncation window")
        inverse = np.empty_like(target)
        inverse[target] = np.arange(len(target), dtype=target.dtype)
        S = spec.lift.matrix(g)
        spec._action_cache[g] = (target, inverse, S, _spin_block(S, phase * S[np.nonzero(S)][:, None]))
    return spec._action_cache[g]


def _shifts(space: SpinorModeSpace, f):
    """The shifts l of ``f``'s nonzero modes, in descending row-major order,
    and their coefficients.

    Mode l of ``f`` sends mode k to mode k + l, so within a row the columns
    k ascend as the shifts descend.  ``f`` must be a plain function of the
    space's base: no fibre, no twist.
    """
    kind = mode_class(space.base)
    if not isinstance(f, kind):
        raise CatalogError(f"{type(space.base).__name__} space needs {kind.__name__} data")
    if f.fibre_shape or any(f.twists):
        raise CatalogError("multiplier is not a scalar function on the base")
    pos = np.argwhere(np.abs(f.coeffs) > 0)[::-1]
    return pos - f.cutoff, f.coeffs[tuple(pos.T)]


def _operator(space: SpinorModeSpace, shifts, table, spin: SpinBlock, band=None, inverse=None) -> sp.csr_matrix:
    """U mult(f) on ``band`` in canonical CSR.

    Output mode row R takes the row s = ``inverse[R]`` of mult(f) (s = R
    when ``inverse`` is None): the ``shifts`` l_t with k = s - l_t in the
    window, columns ascending.  Each of them expands over the nonzeros of
    ``spin``'s block, and nonzero q of block row i, at column j, puts
    ``table[spin.level[s, i, q], t]`` at row R d + i, column k d + j.  The
    rows come in order and each row's columns ascend, the order a
    COO -> CSR sort leaves.
    """
    import scipy.sparse as sp

    d, n_modes, M = space.rep.spinor_dim, len(space.modes), space.cutoff
    rows, cols = (None, None) if band is None else band
    kept = np.arange(n_modes, dtype=np.int32) if rows is None else rows.kept
    src = kept if inverse is None else inverse.take(kept)
    # mode entry (r, t): output row r and shift t, at column k = src[r] - l_t
    # while k stays in the window, decided for every mode row one axis at a time
    inside = np.ones((1, len(shifts)), dtype=bool)
    for l in shifts.T:
        stays = np.abs(np.arange(-M, M + 1)[:, None] - l) <= M
        inside = (inside[:, None] & stays).reshape(len(inside) * (2 * M + 1), len(shifts))
    inside = inside.take(src, axis=0)
    col = src[:, None] - (shifts @ (2 * M + 1) ** np.arange(space.n - 1, -1, -1)).astype(np.int32)
    width = n_modes
    if cols is not None:
        col = cols.rank.take(col, mode="clip")
        inside &= col >= 0
        width = len(cols.kept)
    # entries (r, i, t, q) in C order are the CSR order
    nonzero = spin.column >= 0
    keep = inside[:, None, :, None] & nonzero[:, None, :]
    level = spin.level.take(src, axis=0, mode="clip")  # "clip": a one-row level serves every row
    data = table.take(level, axis=0).transpose(0, 1, 3, 2)[keep]
    indices = (col[:, None, :, None] * d + spin.column[:, None, :])[keep]
    indptr = np.zeros(len(kept) * d + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=(2, 3)).ravel(), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr), shape=(len(kept) * d, width * d))


def _product(a, b) -> np.ndarray:
    """a * b by the textbook complex product, as the sparse matrix product
    rounds it; numpy's vectorized complex multiply can differ in the last bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    re, im = out.real, out.imag
    np.multiply(a.real, b.real, out=re)
    re -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def _no_shift(space: SpinorModeSpace):
    """The shifts of the constant function 1."""
    return np.zeros((1, space.n), dtype=int)


def action_matrix(spec: DiracSpec, g) -> sp.csr_matrix:
    """The lifted unitary of one group element on the truncated spinors."""
    _, inverse, _, spin = _mode_action(spec, g)
    return _operator(spec.space, _no_shift(spec.space), spin.values[:, None], spin, None, inverse)


def mult_operator(space: SpinorModeSpace, f, band=None) -> sp.csr_matrix:
    """Pointwise multiplication by a band-limited scalar function.

    Mode l of ``f`` sends mode k to mode k + l.  Rows and columns outside
    the shared truncation window are dropped; the interior band of any
    derived operator stays exact as long as the buffer covers the
    generator degree.
    """
    shifts, coeffs = _shifts(space, f)
    # the coefficients themselves, on the identity block
    return _operator(space, shifts, coeffs[None, :], space._one_block, band)


def action_mult_operator(spec: DiracSpec, g, part, band=None) -> sp.csr_matrix:
    """U(g) mult(part): mode entry (s, k) of the multiplication, with
    coefficient c_l, goes to row target[s] with value (phase[s] S[i, j]) c_l."""
    shifts, coeffs = _shifts(spec.space, part)
    _, inverse, _, spin = _mode_action(spec, g)
    return _operator(spec.space, shifts, _product(spin.values[:, None], coeffs), spin, band, inverse)


def chirality_matrix(space: SpinorModeSpace, band=None) -> sp.csr_matrix:
    if space.rep.chirality is None:
        raise CatalogError("chirality needs an even-dimensional base")
    spin = space._chirality_block
    return _operator(space, _no_shift(space), spin.values[:, None], spin, band)


# ---------------------------------------------------------------------------
# assembled Dirac operators


@dataclass(eq=False)
class TruncatedDirac:
    spec: DiracSpec
    matrix: sp.csr_matrix
    residual: float  # max |D - D^H| entry, taken once per spec by assemble_dirac

    @property
    def space(self):
        return self.spec.space

    def dense(self):
        return self.matrix.toarray()

    def hermiticity_residual(self) -> float:
        return self.residual

    def eigenvalues(self, buffer=None) -> np.ndarray:
        """Analytic spectrum of the per-mode blocks, sorted ascending: every
        mode, or only the interior band of ``buffer`` when one is given."""
        space = self.space
        w = space.freqs if buffer is None else space.freqs[space.interior(buffer)]
        if space.n == 1:
            return np.sort(w[:, 0])
        r = np.hypot(w[:, 0], w[:, 1])
        return np.sort(np.stack([r, -r], axis=1).reshape(-1))


def _dirac_operator(space: SpinorModeSpace, keep=None) -> sp.csr_matrix:
    """Sum of gamma(frame) x mode frequency, one block per mode.

    D is block-diagonal over modes, so its block on the ``KeptModes``
    ``keep`` (None for every mode) is built from those modes alone, with
    the same entries as the matching block of the whole matrix.
    """
    import scipy.sparse as sp

    d = space.rep.spinor_dim
    gammas = space.rep.gammas
    freqs = space.freqs if keep is None else space.freqs[keep.kept]
    # the block entries some gamma reaches, in row-major order
    i, j = np.nonzero(sum(np.abs(gamma) for gamma in gammas))
    values = sum(freqs[:, a] * gamma[i, j][:, None] for a, gamma in enumerate(gammas))  # (entries, modes)
    e, m = np.nonzero(values)
    size = len(freqs) * d
    return sp.csr_matrix((values[e, m], (m * d + i[e], m * d + j[e])), shape=(size, size))


def assemble_dirac(spec: DiracSpec) -> TruncatedDirac:
    """The Dirac of ``_dirac_operator`` on the whole truncation window.

    Built and validated once per spec: Hermiticity (1e-14) and invariance
    against every lifted group element (1e-12), the latter on the per-mode
    blocks; a failure of it is a lift/action mismatch and raises.  The
    Hermiticity residual is kept with the matrix.
    """
    if spec._dirac is None:
        space = spec.space
        D = _dirac_operator(space)
        residual = _max_abs(D - D.getH())
        if residual > 1e-14:
            raise CatalogError("assembled Dirac is not Hermitian")
        for g in spec.groupoid.group.elements:
            # [D, U(g)] block by block: U(g) maps mode r to mode target[r] by
            # phase[r] S, a phase of modulus one, and D is w(r).gamma on mode r
            target, _, S, _ = _mode_action(spec, g)
            gamma_S = np.array([(gamma @ S).reshape(-1) for gamma in space.rep.gammas])
            S_gamma = np.array([(S @ gamma).reshape(-1) for gamma in space.rep.gammas])
            res = float(np.abs(space.freqs[target] @ gamma_S - space.freqs @ S_gamma).max())
            if res > 1e-12:
                raise CatalogError(f"lift/action mismatch: [D, U({g!r})] residual {res:.2e}")
        spec._dirac = (D, residual)
    return TruncatedDirac(spec, *spec._dirac)


def _max_abs(mat) -> float:
    """The largest |entry| a sparse matrix stores; 0.0 when it stores none."""
    return float(np.max(np.abs(mat.data))) if mat.nnz else 0.0


def invariant_projector(spec: DiracSpec) -> sp.csr_matrix:
    """P = average of the lifted action matrices; needs a strict lift."""
    if not spec.lift.strict:
        raise CatalogError("invariant projector needs a strict (cocycle) lift")
    G = spec.groupoid.group
    P = None
    for g in G.elements:
        U = action_matrix(spec, g)
        P = U if P is None else P + U
    P = P * (1.0 / G.order)
    if _max_abs(P @ P - P) > 1e-12:
        raise CatalogError("projector does not square to itself")
    return P


# ---------------------------------------------------------------------------
# orbifold integration


@dataclass
class Chart:
    """One orbifold chart: a localized finite group and a partition weight.

    The catalog charts are the whole base; different decompositions differ
    in their invariant partition functions.  ``principal_rank`` is the
    isotropy rank on the principal stratum.
    """

    name: str
    group_order: int
    principal_rank: int
    partition: object  # CircleModes | TorusModes | dict for finite bases

    @property
    def weight(self):
        return self.principal_rank / self.group_order


@dataclass
class OrbifoldMeasure:
    base: object  # FourierCircle | FourierTorus | FiniteSet
    charts: list

    def validate(self, groupoid: ActionGroupoid | None = None, tol=1e-10):
        """Partition of unity and partition invariance within ``tol``; on the
        Fourier bases as l1 norms of coefficient differences (sup-norm bounds)."""
        if isinstance(self.base, FiniteSet):
            for x in self.base.points:
                total = sum(ch.partition[x] for ch in self.charts)
                if abs(total - 1.0) > tol:
                    raise CatalogError(f"partition of unity fails at {x!r}")
            return self
        cut = max(ch.partition.cutoff for ch in self.charts)
        total = 0.0
        for ch in self.charts:
            p = ch.partition
            pad = cut - p.cutoff
            total = total + np.pad(p.coeffs, [(pad, pad)] * p.coeffs.ndim)
            if groupoid is not None:
                for g in groupoid.group.elements:
                    moved = p.pullback(groupoid.iso[g])
                    if np.abs(moved.coeffs - p.coeffs).sum() > tol:
                        raise CatalogError(
                            f"chart {ch.name!r} partition is not invariant under {g!r}"
                        )
        total[(cut,) * total.ndim] -= 1.0
        if np.abs(total).sum() > tol:
            raise CatalogError("partition of unity does not sum to one")
        return self

    def volume_element(self):
        if isinstance(self.base, FiniteSet):
            return 1.0  # counting measure
        return math.prod(self.base.lengths)


def uniform_measure(base, group_order, principal_rank, cutoff=None, name="whole") -> OrbifoldMeasure:
    """Single whole-base chart with the constant partition function."""
    if isinstance(base, FiniteSet):
        part = {x: 1.0 for x in base.points}
    else:
        part = mode_class(base).mode(base, cutoff or base.mode_cutoff, (0,) * base.dim)
    return OrbifoldMeasure(base, [Chart(name, group_order, principal_rank, part)])


def orbifold_integral(measure: OrbifoldMeasure, f) -> complex:
    """Chart-weighted integral sum_a (k_a/|G_a|) int rho_a f dvol.

    On the Fourier bases a chart integral is a sum over coefficient pairs
    (see ``_weighted_pairing``); a twisted or fibre-valued integrand is not
    a function on the base and is refused.  Finite bases use counting measure.
    """
    if isinstance(measure.base, FiniteSet):
        total = 0.0
        for ch in measure.charts:
            total += ch.weight * sum(ch.partition[x] * f[x] for x in measure.base.points)
        return total
    if f.fibre_shape or any(f.twists):
        raise CatalogError("integrand is not a scalar function on the base")
    one = np.ones((1,) * f.coeffs.ndim)  # the constant function, at cutoff 0
    return _weighted_pairing(measure, one, 0, f.coeffs, f.cutoff)


def orbifold_inner(measure: OrbifoldMeasure, psi1, psi2) -> complex:
    """<psi1, psi2>: the orbifold integral of the pointwise pairing."""
    if psi1.twist != psi2.twist:
        raise CatalogError("paired sections have different twists")
    return _weighted_pairing(measure, np.conj(psi1.coeffs), psi1.cutoff, psi2.coeffs, psi2.cutoff)


def _weighted_pairing(measure: OrbifoldMeasure, a, ca, b, cb) -> complex:
    """sum over charts of weight * vol * sum_p rho_p sum_k a_k b_(k-p).

    ``a``, ``b`` hold the modes |k_i| <= ca, cb on their leading axes, then
    fibre axes, which are summed.  For a = conj(coefficients of psi1) and
    b = psi2's this is int rho conj(psi1) psi2 dvol (Parseval for rho = 1).
    """
    axes = tuple(range(measure.base.dim))
    # one window wide enough that no partition shift wraps a nonzero mode round
    C = max(ca, cb) + max(ch.partition.degree() for ch in measure.charts)
    a, b = (np.pad(x, [(C - c, C - c)] * len(axes) + [(0, 0)] * (x.ndim - len(axes)))
            for x, c in ((a, ca), (b, cb)))
    total = 0.0
    for ch in measure.charts:
        rho = ch.partition
        for p in np.argwhere(rho.coeffs != 0):
            shifted = np.roll(b, tuple(p - rho.cutoff), axis=axes)  # shifted_k = b_(k-p)
            total += ch.weight * rho.coeffs[tuple(p)] * np.sum(a * shifted)
    return complex(measure.volume_element() * total)


# ---------------------------------------------------------------------------
# induced Dirac through a covering quotient


@dataclass
class InducedDirac:
    upstairs: TruncatedDirac
    downstairs: TruncatedDirac
    unitary: np.ndarray  # invariant modes -> downstairs modes
    invariant_modes: list
    down_twist: Fraction
    conjugation_residual: float
    branch_residual: float


def induced_dirac(cov: QuotientCovering, spec: DiracSpec) -> InducedDirac:
    """Quotient-circle Dirac with the unitary matching the invariant part.

    The downstairs twist is solved from the invariant spectrum, never
    assumed.  The unitary is the mode relabeling (k + t) = m (j + t');
    its conjugation residual against the downstairs Dirac is reported.
    """
    if spec.groupoid is not cov.upstairs:
        raise CatalogError("spec groupoid is not the covering's upstairs groupoid")
    if spec.groupoid.base.dim != 1:
        raise CatalogError("covering family is one-dimensional")
    up = assemble_dirac(spec)
    signs = {g: float(spec.lift.signs[g]) for g in spec.groupoid.group.elements}
    ks = invariant_mode_indices(cov, spec.twist[0], signs)
    tw = twist_of_modes(cov, spec.twist[0], ks)
    # the relabeling (k + t) = m (j + t') of the invariant modes
    js = np.array([int((Fraction(k) + spec.twist[0]) / cov.degree - tw) for k in ks])
    down_cut = max(MIN_CUTOFF, int(np.abs(js).max()))
    down_circle = FourierCircle(cov.downstairs.circumference, down_cut)
    down_group = trivial_groupoid(down_circle)
    down_lift = SpinLift(down_group, spec.lift.rep, {0: 1}, strict=True)
    down_spec = DiracSpec(down_group, down_lift, (tw,), down_cut)
    down = assemble_dirac(down_spec)

    U = np.zeros((2 * down_cut + 1, 2 * spec.cutoff + 1), dtype=complex)
    U[js + down_cut, np.array(ks) + spec.cutoff] = 1.0
    conj = U @ up.matrix @ np.conj(U.T)
    hit = np.ix_(js + down_cut, js + down_cut)
    residual = float(np.max(np.abs((conj - down.matrix.toarray())[hit])))

    branch = _branch_agreement_residual(cov, up, down_spec)
    return InducedDirac(
        upstairs=up,
        downstairs=down,
        unitary=U,
        invariant_modes=ks,
        down_twist=tw,
        conjugation_residual=residual,
        branch_residual=branch,
    )


def conjugated_multiplication_residual(
    ind: InducedDirac, f: CircleModes, f_down: CircleModes, buffer=DEFAULT_BUFFER
) -> float:
    """Residual of U mult(f) U* = mult(pushforward f) on the interior band.

    Together with the spectrum match this witnesses the full unitary
    equivalence of the two triples: the transported algebra action is the
    quotient algebra action.
    """
    up_op = mult_operator(ind.upstairs.space, f).toarray()
    down_op = mult_operator(ind.downstairs.space, f_down).toarray()
    U = ind.unitary
    conj = U @ up_op @ np.conj(U.T)
    keep = np.flatnonzero(ind.downstairs.space.interior(buffer) & (np.abs(U).sum(axis=1) > 0))
    if keep.size == 0:
        return 0.0
    diff = (conj - down_op)[np.ix_(keep, keep)]
    return float(np.max(np.abs(diff)))


def matched_interior_spectra(ind: InducedDirac, buffer=DEFAULT_BUFFER):
    """Invariant upstairs spectrum and downstairs spectrum on a shared window.

    The window is the smaller of the two interior-band edges, so both
    truncations are exact on it; the two sorted lists must agree
    elementwise for covering-family scenarios.
    """
    up_space = ind.upstairs.space
    dn_space = ind.downstairs.space
    edge = min(_interior_edge(up_space, buffer), _interior_edge(dn_space, buffer))
    ks = np.asarray(ind.invariant_modes, dtype=int).reshape(-1, 1)
    up_vals = up_space.freqs[up_space.mode_index(ks), 0]
    up_vals = np.sort(up_vals[np.abs(up_vals) <= edge + 1e-12])
    dn_vals = ind.downstairs.eigenvalues()
    dn_vals = dn_vals[np.abs(dn_vals) <= edge + 1e-12]
    return up_vals, dn_vals


def _branch_agreement_residual(cov: QuotientCovering, up: TruncatedDirac, down_spec: DiracSpec) -> float:
    """Compare local Dirac representatives through two covering branches.

    Branch b reads D psi at x + b L/m: on coefficients, the exact phases of
    ``phase_vector`` times the lift sign.  The l1 norm of its difference
    from branch 0 bounds the pointwise disagreement.
    """
    spec = up.spec
    m, t_up, t_dn = cov.degree, spec.twist[0], down_spec.twist[0]
    # the largest downstairs degree whose modes j all pull back into |k| <= M
    fits = int((spec.cutoff - abs(m * t_dn - t_up)) // m)
    zeta = CircleModes.random(
        down_spec.groupoid.base, down_spec.cutoff, np.random.default_rng(3), twist=t_dn,
        degree=min(max(2, down_spec.cutoff // 2), fits),
    )
    psi = pullback_modes_section(cov, zeta, up_twist=t_up)
    # the invariant extension matching branch 0; D psi is invariant again
    dpsi = up.matrix @ psi.coeffs
    worst = 0.0
    for branch in range(m):
        h = float(spec.lift.signs[cov.deck_element(0, branch)])
        moved = h * phase_vector(spec.cutoff, t_up, Fraction(branch, m)) * dpsi
        worst = max(worst, float(np.abs(moved - dpsi).sum()))
    return worst


# ---------------------------------------------------------------------------
# spectral triple reports


@dataclass
class SpectralTripleReport:
    label: str
    cutoff: int
    buffer: int
    hermiticity_residual: float
    eigenvalues: np.ndarray | None = None  # interior band, sorted
    commutator_norms: dict = field(default_factory=dict)
    commutator_drift: dict = field(default_factory=dict)
    frame_identity_residuals: dict = field(default_factory=dict)
    growth_exponent: float | None = None
    growth_target: int | None = None
    chirality_square_residual: float | None = None
    chirality_anticommutator: float | None = None
    chirality_commutators: dict = field(default_factory=dict)
    symmetry_residual: float | None = None
    representation_residual: float | None = None
    faithfulness_note: str = ""
    # (name, interior-band block at the spec cutoff) per generator, in generator order
    operators: list = field(default_factory=list, repr=False, compare=False)

    def as_dict(self):
        out = {
            "label": self.label,
            "cutoff": self.cutoff,
            "buffer": self.buffer,
            "hermiticity_residual": self.hermiticity_residual,
            "eigenvalues": [float(v) for v in self.eigenvalues]
            if self.eigenvalues is not None
            else None,
            "commutator_norms": dict(sorted(self.commutator_norms.items())),
            "commutator_drift": dict(sorted(self.commutator_drift.items())),
            "frame_identity_residuals": dict(sorted(self.frame_identity_residuals.items())),
        }
        for key in (
            "growth_exponent",
            "growth_target",
            "chirality_square_residual",
            "chirality_anticommutator",
            "symmetry_residual",
            "representation_residual",
        ):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.chirality_commutators:
            out["chirality_commutators"] = dict(sorted(self.chirality_commutators.items()))
        if self.faithfulness_note:
            out["faithfulness_note"] = self.faithfulness_note
        return out


def interior_norm(space: SpinorModeSpace, mat, buffer) -> float:
    """Operator norm of the interior-band block of ``mat``.

    ``mat`` is either an operator on the whole of ``space``, whose interior
    block is taken here, or that block already, as the operator builders
    make it with ``band=space.band(buffer)``; both give the same value.
    It is exactly 0.0 when the block has no nonzero entry (this includes an
    empty interior band), and otherwise the exact 2-norm, taken as the
    largest 2-norm over the coupling components (see ``_component_norm``);
    it equals the 2-norm of the whole block up to rounding, so only the
    last bits can differ.
    """
    import scipy.sparse as sp

    block = sp.csr_matrix(mat)
    if block.shape[0] == space.dim:  # an operator on the whole space
        idx = space.interior_indices(buffer)
        block = block[idx][:, idx]
    if block.count_nonzero() == 0:
        return 0.0
    return _component_norm(block)


def _component_norm(block: sp.csr_matrix) -> float:
    """Exact 2-norm of a square sparse block, one coupling component at a time.

    The components are those of the symmetric pattern |A| + |A^T|.  One
    shared row and column permutation makes A block-diagonal with one
    block per component, and the 2-norm of a block-diagonal matrix is the
    largest 2-norm of its blocks.  A component with at most one entry in
    each row and each column is a partial permutation times a diagonal, so
    its 2-norm is its largest modulus; a 1x1 component is one of these.
    The other components are grouped by their entries, and one of each
    group of byte-identical components is solved
    (``_first_of_equal_components``).
    Those of equal size up to ``LANCZOS_ROWS`` go through one batched dense
    SVD; a larger one takes ARPACK's largest singular value (``svds`` at
    full precision, from a fixed start vector, so the bits do not hang on
    the thread count), whose cost grows with its entries, not with the
    cube of its rows.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import svds

    _, labels = connected_components(abs(block), directed=False)
    sizes = np.bincount(labels)
    # nodes grouped by component size, then by component; original order within one
    order = np.lexsort((labels, sizes[labels]))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    coo = block.tocoo()
    coo.sum_duplicates()
    row, col = rank[coo.row], rank[coo.col]
    best = 0.0
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        end = start + count * size
        hit = (row >= start) & (row < end)
        r, c, data = row[hit] - start, col[hit] - start, coo.data[hit]
        crowded = (np.bincount(r, minlength=end - start) > 1) | (np.bincount(c, minlength=end - start) > 1)
        tangled = crowded.reshape(count, size).any(axis=1)[r // size]
        best = max(best, float(np.abs(data[~tangled]).max(initial=0.0)))
        if tangled.any():
            comp, r, c, data = r[tangled] // size, r[tangled] % size, c[tangled] % size, data[tangled]
            keep = _first_of_equal_components(comp, r * size + c, data)
            comp = np.unique(comp[keep], return_inverse=True)[1]  # the kept ones, numbered 0, 1, ...
            r, c, data = r[keep], c[keep], data[keep]
            count = comp.max() + 1
            if size > LANCZOS_ROWS:
                group = sp.csr_matrix((data, (comp * size + r, comp * size + c)), shape=(count * size,) * 2)
                norm = max(
                    svds(group[i : i + size, i : i + size], k=1, tol=0, rng=0, return_singular_vectors=False)[0]
                    for i in range(0, count * size, size)
                )
            else:
                stack = np.zeros((count, size, size), dtype=block.dtype)
                stack[comp, r, c] = data
                norm = np.linalg.norm(stack, 2, axis=(1, 2)).max()
            best = max(best, float(norm))
        start = end
    return best


def _first_of_equal_components(comp, local, data):
    """Mask of the entries of the first component of each group of equal ones.

    Entry ``i`` lies in component ``comp[i]`` at local position ``local[i]``.
    Two components are equal when, sorted by position, their positions and
    data match byte for byte; only the keys are compared, so no component
    is made dense here.
    """
    order = np.lexsort((local, comp))
    ids, first, nnz = np.unique(comp[order], return_index=True, return_counts=True)
    keep = np.zeros(ids[-1] + 1, dtype=bool)
    for k in np.unique(nnz):
        entries = order[first[nnz == k][:, None] + np.arange(k)]  # one row per component
        key = np.concatenate([local[entries].view(np.uint8), data[entries].view(np.uint8)], axis=1)
        key = key.view(f"V{key.shape[1]}").ravel()  # one opaque value per component
        keep[ids[nnz == k][np.unique(key, return_index=True)[1]]] = True
    return keep[comp]


def growth_exponent(eigenvalues, lam_max, lam_min=None) -> float:
    """Least-squares slope of log N(lambda) against log lambda."""
    mags = np.sort(np.abs(np.asarray(eigenvalues)))
    lam_min = max(1.0, lam_max / 8.0) if lam_min is None else lam_min
    levels = np.unique(mags[(mags >= lam_min) & (mags <= lam_max)])
    if len(levels) < 3:
        raise CatalogError("not enough distinct eigenvalue levels for a growth fit")
    counts = np.searchsorted(mags, levels, side="right")
    slope = np.polyfit(np.log(levels), np.log(counts), 1)[0]
    return float(slope)


def _scalar_part(f):
    """The plain function content of a generator, when it has one.

    Bare mode data qualifies directly; a convolution element qualifies
    when it is supported on the identity component (its representation is
    then plain multiplication and the flat frame identity applies).
    """
    if isinstance(f, ModeData):
        return f if f.fibre_shape == () and not any(f.twists) else None
    data = getattr(f, "data", None)
    groupoid = getattr(f, "groupoid", None)
    if isinstance(data, dict) and groupoid is not None and len(data) == 1:
        ((g, part),) = data.items()
        if g == groupoid.group.identity and isinstance(part, ModeData):
            return _scalar_part(part)
    return None


def _frame_identity_rhs(space: SpinorModeSpace, f, band=None) -> sp.csr_matrix:
    """sum_i  mult(-i d_i f) x gamma_i, the flat-space commutator value."""
    total = None
    for axis in range(space.n):
        shifts, coeffs = _shifts(space, f.derivative(axis) * -1j)
        spin = space._gamma_blocks[axis]
        term = _operator(space, shifts, _product(coeffs, spin.values[:, None]), spin, band)
        total = term if total is None else total + term
    return total


@dataclass(eq=False)
class TripleRun:
    """What the steps of one spectral-triple check share; ``triple_header``
    makes it, and every step fills ``report``.

    Each generator's operator (``report.operators``) is built on the
    interior ``band`` at the spec cutoff, once for every step; ``D`` on
    that band when a step first reads it.
    """

    spec: DiracSpec
    generators: list  # (name, generator)
    build: object  # (spec, generator, band) -> the generator's operator on the band
    report: SpectralTripleReport
    dirac: TruncatedDirac
    band: tuple

    @property
    def space(self):
        return self.spec.space

    @cached_property
    def D(self) -> sp.csr_matrix:
        """The interior block of the Dirac."""
        return _dirac_operator(self.space, self.band[0])

    @property
    def buffer(self):
        return self.report.buffer


def _mult_builder(spec, f, band):
    return mult_operator(spec.space, f, band)


def triple_header(
    spec: DiracSpec, generators, *, buffer=None, operator_builder=None, label="invariant-triple"
) -> TripleRun:
    """The first step of every spectral-triple check.

    Refuses a generator whose degree reaches the cutoff, fixes the buffer
    (the larger of ``DEFAULT_BUFFER`` and the generator degree unless
    given), assembles the Dirac (``assemble_dirac`` validates Hermiticity
    and [D, U(g)] = 0) and reports its Hermiticity residual and the
    interior-band eigenvalues.  It builds every generator's operator on the
    interior band for the steps that follow.
    """
    gens = list(generators)
    max_deg = max([f.degree() for _, f in gens], default=0)
    if max_deg >= spec.cutoff:
        raise CatalogError(
            f"generator of degree {max_deg} is not representable at cutoff {spec.cutoff}"
        )
    buffer = max(DEFAULT_BUFFER, max_deg) if buffer is None else buffer
    dirac = assemble_dirac(spec)
    space = spec.space
    build = operator_builder or _mult_builder
    band = space.band(buffer)
    report = SpectralTripleReport(
        label=label,
        cutoff=spec.cutoff,
        buffer=buffer,
        hermiticity_residual=dirac.hermiticity_residual(),
        eigenvalues=dirac.eigenvalues(buffer),
    )
    report.operators = [(name, build(spec, f, band)) for name, f in gens]
    return TripleRun(spec, gens, build, report, dirac, band)


def commutator_step(run: TripleRun) -> None:
    """Commutator norms ||[D, pi(f)]|| on the interior band, their drift
    against the same norms at double cutoff, and, for a generator with a
    plain function part, the residual of the flat frame identity.

    The only step that builds the doubled cutoff, and only when there is a
    generator.
    """
    if not run.generators:
        return
    space, buffer, report, D = run.space, run.buffer, run.report, run.D
    double = run.spec.with_cutoff(2 * run.spec.cutoff)
    band2 = double.space.band(buffer)
    D2 = _dirac_operator(double.space, band2[0])
    for (name, f), (_, op) in zip(run.generators, report.operators):
        comm = D @ op - op @ D
        norm1 = interior_norm(space, comm, buffer)
        op2 = run.build(double, _regrade(f, double), band2)
        norm2 = interior_norm(double.space, D2 @ op2 - op2 @ D2, buffer)
        report.commutator_norms[name] = norm1
        report.commutator_drift[name] = abs(norm2 - norm1) / max(1e-30, abs(norm1)) if norm1 else abs(norm2)
        scalar = _scalar_part(f)
        if scalar is not None:
            rhs = _frame_identity_rhs(space, scalar, run.band)
            report.frame_identity_residuals[name] = interior_norm(space, comm - rhs, buffer)


def growth_step(run: TripleRun, window=None) -> None:
    """The eigenvalue counting exponent against the base dimension.

    ``window`` is (lowest, highest) eigenvalue magnitude of the fit, by
    default ``growth_exponent``'s floor up to the interior-band edge; a
    window with fewer than three levels raises.
    """
    space = run.space
    window = window or (None, _interior_edge(space, run.buffer))
    run.report.growth_exponent = growth_exponent(run.dirac.eigenvalues(), window[1], window[0])
    run.report.growth_target = space.n


def chirality_step(run: TripleRun) -> None:
    """omega^2 = 1, {D, omega} = 0 and [omega, pi(f)] = 0 on the interior
    band; nothing on an odd-dimensional base, which has no chirality."""
    import scipy.sparse as sp

    space, buffer, report = run.space, run.buffer, run.report
    if space.rep.chirality is None:
        return
    # omega is one spinor block on every mode, so omega^2 - 1 is that block's
    chi = sp.csr_matrix(space.rep.chirality)
    eye = sp.identity(chi.shape[0], format="csr")
    report.chirality_square_residual = _max_abs(chi @ chi - eye)
    omega = chirality_matrix(space, run.band)
    report.chirality_anticommutator = interior_norm(space, run.D @ omega + omega @ run.D, buffer)
    for name, op in report.operators:
        report.chirality_commutators[name] = interior_norm(space, omega @ op - op @ omega, buffer)


def symmetry_step(run: TripleRun, measure: OrbifoldMeasure | None, invariant_pairs) -> None:
    """The largest |<D psi1, psi2> - <psi1, D psi2>| over ``invariant_pairs``
    under the orbifold integral of ``measure``; nothing without both."""
    if measure is None or not invariant_pairs:
        return
    worst = 0.0
    for psi1, psi2 in invariant_pairs:
        d1, d2 = (_apply_dirac(run.dirac, psi) for psi in (psi1, psi2))
        lhs = orbifold_inner(measure, d1, psi2)
        rhs = orbifold_inner(measure, psi1, d2)
        worst = max(worst, abs(lhs - rhs))
    run.report.symmetry_residual = worst


def check_spectral_triple(
    spec: DiracSpec,
    generators,
    *,
    buffer=None,
    measure: OrbifoldMeasure | None = None,
    invariant_pairs=None,
    operator_builder=None,
    label="invariant-triple",
    growth_window=None,
) -> SpectralTripleReport:
    """Run every truncation-level spectral-triple step and return the report.

    ``generators`` is a list of (name, band-limited function); they are
    represented by multiplication unless ``operator_builder(spec, gen,
    band)`` supplies something else (the convolution module does).  The
    steps, in this order:
    - ``triple_header``: degree check, buffer, the assembled Dirac, its
      Hermiticity residual and interior eigenvalues, and D and the
      generators' operators on the interior band (``report.operators``);
    - ``commutator_step``: commutator norms at the spec cutoff, their drift
      at double cutoff, and the frame-identity residuals;
    - ``growth_step``: the counting exponent over ``growth_window``;
    - ``chirality_step``: the even structure, on an even-dimensional base;
    - ``symmetry_step``: the symmetry of D on ``invariant_pairs`` under
      ``measure``.

    A scenario check runs only the steps whose fields it reads:
    ``pillowcase-torus`` ``chirality-package`` the header, the chirality
    and the representation law (``convolution.law_step``);
    ``free-rotation-circle`` ``convolution-commutators`` the header, the
    commutators and the law; each ``growth-exponent`` the header and the
    growth; ``divergence-symmetry`` the header and the symmetry.
    ``noneffective-circle`` ``flagged-report`` runs every step
    (``convolution.convolution_triple_report``): it checks that the whole
    report comes out, flagged, on a non-effective groupoid.
    """
    run = triple_header(spec, generators, buffer=buffer, operator_builder=operator_builder, label=label)
    commutator_step(run)
    growth_step(run, growth_window)
    chirality_step(run)
    symmetry_step(run, measure, invariant_pairs)
    return run.report


def _interior_edge(space: SpinorModeSpace, buffer) -> float:
    return min((2.0 * np.pi / L) * (space.cutoff - buffer) for L in space.lengths)


def _regrade(f, spec2: DiracSpec):
    """Re-express a generator over the doubled-cutoff base space."""
    if isinstance(f, ModeData):
        return type(f)(spec2.groupoid.base, f.cutoff, f.coeffs.copy(), f.twist)
    data = getattr(f, "data", None)
    if isinstance(data, dict):
        return type(f)(spec2.groupoid, {g: _regrade(p, spec2) for g, p in data.items()})
    raise CatalogError(f"cannot regrade generator {f!r}")


def _apply_dirac(dirac: TruncatedDirac, psi):
    """The assembled Dirac applied to the coefficients of a spinor section."""
    space = dirac.space
    if psi.cutoff != space.cutoff or psi.twists != space.twist or psi.coeffs.size != space.dim:
        raise CatalogError("spinor section does not live on the Dirac's mode space")
    coeffs = (dirac.matrix @ psi.coeffs.reshape(-1)).reshape(psi.coeffs.shape)
    return type(psi)(space.base, space.cutoff, coeffs, psi.twist)


# ---------------------------------------------------------------------------
# tangent cocycles and spin-structure transport


def tangent_cocycle(cech: CechActionGroupoid) -> dict:
    """Differentials of the localized action, indexed by Cech arrows."""
    return {
        (g, a, b): cech.parent.iso[g].differential()
        for (g, a, b) in cech.arrows
    }


def induced_tangent_cocycle(cov: QuotientCovering, cover_down, branch_of_sheet) -> dict:
    """Tangent cocycle transported to the quotient circle's Cech cover.

    Downstairs arrows are overlap germs (i, j), one per pair of meeting
    arcs; each carries the differential of the deck element between the
    two sheets' branches (rotations: always [[1]]).
    """
    return {
        (i, j): cov.upstairs.iso[cov.deck_element(branch_of_sheet[j], branch_of_sheet[i])].differential()
        for i, j in _arc_overlaps(cover_down)
    }


def downstairs_tangent_cocycle(cov: QuotientCovering, cover_down) -> dict:
    """Unit-groupoid tangent data: identity germs on every overlap."""
    return {pair: np.array([[1.0]]) for pair in _arc_overlaps(cover_down)}


def _arc_overlaps(cover) -> list:
    """The ordered pairs (i, j) of sheets whose arcs meet, decided exactly."""
    arcs = cover.sheets
    return [(i, j) for i in cover.indices() for j in cover.indices() if arcs[i].meets(arcs[j])]


def spin_structure_transport(cov: QuotientCovering, lifts, twist=Fraction(0)) -> dict:
    """Map each strict upstairs lift to the downstairs twist it induces."""
    out = {}
    for lift in lifts:
        signs = {g: float(lift.signs[g]) for g in cov.upstairs.group.elements}
        out[lift.describe()] = solve_downstairs_twist(cov, twist, signs)
    return out
