"""Invariant data and its transport across equivalences.

Invariant functions, bundle sections, differential forms, connections and
inner products, moved with the pushforward (value at any point of the
fibre over the anchor) and its inverse.  Finite bitorsors transport value
tables; circle covering quotients transport mode coefficients, where the
pushforward is an exact relabeling of invariant modes.

Invariance of candidate inputs is decided element by element: an input is
accepted when no element of the group moves it by more than 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bases import CatalogError, CircleModes, FourierCircle, mode_map, phase_vector, unit_phase
from .cocycles import ReconstructedBundle
from .groupoids import ActionGroupoid, FiniteGroupoid
from .morita import Bitorsor, QuotientCovering, left_witness

INVARIANCE_TOL = 1e-10


class InvarianceError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# finite flavor: functions


def function_invariance_witness(G: FiniteGroupoid, f: dict):
    """Arrow violating s*f = t*f, or None."""
    for a in G.arrows:
        if f[G.src[a]] != f[G.tgt[a]]:
            return a
    return None


def pushforward_function(phi, f):
    """phi_# on invariant functions; dispatches on the equivalence flavor."""
    if isinstance(phi, Bitorsor):
        wit = function_invariance_witness(phi.left, f)
        if wit is not None:
            raise InvarianceError(f"function is not invariant at arrow {wit!r}", wit)
        out = {}
        for y in phi.right.objects:
            fibre = phi.alpha_fibre(y)
            vals = {f[phi.rho[q]] for q in fibre}
            if len(vals) != 1:
                raise InvarianceError(f"pushforward not well defined over {y!r}")
            out[y] = next(iter(vals))
        return out
    if isinstance(phi, QuotientCovering):
        return pushforward_modes_section(phi, f, None, down_twist=Fraction(0))
    raise CatalogError(f"unsupported equivalence {phi!r}")


def pushforward_function_inverse(phi, g):
    """phi_#^{-1}: value at x is the value over alpha(q) for q over x."""
    if isinstance(phi, Bitorsor):
        out = {}
        for x in phi.left.objects:
            fibre = phi.rho_fibre(x)
            vals = {g[phi.alpha[q]] for q in fibre}
            if len(vals) != 1:
                raise InvarianceError(f"inverse not well defined over {x!r}")
            out[x] = next(iter(vals))
        return out
    if isinstance(phi, QuotientCovering):
        return pullback_modes_section(phi, g)
    raise CatalogError(f"unsupported equivalence {phi!r}")


# ---------------------------------------------------------------------------
# finite flavor: sections


@dataclass
class BundleSection:
    bundle: ReconstructedBundle
    values: dict  # object -> vector (len = rank)

    def vector(self, x):
        return np.asarray(self.values[x])


def section_invariance_witness(psi: BundleSection):
    """Arrow violating psi(x) = rho(sigma)^{-1} psi(sigma.x), or None."""
    G = psi.bundle.groupoid
    for a in G.arrows:
        lhs = psi.vector(G.src[a])
        rho = np.asarray(psi.bundle.action[a], dtype=complex)
        rhs = np.linalg.inv(rho) @ psi.vector(G.tgt[a])
        if not np.allclose(lhs, rhs, atol=INVARIANCE_TOL):
            return a
    return None


def invariant_section_basis(bundle: ReconstructedBundle) -> np.ndarray:
    """Basis of the invariant-section space, rows = sections (flattened).

    Solves psi(src) - rho^{-1} psi(tgt) = 0 over all arrows by dense
    nullspace; the objects are flattened in groupoid order.
    """
    G = bundle.groupoid
    k = bundle.rank
    n = len(G.objects)
    index = {x: i for i, x in enumerate(G.objects)}
    rows = []
    for a in G.arrows:
        block = np.zeros((k, n * k), dtype=complex)
        block[:, index[G.src[a]] * k : index[G.src[a]] * k + k] = np.eye(k)
        inv = np.linalg.inv(np.asarray(bundle.action[a], dtype=complex))
        block[:, index[G.tgt[a]] * k : index[G.tgt[a]] * k + k] -= inv
        rows.append(block)
    mat = np.vstack(rows) if rows else np.zeros((1, n * k))
    _, s, vh = np.linalg.svd(mat)
    padded = np.concatenate([s, np.zeros(max(0, n * k - len(s)))])
    null_count = int((padded < 1e-10).sum())
    return vh[n * k - null_count :] if null_count else np.zeros((0, n * k))


def pushforward_section(b: Bitorsor, psi: BundleSection, induced: ReconstructedBundle) -> BundleSection:
    """phi_# psi on the induced bundle (which carries the representatives)."""
    wit = section_invariance_witness(psi)
    if wit is not None:
        raise InvarianceError(f"section is not invariant at arrow {wit!r}", wit)
    reps = induced.reps
    values = {y: psi.vector(b.rho[reps[y]]).copy() for y in b.right.objects}
    return BundleSection(induced, values)


def pushforward_section_inverse(b: Bitorsor, zeta: BundleSection, bundle: ReconstructedBundle) -> BundleSection:
    """A_phi: move a section of the induced bundle back to the source."""
    reps = zeta.bundle.reps
    values = {}
    for x in b.left.objects:
        q = b.rho_fibre(x)[0]
        y = b.alpha[q]
        sigma = left_witness(b, q, reps[y])
        rho = np.asarray(bundle.action[sigma], dtype=complex)
        values[x] = np.linalg.inv(rho) @ zeta.vector(y)
    return BundleSection(bundle, values)


def scale_section(f: dict, psi: BundleSection) -> BundleSection:
    values = {x: f[x] * psi.vector(x) for x in psi.values}
    return BundleSection(psi.bundle, values)


# ---------------------------------------------------------------------------
# Fourier flavor: invariance under every group element


def function_action(G: ActionGroupoid, g, f: CircleModes) -> CircleModes:
    """(g . f)(x) = f(g^{-1} x): the pullback by the inverse isometry."""
    return f.pullback(G.iso[g].inverse())


def require_invariant_modes(G: ActionGroupoid, f: CircleModes, lift_signs=None):
    for g in G.group.elements:
        term = function_action(G, g, f)
        if lift_signs is not None:
            term = term * lift_signs[g]
        if np.max(np.abs(term.coeffs - f.coeffs)) > INVARIANCE_TOL:
            raise InvarianceError(
                f"not invariant under group element {g!r}", witness=g
            )


# ---------------------------------------------------------------------------
# covering quotients: functions, sections, forms


def invariant_mode_indices(cov: QuotientCovering, twist=Fraction(0), lift_signs=None):
    """Upstairs modes fixed by every lifted group element.

    Element g acts on mode k by the phase ``bases.mode_map`` gives the
    pullback by g^{-1} (the phase of ``spectral.action_matrix``), times its
    lift sign.
    """
    G = cov.upstairs
    M = G.base.mode_cutoff
    fixed = np.ones(2 * M + 1, dtype=bool)
    for g in G.group.elements:
        _, phase = mode_map(M, (Fraction(twist),), G.iso[g].inverse())
        if lift_signs is not None:
            phase = phase * lift_signs[g]
        fixed &= np.abs(phase - 1.0) <= 1e-12
    return [int(k) for k in np.flatnonzero(fixed) - M]


def solve_downstairs_twist(cov: QuotientCovering, twist=Fraction(0), lift_signs=None):
    """The quotient-circle twist reproducing the invariant mode spectrum.

    Matches boundary conditions: invariant upstairs frequencies must equal
    (TAU/L') (j + twist') for integers j, i.e. (k + twist)/m must have
    fractional part twist'; the exact phases of ``phase_vector`` read it off.
    Raises when no twist in {0, 1/2} works (the structure does not descend).
    """
    return twist_of_modes(cov, twist, invariant_mode_indices(cov, twist, lift_signs))


def twist_of_modes(cov: QuotientCovering, twist, ks):
    """``solve_downstairs_twist`` given the invariant modes ``ks``."""
    if not ks:
        raise InvarianceError("no invariant modes; nothing descends")
    M = cov.upstairs.base.mode_cutoff
    phases = phase_vector(M, twist, Fraction(1, cov.degree))[np.array(ks) + M]
    for tw in (Fraction(0), Fraction(1, 2)):
        if np.all(phases == unit_phase(tw)):
            return tw
    raise InvarianceError("invariant spectrum matches no catalog twist")


def pushforward_modes_section(cov: QuotientCovering, psi: CircleModes, lift_signs, down_twist=None) -> CircleModes:
    """phi_# on invariant (possibly twisted) mode sections, exact relabel."""
    require_invariant_modes(cov.upstairs, psi, lift_signs)
    m = cov.degree
    tw = solve_downstairs_twist(cov, psi.twist, lift_signs) if down_twist is None else down_twist
    M = psi.cutoff
    down_cut = max(2, int((Fraction(M) + psi.twist) / m - tw))
    circle = FourierCircle(cov.downstairs.circumference, down_cut)
    down = CircleModes.zero(circle, down_cut, psi.fibre_shape, twist=tw)
    for (k,) in psi.nonzero_modes():
        j = (Fraction(k) + psi.twist) / m - tw
        if j != int(j):
            raise InvarianceError(f"mode {k} does not descend to the {tw} twist lattice")
        if abs(int(j)) > down_cut:
            raise CatalogError("descended mode leaves the downstairs window")
        down.coeffs[int(j) + down_cut] = psi.coeffs[k + M]
    return down


def pullback_modes_section(cov: QuotientCovering, zeta: CircleModes, up_twist=Fraction(0)) -> CircleModes:
    m = cov.degree
    up_cut = cov.upstairs.base.mode_cutoff
    out = CircleModes.zero(cov.upstairs.base, up_cut, zeta.fibre_shape, twist=up_twist)
    for (j,) in zeta.nonzero_modes():
        k = m * (Fraction(j) + zeta.twist) - up_twist
        if k != int(k):
            raise CatalogError("mode does not pull back to the upstairs lattice")
        if abs(int(k)) > up_cut:
            raise CatalogError("pullback leaves the upstairs truncation window")
        out.coeffs[int(k) + up_cut] = zeta.coeffs[j + zeta.cutoff]
    return out


# -- forms


@dataclass
class CircleForm:
    """A differential form on a circle: degree 0 or 1, one mode component."""

    degree: int
    comp: CircleModes

    def d(self) -> "CircleForm":
        if self.degree != 0:
            raise CatalogError("only 0-forms have a nonzero differential here")
        return CircleForm(1, self.comp.derivative())


def pushforward_form(cov: QuotientCovering, omega: CircleForm) -> CircleForm:
    """Local pullbacks through the covering branches, in arclength charts.

    Both the 0-form and the dx-component transport by the invariant-mode
    relabeling; arclength coordinates make the chain-rule factor 1.
    """
    return CircleForm(omega.degree, pushforward_modes_section(cov, omega.comp, None, down_twist=Fraction(0)))


def pushforward_form_inverse(cov: QuotientCovering, omega: CircleForm) -> CircleForm:
    return CircleForm(omega.degree, pullback_modes_section(cov, omega.comp))


@dataclass
class TorusForm:
    """Differential form on a flat 2-torus; one mode component per axis set.

    ``components`` maps () to the scalar part (degree 0), (0,) and (1,) to
    the two one-form parts, and (0, 1) to the area part.  Pullback under a
    catalog isometry multiplies each component by the tangent sign per
    covector factor.
    """

    degree: int
    components: dict

    def d(self) -> "TorusForm":
        if self.degree == 0:
            f = self.components[()]
            return TorusForm(1, {(0,): f.derivative(0), (1,): f.derivative(1)})
        if self.degree == 1:
            h1 = self.components[(0,)]
            h2 = self.components[(1,)]
            area = h2.derivative(0) - h1.derivative(1)
            return TorusForm(2, {(0, 1): area})
        raise CatalogError("top-degree forms have zero differential")


def torus_form_pullback(form: TorusForm, iso) -> TorusForm:
    e = -1 if iso.negate else 1
    comps = {
        key: (e ** len(key)) * h.pullback(iso) for key, h in form.components.items()
    }
    return TorusForm(form.degree, comps)


def torus_form_invariance_residual(form: TorusForm, G) -> float:
    worst = 0.0
    for g in G.group.elements:
        moved = torus_form_pullback(form, G.iso[g])
        for key in form.components:
            diff = moved.components[key].coeffs - form.components[key].coeffs
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


# -- connections


def mat_apply(A: CircleModes, v: CircleModes) -> CircleModes:
    """Apply a matrix-valued mode function to a vector-valued one."""
    r = A.fibre_shape[0]
    if A.fibre_shape != (r, r) or v.fibre_shape != (r,):
        raise ValueError("shape mismatch in matrix application")
    out_cut = A.degree() + v.degree()
    out = CircleModes.zero(A.circle, out_cut, (r,), v.twist)
    for ka in range(-A.degree(), A.degree() + 1):
        Ak = A.coeffs[ka + A.cutoff]
        if not np.any(Ak):
            continue
        for kv in range(-v.degree(), v.degree() + 1):
            vk = v.coeffs[kv + v.cutoff]
            if not np.any(vk):
                continue
            out.coeffs[ka + kv + out_cut] += Ak @ vk
    return out


@dataclass
class InvariantConnection:
    """d + A on a trivialized rank-r circle bundle; A is matrix valued."""

    circle: FourierCircle
    rank: int
    potential: CircleModes  # fibre shape (rank, rank), twist 0

    def apply(self, psi: CircleModes) -> CircleForm:
        """nabla psi = (psi' + A psi) dx."""
        dpsi = psi.derivative()
        ap = mat_apply(self.potential, psi)
        cut = max(dpsi.degree(), ap.degree(), 2)
        return CircleForm(1, dpsi.with_cutoff(cut) + ap.with_cutoff(cut))


def connection_invariance_residual(conn: InvariantConnection, G: ActionGroupoid) -> float:
    worst = 0.0
    for g in G.group.elements:
        moved = conn.potential.pullback(G.iso[g])
        worst = max(worst, float(np.max(np.abs(moved.coeffs - conn.potential.coeffs))))
    return worst


def induce_connection(cov: QuotientCovering, conn: InvariantConnection) -> InvariantConnection:
    if not isinstance(cov, QuotientCovering):
        raise CatalogError("connections only transport along covering quotients")
    if connection_invariance_residual(conn, cov.upstairs) > INVARIANCE_TOL:
        raise InvarianceError("connection potential is not invariant")
    down_pot = pushforward_modes_section(cov, conn.potential, None, down_twist=Fraction(0))
    return InvariantConnection(down_pot.circle, conn.rank, down_pot)


def leibnitz_residual(conn: InvariantConnection, f: CircleModes, psi: CircleModes) -> float:
    """max |nabla(f psi) - (df psi + f nabla psi)| over coefficients."""
    lhs = conn.apply(f.mul(psi)).comp
    df_psi = f.derivative().mul(psi)
    f_dpsi = f.mul(conn.apply(psi).comp)
    cut = max(lhs.degree(), df_psi.degree(), f_dpsi.degree(), 2)
    rhs = df_psi.with_cutoff(cut) + f_dpsi.with_cutoff(cut)
    diff = lhs.with_cutoff(cut) - rhs
    return float(np.max(np.abs(diff.coeffs)))


def contraction_residual(cov: QuotientCovering, conn: InvariantConnection, psi: CircleModes, lift_signs) -> float:
    """Residual of phi_# nabla_V (phi_# psi) = phi_# (nabla_{phi^-1 V} psi).

    V is the downstairs arclength frame field; its inverse transport is the
    upstairs arclength frame, so both sides are dx-components.
    """
    down_conn = induce_connection(cov, conn)
    down_psi = pushforward_modes_section(cov, psi, lift_signs)
    lhs = down_conn.apply(down_psi).comp
    up = conn.apply(psi).comp
    rhs = pushforward_modes_section(cov, up, lift_signs, down_twist=down_psi.twist)
    cut = max(lhs.degree(), rhs.degree(), 2)
    diff = lhs.with_cutoff(cut) - rhs.with_cutoff(cut)
    return float(np.max(np.abs(diff.coeffs)))


# -- inner products


@dataclass
class InvariantInnerProduct:
    matrix: np.ndarray  # (r, r) Hermitian positive definite

    def pair_vectors(self, v1, v2):
        return complex(np.conj(v1) @ np.asarray(self.matrix, dtype=complex) @ v2)


def inner_product_invariance_witness(ip: InvariantInnerProduct, bundle: ReconstructedBundle):
    H = np.asarray(ip.matrix, dtype=complex)
    for a in bundle.groupoid.arrows:
        U = np.asarray(bundle.action[a], dtype=complex)
        if not np.allclose(np.conj(U.T) @ H @ U, H, atol=INVARIANCE_TOL):
            return a
    return None


def induce_inner_product(phi, ip: InvariantInnerProduct, bundle: ReconstructedBundle = None) -> InvariantInnerProduct:
    """Transport a constant invariant fibre form; the matrix is reused.

    For finite bitorsors the invariance against the source bundle action is
    checked first; the induced form pairs representatives, which for the
    catalog's constant forms is the same matrix at every point.
    """
    if bundle is not None:
        wit = inner_product_invariance_witness(ip, bundle)
        if wit is not None:
            raise InvarianceError(f"inner product not invariant at {wit!r}", wit)
    return InvariantInnerProduct(np.asarray(ip.matrix).copy())


def pair_sections(ip: InvariantInnerProduct, psi1: BundleSection, psi2: BundleSection) -> dict:
    return {
        x: ip.pair_vectors(psi1.vector(x), psi2.vector(x)) for x in psi1.values
    }
