"""Oracles computed apart from orbikit.

Each function takes values the program produced and returns
``(ok, detail)``.  The expected values come from closed forms or from
linear algebra done here with numpy and scipy, never from the orbikit
routine under test, so a wrong program output cannot agree with itself.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Relative slack for float comparisons against an exact value computed here.
REL_TOL = 1e-9
# The true interior norm is dense up to this many rows, Lanczos above.
DENSE_ROWS = 1500
# Seeded random vectors checked against the reported norm.
NORM_PROBES = 4
# Seeded random composable triples checked for associativity.
TRIPLE_SAMPLES = 200


def middle_counts(N, n_arrows, n_compositions):
    """Span of the double cover at scale N.

    Each of the 2N carrier points has 2 left arrows acting and 2N right
    arrows into its anchor, so the middle groupoid has 8N^2 arrows; every
    arrow composes with the 4N arrows into its source, 32N^3 pairs.
    """
    want = (8 * N * N, 32 * N ** 3)
    got = (n_arrows, n_compositions)
    return got == want, f"N={N}: arrows, compositions {got} vs {want}"


def seam_wrap(N, entries):
    """Induced sign cocycle of the double cover against the seam-wrap rule.

    ``entries`` maps an arrow ``(a, y)`` of Z_2N translating Z_N (y -> y+a)
    to its induced sign.  The rule is (-1)^floor((y + a) / N).  The cocycle
    identity is checked over every composable pair, composing arrows with
    the translation law (a2, y+a1) o (a1, y) = (a1 + a2 mod 2N, y).
    """
    bad = [arrow for arrow, v in entries.items() if v != (-1) ** ((arrow[1] + arrow[0]) // N)]
    if bad:
        return False, f"N={N}: {len(bad)} entries off the seam-wrap rule, first {bad[0]!r}"
    if len(entries) != 2 * N * N:
        return False, f"N={N}: {len(entries)} arrows, expected {2 * N * N}"
    pairs = 0
    for (a1, y), v1 in entries.items():
        y2 = (y + a1) % N
        for a2 in range(2 * N):
            v2 = entries[(a2, y2)]
            if entries[((a1 + a2) % (2 * N), y)] != v2 * v1:
                return False, f"N={N}: cocycle identity fails at ({a2}, {y2}) o ({a1}, {y})"
            pairs += 1
    return True, f"N={N}: {len(entries)} entries on the rule; identity over {pairs} pairs"


def dirac_spectrum(matrix, block, expected):
    """Eigensolve the assembled operator and compare with ``expected``.

    The operator must be block diagonal with ``block``-sized blocks (mode
    space times spinor module); the blocks are then solved in one batched
    ``eigvalsh``.  ``expected`` holds the analytic eigenvalues.
    """
    A = sp.coo_matrix(matrix)
    off = (A.row // block) != (A.col // block)
    if np.any(off & (np.abs(A.data) > 0)):
        return False, "assembled operator couples distinct modes"
    n = A.shape[0] // block
    blocks = np.zeros((n, block, block), dtype=complex)
    blocks[A.row // block, A.row % block, A.col % block] += A.data
    if np.max(np.abs(blocks - np.conj(np.swapaxes(blocks, 1, 2))), initial=0.0) > 1e-14:
        return False, "assembled operator is not Hermitian"
    got = np.sort(np.linalg.eigvalsh(blocks).ravel())
    want = np.sort(np.asarray(expected, dtype=float))
    if got.shape != want.shape:
        return False, f"{got.size} eigenvalues, expected {want.size}"
    worst = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
    return worst <= REL_TOL, f"{got.size} eigenvalues, worst relative error {worst:.2e}"


def circle_spectrum(M, twist, circumference):
    """(2 pi / L)(k + twist) for |k| <= M."""
    return [(2 * math.pi / circumference) * (k + twist) for k in range(-M, M + 1)]


def torus_spectrum(M, twists, circumferences):
    """+-|omega| with omega_i = (2 pi / L_i)(k_i + twist_i), |k_i| <= M."""
    k = np.arange(-M, M + 1)
    w1 = (2 * math.pi / circumferences[0]) * (k + twists[0])
    w2 = (2 * math.pi / circumferences[1]) * (k + twists[1])
    r = np.hypot(w1[:, None], w2[None, :]).ravel()
    return np.concatenate([r, -r])


def orbifold_volume(value, circumference, m):
    """The free Z_m quotient of a circle of length L has volume L / m."""
    want = circumference / m
    err = abs(complex(value) - want) / want
    return err <= REL_TOL, f"volume {complex(value).real:.12f} vs L/m = {want:.12f}"


def interior_indices(M, n_dims, spinor_dim, buffer):
    """Rows of the modes with max |k_i| <= M - buffer, mode-major order."""
    k = np.arange(-M, M + 1)
    inside = np.abs(k) <= M - buffer
    if n_dims == 2:
        inside = (inside[:, None] & inside[None, :]).ravel()
    modes = np.flatnonzero(inside)
    return (modes[:, None] * spinor_dim + np.arange(spinor_dim)[None, :]).ravel()


def true_interior_norm(matrix, idx, rng):
    """Largest singular value of the interior block, computed here.

    Up to ``DENSE_ROWS`` rows: sqrt of the top eigenvalue of A^H A, dense.
    Above: Lanczos (``svds``) from a seeded start vector, converged to
    ``tol=1e-12``; Lanczos approaches the top singular value from below.
    """
    sub = sp.csr_matrix(matrix)[idx][:, idx]
    if sub.nnz == 0:
        return 0.0
    if sub.shape[0] <= DENSE_ROWS:
        a = sub.toarray()
        return math.sqrt(max(float(np.linalg.eigvalsh(a.conj().T @ a)[-1]), 0.0))
    v0 = rng.standard_normal(sub.shape[0])
    return float(spla.svds(sub, k=1, v0=v0, tol=1e-12, return_singular_vectors=False)[0])


def interior_norm_bound(program_value, matrix, idx, rng, exact):
    """``program_value`` bounds the interior norm, and equals it if ``exact``.

    Seeded random probes also check |A v| <= value |v| directly.
    """
    truth = true_interior_norm(matrix, idx, rng)
    sub = sp.csr_matrix(matrix)[idx][:, idx]
    slack = REL_TOL * max(1.0, truth)
    for _ in range(NORM_PROBES):
        v = rng.standard_normal(sub.shape[0]) + 1j * rng.standard_normal(sub.shape[0])
        if np.linalg.norm(sub @ v) > program_value * np.linalg.norm(v) + slack:
            return False, f"probe |Av|/|v| exceeds reported norm {program_value:.6g}"
    if program_value < truth - slack:
        return False, f"reported {program_value:.12g} below true norm {truth:.12g}"
    if exact and abs(program_value - truth) > slack:
        return False, f"reported {program_value:.12g} vs true norm {truth:.12g}"
    kind = "equal to" if exact else "bounds"
    return True, f"reported {program_value:.12g} {kind} true norm {truth:.12g}"


def same_tables(a, b):
    """Two finite groupoids hold equal tables."""
    for field in ("objects", "arrows", "src", "tgt", "cmp", "inv", "unit", "name"):
        if getattr(a, field) != getattr(b, field):
            return False, f"round trip changed {field}"
    return True, f"{len(a.arrows)} arrows, {len(a.cmp)} compositions equal after the round trip"


def associativity(G, rng):
    """Seeded probe: (c b) a == c (b a) on random composable triples."""
    out_of = {}
    for a in G.arrows:
        out_of.setdefault(G.src[a], []).append(a)
    arrows = list(G.arrows)
    for _ in range(TRIPLE_SAMPLES):
        a = arrows[rng.integers(len(arrows))]
        nxt = out_of[G.tgt[a]]
        b = nxt[rng.integers(len(nxt))]
        nxt = out_of[G.tgt[b]]
        c = nxt[rng.integers(len(nxt))]
        left = G.cmp.get((G.cmp.get((c, b)), a))
        right = G.cmp.get((c, G.cmp.get((b, a))))
        if left is None or left != right:
            return False, f"associativity fails on {a!r}, {b!r}, {c!r}"
    return True, f"{TRIPLE_SAMPLES} random composable triples associate"
