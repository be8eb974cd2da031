"""Operators built on the interior band against the build-then-slice path.

The spectral-triple checks build every operator only on the interior band.
The reference below is the path they replace: each operator built on the
whole mode space, each residual formed there, and its interior block sliced
out with ``[idx][:, idx]``.  Blocks are compared array by array: the same
``indptr``, the same ``indices`` (stored zeros included) and the same bits
in ``data``.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from orbikit import convolution, harness, spectral
from orbikit.bases import CircleModes, FourierCircle, FourierTorus, TorusModes, mode_class
from orbikit.clifford import SpinLift, build_clifford, projective_lift, trivial_lift
from orbikit.convolution import (
    convolution_triple_report,
    convolve,
    faithfulness_probe,
    fourier_element,
    representation_matrix,
)
from orbikit.groupoids import is_effective, negation_torus_groupoid, rotation_groupoid
from orbikit.spectral import (
    DiracSpec,
    _frame_identity_rhs,
    _regrade,
    _scalar_part,
    assemble_dirac,
    chirality_matrix,
    interior_norm,
)


def torus_spec(M):
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 2 * np.pi), M))
    return DiracSpec(G, projective_lift(G, build_clifford(2)), (Fraction(0), Fraction(0)), M)


def circle_spec(m, M):
    G = rotation_groupoid(m, FourierCircle(mode_cutoff=M))
    return DiracSpec(G, trivial_lift(G, build_clifford(1)), (Fraction(0),), M)


def noneffective_spec(M):
    G = rotation_groupoid(4, FourierCircle(mode_cutoff=M), through="1/2")
    return DiracSpec(G, SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True), (Fraction(0),), M)


def torus_generators(spec):
    """The pillowcase scenario's generators: cos(x1), cos(x1 + x2), the flip."""
    G, M = spec.groupoid, spec.cutoff
    sym, diag = TorusModes.zero(G.base, M), TorusModes.zero(G.base, M)
    sym.coeffs[1 + M, M] = sym.coeffs[-1 + M, M] = 0.5
    diag.coeffs[1 + M, 1 + M] = diag.coeffs[-1 + M, -1 + M] = 0.5
    return [
        ("cos10", fourier_element(G, {0: sym})),
        ("cos11", fourier_element(G, {0: diag})),
        ("flip", fourier_element(G, {1: TorusModes.mode(G.base, M, (0, 0))})),
    ]


def circle_generators(spec):
    """e^(il x) for l = 1, 2, 3 and a turn by the generator of Z_m."""
    G, M = spec.groupoid, spec.cutoff
    gens = [(f"e{l}", fourier_element(G, {0: CircleModes.mode(G.base, M, l)})) for l in (1, 2, 3)]
    return gens + [("turn", fourier_element(G, {1: CircleModes.mode(G.base, M, 0)}))]


# -- reference: build on the whole space, then slice


def ref_blocks(spec, gens, buffer):
    """The interior blocks the checks read, in the order they read them."""
    space = spec.space
    idx = space.interior_indices(buffer)
    double = spec.with_cutoff(2 * spec.cutoff)
    idx2 = double.space.interior_indices(buffer)
    D, D2 = assemble_dirac(spec).matrix, assemble_dirac(double).matrix
    out = []
    ops = []
    for name, f in gens:
        op = representation_matrix(spec, f)
        ops.append(op)
        comm = D @ op - op @ D
        out.append((f"[D, {name}]", sp.csr_matrix(comm)[idx][:, idx]))
        op2 = representation_matrix(double, _regrade(f, double))
        out.append((f"[D, {name}] at 2M", sp.csr_matrix(D2 @ op2 - op2 @ D2)[idx2][:, idx2]))
        scalar = _scalar_part(f)
        if scalar is not None:
            rhs = _frame_identity_rhs(space, scalar)
            out.append((f"frame {name}", sp.csr_matrix(comm - rhs)[idx][:, idx]))
    if space.rep.chirality is not None:
        omega = chirality_matrix(space)
        out.append(("{D, omega}", sp.csr_matrix(D @ omega + omega @ D)[idx][:, idx]))
        for (name, _), op in zip(gens, ops):
            out.append((f"[omega, {name}]", sp.csr_matrix(omega @ op - op @ omega)[idx][:, idx]))
    for (n1, f1), r1 in zip(gens, ops):
        for (n2, f2), r2 in zip(gens, ops):
            if f1.degree() + f2.degree() <= spec.cutoff:
                lhs = representation_matrix(spec, convolve(f1, f2))
                out.append((f"law {n1} {n2}", sp.csr_matrix(lhs - r1 @ r2)[idx][:, idx]))
    return out


def band_blocks(spec, gens, buffer, monkeypatch):
    """The blocks ``convolution_triple_report`` hands to ``interior_norm``."""
    seen = []
    norm = spectral.interior_norm

    def record(space, mat, buf):
        seen.append(mat)
        return norm(space, mat, buf)

    monkeypatch.setattr(spectral, "interior_norm", record)
    monkeypatch.setattr(convolution, "interior_norm", record)
    convolution_triple_report(spec, gens, buffer=buffer)
    return seen


def assert_same_csr(a, b, what):
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    assert a.shape == b.shape, what
    assert np.array_equal(a.indptr, b.indptr), what
    assert np.array_equal(a.indices, b.indices), what
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64)), what


CONFIGS = [("torus", None, M) for M in (12, 24, 48)] + [
    ("circle", m, M) for m in (2, 4) for M in (32, 64)
]


@pytest.mark.parametrize("kind, m, M", CONFIGS, ids=[f"{k}-m{m}-M{M}" for k, m, M in CONFIGS])
def test_band_blocks_equal_the_sliced_whole_operators(kind, m, M, monkeypatch):
    spec = torus_spec(M) if kind == "torus" else circle_spec(m, M)
    gens = torus_generators(spec) if kind == "torus" else circle_generators(spec)
    buffer = 2
    want = ref_blocks(spec, gens, buffer)
    got = band_blocks(spec, gens, buffer, monkeypatch)
    assert len(got) == len(want)
    for (what, ref), block in zip(want, got):
        assert_same_csr(block, ref, what)


def test_band_operators_equal_the_sliced_whole_operators():
    spec = torus_spec(12)
    space = spec.space
    idx = space.interior_indices(3)
    band = space.band(3)
    for _, f in torus_generators(spec):
        whole = representation_matrix(spec, f)
        assert_same_csr(representation_matrix(spec, f, band), whole[idx][:, idx], "square")
        assert_same_csr(representation_matrix(spec, f, (band[0], None)), whole[idx], "rows")
        assert_same_csr(representation_matrix(spec, f, (None, band[1])), whole[:, idx], "columns")
    assert_same_csr(chirality_matrix(space, band), chirality_matrix(space)[idx][:, idx], "omega")


# -- the faithfulness probe


def ref_probe(G, spec, degree):
    """The probe on whole representation matrices: (singular values, kernel_dim, witness found)."""
    base = G.base
    kind = mode_class(base)
    labels = list(itertools.product(range(-degree, degree + 1), repeat=base.dim))
    params = [(g, l) for g in G.group.elements for l in labels]
    idx = spec.space.interior_indices(max(2, spec.cutoff - degree - 2))
    ops, cols = [], []
    for g, l in params:
        op = representation_matrix(spec, fourier_element(G, {g: kind.mode(base, base.mode_cutoff, l)}))
        ops.append(op)
        cols.append(op[idx][:, idx].toarray().reshape(-1))
    _, s, vh = np.linalg.svd(np.array(cols).T, full_matrices=False)
    kernel = 0
    for i in range(len(s)):
        if s[i] < 1e-10 * s[0]:
            combo = sp.coo_matrix(sum(complex(c) * op for c, op in zip(vh[i], ops)))
            kernel += (float(np.max(np.abs(combo.data))) if combo.nnz else 0.0) <= 1e-9
    return s, kernel, kernel > 0


PROBES = [
    ("circle m=2", lambda: circle_spec(2, 8), 2),
    ("circle m=4", lambda: circle_spec(4, 8), 2),
    ("torus", lambda: torus_spec(8), 1),
    ("noneffective-circle", lambda: noneffective_spec(8), 1),
]


@pytest.mark.parametrize("make, degree", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES])
def test_compact_probe_matches_the_sliced_probe(make, degree):
    spec = make()
    G = spec.groupoid
    s_ref, kernel_ref, witness_ref = ref_probe(G, spec, degree)
    base = G.base
    labels = list(itertools.product(range(-degree, degree + 1), repeat=base.dim))
    elements = [
        fourier_element(G, {g: mode_class(base).mode(base, base.mode_cutoff, l)})
        for g in G.group.elements
        for l in labels
    ]
    A = convolution._probe_matrix(spec, elements, spec.space.band(max(2, spec.cutoff - degree - 2)))
    assert A.shape[0] < spec.space.interior_indices(max(2, spec.cutoff - degree - 2)).size ** 2
    s = np.linalg.svd(A, compute_uv=False)
    assert np.all(np.abs(s - s_ref) <= 1e-14 * s_ref[0])
    rep = faithfulness_probe(G, spec, generator_degree=degree)
    if s_ref[-1] > 1e-10 * s_ref[0]:  # a kernel's singular values are rounding noise of either SVD
        assert rep.detail.endswith(f"smallest singular value {s_ref[-1]:.3e}")
    assert rep.kernel_dim == kernel_ref
    assert (rep.witness is not None) == witness_ref
    assert rep.matches_effectiveness == ((kernel_ref == 0) == is_effective(G)[0])


# -- interior_norm on whole operators and on band blocks


@pytest.mark.parametrize("M", [12, 24])
def test_interior_norm_reads_the_same_from_whole_and_band(M):
    spec = torus_spec(M)
    band = spec.space.band(2)
    D, D_band = assemble_dirac(spec).matrix, spectral._dirac_operator(spec.space, band[0])
    for _, f in torus_generators(spec):
        whole = representation_matrix(spec, f)
        block = representation_matrix(spec, f, band)
        value = interior_norm(spec.space, D @ whole - whole @ D, 2)
        assert value == interior_norm(spec.space, D_band @ block - block @ D_band, 2)


def test_small_block_of_a_large_space_is_the_two_norm():
    spec = torus_spec(24)
    space = spec.space
    buffer = 20  # |k| <= 4: a 162-row block of a 4802-row space
    band = space.band(buffer)
    _, f, _ = (f for _, f in torus_generators(spec))
    D = spectral._dirac_operator(space, band[0])
    op = representation_matrix(spec, f, band)
    block = D @ op - op @ D
    assert block.shape[0] == space.interior_indices(buffer).size == 162
    want = np.linalg.norm(block.toarray(), 2)
    assert interior_norm(space, block, buffer) == pytest.approx(want, rel=1e-12)


# -- spectra.csv rows from arrays


def ref_torus_rows(spec):
    rows = [
        (f"{k1},{k2}:{label}", sign * r)
        for (k1, k2), r in zip(spec.space.modes.tolist(), np.hypot(*spec.space.freqs.T).tolist())
        for label, sign in (("+", 1), ("-", -1))
    ]
    return "".join(f"{label},{value!r}\n" for label, value in rows)


@pytest.mark.parametrize("modes", [8, 12])
def test_torus_spectra_rows_match_the_row_list(modes):
    scenario = harness.build_pillowcase_torus(modes, 2)
    text = scenario.spectra()
    assert text == ref_torus_rows(torus_spec(modes))
    assert "0,0:-,-0.0\n" in text


# -- the Hermiticity residual, once per spec


def test_hermiticity_residual_is_taken_once_per_spec(monkeypatch):
    spec = torus_spec(12)
    calls = []
    get_h = sp.csr_matrix.getH
    monkeypatch.setattr(sp.csr_matrix, "getH", lambda mat: calls.append(mat) or get_h(mat))
    dirac = assemble_dirac(spec)
    assert len(calls) == 1 and calls[0] is dirac.matrix
    report = convolution_triple_report(spec, torus_generators(spec))
    spectral.check_spectral_triple(spec, [], buffer=3)
    assert len(calls) == 1
    residual = abs(dirac.matrix - get_h(dirac.matrix)).max()
    assert report.hermiticity_residual == dirac.hermiticity_residual() == residual == 0.0
