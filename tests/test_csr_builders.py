"""The Fourier operator builders against the COO route they replace.

The ``ref_*`` functions below are the builders as they were before the
operators were written straight into canonical CSR: mode-level (row,
column, value) arrays, filtered by the band's masks, expanded over the
spinor block and handed to scipy's COO -> CSR conversion, which sorts each
row.  Every builder is compared with its reference array by array: the same
``indptr``, the same ``indices``, the same bits in ``data``, and rows whose
columns strictly ascend.  ``tests/test_band.py`` compares band blocks with
the same builders' whole operators, so it cannot see a rounding or an order
that both share; these tests can.
"""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from orbikit import convolution, spectral
from orbikit.bases import CatalogError, CircleModes, FourierCircle, FourierTorus, TorusModes, mode_class, mode_map
from orbikit.clifford import SpinLift, build_clifford, projective_lift, trivial_lift
from orbikit.convolution import fourier_element, representation_matrix
from orbikit.groupoids import negation_torus_groupoid, rotation_groupoid
from orbikit.spectral import (
    DiracSpec,
    _frame_identity_rhs,
    action_matrix,
    action_mult_operator,
    chirality_matrix,
    mult_operator,
)

# -- reference: the COO route, with the band as a pair of masks


def ref_mode_action(spec, g):
    target, phase = mode_map(spec.cutoff, spec.twist, spec.groupoid.iso[g].inverse())
    assert (target >= 0).all()
    S = spec.lift.matrix(g)
    return target, phase, phase * S[np.nonzero(S)][:, None]


def ref_mult_entries(space, f):
    M = space.cutoff
    ks = np.arange(-M, M + 1, dtype=np.int32)
    strides = (2 * M + 1) ** np.arange(space.n - 1, -1, -1)
    rows, cols, vals = [np.zeros(0, np.int32)], [np.zeros(0, np.int32)], [np.zeros(0, complex)]
    for pos in np.argwhere(np.abs(f.coeffs) > 0)[::-1]:
        shift = pos - f.cutoff
        inside = reduce(np.logical_and.outer, [np.abs(ks + l) <= M for l in shift])
        c = np.flatnonzero(inside).astype(np.int32)
        rows.append(c + int(shift @ strides))
        cols.append(c)
        vals.append(np.full(len(c), f.coeffs[tuple(pos)]))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def ref_in_band(space, rows, cols, band):
    n = len(space.modes)
    if band is None:
        return slice(None), rows, cols, (n, n)
    hit = np.ones(len(rows), dtype=bool)
    for index, keep in zip((rows, cols), band):
        if keep is not None:
            hit &= keep[index]
    out, shape = [], []
    for index, keep in zip((rows, cols), band):
        if keep is None:
            out.append(index[hit])
            shape.append(n)
        else:
            out.append((np.cumsum(keep, dtype=np.int32) - 1)[index[hit]])
            shape.append(int(np.count_nonzero(keep)))
    return hit, out[0], out[1], tuple(shape)


def ref_spinor_entries(space, rows, cols, block, values):
    d = space.rep.spinor_dim
    i, j = (x.astype(np.int32)[:, None] for x in np.nonzero(block))
    r = (np.asarray(rows, dtype=np.int32) * d + i).reshape(-1)
    c = (np.asarray(cols, dtype=np.int32) * d + j).reshape(-1)
    return r, c, np.broadcast_to(values, (len(i), len(rows))).reshape(-1)


def ref_spinor_operator(space, rows, cols, block, values, shape):
    d = space.rep.spinor_dim
    r, c, data = ref_spinor_entries(space, rows, cols, block, values)
    return sp.csr_matrix((data, (r, c)), shape=(shape[0] * d, shape[1] * d))


def ref_product(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    re, im = out.real, out.imag
    np.multiply(a.real, b.real, out=re)
    re -= a.imag * b.imag
    np.multiply(a.real, b.imag, out=im)
    im += a.imag * b.real
    return out


def ref_action_matrix(spec, g):
    target, _, spin = ref_mode_action(spec, g)
    cols = np.arange(len(target), dtype=np.int32)
    return ref_spinor_operator(spec.space, target, cols, spec.lift.matrix(g), spin, (len(target), len(target)))


def ref_mult_operator(space, f, band=None):
    rows, cols, vals = ref_mult_entries(space, f)
    hit, rows, cols, shape = ref_in_band(space, rows, cols, band)
    return ref_spinor_operator(space, rows, cols, np.eye(space.rep.spinor_dim), vals[hit], shape)


def ref_action_mult_entries(spec, g, part, band=None):
    rows, cols, vals = ref_mult_entries(spec.space, part)
    target, _, spin = ref_mode_action(spec, g)
    hit, out_rows, out_cols, shape = ref_in_band(spec.space, target[rows], cols, band)
    values = ref_product(spin[:, rows[hit]], vals[hit])
    return out_rows, out_cols, spec.lift.matrix(g), values, shape


def ref_action_mult_operator(spec, g, part, band=None):
    rows, cols, S, values, shape = ref_action_mult_entries(spec, g, part, band)
    return ref_spinor_operator(spec.space, rows, cols, S, values, shape)


def ref_chirality_matrix(space, band=None):
    chi = space.rep.chirality
    modes = np.arange(len(space.modes), dtype=np.int32)
    _, rows, cols, shape = ref_in_band(space, modes, modes, band)
    return ref_spinor_operator(space, rows, cols, chi, chi[np.nonzero(chi)][:, None], shape)


def ref_frame_identity_rhs(space, f, band=None):
    total = None
    for axis in range(space.n):
        rows, cols, vals = ref_mult_entries(space, f.derivative(axis) * -1j)
        hit, rows, cols, shape = ref_in_band(space, rows, cols, band)
        gamma = space.rep.gammas[axis]
        values = ref_product(vals[hit], gamma[np.nonzero(gamma)][:, None])
        term = ref_spinor_operator(space, rows, cols, gamma, values, shape)
        total = term if total is None else total + term
    return total


def ref_representation_matrix(spec, f, band=None):
    total = None
    for g, part in f.data.items():
        term = ref_action_mult_operator(spec, g, part, band)
        total = term if total is None else total + term
    if total is None:
        base = spec.groupoid.base
        total = ref_mult_operator(spec.space, mode_class(base).zero(base, base.mode_cutoff), band)
    return total


def ref_probe_matrix(spec, elements, band):
    space = spec.space
    flat, column, values = [], [], []
    for e, f in enumerate(elements):
        ((g, part),) = f.data.items()
        rows, cols, S, vals, (_, width) = ref_action_mult_entries(spec, g, part, band)
        r, c, data = ref_spinor_entries(space, rows, cols, S, vals)
        flat.append(r.astype(np.int64) * (width * space.rep.spinor_dim) + c)
        column.append(np.full(len(r), e))
        values.append(data)
    flat, column, values = (np.concatenate(x) for x in (flat, column, values))
    nonzero = values != 0
    rows, row_of = np.unique(flat[nonzero], return_inverse=True)
    A = np.zeros((len(rows), len(elements)), dtype=complex)
    A[row_of, column[nonzero]] = values[nonzero]
    return A


# -- specs, data and bands


def torus_spec(M):
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 3.5), M))
    return DiracSpec(G, projective_lift(G, build_clifford(2)), (Fraction(0), Fraction(0)), M)


def circle_spec(m, M, twist):
    G = rotation_groupoid(m, FourierCircle(mode_cutoff=M))
    return DiracSpec(G, trivial_lift(G, build_clifford(1)), (Fraction(twist),), M)


def noneffective_spec(M):
    G = rotation_groupoid(4, FourierCircle(mode_cutoff=M), through="1/2")
    return DiracSpec(G, SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True), (Fraction(0),), M)


SPECS = {
    "torus": lambda: torus_spec(9),
    **{f"circle-m{m}-t{t}": (lambda m=m, t=t: circle_spec(m, 10, t)) for m in (2, 3, 4) for t in ("0", "1/2")},
    "noneffective-circle": lambda: noneffective_spec(9),
}


def random_parts(spec, seed):
    """Scalar mode data: a dense low band, a sparse spread of shifts up to
    2M + 2 (some reaching the far edge of the window, some leaving it), a
    single mode, and the zero function."""
    base, M = spec.groupoid.base, spec.cutoff
    kind = mode_class(base)
    rng = np.random.default_rng(seed)
    dense = kind.random(base, M, rng, degree=2)
    wide = kind.zero(base, 2 * M + 2)
    picks = rng.integers(0, 4 * M + 5, size=(9, base.dim))
    picks[0] = 0  # the shift -(2M + 2) on every axis: outside the window
    picks[1] = 2 * M + 2 - M  # -M: reaches one edge
    for pos in picks:
        wide.coeffs[tuple(pos)] = rng.standard_normal() + 1j * rng.standard_normal()
    single = kind.mode(base, M, (1,) * base.dim, amplitude=0.5 - 0.25j)
    return [("dense", dense), ("wide", wide), ("single", single), ("zero", kind.zero(base, M))]


def bands(space):
    """Every band shape at buffers 0, 1 and 2, and at a buffer past the
    cutoff, whose band keeps no mode, with the masks of the reference."""
    out = [("whole", None, None)]
    for buffer in (0, 1, 2, space.cutoff + 1):
        new, mask = space.band(buffer), space.interior(buffer)
        out += [
            (f"both-b{buffer}", new, (mask, mask)),
            (f"rows-b{buffer}", (new[0], None), (mask, None)),
            (f"cols-b{buffer}", (None, new[1]), (None, mask)),
        ]
    return out


def assert_same_csr(got, want, what):
    assert isinstance(got, sp.csr_matrix), what
    assert got.shape == want.shape, what
    assert np.array_equal(got.indptr, want.indptr), what
    assert np.array_equal(got.indices, want.indices), what
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64)), what
    rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    ascending = np.diff(got.indices) > 0
    assert np.all(ascending | (rows[1:] != rows[:-1])), f"{what}: a row's columns do not strictly ascend"


# -- the builders


@pytest.mark.parametrize("name", list(SPECS))
def test_action_matrix_matches_the_coo_route(name):
    spec = SPECS[name]()
    for g in spec.groupoid.group.elements:
        assert_same_csr(action_matrix(spec, g), ref_action_matrix(spec, g), f"U({g})")


@pytest.mark.parametrize("name", list(SPECS))
def test_multiplication_builders_match_the_coo_route(name):
    spec = SPECS[name]()
    space = spec.space
    for what, part in random_parts(spec, seed=len(name)):
        for shape, band, masks in bands(space):
            label = f"{what} {shape}"
            assert_same_csr(mult_operator(space, part, band), ref_mult_operator(space, part, masks), f"mult {label}")
            for g in spec.groupoid.group.elements:
                got = action_mult_operator(spec, g, part, band)
                assert_same_csr(got, ref_action_mult_operator(spec, g, part, masks), f"U({g}) mult {label}")
            got = _frame_identity_rhs(space, part, band)
            assert_same_csr(got, ref_frame_identity_rhs(space, part, masks), f"frame {label}")


@pytest.mark.parametrize("name", list(SPECS))
def test_representation_matrix_matches_the_coo_route(name):
    spec = SPECS[name]()
    G = spec.groupoid
    parts = dict(random_parts(spec, seed=3))
    elements = {
        "two parts": fourier_element(G, {G.group.identity: parts["dense"], G.group.elements[-1]: parts["wide"]}),
        "one part": fourier_element(G, {G.group.elements[1]: parts["single"]}),
        "zero element": fourier_element(G, {}),
    }
    for what, f in elements.items():
        for shape, band, masks in bands(spec.space):
            want = ref_representation_matrix(spec, f, masks)
            assert_same_csr(representation_matrix(spec, f, band), want, f"{what} {shape}")


class BlockLift(SpinLift):
    """A lift whose spin blocks have rows of two, one and no nonzeros: not a
    lift of the action, but the builders only read its blocks."""

    BLOCKS = {
        0: np.array([[0.6, 0.8j], [-1.0 + 0.25j, 0.0]]),
        1: np.array([[0.0, 0.0], [0.3 - 0.1j, 1.0 / 3.0]]),
    }

    def matrix(self, g):
        return self.BLOCKS[g].astype(complex)


@pytest.mark.parametrize("g", [0, 1])
def test_blocks_with_several_nonzeros_per_row_match_the_coo_route(g):
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 3.5), 9))
    spec = DiracSpec(G, BlockLift(G, build_clifford(2), {0: 1, 1: 1}, False), (Fraction(0), Fraction(0)), 9)
    assert_same_csr(action_matrix(spec, g), ref_action_matrix(spec, g), f"U({g})")
    for what, part in random_parts(spec, seed=11):
        for shape, band, masks in bands(spec.space):
            got = action_mult_operator(spec, g, part, band)
            assert_same_csr(got, ref_action_mult_operator(spec, g, part, masks), f"U({g}) mult {what} {shape}")


def test_builders_read_each_spin_block_from_the_spec(monkeypatch):
    spec = torus_spec(9)
    G = spec.groupoid
    part = random_parts(spec, seed=5)[0][1]
    for g in G.group.elements:
        action_mult_operator(spec, g, part)
    calls = []
    matrix = type(spec.lift).matrix
    monkeypatch.setattr(type(spec.lift), "matrix", lambda lift, g: calls.append(g) or matrix(lift, g))
    for g in G.group.elements:
        action_matrix(spec, g)
        action_mult_operator(spec, g, part, spec.space.band(2))
    representation_matrix(spec, fourier_element(G, {g: part for g in G.group.elements}))
    convolution._probe_matrix(spec, [fourier_element(G, {1: TorusModes.mode(G.base, 9, (1, 0))})], None)
    assert calls == []


def test_constant_spin_blocks_are_built_once_per_space(monkeypatch):
    spec = torus_spec(9)
    space, part = spec.space, random_parts(spec, seed=5)[0][1]
    calls = []
    spin_block = spectral._spin_block
    monkeypatch.setattr(spectral, "_spin_block", lambda *args: calls.append(args) or spin_block(*args))
    for _ in range(2):
        mult_operator(space, part)
        chirality_matrix(space, space.band(2))
        _frame_identity_rhs(space, part)
    # the identity, the chirality and the two gammas
    assert len(calls) == 4


def test_chirality_matrix_matches_the_coo_route():
    space = torus_spec(9).space
    for shape, band, masks in bands(space):
        assert_same_csr(chirality_matrix(space, band), ref_chirality_matrix(space, masks), shape)


@pytest.mark.parametrize("name", ["torus", "circle-m2-t0", "circle-m3-t1/2", "noneffective-circle"])
def test_probe_matrix_matches_the_coo_route(name):
    spec = SPECS[name]()
    G, base = spec.groupoid, spec.groupoid.base
    kind = mode_class(base)
    elements = [
        fourier_element(G, {g: kind.mode(base, base.mode_cutoff, (l,) * base.dim)})
        for g in G.group.elements
        for l in (-2, -1, 0, 1, 2)
    ]
    for band, masks in ((spec.space.band(4), (spec.space.interior(4),) * 2), (None, None)):
        got = convolution._probe_matrix(spec, elements, band)
        want = ref_probe_matrix(spec, elements, masks)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# -- mode data that is not a scalar function


def test_builders_refuse_fibre_data():
    base = FourierCircle(mode_cutoff=16)
    spec = circle_spec(2, 16, "0")
    f = CircleModes.zero(base, 16, fibre_shape=(2,))
    f.coeffs[17, 0] = 1.0
    with pytest.raises(CatalogError, match="not a scalar function"):
        mult_operator(spec.space, f)
    with pytest.raises(CatalogError, match="not a scalar function"):
        representation_matrix(spec, fourier_element(spec.groupoid, {1: f}))


def test_builders_refuse_twisted_data():
    base = FourierCircle(mode_cutoff=16)
    spec = circle_spec(2, 16, "0")
    f = CircleModes.mode(base, 16, 1, twist=Fraction(1, 2))
    with pytest.raises(CatalogError, match="not a scalar function"):
        mult_operator(spec.space, f)
    torus = torus_spec(9)
    g = TorusModes.mode(torus.groupoid.base, 9, (1, 0), twist=(Fraction(0), Fraction(1, 2)))
    with pytest.raises(CatalogError, match="not a scalar function"):
        action_mult_operator(torus, 1, g)
