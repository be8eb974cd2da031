"""The array-backed mode space against per-mode loops over every mode.

The reference loops below are the per-mode code the arrays replace: mode
tuples in row-major order, read one frequency, block and matrix entry at a
time.  Operators are compared entry by entry, exactly.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbikit.bases import (
    BandLimitError,
    CatalogError,
    CircleModes,
    CircleRotation,
    FourierCircle,
    FourierTorus,
    TorusIsometry,
    TorusModes,
    mode_class,
    mode_map,
    phase_vector,
    unit_phase,
)
from orbikit.clifford import build_clifford, projective_lift, trivial_lift
from orbikit.groupoids import negation_torus_groupoid, rotation_groupoid, trivial_groupoid
from orbikit.spectral import (
    DiracSpec,
    assemble_dirac,
    check_spectral_triple,
    interior_norm,
    mult_operator,
)

TAU = 2 * np.pi


def unit_spec(n, M, twist=0, lengths=(TAU, TAU)):
    base = FourierCircle(lengths[0], M) if n == 1 else FourierTorus(lengths, M)
    G = trivial_groupoid(base)
    return DiracSpec(G, trivial_lift(G, build_clifford(n)), (Fraction(twist),) * n, M)


# -- reference: one mode at a time


def ref_modes(space):
    return list(itertools.product(range(-space.cutoff, space.cutoff + 1), repeat=space.n))


def ref_index(space):
    return {k: i for i, k in enumerate(ref_modes(space))}


def ref_freq(space, k):
    return tuple((TAU / L) * (ki + float(ti)) for L, ki, ti in zip(space.lengths, k, space.twist))


def ref_interior_indices(space, buffer):
    d = space.rep.spinor_dim
    out = []
    for i, k in enumerate(ref_modes(space)):
        if max(abs(x) for x in k) <= space.cutoff - buffer:
            out.extend(range(i * d, i * d + d))
    return out


def ref_dirac_entries(space):
    d = space.rep.spinor_dim
    out = {}
    for i, k in enumerate(ref_modes(space)):
        w = ref_freq(space, k)
        block = sum(w[a] * space.rep.gammas[a] for a in range(space.n))
        for r in range(d):
            for c in range(d):
                if block[r, c] != 0:
                    out[(i * d + r, i * d + c)] = block[r, c]
    return out


def ref_mult_entries(space, f):
    d = space.rep.spinor_dim
    index = ref_index(space)
    out = {}
    for pos in itertools.product(range(2 * f.cutoff + 1), repeat=space.n):
        c = f.coeffs[pos]
        if c == 0:
            continue
        shift = tuple(p - f.cutoff for p in pos)
        for k, col in index.items():
            row = index.get(tuple(ki + li for ki, li in zip(k, shift)))
            if row is not None:
                for s in range(d):
                    out[(row * d + s, col * d + s)] = c
    return out


def ref_eigenvalues(space, buffer=None):
    vals = []
    for k in ref_modes(space):
        if buffer is not None and max(abs(x) for x in k) > space.cutoff - buffer:
            continue
        w = ref_freq(space, k)
        if space.n == 1:
            vals.append(w[0])
        else:
            r = float(np.hypot(w[0], w[1]))
            vals.extend([r, -r])
    return sorted(vals)


def entries(mat):
    coo = sp.coo_matrix(mat)
    return {(int(r), int(c)): v for r, c, v in zip(coo.row, coo.col, coo.data) if v != 0}


def random_modes(space, f_cutoff, degree, seed):
    """Scalar mode data with about half of the modes up to ``degree`` set."""
    rng = np.random.default_rng(seed)
    side = 2 * f_cutoff + 1
    coeffs = np.zeros((side,) * space.n, dtype=complex)
    window = (slice(f_cutoff - degree, f_cutoff + degree + 1),) * space.n
    shape = coeffs[window].shape
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[window] = np.where(rng.random(shape) < 0.5, vals, 0)
    if space.n == 1:
        return CircleModes(space.base, f_cutoff, coeffs)
    return TorusModes(space.base, f_cutoff, coeffs)


# -- the array layer against the reference

grid = dict(
    n=st.sampled_from([1, 2]),
    M=st.integers(min_value=8, max_value=20),
    twist=st.sampled_from([Fraction(0), Fraction(1, 2)]),
    lengths=st.sampled_from([(TAU, TAU), (3.0, 5.5)]),
    buffer=st.sampled_from([0, 1, 2, 5, 8, 21]),
)


@settings(max_examples=30, deadline=None)
@given(**grid)
def test_modes_freqs_and_interior_match_reference(n, M, twist, lengths, buffer):
    space = unit_spec(n, M, twist, lengths).space
    modes = ref_modes(space)
    assert [tuple(int(x) for x in k) for k in space.modes] == modes
    assert space.modes.shape == (len(modes), n)
    assert list(space.mode_index(space.modes)) == list(range(len(modes)))
    for k, i in ref_index(space).items():
        assert space.mode_index(k) == i
    assert [tuple(w) for w in space.freqs] == [ref_freq(space, k) for k in modes]
    assert list(space.interior_indices(buffer)) == ref_interior_indices(space, buffer)
    assert space.dim == len(modes) * space.rep.spinor_dim


@settings(max_examples=30, deadline=None)
@given(**grid, f_small=st.booleans(), degree=st.integers(0, 3), seed=st.integers(0, 2**16))
def test_operators_and_spectrum_match_reference(n, M, twist, lengths, buffer, f_small, degree, seed):
    spec = unit_spec(n, M, twist, lengths)
    space = spec.space
    dirac = assemble_dirac(spec)
    assert entries(dirac.matrix) == ref_dirac_entries(space)
    f = random_modes(space, 4 if f_small else M, degree, seed)
    assert entries(mult_operator(space, f)) == ref_mult_entries(space, f)
    assert list(dirac.eigenvalues()) == ref_eigenvalues(space)
    assert list(dirac.eigenvalues(buffer)) == ref_eigenvalues(space, buffer)


@pytest.mark.parametrize("kind", ["rotation-circle", "pillowcase"])
def test_group_operators_match_reference(kind):
    if kind == "rotation-circle":
        G = rotation_groupoid(3, FourierCircle(mode_cutoff=9))
        spec = DiracSpec(G, trivial_lift(G, build_clifford(1)), (Fraction(1, 2),), 9)
    else:
        G = negation_torus_groupoid(FourierTorus((TAU, TAU), 10))
        spec = DiracSpec(G, projective_lift(G, build_clifford(2)), (Fraction(0),) * 2, 10)
    space = spec.space
    assert spec.space is space  # built once per spec
    assert entries(assemble_dirac(spec).matrix) == ref_dirac_entries(space)
    f = random_modes(space, 3, 3, seed=7)
    assert entries(mult_operator(space, f)) == ref_mult_entries(space, f)


def test_frame_identity_holds_per_axis_and_generator():
    # unequal circumferences and generators that are not symmetric in the
    # axes, so that mixing up the axes or their lengths shows
    spec = unit_spec(2, 12, lengths=(3.0, 5.5))
    gens = [("a", random_modes(spec.space, 12, 2, seed=3)), ("b", random_modes(spec.space, 12, 3, seed=4))]
    report = check_spectral_triple(spec, gens, buffer=3)
    assert set(report.frame_identity_residuals) == set(report.chirality_commutators) == {"a", "b"}
    for name, _ in gens:
        assert report.commutator_norms[name] > 1.0
        assert report.frame_identity_residuals[name] <= 1e-12
        assert report.chirality_commutators[name] == 0.0


# -- exact phases and pullbacks

CATALOG_TURNS = [Fraction(t) for t in ("0", "1/2", "1/3", "2/3", "1/4", "3/4", "-1/4", "1/8", "5/8", "7/5", "-3/2")]


def bits(x):
    return np.ascontiguousarray(x).view(np.float64)


@pytest.mark.parametrize("twist", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("turns", CATALOG_TURNS)
def test_phase_vector_is_unit_phase_bit_for_bit(twist, turns):
    M = 13
    ref = np.array([unit_phase((k + twist) * turns) for k in range(-M, M + 1)])
    assert np.array_equal(bits(phase_vector(M, twist, turns)), bits(ref))


@pytest.mark.parametrize("twist", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("turns", [0, 1, -1, 2, 3])
def test_phase_vector_of_whole_turns(twist, turns):
    """Whole turns: all ones unless a half twist meets an odd number of turns."""
    M = 9
    ref = np.array([unit_phase((k + twist) * turns) for k in range(-M, M + 1)])
    out = phase_vector(M, twist, turns)
    assert out.dtype == complex and out.shape == (2 * M + 1,)
    assert np.array_equal(bits(out), bits(ref))
    assert np.array_equal(out, np.ones(2 * M + 1)) == ((twist * turns).denominator == 1)


def ref_torus_pullback(f, iso):
    """The per-mode loop: mode k picks up the shift phases and lands at e*k + (e - 1)*t."""
    out = np.zeros_like(f.coeffs)
    e = -1 if iso.negate else 1
    for k1, k2 in f.nonzero_modes():
        ph = unit_phase((k1 + f.twist[0]) * iso.shift[0]) * unit_phase((k2 + f.twist[1]) * iso.shift[1])
        o1, o2 = (int(e * k + (e - 1) * t) for k, t in zip((k1, k2), f.twist))
        out[o1 + f.cutoff, o2 + f.cutoff] += ph * f.coeffs[k1 + f.cutoff, k2 + f.cutoff]
    return out


@pytest.mark.parametrize("negate", [False, True])
@pytest.mark.parametrize("shift", [(0, 0), ("1/2", "1/4"), ("3/4", "1/2"), ("1/3", "1/8")])
@pytest.mark.parametrize("fibre", [(), (2,)])
def test_torus_pullback_matches_the_per_mode_loop(negate, shift, fibre):
    torus = FourierTorus((TAU, TAU), 6)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal((13, 13, *fibre)) + 1j * rng.standard_normal((13, 13, *fibre))
    coeffs[rng.random((13, 13)) < 0.3] = 0
    f = TorusModes(torus, 6, coeffs)
    iso = TorusIsometry(negate, tuple(Fraction(x) for x in shift))
    got, want = f.pullback(iso).coeffs, ref_torus_pullback(f, iso)
    if all(4 * Fraction(x) % 1 == 0 for x in shift):
        assert np.array_equal(got, want)  # quarter-turn phases are exact
    else:
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def ref_mode_map(M, twist, e, shift):
    """The per-mode loops the parent's U(g) used: mode k lands at e*k + (e - 1)*t
    (row -1 outside the window); the phase of each axis is unit_phase((k + t)*s),
    and the axes multiply as ``p1[:, None] * p2[None, :]``."""
    side = 2 * M + 1
    target = []
    for k in itertools.product(range(-M, M + 1), repeat=len(twist)):
        land = [int(e * ki + (e - 1) * ti) for ki, ti in zip(k, twist)]
        inside = all(abs(x) <= M for x in land)
        target.append(reduce(lambda r, x: r * side + x + M, land, 0) if inside else -1)
    axes = [np.array([unit_phase((k + t) * s) for k in range(-M, M + 1)]) for t, s in zip(twist, shift)]
    return np.array(target), reduce(np.multiply.outer, axes).reshape(-1)


TWISTS = [Fraction(0), Fraction(1, 2)]


@pytest.mark.parametrize("shift", [(0, 0), ("1/2", "1/4"), ("3/4", "1/2"), ("1/3", "1/8")])
@pytest.mark.parametrize(
    "twist, negate",
    [((t,), False) for t in TWISTS]
    + [(tw, negate) for tw in itertools.product(TWISTS, repeat=2) for negate in (False, True)],
)
def test_mode_map_matches_the_per_mode_loop(twist, negate, shift):
    M = 7
    shift = tuple(Fraction(x) for x in shift[: len(twist)])
    iso = CircleRotation(shift[0]) if len(twist) == 1 else TorusIsometry(negate, shift)
    target, phase = mode_map(M, twist, iso)
    want_target, want_phase = ref_mode_map(M, twist, -1 if negate else 1, shift)
    assert target.dtype == np.int32 and target.tolist() == want_target.tolist()
    assert np.array_equal(bits(phase), bits(want_phase))
    # only a negation of a twisted axis moves an edge mode out of the window
    assert (target < 0).any() == (negate and any(twist))


@pytest.mark.parametrize("twist", [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2)), (Fraction(1, 2),) * 2])
def test_assembling_a_twisted_negation_leaves_the_window(twist):
    G = negation_torus_groupoid(FourierTorus((TAU, TAU), 8))
    spec = DiracSpec(G, projective_lift(G, build_clifford(2)), twist, 8)
    with pytest.raises(CatalogError, match="pullback leaves the truncation window"):
        assemble_dirac(spec)


def test_mode_map_refuses_a_negation_that_moves_the_twist_lattice():
    with pytest.raises(BandLimitError, match="negation does not preserve this twist lattice"):
        mode_map(5, (Fraction(1, 3), Fraction(0)), TorusIsometry(True))
    with pytest.raises(CatalogError, match="does not act on a 2-dimensional base"):
        mode_map(5, (Fraction(0), Fraction(0)), CircleRotation(Fraction(1, 4)))


@pytest.mark.parametrize("fibre", [(), (2,)])
@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("turns", CATALOG_TURNS)
def test_circle_pullback_is_the_phase_multiply(turns, twist, fibre):
    """Bit for bit the old ``rotate_pullback(iso.turns)``: exact phases times the coefficients."""
    M = 9
    rng = np.random.default_rng(5)
    f = CircleModes.random(FourierCircle(TAU, M), M, rng, fibre, twist)
    iso = CircleRotation(turns)
    want = phase_vector(M, twist, iso.turns).reshape((-1,) + (1,) * len(fibre)) * f.coeffs
    got = f.pullback(iso)
    assert type(got) is CircleModes and got.twist == twist and got.cutoff == M
    assert np.array_equal(bits(got.coeffs), bits(want))


@pytest.mark.parametrize("base", [FourierCircle(TAU, 6), FourierTorus((TAU, 3.0), 6)], ids=["circle", "torus"])
def test_with_cutoff_pads_trims_and_refuses_below_the_degree(base):
    kind = mode_class(base)
    f = kind.random(base, 6, np.random.default_rng(8), (2,), degree=3)
    inner = (slice(3, 10),) * kind.n
    up = f.with_cutoff(9)
    assert up.coeffs.shape == (19,) * kind.n + (2,) and up.twist == f.twist
    assert np.array_equal(up.coeffs[(slice(3, 16),) * kind.n], f.coeffs)
    assert np.abs(up.coeffs).sum() == np.abs(f.coeffs).sum()  # the padding is zero
    down = f.with_cutoff(3)
    assert np.array_equal(down.coeffs, f.coeffs[inner])
    assert np.array_equal(down.with_cutoff(6).coeffs, f.coeffs)
    with pytest.raises(BandLimitError, match="cutoff change would drop nonzero modes"):
        f.with_cutoff(2)


def test_torus_pullback_refuses_only_nonzero_modes_outside_the_window():
    torus = FourierTorus((TAU, TAU), 6)
    half = (Fraction(1, 2), Fraction(1, 2))
    f = TorusModes.zero(torus, 6, twist=half)
    f.coeffs[6, 6] = 1.0  # mode (0, 0) lands at (-1, -1)
    assert f.pullback(TorusIsometry(True)).coeffs[5, 5] == 1.0
    f.coeffs[12, 6] = 1.0  # mode (6, 0) would land at (-7, -1)
    with pytest.raises(BandLimitError, match="truncation window"):
        f.pullback(TorusIsometry(True))


# -- interior_norm


@pytest.fixture
def no_dense_norm(monkeypatch):
    """Fail if interior_norm reaches the dense 2-norm."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense 2-norm computed for a block with no nonzero entry")

    monkeypatch.setattr(np.linalg, "norm", refuse)


def test_interior_norm_of_all_zero_block_is_zero(no_dense_norm):
    space = unit_spec(2, 10).space
    assert interior_norm(space, sp.csr_matrix((space.dim, space.dim), dtype=complex), 2) == 0.0


def test_interior_norm_of_explicit_zeros_is_zero(no_dense_norm):
    space = unit_spec(2, 10).space
    idx = space.interior_indices(2)
    mat = sp.csr_matrix((np.zeros(len(idx), dtype=complex), (idx, idx)), shape=(space.dim, space.dim))
    assert mat.nnz == len(idx) > 0
    assert interior_norm(space, mat, 2) == 0.0


@pytest.mark.parametrize("n, M", [(1, 8), (2, 8), (2, 46)])
def test_interior_norm_of_empty_interior_is_zero(n, M):
    # buffer >= cutoff leaves no interior mode
    space = unit_spec(n, M).space
    mat = sp.identity(space.dim, dtype=complex, format="csr")
    for buffer in (M + 1, M + 5):
        assert space.interior_indices(buffer).size == 0
        assert interior_norm(space, mat, buffer) == 0.0


@pytest.mark.parametrize("n, M, buffer", [(1, 8, 2), (1, 12, 0), (2, 8, 2), (2, 10, 3)])
def test_interior_norm_is_the_dense_two_norm_up_to_the_row_limit(n, M, buffer):
    space = unit_spec(n, M).space
    rng = np.random.default_rng(M + buffer)
    mat = sp.random(space.dim, space.dim, density=0.05, format="csr", random_state=rng, dtype=complex)
    mat = mat + 1j * sp.random(space.dim, space.dim, density=0.05, format="csr", random_state=rng)
    idx = ref_interior_indices(space, buffer)
    block = mat.toarray()[np.ix_(idx, idx)]
    assert np.abs(block).max() > 0
    assert interior_norm(space, mat, buffer) == np.linalg.norm(block, 2)


def permuted_direct_sum(n, layout, empty, stored_zeros, seed):
    """An ``n``-row sparse complex block: a direct sum of random blocks,
    rows and columns then permuted by one shared permutation.

    ``empty`` rows and columns stay empty.  The other rows split into 1x1
    blocks ("ones"), one block ("single") or blocks of 1 to 9 rows
    ("mixed").  Each block has a random pattern plus a superdiagonal, so it
    is one component whose pattern is not symmetric.
    """
    rng = np.random.default_rng(seed)
    live = n - empty
    if layout == "ones":
        sizes = [1] * live
    elif layout == "single":
        sizes = [live]
    else:
        sizes = []
        while sum(sizes) < live:
            sizes.append(min(int(rng.integers(1, 10)), live - sum(sizes)))
    blocks = []
    for s in sizes:
        vals = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        keep = (rng.random((s, s)) < 0.3) | np.eye(s, k=1, dtype=bool)
        keep[0, 0] |= s == 1
        blocks.append(sp.csr_matrix(np.where(keep, vals, 0)))
    blocks.append(sp.csr_matrix((empty, empty), dtype=complex))
    coo = sp.block_diag(blocks, format="coo")
    rows, cols, data = coo.row, coo.col, coo.data
    if stored_zeros:
        # explicit zeros at three unstored positions and on the empty rows
        stored = coo.toarray() != 0
        free_r, free_c = np.nonzero(~stored)
        pick = rng.choice(len(free_r), size=3, replace=False)
        extra = np.arange(live, n)
        rows = np.concatenate([rows, free_r[pick], extra])
        cols = np.concatenate([cols, free_c[pick], extra])
        data = np.concatenate([data, np.zeros(3 + len(extra), dtype=complex)])
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    return sp.csr_matrix((data, (inv[rows], inv[cols])), shape=(n, n))


@settings(max_examples=60, deadline=None)
@given(
    M=st.integers(min_value=8, max_value=30),
    layout=st.sampled_from(["ones", "mixed", "single"]),
    empty=st.sampled_from([0, 1, 6]),
    stored_zeros=st.booleans(),
    seed=st.integers(0, 2**16),
)
# single components of 515 to 800 rows, above LANCZOS_ROWS: they take svds
@example(M=300, layout="single", empty=0, stored_zeros=False, seed=0)
@example(M=300, layout="single", empty=0, stored_zeros=True, seed=1)
@example(M=260, layout="single", empty=6, stored_zeros=True, seed=2)
@example(M=400, layout="single", empty=1, stored_zeros=False, seed=3)
def test_interior_norm_of_permuted_direct_sums_is_the_dense_two_norm(M, layout, empty, stored_zeros, seed):
    space = unit_spec(1, M).space  # buffer 0: the interior block is the whole matrix
    mat = permuted_direct_sum(space.dim, layout, empty, stored_zeros, seed)
    if stored_zeros:
        assert mat.nnz > mat.count_nonzero()
    want = np.linalg.norm(mat.toarray(), 2)
    assert want > 0
    assert abs(interior_norm(space, mat, 0) - want) <= 1e-12 * want


def test_dense_norms_never_exceed_the_largest_coupling_component(monkeypatch):
    """At torus modes=12 the commutators with cos(x1) and cos(x1 + x2) have
    interior blocks of 882 rows, and of 4050 at the doubled cutoff, but no
    coupling component has more than 21 rows at the cutoff or 45 at the
    doubled one."""
    rows = []
    norm = np.linalg.norm

    def spy(x, ord=None, axis=None, keepdims=False):
        if ord == 2 and np.ndim(x) >= 2:
            rows.append(np.shape(x)[-2])
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", spy)
    spec = unit_spec(2, 12)
    torus = spec.groupoid.base
    cos10, cos11 = TorusModes.zero(torus, 12), TorusModes.zero(torus, 12)
    cos10.coeffs[13, 12] = cos10.coeffs[11, 12] = 0.5
    cos11.coeffs[13, 13] = cos11.coeffs[11, 11] = 0.5
    report = check_spectral_triple(spec, [("cos10", cos10), ("cos11", cos11)], buffer=2)
    assert min(report.commutator_norms.values()) > 0.5
    assert rows and max(rows) <= 45


@pytest.mark.parametrize("module", ["scipy.sparse.csgraph", "sympy"])
def test_import_does_not_load(module):
    # interior_norm imports csgraph on first use, and the package needs no sympy;
    # loading either with the package is a measurable share of the import time
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, orbikit; "
        f"print(sorted(m for m in sys.modules if m == {module!r} or m.startswith({module + '.'!r})))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
