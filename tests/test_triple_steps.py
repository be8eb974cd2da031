"""The spectral-triple checks split into steps.

Each step fills only its own fields of the report, with the bits that the
composition of every step (``convolution_triple_report``,
``check_spectral_triple``) puts there.  A scenario check runs only the steps
it reads, so the torus ``chirality-package`` never builds the doubled
cutoff and no longer fails with an unread growth fit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from orbikit import harness
from orbikit.bases import CircleModes
from orbikit.convolution import convolution_header, convolution_triple_report, law_step
from orbikit.spectral import (
    DiracSpec,
    chirality_step,
    check_spectral_triple,
    commutator_step,
    growth_step,
    symmetry_step,
    triple_header,
    uniform_measure,
)

from test_band import circle_generators, circle_spec, torus_generators, torus_spec

HEADER = ("label", "cutoff", "buffer", "hermiticity_residual", "eigenvalues")
# step -> the report fields it fills
STEPS = {
    "commutators": (commutator_step, ("commutator_norms", "commutator_drift", "frame_identity_residuals")),
    "growth": (growth_step, ("growth_exponent", "growth_target")),
    "chirality": (chirality_step, ("chirality_square_residual", "chirality_anticommutator",
                                   "chirality_commutators")),
    "law": (law_step, ("representation_residual",)),
}
UNFILLED = {"commutator_norms": {}, "commutator_drift": {}, "frame_identity_residuals": {},
            "growth_exponent": None, "growth_target": None, "chirality_square_residual": None,
            "chirality_anticommutator": None, "chirality_commutators": {}, "symmetry_residual": None,
            "representation_residual": None}


def bits(value):
    """A field's value with every float as its bytes, so -0.0 and NaN compare too."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value, dtype=float).tobytes()
    return value


CONFIGS = [("torus", None, M) for M in (12, 24)] + [("circle", m, 32) for m in (2, 4)]


def config_spec(kind, m, M):
    if kind == "torus":
        spec = torus_spec(M)
        return spec, torus_generators(spec)
    spec = circle_spec(m, M)
    return spec, circle_generators(spec)


@pytest.mark.parametrize("kind, m, M", CONFIGS, ids=[f"{k}-m{m}-M{M}" for k, m, M in CONFIGS])
def test_each_step_fills_its_fields_with_the_composed_bits(kind, m, M):
    spec, gens = config_spec(kind, m, M)
    full = convolution_triple_report(spec, gens, buffer=2)
    header = convolution_header(spec, gens, buffer=2).report
    for name in HEADER:
        assert bits(getattr(header, name)) == bits(getattr(full, name)), name
    assert [n for n, _ in header.operators] == [n for n, _ in full.operators] == [n for n, _ in gens]
    for (_, a), (_, b) in zip(header.operators, full.operators):
        a, b = sp.csr_matrix(a), sp.csr_matrix(b)
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()
    for step, (fn, fields) in STEPS.items():
        run = convolution_header(spec, gens, buffer=2)
        fn(run)
        for name, empty in UNFILLED.items():
            want = getattr(full, name) if name in fields else empty
            assert bits(getattr(run.report, name)) == bits(want), (step, name)
    # the composition fills every field but the symmetry
    assert full.commutator_norms and full.growth_exponent is not None
    assert full.representation_residual is not None
    assert (full.chirality_anticommutator is not None) == (kind == "torus")


def test_check_spectral_triple_is_the_composition_of_its_steps():
    spec = circle_spec(2, 24)
    G = spec.groupoid
    f = CircleModes.mode(G.base, 24, 2)
    rng = np.random.default_rng(5)
    pairs = [tuple(CircleModes(G.base, 24, rng.standard_normal(49) + 0j) for _ in range(2)) for _ in range(2)]
    measure = uniform_measure(G.base, 2, 1)
    full = check_spectral_triple(spec, [("e2", f)], measure=measure, invariant_pairs=pairs)
    run = triple_header(spec, [("e2", f)])
    commutator_step(run)
    growth_step(run)
    chirality_step(run)
    symmetry_step(run, measure, pairs)
    assert bits(run.report.as_dict()) == bits(full.as_dict())
    assert full.symmetry_residual is not None and full.commutator_drift


def no_doubled_cutoff(monkeypatch):
    def refuse(self, cutoff):
        raise RuntimeError(f"doubled cutoff {cutoff} built")

    monkeypatch.setattr(DiracSpec, "with_cutoff", refuse)


def run_checks(scenario, params, checks):
    config = {"schema_version": 1, "scenario": scenario, "params": params, "checks": checks}
    return {c["name"]: c for c in harness.run_scenario(config)[1]["checks"]}


def test_only_the_commutator_check_builds_the_doubled_cutoff(monkeypatch):
    no_doubled_cutoff(monkeypatch)
    torus = run_checks("pillowcase-torus", {"modes": 12}, ["chirality-package", "growth-exponent"])
    assert torus["chirality-package"]["passed"] and torus["growth-exponent"]["passed"]
    circle = run_checks("free-rotation-circle", {"m": 2, "modes": 16},
                        ["divergence-symmetry", "convolution-commutators", "growth-exponent"])
    assert circle["divergence-symmetry"]["passed"] and circle["growth-exponent"]["passed"]
    assert circle["convolution-commutators"]["error"] == "RuntimeError: doubled cutoff 32 built"


def test_only_the_steps_that_read_d_build_it(monkeypatch):
    """The growth and symmetry checks never read the interior Dirac, so they
    do not build it; the chirality check builds it once for its two reads."""
    from orbikit import spectral

    built = []
    dirac_operator = spectral._dirac_operator

    def counted(space, keep=None):
        if keep is not None:
            built.append(space.cutoff)
        return dirac_operator(space, keep)

    monkeypatch.setattr(spectral, "_dirac_operator", counted)
    torus = run_checks("pillowcase-torus", {"modes": 12}, ["growth-exponent"])
    circle = run_checks("free-rotation-circle", {"m": 2, "modes": 16}, ["divergence-symmetry", "growth-exponent"])
    assert torus["growth-exponent"]["passed"] and circle["divergence-symmetry"]["passed"]
    assert built == []
    assert run_checks("pillowcase-torus", {"modes": 12}, ["chirality-package"])["chirality-package"]["passed"]
    assert built == [12]


def test_a_band_of_one_mode_fails_only_what_reads_the_growth_fit():
    """At modes 8, buffer 8 the interior band holds the zero mode alone: too
    few eigenvalue levels for a growth fit, which only growth-exponent reads,
    and no mode pair that a generator couples, which the commutator check says."""
    fit = "CatalogError: not enough distinct eigenvalue levels for a growth fit"
    torus = run_checks("pillowcase-torus", {"modes": 8, "buffer": 8}, ["chirality-package", "growth-exponent"])
    assert torus["chirality-package"]["passed"] and torus["chirality-package"]["value"] == 0.0
    assert torus["growth-exponent"]["error"] == fit
    for m in (2, 4):
        circle = run_checks("free-rotation-circle", {"m": m, "modes": 8, "buffer": 8},
                            ["convolution-commutators", "growth-exponent"])
        commutators = circle["convolution-commutators"]
        # no commutator couples the one mode to itself: each norm reads 0, l away from l
        assert not commutators["passed"] and commutators["value"] == 3.0 and "error" not in commutators
        assert commutators["detail"].endswith("; the interior band couples no generator")
        assert circle["growth-exponent"]["error"] == fit


def test_law_step_reads_each_generator_degree_once(monkeypatch):
    """law_step's own pair filter takes each degree once; ``convolve`` still
    checks its factors' degrees itself."""
    import sys

    from orbikit.convolution import ConvolutionElement

    spec = torus_spec(12)
    run = convolution_header(spec, torus_generators(spec))
    seen = []
    degree = ConvolutionElement.degree

    def counted(f):
        caller = sys._getframe(1)
        while caller.f_code.co_name.startswith("<"):  # a comprehension's own frame
            caller = caller.f_back
        if caller.f_code is law_step.__code__:
            seen.append(f)
        return degree(f)

    monkeypatch.setattr(ConvolutionElement, "degree", counted)
    law_step(run)
    assert [id(f) for f in seen] == [id(f) for _, f in run.generators]
