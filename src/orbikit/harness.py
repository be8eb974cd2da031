"""Scenario registry and check orchestration.

A scenario bundles catalog objects with a named list of checks.  Its
params are declared in ``PARAMS``, each with a type, a default and a range
or a set of allowed values.  Its builder takes the resolved params and
declares every check as ``(name, default tolerance, fn(tol) -> (ok, value,
detail))``; the harness runs each check in isolation and builds every
``CheckResult`` itself.  Reports are deterministic byte-for-byte for a
fixed configuration and package version: keys are sorted, check order is
the declared order, and no timestamps are recorded.

Config files are JSON with an explicit schema version:

    {"schema_version": 1, "scenario": "free-rotation-circle",
     "params": {"m": 4}, "modes": 32, "buffer": 2,
     "tolerances": {"spectra-match": 1e-10}}

Tolerances may be tightened freely; loosening a default by more than a
factor of ten needs force=True (the --force flag).  Anything else the
declarations do not allow raises ``ConfigError``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import __version__
from .bases import CircleModes, FourierCircle, FourierTorus, TorusModes
from .clifford import SpinLift, build_clifford, projective_lift, spin_lift_search, trivial_lift
from .cocycles import (
    cohomologous,
    default_sections,
    induce_cocycle,
    induced_bundle,
    reconstruct_bundle,
    sections_from_offsets,
    sign_cocycle,
    validate_cocycle,
    verify_coboundary,
    Cocycle,
    SectionFamily,
    INCONCLUSIVE,
)
from .convolution import (
    convolution_header,
    convolution_triple_report,
    faithfulness_probe,
    fourier_element,
    fourier_unit,
    law_step,
)
from .groupoids import (
    CechCover,
    CircleArc,
    cech_groupoid,
    cyclic_translation_groupoid,
    is_effective,
    orbits,
    rotation_groupoid,
    negation_torus_groupoid,
    trivial_cover,
)
from .morita import (
    QuotientCovering,
    double_cover_bitorsor,
    cech_bitorsor,
    compose_homs,
    fibre_partition_report,
    find_two_morphism,
    identity_bitorsor,
    inverse_bitorsor,
    localize_cech,
    validate_generalized_hom,
    weak_equivalence_pair,
)
from .reports import CheckResult
from .transport import pushforward_function
from .spectral import (
    DEFAULT_BUFFER,
    MIN_CUTOFF,
    Chart,
    DiracSpec,
    OrbifoldMeasure,
    chirality_step,
    commutator_step,
    conjugated_multiplication_residual,
    downstairs_tangent_cocycle,
    growth_step,
    induced_dirac,
    induced_tangent_cocycle,
    matched_interior_spectra,
    orbifold_inner,
    orbifold_integral,
    spin_structure_transport,
    symmetry_step,
    triple_header,
    uniform_measure,
)

SCHEMA_VERSION = 1
CONFIG_KEYS = {"schema_version", "scenario", "params", "modes", "buffer", "checks", "tolerances"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Param:
    """A declared scenario param: its type, default, and range or allowed set."""

    type: type
    default: object
    low: object = None
    high: object = None
    choices: tuple = None

    def validate(self, scenario, key, value):
        if (
            isinstance(value, bool) or not isinstance(value, self.type)
            or (self.low is not None and value < self.low)
            or (self.high is not None and value > self.high)
            or (self.choices is not None and value not in self.choices)
        ):
            allowed = (f"one of {list(self.choices)}" if self.choices
                       else f"an {self.type.__name__} >= {self.low}"
                       + (f" and <= {self.high}" if self.high is not None else ""))
            raise ConfigError(f"{scenario} param {key} must be {allowed}, got {value!r}")
        return value


@dataclass
class Scenario:
    description: str
    checks: list  # (check name, default tolerance, fn(tol) -> (ok, value or None, detail))
    # () -> the rows of spectra.csv after its header, rendered only when a
    # bundle is written; None for a scenario with no spectrum
    spectra: object = None


# ---------------------------------------------------------------------------
# scenario builders


def _localize(b, cover_y=None):
    """localize_cech along the trivial cover of the left groupoid."""
    return localize_cech(b, trivial_cover(b.left), cover_y or trivial_cover(b.right))


def _z2_sign(G):
    """-1 on the nontrivial element of Z_2, on theta or a Čech groupoid over it."""
    return sign_cocycle(G, lambda a: -1 if (a[0] if isinstance(a, tuple) else a) == 1 else 1)


def _double_cover(N):
    """The double cover at scale N, localized along trivial covers.

    Returns (theta, xi, bitorsor, localized, right Čech groupoid, sign
    cocycle on the left Čech groupoid, that sign induced along default
    sections).
    """
    theta, xi, b = double_cover_bitorsor(N)
    loc, cx, cy = _localize(b)
    sign = _z2_sign(cx)
    return theta, xi, b, loc, cy, sign, induce_cocycle(loc, sign, default_sections(loc))


def _seam_wrap_check(N, cy, induced, detail):
    """The seam-wrap check of the induced sign cocycle of ``_double_cover``.

    It passes when the cocycle is valid and follows the oracle entrywise;
    its value counts the entries that do not.  The oracle transports the
    source section point along the arrow and counts seam wraps: the entry
    at Čech arrow ((a, y), i, j) is (-1)^((y + a) // N).
    """
    def check(tol):
        mismatches = sum(
            int(induced.entries[arrow][0, 0]) != (-1) ** ((arrow[0][1] + arrow[0][0]) // N)
            for arrow in cy.arrows
        )
        return validate_cocycle(induced).ok and mismatches == 0, mismatches, detail
    return check


def build_a2_example(N) -> Scenario:
    theta, xi, b, loc, cy, sign, induced = _double_cover(N)

    def bitorsor_axioms(tol):
        rep = validate_generalized_hom(b, mode="bitorsor")
        # shift the images of the elements 0 and 1: enough to break the axioms at every N
        mutated = replace(
            b, right_act={(q, t): (q + t[0] + N) % (2 * N) if t[0] <= 1 else v
                          for (q, t), v in b.right_act.items()},
            name="mutated",
        )
        bad = validate_generalized_hom(mutated, mode="bitorsor")
        witness = bad.violations[0] if bad.violations else "none"
        return (rep.ok and not bad.ok, len(bad.violations) == 0,
                f"valid at N={N}; mutated table fails with witness: {witness}")

    def fibre_blocks(tol):
        bad = [y for y in xi.objects if not fibre_partition_report(b, y).ok()]
        return not bad, len(bad), f"isotropy-rank block partition verified at every object (N={N})"

    def weak_equiv(tol):
        rep = weak_equivalence_pair(b).check()
        return rep.ok, len(rep.violations), (
            "surjectivity and cartesian conditions hold exhaustively" if rep.ok else rep.render())

    induced_sign = _seam_wrap_check(
        N, cy, induced, "matches the unique-arrow transport oracle entrywise")

    def section_independence(tol):
        ga = induce_cocycle(loc, sign, sections_from_offsets(loc, 0))
        gb = induce_cocycle(loc, sign, sections_from_offsets(loc, 1))
        lam = cohomologous(ga, gb)
        ok = lam not in (None, INCONCLUSIVE) and verify_coboundary(ga, gb, lam)
        return ok, None, "distinct section families give cohomologous cocycles; coboundary found"

    def composition_roundtrip(tol):
        comp = compose_homs(b, inverse_bitorsor(b))
        ok = validate_generalized_hom(comp, mode="bitorsor").ok
        ok = ok and find_two_morphism(comp, identity_bitorsor(theta)) not in (None, INCONCLUSIVE)
        return ok, None, "composite with the inverse is 2-isomorphic to the identity bitorsor"

    return Scenario(
        f"double-cover discretization at N={N}: bitorsor, fibre blocks, weak "
        "equivalences, induced sign cocycle, composition round trip",
        [
            ("bitorsor-axioms", 0.0, bitorsor_axioms),
            ("fibre-blocks", 0.0, fibre_blocks),
            ("weak-equivalence-pair", 0.0, weak_equiv),
            ("induced-sign-cocycle", 0.0, induced_sign),
            ("section-independence", 0.0, section_independence),
            ("composition-roundtrip", 0.0, composition_roundtrip),
        ],
    )


def _rotation_setup(m, M):
    G = rotation_groupoid(m, FourierCircle(mode_cutoff=M))
    spec = DiracSpec(G, trivial_lift(G, build_clifford(1)), (Fraction(0),), M)
    return G, spec, QuotientCovering.of(G)


def build_free_rotation_circle(m, modes, buffer) -> Scenario:
    M = modes
    G, spec, cov = _rotation_setup(m, M)
    ind = induced_dirac(cov, spec)
    base = G.base
    measure = uniform_measure(base, m, 1)

    def spectra():
        down_cut = ind.downstairs.spec.cutoff
        down = ind.downstairs.matrix.diagonal().real
        rows = [f"up:{k},{w!r}\n" for (k,), (w,) in zip(spec.space.modes.tolist(), spec.space.freqs.tolist())]
        rows += [f"down:{j},{v!r}\n" for j, v in zip(range(-down_cut, down_cut + 1), down.tolist())]
        return "".join(rows)

    def random_invariant(rng, reach):
        """Random coefficients on the invariant modes with |k| <= reach."""
        c = np.zeros(2 * M + 1, dtype=complex)
        for k in ind.invariant_modes:
            if abs(k) <= reach:
                c[k + M] = rng.standard_normal() + 1j * rng.standard_normal()
        return CircleModes(base, M, c)

    def cos_mode(scale):
        """scale * cos(m x): the lowest invariant non-constant function."""
        f = CircleModes.zero(base, M)
        f.coeffs[m + M] = f.coeffs[-m + M] = scale / 2
        return f

    def spectra_match(tol):
        up, down = matched_interior_spectra(ind, buffer)
        worst = float(np.max(np.abs(up - down))) if len(up) else float("inf")
        enough = len(up) > 4
        return (worst <= tol and enough, worst,
                f"invariant spectrum equals the quotient circle spectrum on the "
                f"interior band ({len(up)} eigenvalues)"
                + ("" if enough else "; needs more than 4 eigenvalues"))

    def unitary_check(tol):
        rng = np.random.default_rng(0)
        worst = 0.0
        down_base = ind.downstairs.space.base
        down_measure = uniform_measure(down_base, 1, 1)
        for _ in range(5):
            psi = random_invariant(rng, M)
            down = CircleModes(down_base, ind.downstairs.spec.cutoff, ind.unitary @ psi.coeffs,
                               twist=ind.down_twist)
            lhs = orbifold_inner(measure, psi, psi)
            rhs = orbifold_inner(down_measure, down, down)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        # the algebra action conjugates onto the quotient algebra action
        f = cos_mode(1.0)
        f_down = pushforward_function(cov, f)
        f_down = CircleModes(down_base, f_down.cutoff, f_down.coeffs)
        worst = max(worst, conjugated_multiplication_residual(ind, f, f_down, buffer=buffer))
        return worst <= tol, worst, ("transport preserves the orbifold inner products and "
                                     "conjugates the function action onto the quotient action")

    def local_representatives(tol):
        worst = max(ind.conjugation_residual, ind.branch_residual)
        return worst <= tol, worst, (
            "conjugated Dirac equals the quotient Dirac; branch representatives agree")

    def tangent_identification(tol):
        n_sheets = 3
        cover = CechCover(tuple(
            CircleArc(Fraction(i, n_sheets), Fraction(1, n_sheets)) for i in range(n_sheets)
        ))
        induced = induced_tangent_cocycle(cov, cover, {i: i % m for i in range(n_sheets)})
        down = downstairs_tangent_cocycle(cov, cover)
        same = set(induced) == set(down) and all(
            np.array_equal(induced[k], down[k]) for k in induced
        )
        lifts = spin_lift_search(G, spec.lift.rep)
        transport = spin_structure_transport(cov, lifts)
        bijection = sorted(transport.values()) == [Fraction(0), Fraction(1, 2)]
        return same and bijection, None, (
            f"induced tangent cocycle equals the quotient tangent cocycle; "
            f"{len(lifts)} lifts biject with the quotient twists")

    def integration(tol):
        one = CircleModes.mode(base, M, 0)
        total = orbifold_integral(measure, one)
        expected = base.circumference / m
        rho1 = one * 0.5 + cos_mode(0.5)
        rho2 = one - rho1
        split = OrbifoldMeasure(base, [Chart("lobe1", m, 1, rho1), Chart("lobe2", m, 1, rho2)])
        split.validate(G)
        f = one + cos_mode(1.0)
        worst = max(abs(total - expected), abs(orbifold_integral(split, f) - orbifold_integral(measure, f)))
        return worst <= tol, worst, (
            f"unit function integrates to {expected:.6f}; chart decompositions agree")

    def divergence(tol):
        rng = np.random.default_rng(1)
        pairs = [
            tuple(random_invariant(rng, M - buffer) for _ in range(2)) for _ in range(4)
        ]
        run = triple_header(spec, [], label="divergence")
        symmetry_step(run, measure, pairs)
        residual = run.report.symmetry_residual
        return residual <= tol, residual, (
            "Dirac is symmetric on invariant spinors under orbifold integration")

    def commutators(tol):
        gens = [(f"e{l}", fourier_element(G, {G.group.identity: CircleModes.mode(base, M, l)}))
                for l in (1, 2, 3)]
        run = convolution_header(spec, gens, buffer=buffer)
        commutator_step(run)
        law_step(run)
        report = run.report
        worst = max(abs(report.commutator_norms[f"e{l}"] - l) for l in (1, 2, 3))
        drift = max(report.commutator_drift.values())
        frame = max(report.frame_identity_residuals.values())
        ok = worst <= tol and drift <= 1e-9 and frame <= tol and report.representation_residual <= 1e-12
        # a band narrower than a generator's degree holds no mode pair it couples
        idle = [name for name, op in report.operators if not op.count_nonzero()]
        thin = ("; the interior band couples no generator" if len(idle) == len(gens) else
                f"; the interior band does not couple {', '.join(idle)}" if idle else "")
        return ok, worst, (f"|[D, e^(il.)]| = l on the interior band; drift {drift:.2e}; "
                           f"frame identity residual {frame:.2e}; representation law "
                           f"residual {report.representation_residual:.2e}{thin}")

    def faithful(tol):
        probe_spec = _rotation_setup(m, 8)[1]
        rep = faithfulness_probe(probe_spec.groupoid, probe_spec, generator_degree=2)
        ok = rep.faithful and rep.matches_effectiveness
        return ok, rep.kernel_dim, f"zero kernel within band; {rep.detail}"

    def growth(tol):
        run = triple_header(spec, [], buffer=buffer)
        growth_step(run)
        report = run.report
        err = abs(report.growth_exponent - 1.0)
        return err <= tol, err, f"eigenvalue counting exponent {report.growth_exponent:.4f} vs n=1"

    return Scenario(
        f"free Z_{m} rotation of the circle: quotient spectra, transport "
        "unitarity, tangent/spin identification, integration, commutators",
        [
            ("spectra-match", 1e-9, spectra_match),
            ("unitary-inner-product", 1e-9, unitary_check),
            ("local-representatives", 1e-12, local_representatives),
            ("tangent-and-spin-identification", 0.0, tangent_identification),
            ("orbifold-integration", 1e-10, integration),
            ("divergence-symmetry", 1e-10, divergence),
            ("convolution-commutators", 1e-12, commutators),
            ("faithfulness", 0.0, faithful),
            ("growth-exponent", 0.15, growth),
        ],
        spectra,
    )


def _torus_spec(M):
    G = negation_torus_groupoid(FourierTorus((2 * np.pi, 2 * np.pi), M))
    return DiracSpec(G, projective_lift(G, build_clifford(2)), (Fraction(0), Fraction(0)), M)


def build_pillowcase_torus(modes, buffer) -> Scenario:
    M = modes
    spec = _torus_spec(M)
    G, lift = spec.groupoid, spec.lift
    torus = G.base

    def spectra():
        """Rows ``k1,k2:+,r`` and ``k1,k2:-,-r`` per mode, r = |freq|.

        ``repr`` runs once per distinct r, and the minus row writes "-" before
        it, so mode (0, 0) reads -0.0, as the float -r does.
        """
        levels, level = np.unique(np.hypot(*spec.space.freqs.T), return_inverse=True)
        text = [repr(r) for r in levels.tolist()]
        return "".join([f"{k1},{k2}:+,{text[i]}\n{k1},{k2}:-,-{text[i]}\n"
                        for (k1, k2), i in zip(spec.space.modes.tolist(), level.tolist())])

    def lift_search(tol):
        strict = spin_lift_search(G, lift.rep)
        # the half-turn lift squares to -1; the search must come back empty
        return strict == [] and not lift.strict, len(strict), (
            "no sign assignment closes the cocycle (half-turn lift has order "
            "four); the scenario runs on the documented projective transport")

    def chirality_package(tol):
        sym = TorusModes.zero(torus, M)
        sym.coeffs[1 + M, 0 + M] = 0.5
        sym.coeffs[-1 + M, 0 + M] = 0.5
        diag = TorusModes.zero(torus, M)
        diag.coeffs[1 + M, 1 + M] = 0.5
        diag.coeffs[-1 + M, -1 + M] = 0.5
        gens = [
            ("cos10", fourier_element(G, {0: sym})),
            ("cos11", fourier_element(G, {0: diag})),
            ("flip", fourier_element(G, {1: TorusModes.mode(torus, M, (0, 0))})),
        ]
        run = convolution_header(spec, gens, buffer=buffer, label="pillowcase")
        chirality_step(run)
        law_step(run)
        report = run.report
        commutator = max(report.chirality_commutators.values())
        worst = max(report.chirality_square_residual, report.chirality_anticommutator, commutator)
        hermit = report.hermiticity_residual
        return worst <= tol and hermit <= tol, worst, (
            f"omega^2 residual {report.chirality_square_residual:.1e}; "
            f"anticommutator {report.chirality_anticommutator:.1e}; "
            f"max [omega, pi(f)] {commutator:.1e}; "
            f"Hermiticity {hermit:.1e}; representation residual "
            f"{report.representation_residual:.3f} (order-four transport)")

    def growth(tol):
        run = triple_header(spec, [], buffer=buffer)
        growth_step(run)
        report = run.report
        err = abs(report.growth_exponent - 2.0) / 2.0
        return err <= tol, err, f"counting exponent {report.growth_exponent:.4f} vs n=2 at M={M}"

    def effective(tol):
        eff, _ = is_effective(G)
        # probe at a small cutoff; the kernel question is cutoff independent
        probe_spec = _torus_spec(8)
        rep = faithfulness_probe(probe_spec.groupoid, probe_spec, generator_degree=1)
        return eff and rep.faithful and rep.matches_effectiveness, rep.kernel_dim, (
            "negation action is effective; representation kernel empty within band")

    return Scenario(
        f"flip quotient of the square torus at M={M}: even structure, "
        "Weyl counting, effective convolution representation",
        [
            ("order-four-lift", 0.0, lift_search),
            ("chirality-package", 1e-12, chirality_package),
            ("growth-exponent", 0.15, growth),
            ("effectiveness", 0.0, effective),
        ],
        spectra,
    )


def build_noneffective_circle(modes) -> Scenario:
    G = rotation_groupoid(4, FourierCircle(mode_cutoff=modes), through="1/2")
    lift = SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True)
    spec = DiracSpec(G, lift, (Fraction(0),), modes)

    def effectiveness(tol):
        eff, witness = is_effective(G)
        ok = (not eff) and witness is not None
        return ok, eff, f"two group elements share a germ: {witness!r}"

    def kernel_witness(tol):
        rep = faithfulness_probe(G, spec, generator_degree=1)
        ok = (not rep.faithful) and rep.witness is not None and rep.matches_effectiveness
        return ok, rep.kernel_dim, (
            f"kernel dimension {rep.kernel_dim}; witness pairs coinciding rotations")

    def flagged_report(tol):
        report = convolution_triple_report(spec, [("unit", fourier_unit(G))])
        ok = "not faithful" in report.faithfulness_note
        return ok, None, f"report produced and flagged: {report.faithfulness_note}"

    return Scenario(
        "Z_4 acting through half turns: germ collision, exact kernel "
        "witness, flagged convolution report",
        [
            ("non-effectiveness", 0.0, effectiveness),
            ("kernel-witness", 0.0, kernel_witness),
            ("flagged-report", 0.0, flagged_report),
        ],
    )


def build_cech_localization(N) -> Scenario:
    G = cyclic_translation_groupoid(6, 3)
    # one three-sheet cover serves G and xi, which are both Z_6 translating Z_3
    cover = CechCover(((0, 1), (1, 2), (2, 0)))
    C = cech_groupoid(G, cover)
    theta, xi, ab = double_cover_bitorsor(N)
    loc, cx, cy = _localize(ab, cover)

    def localized_valid(tol):
        localized = [_localize(identity_bitorsor(G), cover)[0], cech_bitorsor(G, cover), loc]
        ok = all(validate_generalized_hom(b, mode="bitorsor").ok for b in localized)
        return ok, None, ("localized identity, canonical sheet bitorsor and localized "
                          "double cover all satisfy the torsor axioms")

    def orbit_counts(tol):
        count = orbits(C).count
        return count == orbits(G).count, None, f"{count} orbit(s) before and after localization"

    def effectiveness_invariance(tol):
        pairs_agree = is_effective(G)[0] == is_effective(C)[0]
        a2_agree = is_effective(theta)[0] == is_effective(xi)[0]
        return (pairs_agree and a2_agree, None,
                "effectiveness agrees across the localized pair and the double-cover pair")

    def weak_equiv(tol):
        rep = weak_equivalence_pair(cech_bitorsor(G, cover)).check()
        return (rep.ok, len(rep.violations),
                "sheet bitorsor splits into a span of weak equivalences")

    def recover(tol):
        cb_x = replace(cech_bitorsor(theta, trivial_cover(theta)), right=cx)
        cb_y = replace(cech_bitorsor(xi, cover), right=cy)
        recovered = compose_homs(compose_homs(cb_x, loc), inverse_bitorsor(cb_y))
        ok = validate_generalized_hom(recovered, mode="bitorsor").ok
        ok = ok and find_two_morphism(recovered, ab) not in (None, INCONCLUSIVE)
        return ok, None, ("localized equivalence composed with the sheet bitorsors recovers "
                          "the original up to a 2-morphism")

    return Scenario(
        "three-sheet localization of the translation groupoid and the "
        "double cover: torsor axioms, orbit and effectiveness invariance",
        [
            ("localized-bitorsors-valid", 0.0, localized_valid),
            ("orbit-count-preserved", 0.0, orbit_counts),
            ("effectiveness-invariance", 0.0, effectiveness_invariance),
            ("cech-weak-equivalence", 0.0, weak_equiv),
            ("localization-roundtrip", 0.0, recover),
        ],
    )


def build_cocycle_transport(N) -> Scenario:
    theta, xi, b, loc, cy, _, induced = _double_cover(N)

    oracle = _seam_wrap_check(N, cy, induced, "induced cocycle equals the seam-wrap sign rule")

    def two_morphism_independence(tol):
        shift = {q: (q + 2) % (2 * N) for q in b.carrier}
        b2 = replace(
            b,
            carrier=tuple(shift[q] for q in b.carrier),
            rho={shift[q]: b.rho[q] for q in b.carrier},
            alpha={shift[q]: b.alpha[q] for q in b.carrier},
            left_act={(s, shift[q]): shift[v] for (s, q), v in b.left_act.items()},
            right_act={(shift[q], t): shift[v] for (q, t), v in b.right_act.items()},
            name="relabeled",
        )
        loc2, _, cy2 = _localize(b2)
        beta = default_sections(loc)
        moved = SectionFamily(
            {
                i: {y: (shift[p[0]], p[1], p[2]) for y, p in table.items()}
                for i, table in beta.assignments.items()
            }
        )
        g2 = induce_cocycle(loc2, _z2_sign(loc2.left), moved)
        same = all(
            np.array_equal(induced.entries[a1], g2.entries[a2])
            for a1, a2 in zip(cy.arrows, cy2.arrows)
        )
        return same, None, ("sections moved through an equivariant bijection give entrywise "
                            "identical induced cocycles")

    def functoriality(tol):
        locc, ccx, ccy = _localize(compose_homs(b, identity_bitorsor(xi)))
        g_direct = induce_cocycle(locc, _z2_sign(ccx), default_sections(locc))
        plain_direct = Cocycle(xi, 1, {a[0]: g_direct.entries[a] for a in ccy.arrows})
        plain_steps = Cocycle(xi, 1, {a[0]: induced.entries[a] for a in cy.arrows})
        ok = cohomologous(plain_steps, plain_direct) not in (None, INCONCLUSIVE)
        return ok, None, ("inducing through the composite equivalence is cohomologous to "
                          "inducing stepwise")

    def bundle_square(tol):
        lhs = reconstruct_bundle(induced)
        rhs = induced_bundle(b, reconstruct_bundle(_z2_sign(theta)))
        same = all(np.array_equal(lhs.entries[arrow], rhs.entries[arrow[0]]) for arrow in cy.arrows)
        return same, None, ("reconstructing the induced cocycle matches inducing the "
                            "reconstructed bundle")

    return Scenario(
        f"sign cocycle through the double cover at N={N}: oracle equality, "
        "section and 2-morphism independence, bundle square",
        [
            ("transport-oracle", 0.0, oracle),
            ("two-morphism-independence", 0.0, two_morphism_independence),
            ("functoriality", 0.0, functoriality),
            ("reconstruction-square", 0.0, bundle_square),
        ],
    )


BUILTIN_SCENARIOS = {
    "a2-example": (build_a2_example, "double-cover discretization checks"),
    "free-rotation-circle": (build_free_rotation_circle, "free rotation quotient spectra and transport"),
    "pillowcase-torus": (build_pillowcase_torus, "flip-quotient torus even structure"),
    "noneffective-circle": (build_noneffective_circle, "kernel witnesses for a non-effective action"),
    "cech-localization": (build_cech_localization, "sheet localizations and invariances"),
    "cocycle-transport": (build_cocycle_transport, "induced cocycles and bundle squares"),
}

BUFFER = Param(int, DEFAULT_BUFFER, low=0)  # 0 already puts every mode in the interior band
# The largest cutoffs accepted.  At the cap (2 cores, BLAS at one thread, a
# fresh interpreter, import included) a free-rotation-circle run takes 0.4 s
# and 77 MB, noneffective-circle 0.25 s and 55 MB, and pillowcase-torus 0.7 s
# and 146 MB; the torus grows with modes squared.
CIRCLE_MAX_MODES, TORUS_MAX_MODES = 256, 128
PARAMS = {
    "a2-example": {"N": Param(int, 3, low=1)},
    "free-rotation-circle": {
        "m": Param(int, 2, choices=(2, 4)),
        "modes": Param(int, 32, low=MIN_CUTOFF, high=CIRCLE_MAX_MODES),
        "buffer": BUFFER,
    },
    "pillowcase-torus": {
        "modes": Param(int, 24, low=MIN_CUTOFF, high=TORUS_MAX_MODES),
        "buffer": BUFFER,
    },
    "noneffective-circle": {"modes": Param(int, 8, low=MIN_CUTOFF, high=CIRCLE_MAX_MODES)},
    # the three-sheet cover is written for the three objects of N=3
    "cech-localization": {"N": Param(int, 3, choices=(3,))},
    "cocycle-transport": {"N": Param(int, 3, low=1)},
}


# ---------------------------------------------------------------------------
# registry and runner


def load_registry(registry_dir=None) -> dict:
    """User presets by name, one per ``*.json`` file of ``registry_dir``."""
    if not registry_dir:
        return {}
    if not os.path.isdir(registry_dir):
        fault = "is not a directory" if os.path.exists(registry_dir) else "does not exist"
        raise ConfigError(f"registry {registry_dir} {fault}")
    presets = {}
    for fname in sorted(f for f in os.listdir(registry_dir) if f.endswith(".json")):
        path = os.path.join(registry_dir, fname)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("scenario") not in BUILTIN_SCENARIOS:
                raise ValueError("needs a 'scenario' naming a built-in")
            if not isinstance(doc.get("params", {}), dict):
                raise ValueError("'params' must be an object")
            name = doc.get("name")
            if not isinstance(name, str) or name in BUILTIN_SCENARIOS or name in presets:
                raise ValueError(f"'name' must be a new scenario name, got {name!r}")
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"corrupt scenario file {path}: {exc}") from exc
        presets[name] = doc
    return presets


def list_scenarios(registry_dir=None):
    """Built-in scenario names plus any registered user scenario files."""
    rows = [(name, desc) for name, (_, desc) in sorted(BUILTIN_SCENARIOS.items())]
    for name, doc in load_registry(registry_dir).items():
        rows.append((name, doc.get("description", f"user preset of {doc['scenario']}")))
    return rows


def resolve_config(config, registry_dir=None, force=False):
    """Validate a config against the declarations and build its scenario.

    Returns ``(name, params, scenario, checks)``: the built-in behind the
    config, every declared param, the scenario built at those params, and
    ``(check name, tolerance, fn)`` for each selected check in declared
    order.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config).__name__}")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {config.get('schema_version')!r}"
        )
    if set(config) - CONFIG_KEYS:
        raise ConfigError(f"unknown config key(s) {sorted(set(config) - CONFIG_KEYS)}")
    for key, kind, what in (("params", dict, "an object"), ("tolerances", dict, "an object"),
                            ("checks", list, "a list")):
        if config.get(key) is not None and not isinstance(config[key], kind):
            raise ConfigError(f"config {key!r} must be {what}, got {config[key]!r}")
    presets = load_registry(registry_dir)
    name = config.get("scenario")
    if not isinstance(name, str) or (name not in BUILTIN_SCENARIOS and name not in presets):
        raise ConfigError(f"unknown scenario {name!r}")
    preset = presets.get(name, {"scenario": name})
    name = preset["scenario"]

    given = {**preset.get("params", {}), **(config.get("params") or {})}
    given.update({k: config[k] for k in ("modes", "buffer") if config.get(k) is not None})
    if set(given) - set(PARAMS[name]):
        raise ConfigError(f"{name} takes no param(s) {sorted(set(given) - set(PARAMS[name]))}; "
                          f"declared: {sorted(PARAMS[name])}")
    params = {
        key: param.validate(name, key, given.get(key, param.default))
        for key, param in PARAMS[name].items()
    }
    builder, _ = BUILTIN_SCENARIOS[name]
    scenario = builder(**params)

    declared = [check for check, _, _ in scenario.checks]
    selected = declared if config.get("checks") is None else config["checks"]
    overrides = config.get("tolerances") or {}
    unknown = [c for c in [*selected, *overrides] if c not in declared]
    if unknown:
        raise ConfigError(f"unknown check name(s) {unknown!r}; registered: {sorted(declared)!r}")
    checks = []
    for check, default, fn in scenario.checks:
        tol = overrides.get(check, default)
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
            raise ConfigError(f"tolerance for {check!r} must be a finite number >= 0, got {tol!r}")
        if tol > 10 * default and not force:
            raise ConfigError(
                f"tolerance for {check!r} loosened beyond 10x the default "
                f"({tol} > {default}); pass force to allow"
            )
        if check in selected:
            checks.append((check, tol, fn))
    return name, params, scenario, checks


def run_check(name, tol, fn) -> CheckResult:
    """One check in isolation; an exception or a non-finite value becomes a failed record."""
    try:
        ok, value, detail = fn(tol)
    except Exception as exc:
        return CheckResult(name, False, "", None, tol, error=f"{type(exc).__name__}: {exc}")
    if value is None:
        value = 0.0 if ok else 1.0
    if not math.isfinite(value):
        return CheckResult(name, False, detail, None, tol, error=f"non-finite value: {value}")
    return CheckResult(name, bool(ok), detail, value, tol)


def run_scenario(config: dict, out_dir=None, force=False, registry_dir=None):
    """Execute a scenario's checks in order and emit the report bundle.

    Returns (exit_code, report_doc).  Exit code 0 when every check passes.
    """
    name, params, scenario, checks = resolve_config(config, registry_dir, force)
    if out_dir:
        # fail before the checks run, not after
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out_dir}: {exc}") from None
    results = [run_check(check, tol, fn) for check, tol, fn in checks]

    passed = all(r.passed for r in results)
    report = {
        "schema": "orbikit/report/1",
        "version": __version__,
        "scenario": name,
        "description": scenario.description,
        "params": {k: params[k] for k in sorted(params)},
        "checks": [r.as_dict() for r in results],
        "passed": passed,
    }
    if out_dir:
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        with open(os.path.join(out_dir, "spectra.csv"), "w") as fh:
            fh.write("index,eigenvalue\n" + (scenario.spectra() if scenario.spectra else ""))
        with open(os.path.join(out_dir, "summary.md"), "w") as fh:
            fh.write(render_summary(report))
    return (0 if passed else 1), report


def render_summary(report: dict) -> str:
    lines = [
        f"# {report['scenario']}",
        "",
        report["description"],
        "",
        f"orbikit {report['version']}; params: "
        + ", ".join(f"{k}={v}" for k, v in report["params"].items()),
        "",
    ]
    for chk in report["checks"]:
        mark = "PASS" if chk["passed"] else "FAIL"
        extra = ""
        if "value" in chk and "tolerance" in chk:
            extra = f" (value {chk['value']:.3e}, tolerance {chk['tolerance']:.3e})"
        detail = f"error {chk['error']}" if "error" in chk else chk["detail"]
        lines.append(f"- [{mark}] {chk['name']}{extra}: {detail}")
    lines.append("")
    lines.append("overall: " + ("PASS" if report["passed"] else "FAIL"))
    lines.append("")
    return "\n".join(lines)
