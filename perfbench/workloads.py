"""Workload definitions, the timed pass and the per-round oracles.

A workload is a list of scenario instances run through
``orbikit.harness.run_scenario``.  One pass runs every instance once, in an
order drawn from the seed, then round-trips the tables of one span's middle
groupoid through ``orbikit.serialize``.  After each pass, and outside its
timing, the workload's oracles check the program's outputs.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

import oracles

# orbikit.spectral.interior_norm takes its exact dense-SVD path up to this
# many rows and an upper bound above it; the norm oracle demands equality
# only on the exact path.
DENSE_BRANCH_ROWS = 4000
BUFFER = 2


@dataclass(frozen=True)
class Instance:
    scenario: str
    params: tuple = ()  # sorted (key, value) pairs

    @property
    def label(self):
        inner = " ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.scenario} {inner}".strip()

    def config(self):
        return {"schema_version": 1, "scenario": self.scenario, "params": dict(self.params)}


def inst(scenario, **params):
    return Instance(scenario, tuple(sorted(params.items())))


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    top: Instance
    warmup: tuple  # small instances run once, untimed, before the rounds
    # builds the groupoid whose tables each pass round-trips through serialize
    span: object
    # (instance, check name) pairs known to fail on every run
    expected_failures: frozenset = frozenset()


def cech_middle():
    """The Čech span's middle groupoid: 36 objects, 2592 arrows."""
    from orbikit.groupoids import CechCover, cyclic_translation_groupoid
    from orbikit.morita import cech_bitorsor, weak_equivalence_pair

    G = cyclic_translation_groupoid(6, 3)
    cover = CechCover(((0, 1), (1, 2), (2, 0)))
    return weak_equivalence_pair(cech_bitorsor(G, cover)).middle


def double_cover_middle(N):
    from orbikit.morita import double_cover_bitorsor, weak_equivalence_pair

    return weak_equivalence_pair(double_cover_bitorsor(N)[2]).middle


CIRCLE_64 = inst("free-rotation-circle", m=2, modes=64)
# 1250 rows: interior_norm's exact dense-SVD branch, where torus modes 24 and
# 48 (4802 and 18818 rows) take its upper-bound branch.  The costliest
# instance of its workload, and the steadiest under machine drift (LAPACK,
# not dict and sparse work), so it is that workload's top rung.
TORUS_DENSE = inst("pillowcase-torus", modes=12)
# Small instances of the other flavor, so that every traced layer does some
# work on every workload (under 1% of pass_s; see README).
FINITE_PROBE = (inst("a2-example", N=3), inst("cocycle-transport", N=3))
FOURIER_PROBE = (inst("free-rotation-circle", m=2, modes=16),)

WORKLOADS = {
    "finite-ladder": Workload(
        name="finite-ladder",
        instances=(
            inst("cech-localization"),
            inst("a2-example", N=3),
            inst("a2-example", N=8),
            inst("a2-example", N=12),
            inst("a2-example", N=16),
            inst("cocycle-transport", N=3),
            inst("cocycle-transport", N=12),
        ) + FOURIER_PROBE,
        # the largest table of the workload: its span has 186 624
        # compositions, a2-example N=16's has 131 072
        top=inst("cech-localization"),
        warmup=(inst("a2-example", N=3), inst("cocycle-transport", N=3)) + FOURIER_PROBE,
        span=cech_middle,
    ),
    "fourier-ladder": Workload(
        name="fourier-ladder",
        instances=(
            inst("free-rotation-circle", m=2, modes=32),
            inst("free-rotation-circle", m=4, modes=32),
            CIRCLE_64,
            inst("pillowcase-torus", modes=24),
            inst("pillowcase-torus", modes=48),
            inst("noneffective-circle", modes=8),
            TORUS_DENSE,
        ) + FINITE_PROBE,
        top=TORUS_DENSE,
        warmup=(
            inst("free-rotation-circle", m=2, modes=8),
            inst("pillowcase-torus", modes=24),
            inst("noneffective-circle", modes=8),
        ) + FINITE_PROBE,
        span=partial(double_cover_middle, 3),
        expected_failures=frozenset({(CIRCLE_64, "local-representatives")}),
    ),
}


# ---------------------------------------------------------------------------
# outcomes


@dataclass
class Outcome:
    """Operations of one pass: scenario checks and benchmark oracles."""

    attempted: int = 0
    failed: int = 0
    expected: list = field(default_factory=list)  # labels of expected failures seen
    unexpected: list = field(default_factory=list)  # labels of any other failure

    def record(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected.append(f"{label}: {detail}" if detail else label)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.expected += other.expected
        self.unexpected += other.unexpected


# ---------------------------------------------------------------------------
# the timed pass


@dataclass
class PassTiming:
    seconds: float
    instance_seconds: dict
    peak_rss_mb: float  # the process's peak resident memory at the end of the pass


@dataclass
class PassOutputs:
    reports: dict  # label -> report dict, or the text of the exception raised
    middle_back: object  # the span's middle groupoid as read back


def run_pass(order, out_dir, middle, recorder=None):
    """Run every instance once, then round-trip ``middle``; timed.

    Returns ``(PassTiming, PassOutputs)``.  ``recorder`` (a SpanRecorder)
    gives each scenario run its own span id.  The program receives only
    scenario configs and a report directory.
    """
    import orbikit.harness as harness
    import orbikit.serialize as serialize

    instance_seconds, reports = {}, {}
    start = time.perf_counter()
    for instance in order:
        if recorder is not None:
            recorder.new_run()
        target = os.path.join(out_dir, _slug(instance.label))
        t0 = time.perf_counter()
        try:
            _, report = harness.run_scenario(instance.config(), out_dir=target)
        except Exception as exc:  # a raising check is a failed operation
            report = f"{type(exc).__name__}: {exc}"
        instance_seconds[instance.label] = time.perf_counter() - t0
        reports[instance.label] = report
    if recorder is not None:
        recorder.new_run()
    path = os.path.join(out_dir, "middle.json")
    serialize.save_json(path, serialize.groupoid_to_dict(middle))
    back = serialize.groupoid_from_dict(serialize.load_json(path))
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return PassTiming(seconds, instance_seconds, peak), PassOutputs(reports, back)


def _slug(label):
    return label.replace(" ", "_").replace("=", "")


def check(workload, outputs, middle, rng):
    """Scenario checks, then oracles; each is one operation."""
    out = check_reports(workload, outputs)
    out.merge(run_oracles(workload, outputs, middle, rng))
    return out


def check_reports(workload, outputs):
    """Every check of every report is one operation."""
    out = Outcome()
    expected = {(i.label, check) for i, check in workload.expected_failures}
    for label, report in outputs.reports.items():
        if isinstance(report, str):
            out.record(label, False, report)
            continue
        for chk in report["checks"]:
            name = f"{label} {chk['name']}"
            if not chk["passed"] and (label, chk["name"]) in expected:
                out.attempted += 1
                out.failed += 1
                out.expected.append(name)
            else:
                out.record(name, chk["passed"], f"value {chk.get('value')}")
    return out


# ---------------------------------------------------------------------------
# oracles


def run_oracles(workload, outputs, middle, rng):
    """Every oracle of the workload, once; each is one operation."""
    out = Outcome()
    for label, fn in oracle_list(workload, outputs, middle, rng):
        try:
            ok, detail = fn()
        except Exception as exc:  # an oracle that raises has failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.record(f"oracle {label}", ok, detail)
    return out


def oracle_list(workload, outputs, middle, rng):
    finite_N = sorted({dict(i.params)["N"] for i in workload.instances if "N" in dict(i.params)})
    out = []
    for N in finite_N:
        out.append((f"middle-count N={N}", lambda N=N: _middle_oracle(N)))
        out.append((f"seam-wrap N={N}", lambda N=N: _seam_oracle(N)))
    out.append(("serialize-roundtrip", lambda: oracles.same_tables(middle, outputs.middle_back)))
    out.append(("associativity", lambda: oracles.associativity(outputs.middle_back, rng)))
    for instance in workload.instances:
        spec = fourier_spec(instance)
        if spec is None:
            continue
        out.append((f"dirac-spectrum {instance.label}", lambda s=spec: _spectrum_oracle(s)))
        out.append((f"interior-norm {instance.label}", lambda s=spec: _norm_oracle(s, rng)))
        if instance.scenario == "free-rotation-circle":
            out.append((f"orbifold-volume {instance.label}", lambda s=spec: _volume_oracle(s)))
    return out


def _middle_oracle(N):
    from orbikit.morita import double_cover_bitorsor, weak_equivalence_pair

    middle = weak_equivalence_pair(double_cover_bitorsor(N)[2]).middle
    return oracles.middle_counts(N, len(middle.arrows), len(middle.cmp))


def _seam_oracle(N):
    from orbikit.cocycles import default_sections, induce_cocycle, sign_cocycle
    from orbikit.groupoids import trivial_cover
    from orbikit.morita import double_cover_bitorsor, localize_cech

    theta, xi, b = double_cover_bitorsor(N)
    loc, cx, _ = localize_cech(b, trivial_cover(theta), trivial_cover(xi))
    sign = sign_cocycle(cx, lambda arrow: -1 if arrow[0] == 1 else 1)
    induced = induce_cocycle(loc, sign, default_sections(loc))
    entries = {arrow[0]: int(np.real(v[0, 0])) for arrow, v in induced.entries.items()}
    return oracles.seam_wrap(N, entries)


def fourier_spec(instance):
    """The DiracSpec a Fourier scenario builds, rebuilt from public API."""
    from orbikit.bases import FourierCircle, FourierTorus
    from orbikit.clifford import SpinLift, build_clifford, projective_lift, trivial_lift
    from orbikit.groupoids import negation_torus_groupoid, rotation_groupoid
    from orbikit.spectral import DiracSpec

    p = dict(instance.params)
    if instance.scenario == "free-rotation-circle":
        G = rotation_groupoid(p["m"], FourierCircle(mode_cutoff=p["modes"]))
        return DiracSpec(G, trivial_lift(G, build_clifford(1)), (Fraction(0),), p["modes"])
    if instance.scenario == "noneffective-circle":
        G = rotation_groupoid(4, FourierCircle(mode_cutoff=p["modes"]), through="1/2")
        lift = SpinLift(G, build_clifford(1), {g: 1 for g in G.group.elements}, True)
        return DiracSpec(G, lift, (Fraction(0),), p["modes"])
    if instance.scenario == "pillowcase-torus":
        G = negation_torus_groupoid(FourierTorus((2 * math.pi, 2 * math.pi), p["modes"]))
        lift = projective_lift(G, build_clifford(2))
        return DiracSpec(G, lift, (Fraction(0), Fraction(0)), p["modes"])
    return None


def _spectrum_oracle(spec):
    from orbikit.spectral import assemble_dirac

    D = assemble_dirac(spec).matrix
    base = spec.groupoid.base
    twist = [float(t) for t in spec.twist]
    if base.dim == 1:
        expected = oracles.circle_spectrum(spec.cutoff, twist[0], base.circumference)
        return oracles.dirac_spectrum(D, 1, expected)
    expected = oracles.torus_spectrum(spec.cutoff, twist, base.circumferences)
    return oracles.dirac_spectrum(D, 2, expected)


def _norm_oracle(spec, rng):
    """[D, pi(f)] for the first-harmonic generator the scenarios use."""
    from orbikit.bases import CircleModes, TorusModes
    from orbikit.convolution import fourier_element, representation_matrix
    from orbikit.spectral import assemble_dirac, interior_norm

    G, M = spec.groupoid, spec.cutoff
    if G.base.dim == 1:
        f = CircleModes.mode(G.base, M, 1)
    else:
        f = TorusModes.zero(G.base, M)
        f.coeffs[1 + M, M] = 0.5
        f.coeffs[-1 + M, M] = 0.5
    R = representation_matrix(spec, fourier_element(G, {G.group.identity: f}))
    D = assemble_dirac(spec).matrix
    C = D @ R - R @ D
    value = interior_norm(spec.space, C, BUFFER)
    d = spec.lift.rep.spinor_dim
    idx = oracles.interior_indices(M, G.base.dim, d, BUFFER)
    return oracles.interior_norm_bound(value, C, idx, rng, exact=C.shape[0] <= DENSE_BRANCH_ROWS)


def _volume_oracle(spec):
    from orbikit.bases import CircleModes
    from orbikit.spectral import orbifold_integral, uniform_measure

    base = spec.groupoid.base
    m = spec.groupoid.group.order
    value = orbifold_integral(uniform_measure(base, m, 1), CircleModes.mode(base, spec.cutoff, 0))
    return oracles.orbifold_volume(value, 2 * math.pi, m)
