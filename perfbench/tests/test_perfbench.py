"""Tests of the benchmark itself.

Every workload runs once at a tiny size through the same pass, checks and
oracles as a real run; each oracle is shown to reject a perturbed value;
the span recorder's self times and patching are checked.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from spans import TIME_METRICS, SpanRecorder, self_times  # noqa: E402

inst = wl.inst
SMALL_CIRCLE = inst("free-rotation-circle", m=2, modes=16)
# 578 rows: interior_norm's exact dense branch, like fourier-ladder's modes=12
SMALL_TORUS = inst("pillowcase-torus", modes=8)

# Each real workload with its instances cut to a few seconds of work; the
# fourier one keeps the known modes=64 fault and both interior_norm branches.
TINY = {
    "finite-ladder": dataclasses.replace(
        wl.WORKLOADS["finite-ladder"],
        instances=(inst("a2-example", N=3), inst("cocycle-transport", N=4), SMALL_CIRCLE),
        top=inst("a2-example", N=3),
        span=partial(wl.double_cover_middle, 3),
    ),
    "fourier-ladder": dataclasses.replace(
        wl.WORKLOADS["fourier-ladder"],
        instances=(SMALL_CIRCLE, wl.CIRCLE_64, inst("pillowcase-torus", modes=24),
                   inst("noneffective-circle", modes=8), SMALL_TORUS) + wl.FINITE_PROBE,
        top=inst("pillowcase-torus", modes=24),
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks_and_oracles(name, tmp_path):
    w = TINY[name]
    middle = w.span()
    rng = np.random.default_rng(0)
    timing, outputs = wl.run_pass(list(w.instances), str(tmp_path), middle)
    outcome = wl.check(w, outputs, middle, rng)
    assert outcome.unexpected == []
    assert set(timing.instance_seconds) == {i.label for i in w.instances}
    assert timing.seconds >= sum(timing.instance_seconds.values()) > 0
    assert timing.peak_rss_mb > 0
    n_checks = sum(len(r["checks"]) for r in outputs.reports.values())
    n_oracles = len(wl.oracle_list(w, outputs, middle, rng))
    assert outcome.attempted == n_checks + n_oracles
    if name == "fourier-ladder":
        assert outcome.failed == 1
        assert outcome.expected == ["free-rotation-circle m=2 modes=64 local-representatives"]
    else:
        assert outcome.failed == 0


def test_workload_definitions_are_consistent():
    for w in wl.WORKLOADS.values():
        assert w.top in w.instances
        assert all(i in w.instances for i, _ in w.expected_failures)
        assert len(set(w.instances)) == len(w.instances)


def test_declared_metrics_are_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = SpanRecorder()
    computed = rec.pass_metrics(rec.start_pass())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= set(computed)
    # undeclared metrics get the unit "s" in the sidecar
    assert set(computed) - declared <= set(TIME_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "pass_s", "top_rung_s", "peak_rss_mb"]


def test_unexpected_check_failure_is_reported():
    w = TINY["finite-ladder"]
    report = {"checks": [{"name": "c1", "passed": True}, {"name": "c2", "passed": False}]}
    out = wl.check_reports(w, wl.PassOutputs({"x": report, "y": "ValueError: boom"}, None))
    assert (out.attempted, out.failed) == (3, 2)
    assert len(out.unexpected) == 2 and out.expected == []


# ---------------------------------------------------------------------------
# oracles reject perturbed values


def test_middle_count_oracle():
    from orbikit.morita import double_cover_bitorsor, weak_equivalence_pair

    middle = weak_equivalence_pair(double_cover_bitorsor(4)[2]).middle
    assert oracles.middle_counts(4, len(middle.arrows), len(middle.cmp))[0]
    assert not oracles.middle_counts(4, len(middle.arrows) + 1, len(middle.cmp))[0]
    assert not oracles.middle_counts(4, len(middle.arrows), len(middle.cmp) - 1)[0]


def test_seam_wrap_oracle():
    assert wl._seam_oracle(5)[0]
    N = 5
    rule = {(a, y): (-1) ** ((y + a) // N) for a in range(2 * N) for y in range(N)}
    assert oracles.seam_wrap(N, rule)[0]
    flipped = dict(rule)
    flipped[(3, 4)] *= -1
    assert not oracles.seam_wrap(N, flipped)[0]
    missing = dict(rule)
    del missing[(0, 0)]
    assert not oracles.seam_wrap(N, missing)[0]


def _assembled(instance):
    from orbikit.spectral import assemble_dirac

    spec = wl.fourier_spec(instance)
    return spec, assemble_dirac(spec).matrix.tolil()


def test_spectrum_oracle_circle():
    spec, D = _assembled(inst("free-rotation-circle", m=2, modes=8))
    expected = oracles.circle_spectrum(8, 0.0, 2 * math.pi)
    assert oracles.dirac_spectrum(D, 1, expected)[0]
    D[3, 3] += 1e-6
    assert not oracles.dirac_spectrum(D, 1, expected)[0]


def test_spectrum_oracle_torus():
    spec, D = _assembled(inst("pillowcase-torus", modes=8))
    expected = oracles.torus_spectrum(8, (0.0, 0.0), (2 * math.pi, 2 * math.pi))
    assert oracles.dirac_spectrum(D, 2, expected)[0]
    coupled = D.copy()
    coupled[0, 5] = coupled[5, 0] = 1e-3
    ok, detail = oracles.dirac_spectrum(coupled, 2, expected)
    assert not ok and "couples" in detail
    shifted = D.copy()
    shifted[10, 11] *= 1 + 1e-6
    shifted[11, 10] *= 1 + 1e-6
    assert not oracles.dirac_spectrum(shifted, 2, expected)[0]


def test_volume_oracle():
    assert wl._volume_oracle(wl.fourier_spec(SMALL_CIRCLE))[0]
    assert oracles.orbifold_volume(math.pi, 2 * math.pi, 2)[0]
    assert not oracles.orbifold_volume(math.pi * (1 + 1e-6), 2 * math.pi, 2)[0]


def _commutator(instance):
    from orbikit.bases import CircleModes
    from orbikit.convolution import fourier_element, representation_matrix
    from orbikit.spectral import assemble_dirac

    spec = wl.fourier_spec(instance)
    G, M = spec.groupoid, spec.cutoff
    R = representation_matrix(spec, fourier_element(G, {0: CircleModes.mode(G.base, M, 1)}))
    D = assemble_dirac(spec).matrix
    idx = oracles.interior_indices(M, 1, 1, wl.BUFFER)
    return D @ R - R @ D, idx


def test_norm_oracle_exact_branch():
    C, idx = _commutator(SMALL_CIRCLE)
    rng = np.random.default_rng(0)
    assert oracles.interior_norm_bound(1.0, C, idx, rng, exact=True)[0]
    assert not oracles.interior_norm_bound(1.0 - 1e-6, C, idx, rng, exact=True)[0]
    assert not oracles.interior_norm_bound(1.0 + 1e-6, C, idx, rng, exact=True)[0]


def test_norm_oracle_bound_branch():
    C, idx = _commutator(SMALL_CIRCLE)
    rng = np.random.default_rng(0)
    assert oracles.interior_norm_bound(1.1, C, idx, rng, exact=False)[0]
    assert not oracles.interior_norm_bound(0.99, C, idx, rng, exact=False)[0]
    big = sp.diags(np.linspace(1.0, 2.0, 2000))  # above the dense limit: Lanczos path
    rows = np.arange(2000)
    assert oracles.interior_norm_bound(2.0, big, rows, rng, exact=True)[0]
    assert not oracles.interior_norm_bound(1.99, big, rows, rng, exact=False)[0]


def test_norm_oracle_on_the_program():
    rng = np.random.default_rng(0)
    for instance in (SMALL_CIRCLE, SMALL_TORUS, inst("pillowcase-torus", modes=24)):
        ok, detail = wl._norm_oracle(wl.fourier_spec(instance), rng)
        assert ok, detail


def test_norm_oracle_rejects_a_perturbed_torus_norm(monkeypatch):
    """A value above the true norm fails only where equality is demanded."""
    import orbikit.spectral as spectral

    exact = spectral.interior_norm
    monkeypatch.setattr(spectral, "interior_norm", lambda *a: exact(*a) * (1 + 1e-6))
    ok, detail = wl._norm_oracle(wl.fourier_spec(SMALL_TORUS), np.random.default_rng(0))
    assert not ok, detail


def _round_trip(tmp_path):
    import orbikit.serialize as serialize

    middle = wl.double_cover_middle(2)
    path = str(tmp_path / "m.json")
    serialize.save_json(path, serialize.groupoid_to_dict(middle))
    return middle, serialize.groupoid_from_dict(serialize.load_json(path))


def test_round_trip_oracle(tmp_path):
    middle, back = _round_trip(tmp_path)
    assert oracles.same_tables(middle, back)[0]
    key, r = next(iter(back.cmp.items()))
    back.cmp[key] = next(a for a in back.arrows if a != r)
    assert not oracles.same_tables(middle, back)[0]


def test_associativity_oracle(tmp_path):
    middle, back = _round_trip(tmp_path)
    rng = np.random.default_rng(0)
    assert oracles.associativity(back, rng)[0]
    units = set(back.unit.values())
    for (t, s), r in list(back.cmp.items()):
        if t not in units and s not in units:
            back.cmp[(t, s)] = back.unit[back.tgt[t]]
    assert not oracles.associativity(back, rng)[0]


# ---------------------------------------------------------------------------
# span recorder


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 2.0, 5.0, 0, 1],
        ["c", 3.0, 4.0, 1, 1],
        ["d", 6.0, 7.0, 0, 1],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert self_times(spans[1:], offset=1) == [2.0, 1.0, 1.0]


def test_install_patches_every_name_and_uninstall_restores():
    import orbikit.convolution as convolution
    import orbikit.harness as harness
    import orbikit.morita as morita
    import orbikit.spectral as spectral

    before = (spectral.interior_norm, convolution.interior_norm, harness.run_scenario,
              harness.weak_equivalence_pair, morita.WeakEquivalencePair.check,
              dict(harness.BUILTIN_SCENARIOS))
    rec = SpanRecorder()
    rec.install()
    try:
        assert spectral.interior_norm is convolution.interior_norm is not before[0]
        assert harness.weak_equivalence_pair is morita.weak_equivalence_pair
        assert harness.BUILTIN_SCENARIOS["a2-example"][0] is not before[5]["a2-example"][0]
    finally:
        rec.uninstall()
    after = (spectral.interior_norm, convolution.interior_norm, harness.run_scenario,
             harness.weak_equivalence_pair, morita.WeakEquivalencePair.check,
             dict(harness.BUILTIN_SCENARIOS))
    assert all(x is y for x, y in zip(before[:5], after[:5]))
    assert before[5] == after[5]


def test_traced_pass_counts_layer_work(tmp_path):
    middle = wl.double_cover_middle(3)
    rec = SpanRecorder()
    first = rec.start_pass()
    rec.install()
    try:
        wl.run_pass([inst("a2-example", N=3), SMALL_CIRCLE], str(tmp_path), middle, rec)
    finally:
        rec.uninstall()
    m = rec.pass_metrics(first)
    assert m["morita.middle_arrows"] == 72 and m["morita.middle_compositions"] == 864
    assert m["serialize.bytes"] == (tmp_path / "middle.json").stat().st_size
    assert m["morita.validate_generalized_hom_calls"] >= 2
    assert m["spectral.assemble_dirac_calls"] > 0
    assert 0 < m["spectral.assemble_dirac_distinct_ratio"] <= 1
    for name in ("harness.self_s", "harness.build_s", "spectral.interior_norm_s",
                 "morita.weak_equivalence_check_s", "serialize.write_s", "serialize.read_s"):
        assert m[name] > 0, name
    runs = {span[4] for span in rec.spans}
    assert runs == {1, 2, 3}
    roots = [span for span in rec.spans if span[3] == -1]
    assert [span[0] for span in roots][:2] == ["harness.run_scenario"] * 2


# ---------------------------------------------------------------------------
# the runner


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fourier-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
