"""Span recorder for the benchmark's traced runs.

The recorder wraps public orbikit functions from outside the package.  A
wrapper replaces the function object under every name that refers to it in
any loaded ``orbikit`` module, so calls made inside a module (and through the
names ``harness`` imported) are caught as well as calls from the benchmark.

Each span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span or -1, ``run`` the id shared by every span of one scenario
run.  Spans stay in memory; ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" patches the class attribute.
TARGETS = (
    ("groupoids", "cech_groupoid", "groupoids.cech_groupoid"),
    ("groupoids", "is_effective", "groupoids.is_effective"),
    ("groupoids", "orbits", "groupoids.orbits"),
    ("morita", "validate_generalized_hom", "morita.validate_generalized_hom"),
    ("morita", "weak_equivalence_pair", "morita.weak_equivalence_pair"),
    ("morita", "WeakEquivalencePair.check", "morita.weak_equivalence_check"),
    ("morita", "localize_cech", "morita.localize_cech"),
    ("morita", "compose_homs", "morita.compose_homs"),
    ("morita", "find_two_morphism", "morita.find_two_morphism"),
    ("cocycles", "induce_cocycle", "cocycles.induce_cocycle"),
    ("cocycles", "cohomologous", "cocycles.cohomologous"),
    ("serialize", "groupoid_to_dict", "serialize.write"),
    ("serialize", "save_json", "serialize.write"),
    ("serialize", "load_json", "serialize.read"),
    ("serialize", "groupoid_from_dict", "serialize.read"),
    ("spectral", "interior_norm", "spectral.interior_norm"),
    ("spectral", "assemble_dirac", "spectral.assemble_dirac"),
    ("spectral", "mult_operator", "spectral.mult_operator"),
    ("spectral", "induced_dirac", "spectral.induced_dirac"),
    ("spectral", "check_spectral_triple", "spectral.check_spectral_triple"),
    ("convolution", "representation_matrix", "convolution.representation_matrix"),
    ("convolution", "convolution_triple_report", "convolution.convolution_triple_report"),
    ("convolution", "faithfulness_probe", "convolution.faithfulness_probe"),
    ("clifford", "spin_lift_search", "clifford.spin_lift_search"),
    ("transport", "pushforward_function", "transport.pushforward_function"),
    ("harness", "run_scenario", "harness.run_scenario"),
)

# Time spent in the counting hooks below; part of the overhead, no layer's.
HOOK_SPAN = "trace.hook"

# Self-time metrics: metric name -> span name.  The run_scenario span's self
# time is the harness's own; the builders are wrapped in BUILTIN_SCENARIOS.
TIME_METRICS = {f"{span}_s": span for _, _, span in TARGETS if span != "harness.run_scenario"}
TIME_METRICS["harness.build_s"] = "harness.build"
TIME_METRICS["harness.self_s"] = "harness.run_scenario"

# Call-count metrics: metric name -> span name.
CALL_METRICS = {
    "morita.validate_generalized_hom_calls": "morita.validate_generalized_hom",
    "spectral.interior_norm_calls": "spectral.interior_norm",
    "spectral.assemble_dirac_calls": "spectral.assemble_dirac",
    "convolution.representation_matrix_calls": "convolution.representation_matrix",
}

# Counts taken from arguments and results at the layer boundary.
COUNT_METRICS = (
    "morita.middle_arrows",
    "morita.middle_compositions",
    "cocycles.induced_entries",
    "serialize.bytes",
    "spectral.interior_norm_rows",
    "spectral.assembled_rows",
)

# Distinct arguments over calls: metric -> span name whose keys are counted.
RATIO_METRICS = {
    "spectral.assemble_dirac_distinct_ratio": "spectral.assemble_dirac",
    "convolution.representation_matrix_distinct_ratio": "convolution.representation_matrix",
}


def spec_key(spec):
    """Value identity of a DiracSpec: the operator it assembles."""
    G = spec.groupoid
    base = G.base
    shape = getattr(base, "circumferences", None) or (base.circumference,)
    return (
        type(base).__name__,
        tuple(shape),
        spec.cutoff,
        tuple(str(t) for t in spec.twist),
        spec.lift.rep.dimension,
        tuple(sorted((repr(g), repr(G.iso[g]), spec.lift.signs[g]) for g in G.group.elements)),
    )


def element_key(f):
    """Value identity of a Fourier convolution element."""
    parts = []
    for g, modes in f.data.items():
        digest = hashlib.blake2b(modes.coeffs.tobytes(), digest_size=16).hexdigest()
        parts.append((repr(g), modes.cutoff, str(modes.twist), modes.coeffs.shape, digest))
    return tuple(sorted(parts))


class SpanRecorder:
    """In-memory spans plus boundary counters, per traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)
        self.run_id = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def new_run(self):
        self.run_id += 1
        return self.run_id

    def wrap(self, fn, name, after=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else -1
            index = len(recorder.spans)
            recorder.spans.append([name, time.perf_counter(), None, parent, recorder.run_id])
            recorder._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._stack.pop()
                recorder.spans[index][2] = time.perf_counter()
            if after is not None:
                # a sibling span, so the parent's self time excludes the hook
                start = time.perf_counter()
                after(recorder, args, result)
                recorder.spans.append([HOOK_SPAN, start, time.perf_counter(), parent, recorder.run_id])
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch every target under every orbikit name that refers to it."""
        import orbikit.harness as harness

        modules = [m for n, m in sys.modules.items() if n == "orbikit" or n.startswith("orbikit.")]
        for mod_name, attr, span in TARGETS:
            owner = sys.modules[f"orbikit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], span))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, span, _AFTER.get(attr))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        for scenario, (builder, desc) in list(harness.BUILTIN_SCENARIOS.items()):
            harness.BUILTIN_SCENARIOS[scenario] = (self.wrap(builder, "harness.build"), desc)
            self._patched.append((harness.BUILTIN_SCENARIOS, scenario, (builder, desc)))

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- aggregation -----------------------------------------------------

    def start_pass(self):
        """Reset the boundary counters; returns the index of the next span."""
        self.counts.clear()
        self.keys.clear()
        return len(self.spans)

    def pass_metrics(self, first_span):
        """Per-layer metrics of the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        selfs = self_times(spans, offset=first_span)
        by_name = defaultdict(float)
        calls = defaultdict(int)
        for (name, *_), value in zip(spans, selfs):
            by_name[name] += value
            calls[name] += 1
        out = {}
        for metric, name in TIME_METRICS.items():
            out[metric] = by_name[name]
        for metric, name in CALL_METRICS.items():
            out[metric] = calls[name]
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        for metric, name in RATIO_METRICS.items():
            out[metric] = len(self.keys.get(name, ())) / calls[name] if calls[name] else 1.0
        return out

    def dump(self, path, extra):
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "run"]
        doc["spans"] = self.spans
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def self_times(spans, offset=0):
    """Span duration minus the time covered by its direct children.

    ``parent`` indices are absolute; ``offset`` is the absolute index of
    ``spans[0]``.  Children lie inside their parent on one thread, so
    subtracting their durations removes exactly the covered interval.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= offset:
            out[parent - offset] -= end - start
    return out


def _after_middle(rec, args, pair):
    rec.counts["morita.middle_arrows"] += len(pair.middle.arrows)
    rec.counts["morita.middle_compositions"] += len(pair.middle.cmp)


def _after_induce(rec, args, cocycle):
    rec.counts["cocycles.induced_entries"] += len(cocycle.entries)


def _after_save(rec, args, _):
    rec.counts["serialize.bytes"] += os.path.getsize(args[0])


def _after_norm(rec, args, _):
    rec.counts["spectral.interior_norm_rows"] += args[1].shape[0]


def _after_assemble(rec, args, dirac):
    rec.counts["spectral.assembled_rows"] += dirac.matrix.shape[0]
    rec.keys["spectral.assemble_dirac"].add(spec_key(args[0]))


def _after_representation(rec, args, _):
    rec.keys["convolution.representation_matrix"].add((spec_key(args[0]), element_key(args[1])))


# attribute name -> hook run on the wrapped call's arguments and result
_AFTER = {
    "weak_equivalence_pair": _after_middle,
    "induce_cocycle": _after_induce,
    "save_json": _after_save,
    "interior_norm": _after_norm,
    "assemble_dirac": _after_assemble,
    "representation_matrix": _after_representation,
}
