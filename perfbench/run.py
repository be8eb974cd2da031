"""Scenario-ladder benchmark for orbikit.

    python3 perfbench/run.py --workload finite-ladder --seed 1 --seconds 60 --trace 0

Run from a source checkout: the program is imported from ``src/`` next to
this directory and nothing is installed.  The launcher pins the BLAS thread
count before numpy loads.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from a span-traced
pass and writes the spans to a sidecar file.  The last line of standard
output is one JSON object; results and sidecars go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
MIN_ROUNDS = {0: 2, 1: 1}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import orbikit; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds():
    """Median time for a fresh interpreter to import orbikit.

    The launcher has imported orbikit already, which filled the bytecode
    cache, so every sample pays what a repeated CLI call pays.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "orbikit" / "__init__.py").is_file():
        print(f"error: no orbikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import orbikit

    import workloads as wl
    from spans import SpanRecorder

    if Path(orbikit.__file__).resolve().parent != (SRC / "orbikit").resolve():
        print(f"error: orbikit imported from {orbikit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    # the result line carries exactly the metrics BENCHMARK.json declares;
    # the results file and the sidecar carry every metric computed
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    work.mkdir(parents=True, exist_ok=True)

    setup = setup_seconds() if args.trace == 0 else (None, [])
    order_rng = random.Random(args.seed)
    oracle_rng = np.random.default_rng(args.seed)
    middle = workload.span()

    # warm-up: small instances of each scenario kind, untimed and uncounted
    wl.run_pass(list(workload.warmup), str(work / "warmup"), wl.double_cover_middle(3))
    # The benchmark's own long-lived objects (the span's tables above all)
    # would otherwise be rescanned by every full collection inside the pass.
    gc.collect()
    gc.freeze()

    recorder = SpanRecorder() if args.trace else None
    outcome = wl.Outcome()
    plain, traced, layers = [], [], []
    start = last = time.perf_counter()
    # Whole rounds only; another round starts while it is expected to end
    # within --seconds, judged by the length of the round before it.
    while len(plain) < MIN_ROUNDS[args.trace] or (
        2 * time.perf_counter() - last - start <= args.seconds
    ):
        last = time.perf_counter()
        order = list(workload.instances)
        order_rng.shuffle(order)
        plain.append(one_pass(workload, order, work, middle, oracle_rng, outcome))
        if recorder is not None:
            first = recorder.start_pass()
            traced.append(one_pass(workload, order, work, middle, oracle_rng, outcome, recorder))
            layers.append(recorder.pass_metrics(first))

    pass_s = statistics.median(r.seconds for r in plain)
    top_s = statistics.median(r.instance_seconds[workload.top.label] for r in plain)
    if recorder is None:
        metrics = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "top_rung_s": {"value": top_s, "unit": "s"},
            # read before the first oracles ran: their dense reference
            # solves would otherwise set the peak instead of the program
            "peak_rss_mb": {"value": plain[0].peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(layers, {m["name"]: m["unit"] for m in spec["per_layer"]})
        overhead = statistics.median(r.seconds for r in traced) - pass_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    instances = {
        i.label: statistics.median(r.instance_seconds[i.label] for r in plain)
        for i in workload.instances
    }
    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(plain),
        "pass_seconds": [r.seconds for r in plain],
        "traced_pass_seconds": [r.seconds for r in traced],
        "setup_samples": setup[1],
        "instance_median_seconds": instances,
        "top_rung": workload.top.label,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "expected_failures": sorted(set(outcome.expected)),
        "unexpected_failures": outcome.unexpected,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    if recorder is not None:
        recorder.dump(str(OUT / f"{tag}-spans.json"), {
            "workload": workload.name,
            "seed": args.seed,
            "environment": doc["environment"],
            "untraced_pass_seconds": doc["pass_seconds"],
            "traced_pass_seconds": doc["traced_pass_seconds"],
            "overhead_s": metrics["trace.overhead_s"]["value"],
            "per_layer": metrics,
        })

    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name}: {len(plain)} rounds, {outcome.attempted} operations attempted, "
          f"{outcome.failed} failed")
    for label in doc["expected_failures"]:
        print(f"expected failure (known fault): {label}")
    for label in outcome.unexpected:
        print(f"UNEXPECTED FAILURE: {label}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.unexpected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: metrics[name] for name in declared},
    }))
    return 0


def one_pass(workload, order, work, middle, rng, outcome, recorder=None):
    """Run one pass (traced if ``recorder``), check it; returns its timing.

    The pass's outputs are dropped here, so they do not add to the memory
    peak of the next pass.
    """
    import workloads as wl

    gc.collect()
    if recorder is not None:
        recorder.install()
    try:
        timing, outputs = wl.run_pass(order, str(work), middle, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    outcome.merge(wl.check(workload, outputs, middle, rng))
    return timing


def layer_metrics(layers, units):
    """Median over traced passes of each per-layer value.

    ``units`` holds the declared metrics; the undeclared ones written only to
    the sidecar are self times.
    """
    return {
        name: {"value": statistics.median(p[name] for p in layers), "unit": units.get(name, "s")}
        for name in layers[0]
    }


if __name__ == "__main__":
    sys.exit(main())
