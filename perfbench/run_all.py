"""Run every workload and print one table of the end-to-end metrics.

    python3 perfbench/run_all.py --seeds 1 2 3

Each (workload, seed) is a separate ``run.py`` process, run one after the
other for ``run_seconds`` from BENCHMARK.json.  For every workload the table gives the median and quartiles of each
end-to-end metric over the seeds, the operations attempted and failed, and
the median time of every instance (the scenario ladders).  ``--trace`` adds
one traced run per workload and prints its per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        return line, json.load(fh)


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for w in spec["workloads"]:
        name = w["name"]
        lines, docs = zip(*(run(name, s, seconds, 0) for s in args.seeds))
        print(f"\n== {name} ({len(args.seeds)} seeds, {seconds} s each; "
              f"BLAS threads {docs[0]['environment']['blas_threads']}, "
              f"nproc {docs[0]['environment']['nproc']})")
        for m in spec["end_to_end"]:
            vals = [line["metrics"][m["name"]]["value"] for line in lines]
            q1, med, q3 = spread(vals)
            print(f"  {m['name']:14s} median {med:10.4f} {m['unit']:3s} "
                  f"quartiles {q1:.4f}..{q3:.4f}  (IQR/median {(q3 - q1) / med:.3f}, "
                  f"bound {m['bound']})")
        print(f"  operations: {[line['attempted'] for line in lines]} attempted, "
              f"{[line['failed'] for line in lines]} failed; all correct: "
              f"{all(line['correct'] for line in lines)}")
        for label in docs[0]["expected_failures"]:
            print(f"  expected failure: {label}")
        print("  instance medians (s):")
        for label in docs[0]["instance_median_seconds"]:
            med = statistics.median(d["instance_median_seconds"][label] for d in docs)
            print(f"    {label:42s} {med:8.3f}")
        if args.trace:
            _, doc = run(name, args.seeds[0], seconds, 1)
            print(f"  traced run: overhead {doc['metrics']['trace.overhead_s']['value']:.3f} s")
            for metric, value in doc["metrics"].items():
                print(f"    {metric:48s} {value['value']:.6g} {value['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
