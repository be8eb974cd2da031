"""The digest grid: sha256 of every bundle file for a declared grid of configs.

    PYTHONPATH=src python tests/golden_grid.py

rewrites ``tests/golden/grid.json`` and prints every config whose bytes
moved against the file it replaces.  Each config runs in a fresh interpreter
at one and at two BLAS threads; a config whose bytes differ between the two
is left out of the grid and printed.  ``tests/test_grid.py`` checks the
committed grid; a change that moves bytes lists the moved configs in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GRID_PATH = HERE / "golden" / "grid.json"
FILES = ("report.json", "summary.md", "spectra.csv")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (scenario, params): every instance of the finite-ladder and fourier-ladder
# benchmark workloads, the torus at modes 8, 11, 21 and 22, the circle configs
# whose growth-exponent check fails (modes 8 and 10), and buffers at modes 8
# that thin or empty the interior band (torus 0, 4, 8, 16; circle 8, 16),
# so those stay pinned; the finite scenarios also at their floor N = 1, 2 and at N = 24;
# Fourier rungs whose operators the ladders do not build: the non-effective
# circle above its floor, the circle m=4 at modes 64, and bands of buffer 0
# and 1 on the circle and the torus; the circle m=2 at modes 128 and 256,
# whose commutators have coupling components of up to 509 and 1021 rows,
# above the 500 at which interior_norm turns from a dense SVD to ARPACK.
GRID = (
    ("cech-localization", {}),
    ("a2-example", {"N": 3}),
    ("a2-example", {"N": 8}),
    ("a2-example", {"N": 12}),
    ("a2-example", {"N": 16}),
    ("cocycle-transport", {"N": 3}),
    ("cocycle-transport", {"N": 12}),
    ("free-rotation-circle", {"m": 2, "modes": 16}),
    ("free-rotation-circle", {"m": 2, "modes": 32}),
    ("free-rotation-circle", {"m": 4, "modes": 32}),
    ("free-rotation-circle", {"m": 2, "modes": 64}),
    ("noneffective-circle", {"modes": 8}),
    ("pillowcase-torus", {"modes": 12}),
    ("pillowcase-torus", {"modes": 24}),
    ("pillowcase-torus", {"modes": 48}),
    ("pillowcase-torus", {"modes": 8}),
    ("pillowcase-torus", {"modes": 11}),
    ("pillowcase-torus", {"modes": 21}),
    ("pillowcase-torus", {"modes": 22}),
    ("free-rotation-circle", {"m": 2, "modes": 8}),
    ("free-rotation-circle", {"m": 2, "modes": 10}),
    ("free-rotation-circle", {"m": 4, "modes": 8}),
    ("free-rotation-circle", {"m": 4, "modes": 10}),
    ("pillowcase-torus", {"modes": 8, "buffer": 0}),
    ("pillowcase-torus", {"modes": 8, "buffer": 4}),
    ("pillowcase-torus", {"modes": 8, "buffer": 8}),
    ("free-rotation-circle", {"m": 2, "modes": 8, "buffer": 8}),
    ("free-rotation-circle", {"m": 4, "modes": 8, "buffer": 8}),
    ("a2-example", {"N": 1}),
    ("a2-example", {"N": 2}),
    ("a2-example", {"N": 24}),
    ("cocycle-transport", {"N": 1}),
    ("cocycle-transport", {"N": 2}),
    ("cocycle-transport", {"N": 24}),
    ("noneffective-circle", {"modes": 32}),
    ("free-rotation-circle", {"m": 4, "modes": 64}),
    ("free-rotation-circle", {"m": 2, "modes": 32, "buffer": 0}),
    ("pillowcase-torus", {"modes": 24, "buffer": 1}),
    ("pillowcase-torus", {"modes": 16, "buffer": 0}),
    ("pillowcase-torus", {"modes": 8, "buffer": 16}),
    ("free-rotation-circle", {"m": 2, "modes": 8, "buffer": 16}),
    ("free-rotation-circle", {"m": 2, "modes": 128}),
    ("free-rotation-circle", {"m": 2, "modes": 256}),
)


def config_label(scenario, params) -> str:
    return " ".join([scenario] + [f"{k}={v}" for k, v in sorted(params.items())])


def bundle_digests(scenario, params, out_dir) -> dict:
    """Run one config into ``out_dir``; the sha256 of each bundle file."""
    from orbikit.harness import SCHEMA_VERSION, run_scenario

    run_scenario({"schema_version": SCHEMA_VERSION, "scenario": scenario, "params": params}, out_dir=out_dir)
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest() for name in FILES}


def load_grid() -> list:
    """The committed grid: one dict per config, with its ``digests``."""
    if not GRID_PATH.is_file():
        return []
    return json.loads(GRID_PATH.read_text())["configs"]


def _digests_at(threads) -> dict:
    """label -> digests of every grid config, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    env.update({var: str(threads) for var in BLAS_VARS})
    done = subprocess.run([sys.executable, __file__, "--digests"], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv) -> int:
    if argv == ["--digests"]:
        with tempfile.TemporaryDirectory() as tmp:
            out = {config_label(s, p): bundle_digests(s, p, os.path.join(tmp, str(i)))
                   for i, (s, p) in enumerate(GRID)}
        print(json.dumps(out))
        return 0
    one, two = _digests_at(1), _digests_at(2)
    old = {config_label(c["scenario"], c["params"]): c["digests"] for c in load_grid()}
    configs = []
    for scenario, params in GRID:
        label = config_label(scenario, params)
        if one[label] != two[label]:
            print(f"left out (bytes differ at 1 and 2 BLAS threads): {label}")
            continue
        if label in old and old[label] != one[label]:
            moved = [name for name in FILES if old[label][name] != one[label][name]]
            print(f"moved: {label}: {', '.join(moved)}")
        configs.append({"scenario": scenario, "params": params, "digests": one[label]})
    GRID_PATH.write_text(json.dumps({"files": list(FILES), "configs": configs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(configs)} configs to {GRID_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
