"""Every third-party module the package imports is a declared dependency, and back; and neither
importing the package nor running a finite scenario loads scipy or sympy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_levels():
    """Top-level names of every absolute import in ``src/orbikit``, function bodies included."""
    names = set()
    for path in sorted((ROOT / "src" / "orbikit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in deps}


def test_imports_match_declared_dependencies():
    third_party = {n for n in imported_top_levels() if n not in sys.stdlib_module_names and n != "orbikit"}
    assert third_party == declared_dependencies()


def loaded_after(code):
    """The ``scipy`` and ``sympy`` modules loaded once ``code`` has run in a fresh interpreter."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.partition('.')[0] in ('scipy', 'sympy')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout.strip().splitlines()[-1]


def test_import_does_not_load_csgraph():
    """``scipy.sparse.csgraph`` is imported inside the functions that use it, not with the package."""
    assert "'scipy.sparse.csgraph'" not in loaded_after("import orbikit")


def test_import_loads_no_scipy_and_no_sympy():
    """scipy loads with the first Fourier operator, and the package needs no sympy; loading
    either with the package would be a large share of the import time."""
    assert loaded_after("import orbikit") == "[]"


@pytest.mark.parametrize("scenario", ["a2-example", "cech-localization", "cocycle-transport"])
def test_finite_scenario_loads_no_scipy(scenario, tmp_path):
    """The finite layers need only numpy: a finite built-in runs without loading scipy."""
    code = (
        "from orbikit.harness import SCHEMA_VERSION, run_scenario\n"
        f"config = {{'schema_version': SCHEMA_VERSION, 'scenario': {scenario!r}, 'params': {{}}}}\n"
        f"assert run_scenario(config, out_dir={str(tmp_path)!r})[0] == 0"
    )
    assert loaded_after(code) == "[]"
