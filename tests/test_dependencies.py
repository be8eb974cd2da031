"""Every third-party module the package imports is a declared dependency, and back; and importing
the package leaves the modules it loads lazily unloaded."""

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


def test_import_does_not_load_csgraph():
    """``scipy.sparse.csgraph`` is imported inside the functions that use it, not with the package."""
    code = "import sys, orbikit; print('scipy.sparse.csgraph' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
