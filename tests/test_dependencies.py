"""Every third-party module the package imports is a declared dependency, and back."""

import ast
import re
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
