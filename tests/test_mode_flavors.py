"""The circle/torus flavor of mode data is decided in ``bases`` alone.

``bases.ModeData`` implements both flavors, ``mode_class(base)`` picks one
and ``bases.mode_map`` moves modes under an isometry.  Another module that
tests for ``CircleModes`` or ``TorusModes`` with ``isinstance`` (or calls
the old circle-only ``rotate_pullback``) grows a second, per-flavor copy of
that logic.  ``serialize`` is exempt: its file format differs per flavor.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAVORS = {"CircleModes", "TorusModes"}
EXEMPT = {"bases.py", "serialize.py"}


def _names(node):
    """The bare and dotted names inside an expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def flavor_branches(source, filename="<source>"):
    """``(line, what)`` for each flavor ``isinstance`` test and ``rotate_pullback`` call."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if callee in ("isinstance", "issubclass") and len(node.args) == 2:
            hit = FLAVORS & set(_names(node.args[1]))
            if hit:
                found.append((node.lineno, f"{callee} against {', '.join(sorted(hit))}"))
        elif callee == "rotate_pullback":
            found.append((node.lineno, "rotate_pullback call"))
    return found


def test_the_checker_sees_each_kind_of_branch():
    source = (
        "import orbikit.bases as b\n"
        "isinstance(f, CircleModes)\n"
        "isinstance(f, (b.CircleModes, TorusModes))\n"
        "f.rotate_pullback(t)\n"
        "isinstance(f, ModeData)\n"
    )
    assert flavor_branches(source) == [
        (2, "isinstance against CircleModes"),
        (3, "isinstance against CircleModes, TorusModes"),
        (4, "rotate_pullback call"),
    ]


def test_only_bases_and_serialize_branch_on_the_mode_flavor():
    found = {
        path.name: flavor_branches(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "orbikit").glob("*.py"))
        if path.name not in EXEMPT
    }
    assert {name: hits for name, hits in found.items() if hits} == {}
