"""Every private helper in src/ must have a caller in src/, so none is kept
alive only by the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfbloch"
DEFS = (ast.FunctionDef, ast.ClassDef)


def _names(node):
    """Every name that node refers to: bare names, attributes, imports."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.alias):
            yield inner.name


def _unreferenced_privates():
    """'module.name' of each _-prefixed module-level function or class that
    no code in src/ names outside its own definition."""
    private, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if (isinstance(node, DEFS) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = node.name
                private.append((path.stem, own))
            used.update(name for name in _names(node) if name != own)
    return [f"{module}.{name}" for module, name in private if name not in used]


def test_every_private_helper_has_a_caller_in_src():
    assert _unreferenced_privates() == []
