"""Every private helper in src/ must have a caller in src/, and every name
the package re-exports must have a user, so none is kept alive only by the
tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopfbloch"
DEFS = (ast.FunctionDef, ast.ClassDef)


def _names(node):
    """Every name that node reads: bare names, attributes, imports."""
    for inner in ast.walk(node):
        if isinstance(getattr(inner, "ctx", None), ast.Store):
            continue
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.alias):
            yield inner.name


def _defined(node):
    """The module-level names that node defines: a function or class, or the
    bare-name targets of an assignment."""
    if isinstance(node, DEFS):
        return {node.name}
    targets = ()
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = (node.target,)
    return {inner.id for target in targets for inner in ast.walk(target)
            if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Store)}


def _modules():
    """(module name, parsed body) of every module in src/."""
    return [(path.stem, ast.parse(path.read_text()).body)
            for path in sorted(SRC.glob("*.py"))]


def _used_outside_definitions(modules):
    """Every name the given module bodies read outside the definition of
    that same name."""
    used = set()
    for _, body in modules:
        for node in body:
            own = _defined(node)
            used.update(name for name in _names(node) if name not in own)
    return used


def _unreferenced_privates():
    """'module.name' of each _-prefixed module-level function, class or
    assigned constant that no code in src/ names outside its own definition."""
    modules = _modules()
    used = _used_outside_definitions(modules)
    return sorted(f"{module}.{name}" for module, body in modules
                  for node in body for name in _defined(node)
                  if name.startswith("_") and not name.startswith("__")
                  and name not in used)


def _reexports():
    """The names that the package's __init__ imports from its modules."""
    body = ast.parse((SRC / "__init__.py").read_text()).body
    return [alias.name for node in body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _unused_reexports():
    """Each re-exported name that no module of src/ but __init__ reads outside
    its own definition, that the oracles in tests/helpers.py do not read, and
    that README.md does not name in backticks."""
    used = _used_outside_definitions(
        [m for m in _modules() if m[0] != "__init__"])
    used.update(_names(ast.parse((ROOT / "tests" / "helpers.py").read_text())))
    for span in re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text()):
        used.update(re.findall(r"[A-Za-z_]\w*", span))
    return [name for name in _reexports() if name not in used]


def test_every_private_helper_has_a_caller_in_src():
    assert _unreferenced_privates() == []


def test_every_reexported_name_has_a_user():
    assert _unused_reexports() == []
