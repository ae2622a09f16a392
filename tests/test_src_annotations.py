"""Every name an annotation in src/ starts from is bound at module level,
so type checkers and typing.get_type_hints can resolve it.  Imports under
`if TYPE_CHECKING:` count: they keep heavy modules off the import path."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfbloch"


def _bound(tree):
    """Names bound by the module's top-level statements, looking inside
    `if` blocks (TYPE_CHECKING imports)."""
    names = set(dir(builtins))
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        elif isinstance(node, ast.If):
            stack.extend(node.body + node.orelse)
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _root_names(annotation):
    """Names an annotation reads, string forward references included."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for inner, _ in _root_names(ast.parse(node.value, mode="eval")):
                yield inner, node.lineno


def _unbound_annotation_names():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _bound(tree)
        for annotation in _annotations(tree):
            missing += [f"{path.name}:{line} {name}"
                        for name, line in _root_names(annotation)
                        if name not in bound]
    return missing


def test_annotation_names_are_bound_at_module_level():
    assert _unbound_annotation_names() == []
