"""Every private helper in src/ must have a caller in src/, every name the
package re-exports must have a user, and every public name without a caller
in src/ has a stated reason, so none is kept alive only by the tests.  Every
name that a module of src/ but __init__ imports is read where it is
imported, as pyflakes would check."""

import ast
import re
from pathlib import Path

from test_benchmark_targets import TRACER_TARGETS

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


def _uncalled_public_names():
    """'module.name' of each public module-level function, class or assigned
    constant that no module of src/ but __init__ reads outside its own
    definition."""
    modules = [m for m in _modules() if m[0] != "__init__"]
    used = _used_outside_definitions(modules)
    return {f"{module}.{name}" for module, body in modules for node in body
            for name in _defined(node)
            if not name.startswith("_") and name not in used}


def _library_section_names():
    """The identifiers that README.md's Library section names in backticks."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return {name for span in re.findall(r"`+([^`]+)`+", section)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def _scope_imports(scope):
    """The import statements of scope (a module or a function) outside the
    functions and classes nested in it, `if TYPE_CHECKING:` blocks
    included."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, DEFS):
            yield from _scope_imports(child)


def _read_names(scope):
    """Every bare name that scope reads, the names in string annotations
    too."""
    read = set()
    for inner in ast.walk(scope):
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
            read.add(inner.id)
        for note in (getattr(inner, "annotation", None),
                     getattr(inner, "returns", None)):
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value,
                                                                 str):
                    read |= _read_names(ast.parse(part.value, mode="eval"))
    return read


def _unused_imports():
    """'module.name' of each name that an import binds in a module of src/
    but __init__, or in one of its functions, and that the same scope never
    reads; `import a.b` binds a, and `from __future__` binds nothing."""
    found = []
    for module, body in _modules():
        if module == "__init__":
            continue
        tree = ast.Module(body=body, type_ignores=[])
        for scope in (tree, *(node for node in ast.walk(tree)
                               if isinstance(node, ast.FunctionDef))):
            read = _read_names(scope)
            found += [f"{module}.{alias.asname or alias.name.split('.')[0]}"
                      for node in _scope_imports(scope)
                      if getattr(node, "module", None) != "__future__"
                      for alias in node.names
                      if (alias.asname or alias.name.split(".")[0])
                      not in read]
    return found


README = "README Library API"
TRACER = "benchmark tracer target"
DISPATCH = "cmd_* dispatched by name in cli._run"

# each public name that no src/ code calls, and why it stays public; a name
# that loses its reason moves into tests/helpers.py
UNCALLED_PUBLIC = {
    "bloch.coords_distance": README,
    "cli.cmd_amplitudes": DISPATCH,
    "cli.cmd_check": DISPATCH,
    "cli.cmd_coords": DISPATCH,
    "cli.cmd_traj": DISPATCH,
    "gates.gate_matrix": TRACER,
    "gates.trajectory": README,
    "hopf.angles_from_base": TRACER,
    "hopf.h1": TRACER,
    "hopf.inverse_stereographic": TRACER,
    "quaternion.exp_pure": TRACER,
    "quaternion.to_complex_pair": TRACER,
    "state.partial_trace_projection": README,
    "state.quasi_density": TRACER,
    "state.quasi_state": README,
    "state.reduced_density": TRACER,
}


def test_every_private_helper_has_a_caller_in_src():
    assert _unreferenced_privates() == []


def test_every_reexported_name_has_a_user():
    assert _unused_reexports() == []


def test_every_uncalled_public_name_has_a_stated_reason():
    assert _uncalled_public_names() == set(UNCALLED_PUBLIC)
    traced = {(module, attr) for _, module, attr in TRACER_TARGETS}
    library = _library_section_names()
    for qualified, reason in UNCALLED_PUBLIC.items():
        module, name = qualified.split(".")
        if reason == TRACER:
            assert (f"hopfbloch.{module}", name) in traced, qualified
        elif reason == README:
            assert name in library, qualified
        else:
            assert reason == DISPATCH and module == "cli", qualified
            assert name.startswith("cmd_"), qualified


def test_every_imported_name_is_read_in_its_module():
    assert _unused_imports() == []
