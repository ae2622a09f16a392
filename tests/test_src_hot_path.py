"""The per-sample path of ``trajectory`` and of the ``traj`` writers, and
the per-state and per-block paths of the ``check`` command, call no
builtin min or max and look up no Enum member by attribute: on Python 3.11
each of those runs as Python code (the builtin call's argument handling,
EnumType.__getattr__) where a comparison or a module-level name runs in C."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfbloch"

HOT = {
    "quaternion": ("_wrapped_distance", "_hamilton", "_from_complex_pair",
                   "wrap_angle", "_sphere_point"),
    "hopf": ("_base_angles", "h1", "inverse_stereographic", "_h1", "_lift",
             "_base_point", "_pair_norms", "_quotient", "_validate",
             "_block_norm"),
    "state": ("quasi_density", "_product_sum", "_reduced_entries",
              "_reduced_columns", "_complex_product", "_squared_modulus",
              "_concurrence_columns", "_projection_parts", "_dyad",
              "_dyad_entries", "_matmul", "phase_aligned_distance"),
    "bloch": ("extract", "_extract", "_reconstruct", "_concurrence",
              "_fiber_angles", "south_pole_coords", "_has_twin",
              "_flipped_angles", "_nearer_branch"),
    "gates": ("_apply", "trajectory", "_samples", "_sample_path"),
    "cli": ("_scalar_steps", "_distance", "_nan_max_columns",
            "_quaternion_deviations", "_concurrence_identity",
            "_reduced_vs_oracle", "_check_block", "_unit_rows", "_num",
            "_sample_numbers", "_sample_json", "_traj_json", "_traj_csv",
            "_traj_svg"),
}
BUILTINS = {"min", "max"}
ENUMS = {"CoordFlag", "GateKind", "Stage"}


def _functions(module):
    """name -> module-level function definition, in src/<module>.py."""
    body = ast.parse((SRC / f"{module}.py").read_text()).body
    return {node.name: node for node in body
            if isinstance(node, ast.FunctionDef)}


def _slow_reads(function):
    """Each min/max call and each Enum attribute read in function."""
    for node in ast.walk(function):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in BUILTINS):
            yield f"{node.func.id}() at line {node.lineno}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in ENUMS):
            yield f"{node.value.id}.{node.attr} at line {node.lineno}"


def test_hot_path_functions_exist():
    for module, names in HOT.items():
        assert set(names) <= set(_functions(module)), module


def test_hot_path_calls_no_min_max_and_reads_no_enum_attribute():
    found = [f"{module}.{name}: {read}"
             for module, names in HOT.items()
             for name, function in _functions(module).items() if name in names
             for read in _slow_reads(function)]
    assert found == []
