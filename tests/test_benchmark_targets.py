"""The benchmark tracer wraps functions by name; each name must stay live."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer_targets():
    """(metric, module, attr) of TARGETS and CLI_TARGETS in
    benchmarks/tracer.py, read with ast rather than imported."""
    found = {}
    for node in ast.parse(TRACER.read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id in ("TARGETS", "CLI_TARGETS"):
            found[target.id] = ast.literal_eval(node.value)
    return found["TARGETS"] + found["CLI_TARGETS"]


TRACER_TARGETS = _tracer_targets()


@pytest.mark.parametrize("name, module, attr", TRACER_TARGETS,
                         ids=[name for name, _, _ in TRACER_TARGETS])
def test_tracer_target_resolves_to_a_callable(name, module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):  # "Class.attr" names a method
        obj = getattr(obj, part)
    assert callable(obj)
