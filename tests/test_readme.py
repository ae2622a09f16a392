"""README.md's Library example runs as written."""

import re
from pathlib import Path

from hopfbloch import (
    GateSpec,
    PureUnitQuaternion,
    Trajectory,
    bell_state,
    phase_aligned_distance,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The python code block of README.md's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    coords, state, traj = namespace["coords"], namespace["state"], namespace["traj"]
    assert isinstance(coords.t, PureUnitQuaternion)
    t = coords.t
    assert abs(t.tx ** 2 + t.ty ** 2 + t.tz ** 2 - 1.0) <= 1e-12
    assert phase_aligned_distance(state, bell_state("00")) <= 1e-9
    assert isinstance(traj, Trajectory) and traj.gate == GateSpec.cz()
    assert len(traj.samples) >= 2
