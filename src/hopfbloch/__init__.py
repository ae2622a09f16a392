"""Three-sphere Bloch coordinates for two-qubit pure states.

The public surface: quaternion algebra (``Quaternion``, ``PureUnitQuaternion``),
the fibration maps (``h1``, ``inverse_stereographic``, ``base_from_angles``,
``angles_from_base``), state machinery (``TwoQubitState``, ``quasi_state``,
``quasi_density``, ``reduced_density``, ``concurrence``,
``partial_trace_projection``), the seven-angle conversions (``extract``,
``reconstruct``, ``normalize_global_phase``, ``canonicalize``), and gate
trajectories (``GateSpec``, ``gate_matrix``, ``apply``, ``trajectory``).
The paper's alternative routes are test oracles in ``tests/helpers.py``,
not part of the package.  numpy is imported only inside the functions that
build arrays, so importing the package, extracting, reconstructing and
sampling trajectories do not load it.
"""

from .bloch import (
    BlochCoordinates,
    alternate,
    canonicalize,
    coords_distance,
    extract,
    normalize_global_phase,
    reconstruct,
)
from .errors import (
    BadAxis,
    FiberAtInfinity,
    HopfBlochError,
    NotNormalized,
    NotPureUnit,
    OffSphere,
    OutOfRange,
    SouthPoleA,
    UnknownGate,
    ZeroNorm,
)
from .gates import (
    GateKind,
    GateSpec,
    Stage,
    Trajectory,
    TrajectorySample,
    apply,
    gate_matrix,
    trajectory,
)
from .hopf import (
    NORTH_POLE,
    BaseAngles,
    CoordFlag,
    S4Point,
    angles_from_base,
    base_from_angles,
    h1,
    inverse_stereographic,
)
from .quaternion import (
    PureUnitQuaternion,
    Quaternion,
    angle_distance,
    exp_pure,
    from_complex_pair,
    to_complex_pair,
    wrap_angle,
)
from .state import (
    Basis,
    QuasiDensity,
    QuasiState,
    TwoQubitState,
    bell_state,
    concurrence,
    partial_trace_projection,
    phase_aligned_distance,
    quasi_density,
    quasi_state,
    reduced_density,
)

__version__ = "0.1.0"
