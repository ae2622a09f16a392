"""Three-sphere Bloch coordinates for two-qubit pure states.

README.md's Library section lists the public names below and says which
calls load numpy.
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
    OffSphere,
    OutOfRange,
    SouthPoleA,
    UnknownGate,
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
