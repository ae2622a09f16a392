"""Two-qubit gates as phase-then-rotation paths, sampled into coordinates.

A controlled-U factors as e^(k*eta) R_n(omega) on its active 2x2 block, and
`apply` updates only that amplitude pair.  The sampled path sweeps the phase
first (eta: 0 -> pi/2 at omega = 0) and then the rotation (omega: 0 -> pi at
eta = pi/2); each sample applies the partially swept gate to the same input
state.  CNOT and CZ place the block on the (gamma, delta) pair (qubit A
controls); SWAP places its X block on the (beta, gamma) pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING, Iterator

from .bloch import (
    BlochCoordinates,
    _nearer_branch,
    extract,
    south_pole_coords,
)
from .errors import BadAxis, OutOfRange, SouthPoleA
from .quaternion import _slot_setters
from .state import TwoQubitState
from .tolerances import EPS_UNIT

if TYPE_CHECKING:
    import numpy as np

_HALF_PI = 0.5 * math.pi


class GateKind(Enum):
    CNOT = "cnot"
    CZ = "cz"
    SWAP = "swap"
    CONTROLLED_U = "controlled_u"


@dataclass(frozen=True, slots=True)
class GateSpec:
    """A gate endpoint e^(k*eta) R_axis(omega) on its active amplitude pair."""

    kind: GateKind
    axis: tuple[float, float, float]
    eta: float = _HALF_PI
    omega: float = math.pi

    def __post_init__(self):
        if len(self.axis) != 3:
            raise BadAxis(f"axis has {len(self.axis)} components, not 3")
        n = math.sqrt(sum(a * a for a in self.axis))
        # negated form so non-finite axes fail too
        if not (abs(n - 1.0) <= EPS_UNIT):
            raise BadAxis(f"axis norm {n:.12g} is not 1")
        if not (math.isfinite(self.eta) and math.isfinite(self.omega)):
            raise OutOfRange(f"gate endpoints eta = {self.eta!r}, "
                             f"omega = {self.omega!r} must be finite")

    @classmethod
    def cnot(cls) -> "GateSpec":
        return cls(GateKind.CNOT, (1.0, 0.0, 0.0))

    @classmethod
    def cz(cls) -> "GateSpec":
        return cls(GateKind.CZ, (0.0, 0.0, 1.0))

    @classmethod
    def swap(cls) -> "GateSpec":
        return cls(GateKind.SWAP, (1.0, 0.0, 0.0))

    @classmethod
    def controlled_u(cls, axis, omega: float, eta: float) -> "GateSpec":
        ax = tuple(float(a) for a in axis)
        return cls(GateKind.CONTROLLED_U, ax, eta, omega)


class Stage(Enum):
    PHASE_RAMP = "phase"
    ROTATION_RAMP = "rotation"


# bound once for the per-sample path (see hopf._PHI_A_FLAGS)
_SWAP = GateKind.SWAP
_PHASE_RAMP = Stage.PHASE_RAMP
_ROTATION_RAMP = Stage.ROTATION_RAMP


@dataclass(frozen=True, slots=True, init=False)
class TrajectorySample:
    stage: Stage
    s: float
    state: TwoQubitState
    coords: BlochCoordinates
    branch_flip: bool = False

    def __init__(self, stage: Stage, s: float, state: TwoQubitState,
                 coords: BlochCoordinates, branch_flip: bool = False):
        _set_stage(self, stage)
        _set_s(self, s)
        _set_state(self, state)
        _set_coords(self, coords)
        _set_branch_flip(self, branch_flip)


(_set_stage, _set_s, _set_state, _set_coords,
 _set_branch_flip) = _slot_setters(TrajectorySample)


@dataclass(frozen=True, slots=True)
class Trajectory:
    gate: GateSpec
    samples: tuple[TrajectorySample, ...]


def _apply(g: GateSpec, eta: float, omega: float,
           s: TwoQubitState) -> TwoQubitState:
    """g's gate swept to (eta, omega), on g's active pair of s."""
    nx, ny, nz = g.axis
    c = math.cos(0.5 * omega)
    sn = math.sin(0.5 * omega)
    ph = cmath.exp(1j * eta)
    # the phase goes into each entry before the products: the CLI goldens
    # hold that rounding
    m00 = ph * complex(c, -sn * nz)
    m01 = ph * complex(-sn * ny, -sn * nx)
    m10 = ph * complex(sn * ny, -sn * nx)
    m11 = ph * complex(c, sn * nz)
    alpha, beta, gamma, delta = s.alpha, s.beta, s.gamma, s.delta
    if g.kind is _SWAP:
        return TwoQubitState(alpha, m00 * beta + m01 * gamma,
                             m10 * beta + m11 * gamma, delta)
    return TwoQubitState(alpha, beta, m00 * gamma + m01 * delta,
                         m10 * gamma + m11 * delta)


def apply(g: GateSpec, s: TwoQubitState) -> TwoQubitState:
    """e^(k*eta) (cos(omega/2) - k sin(omega/2) n.sigma) on g's active pair."""
    return _apply(g, g.eta, g.omega, s)


def gate_matrix(g: GateSpec, eta: float, omega: float) -> np.ndarray:
    """4x4 unitary of g swept to (eta, omega): column m is its apply on |m>."""
    import numpy as np
    swept = replace(g, eta=eta, omega=omega)
    return np.array([apply(swept, TwoQubitState(*e)).amplitudes()
                     for e in np.eye(4, dtype=complex)]).T


def trajectory(g: GateSpec, s: TwoQubitState, n1: int = 32,
               n2: int = 32) -> Trajectory:
    """Sample the two-step gate path applied to s, with branch continuity.

    n1 samples sweep the phase (the first is the untouched input), n2 sweep
    the rotation (the last is the full gate).  Every sample carries extracted
    coordinates; the (-b, -t) twin of the canonical extraction is emitted
    when it is wrap-closer to the previous sample, and branch_flip marks each
    change of branch.  South-pole samples are flagged, canonical, not fatal.
    """
    return Trajectory(g, tuple(_samples(g, s, n1, n2)))


def _samples(g: GateSpec, s: TwoQubitState, n1: int,
             n2: int) -> Iterator[TrajectorySample]:
    """trajectory's samples, one at a time, so memory stays flat in n1 + n2.

    Every argument is checked here, before the first sample is built.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("n1 and n2 must be at least 2")
    # the largest products the schedule forms; finite endpoints can overflow
    if not (math.isfinite(g.eta * (n1 - 1)) and math.isfinite(g.omega * (n2 - 1))):
        raise OutOfRange(f"the sweep of eta = {g.eta!r} over n1 = {n1} or of "
                         f"omega = {g.omega!r} over n2 = {n2} samples "
                         "overflows a float")
    schedule = chain(
        ((_PHASE_RAMP, i / (n1 - 1), g.eta * i / (n1 - 1), 0.0)
         for i in range(n1)),
        ((_ROTATION_RAMP, i / (n2 - 1), g.eta, g.omega * i / (n2 - 1))
         for i in range(n2)))
    return _sample_path(g, s, schedule)


def _sample_path(g: GateSpec, s: TwoQubitState,
                 schedule: Iterator[tuple]) -> Iterator[TrajectorySample]:
    prev = None
    prev_alt = False
    for stage, frac, eta, omega in schedule:
        # g was validated when built and its sweep checked by _samples, so
        # every (eta, omega) here is finite
        state = _apply(g, eta, omega, s)
        try:
            canon = extract(state)
        except SouthPoleA as exc:
            coords = south_pole_coords(exc)
            use_alt = False
        else:
            coords = canon if prev is None else _nearer_branch(canon, prev)
            use_alt = coords is not canon
        yield TrajectorySample(stage, frac, state, coords, use_alt != prev_alt)
        prev = coords
        prev_alt = use_alt
