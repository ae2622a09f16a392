"""Fibration maps between the quaternion pair, R^4, and the unit 4-sphere.

The pipeline is: a unit pair (q0, q1) maps to Q = q1 * conj(q0) / |q1|^2 in
R^4 (the conjugated quotient, which is invariant under right multiplication
of both inputs by any unit quaternion), then to S^4 by inverse stereographic
projection from the north pole (1,0,0,0,0).  The base point splits into one
2-sphere in the (x1, b, x0) frame and one in the (tx, ty, tz) frame via
b*t = x2*i + x3*j + x4*k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import FiberAtInfinity, NotNormalized, OffSphere
from .quaternion import (
    Quaternion,
    _hamilton,
    _slot_setters,
    _sphere_point,
    wrap_angle,
)
from .tolerances import EPS_UNIT, EPS_ZERO


class CoordFlag(Enum):
    """Marks angles whose value is a convention, not data."""

    PHI_A_UNDEFINED = "phi_a_undefined"      # sin(theta) ~ 0: azimuth meaningless
    T_UNDEFINED = "t_undefined"              # b ~ 0: whole t sphere meaningless, t := k
    XI_UNDEFINED = "xi_undefined"            # c ~ 0 with b != 0: t = +-k, xi := 0
    PHI_B_UNDEFINED = "phi_b_undefined"      # theta_B ~ 0
    SOUTH_POLE_A = "south_pole_a"            # |1>_A (x) |psi_B> exception
    THETA_B_PI_AMBIGUOUS = "theta_b_pi_ambiguous"  # zeta_B pinned to 0

    # Enum.__hash__ is the Python-level hash(self._name_); members are
    # singletons compared by identity, so the C-level identity hash leaves
    # every set and dict result unchanged (only frozenset iteration order
    # moves, and every printed flag list is sorted)
    __hash__ = object.__hash__


# members and flag tuples that the per-sample path reads, bound once: on
# Python 3.11 each Enum member lookup such as CoordFlag.X runs
# EnumType.__getattr__
_PHI_A_FLAGS = (CoordFlag.PHI_A_UNDEFINED,)
_T_FLAGS = (CoordFlag.T_UNDEFINED, CoordFlag.XI_UNDEFINED)
_XI_FLAGS = (CoordFlag.XI_UNDEFINED,)


def _validate(x0: float, x1: float, x2: float, x3: float, x4: float) -> None:
    err = abs(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4 - 1.0)
    if not (err <= EPS_UNIT):  # negated so a NaN norm is rejected too
        raise OffSphere(f"coordinates off the unit 4-sphere by {err:.3e}")


def _block_norm(x2: float, x3: float, x4: float) -> float:
    """b, the magnitude of the (x2, x3, x4) block."""
    return math.sqrt(x2 * x2 + x3 * x3 + x4 * x4)


@dataclass(frozen=True, slots=True, init=False)
class S4Point:
    """Cartesian point on the unit 4-sphere embedded in R^5.

    b is the non-negative magnitude of the (x2, x3, x4) block (the signed
    version lives on the coordinate branches, not here) and c the magnitude
    of the (x2, x3) sub-block.
    """

    x0: float
    x1: float
    x2: float
    x3: float
    x4: float

    def __init__(self, x0: float, x1: float, x2: float, x3: float, x4: float):
        _set_x0(self, x0)
        _set_x1(self, x1)
        _set_x2(self, x2)
        _set_x3(self, x3)
        _set_x4(self, x4)

    @property
    def b(self) -> float:
        return _block_norm(self.x2, self.x3, self.x4)

    @property
    def c(self) -> float:
        return math.hypot(self.x2, self.x3)

    def validate(self) -> None:
        _validate(self.x0, self.x1, self.x2, self.x3, self.x4)


_set_x0, _set_x1, _set_x2, _set_x3, _set_x4 = _slot_setters(S4Point)


@dataclass(frozen=True, slots=True)
class BaseAngles:
    """Angle parameterization of an S^4 point, with degeneracy flags."""

    theta: float
    phi: float
    chi: float
    xi: float
    flags: frozenset[CoordFlag]


def h1(q0: Quaternion, q1: Quaternion) -> Quaternion:
    """Map a unit quaternion pair to Q = q1 * conj(q0) / |q1|^2 in R^4.

    Right multiplication of both inputs by a common unit quaternion leaves
    Q unchanged (the multiplier is the fiber).  Raises FiberAtInfinity when
    |q1| vanishes: that pair belongs to the excluded north pole and the
    caller must use (1,0,0,0,0) directly.
    """
    w0, x0, y0, z0 = q0.w, q0.x, q0.y, q0.z
    w1, x1, y1, z1 = q1.w, q1.x, q1.y, q1.z
    # the sums of q0.norm_squared() + q1.norm_squared(), in their order
    n2 = w1 * w1 + x1 * x1 + y1 * y1 + z1 * z1
    total = (w0 * w0 + x0 * x0 + y0 * y0 + z0 * z0) + n2
    if not (abs(total - 1.0) <= EPS_UNIT):
        raise NotNormalized(f"|q0|^2 + |q1|^2 = {total:.12g}, expected 1")
    if n2 <= EPS_ZERO * EPS_ZERO:
        raise FiberAtInfinity("q1 = 0 maps to the excluded north pole")
    # (q1 * q0.conjugate()) * (1.0 / n2), without the intermediate objects
    r = 1.0 / n2
    w, x, y, z = _hamilton(w1, x1, y1, z1, w0, -x0, -y0, -z0)
    return Quaternion(w * r, x * r, y * r, z * r)


def inverse_stereographic(q: Quaternion) -> S4Point:
    """Lift the R^4 point Q onto the unit 4-sphere (origin to the south pole)."""
    n2 = q.norm_squared()
    d = n2 + 1.0
    return S4Point((n2 - 1.0) / d, 2.0 * q.w / d, 2.0 * q.x / d,
                   2.0 * q.y / d, 2.0 * q.z / d)


def base_from_angles(theta: float, phi: float, chi: float, xi: float) -> S4Point:
    """Cartesian S^4 coordinates from (theta, phi) and the t-sphere (chi, xi).

    x0 = cos(theta), x1 = sin(theta)cos(phi), and the remaining block is
    b*t with b = sin(theta)sin(phi), t = (sin(chi)cos(xi), sin(chi)sin(xi),
    cos(chi)).
    """
    x1, b, x0 = _sphere_point(theta, phi)
    sc = math.sin(chi)
    return S4Point(
        x0,
        x1,
        b * sc * math.cos(xi),
        b * sc * math.sin(xi),
        b * math.cos(chi),
    )


def angles_from_base(p: S4Point) -> BaseAngles:
    """Invert ``base_from_angles`` on the b >= 0 branch.

    Degenerate directions fall back to fixed conventions and are flagged:
    phi := 0 at the poles sin(theta) ~ 0; (chi, xi) := (0, 0) i.e. t = k when
    b ~ 0; xi := 0 when c ~ 0 with b != 0 (t at a pole of its own sphere).
    Raises OffSphere for points off the unit 4-sphere.
    """
    theta, phi, chi, xi, flags = _base_angles(p.x0, p.x1, p.x2, p.x3, p.x4)
    return BaseAngles(theta, phi, chi, xi, frozenset(flags))


def _base_angles(x0: float, x1: float, x2: float, x3: float,
                 x4: float) -> tuple[float, float, float, float, tuple]:
    """``angles_from_base`` on bare floats: (theta, phi, chi, xi, flags)."""
    _validate(x0, x1, x2, x3, x4)
    flags = ()

    b = _block_norm(x2, x3, x4)
    st = math.hypot(x1, b)
    theta = math.atan2(st, x0)

    if st <= EPS_ZERO:
        phi = 0.0
        flags = _PHI_A_FLAGS
    else:
        phi = math.atan2(b, x1)  # b >= 0 keeps phi in [0, pi]

    if b <= EPS_ZERO:
        return theta, phi, 0.0, 0.0, flags + _T_FLAGS
    c = math.hypot(x2, x3)
    chi = math.atan2(c, x4)
    if c <= EPS_ZERO:
        return theta, phi, chi, 0.0, flags + _XI_FLAGS
    return theta, phi, chi, wrap_angle(math.atan2(x3, x2)), flags
