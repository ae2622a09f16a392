"""Real quaternion algebra with a variable imaginary unit.

Component order is (w, x, y, z) for q = w + x*i + y*j + z*k.  Throughout the
package the k component doubles as the ordinary complex imaginary unit: a
complex number z embeds as z.real + z.imag*k, and every quaternion splits as
q = u + v*j with complex u, v (see ``to_complex_pair``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Map an angle into [0, 2*pi).  Values within one ulp of 2*pi wrap to 0."""
    if 0.0 <= a < TWO_PI:
        return a  # fmod is the identity here, -0.0 included
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:
        a = 0.0
    return a


def _wrapped_distance(a: float, b: float) -> float:
    """angle_distance of two angles already in [0, 2*pi)."""
    d = abs(a - b)
    e = TWO_PI - d
    # min(d, e) spelled as a comparison, which is cheaper than the builtin
    # call: min keeps d unless e < d, NaN and -0.0 included
    return e if e < d else d


def angle_distance(a: float, b: float) -> float:
    """Wrap-aware distance between two angles, in [0, pi]."""
    return _wrapped_distance(wrap_angle(a), wrap_angle(b))


def _sphere_point(polar: float, azimuth: float) -> tuple[float, float, float]:
    """The unit vector at polar angle `polar` from +z, azimuth from +x to +y."""
    s = math.sin(polar)
    return s * math.cos(azimuth), s * math.sin(azimuth), math.cos(polar)


def _hamilton(w1: float, x1: float, y1: float, z1: float, w2: float, x2: float,
              y2: float, z2: float) -> tuple[float, float, float, float]:
    """The Hamilton product (w1 + x1*i + y1*j + z1*k)(w2 + x2*i + y2*j + z2*k)
    on bare floats, as its (w, x, y, z)."""
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _slot_setters(cls: type) -> tuple:
    """The __set__ of each field's slot, in field order: the hand-written
    __init__ of a frozen dataclass stores each field once through these,
    which skips the frozen __setattr__."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Quaternion:
    """q = w + x*i + y*j + z*k with real coefficients."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __init__(self, w: float = 0.0, x: float = 0.0, y: float = 0.0,
                 z: float = 0.0):
        _set_w(self, w)
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        """Hamilton product (non-commutative), or scaling by a real number."""
        if isinstance(other, Quaternion):
            return Quaternion(*_hamilton(self.w, self.x, self.y, self.z,
                                         other.w, other.x, other.y, other.z))
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "Quaternion":
        """Sign-flip of the i, j, k parts."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_squared(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


_set_w, _set_x, _set_y, _set_z = _slot_setters(Quaternion)


def to_complex_pair(q: Quaternion) -> tuple[complex, complex]:
    """Split q = u + v*j into complex u, v, with k as the complex unit.

    Expanding (a + b*k) + (c + d*k)*j = a - d*i + c*j + b*k gives
    u = w + z*k and v = y - x*k.  Exact inverse of ``from_complex_pair``.
    """
    return complex(q.w, q.z), complex(q.y, -q.x)


def from_complex_pair(u: complex, v: complex) -> Quaternion:
    """Assemble u + v*j from two complex numbers (k as the complex unit)."""
    return Quaternion(u.real, -v.imag, v.real, u.imag)


@dataclass(frozen=True, slots=True)
class PureUnitQuaternion:
    """A pure (zero real part) unit quaternion: a point on the 2-sphere.

    Squares to -1, so it serves as a variable imaginary unit.  Polar angle
    chi in [0, pi] is measured from the k axis, azimuth xi in [0, 2*pi)
    from the i axis toward j.
    """

    tx: float
    ty: float
    tz: float

    @classmethod
    def from_angles(cls, chi: float, xi: float) -> "PureUnitQuaternion":
        return cls(*_sphere_point(chi, xi))


def exp_pure(t: PureUnitQuaternion, phi: float) -> Quaternion:
    """exp(t*phi) = cos(phi) + t*sin(phi); always unit norm."""
    c, s = math.cos(phi), math.sin(phi)
    return Quaternion(c, s * t.tx, s * t.ty, s * t.tz)
