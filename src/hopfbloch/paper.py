"""The paper's alternative routes to quantities the main pipeline computes.

Each function here derives something a second way: the stereographic
projection (inverse of ``hopf.inverse_stereographic``), the split of the
base point into b and the unit t, the quasi-density shortcut column that
reads off the base data and q_B without the angle detour, the conjugation
rotation of a pure unit quaternion, and the pinned-phase state family.
They serve as independent oracles for the main route and are not part of
the top-level API.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bloch import _base_point
from .errors import NorthPole, NotNormalized, NotUnit
from .hopf import CoordFlag, S4Point
from .quaternion import PureUnitQuaternion, Quaternion
from .state import TwoQubitState, quasi_state
from .tolerances import EPS_UNIT, EPS_ZERO


def stereographic(p: S4Point) -> Quaternion:
    """Project the 4-sphere minus the north pole back onto R^4."""
    if p.x0 >= 1.0 - EPS_ZERO:
        raise NorthPole("x0 = 1 is the projection point")
    d = 1.0 - p.x0
    return Quaternion(p.x1 / d, p.x2 / d, p.x3 / d, p.x4 / d)


def split_t(p: S4Point) -> tuple[float, PureUnitQuaternion, frozenset[CoordFlag]]:
    """Split the (x2, x3, x4) block into b >= 0 and the unit t direction.

    Falls back to t = k (flagged) when b vanishes.
    """
    b = p.b
    if b <= EPS_ZERO:
        return 0.0, PureUnitQuaternion(0.0, 0.0, 1.0), frozenset({CoordFlag.T_UNDEFINED})
    return b, PureUnitQuaternion(p.x2 / b, p.x3 / b, p.x4 / b), frozenset()


@dataclass(frozen=True, slots=True)
class ShortcutBase:
    """Base data read off the first column of the quasi-density matrix."""

    x0: float
    x1: float
    b: float
    t: PureUnitQuaternion
    column: tuple[Quaternion, Quaternion]
    flags: frozenset[CoordFlag]


def shortcut_base(s: TwoQubitState) -> ShortcutBase:
    """(x0, x1, b, t) without the angle detour, plus the unit column
    (1 + x0, x1 + b*t) / sqrt(2 (1 + x0)) whose conjugate reads out q_B.

    Raises SouthPoleA when 1 + x0 vanishes (the column is degenerate).
    """
    p = _base_point(s)
    b, t, flags = split_t(p)
    scale = 1.0 / math.sqrt(2.0 * (1.0 + p.x0))
    col0 = Quaternion(scale * (1.0 + p.x0), 0.0, 0.0, 0.0)
    col1 = Quaternion(scale * p.x1, scale * p.x2, scale * p.x3, scale * p.x4)
    return ShortcutBase(p.x0, p.x1, b, t, (col0, col1), flags)


def fiber_quaternion(s: TwoQubitState) -> Quaternion:
    """q_B via the quasi-density shortcut: conj(column) dotted into the pair."""
    sc = shortcut_base(s)
    c0, c1 = sc.column
    qs = quasi_state(s)
    return c0.conjugate() * qs.q0 + c1.conjugate() * qs.q1


def conjugate_rotate(q: Quaternion, t: PureUnitQuaternion) -> PureUnitQuaternion:
    """Rotate the unit t by a unit quaternion q as conj(q) * t * q.

    For q = exp(k*zeta) this turns t clockwise around the k axis by 2*zeta.
    The opposite sandwich q * t * conj(q) is obtained by passing conj(q).
    """
    if not (abs(q.norm() - 1.0) <= EPS_UNIT):
        raise NotUnit(f"rotor norm {q.norm():.12g} is not 1")
    # conj(q) t q has norm |q|^2, which may sit up to 2*EPS_UNIT off 1
    r = q.conjugate() * t.as_quaternion() * q
    return PureUnitQuaternion.from_quaternion(r * (1.0 / q.norm_squared()))


def phase_family_state(a: float, b: float, c: float, d: float,
                       phi1: float, phi2: float, eta: float = 0.0) -> TwoQubitState:
    """State with a pinned concurrence phase and free pairwise phases.

    Amplitudes e^(k*eta) * (a e^(-k*phi1), b e^(-k*phi2), c e^(k*phi2),
    d e^(k*phi1)) for non-negative a, b, c, d; the amplitude determinant is
    (a*d - b*c) e^(2k*eta), so the concurrence is 2|a*d - b*c|.
    """
    if min(a, b, c, d) < 0.0:
        raise ValueError("magnitudes a, b, c, d must be non-negative")
    n = math.sqrt(a * a + b * b + c * c + d * d)
    if abs(n - 1.0) > EPS_UNIT:
        raise NotNormalized(f"magnitude vector norm {n:.12g} is not 1")
    g = cmath.exp(1j * eta)
    return TwoQubitState(g * a * cmath.exp(-1j * phi1),
                         g * b * cmath.exp(-1j * phi2),
                         g * c * cmath.exp(1j * phi2),
                         g * d * cmath.exp(1j * phi1))
