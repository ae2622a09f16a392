"""Seven-angle Bloch coordinates for a two-qubit pure state.

The coordinate set is (theta_a, phi_a) on the qubit-A quasi-Bloch sphere,
(chi, xi) on the entanglement sphere carrying the variable imaginary unit t,
(theta_b, phi_b) on the qubit-B quasi-Bloch sphere, and the fiber phase
zeta_b.  Extraction runs in four steps: the polar coordinate x0 from the
amplitude magnitudes, the (x1, x4) block from the column overlap, the
(x2, x3) block from the amplitude determinant, and finally the fiber
quaternion q_B once the base angles are known.

Two conventions matter everywhere: the canonical branch keeps
b = sin(theta_a) sin(phi_a) >= 0 (the (-b, -t) twin describes the same
state), and zeta_b is a true global phase only after shifting xi and phi_b
down by 2*zeta_b.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import OutOfRange, SouthPoleA
from .hopf import CoordFlag, S4Point, angles_from_base, base_from_angles
from .quaternion import (
    TWO_PI,
    PureUnitQuaternion,
    angle_distance,
    exp_pure,
    to_complex_pair,
    wrap_angle,
)
from .state import TwoQubitState, quasi_state
from .tolerances import EPS_DEGENERATE, EPS_NUM, EPS_ZERO


@dataclass(frozen=True, slots=True)
class BlochCoordinates:
    """The seven angles plus degeneracy flags.

    Ranges: theta_a, theta_b, chi in [0, pi]; phi_a, phi_b, zeta_b, xi in
    [0, 2*pi).  phi_a beyond pi encodes the non-canonical b < 0 branch.
    """

    theta_a: float
    phi_a: float
    chi: float
    xi: float
    theta_b: float
    phi_b: float
    zeta_b: float
    flags: frozenset[CoordFlag] = frozenset()

    def angles(self) -> tuple[float, float, float, float, float, float, float]:
        return (self.theta_a, self.phi_a, self.chi, self.xi,
                self.theta_b, self.phi_b, self.zeta_b)

    @property
    def x0(self) -> float:
        return math.cos(self.theta_a)

    @property
    def x1(self) -> float:
        return math.sin(self.theta_a) * math.cos(self.phi_a)

    @property
    def b(self) -> float:
        """Signed: negative on the non-canonical branch."""
        return math.sin(self.theta_a) * math.sin(self.phi_a)

    @property
    def t(self) -> PureUnitQuaternion:
        return PureUnitQuaternion.from_angles(self.chi, self.xi)

    @property
    def concurrence(self) -> float:
        return abs(self.b * math.sin(self.chi))

    @property
    def s4_point(self) -> S4Point:
        return base_from_angles(self.theta_a, self.phi_a, self.chi, self.xi)

    @property
    def qubit_b_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta_b)
        return (st * math.cos(self.phi_b), st * math.sin(self.phi_b),
                math.cos(self.theta_b))


def _fiber_angles(u: complex, v: complex) -> tuple[float, float, float, set]:
    """(theta_b, phi_b, zeta_b, flags) from the complex split of q_B."""
    au, av = abs(u), abs(v)
    theta_b = 2.0 * math.atan2(av, au)
    flags = set()
    if au <= EPS_ZERO:
        # theta_b ~ pi: phi_b and zeta_b are interchangeable; pin zeta_b = 0
        zeta_b = 0.0
        phi_b = wrap_angle(cmath.phase(v))
        flags.add(CoordFlag.THETA_B_PI_AMBIGUOUS)
    elif av <= EPS_ZERO:
        zeta_b = wrap_angle(cmath.phase(u))
        phi_b = 0.0
        flags.add(CoordFlag.PHI_B_UNDEFINED)
    else:
        zeta_b = wrap_angle(cmath.phase(u))
        phi_b = wrap_angle(cmath.phase(v) + zeta_b)
    return theta_b, phi_b, zeta_b, flags


def south_pole_coords(exc: SouthPoleA) -> BlochCoordinates:
    """Conventional coordinates for a |1>_A (x) |psi_B> state."""
    u, v = exc.psi_b
    theta_b, phi_b, zeta_b, fiber_flags = _fiber_angles(u, v)
    flags = {CoordFlag.SOUTH_POLE_A, CoordFlag.PHI_A_UNDEFINED,
             CoordFlag.T_UNDEFINED, CoordFlag.XI_UNDEFINED}
    flags.update(fiber_flags)
    return BlochCoordinates(math.pi, 0.0, 0.0, 0.0, theta_b, phi_b, zeta_b,
                            frozenset(flags))


def _base_point(s: TwoQubitState) -> S4Point:
    """The five base coordinates from the amplitude bilinears.

    Raises SouthPoleA for |1>_A (x) |psi_B>, where 1 + x0 vanishes.
    """
    a, b, g, d = s.amplitudes()
    x0 = abs(a) ** 2 + abs(b) ** 2 - abs(g) ** 2 - abs(d) ** 2
    if 1.0 + x0 <= EPS_DEGENERATE:
        n = math.sqrt(abs(g) ** 2 + abs(d) ** 2)
        raise SouthPoleA((g / n, d / n))
    col = 2.0 * (a.conjugate() * g + b.conjugate() * d)
    det2 = 2.0 * (a * d - b * g)
    return S4Point(x0, col.real, -det2.imag, det2.real, col.imag)


def extract(s: TwoQubitState) -> BlochCoordinates:
    """The seven angles of a state, on the canonical b >= 0 branch.

    Raises SouthPoleA (carrying the normalized qubit-B amplitudes) for
    states of the form |1>_A (x) |psi_B>, where the model is undefined.
    """
    p = _base_point(s)
    base = angles_from_base(p)
    flags = set(base.flags)

    # fiber: q_B = cos(theta_a/2) q0 + sin(theta_a/2) exp(-t phi_a) q1
    # (x0 can land one ulp outside [-1, 1])
    ch = math.sqrt(max(0.0, 0.5 * (1.0 + p.x0)))
    sh = math.sqrt(max(0.0, 0.5 * (1.0 - p.x0)))
    t = PureUnitQuaternion.from_angles(base.chi, base.xi)
    qs = quasi_state(s)
    q_b = ch * qs.q0 + sh * (exp_pure(t, -base.phi) * qs.q1)
    u, v = to_complex_pair(q_b)
    theta_b, phi_b, zeta_b, fiber_flags = _fiber_angles(u, v)
    flags.update(fiber_flags)

    return BlochCoordinates(base.theta, base.phi, base.chi, base.xi,
                            theta_b, phi_b, zeta_b, frozenset(flags))


def _check_range(name: str, value: float, closed_pi: bool) -> float:
    hi = math.pi if closed_pi else TWO_PI
    if not math.isfinite(value) or value < -EPS_NUM or value > hi + EPS_NUM:
        raise OutOfRange(f"{name} = {value!r} outside [0, {'pi' if closed_pi else '2*pi'}"
                         f"{']' if closed_pi else ')'}")
    if closed_pi:
        return min(max(value, 0.0), math.pi)
    return wrap_angle(value)


def reconstruct(c: BlochCoordinates) -> TwoQubitState:
    """Amplitudes from the seven angles (closed form, k as the complex unit)."""
    theta_a = _check_range("theta_a", c.theta_a, True)
    theta_b = _check_range("theta_b", c.theta_b, True)
    chi = _check_range("chi", c.chi, True)
    phi_a = _check_range("phi_a", c.phi_a, False)
    phi_b = _check_range("phi_b", c.phi_b, False)
    zeta_b = _check_range("zeta_b", c.zeta_b, False)
    xi = _check_range("xi", c.xi, False)

    ca, sa = math.cos(0.5 * theta_a), math.sin(0.5 * theta_a)
    cb, sb = math.cos(0.5 * theta_b), math.sin(0.5 * theta_b)
    gz = cmath.exp(1j * zeta_b)
    gp = cmath.exp(1j * (phi_b - zeta_b))
    axial = complex(math.cos(phi_a), math.sin(phi_a) * math.cos(chi))
    swirl = 1j * math.sin(phi_a) * math.sin(chi) * cmath.exp(1j * (xi - phi_b))

    return TwoQubitState(
        ca * cb * gz,
        ca * sb * gp,
        sa * (axial * cb + swirl * sb) * gz,
        sa * (axial * sb - swirl * cb) * gp,
    )


def normalize_global_phase(c: BlochCoordinates) -> BlochCoordinates:
    """Push the fiber phase into the amplitudes: zeta_b -> 0 with xi and
    phi_b each shifted down by 2*zeta_b.

    The result reconstructs to exp(-k*zeta_b) times the original state.
    Flagged conventional angles stay at their conventions.
    """
    if c.zeta_b == 0.0:
        return c
    shift = 2.0 * c.zeta_b
    xi = c.xi if CoordFlag.XI_UNDEFINED in c.flags else wrap_angle(c.xi - shift)
    # a flagged phi_b is inert (theta_b ~ 0), so its convention survives
    phi_b = (c.phi_b if CoordFlag.PHI_B_UNDEFINED in c.flags
             else wrap_angle(c.phi_b - shift))
    return replace(c, xi=xi, phi_b=phi_b, zeta_b=0.0)


def _flip_branch(c: BlochCoordinates) -> BlochCoordinates:
    """(b, t) -> (-b, -t): phi_a reflects, t passes to its antipode."""
    xi = c.xi if CoordFlag.XI_UNDEFINED in c.flags else wrap_angle(c.xi + math.pi)
    return replace(c, phi_a=wrap_angle(-c.phi_a), chi=math.pi - c.chi, xi=xi)


def alternate(c: BlochCoordinates) -> BlochCoordinates:
    """The (-b, -t) twin of the same state, or c itself when b ~ 0."""
    if CoordFlag.T_UNDEFINED in c.flags or abs(c.b) <= EPS_ZERO:
        return c
    return _flip_branch(c)


def canonicalize(c: BlochCoordinates) -> BlochCoordinates:
    """Return the b >= 0 branch; idempotent, state-preserving."""
    if c.b < -EPS_ZERO:
        return _flip_branch(c)
    return c


def coords_distance(c1: BlochCoordinates, c2: BlochCoordinates) -> float:
    """Wrap-aware sum of the seven angle distances."""
    return sum(angle_distance(a1, a2)
               for a1, a2 in zip(c1.angles(), c2.angles()))
