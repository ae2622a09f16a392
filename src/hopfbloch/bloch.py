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
from .hopf import CoordFlag, S4Point, _base_angles, base_from_angles
from .quaternion import (
    TWO_PI,
    PureUnitQuaternion,
    _slot_setters,
    _wrapped_distance,
    angle_distance,
    wrap_angle,
)
from .state import TwoQubitState
from .tolerances import EPS_NUM, EPS_ZERO


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, theta_a: float, phi_a: float, chi: float, xi: float,
                 theta_b: float, phi_b: float, zeta_b: float,
                 flags: frozenset[CoordFlag] = frozenset()):
        _set_theta_a(self, theta_a)
        _set_phi_a(self, phi_a)
        _set_chi(self, chi)
        _set_xi(self, xi)
        _set_theta_b(self, theta_b)
        _set_phi_b(self, phi_b)
        _set_zeta_b(self, zeta_b)
        _set_flags(self, flags)

    def angles(self) -> tuple[float, float, float, float, float, float, float]:
        return (self.theta_a, self.phi_a, self.chi, self.xi,
                self.theta_b, self.phi_b, self.zeta_b)

    @property
    def b(self) -> float:
        """Signed: negative on the non-canonical branch."""
        return math.sin(self.theta_a) * math.sin(self.phi_a)

    @property
    def t(self) -> PureUnitQuaternion:
        return PureUnitQuaternion.from_angles(self.chi, self.xi)

    @property
    def concurrence(self) -> float:
        return _concurrence(self.theta_a, self.phi_a, self.chi)

    @property
    def s4_point(self) -> S4Point:
        return base_from_angles(self.theta_a, self.phi_a, self.chi, self.xi)


def _concurrence(theta_a: float, phi_a: float, chi: float) -> float:
    """``BlochCoordinates.concurrence``, |b sin(chi)|, on the angles."""
    return abs(math.sin(theta_a) * math.sin(phi_a) * math.sin(chi))


(_set_theta_a, _set_phi_a, _set_chi, _set_xi, _set_theta_b, _set_phi_b,
 _set_zeta_b, _set_flags) = _slot_setters(BlochCoordinates)


# bound once for the per-sample path (see hopf._PHI_A_FLAGS)
_T_UNDEFINED = CoordFlag.T_UNDEFINED
_XI_UNDEFINED = CoordFlag.XI_UNDEFINED
_THETA_B_PI_FLAGS = (CoordFlag.THETA_B_PI_AMBIGUOUS,)
_PHI_B_FLAGS = (CoordFlag.PHI_B_UNDEFINED,)
_SOUTH_POLE_FLAGS = (CoordFlag.SOUTH_POLE_A, CoordFlag.PHI_A_UNDEFINED,
                     _T_UNDEFINED, _XI_UNDEFINED)


def _fiber_angles(u: complex, v: complex) -> tuple[float, float, float, tuple]:
    """(theta_b, phi_b, zeta_b, flags) from the complex split of q_B."""
    au, av = abs(u), abs(v)
    theta_b = 2.0 * math.atan2(av, au)
    if au <= EPS_ZERO:
        # theta_b ~ pi: phi_b and zeta_b are interchangeable; pin zeta_b = 0
        return theta_b, wrap_angle(cmath.phase(v)), 0.0, _THETA_B_PI_FLAGS
    zeta_b = wrap_angle(cmath.phase(u))
    if av <= EPS_ZERO:
        return theta_b, 0.0, zeta_b, _PHI_B_FLAGS
    return theta_b, wrap_angle(cmath.phase(v) + zeta_b), zeta_b, ()


def south_pole_coords(exc: SouthPoleA) -> BlochCoordinates:
    """Conventional coordinates for a |1>_A (x) |psi_B> state."""
    u, v = exc.psi_b
    theta_b, phi_b, zeta_b, fiber_flags = _fiber_angles(u, v)
    return BlochCoordinates(math.pi, 0.0, 0.0, 0.0, theta_b, phi_b, zeta_b,
                            frozenset(_SOUTH_POLE_FLAGS + fiber_flags))


def _extract(a: complex, b: complex, g: complex, d: complex) -> tuple:
    """``extract`` on the amplitudes: (theta_a, phi_a, chi, xi, theta_b,
    phi_b, zeta_b, flags), with flags a tuple of CoordFlag.

    The base point comes from the amplitude bilinears, and each amplitude's
    modulus is taken once, for both x0 and cos/sin(theta_a/2).  Raises
    SouthPoleA only for |1>_A (x) |psi_B>, alpha = beta = 0 exactly.
    """
    ma, mb, mg, md = abs(a), abs(b), abs(g), abs(d)
    if a == 0 and b == 0:
        n = math.sqrt(mg ** 2 + md ** 2)
        raise SouthPoleA((g / n, d / n))
    col = 2.0 * (a.conjugate() * g + b.conjugate() * d)
    det2 = 2.0 * (a * d - b * g)
    theta_a, phi_a, chi, xi, flags = _base_angles(
        ma ** 2 + mb ** 2 - mg ** 2 - md ** 2, col.real, -det2.imag,
        det2.real, col.imag)

    # fiber: q_B = cos(theta_a/2) q0 + sin(theta_a/2) exp(-t phi_a) q1 with
    # q0 = alpha + beta*j, q1 = gamma + delta*j, split as q_B = u + v*j.
    # Every product and sum is the one of the Quaternion route (exp_pure,
    # Quaternion.__mul__ and __add__, to_complex_pair), operands in the same
    # order, which keeps the results bit-identical to it.
    # cos(theta_a/2) = |q0| and sin(theta_a/2) = |q1|, free of cancellation
    ch = math.hypot(ma, mb)
    sh = math.hypot(mg, md)
    # t is _sphere_point(chi, xi), written out here to spare a call
    sc = math.sin(chi)
    tx, ty, tz = sc * math.cos(xi), sc * math.sin(xi), math.cos(chi)
    ew, sn = math.cos(-phi_a), math.sin(-phi_a)
    ex, ey, ez = sn * tx, sn * ty, sn * tz  # exp(-t phi_a) = ew + (ex, ey, ez)
    qw, qx, qy, qz = g.real, -d.imag, d.real, g.imag  # q1
    u = complex(ch * a.real + sh * (ew * qw - ex * qx - ey * qy - ez * qz),
                ch * a.imag + sh * (ew * qz + ex * qy - ey * qx + ez * qw))
    v = complex(ch * b.real + sh * (ew * qy - ex * qz + ey * qw + ez * qx),
                -(ch * -b.imag + sh * (ew * qx + ex * qw + ey * qz - ez * qy)))
    theta_b, phi_b, zeta_b, fiber_flags = _fiber_angles(u, v)
    return (theta_a, phi_a, chi, xi, theta_b, phi_b, zeta_b,
            flags + fiber_flags)


# shared by every unflagged result, so that extract builds no set for it
_NO_FLAGS = frozenset()


def extract(s: TwoQubitState) -> BlochCoordinates:
    """The seven angles of a state, on the canonical b >= 0 branch.

    Raises SouthPoleA (carrying the normalized qubit-B amplitudes) only at
    alpha = beta = 0 exactly, |1>_A (x) |psi_B>, where the model is undefined.
    """
    r = _extract(s.alpha, s.beta, s.gamma, s.delta)
    flags = r[7]
    return BlochCoordinates(r[0], r[1], r[2], r[3], r[4], r[5], r[6],
                            frozenset(flags) if flags else _NO_FLAGS)


def _check_range(name: str, value: float, closed_pi: bool) -> float:
    hi = math.pi if closed_pi else TWO_PI
    if not math.isfinite(value) or value < -EPS_NUM or value > hi + EPS_NUM:
        raise OutOfRange(f"{name} = {value!r} outside [0, {'pi' if closed_pi else '2*pi'}"
                         f"{']' if closed_pi else ')'}")
    if closed_pi:
        return min(max(value, 0.0), math.pi)
    return wrap_angle(value)


def _reconstruct(theta_a: float, phi_a: float, chi: float, xi: float,
                 theta_b: float, phi_b: float, zeta_b: float) -> tuple:
    """``reconstruct`` on the seven angles: (alpha, beta, gamma, delta)
    before TwoQubitState normalizes them.

    Angles in range pass unchanged, as _check_range would return them
    (-0.0 included), so it runs only when one comparison finds an angle off
    its range (NaN too): there it clamps within EPS_NUM or raises OutOfRange.
    """
    pi = math.pi
    if not (0.0 <= theta_a <= pi and 0.0 <= theta_b <= pi and 0.0 <= chi <= pi
            and 0.0 <= phi_a < TWO_PI and 0.0 <= phi_b < TWO_PI
            and 0.0 <= zeta_b < TWO_PI and 0.0 <= xi < TWO_PI):
        theta_a = _check_range("theta_a", theta_a, True)
        theta_b = _check_range("theta_b", theta_b, True)
        chi = _check_range("chi", chi, True)
        phi_a = _check_range("phi_a", phi_a, False)
        phi_b = _check_range("phi_b", phi_b, False)
        zeta_b = _check_range("zeta_b", zeta_b, False)
        xi = _check_range("xi", xi, False)

    ca, sa = math.cos(0.5 * theta_a), math.sin(0.5 * theta_a)
    cb, sb = math.cos(0.5 * theta_b), math.sin(0.5 * theta_b)
    gz = cmath.exp(1j * zeta_b)
    gp = cmath.exp(1j * (phi_b - zeta_b))
    axial = complex(math.cos(phi_a), math.sin(phi_a) * math.cos(chi))
    swirl = 1j * math.sin(phi_a) * math.sin(chi) * cmath.exp(1j * (xi - phi_b))
    return (ca * cb * gz, ca * sb * gp, sa * (axial * cb + swirl * sb) * gz,
            sa * (axial * sb - swirl * cb) * gp)


def reconstruct(c: BlochCoordinates) -> TwoQubitState:
    """Amplitudes from the seven angles (closed form, k as the complex unit).

    An angle off its range is clamped within EPS_NUM, or raises OutOfRange.
    """
    a, b, g, d = _reconstruct(c.theta_a, c.phi_a, c.chi, c.xi, c.theta_b,
                              c.phi_b, c.zeta_b)
    return TwoQubitState(a, b, g, d)


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


def _flipped_angles(c: BlochCoordinates) -> tuple[float, float, float]:
    """(phi_a, chi, xi) after (b, t) -> (-b, -t): phi_a reflects, t passes
    to its antipode."""
    xi = c.xi if _XI_UNDEFINED in c.flags else wrap_angle(c.xi + math.pi)
    return wrap_angle(-c.phi_a), math.pi - c.chi, xi


def _flip_branch(c: BlochCoordinates) -> BlochCoordinates:
    phi_a, chi, xi = _flipped_angles(c)
    return BlochCoordinates(c.theta_a, phi_a, chi, xi, c.theta_b, c.phi_b,
                            c.zeta_b, c.flags)


def _has_twin(c: BlochCoordinates) -> bool:
    """False when b ~ 0, where (-b, -t) names no other point."""
    return not (_T_UNDEFINED in c.flags or abs(c.b) <= EPS_ZERO)


def alternate(c: BlochCoordinates) -> BlochCoordinates:
    """The (-b, -t) twin of the same state, or c itself when b ~ 0."""
    return _flip_branch(c) if _has_twin(c) else c


def canonicalize(c: BlochCoordinates) -> BlochCoordinates:
    """Return the b >= 0 branch; idempotent, state-preserving."""
    if c.b < -EPS_ZERO:
        return _flip_branch(c)
    return c


def coords_distance(c1: BlochCoordinates, c2: BlochCoordinates) -> float:
    """Wrap-aware sum of the seven angle distances."""
    return sum(angle_distance(a1, a2)
               for a1, a2 in zip(c1.angles(), c2.angles()))


def _nearer_branch(c: BlochCoordinates,
                   prev: BlochCoordinates) -> BlochCoordinates:
    """alternate(c) when it is coords_distance-closer to prev than c is,
    else c; the twin is built only when it is chosen.

    Every angle of c and prev must already lie in [0, 2*pi), as those of
    extract, south_pole_coords and _flip_branch do: the distances then skip
    coords_distance's wrap, on which such angles are the identity.  The
    twin shares theta_a, theta_b, phi_b and zeta_b with c, so those four
    distances are taken once.  Both sums keep coords_distance's
    left-to-right order, so ties resolve as they do through it.

    The twin's three own distances (phi_a, chi, xi) come first.  If none is
    smaller than c's, c is returned without the four shared ones: rounded
    addition is monotone, so each partial sum of the twin's is then >= the
    matching one of c's, and twin < canon cannot hold.  A NaN distance fails
    that test and goes on to the full comparison.
    """
    if not _has_twin(c):
        return c
    phi_a, chi, xi = _flipped_angles(c)
    t_phi_a = _wrapped_distance(phi_a, prev.phi_a)
    t_chi = _wrapped_distance(chi, prev.chi)
    t_xi = _wrapped_distance(xi, prev.xi)
    c_phi_a = _wrapped_distance(c.phi_a, prev.phi_a)
    c_chi = _wrapped_distance(c.chi, prev.chi)
    c_xi = _wrapped_distance(c.xi, prev.xi)
    if t_phi_a >= c_phi_a and t_chi >= c_chi and t_xi >= c_xi:
        return c
    d_theta_a = _wrapped_distance(c.theta_a, prev.theta_a)
    d_theta_b = _wrapped_distance(c.theta_b, prev.theta_b)
    d_phi_b = _wrapped_distance(c.phi_b, prev.phi_b)
    d_zeta_b = _wrapped_distance(c.zeta_b, prev.zeta_b)
    twin = d_theta_a + t_phi_a + t_chi + t_xi + d_theta_b + d_phi_b + d_zeta_b
    canon = d_theta_a + c_phi_a + c_chi + c_xi + d_theta_b + d_phi_b + d_zeta_b
    return _flip_branch(c) if twin < canon else c
