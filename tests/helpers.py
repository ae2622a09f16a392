"""Shared test utilities: random generators, independent dense oracles, the
paper's alternative routes, and the quaternion constants and constructors
that only the tests use."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from hopfbloch import (
    Basis,
    BlochCoordinates,
    CoordFlag,
    FiberAtInfinity,
    HopfBlochError,
    NotNormalized,
    OutOfRange,
    QuasiDensity,
    Quaternion,
    S4Point,
    SouthPoleA,
    TwoQubitState,
    angles_from_base,
    concurrence,
    extract,
    h1,
    inverse_stereographic,
    phase_aligned_distance,
    quasi_density,
    quasi_state,
    reconstruct,
    wrap_angle,
)
from hopfbloch.bloch import _check_range, _fiber_angles
from hopfbloch.cli import _ANGLES, _CSV_HEADER, _flag_names
from hopfbloch.gates import Trajectory
from hopfbloch.quaternion import PureUnitQuaternion, exp_pure, to_complex_pair
from hopfbloch.tolerances import EPS_UNIT, EPS_ZERO


def random_states(rng, count):
    """Haar-ish random normalized two-qubit states."""
    raw = rng.normal(size=(count, 8))
    out = []
    for row in raw:
        vec = row[0::2] + 1j * row[1::2]
        vec /= np.linalg.norm(vec)
        out.append(TwoQubitState(complex(vec[0]), complex(vec[1]),
                                 complex(vec[2]), complex(vec[3])))
    return out


def random_product_states(rng, count):
    """Tensor products of random single-qubit states."""
    raw = rng.normal(size=(count, 8))
    out = []
    for row in raw:
        a = row[0:4:2] + 1j * row[1:4:2]
        b = row[4::2] + 1j * row[5::2]
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        vec = np.kron(a, b)
        out.append(TwoQubitState(*map(complex, vec)))
    return out


def random_quaternion(rng, unit=False):
    q = Quaternion(*rng.normal(size=4))
    if unit:
        n = q.norm()
        q = Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)
    return q


def random_unitary_2x2(rng):
    """Haar-random single-qubit unitary via QR."""
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def dense_reduced(state: TwoQubitState, keep: Basis) -> np.ndarray:
    """Partial trace of the dense 4x4 projector (independent oracle)."""
    vec = state.vector
    rho = np.outer(vec, vec.conj()).reshape(2, 2, 2, 2)
    if keep is Basis.A:
        return np.trace(rho, axis1=1, axis2=3)
    return np.trace(rho, axis1=0, axis2=2)


def quaternion_close(p: Quaternion, q: Quaternion, tol=1e-12) -> bool:
    return max(abs(p.w - q.w), abs(p.x - q.x), abs(p.y - q.y),
               abs(p.z - q.z)) <= tol


def embed_complex(z: complex) -> Quaternion:
    """A complex number as a quaternion along the k axis."""
    return Quaternion(z.real, 0.0, 0.0, z.imag)


def _base_point(s: TwoQubitState) -> S4Point:
    """The S^4 base point of a state from the amplitude bilinears, each
    modulus squared where it is used; raises SouthPoleA like ``extract``."""
    a, b, g, d = s.amplitudes()
    if a == 0 and b == 0:
        n = math.sqrt(abs(g) ** 2 + abs(d) ** 2)
        raise SouthPoleA((g / n, d / n))
    col = 2.0 * (a.conjugate() * g + b.conjugate() * d)
    det2 = 2.0 * (a * d - b * g)
    return S4Point(abs(a) ** 2 + abs(b) ** 2 - abs(g) ** 2 - abs(d) ** 2,
                   col.real, -det2.imag, det2.real, col.imag)


def reference_extract(s: TwoQubitState) -> BlochCoordinates:
    """``extract`` along the Quaternion route: the base point and its angles,
    the quasi-state pair, exp_pure, the Hamilton product and the complex
    split of q_B.  ``extract`` runs the same float operations without the
    objects, so the two agree bit for bit."""
    p = _base_point(s)
    theta, phi, chi, xi, base_flags = angles_from_base(p)
    flags = set(base_flags)
    ch = math.hypot(abs(s.alpha), abs(s.beta))
    sh = math.hypot(abs(s.gamma), abs(s.delta))
    t = PureUnitQuaternion.from_angles(chi, xi)
    qs = quasi_state(s)
    q_b = ch * qs.q0 + sh * (exp_pure(t, -phi) * qs.q1)
    u, v = to_complex_pair(q_b)
    theta_b, phi_b, zeta_b, fiber_flags = _fiber_angles(u, v)
    flags.update(fiber_flags)
    return BlochCoordinates(theta, phi, chi, xi, theta_b, phi_b, zeta_b,
                            frozenset(flags))


def assert_extract_matches_reference(s: TwoQubitState):
    """extract(s) == reference_extract(s) exactly, angles and flags, or both
    raise SouthPoleA with equal psi_b.  Returns the coordinates or None."""
    try:
        want = reference_extract(s)
    except SouthPoleA as exc:
        with pytest.raises(SouthPoleA) as got:
            extract(s)
        assert got.value.psi_b == exc.psi_b
        return None
    got = extract(s)
    assert got.angles() == want.angles()
    assert got.flags == want.flags
    return got


def reference_reconstruct(c: BlochCoordinates) -> TwoQubitState:
    """``reconstruct`` with every angle passed through ``_check_range``.
    ``reconstruct`` calls it only for an angle set off its range, where this
    clamps or raises the same way, so the two agree bit for bit."""
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


def amplitude_bits(s: TwoQubitState) -> tuple[str, ...]:
    """float.hex of each amplitude's real and imaginary part: equal tuples
    mean equal bits, the sign of a zero included."""
    return tuple(x.hex() for z in s.amplitudes() for x in (z.real, z.imag))


def assert_reconstruct_matches_reference(c: BlochCoordinates) -> None:
    """reconstruct(c) has the bits of reference_reconstruct(c), or both raise
    OutOfRange with the same message."""
    try:
        want = reference_reconstruct(c)
    except OutOfRange as exc:
        with pytest.raises(OutOfRange) as got:
            reconstruct(c)
        assert str(got.value) == str(exc)
        return
    assert amplitude_bits(reconstruct(c)) == amplitude_bits(want)


def reference_phase_aligned_distance(s1: TwoQubitState,
                                     s2: TwoQubitState) -> float:
    """``phase_aligned_distance`` written with generators and a keyed max:
    k is the first index of s1's largest magnitude, as there."""
    v1 = s1.amplitudes()
    v2 = s2.amplitudes()
    k = max(range(4), key=lambda i: abs(v1[i]))
    if abs(v2[k]) == 0.0:
        return max(abs(a - b) for a, b in zip(v1, v2))
    phase = v1[k] / v2[k]
    phase /= abs(phase)
    return max(abs(a - phase * b) for a, b in zip(v1, v2))


def same_bits(x: float, y: float) -> bool:
    """x and y are the same float: signed zeros told apart by copysign, and
    any NaN equal to any NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def same_quaternion_bits(p: Quaternion, q: Quaternion) -> bool:
    return all(map(same_bits, (p.w, p.x, p.y, p.z), (q.w, q.x, q.y, q.z)))


# components for the bit-identity pins of the Hamilton product: zeros of
# both signs, subnormals, units, values whose products overflow, inf and NaN
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0, 1e308, -1e308,
                  math.inf, math.nan)


def special_quaternions(rng, count):
    """count quaternions whose components are random normals, each replaced
    by one of the 10 SPECIAL_FLOATS with probability 10/25."""
    raw = rng.normal(size=(count, 4)).tolist()
    picks = rng.integers(0, 25, size=(count, 4)).tolist()
    return [Quaternion(*(SPECIAL_FLOATS[k] if k < len(SPECIAL_FLOATS) else x
                         for x, k in zip(row, ks)))
            for row, ks in zip(raw, picks)]


def unit_pair(q0: Quaternion, q1: Quaternion) -> tuple[Quaternion, Quaternion]:
    """(q0, q1) scaled to |q0|^2 + |q1|^2 = 1 when that norm is finite and
    not zero, else as given."""
    n = math.sqrt(q0.norm_squared() + q1.norm_squared())
    if not 0.0 < n < math.inf:
        return q0, q1
    return tuple(Quaternion(q.w / n, q.x / n, q.y / n, q.z / n)
                 for q in (q0, q1))


def reference_mul(p: Quaternion, other) -> Quaternion:
    """``Quaternion.__mul__`` with the Hamilton product written inline.
    ``Quaternion.__mul__``, ``quasi_density``, ``QuasiDensity.matmul`` and
    ``h1`` run the same float operations through ``quaternion._hamilton``,
    so they agree with the reference_* copies below bit for bit."""
    if isinstance(other, Quaternion):
        w1, x1, y1, z1 = p.w, p.x, p.y, p.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )
    if isinstance(other, (int, float)):
        return Quaternion(p.w * other, p.x * other,
                          p.y * other, p.z * other)
    return NotImplemented


def reference_quasi_density(qs) -> QuasiDensity:
    """``quasi_density`` on ``reference_mul``."""
    n = qs.norm_squared()
    if not (abs(n - 1.0) <= EPS_UNIT):
        raise NotNormalized(f"quasi-state norm^2 {n:.12g} is not 1")
    q0, q1 = qs.q0, qs.q1
    return QuasiDensity(reference_mul(q0, q0.conjugate()),
                        reference_mul(q0, q1.conjugate()),
                        reference_mul(q1, q0.conjugate()),
                        reference_mul(q1, q1.conjugate()))


def reference_matmul(a: QuasiDensity, b: QuasiDensity) -> QuasiDensity:
    """``QuasiDensity.matmul`` on ``reference_mul`` and ``Quaternion.__add__``."""
    return QuasiDensity(
        reference_mul(a.e00, b.e00) + reference_mul(a.e01, b.e10),
        reference_mul(a.e00, b.e01) + reference_mul(a.e01, b.e11),
        reference_mul(a.e10, b.e00) + reference_mul(a.e11, b.e10),
        reference_mul(a.e10, b.e01) + reference_mul(a.e11, b.e11),
    )


def reference_h1(q0: Quaternion, q1: Quaternion) -> Quaternion:
    """``h1`` on ``reference_mul``."""
    total = q0.norm_squared() + q1.norm_squared()
    if not (abs(total - 1.0) <= EPS_UNIT):
        raise NotNormalized(f"|q0|^2 + |q1|^2 = {total:.12g}, expected 1")
    n2 = q1.norm_squared()
    if n2 <= EPS_ZERO * EPS_ZERO:
        raise FiberAtInfinity("q1 = 0 maps to the excluded north pole")
    return reference_mul(reference_mul(q1, q0.conjugate()), 1.0 / n2)


def numpy_reduced_density(s: TwoQubitState, keep: Basis) -> np.ndarray:
    """The reduced density formula built as one numpy array.  It shares no
    code with ``state._reduced_entries``, which ``reduced_density`` reads,
    or its column form ``state._reduced_columns``, which ``check`` reads,
    so it can stand as their oracle."""
    a, b, c, d = s.amplitudes()
    if keep is Basis.B:
        b, c = c, b
    off = a * c.conjugate() + b * d.conjugate()
    return np.array([[abs(a) ** 2 + abs(b) ** 2, off],
                     [off.conjugate(), abs(c) ** 2 + abs(d) ** 2]],
                    dtype=complex)


def numpy_projection(p: S4Point) -> np.ndarray:
    """The S^4 projection formula as one numpy array, scaled by numpy; the
    oracle of ``state._projection_parts``."""
    p.validate()
    off = complex(p.x1, -p.x4)
    return 0.5 * np.array([[1.0 + p.x0, off],
                           [off.conjugate(), 1.0 - p.x0]], dtype=complex)


def _nan_max(values) -> float:
    """max that returns NaN when any value is NaN (the builtin can drop it)."""
    values = tuple(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _reference_deviations(s: TwoQubitState, raw_fiber) -> tuple[float, ...]:
    """One state's deviations from the invariants of ``hopfbloch check``, in
    its order; raw_fiber / |raw_fiber| is the fiber element."""
    coords = extract(s)
    round_trip = phase_aligned_distance(s, reconstruct(coords))

    c, _ = concurrence(s)
    conc = [abs(c - coords.concurrence)]
    if CoordFlag.XI_UNDEFINED not in coords.flags:
        claim = c * np.exp(1j * (coords.xi - 0.5 * math.pi))
        det2 = 2.0 * (s.alpha * s.delta - s.beta * s.gamma)
        conc.append(abs(claim - det2))

    qs = quasi_state(s, Basis.A)
    rho = quasi_density(qs)
    sq = rho.matmul(rho)
    projector = _nan_max([abs(rho.trace - 1.0)]
                         + [(e1 - e2).norm()
                            for e1, e2 in zip(sq.entries(), rho.entries())])

    p = coords.s4_point
    vec = s.vector
    dense = np.outer(vec, vec.conj()).reshape(2, 2, 2, 2)
    dense_a = np.trace(dense, axis1=1, axis2=3)
    dense_b = np.trace(dense, axis1=0, axis2=2)
    reduced = _nan_max(float(np.max(np.abs(got - oracle))) for got, oracle in (
        (numpy_reduced_density(s, Basis.A), dense_a),
        (numpy_reduced_density(s, Basis.B), dense_b),
        (numpy_projection(p), dense_a)))

    ball = abs(p.x0 ** 2 + p.x1 ** 2 + p.x4 ** 2 + p.c ** 2 - 1.0)

    fib = Quaternion(*(raw_fiber / np.linalg.norm(raw_fiber)))
    try:
        base = inverse_stereographic(h1(qs.q0, qs.q1))
        moved = inverse_stereographic(h1(qs.q0 * fib, qs.q1 * fib))
        fiber = _nan_max(abs(a - b) for a, b in
                         zip((base.x0, base.x1, base.x2, base.x3, base.x4),
                             (moved.x0, moved.x1, moved.x2, moved.x3, moved.x4)))
    except FiberAtInfinity:
        fiber = 0.0
    return (round_trip, _nan_max(conc), projector, reduced, ball, fiber)


def reference_check_table(seed: int, count: int = 1,
                          state: TwoQubitState | None = None) -> np.ndarray:
    """The (states, 6) deviation table of ``hopfbloch check``, one state at a
    time with a numpy call per matrix: `state` alone when given, else `count`
    random states.  The rng draws the (count, 8) table first, then one
    4-vector per state for its fiber element."""
    rng = np.random.default_rng(seed)
    if state is not None:
        states = [state]
    else:
        raw = rng.normal(size=(count, 8))
        states = [TwoQubitState.from_vector(vec / np.linalg.norm(vec))
                  for vec in raw[:, 0::2] + 1j * raw[:, 1::2]]
    return np.array([_reference_deviations(s, rng.normal(size=4)) for s in states])


SQ2 = math.sqrt(0.5)


# The paper's alternative routes.  Each derives a quantity the pipeline
# computes a second way: the stereographic projection (inverse of
# ``hopf.inverse_stereographic``), the split of the base point into b and the
# unit t, the quasi-density shortcut column that reads off the base data and
# q_B without the angle detour, the conjugation rotation of a pure unit
# quaternion, and the pinned-phase state family.  They serve as independent
# oracles for the main route.


class NotUnit(HopfBlochError):
    """A quaternion expected to be unit-norm is not."""


class NorthPole(HopfBlochError):
    """Stereographic projection requested at its excluded point x0 = 1."""


class NotPureUnit(HopfBlochError):
    """A quaternion expected to be pure (zero real part) and unit-norm is not."""


# the quaternion units, the north pole of S^4, and PureUnitQuaternion's
# other constructors and angles: the package itself never needs them
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

NORTH_POLE = S4Point(1.0, 0.0, 0.0, 0.0, 0.0)


def pure_unit_from_components(tx: float, ty: float,
                              tz: float) -> PureUnitQuaternion:
    n = math.sqrt(tx * tx + ty * ty + tz * tz)
    if not (abs(n - 1.0) <= EPS_UNIT):
        raise NotPureUnit(f"components have norm {n:.12g}, expected 1")
    return PureUnitQuaternion(tx / n, ty / n, tz / n)


def pure_unit_from_quaternion(q: Quaternion) -> PureUnitQuaternion:
    if abs(q.w) > EPS_UNIT:
        raise NotPureUnit(f"real part {q.w:.3e} is not zero")
    return pure_unit_from_components(q.x, q.y, q.z)


def pure_unit_chi(t: PureUnitQuaternion) -> float:
    """The polar angle of t, from the k axis."""
    return math.atan2(math.hypot(t.tx, t.ty), t.tz)


def pure_unit_xi(t: PureUnitQuaternion) -> float:
    """The azimuth of t, from the i axis toward j; 0 at the poles."""
    if math.hypot(t.tx, t.ty) <= EPS_ZERO:
        return 0.0
    return wrap_angle(math.atan2(t.ty, t.tx))


def pure_unit_as_quaternion(t: PureUnitQuaternion) -> Quaternion:
    return Quaternion(0.0, t.tx, t.ty, t.tz)


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
    r = q.conjugate() * pure_unit_as_quaternion(t) * q
    return pure_unit_from_quaternion(r * (1.0 / q.norm_squared()))


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


# traj's writers before they streamed, kept as the oracles of the streamed
# ones: the whole output of a Trajectory, built in one piece
def reference_traj_csv(traj: Trajectory) -> str:
    lines = [_CSV_HEADER]
    for smp in traj.samples:
        cells = [smp.stage.value, f"{smp.s:.12g}"]
        for z in smp.state.amplitudes():
            cells += [f"{z.real:.12g}", f"{z.imag:.12g}"]
        cells += [f"{a:.12g}" for a in smp.coords.angles()]
        cells.append(f"{smp.coords.concurrence:.12g}")
        cells.append("1" if smp.branch_flip else "0")
        lines.append(",".join(cells))
    return "\n".join(lines)


def reference_traj_json(traj: Trajectory) -> dict:
    """The traj JSON record, each number a float at 12 significant digits,
    for json.dumps(record, indent=2)."""
    def r(v):
        return float(f"{v:.12g}")

    g = traj.gate
    return {
        "gate": {
            "kind": g.kind.value,
            "axis": [r(a) for a in g.axis],
            "eta": r(g.eta),
            "omega": r(g.omega),
        },
        "samples": [
            {
                "stage": smp.stage.value,
                "s": r(smp.s),
                "amplitudes": [[r(z.real), r(z.imag)]
                               for z in smp.state.amplitudes()],
                "angles": {name: r(a) for name, a in
                           zip(_ANGLES, smp.coords.angles())},
                "concurrence": r(smp.coords.concurrence),
                "flags": _flag_names(smp.coords),
                "branch_flip": smp.branch_flip,
            }
            for smp in traj.samples
        ],
    }
