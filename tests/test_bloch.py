import cmath
import math

import numpy as np
import pytest

from hopfbloch import (
    BlochCoordinates,
    CoordFlag,
    NotNormalized,
    OutOfRange,
    SouthPoleA,
    TwoQubitState,
    alternate,
    bell_state,
    canonicalize,
    concurrence,
    coords_distance,
    extract,
    normalize_global_phase,
    phase_aligned_distance,
    quasi_density,
    quasi_state,
    reconstruct,
)
from hopfbloch.bloch import (
    _extract,
    _nearer_branch,
    _reconstruct,
    south_pole_coords,
)
from hopfbloch.quaternion import (
    PureUnitQuaternion,
    Quaternion,
    angle_distance,
    exp_pure,
    from_complex_pair,
    to_complex_pair,
    wrap_angle,
)

from helpers import (
    SQ2,
    amplitude_bits,
    assert_extract_matches_reference,
    assert_reconstruct_matches_reference,
    fiber_quaternion,
    pure_unit_as_quaternion,
    quaternion_close,
    random_product_states,
    random_states,
    same_bits,
    shortcut_base,
)

PI = math.pi


def assert_angles(coords, want, tol=1e-9):
    for got, target in zip(coords.angles(), want):
        assert angle_distance(got, target) <= tol


BELL_TABLE = {
    # (theta_a, phi_a, chi, xi, theta_b, phi_b, zeta_b), t direction
    "00": ((PI / 2, PI / 2, PI / 2, PI / 2, 0, 0, 0), (0, 1, 0)),
    "01": ((PI / 2, PI / 2, PI / 2, 3 * PI / 2, PI, 0, 0), (0, -1, 0)),
    "10": ((PI / 2, PI / 2, PI / 2, 3 * PI / 2, 0, 0, 0), (0, -1, 0)),
    "11": ((PI / 2, PI / 2, PI / 2, PI / 2, PI, 0, 0), (0, 1, 0)),
}


def test_extract_bell_states():
    for code, (angles, t_dir) in BELL_TABLE.items():
        c = extract(bell_state(code))
        assert_angles(c, angles)
        assert abs(c.s4_point.x0) <= 1e-9 and abs(c.s4_point.x1) <= 1e-9
        assert abs(c.b - 1.0) <= 1e-9
        t = c.t
        assert max(abs(t.tx - t_dir[0]), abs(t.ty - t_dir[1]),
                   abs(t.tz - t_dir[2])) <= 1e-9


def test_extract_ground_state():
    c = extract(TwoQubitState(1, 0, 0, 0))
    assert c.theta_a == 0.0 and c.theta_b <= 1e-12
    assert CoordFlag.PHI_A_UNDEFINED in c.flags
    assert CoordFlag.T_UNDEFINED in c.flags
    assert c.chi == 0.0 and c.xi == 0.0  # t = k convention
    assert c.zeta_b == 0.0


def test_extract_mes_phase_rule():
    for eta in np.linspace(0, 2 * PI, 64, endpoint=False):
        s = TwoQubitState(SQ2, 0, 0, SQ2 * cmath.exp(1j * eta))
        c = extract(s)
        assert angle_distance(c.xi, PI / 2 + eta) <= 1e-9
        assert_angles(c, (PI / 2, PI / 2, PI / 2, c.xi, 0, 0, 0))

        s = TwoQubitState(0, SQ2, SQ2 * cmath.exp(1j * eta), 0)
        c = extract(s)
        assert angle_distance(c.xi, 3 * PI / 2 + eta) <= 1e-9


def test_extract_south_pole_exception():
    mu = 0.3
    s = TwoQubitState(0, 0, math.cos(mu), math.sin(mu))
    with pytest.raises(SouthPoleA) as info:
        extract(s)
    c0, c1 = info.value.psi_b
    assert abs(c0 - math.cos(mu)) <= 1e-15
    assert abs(c1 - math.sin(mu)) <= 1e-15


def _q0_sweep_states(count):
    """|q0| = |(alpha, beta)| log-uniform from 1e-320 (subnormal) to 1: only
    alpha = beta = 0 exactly is the south pole.  Odd draws are products
    (q1 parallel to q0), whose small |q0| sets the phi_a and t flags."""
    rng = np.random.default_rng(26)
    for i in range(count):
        r = 10.0 ** rng.uniform(-320.0, 0.0)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        u /= np.linalg.norm(u)
        if i % 2:
            w = u * cmath.exp(1j * rng.uniform(0.0, 2 * PI))
        else:
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            w /= np.linalg.norm(w)
        w *= math.sqrt(1.0 - r * r)
        yield TwoQubitState(complex(r * u[0]), complex(r * u[1]),
                            complex(w[0]), complex(w[1]))


def test_extract_round_trips_for_every_q0_down_to_subnormal():
    for s in _q0_sweep_states(2000):
        assert phase_aligned_distance(s, reconstruct(extract(s))) <= 1e-9


def test_extract_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        TwoQubitState(2, 0, 0, 0)


def test_reconstruct_examples():
    got = reconstruct(BlochCoordinates(PI / 2, PI / 2, PI / 2, PI / 2, 0, 0, 0))
    assert phase_aligned_distance(got, bell_state("00")) <= 1e-12

    got = reconstruct(BlochCoordinates(0, 0, 0, 0, 1.1, 2.2, 0))
    want = TwoQubitState(math.cos(0.55), math.sin(0.55) * cmath.exp(2.2j), 0, 0)
    assert phase_aligned_distance(got, want) <= 1e-12

    got = reconstruct(BlochCoordinates(PI / 2, PI / 2, PI / 2, 3 * PI / 2, PI, 0, 0))
    assert phase_aligned_distance(got, bell_state("01")) <= 1e-12


def test_reconstruct_out_of_range():
    with pytest.raises(OutOfRange):
        reconstruct(BlochCoordinates(4.0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(OutOfRange):
        reconstruct(BlochCoordinates(1.0, -0.5, 0, 0, 0, 0, 0))
    with pytest.raises(OutOfRange):
        reconstruct(BlochCoordinates(1.0, 0, 0, 0, 0, 7.0, 0))


def _coords_of(s):
    try:
        return extract(s)
    except SouthPoleA as exc:
        return south_pole_coords(exc)


def test_reconstruct_matches_reference_on_states():
    rng = np.random.default_rng(47)
    basis = [TwoQubitState(*(1 if i == j else 0 for i in range(4)))
             for j in range(4)]
    bells = [bell_state(code) for code in ("00", "01", "10", "11")]
    south = [TwoQubitState(0, 0, SQ2, SQ2 * 1j), TwoQubitState(0, 0, 0.6, -0.8)]
    coords = [_coords_of(s) for s in basis + bells + south]
    coords += [alternate(c) for c in coords]
    coords += [extract(s) for s in random_states(rng, 500)]
    assert sum(CoordFlag.SOUTH_POLE_A in c.flags for c in coords) == 8
    for c in coords:
        assert_reconstruct_matches_reference(c)


ANGLE_NAMES = ("theta_a", "phi_a", "chi", "xi", "theta_b", "phi_b", "zeta_b")
POLAR_NAMES = ("theta_a", "chi", "theta_b")
TWO_PI = 2 * PI
# in range, or within EPS_NUM = 1e-9 outside it (clamped or wrapped)
ACCEPTED = {
    "polar": (0.0, -0.0, PI, -5e-10, PI + 5e-10),
    "azimuth": (0.0, -0.0, PI, TWO_PI - math.ulp(TWO_PI), TWO_PI, -5e-10,
                TWO_PI + 5e-10),
}
REJECTED = {
    "polar": (TWO_PI - math.ulp(TWO_PI), TWO_PI, -1e-8, 7.0, math.nan,
              math.inf, -math.inf),
    "azimuth": (-1e-8, 7.0, math.nan, math.inf, -math.inf),
}


@pytest.mark.parametrize("name", ANGLE_NAMES)
def test_reconstruct_matches_reference_at_range_edges(name):
    # one angle on or past an edge of its range, the others generic
    kind = "polar" if name in POLAR_NAMES else "azimuth"
    base = dict(zip(ANGLE_NAMES, (1.1, 2.2, 0.7, 4.0, 1.9, 3.3, 5.1)))
    for value in ACCEPTED[kind]:
        c = BlochCoordinates(**{**base, name: value})
        reconstruct(c)
        assert_reconstruct_matches_reference(c)
    for value in REJECTED[kind]:
        c = BlochCoordinates(**{**base, name: value})
        with pytest.raises(OutOfRange, match=f"^{name} = "):
            reconstruct(c)
        assert_reconstruct_matches_reference(c)


def _core_states():
    """Basis, Bell, south-pole, Haar and product states and the |q0| sweep."""
    rng = np.random.default_rng(30)
    basis = [TwoQubitState(*(1 if i == j else 0 for i in range(4)))
             for j in range(4)]
    bells = [bell_state(code) for code in ("00", "01", "10", "11")]
    south = [TwoQubitState(0, 0, SQ2, SQ2 * 1j), TwoQubitState(0, 0, 0.6, -0.8)]
    return (basis + bells + south + random_states(rng, 300)
            + random_product_states(rng, 300) + list(_q0_sweep_states(2000)))


def _complex_bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def test_extract_is_its_float_core_wrapped_bit_for_bit():
    flagged = south = 0
    for s in _core_states():
        try:
            *angles, flags = _extract(s.alpha, s.beta, s.gamma, s.delta)
        except SouthPoleA as exc:
            with pytest.raises(SouthPoleA) as got:
                extract(s)
            assert _complex_bits(got.value.psi_b) == _complex_bits(exc.psi_b)
            south += 1
            continue
        want = BlochCoordinates(*angles, frozenset(flags))
        got = extract(s)
        assert all(map(same_bits, got.angles(), want.angles()))
        assert got.flags == want.flags
        flagged += bool(flags)
    assert south == 4 and flagged >= 1000


def _amplitudes_or_error(build, *args):
    """The amplitude bits of build(*args), or its OutOfRange message."""
    try:
        return amplitude_bits(build(*args))
    except OutOfRange as exc:
        return str(exc)


# angles at and just past the edges of the EPS_NUM = 1e-9 band outside
# their ranges: the first two of each are clamped or wrapped, the rest raise
JUST_OUTSIDE = {
    "polar": (-1e-9, PI + 1e-9, math.nextafter(-1e-9, -1.0),
              math.nextafter(PI + 1e-9, 4.0)),
    "azimuth": (-1e-9, TWO_PI + 1e-9, math.nextafter(-1e-9, -1.0),
                math.nextafter(TWO_PI + 1e-9, 7.0)),
}


def test_reconstruct_is_its_float_core_wrapped_bit_for_bit():
    coords = []
    for s in _core_states():
        c = _coords_of(s)
        coords += [c, alternate(c)]
    base = dict(zip(ANGLE_NAMES, (1.1, 2.2, 0.7, 4.0, 1.9, 3.3, 5.1)))
    for name in ANGLE_NAMES:
        kind = "polar" if name in POLAR_NAMES else "azimuth"
        for value in ACCEPTED[kind] + REJECTED[kind] + JUST_OUTSIDE[kind]:
            coords.append(BlochCoordinates(**{**base, name: value}))
    rejected = 0
    for c in coords:
        got = _amplitudes_or_error(reconstruct, c)
        want = _amplitudes_or_error(
            lambda *angles: TwoQubitState(*_reconstruct(*angles)), *c.angles())
        assert got == want
        rejected += isinstance(got, str)
    assert rejected == 3 * 7 + 4 * 5 + 2 * 7


def test_roundtrip_random_states():
    rng = np.random.default_rng(31)
    for s in random_states(rng, 3000):
        c = extract(s)
        assert phase_aligned_distance(s, reconstruct(c)) <= 1e-9
        # the extracted branch is already canonical
        assert c.b >= -1e-12
        assert canonicalize(c) == c


def test_roundtrip_recovers_angles():
    # extraction is exactly the inverse of reconstruction on canonical
    # non-degenerate coordinates, global phase included
    rng = np.random.default_rng(32)
    for _ in range(1000):
        c = BlochCoordinates(rng.uniform(0.1, PI - 0.1), rng.uniform(0.1, PI - 0.1),
                             rng.uniform(0.1, PI - 0.1), rng.uniform(0, 2 * PI),
                             rng.uniform(0.1, PI - 0.1), rng.uniform(0, 2 * PI),
                             rng.uniform(0, 2 * PI))
        got = extract(reconstruct(c))
        assert not got.flags
        for a, b in zip(got.angles(), c.angles()):
            assert angle_distance(a, b) <= 1e-9


def test_normalize_global_phase():
    c = extract(bell_state("00"))
    assert normalize_global_phase(c) == c

    base = BlochCoordinates(1.0, 1.2, 0.9, PI, 1.4, PI / 2, PI / 4)
    shifted = normalize_global_phase(base)
    assert shifted.zeta_b == 0.0
    assert angle_distance(shifted.xi, PI / 2) <= 1e-12
    assert angle_distance(shifted.phi_b, 0.0) <= 1e-12

    rng = np.random.default_rng(33)
    for _ in range(300):
        c = BlochCoordinates(rng.uniform(0.1, PI - 0.1), rng.uniform(0.1, PI - 0.1),
                             rng.uniform(0.1, PI - 0.1), rng.uniform(0, 2 * PI),
                             rng.uniform(0.1, PI - 0.1), rng.uniform(0, 2 * PI),
                             rng.uniform(0, 2 * PI))
        fixed = normalize_global_phase(c)
        lhs = reconstruct(fixed).vector
        rhs = cmath.exp(-1j * c.zeta_b) * reconstruct(c).vector
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_normalize_global_phase_on_flagged_coords():
    # product states extract with conventional (flagged) angles and a live
    # zeta_b; the shift must still only move the global phase
    rng = np.random.default_rng(42)
    for s in random_product_states(rng, 200):
        c = extract(s)
        fixed = normalize_global_phase(c)
        lhs = reconstruct(fixed).vector
        rhs = cmath.exp(-1j * c.zeta_b) * reconstruct(c).vector
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
        assert fixed.zeta_b == 0.0
    # hand-built coords at theta_b = pi with a live zeta_b: phi_b is data
    # there and must shift with xi
    c = BlochCoordinates(1.1, 0.8, 0.6, 2.0, PI, 1.0, 0.7,
                         frozenset({CoordFlag.THETA_B_PI_AMBIGUOUS}))
    fixed = normalize_global_phase(c)
    lhs = reconstruct(fixed).vector
    rhs = cmath.exp(-0.7j) * reconstruct(c).vector
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # a flagged xi (chi = 0) or phi_b (theta_b = 0) is inert: it comes back
    # bit for bit, an unflagged one shifts by 2 zeta_b, and flags carry over
    xi_flag, phi_b_flag = CoordFlag.XI_UNDEFINED, CoordFlag.PHI_B_UNDEFINED
    for chi, xi, theta_b, phi_b, flags in (
            (0.0, 0.4, 0.9, 1.3, {xi_flag}),
            (0.6, 2.0, 0.0, 0.5, {phi_b_flag}),
            (0.0, 0.4, 0.0, 0.5, {xi_flag, phi_b_flag})):
        c = BlochCoordinates(1.1, 0.8, chi, xi, theta_b, phi_b, 0.7,
                             frozenset(flags))
        fixed = normalize_global_phase(c)
        assert fixed.flags == c.flags
        want_xi = xi if xi_flag in flags else wrap_angle(xi - 1.4)
        want_phi_b = phi_b if phi_b_flag in flags else wrap_angle(phi_b - 1.4)
        assert fixed.xi.hex() == want_xi.hex()
        assert fixed.phi_b.hex() == want_phi_b.hex()
        assert fixed.zeta_b == 0.0
        lhs = reconstruct(fixed).vector
        rhs = cmath.exp(-0.7j) * reconstruct(c).vector
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_canonicalize_bell_alternate_branch():
    # the (-b, -t) twin of the 00 preset sits at phi_a = 3 pi / 2, t = -j
    alt = BlochCoordinates(PI / 2, 3 * PI / 2, PI / 2, 3 * PI / 2, 0, 0, 0)
    assert phase_aligned_distance(reconstruct(alt), bell_state("00")) <= 1e-12
    canon = canonicalize(alt)
    assert_angles(canon, BELL_TABLE["00"][0])
    assert canonicalize(canon) == canon


def test_canonicalize_preserves_state():
    rng = np.random.default_rng(34)
    for _ in range(500):
        c = BlochCoordinates(rng.uniform(0.05, PI - 0.05), rng.uniform(0, 2 * PI),
                             rng.uniform(0.05, PI - 0.05), rng.uniform(0, 2 * PI),
                             rng.uniform(0, PI), rng.uniform(0, 2 * PI),
                             rng.uniform(0, 2 * PI))
        assert phase_aligned_distance(reconstruct(canonicalize(c)),
                                      reconstruct(c)) <= 1e-9
        assert phase_aligned_distance(reconstruct(alternate(c)),
                                      reconstruct(c)) <= 1e-9


def test_alternate_flips_branch_quantities():
    c = extract(bell_state("00"))
    alt = alternate(c)
    assert alt.b == pytest.approx(-c.b)
    assert alt.t.ty == pytest.approx(-c.t.ty)
    assert alternate(extract(TwoQubitState(1, 0, 0, 0))) == extract(
        TwoQubitState(1, 0, 0, 0))  # degenerate: no twin


def test_shortcut_base_examples():
    sc = shortcut_base(bell_state("00"))
    assert abs(sc.x0) <= 1e-12 and abs(sc.x1) <= 1e-12
    assert abs(sc.b - 1.0) <= 1e-12
    assert max(abs(sc.t.tx), abs(sc.t.ty - 1), abs(sc.t.tz)) <= 1e-12

    sc = shortcut_base(TwoQubitState(1, 0, 0, 0))
    assert sc.x0 == pytest.approx(1.0) and sc.b == 0.0
    assert CoordFlag.T_UNDEFINED in sc.flags
    assert sc.t.tz == 1.0

    sc = shortcut_base(bell_state("11"))
    assert abs(sc.x0) <= 1e-12 and abs(sc.x1) <= 1e-12
    assert abs(sc.b - 1.0) <= 1e-12
    assert sc.t.ty == pytest.approx(1.0)


def test_shortcut_base_matches_extraction_route():
    rng = np.random.default_rng(35)
    for s in random_states(rng, 500):
        sc = shortcut_base(s)
        c = extract(s)
        assert abs(sc.x0 - c.s4_point.x0) <= 1e-9
        assert abs(sc.x1 - c.s4_point.x1) <= 1e-9
        assert abs(sc.b - abs(c.b)) <= 1e-9
        if CoordFlag.T_UNDEFINED not in sc.flags:
            t = c.t
            assert max(abs(sc.t.tx - t.tx), abs(sc.t.ty - t.ty),
                       abs(sc.t.tz - t.tz)) <= 1e-9
        # the unit column times q_B rebuilds the quasi state
        qb = fiber_quaternion(s)
        c0, c1 = sc.column
        qs = quasi_state(s)
        assert quaternion_close(c0 * qb, qs.q0, tol=1e-9)
        assert quaternion_close(c1 * qb, qs.q1, tol=1e-9)


def test_shortcut_base_south_pole():
    with pytest.raises(SouthPoleA):
        shortcut_base(TwoQubitState(0, 0, 0.6, 0.8))


def test_concurrence_identity_sweep():
    rng = np.random.default_rng(36)
    for s in random_states(rng, 2000):
        c = extract(s)
        mag, _ = concurrence(s)
        assert abs(mag - c.concurrence) <= 1e-9
        if CoordFlag.XI_UNDEFINED not in c.flags:
            det2 = 2 * (s.alpha * s.delta - s.beta * s.gamma)
            claim = c.concurrence * cmath.exp(1j * (c.xi - PI / 2))
            assert abs(det2 - claim) <= 1e-9


def test_pauli_form_of_quasi_density():
    # quasi density = (identity + n . sigma(t)) / 2 with n = (x1, b, x0)
    rng = np.random.default_rng(37)
    for s in random_states(rng, 300):
        c = extract(s)
        rho = quasi_density(quasi_state(s))
        tq = pure_unit_as_quaternion(c.t)
        n1, nb, n0 = c.s4_point.x1, c.b, c.s4_point.x0
        want00 = Quaternion(0.5 * (1 + n0), 0, 0, 0)
        want11 = Quaternion(0.5 * (1 - n0), 0, 0, 0)
        want01 = Quaternion(0.5 * n1, 0, 0, 0) + (-0.5 * nb) * tq
        want10 = Quaternion(0.5 * n1, 0, 0, 0) + (0.5 * nb) * tq
        for got, want in ((rho.e00, want00), (rho.e01, want01),
                          (rho.e10, want10), (rho.e11, want11)):
            assert quaternion_close(got, want, tol=1e-9)


def test_separability_criterion():
    rng = np.random.default_rng(38)
    for s in random_product_states(rng, 300):
        c, _ = concurrence(s)
        assert c <= 1e-9
        sv = np.linalg.svd(np.array([[s.alpha, s.beta], [s.gamma, s.delta]]),
                           compute_uv=False)
        assert sv[1] <= 1e-9
    for s in random_states(rng, 300):
        c, _ = concurrence(s)
        sv = np.linalg.svd(np.array([[s.alpha, s.beta], [s.gamma, s.delta]]),
                           compute_uv=False)
        assert (c <= 1e-9) == (sv[1] <= 1e-9)


def test_separable_reconstruction_is_tensor_product():
    # chi = 0 (t = k): both sphere readings are literal single-qubit states
    rng = np.random.default_rng(39)
    for _ in range(300):
        theta_a, theta_b = rng.uniform(0, PI, size=2)
        phi_a, phi_b, zeta_b = rng.uniform(0, 2 * PI, size=3)
        c = BlochCoordinates(theta_a, phi_a, 0.0, 0.0, theta_b, phi_b, zeta_b)
        got = reconstruct(c).vector
        psi_a = np.array([math.cos(theta_a / 2),
                          math.sin(theta_a / 2) * cmath.exp(1j * phi_a)])
        psi_b = np.array([math.cos(theta_b / 2),
                          math.sin(theta_b / 2) * cmath.exp(1j * (phi_b - 2 * zeta_b))])
        want = cmath.exp(1j * zeta_b) * np.kron(psi_a, psi_b)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_theta_b_pi_policy():
    rng = np.random.default_rng(40)
    for _ in range(200):
        c = BlochCoordinates(rng.uniform(0.1, PI - 0.1), rng.uniform(0.1, PI - 0.1),
                             rng.uniform(0.1, PI - 0.1), rng.uniform(0, 2 * PI),
                             PI, rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        s = reconstruct(c)
        got = extract(s)
        assert CoordFlag.THETA_B_PI_AMBIGUOUS in got.flags
        assert got.zeta_b == 0.0
        assert phase_aligned_distance(reconstruct(got), s) <= 1e-9


def test_phi_b_convention_at_theta_b_zero():
    c = extract(TwoQubitState(SQ2, 0, SQ2, 0))
    assert CoordFlag.PHI_B_UNDEFINED in c.flags
    assert c.phi_b == 0.0


def test_fiber_quaternion_matches_direct_solve():
    rng = np.random.default_rng(41)
    for s in random_states(rng, 300):
        c = extract(s)
        qb = fiber_quaternion(s)
        want = (math.cos(c.theta_a / 2) * from_complex_pair(s.alpha, s.beta)
                + math.sin(c.theta_a / 2)
                * (exp_pure(c.t, -c.phi_a) * from_complex_pair(s.gamma, s.delta)))
        assert quaternion_close(qb, want, tol=1e-9)


def test_coords_distance_wraps():
    a = BlochCoordinates(1, 0.01, 1, 0.01, 1, 0.01, 0.01)
    b = BlochCoordinates(1, 2 * PI - 0.01, 1, 2 * PI - 0.01, 1,
                         2 * PI - 0.01, 2 * PI - 0.01)
    assert coords_distance(a, b) <= 0.09


def test_phase_normalized_states_reextract_with_zero_phase():
    rng = np.random.default_rng(43)
    for s in random_states(rng, 300):
        fixed = normalize_global_phase(extract(s))
        again = extract(reconstruct(fixed))
        assert min(again.zeta_b, 2 * PI - again.zeta_b) <= 1e-9


def test_reconstruct_matches_quaternion_product_route():
    # independent oracle: assemble the quaternion pair
    # (cos(ta/2), sin(ta/2) e^{t phi_a}) * (cos(tb/2) + sin(tb/2) e^{k phi_b} j) e^{k zeta_b}
    # with raw quaternion products and read the amplitudes off the pairs
    k_axis = PureUnitQuaternion(0.0, 0.0, 1.0)
    rng = np.random.default_rng(44)
    for _ in range(500):
        c = BlochCoordinates(rng.uniform(0, PI), rng.uniform(0, 2 * PI),
                             rng.uniform(0, PI), rng.uniform(0, 2 * PI),
                             rng.uniform(0, PI), rng.uniform(0, 2 * PI),
                             rng.uniform(0, 2 * PI))
        qb = (Quaternion(math.cos(c.theta_b / 2), 0, 0, 0)
              + math.sin(c.theta_b / 2)
              * (exp_pure(k_axis, c.phi_b) * Quaternion(0, 0, 1, 0)))
        qb = qb * exp_pure(k_axis, c.zeta_b)
        q0 = math.cos(c.theta_a / 2) * qb
        q1 = math.sin(c.theta_a / 2) * (exp_pure(c.t, c.phi_a) * qb)
        alpha, beta = to_complex_pair(q0)
        gamma, delta = to_complex_pair(q1)
        got = reconstruct(c)
        want = np.array([alpha, beta, gamma, delta])
        assert np.max(np.abs(got.vector - want)) <= 1e-12


def test_extract_matches_quaternion_route_exactly():
    rng = np.random.default_rng(45)
    states = random_states(rng, 500) + random_product_states(rng, 200)
    states += [bell_state(code) for code in ("00", "01", "10", "11")]
    states += [TwoQubitState(*e) for e in np.eye(4, dtype=complex)]
    south_pole = 0
    for s in states:
        c = assert_extract_matches_reference(s)
        if c is None:
            south_pole += 1
            continue
        # --canonical rests on these: the extracted branch and its
        # phase-normalized form are both canonicalize's fixed points
        assert canonicalize(c) is c
        n = normalize_global_phase(c)
        assert canonicalize(n) is n
        # q_B from the fiber angles: u = cos(theta_b/2) e^(k zeta_b),
        # v = sin(theta_b/2) e^(k (phi_b - zeta_b))
        u = math.cos(c.theta_b / 2) * cmath.exp(1j * c.zeta_b)
        v = math.sin(c.theta_b / 2) * cmath.exp(1j * (c.phi_b - c.zeta_b))
        assert quaternion_close(fiber_quaternion(s), from_complex_pair(u, v),
                                tol=1e-12)
    assert south_pole == 2  # |10> and |11>


def test_nearer_branch_follows_coords_distance_rule():
    # the rule trajectory applies: the twin only when strictly closer
    def rule(c, prev):
        twin = alternate(c)
        if twin is not c and coords_distance(twin, prev) < coords_distance(c, prev):
            return twin
        return c

    rng = np.random.default_rng(46)
    xi_flag = frozenset({CoordFlag.XI_UNDEFINED})
    pairs = []
    for k in range(1, 200):
        # chi = pi/2 and a flagged xi leave phi_a as the only difference;
        # against prev.phi_a = 0 many of these tie exactly
        c = BlochCoordinates(1.0, k * PI / 200, PI / 2, 0.0, 0.5, 0.3, 0.2, xi_flag)
        pairs.append((c, BlochCoordinates(1.0, 0.0, PI / 2, 0.0, 0.5, 0.3, 0.2,
                                          xi_flag)))
    for _ in range(300):
        c, prev = (BlochCoordinates(*rng.uniform(0, PI, 7)) for _ in range(2))
        pairs += [(c, prev), (c, alternate(c)), (c, c)]
    ties = 0
    for c, prev in pairs:
        got = _nearer_branch(c, prev)
        assert got == rule(c, prev)
        ties += coords_distance(alternate(c), prev) == coords_distance(c, prev)
    assert ties > 0


# The measured phase laws (README's "Measured laws"): which angles a phase
# on the amplitudes moves, and by how much.  Each law holds on every Haar
# and product draw to 1e-12, wrap-aware.

ANGLE_NAMES = ("theta_a", "phi_a", "chi", "xi", "theta_b", "phi_b", "zeta_b")
# the angles each flag pins to the convention 0
PINNED = {CoordFlag.PHI_A_UNDEFINED: ("phi_a",),
          CoordFlag.T_UNDEFINED: ("chi", "xi"),
          CoordFlag.XI_UNDEFINED: ("xi",),
          CoordFlag.PHI_B_UNDEFINED: ("phi_b",),
          CoordFlag.THETA_B_PI_AMBIGUOUS: ("zeta_b",)}
# amplitude indices of each phase: e^{i omega} on every amplitude,
# 1 (x) diag(1, e^{i omega}) on qubit B, diag(1, e^{i omega}) (x) 1 on A, and
# the controlled phase diag(1, 1, 1, e^{i omega})
GLOBAL, QUBIT_B, QUBIT_A, CONTROLLED = (0, 1, 2, 3), (1, 3), (2, 3), (3,)
STATE_DRAWS = pytest.mark.parametrize("draw_states",
                                      [random_states, random_product_states],
                                      ids=["haar", "product"])


def _phase_law_pairs(draw_states, indices):
    """(omega, coordinates before, coordinates after) for 500 drawn states
    and four omegas, the phase e^{i omega} put on the amplitudes at
    `indices`."""
    rng = np.random.default_rng(71)
    for s in draw_states(rng, 500):
        amps = s.amplitudes()
        for omega in (0.3, 1.0, -2.5, 3.0):
            g = cmath.exp(1j * omega)
            phased = TwoQubitState(*(z * g if k in indices else z
                                     for k, z in enumerate(amps)))
            yield omega, extract(s), extract(phased)


def assert_moves(before, after, shifts):
    """Each angle of `after` is the one of `before` plus its shift in
    `shifts`, or unchanged when not named; a shift of None leaves the angle
    free.  The flags stay, and an angle they pin stays at its convention."""
    assert after.flags == before.flags
    pinned = {name for flag in before.flags for name in PINNED.get(flag, ())}
    for name in ANGLE_NAMES:
        got, old = getattr(after, name), getattr(before, name)
        shift = shifts.get(name, 0.0)
        if name in pinned:
            assert got == old == 0.0, name
        elif shift is not None:
            assert angle_distance(got, old + shift) <= 1e-12, (name, before, after)


@STATE_DRAWS
def test_global_phase_moves_xi_and_phi_b_by_two_omega_and_zeta_b_by_omega(
        draw_states):
    for omega, before, after in _phase_law_pairs(draw_states, GLOBAL):
        assert_moves(before, after, {"xi": 2.0 * omega, "phi_b": 2.0 * omega,
                                     "zeta_b": omega})


@STATE_DRAWS
def test_phase_on_qubit_b_moves_xi_and_phi_b_by_omega(draw_states):
    for omega, before, after in _phase_law_pairs(draw_states, QUBIT_B):
        assert_moves(before, after, {"xi": omega, "phi_b": omega})


def test_phase_on_qubit_a_moves_xi_by_omega_on_haar_states():
    # phi_a and chi move by amounts that depend on the state
    for omega, before, after in _phase_law_pairs(random_states, QUBIT_A):
        assert_moves(before, after, {"phi_a": None, "chi": None, "xi": omega})


def test_phase_on_qubit_a_moves_only_phi_a_on_product_states():
    # t = +-k on a product state, so chi sits at 0 or pi and the b >= 0
    # branch can flip it; phi_a signed by that branch moves by omega
    def signed_phi_a(c):
        assert min(c.chi, PI - c.chi) <= 1e-12
        return c.phi_a if c.chi < 0.5 * PI else -c.phi_a

    flips = 0
    for omega, before, after in _phase_law_pairs(random_product_states, QUBIT_A):
        assert_moves(before, after, {"phi_a": None, "chi": None})
        assert angle_distance(signed_phi_a(after),
                              signed_phi_a(before) + omega) <= 1e-12
        flips += (before.chi < 0.5 * PI) != (after.chi < 0.5 * PI)
    assert flips > 0


@STATE_DRAWS
def test_controlled_phase_keeps_theta_a_theta_b_phi_b_and_zeta_b(draw_states):
    # phi_a, chi and xi move by amounts that depend on the state, and on a
    # product state the phase entangles, so xi_undefined can clear
    for _, before, after in _phase_law_pairs(draw_states, CONTROLLED):
        for name in ("theta_a", "theta_b", "phi_b", "zeta_b"):
            assert angle_distance(getattr(after, name),
                                  getattr(before, name)) <= 1e-12, name
