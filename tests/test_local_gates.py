"""Local SU(2) gates are rigid motions of the spheres, as measured here.

U on qubit B right-multiplies both quaternions q0 = alpha + beta*j and
q1 = gamma + delta*j by one unit quaternion.  So the S^4 base point, and with
it theta_a, phi_a, chi and xi, stays put, while q_B turns with them: the
Bloch vector of its spinor (u, v), ``_sphere_point(theta_b, phi_b -
2*zeta_b)``, turns by R(U).  U on qubit A turns (x1, x4, x0), the Bloch
vector of rho_A, by R(U), and leaves (x2, x3) = 2(alpha delta - beta gamma)
fixed, since det U = 1.  Here R_ij = tr(sigma_i U sigma_j U^dagger) / 2 is
U's image in SO(3).  Flagged angles are compared only where they are data.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbloch import CoordFlag, TwoQubitState, bell_state, extract
from hopfbloch.quaternion import _sphere_point, angle_distance
from hopfbloch.tolerances import EPS_ZERO

from helpers import random_product_states, random_states

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))

# Unflagged, every angle is an atan2 of rounded amplitude bilinears, off by
# about u / margin; the base-point angles of these draws keep their margin
# well above 1e-3, so 1e-12 (the bound of the phase laws in test_bloch.py)
# holds about 4500 u.  The vectors and base-point coordinates are sines and
# cosines of those angles, off by a few u whatever the margin: 1e-13 leaves
# a factor of 50.  The worst over 2,000 draws of these strategies: angles
# 1.6e-14, qubit-B vector 1.9e-15, coordinates 6.1e-16.
ANGLE_TOL = 1e-12
VECTOR_TOL = 1e-13
# A flag puts a conventional azimuth beside a radius of at most about
# 2 * EPS_ZERO (sin(theta_b) = 2|u||v|, or st, b and c in the base point),
# which moves the vector or the coordinates by at most twice that radius on
# each side of the comparison: 8 * EPS_ZERO, rounded up.
FLAGGED_TOL = 10 * EPS_ZERO

BASE_FLAGS = frozenset({CoordFlag.PHI_A_UNDEFINED, CoordFlag.T_UNDEFINED,
                        CoordFlag.XI_UNDEFINED})
FIBER_FLAGS = frozenset({CoordFlag.PHI_B_UNDEFINED,
                         CoordFlag.THETA_B_PI_AMBIGUOUS})


def _su2(q):
    """The SU(2) matrix ((a, b), (-conj(b), conj(a))) of the unit quaternion
    along q = (w, x, y, z), with a = w + z*i and b = y + x*i."""
    n = math.hypot(*q)
    w, x, y, z = (v / n for v in q)
    return np.array([[complex(w, z), complex(y, x)],
                     [complex(-y, x), complex(w, -z)]])


SU2 = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: math.hypot(*q) >= 0.1).map(_su2)
SEEDS = st.integers(0, 2 ** 32 - 1)
STATES = st.one_of(
    SEEDS.map(lambda k: random_states(np.random.default_rng(k), 1)[0]),
    SEEDS.map(lambda k: random_product_states(np.random.default_rng(k), 1)[0]),
    st.sampled_from(["00", "01", "10", "11"]).map(bell_state))
LAW = settings(derandomize=True, max_examples=300, deadline=None,
               database=None)


def rotation(u):
    """R(U), the SO(3) image of U: R_ij = tr(sigma_i U sigma_j U^dagger) / 2."""
    return np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real
                      for sj in PAULI] for si in PAULI])


def on_qubit_a(u, s):
    return TwoQubitState.from_vector(np.kron(u, np.eye(2)) @ s.vector)


def on_qubit_b(u, s):
    return TwoQubitState.from_vector(np.kron(np.eye(2), u) @ s.vector)


def qubit_b_vector(c):
    """The Bloch vector of q_B's spinor (u, v): azimuth arg(v) - arg(u)."""
    return np.array(_sphere_point(c.theta_b, c.phi_b - 2.0 * c.zeta_b))


def tolerance(flags, watched, tight):
    return FLAGGED_TOL if flags & watched else tight


@LAW
@given(u=SU2, s=STATES)
def test_su2_on_qubit_b_keeps_the_base_angles_and_turns_qubit_b(u, s):
    before, after = extract(s), extract(on_qubit_b(u, s))
    assert after.flags & BASE_FLAGS == before.flags & BASE_FLAGS
    names = ["theta_a"]
    if CoordFlag.PHI_A_UNDEFINED not in before.flags:
        names.append("phi_a")
    if CoordFlag.T_UNDEFINED not in before.flags:
        names.append("chi")
        if CoordFlag.XI_UNDEFINED not in before.flags:
            names.append("xi")
    for name in names:
        assert angle_distance(getattr(after, name),
                              getattr(before, name)) <= ANGLE_TOL, name
    tol = tolerance(before.flags | after.flags, FIBER_FLAGS, VECTOR_TOL)
    turned = rotation(u) @ qubit_b_vector(before)
    assert np.max(np.abs(turned - qubit_b_vector(after))) <= tol


@LAW
@given(u=SU2, s=STATES)
def test_su2_on_qubit_a_turns_x1_x4_x0_and_keeps_x2_x3(u, s):
    before, after = extract(s), extract(on_qubit_a(u, s))
    tol = tolerance(before.flags | after.flags, BASE_FLAGS, VECTOR_TOL)
    p, q = before.s4_point, after.s4_point
    turned = rotation(u) @ np.array([p.x1, p.x4, p.x0])
    assert np.max(np.abs(turned - np.array([q.x1, q.x4, q.x0]))) <= tol
    assert max(abs(q.x2 - p.x2), abs(q.x3 - p.x3)) <= tol
