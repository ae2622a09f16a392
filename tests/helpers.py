"""Shared test utilities: random generators and independent dense oracles."""

import math

import numpy as np
import pytest

from hopfbloch import (
    Basis,
    BlochCoordinates,
    Quaternion,
    SouthPoleA,
    TwoQubitState,
    angles_from_base,
    extract,
    quasi_state,
)
from hopfbloch.bloch import _base_point, _fiber_angles
from hopfbloch.quaternion import PureUnitQuaternion, exp_pure, to_complex_pair


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


def reference_extract(s: TwoQubitState) -> BlochCoordinates:
    """``extract`` along the Quaternion route: the base point and its angles,
    the quasi-state pair, exp_pure, the Hamilton product and the complex
    split of q_B.  ``extract`` runs the same float operations without the
    objects, so the two agree bit for bit."""
    p = _base_point(s)
    base = angles_from_base(p)
    flags = set(base.flags)
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


SQ2 = math.sqrt(0.5)
