import copy
import math
import pickle

import numpy as np
import pytest

from hopfbloch import (
    CoordFlag,
    FiberAtInfinity,
    NotNormalized,
    OffSphere,
    Quaternion,
    S4Point,
    angles_from_base,
    base_from_angles,
    h1,
    inverse_stereographic,
)
from hopfbloch.quaternion import angle_distance

from helpers import (
    NORTH_POLE,
    SQ2,
    J,
    NorthPole,
    random_quaternion,
    stereographic,
)


def s4_close(p: S4Point, q: S4Point, tol=1e-9) -> bool:
    return max(abs(p.x0 - q.x0), abs(p.x1 - q.x1), abs(p.x2 - q.x2),
               abs(p.x3 - q.x3), abs(p.x4 - q.x4)) <= tol


def normalized_pair(rng):
    q0 = random_quaternion(rng)
    q1 = random_quaternion(rng)
    n = math.sqrt(q0.norm_squared() + q1.norm_squared())
    return q0 * (1 / n), q1 * (1 / n)


def test_h1_bell_like_pair():
    got = h1(Quaternion(SQ2, 0, 0, 0), J * SQ2)
    assert max(abs(got.w), abs(got.x), abs(got.y - 1), abs(got.z)) <= 1e-15


def test_h1_zero_upper_component():
    got = h1(Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))
    assert (got.w, got.x, got.y, got.z) == (0, 0, 0, 0)


def test_h1_right_fiber_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q0, q1 = normalized_pair(rng)
        if q1.norm() < 1e-6:
            continue
        f = random_quaternion(rng, unit=True)
        base = h1(q0, q1)
        moved = h1(q0 * f, q1 * f)
        assert max(abs(base.w - moved.w), abs(base.x - moved.x),
                   abs(base.y - moved.y), abs(base.z - moved.z)) <= 1e-9


def test_h1_errors():
    with pytest.raises(FiberAtInfinity):
        h1(Quaternion(1, 0, 0, 0), Quaternion(0, 0, 0, 0))
    with pytest.raises(NotNormalized):
        h1(Quaternion(1, 0, 0, 0), Quaternion(1, 0, 0, 0))


def test_inverse_stereographic_examples():
    assert s4_close(inverse_stereographic(Quaternion(0, 0, 0, 0)),
                    S4Point(-1, 0, 0, 0, 0), tol=0)
    assert s4_close(inverse_stereographic(Quaternion(0, 0, 1, 0)),
                    S4Point(0, 0, 0, 1, 0), tol=0)
    assert s4_close(inverse_stereographic(Quaternion(1, 0, 0, 0)),
                    S4Point(0, 1, 0, 0, 0), tol=0)


def test_stereographic_examples():
    got = stereographic(S4Point(-1, 0, 0, 0, 0))
    assert (got.w, got.x, got.y, got.z) == (0, 0, 0, 0)
    got = stereographic(S4Point(0, 0, 0, 1, 0))
    assert (got.w, got.x, got.y, got.z) == (0, 0, 1, 0)
    got = stereographic(S4Point(0, 1, 0, 0, 0))
    assert (got.w, got.x, got.y, got.z) == (1, 0, 0, 0)


def test_stereographic_north_pole_rejected():
    with pytest.raises(NorthPole):
        stereographic(NORTH_POLE)


def test_projection_pair_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(500):
        q = Quaternion(*rng.normal(scale=3.0, size=4))
        p = inverse_stereographic(q)
        assert abs(p.x0 * p.x0 + p.x1 * p.x1 + p.x2 * p.x2 + p.x3 * p.x3
                   + p.x4 * p.x4 - 1.0) <= 1e-12
        back = stereographic(p)
        assert max(abs(q.w - back.w), abs(q.x - back.x),
                   abs(q.y - back.y), abs(q.z - back.z)) <= 1e-9
    for _ in range(500):
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        if v[0] > 0.999:
            continue
        p = S4Point(*v)
        assert s4_close(inverse_stereographic(stereographic(p)), p)


def test_base_from_angles_examples():
    p = base_from_angles(math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 2)
    assert s4_close(p, S4Point(0, 0, 0, 1, 0), tol=1e-15)
    p = base_from_angles(0.0, 1.0, 2.0, 3.0)
    assert s4_close(p, NORTH_POLE, tol=1e-15)
    for chi, xi in ((0.3, 0.4), (2.0, 5.0)):
        p = base_from_angles(math.pi / 2, 0.0, chi, xi)
        assert s4_close(p, S4Point(0, 1, 0, 0, 0), tol=1e-15)


def test_base_from_angles_lands_on_sphere():
    rng = np.random.default_rng(13)
    for _ in range(500):
        p = base_from_angles(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                             rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        assert abs(p.x0 * p.x0 + p.x1 * p.x1 + p.x2 * p.x2 + p.x3 * p.x3
                   + p.x4 * p.x4 - 1.0) <= 1e-9


def test_angles_from_base_examples():
    got = angles_from_base(S4Point(0, 0, 0, 1, 0))
    assert max(abs(got.theta - math.pi / 2), abs(got.phi - math.pi / 2),
               abs(got.chi - math.pi / 2), abs(got.xi - math.pi / 2)) <= 1e-12
    assert not got.flags

    got = angles_from_base(NORTH_POLE)
    assert got.theta == 0.0 and got.phi == 0.0 and got.chi == 0.0 and got.xi == 0.0
    assert {CoordFlag.PHI_A_UNDEFINED, CoordFlag.T_UNDEFINED,
            CoordFlag.XI_UNDEFINED} <= got.flags

    got = angles_from_base(S4Point(0, 0, 0, 0, 1))
    assert abs(got.theta - math.pi / 2) <= 1e-12
    assert abs(got.phi - math.pi / 2) <= 1e-12
    assert got.chi == 0.0 and got.xi == 0.0
    assert got.flags == frozenset({CoordFlag.XI_UNDEFINED})


def test_angles_from_base_off_sphere_rejected():
    with pytest.raises(OffSphere):
        angles_from_base(S4Point(1, 1, 0, 0, 0))


def test_nan_point_is_off_sphere():
    p = S4Point(math.nan, 0, 0, 0, 0)
    with pytest.raises(OffSphere):
        p.validate()
    with pytest.raises(OffSphere):
        angles_from_base(p)


def test_angle_base_roundtrip_unflagged():
    rng = np.random.default_rng(14)
    for _ in range(2000):
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(0.05, math.pi - 0.05)  # canonical branch: b > 0
        chi = rng.uniform(0.05, math.pi - 0.05)
        xi = rng.uniform(0, 2 * math.pi)
        p = base_from_angles(theta, phi, chi, xi)
        got = angles_from_base(p)
        assert not got.flags
        assert abs(got.theta - theta) <= 1e-9
        assert abs(got.phi - phi) <= 1e-9
        assert abs(got.chi - chi) <= 1e-9
        assert angle_distance(got.xi, xi) <= 1e-9
        assert s4_close(base_from_angles(got.theta, got.phi, got.chi, got.xi), p)


def test_sphere_split_identity():
    # x0^2 + x1^2 + b^2 = 1 with t on its own unit sphere
    rng = np.random.default_rng(15)
    for _ in range(1000):
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        p = S4Point(*v)
        assert abs(p.x0 ** 2 + p.x1 ** 2 + p.b ** 2 - 1.0) <= 1e-9
        if p.b > 1e-9:
            t2 = (p.x2 / p.b) ** 2 + (p.x3 / p.b) ** 2 + (p.x4 / p.b) ** 2
            assert abs(t2 - 1.0) <= 1e-9
        assert abs(p.c - math.hypot(p.x2, p.x3)) <= 1e-15


def test_point_angle_composition_on_random_points():
    # angles_from_base canonicalizes to b >= 0, but the b*t product is all
    # that re-enters, so the composition is the identity on any unit point
    rng = np.random.default_rng(16)
    for _ in range(1000):
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        p = S4Point(*v)
        got = angles_from_base(p)
        back = base_from_angles(got.theta, got.phi, got.chi, got.xi)
        assert s4_close(back, p)


def test_coord_flag_sets_under_the_identity_hash():
    # CoordFlag hashes by identity; members are singletons, so membership,
    # dict lookup and copies behave as under Enum's name hash
    every = frozenset(CoordFlag)
    assert len(every) == 6
    table = {flag: flag.value for flag in CoordFlag}
    for flag in CoordFlag:
        assert CoordFlag(flag.value) in every
        assert table[CoordFlag(flag.value)] == flag.value
    assert frozenset({CoordFlag.T_UNDEFINED, CoordFlag.XI_UNDEFINED}) == {
        CoordFlag("xi_undefined"), CoordFlag("t_undefined")}
    flags = frozenset({CoordFlag.SOUTH_POLE_A, CoordFlag.PHI_B_UNDEFINED})
    for again in (pickle.loads(pickle.dumps(flags)), copy.deepcopy(flags)):
        assert again == flags
        assert hash(again) == hash(flags)
        assert {id(f) for f in again} == {id(f) for f in flags}  # singletons
