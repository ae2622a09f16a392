import math

import numpy as np
import pytest

from hopfbloch import (
    PureUnitQuaternion,
    Quaternion,
    angle_distance,
    exp_pure,
    from_complex_pair,
    to_complex_pair,
    wrap_angle,
)
from hopfbloch.quaternion import TWO_PI, _hamilton, _wrapped_distance

from helpers import (
    ONE,
    SPECIAL_FLOATS,
    I,
    J,
    K,
    NotPureUnit,
    NotUnit,
    conjugate_rotate,
    pure_unit_as_quaternion,
    pure_unit_chi,
    pure_unit_from_components,
    pure_unit_from_quaternion,
    pure_unit_xi,
    quaternion_close,
    random_quaternion,
    reference_mul,
    same_bits,
    same_quaternion_bits,
    special_quaternions,
)


def test_basis_multiplication_table_exact():
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one
    assert I * J * K == minus_one
    assert I * J == K and J * I == -K
    assert J * K == I and K * J == -I
    assert K * I == J and I * K == -J


def test_mul_identity_and_hand_expansion():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = random_quaternion(rng)
        assert q * ONE == q
        assert ONE * q == q
    # (1+i)(1+j) expands to 1 + i + j + ij = 1 + i + j + k
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_hamilton_product_matches_the_inline_formula_bit_for_bit():
    # Quaternion.__mul__ multiplies through _hamilton; reference_mul spells
    # the formula out on the objects.  Both must agree on every bit: signed
    # zeros, subnormals, overflowing products and NaN included
    rng = np.random.default_rng(62)
    qs = special_quaternions(rng, 4000)
    fixed = (ONE, I, J, K, -ONE, Quaternion(), -Quaternion())
    pairs = list(zip(qs[::2], qs[1::2]))
    pairs += [pair for p in fixed for q in qs[:100] for pair in ((p, q), (q, p))]
    for p, q in pairs:
        want = reference_mul(p, q)
        assert same_quaternion_bits(p * q, want), (p, q)
        got = _hamilton(p.w, p.x, p.y, p.z, q.w, q.x, q.y, q.z)
        assert all(map(same_bits, got, (want.w, want.x, want.y, want.z)))
    scalars = SPECIAL_FLOATS + (2, -3, 0, True) + tuple(rng.normal(size=20).tolist())
    for p in qs[:200]:
        for r in scalars:
            want = reference_mul(p, r)
            assert same_quaternion_bits(p * r, want), (p, r)
            assert same_quaternion_bits(r * p, want), (r, p)


def test_complex_scalar_is_not_a_real_scalar():
    # k doubles as the complex unit, so scaling by 1j would be ambiguous
    with pytest.raises(TypeError):
        Quaternion(1.0) * 1j
    with pytest.raises(TypeError):
        1j * Quaternion(1.0)


def test_norm_multiplicativity_bulk():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(100_000, 8))
    worst = 0.0
    for row in raw:
        p = Quaternion(*row[:4])
        q = Quaternion(*row[4:])
        worst = max(worst, abs((p * q).norm() - p.norm() * q.norm())
                    / (p.norm() * q.norm()))
    assert worst <= 1e-9


def test_associativity_on_unit_scale():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        p, q, r = (random_quaternion(rng, unit=True) for _ in range(3))
        lhs = (p * q) * r
        rhs = p * (q * r)
        assert quaternion_close(lhs, rhs, tol=1e-12)


def test_exp_pure_examples():
    t_k = PureUnitQuaternion(0, 0, 1)
    assert quaternion_close(exp_pure(t_k, math.pi / 2), K, tol=1e-15)
    t_i = PureUnitQuaternion(1, 0, 0)
    assert quaternion_close(exp_pure(t_i, math.pi), -ONE, tol=1e-15)
    t_ij = pure_unit_from_components(math.sqrt(0.5), math.sqrt(0.5), 0)
    got = exp_pure(t_ij, math.pi / 3)
    s = math.sin(math.pi / 3) * math.sqrt(0.5)
    assert quaternion_close(got, Quaternion(0.5, s, s, 0), tol=1e-15)
    assert exp_pure(t_ij, 0.0) == ONE


def test_exp_pure_same_axis_adds_angles():
    rng = np.random.default_rng(5)
    for _ in range(500):
        chi, xi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        t = PureUnitQuaternion.from_angles(chi, xi)
        phi, psi = rng.uniform(-10, 10, size=2)
        lhs = exp_pure(t, phi) * exp_pure(t, psi)
        rhs = exp_pure(t, phi + psi)
        assert quaternion_close(lhs, rhs, tol=1e-9)
        assert abs(lhs.norm() - 1.0) <= 1e-9


def test_pure_unit_validation():
    with pytest.raises(NotPureUnit):
        pure_unit_from_components(1.0, 1.0, 0.0)
    with pytest.raises(NotPureUnit):
        pure_unit_from_quaternion(Quaternion(0.5, 1, 0, 0))
    t = PureUnitQuaternion.from_angles(1.1, 2.2)
    q = pure_unit_as_quaternion(t)
    assert quaternion_close(q * q, -ONE, tol=1e-15)


def test_pure_unit_angle_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(500):
        chi, xi = rng.uniform(1e-3, math.pi - 1e-3), rng.uniform(0, 2 * math.pi)
        t = PureUnitQuaternion.from_angles(chi, xi)
        assert abs(pure_unit_chi(t) - chi) <= 1e-12
        assert angle_distance(pure_unit_xi(t), xi) <= 1e-12
    # at the poles xi degenerates to the 0 convention
    assert pure_unit_xi(PureUnitQuaternion(0, 0, 1)) == 0.0
    assert pure_unit_chi(PureUnitQuaternion(0, 0, 1)) == 0.0


def test_conjugate_rotate_examples():
    k_half = exp_pure(PureUnitQuaternion(0, 0, 1), math.pi / 2)
    t_i = PureUnitQuaternion(1, 0, 0)
    got = conjugate_rotate(k_half, t_i)
    assert max(abs(got.tx + 1), abs(got.ty), abs(got.tz)) <= 1e-15
    # identity rotor fixes everything
    t = PureUnitQuaternion.from_angles(0.7, 1.3)
    got = conjugate_rotate(ONE, t)
    assert (got.tx, got.ty, got.tz) == (t.tx, t.ty, t.tz)
    # the k axis is fixed by any k-axis rotor
    for zeta in (0.1, 1.0, 2.5, 4.0):
        rotor = exp_pure(PureUnitQuaternion(0, 0, 1), zeta)
        got = conjugate_rotate(rotor, PureUnitQuaternion(0, 0, 1))
        assert max(abs(got.tx), abs(got.ty), abs(got.tz - 1)) <= 1e-12


def test_conjugate_rotate_matches_clockwise_k_rotation():
    # conj(e^{k z}) t e^{k z} turns the azimuth down by 2 z
    rng = np.random.default_rng(7)
    for _ in range(300):
        chi, xi = rng.uniform(1e-2, math.pi - 1e-2), rng.uniform(0, 2 * math.pi)
        zeta = rng.uniform(0, 2 * math.pi)
        t = PureUnitQuaternion.from_angles(chi, xi)
        rotor = exp_pure(PureUnitQuaternion(0, 0, 1), zeta)
        got = conjugate_rotate(rotor, t)
        want = PureUnitQuaternion.from_angles(chi, wrap_angle(xi - 2 * zeta))
        assert max(abs(got.tx - want.tx), abs(got.ty - want.ty),
                   abs(got.tz - want.tz)) <= 1e-9


def test_conjugate_rotate_preserves_purity_and_unit():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        q = random_quaternion(rng, unit=True)
        t = PureUnitQuaternion.from_angles(rng.uniform(0, math.pi),
                                           rng.uniform(0, 2 * math.pi))
        got = conjugate_rotate(q, t)
        n = math.sqrt(got.tx ** 2 + got.ty ** 2 + got.tz ** 2)
        assert abs(n - 1.0) <= 1e-9


def test_conjugate_rotate_rejects_non_unit():
    with pytest.raises(NotUnit):
        conjugate_rotate(Quaternion(2, 0, 0, 0), PureUnitQuaternion(0, 0, 1))


def test_to_complex_pair_examples():
    q = Quaternion(1, 4, 3, 2)  # 1 + 4i + 3j + 2k
    u, v = to_complex_pair(q)
    assert u == complex(1, 2)
    assert v == complex(3, -4)
    assert to_complex_pair(J) == (0, 1)
    assert to_complex_pair(K) == (1j, 0)


def test_complex_pair_roundtrip_bit_exact():
    rng = np.random.default_rng(9)
    for _ in range(500):
        q = random_quaternion(rng)
        u, v = to_complex_pair(q)
        assert from_complex_pair(u, v) == q
        u2 = complex(*rng.normal(size=2))
        v2 = complex(*rng.normal(size=2))
        assert to_complex_pair(from_complex_pair(u2, v2)) == (u2, v2)


def test_complex_embedding_multiplies_like_complex():
    # the k axis carries ordinary complex arithmetic
    rng = np.random.default_rng(10)
    for _ in range(200):
        z1 = complex(*rng.normal(size=2))
        z2 = complex(*rng.normal(size=2))
        prod = from_complex_pair(z1, 0j) * from_complex_pair(z2, 0j)
        assert quaternion_close(prod, from_complex_pair(z1 * z2, 0j), tol=1e-12)


def test_wrap_angle_range():
    for a in (-7.0, -1e-18, 0.0, 1.0, 2 * math.pi, 2 * math.pi - 1e-18, 20.0):
        w = wrap_angle(a)
        assert 0.0 <= w < 2 * math.pi
    assert wrap_angle(2 * math.pi) == 0.0
    assert angle_distance(0.0, 2 * math.pi - 1e-12) <= 2e-12


def test_wrapped_distance_matches_builtin_min_bit_for_bit():
    # _wrapped_distance spells min(d, TWO_PI - d) as a comparison; the two
    # must agree on every bit, signed zeros and NaN included
    def builtin_min(a, b):
        d = abs(a - b)
        return min(d, TWO_PI - d)

    rng = np.random.default_rng(61)
    pairs = [tuple(p) for p in rng.uniform(0.0, TWO_PI, size=(10**5, 2)).tolist()]
    special = (0.0, -0.0, math.pi, math.nextafter(TWO_PI, 0.0), math.nan)
    pairs += [(a, b) for a in special for b in special]
    pairs += [pair for a in special for r, _ in pairs[:100]
              for pair in ((a, r), (r, a))]
    for a, b in pairs:
        assert same_bits(_wrapped_distance(a, b), builtin_min(a, b)), (a, b)
