import cmath
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbloch import (
    Basis,
    HopfBlochError,
    NotNormalized,
    OffSphere,
    QuasiDensity,
    QuasiState,
    Quaternion,
    S4Point,
    SouthPoleA,
    TwoQubitState,
    bell_state,
    concurrence,
    extract,
    h1,
    partial_trace_projection,
    phase_aligned_distance,
    quasi_density,
    quasi_state,
    reconstruct,
    reduced_density,
)
from hopfbloch.quaternion import angle_distance
from hopfbloch.state import (
    _complex_product,
    _complex_quotient,
    _normalized_columns,
    _phase_aligned_columns,
    _projection_parts,
    _reduced_columns,
    _reduced_entries,
    _squared_modulus,
)

from helpers import (
    ONE,
    SQ2,
    J,
    dense_reduced,
    embed_complex,
    numpy_projection,
    numpy_reduced_density,
    phase_family_state,
    quaternion_close,
    random_product_states,
    random_states,
    random_unitary_2x2,
    reference_h1,
    reference_matmul,
    reference_phase_aligned_distance,
    reference_quasi_density,
    same_bits,
    same_quaternion_bits,
    special_quaternions,
    unit_pair,
)

CONC_TERM = ((Quaternion(), -J), (J, Quaternion()))  # ((0,-j),(j,0))


def test_normalization_policy():
    s = TwoQubitState(1 + 1e-7, 0, 0, 0)
    assert abs(abs(s.alpha) - 1.0) <= 1e-12
    with pytest.raises(NotNormalized):
        TwoQubitState(1.1, 0, 0, 0)
    with pytest.raises(NotNormalized):
        TwoQubitState(0, 0, 0, 0)


def test_bell_state_codes():
    b = bell_state("10")
    assert b.alpha == pytest.approx(SQ2) and b.delta == pytest.approx(-SQ2)
    with pytest.raises(ValueError):
        bell_state("2")


def test_quasi_state_examples():
    qs = quasi_state(bell_state("00"), Basis.A)
    assert quaternion_close(qs.q0, Quaternion(SQ2, 0, 0, 0))
    assert quaternion_close(qs.q1, Quaternion(0, 0, SQ2, 0))

    qs = quasi_state(TwoQubitState(1, 0, 0, 0), Basis.A)
    assert qs.q0 == ONE and qs.q1 == Quaternion()

    qs = quasi_state(bell_state("00"), Basis.B)
    assert quaternion_close(qs.q0, Quaternion(SQ2, 0, 0, 0))
    assert quaternion_close(qs.q1, Quaternion(0, 0, SQ2, 0))


def test_quasi_density_bell_examples():
    # ((1, -j), (j, 1))/2 for the 00 and 11 presets, transposed sign for 01/10
    for code, sign in (("00", -1), ("01", 1), ("10", 1), ("11", -1)):
        rho = quasi_density(quasi_state(bell_state(code)))
        assert quaternion_close(rho.e00, Quaternion(0.5, 0, 0, 0))
        assert quaternion_close(rho.e11, Quaternion(0.5, 0, 0, 0))
        assert quaternion_close(rho.e01, Quaternion(0, 0, sign * 0.5, 0))
        assert quaternion_close(rho.e10, Quaternion(0, 0, -sign * 0.5, 0))


def test_quasi_density_pure_product():
    rho = quasi_density(quasi_state(TwoQubitState(1, 0, 0, 0)))
    assert rho.e00 == ONE
    assert rho.e01 == Quaternion() and rho.e10 == Quaternion()
    assert rho.e11 == Quaternion()


def test_quasi_density_entrywise_closed_form():
    rng = np.random.default_rng(21)
    for s in random_states(rng, 300):
        a, b, g, d = s.amplitudes()
        rho = quasi_density(quasi_state(s))
        assert abs(rho.e00.w - (abs(a) ** 2 + abs(b) ** 2)) <= 1e-12
        assert abs(rho.e11.w - (abs(g) ** 2 + abs(d) ** 2)) <= 1e-12
        det = a * d - b * g
        lower = a.conjugate() * g + b.conjugate() * d
        want10 = embed_complex(lower) + Quaternion(0, -det.imag, det.real, 0)
        assert quaternion_close(rho.e10, want10)
        assert quaternion_close(rho.e01, want10.conjugate())


def test_quasi_density_projector_property():
    rng = np.random.default_rng(22)
    for s in random_states(rng, 2000):
        for basis in (Basis.A, Basis.B):
            rho = quasi_density(quasi_state(s, basis))
            assert abs(rho.trace - 1.0) <= 1e-9
            sq = rho.matmul(rho)
            for got, want in zip(sq.entries(), rho.entries()):
                assert (got - want).norm() <= 1e-9


def test_quasi_density_decomposition_both_bases():
    # quasi density = embedded reduced density + det * ((0,-j),(j,0))
    rng = np.random.default_rng(23)
    for s in random_states(rng, 300):
        det = s.alpha * s.delta - s.beta * s.gamma
        det_q = Quaternion(0, -det.imag, det.real, 0)  # det * j on the (j, i) plane
        for basis in (Basis.A, Basis.B):
            rho = quasi_density(quasi_state(s, basis))
            red = reduced_density(s, basis)
            assert quaternion_close(rho.e00, embed_complex(red[0, 0]), tol=1e-9)
            assert quaternion_close(rho.e11, embed_complex(red[1, 1]), tol=1e-9)
            assert quaternion_close(rho.e01 - (-det_q), embed_complex(red[0, 1]),
                                    tol=1e-9)
            assert quaternion_close(rho.e10 - det_q, embed_complex(red[1, 0]),
                                    tol=1e-9)


def _outcome(f, *args):
    """f(*args), or the type and message of the HopfBlochError it raises."""
    try:
        return f(*args)
    except HopfBlochError as exc:
        return type(exc), str(exc)


def _same_density_bits(a: QuasiDensity, b: QuasiDensity) -> bool:
    return all(map(same_quaternion_bits, a.entries(), b.entries()))


def test_quasi_density_matmul_and_h1_match_the_object_route_bit_for_bit():
    # quasi_density, matmul and h1 multiply through quaternion._hamilton;
    # the reference copies multiply Quaternion objects with the formula
    # inline.  Both must agree on every bit or raise the same error
    rng = np.random.default_rng(63)
    specials = special_quaternions(rng, 3000)
    pairs = [pair for q0, q1 in zip(specials[::2], specials[1::2])
             for pair in ((q0, q1), unit_pair(q0, q1))]
    states = random_states(rng, 300) + random_product_states(rng, 100) + [
        TwoQubitState(1, 0, 0, 0), TwoQubitState(0, 0, 1, 0),
        TwoQubitState(0, 0, 0, -1), bell_state("11")]
    pairs += [(qs.q0, qs.q1) for s in states for qs in
              (quasi_state(s, Basis.A), quasi_state(s, Basis.B))]
    densities = fibers = 0
    for q0, q1 in pairs:
        got = _outcome(quasi_density, QuasiState(q0, q1))
        want = _outcome(reference_quasi_density, QuasiState(q0, q1))
        if isinstance(want, QuasiDensity):
            densities += 1
            assert _same_density_bits(got, want), (q0, q1)
            assert _same_density_bits(got.matmul(got),
                                      reference_matmul(want, want)), (q0, q1)
        else:
            assert got == want
        got, want = _outcome(h1, q0, q1), _outcome(reference_h1, q0, q1)
        if isinstance(want, Quaternion):
            fibers += 1
            assert same_quaternion_bits(got, want), (q0, q1)
        else:
            assert got == want
    assert densities >= 1000 and fibers >= 1000
    # matmul of arbitrary entries, overflow and NaN included
    for entries in zip(*[iter(specials)] * 8):
        a, b = QuasiDensity(*entries[:4]), QuasiDensity(*entries[4:])
        assert _same_density_bits(a.matmul(b), reference_matmul(a, b))


def test_reduced_density_examples():
    rho = reduced_density(bell_state("00"), Basis.A)
    assert np.max(np.abs(rho - 0.5 * np.eye(2))) <= 1e-12

    rho = reduced_density(TwoQubitState(1, 0, 0, 0), Basis.B)
    assert np.max(np.abs(rho - np.array([[1, 0], [0, 0]]))) <= 1e-12

    r3 = 1 / math.sqrt(3)
    s = TwoQubitState(r3, r3, 0, r3)
    rho = reduced_density(s, Basis.A)
    want = np.array([[2 / 3, 1 / 3], [1 / 3, 1 / 3]])
    assert np.max(np.abs(rho - want)) <= 1e-12
    assert np.max(np.abs(rho - dense_reduced(s, Basis.A))) <= 1e-15


def test_reduced_density_matches_dense_oracle():
    rng = np.random.default_rng(24)
    for s in random_states(rng, 500):
        for keep in (Basis.A, Basis.B):
            assert np.max(np.abs(reduced_density(s, keep)
                                 - dense_reduced(s, keep))) <= 1e-12


def test_concurrence_examples():
    for code in ("00", "01", "10", "11"):
        c, _ = concurrence(bell_state(code))
        assert abs(c - 1.0) <= 1e-12
    rng = np.random.default_rng(25)
    for s in random_product_states(rng, 200):
        c, _ = concurrence(s)
        assert c <= 1e-9
    r3 = 1 / math.sqrt(3)
    c, _ = concurrence(TwoQubitState(r3, r3, 0, r3))
    assert abs(c - 2 / 3) <= 1e-12


def test_concurrence_phase_matches_xi():
    rng = np.random.default_rng(26)
    for s in random_states(rng, 300):
        c, phase = concurrence(s)
        if c < 1e-6:
            continue
        coords = extract(s)
        assert angle_distance(phase, coords.xi - math.pi / 2) <= 1e-9


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(27)
    for s in random_states(rng, 200):
        c0, _ = concurrence(s)
        u = np.kron(random_unitary_2x2(rng), random_unitary_2x2(rng))
        c1, _ = concurrence(TwoQubitState.from_vector(u @ s.vector))
        assert abs(c0 - c1) <= 1e-9


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       draw_states=st.sampled_from([random_states, random_product_states]))
def test_extracted_concurrence_local_unitary_invariance(seed, draw_states):
    # the coordinates' b * |sin(chi)|, not the amplitude formula above
    rng = np.random.default_rng(seed)
    s = draw_states(rng, 1)[0]
    u = np.kron(random_unitary_2x2(rng), random_unitary_2x2(rng))
    try:
        c0 = extract(s).concurrence
        c1 = extract(TwoQubitState.from_vector(u @ s.vector)).concurrence
    except SouthPoleA:
        return
    assert abs(c0 - c1) <= 1e-12


def test_phase_family_state():
    # trivial parameters collapse to the 00 preset
    s = phase_family_state(SQ2, 0, 0, SQ2, 0.0, 0.0)
    assert phase_aligned_distance(s, bell_state("00")) <= 1e-12
    # determinant phase is exactly twice the leading phase
    rng = np.random.default_rng(28)
    for _ in range(100):
        mags = np.abs(rng.normal(size=4))
        mags /= np.linalg.norm(mags)
        p1, p2, eta = rng.uniform(0, 2 * math.pi, size=3)
        s = phase_family_state(*mags, p1, p2, eta)
        det = s.alpha * s.delta - s.beta * s.gamma
        want = (mags[0] * mags[3] - mags[1] * mags[2]) * cmath.exp(2j * eta)
        assert abs(det - want) <= 1e-12
    with pytest.raises(NotNormalized):
        phase_family_state(1.0, 1.0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        phase_family_state(-0.5, 0.5, 0.5, 0.5, 0, 0)


def test_partial_trace_projection_examples():
    rho = partial_trace_projection(S4Point(0, 0, 0, 1, 0))
    assert np.max(np.abs(rho - 0.5 * np.eye(2))) <= 1e-15
    rho = partial_trace_projection(S4Point(1, 0, 0, 0, 0))
    assert np.max(np.abs(rho - np.array([[1, 0], [0, 0]]))) <= 1e-15
    with pytest.raises(OffSphere):
        partial_trace_projection(S4Point(1, 1, 1, 1, 1))


def test_partial_trace_projection_nan_point_rejected():
    with pytest.raises(OffSphere):
        partial_trace_projection(S4Point(math.nan, 0, 0, 0, 0))


def test_phase_aligned_distance_zero_amplitude_fallback():
    # s2 is zero where s1 peaks, so no phase can be aligned: plain max |a - b|
    s1 = TwoQubitState(1, 0, 0, 0)
    s2 = TwoQubitState(0, 1, 0, 0)
    assert phase_aligned_distance(s1, s2) == 1.0


def _distance_bits(x):
    return type(x), float(x).hex()


def test_phase_aligned_distance_matches_reference():
    # k is the first index of s1's largest magnitude: the Bell and basis
    # states tie two or four magnitudes, the Haar pairs pick it generically
    basis = [TwoQubitState(*(1 if i == j else 0 for i in range(4)))
             for j in range(4)]
    bells = [bell_state(code) for code in ("00", "01", "10", "11")]
    ties = basis + bells + [TwoQubitState(0.5, -0.5, 0.5j, -0.5j)]
    rng = np.random.default_rng(46)
    haar = random_states(rng, 400)
    pairs = [(s1, s2) for s1 in ties for s2 in ties + haar[:20]]
    pairs += [(s2, s1) for s1, s2 in pairs]
    pairs += list(zip(haar[:200], haar[200:]))
    pairs += [(s, reconstruct(extract(s))) for s in haar[:100]]
    for s1, s2 in pairs:
        assert (_distance_bits(phase_aligned_distance(s1, s2))
                == _distance_bits(reference_phase_aligned_distance(s1, s2)))


@pytest.mark.parametrize("tiny", [1e-310, 1e-310j, 5e-324,
                                  3.5e-309 * (1 + 1j)])
def test_phase_aligned_distance_subnormal_alignment_amplitude(tiny):
    # s2 is subnormal where s1 peaks: u1 / u2 overflows (to inf, or past
    # what abs() can return for the last one), and the distance must still
    # be the one the reverse order gives
    s1 = TwoQubitState(1, 0, 0, 0)
    s2 = TwoQubitState(tiny, 1, 0, 0)
    assert phase_aligned_distance(s2, s1) == 1.0
    d = phase_aligned_distance(s1, s2)
    assert math.isfinite(d)
    assert abs(d - 1.0) <= math.ulp(1.0)
    # the amplitude that peaks need not be the first one
    s1 = TwoQubitState(0.6, 0.8, 0, 0)
    s2 = TwoQubitState(0.6, 0.8j * tiny, 0.8, 0)
    scaled = s2.beta * 2.0 ** 600  # exact, and far from subnormal
    phase = scaled.conjugate() / abs(scaled)
    want = max(abs(a - phase * b)
               for a, b in zip(s1.amplitudes(), s2.amplitudes()))
    assert abs(phase_aligned_distance(s1, s2) - want) <= 1e-15


@pytest.mark.parametrize("vec, exc", [
    ((1, 0, 0), ValueError),
    ((1, 0, 0, 0, 0), ValueError),
    ((1, None, 0, 0), TypeError),
    (("a", 0, 0, 0), ValueError),
], ids=["three-entries", "five-entries", "none-entry", "malformed-string"])
def test_from_vector_errors(vec, exc):
    with pytest.raises(exc):
        TwoQubitState.from_vector(vec)


def test_quasi_density_rejects_unnormalized_pair():
    with pytest.raises(NotNormalized):
        quasi_density(QuasiState(Quaternion(2), Quaternion()))


def test_partial_trace_projection_ball_radius():
    # constant concurrence c pins the Bloch vector length to sqrt(1 - c^2)
    rng = np.random.default_rng(29)
    c = 0.5
    for _ in range(200):
        x4_frac = rng.uniform(-1, 1)
        rest = math.sqrt(1 - c * c)
        x0, x1 = rng.normal(size=2)
        scale = math.sqrt(max(1e-12, 1 - c * c - (x4_frac * rest) ** 2))
        n01 = math.hypot(x0, x1)
        x0, x1 = x0 / n01 * scale, x1 / n01 * scale
        xi = rng.uniform(0, 2 * math.pi)
        p = S4Point(x0, x1, c * math.cos(xi), c * math.sin(xi), x4_frac * rest)
        rho = partial_trace_projection(p)
        vec = np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag,
                        (rho[0, 0] - rho[1, 1]).real])
        assert abs(np.linalg.norm(vec) - math.sqrt(1 - c * c)) <= 1e-9


def test_partial_trace_projection_matches_reduced_density():
    rng = np.random.default_rng(30)
    for s in random_states(rng, 300):
        p = extract(s).s4_point
        got = partial_trace_projection(p)
        want = reduced_density(s, Basis.A)
        assert np.max(np.abs(got - want)) <= 1e-9
        ball = p.x0 ** 2 + p.x1 ** 2 + p.x4 ** 2 + p.c ** 2
        assert abs(ball - 1.0) <= 1e-9


def _signed_zero_states(rng, count):
    """Basis states and equal-weight pairs whose zero parts carry random
    signs."""
    for _ in range(count):
        amps = [complex(*rng.choice([0.0, -0.0], size=2)) for _ in range(4)]
        k, m = rng.choice(4, size=2, replace=False)
        amps[k] = (1.0, -1.0, 1j, -1j)[rng.integers(4)]
        yield TwoQubitState(*amps)
        amps[k] = amps[m] = complex(SQ2, amps[m].imag)
        yield TwoQubitState(*amps)


def _base_points(states):
    """The S^4 base point of each state off the south pole."""
    for s in states:
        try:
            yield extract(s).s4_point
        except SouthPoleA:
            pass


def _signed_zero_points():
    """Each of the ten poles of S^4, with every sign of its four zeros."""
    for axis in range(5):
        for pole in (1.0, -1.0):
            for signs in itertools.product((0.0, -0.0), repeat=4):
                coords = list(signs)
                coords.insert(axis, pole)
                yield S4Point(*coords)


def _has_negative_zero(m: np.ndarray) -> bool:
    parts = m.view(float)
    return bool(np.any((parts == 0.0) & np.signbit(parts)))


def _column_matrices(entries, count: int) -> np.ndarray:
    """The (count, 2, 2) complex matrices of column-form entries, each a
    (real, imag) pair of float64 columns or floats, row by row."""
    out = np.empty((count, 4), dtype=complex)
    for k, (re, im) in enumerate(entries):
        out.real[:, k] = re
        out.imag[:, k] = im
    return out.reshape(count, 2, 2)


def test_entry_helpers_are_the_numpy_matrices_bit_for_bit():
    # tobytes compares signed zeros too
    rng = np.random.default_rng(31)
    states = (random_states(rng, 200) + random_product_states(rng, 50)
              + [bell_state(code) for code in ("00", "01", "10", "11")]
              + [TwoQubitState(*np.eye(4)[k]) for k in range(4)]
              + list(_signed_zero_states(rng, 200)))
    negative_zeros = {"reduced": 0, "projection": 0}
    # the column forms that check takes, on every state at once
    a, b, c, d = np.array([s.amplitudes() for s in states], dtype=complex).T
    columns = {Basis.A: _column_matrices(_reduced_columns(a, b, c, d),
                                         len(states)),
               Basis.B: _column_matrices(_reduced_columns(a, c, b, d),
                                         len(states))}
    for i, s in enumerate(states):
        a, b, c, d = s.amplitudes()
        for keep, entries in ((Basis.A, _reduced_entries(a, b, c, d)),
                              (Basis.B, _reduced_entries(a, c, b, d))):
            got = reduced_density(s, keep)
            assert got.tobytes() == numpy_reduced_density(s, keep).tobytes()
            assert (np.array(entries, dtype=complex).reshape(2, 2).tobytes()
                    == got.tobytes()), (s, keep)
            negative_zeros["reduced"] += _has_negative_zero(got)
            # Python multiplies real amplitudes as floats, whose zero
            # imaginary parts the complex product can round to -0.0
            column = columns[keep][i]
            if all(type(amp) is complex for amp in s.amplitudes()):
                assert column.tobytes() == got.tobytes(), (s, keep)
            else:
                assert np.array_equal(column, got), (s, keep)
    points = [*_base_points(states), *_signed_zero_points()]
    x0, x1, x4 = np.array([(p.x0, p.x1, p.x4) for p in points]).T
    columns = _column_matrices(_projection_parts(x0, x1, x4), len(points))
    for p, column in zip(points, columns):
        got = partial_trace_projection(p)
        assert got.tobytes() == numpy_projection(p).tobytes(), p
        assert column.tobytes() == got.tobytes(), p
        negative_zeros["projection"] += _has_negative_zero(got)
    # enough outputs carry a -0.0 for the signs to be compared
    assert negative_zeros["reduced"] >= 400
    assert negative_zeros["projection"] >= 40


# parts of the complex numbers that pin the column primitives: signed zeros,
# subnormals, values whose products overflow, infinities and NaN
SPECIAL_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -0.5, 1e160,
                 1e300, -1e300, math.inf, -math.inf, math.nan)
SPECIAL_COMPLEX = [complex(re, im) for re in SPECIAL_PARTS
                   for im in SPECIAL_PARTS]


def test_column_complex_product_is_pythons_bit_for_bit():
    pairs = list(itertools.product(SPECIAL_COMPLEX, repeat=2))
    a = np.array([p for p, _ in pairs])
    b = np.array([q for _, q in pairs])
    with np.errstate(all="ignore"):
        re, im = _complex_product(a.real, a.imag, b.real, -b.imag)
    got = np.empty(len(pairs), dtype=complex)
    got.real, got.imag = re, im
    want = np.array([p * q.conjugate() for p, q in pairs])
    assert got.tobytes() == want.tobytes()



# finite parts, zeros of both signs and a subnormal among them
QUOTIENT_PARTS = (0.0, -0.0, 5e-324, 1.0, -0.5, 2.5, -3.0, 1e300, -1e300)
QUOTIENT_COMPLEX = [complex(re, im) for re in QUOTIENT_PARTS
                    for im in QUOTIENT_PARTS]


def _quotient_bits(pairs, divide):
    """(Python's p / q, the column form's) as complex arrays, pairs being
    (p, q) and divide taking the four float64 columns."""
    p, q = np.array(pairs).T
    with np.errstate(all="ignore"):
        re, im = divide(p.real, p.imag, q.real, q.imag)
    got = np.empty(len(pairs), dtype=complex)
    got.real, got.imag = re, im
    return np.array([a / b for a, b in pairs]).tobytes(), got.tobytes()


def test_column_complex_quotient_is_pythons_bit_for_bit():
    # Smith's two branches, |br| >= |bi| and |bi| > |br|; a divisor with
    # equal parts takes the first; quotients that overflow or underflow
    rng = np.random.default_rng(12)
    haar = [complex(*row) for row in rng.normal(size=(400, 2))]
    pairs = [(p, q) for p in QUOTIENT_COMPLEX for q in QUOTIENT_COMPLEX
             if q != 0]
    pairs += [(p, complex(x, s * x)) for p in haar[:20]
              for x in (0.5, -2.0) for s in (1, -1)]
    pairs += list(zip(haar[:200], haar[200:]))
    assert any(abs(q.real) < abs(q.imag) for _, q in pairs)
    want, got = _quotient_bits(pairs, _complex_quotient)
    assert got == want
    # before Python 3.14 a float divisor is complex(divisor, 0.0): floats
    # over floats, with -0.0 parts among them
    pairs = [(p, float(q)) for p in QUOTIENT_COMPLEX + haar
             for q in QUOTIENT_PARTS[2:]]
    want, got = _quotient_bits(
        pairs, lambda ar, ai, br, bi: _complex_quotient(ar, ai, br, 0.0))
    assert got == want


def _amplitude_array(states):
    return np.array([s.amplitudes() for s in states], dtype=complex)


def test_column_normalization_is_two_qubit_states_bit_for_bit():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(300, 8))
    haar = raw[:, 0::2] + 1j * raw[:, 1::2]
    haar /= np.linalg.norm(haar, axis=1)[:, None]
    # squared norm 1.0 exactly, -0.0 parts included, stored as given
    unit = [(0.6, -0.8j, 0.0, 0.0), (complex(-0.0, 0.6), 0.0, 0.8, -0.0),
            (1.0, 0.0, 0.0, 0.0), (0.5, 0.5j, -0.5, complex(-0.5, -0.0))]
    # within 1e-6 of unit norm: renormalized
    near = [(*row[:3], row[3] * (1 + 9e-7)) for row in haar[:20].tolist()]
    rows = np.array(haar.tolist() + unit + near, dtype=complex)
    got = _normalized_columns(rows)
    want = _amplitude_array(TwoQubitState(*row) for row in rows.tolist())
    assert got.tobytes() == want.tobytes()
    assert got[300:304].tobytes() == rows[300:304].tobytes()
    assert (got[304:] != rows[304:]).any(axis=1).all()


@pytest.mark.parametrize("bad", [
    (1.0 + 3e-6, 0.0, 0.0, 0.0), (complex(math.nan), 0.0, 0.0, 0.0),
    (0.0, complex(0.0, math.inf), 0.0, 0.0), (1e200, 1e200, 0.0, 0.0),
], ids=["off", "nan", "inf", "overflow"])
def test_column_normalization_raises_twoqubitstates_error_first(bad):
    rows = np.array([bell_state("00").amplitudes(), bad, (math.nan, 0, 0, 0)],
                    dtype=complex)
    with pytest.raises(NotNormalized) as want:
        TwoQubitState(*bad)
    with pytest.raises(NotNormalized) as got, np.errstate(over="ignore"):
        _normalized_columns(rows)
    assert str(got.value) == str(want.value)


def _raw_amplitudes(*amps):
    """An object with the amplitude attributes phase_aligned_distance reads,
    which no normalization guards, for NaN rows."""
    return SimpleNamespace(**dict(zip(("alpha", "beta", "gamma", "delta"),
                                      amps)), amplitudes=lambda: amps)


def test_column_phase_alignment_is_phase_aligned_distance_bit_for_bit():
    basis = [TwoQubitState(*(1 if i == j else 0 for i in range(4)))
             for j in range(4)]
    bells = [bell_state(code) for code in ("00", "01", "10", "11")]
    ties = basis + bells + [TwoQubitState(0.5, -0.5, 0.5j, -0.5j)]
    haar = random_states(np.random.default_rng(14), 300)
    pairs = [(s1, s2) for s1 in ties for s2 in ties + haar[:20]]
    pairs += [(s2, s1) for s1, s2 in pairs]
    pairs += list(zip(haar[:100], haar[100:200]))
    pairs += [(s, reconstruct(extract(s))) for s in haar[200:]]
    # a subnormal u2, whose u1 / u2 overflows: the cmath.rect route
    for tiny in (1e-310, 1e-310j, 5e-324, 3.5e-309 * (1 + 1j)):
        pairs.append((basis[0], TwoQubitState(tiny, 1, 0, 0)))
        pairs.append((TwoQubitState(0.6, 0.8, 0, 0),
                      TwoQubitState(0.6, 0.8j * tiny, 0.8, 0)))
    # NaN in either state, before or after the largest amplitude
    nan = complex(math.nan, 0.0)
    for amps in ((nan, 0.6, 0.8, 0), (0.6, 0.8, nan, 0), (0.6, nan, 0.8j, 0)):
        raw = _raw_amplitudes(*amps)
        for s in (bells[0], haar[0]):
            pairs += [(raw, s), (s, raw)]
    want = [phase_aligned_distance(s1, s2) for s1, s2 in pairs]
    got = _phase_aligned_columns(_amplitude_array(s1 for s1, _ in pairs),
                                 _amplitude_array(s2 for _, s2 in pairs))
    assert sum(map(math.isnan, want)) >= 4
    # int amplitudes, 0 where the first state peaks: the fallback's float
    assert same_bits(phase_aligned_distance(basis[0], basis[1]), 1.0)
    assert all(type(d) is float for d in want)
    assert all(map(same_bits, got.tolist(), want))

def test_column_squared_modulus_is_pythons_bit_for_bit():
    # every abs before any **: CPython 3.11's abs of a complex with a NaN
    # part returns NaN but leaves C's errno as it was, so after a ** that
    # overflowed it would raise OverflowError
    moduli = [abs(z) for z in SPECIAL_COMPLEX]
    want = []
    for modulus in moduli:
        try:
            want.append(modulus ** 2)
        except OverflowError:
            want.append(math.inf)  # where Python raises, numpy gives inf
    assert math.inf in want and any(map(math.isnan, moduli))
    z = np.array(SPECIAL_COMPLEX)
    with np.errstate(all="ignore"):
        got = _squared_modulus(z.real, z.imag)
    assert got.tobytes() == np.array(want).tobytes()


def test_non_finite_amplitudes_rejected():
    with pytest.raises(NotNormalized):
        TwoQubitState(float("nan"), 0, 0, 0)
    with pytest.raises(NotNormalized):
        TwoQubitState(complex(0, float("inf")), 0, 0, 0)
    # finite amplitudes whose squared norm overflows
    with pytest.raises(NotNormalized):
        TwoQubitState(1e200, 1e200, 0, 0)
    with pytest.raises(NotNormalized):
        TwoQubitState(1e155j, 0, 0, 0)
