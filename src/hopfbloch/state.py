"""Two-qubit pure states, quaternionic quasi-states, and density matrices.

A state is the amplitude quadruple (alpha, beta, gamma, delta) of
|00>, |01>, |10>, |11>.  Converting to the quaternion pair keeps the base
qubit's kets and turns the other qubit's kets into quaternion units
(|0> -> 1, |1> -> j); the dyad of that pair is the quasi-density matrix,
which equals the base qubit's reduced density matrix plus a concurrence
term on the j axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import NotNormalized
from .hopf import S4Point, _pair_norms
from .quaternion import (
    Quaternion,
    _hamilton,
    _slot_setters,
    _wxyz,
    from_complex_pair,
    wrap_angle,
)
from .tolerances import EPS_UNIT, NORM_INPUT_TOL

if TYPE_CHECKING:
    import numpy as np


class Basis(Enum):
    """Which qubit stays as the ket basis (the other becomes quaternion units)."""

    A = "A"
    B = "B"


@dataclass(frozen=True, slots=True, init=False)
class TwoQubitState:
    """Unit-normalized amplitudes of |00>, |01>, |10>, |11>.

    Inputs within 1e-6 of unit norm are renormalized silently; anything
    further off raises NotNormalized.  Inputs already at unit norm are
    stored as given, ints and floats included: TwoQubitState(1, 0, 0, 0)
    keeps the int 1.  from_vector and reconstruct store complex amplitudes.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __init__(self, alpha: complex, beta: complex, gamma: complex,
                 delta: complex):
        try:
            n2 = (abs(alpha) ** 2 + abs(beta) ** 2
                  + abs(gamma) ** 2 + abs(delta) ** 2)
        except OverflowError:
            raise NotNormalized("amplitude norm overflows a float") from None
        n = math.sqrt(n2)
        # the comparison must fail non-finite norms too, hence the negation
        if not (abs(n - 1.0) <= NORM_INPUT_TOL):
            raise NotNormalized(f"amplitude norm {n:.12g} is not 1")
        if n2 != 1.0:
            alpha, beta, gamma, delta = alpha / n, beta / n, gamma / n, delta / n
        _set_alpha(self, alpha)
        _set_beta(self, beta)
        _set_gamma(self, gamma)
        _set_delta(self, delta)

    @classmethod
    def from_vector(cls, vec) -> "TwoQubitState":
        a, b, c, d = map(complex, vec)
        return cls(a, b, c, d)

    @property
    def vector(self) -> np.ndarray:
        import numpy as np
        return np.array([self.alpha, self.beta, self.gamma, self.delta],
                        dtype=complex)

    def amplitudes(self) -> tuple[complex, complex, complex, complex]:
        return self.alpha, self.beta, self.gamma, self.delta


_set_alpha, _set_beta, _set_gamma, _set_delta = _slot_setters(TwoQubitState)


_BELL = {
    "00": (1, 0, 0, 1),
    "01": (0, 1, 1, 0),
    "10": (1, 0, 0, -1),
    "11": (0, 1, -1, 0),
}


def bell_state(code: str) -> TwoQubitState:
    """One of the four maximally entangled presets keyed '00'..'11'."""
    if code not in _BELL:
        raise ValueError(f"bell code must be one of {sorted(_BELL)}, got {code!r}")
    a, b, c, d = _BELL[code]
    s = math.sqrt(0.5)
    return TwoQubitState(a * s, b * s, c * s, d * s)


def phase_aligned_distance(s1: TwoQubitState, s2: TwoQubitState) -> float:
    """Max amplitude deviation after aligning the global phases.

    The alignment phase is taken from the largest-magnitude amplitude of s1
    (the first one on a tie).
    """
    a1, b1, g1, d1 = s1.alpha, s1.beta, s1.gamma, s1.delta
    a2, b2, g2, d2 = s2.alpha, s2.beta, s2.gamma, s2.delta
    top, u1, u2 = abs(a1), a1, a2
    m = abs(b1)
    if m > top:
        top, u1, u2 = m, b1, b2
    m = abs(g1)
    if m > top:
        top, u1, u2 = m, g1, g2
    if abs(d1) > top:
        u1, u2 = d1, d2
    if abs(u2) == 0.0:
        # float() for int amplitudes, whose differences abs keeps as ints
        da, db, dg, dd = (float(abs(a1 - a2)), float(abs(b1 - b2)),
                          float(abs(g1 - g2)), float(abs(d1 - d2)))
    else:
        phase = u1 / u2
        try:
            r = abs(phase)
        except OverflowError:
            r = math.inf
        if r == math.inf:
            # a subnormal u2 overflows |u1 / u2|; atan2 keeps its full
            # precision
            phase = cmath.rect(1.0, cmath.phase(u1) - cmath.phase(u2))
        else:
            phase /= r
        da = abs(a1 - phase * a2)
        db = abs(b1 - phase * b2)
        dg = abs(g1 - phase * g2)
        dd = abs(d1 - phase * d2)
    # the comparisons keep max's choice: the first largest, a NaN only
    # where it comes first
    if db > da:
        da = db
    if dg > da:
        da = dg
    return dd if dd > da else da


@dataclass(frozen=True, slots=True)
class QuasiState:
    """Quaternion amplitude pair in the chosen basis; |q0|^2 + |q1|^2 = 1."""

    q0: Quaternion
    q1: Quaternion

    def norm_squared(self) -> float:
        return self.q0.norm_squared() + self.q1.norm_squared()


def quasi_state(s: TwoQubitState, basis: Basis = Basis.A) -> QuasiState:
    """Fold the non-base qubit into quaternion units: |0> -> 1, |1> -> j."""
    if basis is Basis.A:
        return QuasiState(from_complex_pair(s.alpha, s.beta),
                          from_complex_pair(s.gamma, s.delta))
    return QuasiState(from_complex_pair(s.alpha, s.gamma),
                      from_complex_pair(s.beta, s.delta))


@dataclass(frozen=True, slots=True)
class QuasiDensity:
    """2x2 quaternion-entried dyad of a quasi-state.

    Hermitian with real diagonal, trace 1, and idempotent (a projector).
    """

    e00: Quaternion
    e01: Quaternion
    e10: Quaternion
    e11: Quaternion

    @property
    def trace(self) -> float:
        return self.e00.w + self.e11.w

    def matmul(self, other: "QuasiDensity") -> "QuasiDensity":
        m = tuple(map(_wxyz, self.entries()))
        n = tuple(map(_wxyz, other.entries()))
        return QuasiDensity(*(Quaternion(*e) for e in _matmul(m, n)))

    def entries(self) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        return self.e00, self.e01, self.e10, self.e11


def _matmul(m: tuple, n: tuple) -> tuple:
    """``QuasiDensity.matmul`` on bare floats or numpy float64 columns: m
    and n give their entries e00, e01, e10, e11 each as a (w, x, y, z), and
    so does the result."""
    a, b, c, d = m
    e, f, g, h = n
    return (_product_sum(a, e, b, g), _product_sum(a, f, b, h),
            _product_sum(c, e, d, g), _product_sum(c, f, d, h))


def _product_sum(p: tuple, q: tuple, r: tuple, s: tuple) -> tuple:
    """p * q + r * s on (w, x, y, z) tuples."""
    w1, x1, y1, z1 = _hamilton(*p, *q)
    w2, x2, y2, z2 = _hamilton(*r, *s)
    return w1 + w2, x1 + x2, y1 + y2, z1 + z2


def quasi_density(qs: QuasiState) -> QuasiDensity:
    """Dyad |psi~><psi~| of the quaternion pair."""
    entries = _dyad(_wxyz(qs.q0), _wxyz(qs.q1))
    return QuasiDensity(*(Quaternion(*e) for e in entries))


def _dyad(q0: tuple, q1: tuple) -> tuple:
    """``quasi_density`` on the pair's (w, x, y, z): the entries e00, e01,
    e10, e11, each q_i * q_j.conjugate() as a (w, x, y, z)."""
    n = _pair_norms(q0, q1)[1]  # qs.norm_squared()
    if not (abs(n - 1.0) <= EPS_UNIT):
        raise NotNormalized(f"quasi-state norm^2 {n:.12g} is not 1")
    return _dyad_entries(q0, q1)


def _dyad_entries(q0: tuple, q1: tuple) -> tuple:
    """``_dyad`` past its guard, on floats or numpy float64 columns alike."""
    w0, x0, y0, z0 = q0
    w1, x1, y1, z1 = q1
    return (_hamilton(w0, x0, y0, z0, w0, -x0, -y0, -z0),
            _hamilton(w0, x0, y0, z0, w1, -x1, -y1, -z1),
            _hamilton(w1, x1, y1, z1, w0, -x0, -y0, -z0),
            _hamilton(w1, x1, y1, z1, w1, -x1, -y1, -z1))


def reduced_density(s: TwoQubitState, keep: Basis = Basis.A) -> np.ndarray:
    """2x2 complex reduced density matrix of the kept qubit."""
    import numpy as np
    a, b, c, d = s.amplitudes()
    if keep is Basis.B:
        b, c = c, b  # |0>_B holds alpha, gamma and |1>_B beta, delta
    return np.array(_reduced_entries(a, b, c, d), dtype=complex).reshape(2, 2)


def _reduced_entries(a: complex, b: complex, c: complex,
                     d: complex) -> tuple[float, complex, complex, float]:
    """The entries of ``reduced_density``, row by row, as Python numbers:
    a, b are the amplitudes with the kept qubit in |0>, c, d in |1>.
    ``_reduced_columns`` is its column form; they are two because Python
    multiplies real amplitudes as floats, whose zero imaginary parts come out
    +0.0 where the complex product can round them to -0.0."""
    off = a * c.conjugate() + b * d.conjugate()
    return (abs(a) ** 2 + abs(b) ** 2, off, off.conjugate(),
            abs(c) ** 2 + abs(d) ** 2)


def _reduced_columns(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     d: np.ndarray) -> tuple:
    """``_reduced_entries`` on numpy complex columns, each entry as its
    (real, imag) float64 columns: bit for bit what _reduced_entries gives on
    complex amplitudes, and on real ones but for the sign of a zero
    imaginary part."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    cr, ci, dr, di = c.real, c.imag, d.real, d.imag
    p_re, p_im = _complex_product(ar, ai, cr, -ci)  # a * c.conjugate()
    q_re, q_im = _complex_product(br, bi, dr, -di)
    re, im = p_re + q_re, p_im + q_im
    return ((_squared_modulus(ar, ai) + _squared_modulus(br, bi), 0.0),
            (re, im), (re, -im),
            (_squared_modulus(cr, ci) + _squared_modulus(dr, di), 0.0))


def _complex_product(ar: float, ai: float, br: float,
                     bi: float) -> tuple[float, float]:
    """The (real, imag) of (ar + ai*1j) * (br + bi*1j) by CPython's formula,
    on floats or numpy float64 columns alike, so each part rounds as
    Python's complex product rounds it.  Before Python 3.14, a float times a
    complex is this product with the float's imaginary part 0.0."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex_quotient(ar: np.ndarray, ai: np.ndarray, br: np.ndarray,
                      bi: np.ndarray) -> tuple:
    """``_complex_product``'s counterpart for (ar + ai*1j) / (br + bi*1j),
    by CPython's Smith's formula.  Before Python 3.14, a complex over a
    float is this quotient with the float's imaginary part 0.0."""
    import numpy as np
    by_re = abs(br) >= abs(bi)  # divide through by br, else by bi (or NaN)
    big, small = np.where(by_re, br, bi), np.where(by_re, bi, br)
    ratio = small / big
    denom = big + small * ratio  # both branches' denominator
    return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _normalized_columns(rows: np.ndarray) -> np.ndarray:
    """TwoQubitState's renormalization of each row of a numpy complex array,
    bit for bit; the first row that it rejects raises through it."""
    import numpy as np
    re, im = rows.real, rows.imag
    n2 = sum(_squared_modulus(re, im).T)  # in TwoQubitState's order
    n = np.sqrt(n2)[:, None]
    for row in np.flatnonzero(~(abs(n - 1.0) <= NORM_INPUT_TOL))[:1]:
        TwoQubitState(*rows[row].tolist())
    out, off = rows.copy(), n2 != 1.0  # a row at unit norm stays as given
    out.real[off], out.imag[off] = _complex_quotient(re[off], im[off], n[off], 0.0)
    return out


def _phase_aligned_columns(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """phase_aligned_distance of each pair of rows of two numpy complex
    arrays of amplitudes, bit for bit: v1's first largest amplitude, never a
    NaN, aligns, and a NaN deviation counts only where it comes first."""
    import numpy as np
    k = np.argmax(np.fmax(np.hypot(v1.real, v1.imag), -1.0), axis=1)[:, None]
    u1, u2 = np.take_along_axis(v1, k, 1), np.take_along_axis(v2, k, 1)
    with np.errstate(all="ignore"):
        re, im = _complex_quotient(u1.real, u1.imag, u2.real, u2.imag)
        r = np.hypot(re, im)
        re, im = _complex_quotient(re, im, r, 0.0)
        for j in np.flatnonzero(r == math.inf).tolist():
            z = cmath.rect(1.0, cmath.phase(u1[j, 0]) - cmath.phase(u2[j, 0]))
            re[j], im[j] = z.real, z.imag
        re, im = _complex_product(re, im, v2.real, v2.imag)
        zero = np.hypot(u2.real, u2.imag) == 0.0
        dev = np.hypot(v1.real - np.where(zero, v2.real, re),
                       v1.imag - np.where(zero, v2.imag, im))
    return np.where(dev[:, 0] >= 0.0, np.fmax.reduce(dev, axis=1), dev[:, 0])


def _squared_modulus(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """abs(z) ** 2 on numpy float64 columns of z's parts.  np.hypot rounds
    as the complex abs does (both call libm's hypot), and np.float_power(x,
    2.0) as Python's x ** 2 (libm's pow); x * x and np.power round apart
    from it.  Where x ** 2 overflows and raises, this gives inf."""
    import numpy as np
    return np.float_power(np.hypot(re, im), 2.0)


def concurrence(s: TwoQubitState) -> tuple[float, float]:
    """Concurrence 2|alpha*delta - beta*gamma| and its phase in [0, 2*pi).

    Twice the amplitude determinant equals concurrence * e^(k(xi - pi/2))
    with xi the extracted entanglement azimuth on the canonical branch.
    """
    det = s.alpha * s.delta - s.beta * s.gamma
    return 2.0 * abs(det), wrap_angle(cmath.phase(det))


def _concurrence_columns(a: np.ndarray, b: np.ndarray, g: np.ndarray,
                         d: np.ndarray) -> tuple:
    """``concurrence``'s first value on numpy complex columns of the
    amplitudes, with the determinant it takes: (c, det_re, det_im), bit for
    bit what concurrence and alpha*delta - beta*gamma give on complex
    amplitudes, and on real ones but for the sign of a zero part.  The
    phase is left out: check has no use for it."""
    import numpy as np
    ad_re, ad_im = _complex_product(a.real, a.imag, d.real, d.imag)
    bg_re, bg_im = _complex_product(b.real, b.imag, g.real, g.imag)
    re, im = ad_re - bg_re, ad_im - bg_im
    return 2.0 * np.hypot(re, im), re, im


def partial_trace_projection(p: S4Point) -> np.ndarray:
    """Reduced density matrix read straight off an S^4 base point.

    Tracing out the fiber qubit projects b*t onto the k axis
    (b*t -> x4*k), giving rho = ((1+x0, x1 - x4*k), (x1 + x4*k, 1-x0))/2.
    The Bloch vector (x1, x4, x0) then has length sqrt(1 - c^2): constant
    concurrence shells of the sphere flatten into concentric shells of a
    ball of radius sqrt(1 - c^2).
    """
    import numpy as np
    p.validate()
    parts = _projection_parts(p.x0, p.x1, p.x4)
    return np.array([complex(re, im) for re, im in parts],
                    dtype=complex).reshape(2, 2)


def _projection_parts(x0: float, x1: float, x4: float) -> tuple:
    """The entries of ``partial_trace_projection`` at a base point's x0, x1
    and x4, row by row, each as its (real, imag), on floats or numpy float64
    columns alike: each entry times 0.5 + 0j, the complex product that numpy
    forms for 0.5 * array.  On the diagonal, whose imaginary part is 0.0,
    that product is (0.5 * (1 +- x0), 0.0) for every finite x0, and the
    sphere check lets no other through."""
    return ((0.5 * (1.0 + x0), 0.0), _complex_product(0.5, 0.0, x1, -x4),
            _complex_product(0.5, 0.0, x1, x4), (0.5 * (1.0 - x0), 0.0))
