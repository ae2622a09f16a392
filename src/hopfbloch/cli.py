"""Command-line front end: state <-> coordinates conversion, gate
trajectories, and an invariant check sweep.

Exit codes: 0 success, 1 stdout closed early (a broken pipe), 2 parse
error, 3 domain error, 4 unknown gate.
All numbers are emitted with 12 significant digits so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import os
import sys
from array import array
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterator

from . import svg
from .bloch import (
    BlochCoordinates,
    _XI_UNDEFINED,
    _concurrence,
    _extract,
    _reconstruct,
    alternate,
    canonicalize,
    extract,
    normalize_global_phase,
    reconstruct,
)
from .errors import (
    HopfBlochError,
    NotNormalized,
    OutOfRange,
    SouthPoleA,
    UnknownGate,
)
from .gates import GateSpec, TrajectorySample, _samples
from .hopf import (
    _base_point,
    _h1,
    _lift,
    _pair_norms,
    _quotient,
    _validate,
)
from .quaternion import _from_complex_pair, _hamilton, _sphere_point, angle_distance
from .state import (
    TwoQubitState,
    _complex_product,
    _concurrence_columns,
    _dyad,
    _dyad_entries,
    _matmul,
    _projection_parts,
    _reduced_columns,
    bell_state,
    phase_aligned_distance,
)
from .tolerances import EPS_NUM, EPS_UNIT, EPS_ZERO

if TYPE_CHECKING:
    import numpy as np


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse would print usage and exit 2, so
    bad arguments reach main's error table like every other parse error."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


_ANGLES = ("theta_a", "phi_a", "chi", "xi", "theta_b", "phi_b", "zeta_b")


def _flag_names(c: BlochCoordinates) -> list[str]:
    return sorted(f.value for f in c.flags)


def _coords_record(c: BlochCoordinates, label: str | None) -> dict:
    p = c.s4_point
    record = {}
    if label is not None:
        record["label"] = label
    record.update({
        "angles": dict(zip(_ANGLES, c.angles())),
        "cartesian": dict(zip(("x0", "x1", "x2", "x3", "x4"),
                              (p.x0, p.x1, p.x2, p.x3, p.x4))),
        "t": dict(zip(("tx", "ty", "tz"), _sphere_point(c.chi, c.xi))),
        "qubit_b": dict(zip(("xb", "yb", "zb"), _sphere_point(c.theta_b, c.phi_b))),
        "concurrence": c.concurrence,
        "flags": _flag_names(c),
        "alternate": dict(zip(_ANGLES, alternate(c).angles())),
    })
    return record


# float.__repr__ of the non-finite floats -> what json.dumps writes for them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _num(v: float) -> str:
    """json.dumps(float(f"{v:.12g}")): v at 12 significant digits, ints
    included.  The 12-digit text is written as it is where it already is
    the shortest repr of the float it reads as: it has a '.' or an 'e-',
    and v is neither subnormal nor 1e11 or more (so the text has no
    'e+')."""
    text = f"{v:.12g}"
    if 1e-300 <= abs(v) < 1e11 and ("." in text or "e-" in text):
        return text
    text = float.__repr__(float(text))
    return _NON_FINITE.get(text, text)


def _json(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, with every float first
    rounded to 12 significant digits (_num), for a tree of dicts with str
    keys, lists, strs, floats, ints, bools and None; anything else raises
    TypeError.  newline starts each line of obj at its indent.  On CPython
    3.10 to 3.12 any indent sends json.dumps to its slower pure-Python
    encoder."""
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_json(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: {_json(item, inner)}"
                 for key, item in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    "is not JSON serializable")


def _floats(text: str, count: int, what: str) -> list[float]:
    fields = text.split(",")
    if len(fields) != count:
        raise ParseError(f"{what} {text!r}: need {count} comma-separated numbers")
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"bad {what} {text!r}: {exc}") from None


def _parse_state(args) -> tuple[TwoQubitState, str | None]:
    if args.bell is not None:
        try:
            return bell_state(args.bell), f"bell_{args.bell}"
        except ValueError as exc:
            raise ParseError(f"--bell: {exc}") from None
    if args.state is None:
        raise ParseError("provide --state or --bell")
    parts = args.state.split(";")
    if len(parts) != 4:
        raise ParseError("--state needs four 're,im' pairs separated by ';'")
    amps = [complex(*_floats(part, 2, "amplitude")) for part in parts]
    return TwoQubitState(*amps), None


def _south_pole_payload(exc: SouthPoleA) -> dict:
    return {
        "error": "south_pole_a",
        "message": str(exc),
        "psi_b": [[z.real, z.imag] for z in exc.psi_b],
    }


def cmd_coords(args) -> tuple[int, str]:
    state, label = _parse_state(args)
    coords = extract(state)
    if args.fix_phase:
        coords = normalize_global_phase(coords)
    return 0, _json(_coords_record(coords, label))


def cmd_amplitudes(args) -> tuple[int, str]:
    coords = BlochCoordinates(*_floats(args.angles, 7, "--angles"))
    state = reconstruct(coords)
    record = {"amplitudes": [[z.real, z.imag] for z in state.amplitudes()]}
    if args.roundtrip:
        try:
            again = extract(state)
            angle_dev = max(angle_distance(x, y) for x, y in
                            zip(again.angles(), canonicalize(coords).angles()))
            amp_dev = phase_aligned_distance(state, reconstruct(again))
            record["roundtrip"] = {
                "angle_max_deviation": angle_dev,
                "amplitude_max_deviation": amp_dev,
                "flags": _flag_names(again),
            }
        except SouthPoleA as exc:
            record["roundtrip"] = _south_pole_payload(exc)
    return 0, _json(record)


def _make_gate(args) -> GateSpec:
    name = args.gate.lower()
    fixed = {"cnot": GateSpec.cnot, "cz": GateSpec.cz, "swap": GateSpec.swap}
    if name in fixed:
        if (args.axis, args.eta, args.omega) != (None, None, None):
            raise ParseError(f"--axis, --eta and --omega apply only to cu, not {name}")
        return fixed[name]()
    if name in ("cu", "controlled-u"):
        if args.axis is None:
            raise ParseError("controlled-U needs --axis nx,ny,nz")
        eta = math.pi / 2 if args.eta is None else args.eta
        omega = math.pi if args.omega is None else args.omega
        return GateSpec.controlled_u(_floats(args.axis, 3, "--axis"), omega, eta)
    raise UnknownGate(f"unknown gate {args.gate!r}; use cnot, cz, swap or cu")


_CSV_HEADER = ("stage,s,alpha_re,alpha_im,beta_re,beta_im,gamma_re,gamma_im,"
               "delta_re,delta_im," + ",".join(_ANGLES) + ",concurrence,branch_flip")
# one CSV row: the stage, _sample_numbers at 12 digits, the branch flip
_CSV_ROW = "\n%s," + ",".join(["%.12g"] * 17) + ",%d"


# one JSON sample record after its separator, at its indent in the samples
# list: a stage value needs no escaping, and every other %s takes its value's
# JSON text.  That makes 21 values; CPython 3.11 frees a tuple of 20 to a
# free list that it never draws from, which keeps up to 400 KB.
_SAMPLE_JSON = "%s" + _json({
    "stage": "%s", "s": "%s", "amplitudes": [["%s", "%s"]] * 4,
    "angles": dict.fromkeys(_ANGLES, "%s"),
    "concurrence": "%s", "flags": "%s", "branch_flip": "%s",
}, "\n    ").replace('"%s"', "%s").replace('"stage": %s', '"stage": "%s"')


def _sample_numbers(smp: TrajectorySample) -> tuple[float, ...]:
    """s, the amplitudes' real and imaginary parts, the seven angles and the
    concurrence of one sample, in the order traj writes them."""
    a, b, g, d = smp.state.amplitudes()
    c = smp.coords
    return (smp.s, a.real, a.imag, b.real, b.imag, g.real, g.imag,
            d.real, d.imag, *c.angles(), c.concurrence)


def _sample_json(sep: str, smp: TrajectorySample) -> str:
    return _SAMPLE_JSON % (sep, smp.stage.value,
                           *map(_num, _sample_numbers(smp)),
                           _json(_flag_names(smp.coords), "\n      "),
                           "true" if smp.branch_flip else "false")


def _traj_csv(samples: Iterator[TrajectorySample]) -> Iterator[str]:
    yield _CSV_HEADER
    for smp in samples:
        yield _CSV_ROW % (smp.stage.value, *_sample_numbers(smp), smp.branch_flip)


def _traj_json(g: GateSpec, samples: Iterator[TrajectorySample]) -> Iterator[str]:
    gate = {
        "kind": g.kind.value,
        "axis": list(g.axis),
        "eta": g.eta,
        "omega": g.omega,
    }
    yield '{\n  "gate": ' + _json(gate, "\n  ") + ',\n  "samples": ['
    sep = "\n    "
    for smp in samples:
        yield _sample_json(sep, smp)
        sep = ",\n    "
    yield "\n  ]\n}"


def _traj_svg(samples: Iterator[TrajectorySample]) -> str:
    # each sphere's path as flat x, y, z doubles: a path is one polyline,
    # written after its last point, so only these grow with the samples
    paths = sphere_a, sphere_t, sphere_b = array("d"), array("d"), array("d")
    for smp in samples:
        c = smp.coords
        sphere_a.extend(_sphere_point(c.theta_a, c.phi_a))
        sphere_t.extend(_sphere_point(c.chi, c.xi))
        sphere_b.extend(_sphere_point(c.theta_b, c.phi_b))
    return svg.render_spheres(paths)


# samples per ramp
_MAX_RAMP_SAMPLES = 10 ** 6


def cmd_traj(args) -> tuple[int, str | Iterator[str]]:
    """Checks every argument before any output; JSON and CSV then come as
    pieces, a sample each, that _run writes as they are built."""
    if not (2 <= args.n1 <= _MAX_RAMP_SAMPLES and 2 <= args.n2 <= _MAX_RAMP_SAMPLES):
        raise ParseError(f"--n1 and --n2 must be between 2 and {_MAX_RAMP_SAMPLES}")
    gate = _make_gate(args)
    state, _ = _parse_state(args)
    samples = _samples(gate, state, args.n1, args.n2)
    if args.format == "csv":
        return 0, _traj_csv(samples)
    if args.format == "svg":
        return 0, _traj_svg(samples)
    return 0, _traj_json(gate, samples)


_INVARIANTS = ("round_trip", "concurrence_identity", "projector",
               "reduced_vs_oracle", "ball_identity", "fiber_invariance")


def _nan_max_columns(columns: tuple) -> np.ndarray:
    """The row-by-row max over numpy columns of values that are never -0.0,
    but math.nan itself wherever a column holds a NaN (the builtin max can
    drop one)."""
    import numpy as np
    top = functools.reduce(np.maximum, columns)  # np.maximum keeps NaN
    return np.where(top != top, math.nan, top)


def _distance(p: tuple, q: tuple) -> np.ndarray:
    """(p - q).norm() of two quaternions given as (w, x, y, z) columns."""
    import numpy as np
    w = p[0] - q[0]
    x = p[1] - q[1]
    y = p[2] - q[2]
    z = p[3] - q[3]
    return np.sqrt(w * w + x * x + y * y + z * z)


def _scalar_steps(s: TwoQubitState) -> tuple:
    """The steps of a state's check that stay on Python floats, a state at
    a time.  extract, reconstruct and phase_aligned_distance branch per
    state; the first two run as their float cores, _extract and
    _reconstruct, so no BlochCoordinates is built.  The base point's sin
    and cos, the xi claim's cmath.exp and ball_identity's math.hypot are
    not numpy's: numpy rounds its arctan2 and angle apart from math.atan2
    and cmath.phase in about 7% of normal draws, and its hypot apart from
    math.hypot.  The sphere guard of partial_trace_projection runs here so
    that it raises in sweep order.

    It returns round_trip and ball_identity, the coordinates' concurrence,
    whether xi is defined, e^(k(xi - pi/2)) as its real and imaginary parts
    (0.0 where xi is flagged), and the base point's x0, x1 and x4: a row of
    the columns that _check_block takes."""
    (theta_a, phi_a, chi, xi, theta_b, phi_b, zeta_b,
     flags) = _extract(s.alpha, s.beta, s.gamma, s.delta)
    a, b, g, d = _reconstruct(theta_a, phi_a, chi, xi, theta_b, phi_b, zeta_b)
    round_trip = phase_aligned_distance(s, TwoQubitState(a, b, g, d))
    defined = _XI_UNDEFINED not in flags
    e = cmath.exp(1j * (xi - 0.5 * math.pi)) if defined else 0j
    p = _base_point(theta_a, phi_a, chi, xi)
    _validate(*p)
    x0, x1, x2, x3, x4 = p
    ball = abs(x0 ** 2 + x1 ** 2 + x4 ** 2 + math.hypot(x2, x3) ** 2 - 1.0)
    return (round_trip, ball, _concurrence(theta_a, phi_a, chi), defined,
            e.real, e.imag, x0, x1, x4)


def _quaternion_deviations(vec: np.ndarray,
                           fibs: np.ndarray) -> tuple[int, np.ndarray,
                                                      np.ndarray]:
    """(stop, projector, fiber) of a block of states, given their amplitudes
    `vec` and unit fiber elements `fibs`, a row each: the projector and
    fiber_invariance deviations as columns, and the first row that a
    NotNormalized guard of _dyad or _h1 rejects (len(vec) when none does),
    from which on the columns mean nothing.

    The float cores run unchanged on numpy float64 columns.  numpy's + - *
    /, sqrt and abs round as Python's floats do, each ufunc call is one
    operation (nothing fuses a multiply and an add), and the expression
    trees are the cores' own, so each row is bit for bit what the cores give
    on that state's floats.  Only the guards take a column form."""
    import numpy as np
    q0 = _from_complex_pair(vec[:, 0], vec[:, 1])
    q1 = _from_complex_pair(vec[:, 2], vec[:, 3])
    fib = tuple(fibs.T)
    # Python's floats warn of nothing, and the rows at infinity divide by
    # zero, which _h1's guard keeps them from
    with np.errstate(all="ignore"):
        rho = _dyad_entries(q0, q1)
        e00, e01, e10, e11 = rho
        s00, s01, s10, s11 = _matmul(rho, rho)
        projector = _nan_max_columns((
            abs(e00[0] + e11[0] - 1.0), _distance(s00, e00),
            _distance(s01, e01), _distance(s10, e10), _distance(s11, e11)))

        moved0, moved1 = _hamilton(*q0, *fib), _hamilton(*q1, *fib)
        n2, total = _pair_norms(q0, q1)
        moved_n2, moved_total = _pair_norms(moved0, moved1)
        base = _lift(_quotient(q0, q1, n2))
        moved = _lift(_quotient(moved0, moved1, moved_n2))
        fiber = _nan_max_columns(tuple(
            abs(x - y) for x, y in zip(base, moved)))

        # _dyad's guard (_h1's on the pair is the same), then _h1's on the
        # moved pair, which only a pair off infinity reaches
        at_infinity = n2 <= EPS_ZERO * EPS_ZERO
        rejected = ~((abs(total - 1.0) <= EPS_UNIT)
                     & (at_infinity | (abs(moved_total - 1.0) <= EPS_UNIT)))
    # q1 = 0 (or q1 * fib): every fiber element maps to the north pole, so
    # there is nothing to compare
    at_infinity |= moved_n2 <= EPS_ZERO * EPS_ZERO
    fiber = np.where(at_infinity, 0.0, fiber)
    stop = np.flatnonzero(rejected)
    return (int(stop[0]) if stop.size else len(vec)), projector, fiber


def _concurrence_identity(vec: np.ndarray, concurrence: np.ndarray,
                          defined: np.ndarray, e_re: np.ndarray,
                          e_im: np.ndarray) -> np.ndarray:
    """Each state's concurrence_identity deviation, with its amplitudes a
    row of `vec` and its coordinates' concurrence, whether xi is defined and
    e^(k(xi - pi/2)) an entry of the columns: |C - concurrence| with
    C = 2|det| and det = alpha delta - beta gamma, and where xi is defined
    the larger of that and |C e^(k(xi - pi/2)) - 2 det|."""
    import numpy as np
    c, det_re, det_im = _concurrence_columns(*vec.T)
    conc = abs(c - concurrence)
    # C * e and 2.0 * det: a float times a complex
    claim_re, claim_im = _complex_product(c, 0.0, e_re, e_im)
    det2_re, det2_im = _complex_product(2.0, 0.0, det_re, det_im)
    claim = np.hypot(claim_re - det2_re, claim_im - det2_im)
    return np.where(defined, _nan_max_columns((conc, claim)), conc)


def _reduced_vs_oracle(vec: np.ndarray, x0: np.ndarray, x1: np.ndarray,
                       x4: np.ndarray) -> np.ndarray:
    """Each state's deviation for reduced_vs_oracle: the largest entry
    difference between its reduced density matrices of qubits A and B and
    the projection of its base point's x0, x1, x4, and the partial traces
    A, B and A of the dense |psi><psi|, with the state's amplitudes a row
    of `vec`.  np.max propagates NaN, so a NaN deviation fails its
    invariant."""
    import numpy as np
    a, b, g, d = vec.T
    got = np.empty((len(vec), 12), dtype=complex)
    got_re, got_im = got.real, got.imag
    entries = (*_reduced_columns(a, b, g, d), *_reduced_columns(a, g, b, d),
               *_projection_parts(x0, x1, x4))
    for k, (re, im) in enumerate(entries):
        got_re[:, k] = re
        got_im[:, k] = im
    dense = (vec[:, :, None] * vec.conj()[:, None, :]).reshape(-1, 2, 2, 2, 2)
    # the partial traces over B and over A, as np.trace sums them
    dense_a = dense[:, :, 0, :, 0] + dense[:, :, 1, :, 1]
    dense_b = dense[:, 0, :, 0, :] + dense[:, 1, :, 1, :]
    oracle = np.stack((dense_a, dense_b, dense_a), axis=1)
    diff = got.reshape(-1, 3, 2, 2) - oracle
    return np.abs(diff).max(axis=(2, 3)).max(axis=1)


def _check_block(states: list[TwoQubitState], fibs: np.ndarray) -> np.ndarray:
    """Each state's deviation from each of _INVARIANTS, a row each, with the
    rows of fibs their unit fiber elements.  It raises the error that
    checking the states one at a time, in order, meets first.

    Past _scalar_steps, every invariant runs once per block on numpy
    columns, an entry per state.  Each column step is an operation that
    the per-state formula takes on that state's numbers, with numpy
    rounding it as Python does (a complex product written out in real
    parts, np.hypot for the complex abs, np.float_power for ** 2), so each
    row is bit for bit that formula's."""
    import numpy as np
    vec = np.array([s.amplitudes() for s in states], dtype=complex)
    stop, projector, fiber = _quaternion_deviations(vec, fibs)
    # the states after the first that a guard rejects are never reached,
    # and the scalar steps of the states up to it come first
    steps = [_scalar_steps(s) for s in states[:stop + 1]]
    if stop < len(states):
        # the cores raise that state's NotNormalized, with their message
        (a, b, g, d), fib = vec[stop].tolist(), fibs[stop].tolist()
        q0, q1 = _from_complex_pair(a, b), _from_complex_pair(g, d)
        _dyad(q0, q1)
        _h1(_hamilton(*q0, *fib), _hamilton(*q1, *fib))
    (round_trip, ball, concurrence, defined, e_re, e_im,
     x0, x1, x4) = np.array(steps).T
    table = np.empty((len(states), len(_INVARIANTS)))
    table[:, 0] = round_trip
    table[:, 1] = _concurrence_identity(vec, concurrence, defined != 0.0,
                                        e_re, e_im)
    table[:, 2] = projector
    table[:, 3] = _reduced_vs_oracle(vec, x0, x1, x4)
    table[:, 4] = ball
    table[:, 5] = fiber
    return table


# states per block of the check sweep: the dense oracle's arrays and the
# quaternion columns grow with the block, so memory stays flat in --count.
# The default --count 500 runs as one block.
_CHECK_BLOCK = 512


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its norm, bit-identical to row /
    np.linalg.norm(row).  For a 1-D row and ord=None, numpy >= 1.24 takes
    that norm as sqrt(row.dot(row)), or for a complex row
    sqrt(row.real.dot(row.real) + row.imag.dot(row.imag)), and its sqrt
    rounds as math.sqrt does.  A stacked matmul of (n, 1, 4) by (n, 4, 1)
    makes the same BLAS dot call for each row, on the same strided views:
    copies at unit stride would take another OpenBLAS kernel, which sums in
    another order, and so would one dot over the whole array."""
    import numpy as np
    if rows.dtype.kind == "c":
        re, im = rows.real, rows.imag
        n2 = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    else:
        n2 = rows[:, None, :] @ rows[:, :, None]
    return rows / np.sqrt(n2[:, 0])


def _check_table(rng: np.random.Generator, state: TwoQubitState | None,
                 count: int) -> np.ndarray:
    """Row i holds the i-th swept state's deviation from each of
    _INVARIANTS: `state` alone when given, else `count` random states.

    rng draws the (count, 8) table of random amplitudes first, then one
    4-vector per state for its fiber element, a block of states at a time.
    """
    import numpy as np
    if state is None:
        try:
            raw = rng.normal(size=(count, 8))
        except (MemoryError, ValueError) as exc:
            raise ParseError(f"--count {count} is too large: {exc}") from None
    else:
        count = 1
    table = np.empty((count, len(_INVARIANTS)))
    for lo in range(0, count, _CHECK_BLOCK):
        block = slice(lo, lo + _CHECK_BLOCK)
        states = [state] if state is not None else [
            TwoQubitState(*amps) for amps
            in _unit_rows(raw[block, 0::2] + 1j * raw[block, 1::2]).tolist()]
        table[block] = _check_block(
            states, _unit_rows(rng.normal(size=(len(states), 4))))
    return table


def cmd_check(args) -> tuple[int, str]:
    import numpy as np
    seed = args.seed
    seed_env = os.environ.get("HOPFBLOCH_SEED")
    if seed_env is not None:
        try:
            seed = int(seed_env)
        except ValueError:
            raise ParseError("HOPFBLOCH_SEED must be an integer, "
                             f"got {seed_env!r}") from None
    if seed < 0:
        raise ParseError(f"seed must be non-negative, got {seed}")
    tol = args.tolerance
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParseError(f"--tolerance must be finite and positive, got {tol!r}")
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    rng = np.random.default_rng(seed)

    state = None
    if args.state is not None or args.bell is not None:
        state = _parse_state(args)[0]
    table = _check_table(rng, state, args.count)

    # NaN-propagating, so a NaN deviation fails its invariant
    worst = table.max(axis=0)
    lines = [f"{'ok  ' if value <= tol else 'FAIL'} {name:24s} max_err={value:.3e}"
             for name, value in zip(_INVARIANTS, worst)]
    lines.append(f"checked {len(table)} state(s), tolerance {tol:g}")
    return 0 if (worst <= tol).all() else 3, "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Return the one parser shared by every call; callers must not mutate it."""
    parser = _Parser(
        prog="hopfbloch",
        description="Convert two-qubit pure states to three-sphere Bloch "
                    "coordinates and back, and sample gate trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--state",
                           help="amplitudes as 're,im;re,im;re,im;re,im' (use the "
                                "--state=... form when the first value is negative)")
        group.add_argument("--bell", help="Bell preset: 00, 01, 10 or 11")

    p_coords = sub.add_parser("coords", help="state -> seven angles")
    add_state_args(p_coords)
    p_coords.add_argument("--fix-phase", action="store_true",
                          help="shift xi and phi_b by 2*zeta_b and zero zeta_b")
    p_coords.add_argument("--canonical", action="store_true",
                          help="no-op: coords is already on the b >= 0 branch")
    p_coords.add_argument("--format", choices=["json"], default="json")

    p_amp = sub.add_parser("amplitudes", help="seven angles -> state")
    p_amp.add_argument("--angles", required=True,
                       help=",".join(_ANGLES) + " (radians)")
    p_amp.add_argument("--roundtrip", action="store_true",
                       help="re-extract and report the max deviation")

    p_traj = sub.add_parser("traj", help="two-step gate trajectory")
    p_traj.add_argument("gate", help="cnot, cz, swap or cu")
    add_state_args(p_traj)
    p_traj.add_argument("--axis", help="cu only: the axis as 'nx,ny,nz'")
    p_traj.add_argument("--eta", type=float,
                        help="cu only: phase endpoint (radians)")
    p_traj.add_argument("--omega", type=float,
                        help="cu only: rotation endpoint (radians)")
    p_traj.add_argument("--n1", type=int, default=32, help="phase-ramp samples")
    p_traj.add_argument("--n2", type=int, default=32, help="rotation-ramp samples")
    p_traj.add_argument("--format", choices=["json", "csv", "svg"],
                        default="json")

    p_check = sub.add_parser("check", help="run the invariant sweep")
    add_state_args(p_check)
    p_check.add_argument("--seed", type=int, default=0,
                         help="rng seed (HOPFBLOCH_SEED overrides)")
    p_check.add_argument("--count", type=int, default=500,
                         help="number of random states")
    p_check.add_argument("--tolerance", type=float, default=EPS_NUM)

    return parser


# (class, error kind, exit code), most specific class first
_ERRORS = (
    (ParseError, "parse", 2),
    (UnknownGate, "unknown_gate", 4),
    (NotNormalized, "not_normalized", 3),
    (OutOfRange, "out_of_range", 3),
    (HopfBlochError, "domain", 3),
)


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, not bound into the shared parser, so that a
        # later rebinding of a cmd_* function (a tracer's wrapper) is called
        code, text = globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        # only --help exits: argparse printed the help text
        return exc.code
    except SouthPoleA as exc:
        code, text = 3, _json(_south_pole_payload(exc))
    except (ParseError, HopfBlochError) as exc:
        kind, code = next((kind, code) for cls, kind, code in _ERRORS
                          if isinstance(exc, cls))
        text = _json({"error": kind, "message": str(exc)})
    write = sys.stdout.write
    for piece in (text,) if isinstance(text, str) else text:
        write(piece)
    # the final newline goes in a write of its own, as print writes it.
    # Unbuffered, a closed pipe can cut the text short without an error, but
    # that last write then raises BrokenPipeError, which main turns into
    # exit 1.
    write("\n")
    return code


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early (`| head`): send what is still buffered
        # to devnull, so the flush at exit does not fail again, and exit 1
        # as the Python docs' SIGPIPE recipe does
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
