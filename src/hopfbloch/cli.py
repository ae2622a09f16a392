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
    alternate,
    canonicalize,
    extract,
    normalize_global_phase,
    reconstruct,
)
from .errors import (
    FiberAtInfinity,
    HopfBlochError,
    NotNormalized,
    OutOfRange,
    SouthPoleA,
    UnknownGate,
)
from .gates import GateSpec, TrajectorySample, _samples
from .hopf import CoordFlag, h1, inverse_stereographic
from .quaternion import Quaternion, _sphere_point, angle_distance
from .state import (
    TwoQubitState,
    _projection_entries,
    _reduced_entries,
    bell_state,
    concurrence,
    phase_aligned_distance,
    quasi_density,
    quasi_state,
)
from .tolerances import EPS_NUM

if TYPE_CHECKING:
    import numpy as np


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse would print usage and exit 2, so
    bad arguments reach main's error table like every other parse error."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _round12(v: float) -> float:
    return float(f"{v:.12g}")


def _pair(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


_ANGLES = ("theta_a", "phi_a", "chi", "xi", "theta_b", "phi_b", "zeta_b")


def _rounded(names: tuple[str, ...], values: tuple[float, ...]) -> dict:
    return {name: _round12(v) for name, v in zip(names, values)}


def _flag_names(c: BlochCoordinates) -> list[str]:
    return sorted(f.value for f in c.flags)


def _coords_record(c: BlochCoordinates, label: str | None) -> dict:
    p = c.s4_point
    record = {}
    if label is not None:
        record["label"] = label
    record.update({
        "angles": _rounded(_ANGLES, c.angles()),
        "cartesian": _rounded(("x0", "x1", "x2", "x3", "x4"),
                              (p.x0, p.x1, p.x2, p.x3, p.x4)),
        "t": _rounded(("tx", "ty", "tz"), _sphere_point(c.chi, c.xi)),
        "qubit_b": _rounded(("xb", "yb", "zb"), _sphere_point(c.theta_b, c.phi_b)),
        "concurrence": _round12(c.concurrence),
        "flags": _flag_names(c),
        "alternate": _rounded(_ANGLES, alternate(c).angles()),
    })
    return record


# float.__repr__ of the non-finite floats -> what json.dumps writes for them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for a tree of dicts with str
    keys, lists, strs, floats, ints, bools and None; anything else raises
    TypeError.  newline starts each line of obj at its indent.  On CPython
    3.10 to 3.12 any indent sends json.dumps to its slower pure-Python
    encoder."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
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
        "psi_b": [_pair(z) for z in exc.psi_b],
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
    record = {"amplitudes": [_pair(z) for z in state.amplitudes()]}
    if args.roundtrip:
        try:
            again = extract(state)
            angle_dev = max(angle_distance(x, y) for x, y in
                            zip(again.angles(), canonicalize(coords).angles()))
            amp_dev = phase_aligned_distance(state, reconstruct(again))
            record["roundtrip"] = {
                "angle_max_deviation": _round12(angle_dev),
                "amplitude_max_deviation": _round12(amp_dev),
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


def _num(v: float) -> str:
    """_json(_round12(v)), without the round trip through float where the
    12-digit text already is the shortest repr of the float it reads as: it
    has a '.' or an 'e-', and v is neither subnormal nor 1e11 or more (so
    the text has no 'e+')."""
    text = f"{v:.12g}"
    if 1e-300 <= abs(v) < 1e11 and ("." in text or "e-" in text):
        return text
    return _json(float(text))


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
        "axis": [_round12(a) for a in g.axis],
        "eta": _round12(g.eta),
        "omega": _round12(g.omega),
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


# bound once: on Python 3.11 each Enum member lookup runs EnumType.__getattr__
_XI_UNDEFINED = CoordFlag.XI_UNDEFINED


def _nan_max(values) -> float:
    """max that returns NaN when any value is NaN (the builtin can drop it)."""
    values = tuple(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _distance(p: Quaternion, q: Quaternion) -> float:
    """(p - q).norm(), without the intermediate Quaternion."""
    w = p.w - q.w
    x = p.x - q.x
    y = p.y - q.y
    z = p.z - q.z
    return math.sqrt(w * w + x * x + y * y + z * z)


def _deviations(s: TwoQubitState, fib: Quaternion) -> tuple[tuple, tuple]:
    """The state's deviation from each of _INVARIANTS but reduced_vs_oracle,
    in that order, and the 12 entries of the three 2x2 matrices that
    _check_table compares with its dense oracle for reduced_vs_oracle, row
    by row; fib is the unit fiber element for fiber_invariance."""
    coords = extract(s)
    round_trip = phase_aligned_distance(s, reconstruct(coords))

    a, b, g, d = s.alpha, s.beta, s.gamma, s.delta
    c, _ = concurrence(s)
    conc = abs(c - coords.concurrence)
    if _XI_UNDEFINED not in coords.flags:
        claim = c * cmath.exp(1j * (coords.xi - 0.5 * math.pi))
        det2 = 2.0 * (a * d - b * g)
        conc = _nan_max((conc, abs(claim - det2)))

    qs = quasi_state(s)
    rho = quasi_density(qs)
    sq = rho.matmul(rho)
    projector = _nan_max((
        abs(rho.trace - 1.0), _distance(sq.e00, rho.e00),
        _distance(sq.e01, rho.e01), _distance(sq.e10, rho.e10),
        _distance(sq.e11, rho.e11)))

    # the reduced density matrices of qubits A and B, and the projection of
    # the base point, which the oracle compares with A's
    p = coords.s4_point
    reduced = (*_reduced_entries(a, b, g, d), *_reduced_entries(a, g, b, d),
               *_projection_entries(p))

    ball = abs(p.x0 ** 2 + p.x1 ** 2 + p.x4 ** 2 + p.c ** 2 - 1.0)

    try:
        base = inverse_stereographic(h1(qs.q0, qs.q1))
        moved = inverse_stereographic(h1(qs.q0 * fib, qs.q1 * fib))
        fiber = _nan_max((abs(base.x0 - moved.x0), abs(base.x1 - moved.x1),
                          abs(base.x2 - moved.x2), abs(base.x3 - moved.x3),
                          abs(base.x4 - moved.x4)))
    except FiberAtInfinity:
        # q1 = 0: every fiber element maps to the north pole, so there is
        # nothing to compare
        fiber = 0.0
    return (round_trip, conc, projector, ball, fiber), reduced


def _reduced_vs_oracle(states: list[TwoQubitState],
                       got: np.ndarray) -> np.ndarray:
    """Each state's deviation for reduced_vs_oracle: the largest entry
    difference between its three 2x2 matrices, whose 12 entries are a row
    of `got`, and the partial traces A, B and A of the dense |psi><psi|.
    np.max propagates NaN, so a NaN deviation fails its invariant."""
    import numpy as np
    vec = np.array([s.amplitudes() for s in states], dtype=complex)
    dense = (vec[:, :, None] * vec.conj()[:, None, :]).reshape(-1, 2, 2, 2, 2)
    dense_a = np.trace(dense, axis1=2, axis2=4)
    dense_b = np.trace(dense, axis1=1, axis2=3)
    oracle = np.stack((dense_a, dense_b, dense_a), axis=1)
    diff = got.reshape(-1, 3, 2, 2) - oracle
    return np.abs(diff).max(axis=(2, 3)).max(axis=1)


# states per block of the check sweep: the dense oracle's arrays grow with
# the block, so memory stays flat in --count
_CHECK_BLOCK = 128


def _unit_rows(rows: np.ndarray) -> list[list]:
    """Each row divided by its norm, as Python numbers.  One norm per row:
    BLAS sums a whole array in another order."""
    import numpy as np
    return (rows / [[np.linalg.norm(row)] for row in rows]).tolist()


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
            TwoQubitState(*amps)
            for amps in _unit_rows(raw[block, 0::2] + 1j * raw[block, 1::2])]
        fibs = [Quaternion(*q) for q in _unit_rows(rng.normal(size=(len(states), 4)))]
        rows, got = zip(*map(_deviations, states, fibs))
        table[block, [0, 1, 2, 4, 5]] = rows  # all but reduced_vs_oracle
        table[block, 3] = _reduced_vs_oracle(states, np.array(got, dtype=complex))
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
