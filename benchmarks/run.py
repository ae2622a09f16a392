"""The hopfbloch benchmark: closed-loop workloads over the library and the CLI.

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 36 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client runs one operation at a time for ``--seconds``.  All inputs are made
from ``--seed`` before timing starts, and every output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same loop
untraced for half the time and traced for the other half, and prints the
per-layer metrics (spans around each module's public functions, recorded by
``tracer.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report (provenance, sample counts, tail percentile,
failing commands, exact counts), also written to ``.bench_out/``.
``--workload all`` (the default) runs each workload in turn and ends with
one combined result line; it exits 1 when any workload's check fails.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = BENCH / "goldens"

TOL = 1e-9           # README round-trip tolerance on amplitudes
SETUP_REPS = 5       # fresh-interpreter imports before and after the loop
JUMP_RAD = 1.0       # coords_distance above which a step counts as a jump
TAIL_MIN_OPS = 100   # inputs needed for a tail over per-input best times
SETUP_MARGIN_S = 120  # a run may take this long beyond --seconds, then stops

# OpenBLAS starts a worker thread per CPU in every process that imports numpy,
# and the workers spin: on two shared vCPUs a fresh interpreter then runs on
# both, and its time follows the neighbours' load.  The library's 4x4 arrays
# never need them.  Set before numpy is imported here; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# ``hopfbloch check`` reads it; the one command of the mix that needs it sets it
os.environ.pop("HOPFBLOCH_SEED", None)

# name, argv, extra env, expectation, known defect (ROADMAP item 4)
CLI_COMMANDS = (
    ("coords-bell", ["coords", "--bell", "00"], {}, "golden", False),
    ("coords-state", ["coords", "--state", "0.5,0;0.5,0;0.5,0;0.5,0",
                      "--fix-phase", "--canonical"], {}, "golden", False),
    ("amplitudes-roundtrip", ["amplitudes", "--angles",
                              "1.5707963,1.5707963,1.5707963,1.5707963,0,0,0",
                              "--roundtrip"], {}, "golden", False),
    ("traj-csv", ["traj", "cz", "--bell", "10", "--format", "csv",
                  "--n1", "8", "--n2", "8"], {}, "golden", False),
    ("traj-json", ["traj", "cu", "--axis", "0,0,1", "--eta", "1.5707963",
                   "--omega", "3.1415927", "--bell", "00"], {}, "golden", False),
    ("traj-svg", ["traj", "swap", "--state",
                  "0.70710678,0;0,0.70710678;0,0;0,0", "--format", "svg"],
     {}, "golden", False),
    ("check", ["check", "--seed", "7", "--count", "500", "--tolerance", "1e-9"],
     {}, "golden", False),
    ("bad-bell", ["coords", "--bell", "22"], {}, "error", False),
    ("unknown-gate", ["traj", "foo", "--bell", "00"], {}, "error", False),
    ("south-pole", ["coords", "--state=0,0;0,0;1,0;0,0"], {}, "error", False),
    ("angle-range", ["amplitudes", "--angles", "9,0,0,0,0,0,0"], {},
     "error", False),
    ("bad-axis", ["traj", "cu", "--axis", "a,b,c", "--bell", "00"], {},
     "error", True),
    ("bad-seed-env", ["check", "--count", "2000"], {"HOPFBLOCH_SEED": "abc"},
     "error", True),
    ("negative-count", ["check", "--count", "-1"], {}, "error", True),
)

LAYER_FUNCS = (
    "quaternion.mul", "quaternion.exp_pure", "quaternion.to_complex_pair",
    "hopf.angles_from_base", "hopf.h1", "hopf.inverse_stereographic",
    "state.from_vector", "state.phase_aligned_distance", "state.quasi_density",
    "state.reduced_density", "bloch.extract", "bloch.reconstruct",
    "bloch.alternate", "bloch.coords_distance", "gates.gate_matrix",
    "gates.trajectory", "svg.render_spheres",
)
FLAG_NAMES = ("phi_a_undefined", "t_undefined", "xi_undefined",
              "phi_b_undefined", "south_pole_a", "theta_b_pi_ambiguous")
EXIT_CODES = (0, 1, 2, 3, 4)


def fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


class Overrun(BaseException):
    """Raised by the run's alarm; not an Exception, so no op handler takes
    it, and ``subprocess.run`` kills and reaps its child on the way out."""


def _overrun(signum, frame):
    raise Overrun(f"run exceeded --seconds plus {SETUP_MARGIN_S} s")


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def import_library():
    """Import hopfbloch from this checkout's src/, and nowhere else."""
    if not (SRC / "hopfbloch" / "__init__.py").is_file():
        fail(f"no hopfbloch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hopfbloch
    if Path(hopfbloch.__file__).resolve().parent != SRC / "hopfbloch":
        fail(f"imported hopfbloch from {hopfbloch.__file__}, not {SRC}")
    return hopfbloch


# ---------------------------------------------------------------- workloads


class Roundtrip:
    """op = from_vector -> extract -> reconstruct -> phase-aligned error."""

    def __init__(self, hb, seed: int, size: int = 4096):
        import numpy as np
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(size, 8))
        vecs = raw[:, 0::2] + 1j * raw[:, 1::2]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        self.pool = [tuple(complex(z) for z in v) for v in vecs]
        self.slots = 32
        self.paced = False
        self.weights = None
        self.known_defects = frozenset()
        self.state, self.bloch = hb.state, hb.bloch

    label = staticmethod(str)

    def next_cycle(self) -> list:
        return list(enumerate(self.pool))

    def op(self, vec):
        s = self.state.TwoQubitState.from_vector(vec)
        c = self.bloch.extract(s)
        return c, self.state.phase_aligned_distance(s, self.bloch.reconstruct(c))

    def check(self, item, result) -> bool:
        return result[1] <= TOL

    def count(self, counts: Counter, item, result) -> None:
        counts["samples"] += 1
        counts.update(f"flag.{f.value}" for f in result[0].flags)


class TrajectoryWorkload:
    """op = trajectory(g, s, 64, 64) for CNOT, CZ, SWAP and four seeded
    controlled-U gates, on the 4 Bell, the 4 basis, 4 seeded product and 4
    seeded Haar states."""

    N1 = N2 = 64

    def __init__(self, hb, seed: int):
        import numpy as np
        rng = np.random.default_rng(seed)
        GateSpec = hb.GateSpec
        gates = [GateSpec.cnot(), GateSpec.cz(), GateSpec.swap()]
        for _ in range(4):
            axis = rng.normal(size=3)
            gates.append(GateSpec.controlled_u(
                tuple(axis / np.linalg.norm(axis)),
                float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi))))
        vecs = [hb.bell_state(code).amplitudes() for code in ("00", "01", "10", "11")]
        vecs += [tuple(1.0 if i == k else 0.0 for i in range(4)) for k in range(4)]
        for _ in range(4):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            qa = (a[0::2] + 1j * a[1::2]) / np.linalg.norm(a)
            qb = (b[0::2] + 1j * b[1::2]) / np.linalg.norm(b)
            vecs.append(tuple(complex(z) for z in np.kron(qa, qb)))
        raw = rng.normal(size=(4, 8))
        for row in raw:
            v = row[0::2] + 1j * row[1::2]
            vecs.append(tuple(complex(z) for z in v / np.linalg.norm(v)))
        states = [hb.TwoQubitState.from_vector(v) for v in vecs]
        self.pool = [(g, s) for g in gates for s in states]
        rng.shuffle(self.pool)
        self.slots = 32
        self.paced = False
        self.weights = None
        self.known_defects = frozenset()
        self.hb = hb

    label = staticmethod(str)

    def next_cycle(self) -> list:
        return list(enumerate(self.pool))

    def op(self, item):
        g, s = item
        return self.hb.gates.trajectory(g, s, self.N1, self.N2)

    def check(self, item, result) -> bool:
        hb = self.hb
        g, s = item
        end = hb.gates.apply(g, s).amplitudes()
        last = result.samples[-1].state.amplitudes()
        if max(abs(a - b) for a, b in zip(end, last)) > TOL:
            return False
        south = hb.CoordFlag.SOUTH_POLE_A
        return all(
            hb.state.phase_aligned_distance(smp.state, hb.bloch.reconstruct(smp.coords)) <= TOL
            for smp in result.samples if south not in smp.coords.flags)

    def count(self, counts: Counter, item, result) -> None:
        prev = None
        for smp in result.samples:
            counts["samples"] += 1
            counts.update(f"flag.{f.value}" for f in smp.coords.flags)
            counts["branch_flip"] += smp.branch_flip
            if (prev is not None and not smp.branch_flip
                    and self.hb.bloch.coords_distance(prev, smp.coords) > JUMP_RAD):
                counts["unflagged_jump"] += 1
            prev = smp.coords


class Cli:
    """op = ``hopfbloch.cli.main`` on one command line, in this process, with
    stdout and stderr captured, as ``sys.exit(main())`` would run it: an
    uncaught exception prints its traceback and exits 1.  The fresh
    interpreter and imports that a shell command adds are ``setup_s``.

    Paced: each of the phase's stretches of time runs one cycle and then
    waits for the stretch to end.  A cycle runs every command once, but
    ``check`` only in every ``CHECK_EVERY``-th, and then ``CHECK_REPEATS``
    times.  So every run makes the same ops, whatever the speed of the code
    or the machine, and ``failed`` is exactly the known defects' share of
    them.
    """

    # 176 cycles hold 11 ``check`` draws (each the best of 4 runs) out of
    # 2299, so the tail (10 draws beyond it) is the fastest ``check``: inside
    # the slow group, and like the other workloads' tails, the slowest input
    # at its best time
    CHECK_EVERY = 16
    CHECK_REPEATS = 4

    def __init__(self, hb, seed: int):
        from hopfbloch import cli
        codes = json.loads((GOLDENS / "exit_codes.json").read_text())
        self.goldens = {name: (code, (GOLDENS / f"{name}.out").read_bytes())
                        for name, code in codes.items()}
        self.rng = random.Random(seed)
        self.pool = CLI_COMMANDS
        self.slots = 176
        self.paced = True
        self.known_defects = frozenset(c[0] for c in CLI_COMMANDS if c[4])
        self.cli = cli
        self.cycles = 0
        self.weights = [self.CHECK_REPEATS / self.CHECK_EVERY
                        if c[0] == "check" else 1.0 for c in CLI_COMMANDS]

    def next_cycle(self) -> list:
        """Every command but the slow ``check`` runs, in a seeded order;
        every ``CHECK_EVERY``-th cycle adds ``CHECK_REPEATS`` of ``check``."""
        with_check = self.cycles % self.CHECK_EVERY == 0
        self.cycles += 1
        cycle = []
        for i, c in enumerate(CLI_COMMANDS):
            if c[0] != "check":
                cycle.append((i, c))
            elif with_check:
                cycle += [(i, c)] * self.CHECK_REPEATS
        self.rng.shuffle(cycle)
        return cycle

    def label(self, index: int) -> str:
        return CLI_COMMANDS[index][0]

    def op(self, item):
        _, argv, extra, _, _ = item
        out, err = io.StringIO(), io.StringIO()
        os.environ.update(extra)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        finally:
            for key in extra:
                del os.environ[key]
        return code, out.getvalue().encode(), err.getvalue()

    def check(self, item, result) -> bool:
        name, _, _, expect, _ = item
        code, stdout, stderr = result
        if expect == "golden":
            return (code, stdout) == self.goldens[name]
        return code in (2, 3, 4) and "Traceback" not in stderr

    def count(self, counts: Counter, item, result) -> None:
        counts["samples"] += 1
        counts[f"exit.{result[0]}"] += 1


WORKLOADS = {"roundtrip": Roundtrip, "trajectory": TrajectoryWorkload, "cli": Cli}


def workload_whys() -> dict:
    """The one-line reason for each workload, as BENCHMARK.json states it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"]: w["why"] for w in spec["workloads"]}

# ---------------------------------------------------------------- the loop


class Phase:
    """Latencies of one closed-loop phase, kept per input.

    The phase is cut into ``slots`` equal stretches of time, and each input
    keeps the latency of its first op in each stretch, or for a paced
    workload, whose stretches hold a fixed number of ops, its best.  So every
    input gets the same number of draws, spread over the whole phase, however
    fast the code runs, and memory does not grow with the op count.  The figures come
    from each input's best draw: other tenants of a shared machine only ever
    add time, in bursts of a second or so, and an op of a few milliseconds
    needs one quiet moment out of its draws.
    """

    def __init__(self, seconds: float, n_inputs: int, slots: int, paced: bool):
        self.seconds = seconds
        self.n_inputs = n_inputs
        self.slots = slots
        self.paced = paced
        self.kept = array("q", [-1]) * (n_inputs * slots)
        self.start = 0.0  # set by run_loop
        self.attempted = 0
        self.failures = Counter()
        self.unexpected = Counter()

    def add(self, index: int, started: float, ns: int,
            slot: int | None = None) -> None:
        if slot is None:
            slot = min(int((started - self.start) * self.slots / self.seconds),
                       self.slots - 1)
        pos = index * self.slots + slot
        if self.kept[pos] < 0 or (self.paced and ns < self.kept[pos]):
            self.kept[pos] = ns
        self.attempted += 1

    def draws(self, index: int) -> list[int]:
        at = index * self.slots
        return [ns for ns in self.kept[at:at + self.slots] if ns >= 0]

    def best(self) -> list[int]:
        """Each input's best draw, sorted; inputs never run are left out."""
        draws = (self.draws(i) for i in range(self.n_inputs))
        return sorted(min(d) for d in draws if d)

    def ops_per_s(self, weights: list[float] | None = None) -> float:
        """Ops per second for one pass over the mix at the inputs' best times;
        ``weights`` gives each input's share of a pass (default 1 each)."""
        w = weights or [1.0] * self.n_inputs
        best = [(w[i], min(d)) for i in range(self.n_inputs) if (d := self.draws(i))]
        return sum(x for x, _ in best) / (sum(x * ns for x, ns in best) / 1e9)

    def tail(self) -> tuple[float, float, int]:
        """The tail of the best times; with too few inputs for that (``cli``),
        the tail of every draw."""
        if self.n_inputs >= TAIL_MIN_OPS:
            return tail(self.best())
        return tail(sorted(ns for ns in self.kept if ns >= 0))


def run_loop(wl, phase: Phase, counts: Counter, counted: set,
             tracer=None, op_name: str = "op") -> None:
    """Run ops back to back until the phase's wall time has passed; a paced
    workload instead runs one cycle per stretch and waits out the rest.

    Only the library call is timed (and traced); checks run outside it.
    Exact counts are taken once per distinct input.
    """
    gc.collect()
    phase.start = time.perf_counter()
    if phase.paced:
        for slot in range(phase.slots):
            for index, item in wl.next_cycle():
                run_op(wl, phase, index, item, counts, counted, tracer,
                       op_name, slot)
            end = phase.start + (slot + 1) * phase.seconds / phase.slots
            time.sleep(max(0.0, end - time.perf_counter()))
        return
    queue: list = []
    deadline = phase.start + phase.seconds
    while time.perf_counter() < deadline:
        if not queue:
            queue = wl.next_cycle()[::-1]
        index, item = queue.pop()
        run_op(wl, phase, index, item, counts, counted, tracer, op_name)


def run_op(wl, phase: Phase, index: int, item, counts: Counter, counted: set,
           tracer, op_name: str, slot: int | None = None) -> None:
    started = time.perf_counter()
    if tracer is not None:
        tracer.next_op()
        tracer.on = True
        span = tracer.span(op_name)
        span.__enter__()
    t0 = time.perf_counter_ns()
    try:
        result = wl.op(item)
        err = None
    except Exception as exc:  # a failed op is counted, not fatal
        result, err = None, exc
    t1 = time.perf_counter_ns()
    if tracer is not None:
        span.__exit__(None, None, None)
        tracer.on = False
    phase.add(index, started, t1 - t0, slot)
    if err is not None or not wl.check(item, result):
        label = wl.label(index)
        name = f"{label}: {type(err).__name__}" if err else label
        phase.failures[name] += 1
        if label not in wl.known_defects:
            phase.unexpected[name] += 1
    if err is None and index not in counted:
        counted.add(index)
        wl.count(counts, item, result)


def tail(lat: list[int]) -> tuple[float, float, int]:
    """(value ns, percentile, samples beyond) at the highest percentile with
    at least 10 samples beyond it, capped at p99.9."""
    n = len(lat)
    beyond = min(n - 1, max(10, math.ceil(n * 0.001)))
    idx = n - 1 - beyond
    return float(lat[idx]), 100.0 * (idx + 1) / n, beyond


def time_imports(module: str, reps: int = SETUP_REPS) -> list[float]:
    """Seconds for each of ``reps`` fresh interpreters to import ``module``."""
    cmd = [sys.executable, "-c", f"import {module}"]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def probe_imports(reps: int = 5) -> list[dict]:
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "cli_child.py"),
             str(time.perf_counter_ns())],
            env=child_env(), cwd=ROOT, capture_output=True, check=True)
        out.append(json.loads(proc.stdout))
    return out


def provenance() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "workloads": workload_whys()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def end_to_end(wl, phase: Phase, setup_s: float, rss_mb: float):
    best = phase.best()
    t_ns, pct, beyond = phase.tail()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s(wl.weights), "1/s"),
        "latency_p50_ms": (statistics.median(best) / 1e6, "ms"),
        "latency_tail_ms": (t_ns / 1e6, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    draws = [len(phase.draws(i)) for i in range(phase.n_inputs)]
    extra = {"samples": phase.attempted, "inputs": phase.n_inputs,
             "slots": phase.slots, "draws_per_input": statistics.mean(draws),
             "inputs_not_run": draws.count(0),
             "tail_percentile": round(pct, 4), "tail_samples_beyond": beyond}
    if phase.n_inputs < TAIL_MIN_OPS:
        extra["best_ms"] = {wl.label(i): round(min(phase.draws(i)) / 1e6, 3)
                            for i in range(phase.n_inputs) if phase.draws(i)}
    return metrics, extra


def per_layer(tracer, untraced: Phase, traced: Phase, weights,
              timings: list[dict], counts: Counter, span_cost: float) -> dict:
    m = {}
    stats = tracer.stats
    for fn in LAYER_FUNCS:
        st = stats[fn]
        m[f"{fn}.calls"] = (st.calls, "count")
        m[f"{fn}.us_per_call"] = (st.self_ns / 1e3 / st.calls if st.calls else 0.0, "us")
        m[f"{fn}.errors"] = (sum(st.errors.values()), "count")
    ex = stats["bloch.extract"]
    ok_calls = ex.calls - sum(ex.errors.values())
    m["bloch.extract.flagged_ratio"] = (ex.flagged / ok_calls if ok_calls else 0.0, "ratio")
    m["bloch.extract.south_pole"] = (ex.errors.get("SouthPoleA", 0), "count")
    tr = stats["gates.trajectory"]
    m["gates.trajectory.self_us_per_sample"] = (
        tr.self_ns / 1e3 / tr.units if tr.units else 0.0, "us")

    def med(key):
        return statistics.median(t[key] for t in timings) / 1e6 if timings else 0.0

    def per_call(name, denom_name="cli.main"):
        calls = stats[denom_name].calls if denom_name in stats else 0
        return stats[name].total_ns / 1e6 / calls if calls and name in stats else 0.0

    m["cli.interpreter_ms"] = (med("interpreter_ns"), "ms")
    m["cli.numpy_import_ms"] = (med("numpy_import_ns"), "ms")
    m["cli.import_ms"] = (med("import_ns"), "ms")
    m["cli.parse_ms"] = (per_call("cli.build_parser") + per_call("cli.parse_args"), "ms")
    main = stats.get("cli.main")
    m["cli.main.self_ms"] = (main.self_ns / 1e6 / main.calls if main and main.calls else 0.0, "ms")
    chk = stats.get("cli.cmd_check")
    m["cli.check.us_per_state"] = (chk.total_ns / 1e3 / chk.units if chk and chk.units else 0.0, "us")

    for f in FLAG_NAMES:
        m[f"counts.flag.{f}"] = (counts[f"flag.{f}"], "count")
    m["counts.samples"] = (counts["samples"], "count")
    m["counts.branch_flip"] = (counts["branch_flip"], "count")
    m["counts.unflagged_jump"] = (counts["unflagged_jump"], "count")
    for code in EXIT_CODES:
        m[f"counts.exit.{code}"] = (counts[f"exit.{code}"], "count")
    m["counts.src_lines"] = (src_lines(), "lines")

    u_ops = untraced.ops_per_s(weights)
    t_ops = traced.ops_per_s(weights)
    m["trace.untraced_ops_per_s"] = (u_ops, "1/s")
    m["trace.traced_ops_per_s"] = (t_ops, "1/s")
    m["trace.overhead_ratio"] = (u_ops / t_ops, "ratio")
    m["trace.span_cost_us"] = (span_cost / 1e3, "us")
    return m


def run_one(args) -> int:
    # one alarm for the whole run instead of a timeout per child: a
    # subprocess timeout makes the parent poll for the child's exit, which
    # rounds each measured start-up up to the next poll, up to 50 ms late
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(math.ceil(args.seconds) + SETUP_MARGIN_S)
    hb = import_library()
    import hopfbloch.cli  # noqa: F401  every module the tracer may patch
    name = args.workload
    wl = WORKLOADS[name](hb, args.seed)
    counts: Counter = Counter()
    counted: set = set()
    prov = provenance()
    report = {"workload": name, "seed": args.seed, "trace": args.trace,
              "why": prov["workloads"][name], "provenance": prov}
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        # setup_s: median over imports before and after the loop, so one
        # slow moment of a shared machine does not set it
        module = "hopfbloch.cli" if name == "cli" else "hopfbloch"
        time_imports(module, 1)  # bytecode and file caches
        setup = time_imports(module)
        phase = Phase(args.seconds, len(wl.pool), wl.slots, wl.paced)
        run_loop(wl, phase, counts, counted)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(setup + time_imports(module))
        metrics, extra = end_to_end(wl, phase, setup_s, rss_mb)
        report.update(extra)
        phases = [phase]
    else:
        import tracer as tr
        # a paced workload's halves keep its op count by halving the cycles
        slots = wl.slots // 2 if wl.paced else wl.slots
        untraced = Phase(args.seconds / 2, len(wl.pool), slots, wl.paced)
        run_loop(wl, untraced, counts, counted)
        tracer = tr.Tracer()
        tr.install(tracer)
        tr.install_parse_args(tracer)
        traced = Phase(args.seconds / 2, len(wl.pool), slots, wl.paced)
        run_loop(wl, traced, counts, counted, tracer=tracer,
                 op_name=f"{name}.op")
        metrics = per_layer(tracer, untraced, traced, wl.weights,
                            probe_imports(), counts, tr.span_cost_ns())
        tracer.write_spans(OUT / f"spans-{name}-seed{args.seed}.csv.gz")
        report["spans"] = len(tracer.spans) // tr.SPAN_FIELDS
        report["spans_dropped"] = tracer.dropped
        report["layer_stats"] = {k: v.as_dict() for k, v in tracer.stats.items()}
        phases = [untraced, traced]

    attempted = sum(p.attempted for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    unexpected = sum((p.unexpected for p in phases), Counter())
    failed = sum(failures.values())
    report.update({
        "fail_ratio": failed / attempted,
        "failures": dict(failures.most_common(20)),
        "unexpected_failures": dict(unexpected.most_common(20)),
        "known_defects": sorted(wl.known_defects),
        "counts": {**counts, "src_lines": src_lines()},
    })
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report["result"] = result
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    for k, (v, u) in metrics.items():
        print(f"{name:10s} {k:42s} {v:14.6g} {u}")
    print(f"{name:10s} fail_ratio {failed}/{attempted} = {failed / attempted:.4f}"
          + (f"  failing: {dict(failures.most_common(20))}" if failures else ""))
    report.pop("layer_stats", None)
    report.pop("result")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process and print its lines, then one
    combined result: every workload's metrics as ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            fail(f"workload {name} exited {proc.returncode} without a result")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
