"""Spans around the public functions of ``hopfbloch``, recorded from outside.

``install`` replaces each target function at every place it is bound (the
defining module and every ``hopfbloch`` module that imported it by name, or
the class attribute for methods) with a wrapper that records one span per
call: name, start, end, parent span and the operation it belongs to.
Self time is a span's duration minus the time its child spans cover.
Spans stay in memory (up to a cap) and are written by ``write_spans`` when
the run ends; per-function totals are kept for every call, capped or not.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import sys
import time
from array import array

# (metric name, module, attribute); "Class.attr" names a method
TARGETS = (
    ("quaternion.mul", "hopfbloch.quaternion", "Quaternion.__mul__"),
    ("quaternion.exp_pure", "hopfbloch.quaternion", "exp_pure"),
    ("quaternion.to_complex_pair", "hopfbloch.quaternion", "to_complex_pair"),
    ("hopf.angles_from_base", "hopfbloch.hopf", "angles_from_base"),
    ("hopf.h1", "hopfbloch.hopf", "h1"),
    ("hopf.inverse_stereographic", "hopfbloch.hopf", "inverse_stereographic"),
    ("state.from_vector", "hopfbloch.state", "TwoQubitState.from_vector"),
    ("state.phase_aligned_distance", "hopfbloch.state", "phase_aligned_distance"),
    ("state.quasi_density", "hopfbloch.state", "quasi_density"),
    ("state.reduced_density", "hopfbloch.state", "reduced_density"),
    ("bloch.extract", "hopfbloch.bloch", "extract"),
    ("bloch.reconstruct", "hopfbloch.bloch", "reconstruct"),
    ("bloch.alternate", "hopfbloch.bloch", "alternate"),
    ("bloch.coords_distance", "hopfbloch.bloch", "coords_distance"),
    ("gates.gate_matrix", "hopfbloch.gates", "gate_matrix"),
    ("gates.trajectory", "hopfbloch.gates", "trajectory"),
    ("svg.render_spheres", "hopfbloch.svg", "render_spheres"),
)

# the CLI's own stages, for the ``cli`` workload
CLI_TARGETS = (
    ("cli.main", "hopfbloch.cli", "main"),
    ("cli.build_parser", "hopfbloch.cli", "build_parser"),
    ("cli.cmd_check", "hopfbloch.cli", "cmd_check"),
)

SPAN_FIELDS = 6  # span id, parent id, op id, name index, start ns, end ns


class Stat:
    """Per-function totals: calls, wall and self nanoseconds, errors by type,
    plus ``units`` and ``flagged`` filled in by a function's observer."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors", "units", "flagged")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = {}
        self.units = 0
        self.flagged = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_ns": self.total_ns,
                "self_ns": self.self_ns, "errors": dict(self.errors),
                "units": self.units, "flagged": self.flagged}


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.on = False
        self.op_id = 0
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans = array("q")
        self.span_cap = span_cap
        self.dropped = 0
        self._next_id = 1
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return self._index[name]

    def _enter(self) -> list[int]:
        frame = [self._next_id, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list[int], stat: Stat, idx: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        stat.calls += 1
        stat.total_ns += dur
        stat.self_ns += dur - frame[2]
        parent = 0
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        self._record(frame[0], parent, idx, frame[1], end)

    def _record(self, span_id: int, parent: int, idx: int, start: int,
                end: int) -> None:
        if len(self.spans) < self.span_cap * SPAN_FIELDS:
            self.spans.extend((span_id, parent, self.op_id, idx, start, end))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording a span per call while ``self.on`` is set.

        ``observe(stat, args, result)`` runs after a call that returned.
        """
        idx = self._name_index(name)
        stat = self.stats[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = type(exc).__name__
                stat.errors[key] = stat.errors.get(key, 0) + 1
                raise
            finally:
                tracer._exit(frame, stat, idx)
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def next_op(self) -> None:
        self.op_id += 1

    def write_spans(self, path) -> None:
        """Spans as gzip'd CSV: id,parent,op,name,start_ns,end_ns."""
        s = self.spans
        with gzip.open(path, "wt") as f:
            f.write("id,parent,op,name,start_ns,end_ns\n")
            for i in range(0, len(s), SPAN_FIELDS):
                f.write(f"{s[i]},{s[i + 1]},{s[i + 2]},{self.names[s[i + 3]]},"
                        f"{s[i + 4]},{s[i + 5]}\n")


class _Span:
    __slots__ = ("tracer", "idx", "stat", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.idx = tracer._name_index(name)
        self.stat = tracer.stats[name]

    def __enter__(self):
        self.frame = self.tracer._enter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, self.stat, self.idx)
        return False


def _observe_extract(stat: Stat, args, result) -> None:
    if result.flags:
        stat.flagged += 1


def _observe_trajectory(stat: Stat, args, result) -> None:
    stat.units += len(result.samples)


def _observe_check(stat: Stat, args, result) -> None:
    ns = args[0]
    stat.units += 1 if (ns.state is not None or ns.bell is not None) else ns.count


OBSERVERS = {
    "bloch.extract": _observe_extract,
    "gates.trajectory": _observe_trajectory,
    "cli.cmd_check": _observe_check,
}


def _rebind(module_prefix: str, old, new) -> int:
    """Replace ``old`` by ``new`` in every loaded module under the prefix."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == module_prefix
                               or mod_name.startswith(module_prefix + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap every target at each of its binding sites."""
    for name, module, attr in TARGETS + CLI_TARGETS:
        mod = sys.modules[module]
        observe = OBSERVERS.get(name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, observe))
            else:
                new = tracer.wrap(name, raw, observe)
            setattr(cls, meth, new)
        else:
            fn = getattr(mod, attr)
            if _rebind("hopfbloch", fn, tracer.wrap(name, fn, observe)) == 0:
                raise RuntimeError(f"no binding of {module}.{attr} found")


def install_parse_args(tracer: Tracer) -> None:
    """Span ``argparse`` parsing; the benchmark parses its own arguments
    before tracing is on, so only the CLI's parsing is recorded."""
    argparse.ArgumentParser.parse_args = tracer.wrap(
        "cli.parse_args", argparse.ArgumentParser.parse_args)


def span_cost_ns(calls: int = 20_000) -> float:
    """Added cost of one span around an empty function, in nanoseconds."""
    probe = Tracer(span_cap=0)
    fn = probe.wrap("probe", lambda: None)
    probe.on = True
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    traced = time.perf_counter_ns() - t0
    probe.on = False
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    plain = time.perf_counter_ns() - t0
    return max(0.0, (traced - plain) / calls)
