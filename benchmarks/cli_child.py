"""Import timings of one fresh interpreter, started by ``run.py``.

    python3 cli_child.py SPAWN_NS

times interpreter start-up, ``import numpy`` and ``import hopfbloch.cli``
and prints them as JSON.  SPAWN_NS is the parent's ``time.perf_counter_ns()``
just before it started this process; on Linux that clock is system-wide, so
the difference is the interpreter's start-up time.
"""

import time

_T_START = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402


def import_timings(spawn_ns: int) -> dict:
    t0 = time.perf_counter_ns()
    import numpy  # noqa: F401
    t1 = time.perf_counter_ns()
    import hopfbloch.cli  # noqa: F401
    t2 = time.perf_counter_ns()
    return {"interpreter_ns": _T_START - spawn_ns, "numpy_import_ns": t1 - t0,
            "import_ns": t2 - t1}


if __name__ == "__main__":
    print(json.dumps(import_timings(int(sys.argv[1]))))
