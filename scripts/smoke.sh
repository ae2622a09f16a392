#!/usr/bin/env bash
# CLI smoke checks: the 7 goldens byte for byte, the one-state `check` runs,
# README's Library example against the installed package, and exit code 1
# with a quiet stderr when stdout closes early.
#
# usage: scripts/smoke.sh [--numpy-free] OUTDIR COMMAND...
#   OUTDIR   receives every output file (it must exist)
#   COMMAND  runs the CLI: `hopfbloch` once installed, or
#            `python -m hopfbloch.cli` with PYTHONPATH=src in a checkout
#   --numpy-free  skips the `check` commands, the only ones that need numpy
#
# `python` on PATH runs the Library example, outside the checkout and
# without PYTHONPATH, so it imports the installed package.  No pipefail:
# the broken-pipe checks read the CLI's own status from PIPESTATUS.
set -eu

numpy=1
if [ "${1:-}" = --numpy-free ]; then
    numpy=0
    shift
fi
if [ $# -lt 2 ]; then
    echo "usage: $0 [--numpy-free] OUTDIR COMMAND..." >&2
    exit 2
fi
out=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/benchmarks/goldens

# console script
"$@" coords --bell 00 > "$out/coords.out"
cmp "$out/coords.out" "$golden/coords-bell.out"

# JSON goldens
"$@" amplitudes --angles 1.5707963,1.5707963,1.5707963,1.5707963,0,0,0 --roundtrip > "$out/amplitudes.out"
cmp "$out/amplitudes.out" "$golden/amplitudes-roundtrip.out"
"$@" coords --state "0.5,0;0.5,0;0.5,0;0.5,0" --fix-phase --canonical > "$out/coords-state.out"
cmp "$out/coords-state.out" "$golden/coords-state.out"

# trajectory flags
"$@" traj cu --axis 0,0,1 --eta 1.5707963 --omega 3.1415927 --bell 00 > "$out/traj.out"
cmp "$out/traj.out" "$golden/traj-json.out"

# trajectory CSV and SVG goldens
"$@" traj cz --bell 10 --format csv --n1 8 --n2 8 > "$out/traj-csv.out"
cmp "$out/traj-csv.out" "$golden/traj-csv.out"
"$@" traj swap --state "0.70710678,0;0,0.70710678;0,0;0,0" --format svg > "$out/traj-svg.out"
cmp "$out/traj-svg.out" "$golden/traj-svg.out"

if [ "$numpy" = 1 ]; then
    # check golden, by --seed and by HOPFBLOCH_SEED
    "$@" check --seed 7 --count 500 --tolerance 1e-9 > "$out/check.out"
    cmp "$out/check.out" "$golden/check.out"
    HOPFBLOCH_SEED=7 "$@" check --count 500 --tolerance 1e-9 > "$out/check-env.out"
    cmp "$out/check-env.out" "$golden/check.out"

    # check on one state; |q0| = 1e-6 is off the south pole alpha = beta = 0,
    # and gamma = 1e-12 and 1.1e-12 take the two sides of the fiber step's
    # FiberAtInfinity threshold
    "$@" check --bell 00 > "$out/check-bell.out"
    tail -n 1 "$out/check-bell.out" | grep '^checked 1 state(s), '
    "$@" check "--state=1,0;0,0;0,0;0,0" > "$out/check-state.out"
    tail -n 1 "$out/check-state.out" | grep '^checked 1 state(s), '
    "$@" check "--state=1e-6,0;0,0;1,0;0,0" > "$out/check-band.out"
    tail -n 1 "$out/check-band.out" | grep '^checked 1 state(s), '
    "$@" check "--state=1,0;0,0;1e-12,0;0,0" > "$out/check-at-infinity.out"
    tail -n 1 "$out/check-at-infinity.out" | grep '^checked 1 state(s), '
    "$@" check "--state=1,0;0,0;1.1e-12,0;0,0" > "$out/check-past-infinity.out"
    tail -n 1 "$out/check-past-infinity.out" | grep '^checked 1 state(s), '

    # real amplitudes with a minus sign, which Python multiplies as floats
    # and the block's columns as complex numbers, and a product state at
    # infinity, whose t and xi are flagged
    "$@" check --bell 10 > "$out/check-bell-10.out"
    tail -n 1 "$out/check-bell-10.out" | grep '^checked 1 state(s), '
    "$@" check "--state=0.6,0;0.8,0;0,0;0,0" > "$out/check-product.out"
    tail -n 1 "$out/check-product.out" | grep '^checked 1 state(s), '

    # a full block of 512 states and a block of one, whose columns hold one
    # entry each
    "$@" check --count 513 > "$out/check-513.out"
    tail -n 1 "$out/check-513.out" | grep '^checked 513 state(s), '
fi

# Library example
python -c 'import re, sys; s = open(sys.argv[1]).read().split("\n## Library\n", 1)[1]; sys.stdout.write(re.search(r"```python\n(.*?)```", s, re.S).group(1))' "$root/README.md" > "$out/library_example.py"
(cd "$out" && env -u PYTHONPATH python library_example.py)

# broken pipe
"$@" traj cz --bell 00 --n1 2000 --n2 2000 --format json 2> "$out/pipe.err" | head -c 1
if [ "${PIPESTATUS[0]}" != 1 ]; then exit 1; fi
if grep -e Traceback -e "Exception ignored" "$out/pipe.err"; then exit 1; fi
PYTHONUNBUFFERED=1 "$@" traj cz --bell 00 --n1 2000 --n2 2000 --format csv 2> "$out/pipe-unbuffered.err" | head -c 1
if [ "${PIPESTATUS[0]}" != 1 ]; then exit 1; fi
if grep Traceback "$out/pipe-unbuffered.err"; then exit 1; fi

echo "smoke: ok"
