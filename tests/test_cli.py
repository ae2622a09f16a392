import ast
import cmath
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfbloch import (
    CoordFlag,
    FiberAtInfinity,
    GateSpec,
    HopfBlochError,
    OffSphere,
    TwoQubitState,
    bell_state,
    extract,
    h1,
    phase_aligned_distance,
    quasi_state,
    trajectory,
)
from hopfbloch import cli, svg
from hopfbloch.cli import main
from hopfbloch.bloch import _extract
from hopfbloch.hopf import _base_point, _h1, _lift, _pair_norms
from hopfbloch.quaternion import _from_complex_pair, _hamilton
from hopfbloch.state import (
    _reduced_columns,
    _set_alpha,
    _set_beta,
    _set_delta,
    _set_gamma,
)

from helpers import (
    SQ2,
    _nan_max,
    _reference_deviations,
    random_product_states,
    random_states,
    reference_check_table,
    reference_traj_csv,
    reference_traj_json,
)

PI = math.pi

CSV_HEADER = ("stage,s,alpha_re,alpha_im,beta_re,beta_im,gamma_re,gamma_im,"
              "delta_re,delta_im,theta_a,phi_a,chi,xi,theta_b,phi_b,zeta_b,"
              "concurrence,branch_flip")


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_coords_bell_00(capsys):
    code, out = run(capsys, ["coords", "--bell", "00"])
    assert code == 0
    record = json.loads(out)
    assert record["label"] == "bell_00"
    angles = record["angles"]
    for name in ("theta_a", "phi_a", "chi", "xi"):
        assert angles[name] == pytest.approx(PI / 2, abs=1e-9)
    assert angles["theta_b"] == pytest.approx(0.0, abs=1e-9)
    assert angles["zeta_b"] == 0.0
    assert record["concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert record["t"]["ty"] == pytest.approx(1.0, abs=1e-9)
    assert record["cartesian"]["x3"] == pytest.approx(1.0, abs=1e-9)
    assert record["qubit_b"]["zb"] == pytest.approx(1.0, abs=1e-9)


def test_coords_product_state_flags(capsys):
    code, out = run(capsys, ["coords", "--state", "1,0;0,0;0,0;0,0"])
    assert code == 0
    record = json.loads(out)
    assert record["angles"]["theta_a"] == 0.0
    assert record["angles"]["theta_b"] == 0.0
    assert record["concurrence"] == 0.0
    assert "phi_a_undefined" in record["flags"]
    assert "t_undefined" in record["flags"]


def test_coords_south_pole_error(capsys):
    mu = 0.3
    state_arg = f"0,0;0,0;{math.cos(mu)!r},0;{math.sin(mu)!r},0"
    code, out = run(capsys, ["coords", "--state", state_arg])
    assert code == 3
    record = json.loads(out)
    assert record["error"] == "south_pole_a"
    assert record["psi_b"][0][0] == pytest.approx(math.cos(mu), abs=1e-12)
    assert record["psi_b"][1][0] == pytest.approx(math.sin(mu), abs=1e-12)


def test_coords_near_the_south_pole_has_coordinates(capsys):
    # |q0| = 1e-6: alpha = beta = 0 is the only south pole, so the state
    # gets its angles, theta_a = pi - 2e-6
    code, out = run(capsys, ["coords", "--state=1e-6,0;0,0;1,0;0,0"])
    assert code == 0
    record = json.loads(out)
    assert record["angles"]["theta_a"] == pytest.approx(PI - 2e-6, abs=1e-12)
    assert "south_pole_a" not in record["flags"]


def test_coords_not_normalized_error(capsys):
    code, out = run(capsys, ["coords", "--state", "1,0;1,0;0,0;0,0"])
    assert code == 3
    assert json.loads(out)["error"] == "not_normalized"


def test_coords_overflowing_norm_is_not_normalized(capsys):
    # finite amplitudes whose squared norm overflows a float
    code, out = run(capsys, ["coords", "--state=1e308,0;1e308,0;0,0;0,0"])
    assert code == 3
    assert json.loads(out)["error"] == "not_normalized"


def test_coords_parse_errors(capsys):
    code, out = run(capsys, ["coords", "--state", "1,0;2,0"])
    assert code == 2
    code, out = run(capsys, ["coords"])
    assert code == 2
    code, out = run(capsys, ["coords", "--bell", "07"])
    assert code == 2


def test_coords_fix_phase_and_canonical(capsys):
    # a state with a global phase: zeta_b moves into xi and phi_b
    code, out = run(capsys, ["coords", "--state",
                             "0.5,0.5;0.5,-0.5;0,0;0,0", "--fix-phase"])
    assert code == 0
    assert json.loads(out)["angles"]["zeta_b"] == 0.0


def test_amplitudes_bell_00(capsys):
    angles = f"{PI/2},{PI/2},{PI/2},{PI/2},0,0,0"
    code, out = run(capsys, ["amplitudes", "--angles", angles])
    assert code == 0
    amp = json.loads(out)["amplitudes"]
    got = TwoQubitState(*(complex(re, im) for re, im in amp))
    assert phase_aligned_distance(got, bell_state("00")) <= 1e-9


def test_amplitudes_zero_angles(capsys):
    code, out = run(capsys, ["amplitudes", "--angles", "0,0,0,0,0,0,0"])
    assert code == 0
    amp = json.loads(out)["amplitudes"]
    assert amp[0] == [1.0, 0.0]
    assert amp[1] == [0.0, 0.0] and amp[2] == [0.0, 0.0] and amp[3] == [0.0, 0.0]


def test_amplitudes_bell_01_and_roundtrip(capsys):
    angles = f"{PI/2},{PI/2},{PI/2},{3*PI/2},{PI},0,0"
    code, out = run(capsys, ["amplitudes", "--angles", angles, "--roundtrip"])
    assert code == 0
    record = json.loads(out)
    got = TwoQubitState(*(complex(re, im) for re, im in record["amplitudes"]))
    assert phase_aligned_distance(got, bell_state("01")) <= 1e-9
    assert record["roundtrip"]["amplitude_max_deviation"] <= 1e-9


def test_amplitudes_roundtrip_at_the_south_pole(capsys):
    # theta_a = pi leaves alpha = cos(pi/2) cos(theta_b/2) e^(i zeta_b), at
    # least cos(pi/2)^2 ~ 3.7e-33 in modulus, not 0: off the exact south
    # pole, so extract re-reads the state with its conventions flagged
    at_theta_b_pi = ["phi_a_undefined", "t_undefined",
                     "theta_b_pi_ambiguous", "xi_undefined"]
    cases = {(0.0, 0.0): ["phi_a_undefined", "phi_b_undefined",
                          "t_undefined", "xi_undefined"],
             (PI, 0.0): at_theta_b_pi,
             (PI, math.nextafter(2 * PI, 0.0)): at_theta_b_pi}
    for (theta_b, zeta_b), flags in cases.items():
        code, out = run(capsys, ["amplitudes", "--angles",
                                 f"{PI!r},0,0,0,{theta_b!r},0,{zeta_b!r}",
                                 "--roundtrip"])
        assert code == 0
        record = json.loads(out)
        assert record["amplitudes"][0][0] >= 3.7e-33
        roundtrip = record["roundtrip"]
        tol = 0.0 if zeta_b == 0.0 else 2e-15  # 2 pi - 1 ulp: one rounding
        assert roundtrip["angle_max_deviation"] <= tol
        assert roundtrip["amplitude_max_deviation"] <= tol
        assert roundtrip["flags"] == flags


def test_amplitudes_out_of_range(capsys):
    code, out = run(capsys, ["amplitudes", "--angles", "9,0,0,0,0,0,0"])
    assert code == 3
    assert json.loads(out)["error"] == "out_of_range"


def test_traj_unknown_gate(capsys):
    code, out = run(capsys, ["traj", "toffoli", "--bell", "00"])
    assert code == 4
    assert json.loads(out)["error"] == "unknown_gate"


def test_traj_cu_needs_an_axis(capsys):
    code, out = run(capsys, ["traj", "cu", "--bell", "00"])
    assert code == 2
    assert json.loads(out) == {"error": "parse",
                               "message": "controlled-U needs --axis nx,ny,nz"}


def test_traj_csv_golden_shape(capsys):
    code, out = run(capsys, ["traj", "cz", "--bell", "10",
                             "--format", "csv", "--n1", "8", "--n2", "8"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 17
    assert all(len(line.split(",")) == 19 for line in lines)
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[13]) == pytest.approx(3 * PI / 2, abs=1e-9)
    assert float(last[13]) == pytest.approx(PI / 2, abs=1e-9)
    assert all(float(line.split(",")[17]) == pytest.approx(1.0, abs=1e-9)
               for line in lines[1:])


def test_traj_cnot_csv_endpoint(capsys):
    code, out = run(capsys, ["traj", "cnot", "--bell", "10",
                             "--format", "csv", "--n1", "4", "--n2", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # b = sin(theta_a) sin(phi_a) vanishes at the end
    b_last = math.sin(float(last[10])) * math.sin(float(last[11]))
    assert abs(b_last) <= 1e-9
    assert float(last[14]) == pytest.approx(float(first[14]), abs=1e-9)
    assert float(last[15]) == pytest.approx(float(first[15]), abs=1e-9)


def test_traj_determinism_two_runs(capsys):
    args = ["traj", "cz", "--bell", "10", "--format", "csv",
            "--n1", "8", "--n2", "8"]
    _, out1 = run(capsys, args)
    _, out2 = run(capsys, args)
    assert out1 == out2
    args = ["coords", "--bell", "00"]
    _, out1 = run(capsys, args)
    _, out2 = run(capsys, args)
    assert out1 == out2


def test_traj_identity_rows_constant(capsys):
    code, out = run(capsys, ["traj", "cu", "--axis", "0,0,1",
                             "--eta", "0", "--omega", "0",
                             "--state", "0.5,0;0.5,0;0.5,0;0.5,0",
                             "--format", "csv", "--n1", "2", "--n2", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    # stage and s differ between rows; every data cell must not
    rows = [line.split(",")[2:] for line in lines[1:]]
    assert all(row == rows[0] for row in rows)


def test_traj_svg_schema(capsys):
    code, out = run(capsys, ["traj", "swap",
                             "--state", f"{SQ2},0;0,{SQ2};0,0;0,0",
                             "--format", "svg", "--n1", "6", "--n2", "6"])
    assert code == 0
    root = ET.fromstring(out)
    groups = [el for el in root.iter("{http://www.w3.org/2000/svg}g")
              if el.get("class") == "sphere"]
    assert len(groups) == 3


def test_traj_json_fields(capsys):
    code, out = run(capsys, ["traj", "cz", "--bell", "10",
                             "--n1", "2", "--n2", "2"])
    assert code == 0
    record = json.loads(out)
    assert record["gate"]["kind"] == "cz"
    assert len(record["samples"]) == 4
    sample = record["samples"][0]
    assert set(sample) == {"stage", "s", "amplitudes", "angles",
                           "concurrence", "flags", "branch_flip"}


def test_json_roundtrip_random_states(capsys):
    rng = np.random.default_rng(61)
    for s in random_states(rng, 10):
        state_arg = ";".join(f"{z.real!r},{z.imag!r}" for z in s.amplitudes())
        # (the --state= form keeps argparse from eating a leading minus)
        code, out = run(capsys, ["coords", "--state=" + state_arg])
        if code == 3:
            continue
        assert code == 0
        angles = json.loads(out)["angles"]
        angle_arg = ",".join(repr(angles[k]) for k in
                             ("theta_a", "phi_a", "chi", "xi",
                              "theta_b", "phi_b", "zeta_b"))
        code, out = run(capsys, ["amplitudes", "--angles", angle_arg])
        assert code == 0
        got = TwoQubitState(*(complex(re, im)
                              for re, im in json.loads(out)["amplitudes"]))
        assert phase_aligned_distance(got, s) <= 1e-9


def test_check_command(capsys):
    code, out = run(capsys, ["check", "--seed", "5", "--count", "40"])
    assert code == 0
    assert out.count("ok  ") == 6
    code, out = run(capsys, ["check", "--bell", "00"])
    assert code == 0


def test_check_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("HOPFBLOCH_SEED", "123")
    _, out1 = run(capsys, ["check", "--seed", "5", "--count", "20"])
    monkeypatch.setenv("HOPFBLOCH_SEED", "123")
    _, out2 = run(capsys, ["check", "--seed", "99", "--count", "20"])
    assert out1 == out2
    monkeypatch.delenv("HOPFBLOCH_SEED")
    _, out3 = run(capsys, ["check", "--seed", "99", "--count", "20"])
    assert out3 != out1


def test_traj_small_sample_counts_rejected(capsys):
    # below 2 or above 10**6 per ramp: rejected before any sample is built
    for flag, count in (("--n1", "1"), ("--n2", "1"), ("--n1", "1000001"),
                        ("--n2", "1000001"), ("--n1", "100000000000000000000")):
        code, out = run(capsys, ["traj", "cz", "--bell", "00", flag, count])
        assert code == 2, (flag, count)
        assert json.loads(out)["error"] == "parse"


def test_non_finite_state_rejected(capsys):
    code, out = run(capsys, ["coords", "--state", "nan,0;0,0;0,0;0,0"])
    assert code == 3
    assert json.loads(out)["error"] == "not_normalized"


def test_traj_with_south_pole_samples(capsys):
    # a path pinned to the |1>_A family: every row flagged, none fatal
    code, out = run(capsys, ["traj", "cu", "--axis", "0,0,1",
                             "--eta", "0", "--omega", "0",
                             "--state", "0,0;0,0;0.6,0;0.8,0",
                             "--format", "json", "--n1", "2", "--n2", "2"])
    assert code == 0
    record = json.loads(out)
    assert len(record["samples"]) == 4
    for sample in record["samples"]:
        assert "south_pole_a" in sample["flags"]
        assert sample["angles"]["theta_a"] == pytest.approx(math.pi)


@pytest.mark.parametrize("argv, env", [
    (["traj", "cu", "--axis", "a,b,c", "--bell", "00"], {}),
    (["check", "--count", "20"], {"HOPFBLOCH_SEED": "abc"}),
    (["check", "--count", "-1"], {}),
    (["check", "--count", "0"], {}),
    (["check", "--seed", "-1", "--count", "3"], {}),
    (["check", "--count", "3"], {"HOPFBLOCH_SEED": "-5"}),
    (["traj", "cu", "--axis", "0,1", "--bell", "00"], {}),
    (["amplitudes", "--angles", "0,0,0"], {}),
    (["amplitudes", "--angles", "x,0,0,0,0,0,0"], {}),
    (["coords", "--state", "1,0;0;0,0;0,0"], {}),
    (["coords", "--state", "1,0;0,y;0,0;0,0"], {}),
    (["check", "--seed", "abc"], {}),
    (["traj", "cz", "--bell", "00", "--n1", "x"], {}),
    (["traj", "cz", "--bell", "00", "--format", "xml"], {}),
    (["coords", "--bogus"], {}),
    ([], {}),
    (["check", "--count", "3", "--tolerance=nan"], {}),
    (["check", "--count", "3", "--tolerance=-1"], {}),
    (["check", "--count", "3", "--tolerance=0"], {}),
    (["check", "--count", "3", "--tolerance=inf"], {}),
    (["check", "--count", "1000000000000000"], {}),
    (["check", "--count", "99999999999999999999"], {}),
    (["coords", "--bell", "00", "--state=1,0;0,0;0,0;0,0"], {}),
    (["check", "--bell", "00", "--count", "-5"], {}),
    (["check", "--state=1,0;0,0;0,0;0,0", "--count", "0"], {}),
    (["traj", "cnot", "--axis", "a,b,c", "--bell", "00"], {}),
    (["traj", "cz", "--eta", "1", "--bell", "00"], {}),
    (["traj", "swap", "--omega", "nan", "--bell", "00"], {}),
], ids=["bad-axis", "bad-seed-env", "negative-count", "zero-count",
        "negative-seed", "negative-seed-env", "short-axis", "short-angles",
        "bad-angle", "short-amplitude", "bad-amplitude", "bad-seed",
        "bad-n1", "bad-format", "unknown-option", "no-command",
        "nan-tolerance", "negative-tolerance", "zero-tolerance",
        "inf-tolerance", "unallocatable-count", "unshapeable-count",
        "state-and-bell", "bell-with-negative-count", "state-with-zero-count",
        "cnot-with-axis", "cz-with-eta", "swap-with-omega"])
def test_malformed_inputs_are_parse_errors(capsys, monkeypatch, argv, env):
    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out = run(capsys, argv)
    assert code == 2
    assert json.loads(out)["error"] == "parse"


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_zero(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0
    assert out.startswith("usage: hopfbloch")


@pytest.mark.parametrize("flag, value", [("--omega", "inf"), ("--eta", "nan"),
                                         ("--omega", "1e308"), ("--eta", "1e308")])
def test_traj_non_finite_endpoint_is_out_of_range(capsys, flag, value):
    code, out = run(capsys, ["traj", "cu", "--axis", "0,0,1", flag, value,
                             "--bell", "00"])
    assert code == 3
    assert json.loads(out)["error"] == "out_of_range"


def test_check_south_pole_state_is_an_error(capsys):
    code, out = run(capsys, ["check", "--state=0,0;0,0;1,0;0,0"])
    assert code == 3
    assert json.loads(out)["error"] == "south_pole_a"


def test_check_near_the_south_pole_checks_the_state(capsys):
    code, out = run(capsys, ["check", "--state=1e-6,0;0,0;1,0;0,0"])
    assert code == 0
    assert out.count("ok  ") == 6
    assert out.splitlines()[-1].startswith("checked 1 state(s), ")


def test_check_fiber_step_skips_only_fiber_at_infinity(capsys, monkeypatch):
    # q1 = 0 (gamma = delta = 0): h1 raises FiberAtInfinity, which is skipped
    code, out = run(capsys, ["check", "--state=1,0;0,0;0,0;0,0"])
    assert code == 0
    assert out.count("ok  ") == 6
    assert "checked 1 state(s)" in out

    def off_sphere(q):
        raise OffSphere("injected")

    monkeypatch.setattr("hopfbloch.cli._lift", off_sphere)
    code, out = run(capsys, ["check", "--bell", "00"])
    assert code == 3
    assert json.loads(out)["error"] == "domain"


def test_check_random_sweep_checks_every_draw(capsys, monkeypatch):
    # alpha = 1e-4, gamma = 1 gives 1 + x0 = 2e-8: close to the south pole but
    # off alpha = beta = 0, so the state is regular and must be checked
    class StubRng:
        def normal(self, size):
            if size == (1, 8):
                return np.array([[1e-4, 0, 0, 0, 1, 0, 0, 0]])
            return np.full(size, 0.5)

    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: StubRng())
    code, out = run(capsys, ["check", "--count", "1"])
    assert code == 0
    assert out.count("ok  ") == 6
    assert "checked 1 state(s)" in out


def _nan_x4(q):
    """hopf._lift with x4 = NaN: of the five coordinates that
    fiber_invariance compares, only the last differs by NaN."""
    return (*_lift(q)[:4], math.nan)


def _nan_last_entry(a, b, c, d):
    """state._reduced_columns with its last entry NaN."""
    return (*_reduced_columns(a, b, c, d)[:3], (math.nan, 0.0))


# (cli global to replace, its replacement, the invariant that must FAIL);
# the projector, reduced_vs_oracle and fiber_invariance NaNs come after a
# finite value of the same state, where the builtin max would drop them
NAN_DEVIATIONS = [
    ("_phase_aligned_columns", lambda v1, v2: math.nan, "round_trip"),
    ("_concurrence_columns", lambda a, b, g, d: (math.nan, 0.0, 0.0),
     "concurrence_identity"),
    ("_dyad_entries",
     lambda q0, q1: ((0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
                     (0.0, 0.0, 0.0, 0.0), (0.5, math.nan, 0.0, 0.0)),
     "projector"),
    ("_projection_parts", lambda x0, x1, x4: ((math.nan, 0.0),) * 4,
     "reduced_vs_oracle"),
    ("_lift", _nan_x4, "fiber_invariance"),
]


@pytest.mark.parametrize("target, stub, invariant", [
    *(pytest.param(*case, id=case[2]) for case in NAN_DEVIATIONS),
    pytest.param("_reduced_columns", _nan_last_entry, "reduced_vs_oracle",
                 id="reduced_vs_oracle_reduced_density"),
])
def test_check_nan_deviation_fails_its_invariant(capsys, monkeypatch, target,
                                                 stub, invariant):
    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    monkeypatch.setattr(f"hopfbloch.cli.{target}", stub)
    code, out = run(capsys, ["check", "--count", "3"])
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 7 and lines[-1].startswith("checked 3 state(s)")
    for line in lines[:-1]:
        name = line.split()[1]
        if name == invariant:
            assert line == f"FAIL {invariant:24s} max_err=nan"
        else:
            assert line.startswith("ok  "), line


# gamma of --state=1,0;0,0;gamma,0;0,0 -> whether h1 raises FiberAtInfinity
# there: |q1|^2 = gamma^2 is EPS_ZERO**2 at gamma = 1e-12, the last value
# that h1 rejects, so one ulp below it raises too and 1.1e-12 passes
FIBER_THRESHOLD_GAMMAS = {1e-12: True, math.nextafter(1e-12, 0.0): True,
                          1.1e-12: False}

# --bell 00, --state=1,0;0,0;0,0;0,0, whose q1 = 0 takes the
# FiberAtInfinity branch of fiber_invariance, and the states on either side
# of that branch's threshold
CHECK_STATES = (bell_state("00"), TwoQubitState(1 + 0j, 0j, 0j, 0j),
                *(TwoQubitState(1 + 0j, 0j, complex(gamma), 0j)
                  for gamma in FIBER_THRESHOLD_GAMMAS))


def test_check_states_take_their_side_of_the_fiber_threshold():
    for gamma, at_infinity in FIBER_THRESHOLD_GAMMAS.items():
        s = TwoQubitState(1 + 0j, 0j, complex(gamma), 0j)
        assert s.gamma == gamma  # stored as given: its norm^2 rounds to 1
        qs = quasi_state(s)
        q0 = _from_complex_pair(s.alpha, s.beta)
        q1 = _from_complex_pair(s.gamma, s.delta)
        fiber = cli._check_table(np.random.default_rng(0), s, 1)[0, 5]
        if at_infinity:
            with pytest.raises(FiberAtInfinity):
                h1(qs.q0, qs.q1)
            with pytest.raises(FiberAtInfinity):
                _h1(q0, q1)
            assert fiber == 0.0
        else:
            q = h1(qs.q0, qs.q1)
            assert (q.w, q.x, q.y, q.z) == _h1(q0, q1)
            assert math.isfinite(fiber)


@pytest.mark.parametrize("seed", range(4))
def test_check_table_matches_the_per_state_sweep_bit_for_bit(seed):
    # tobytes compares NaNs and signed zeros too
    for count in (1, 7, 500, 2 * cli._CHECK_BLOCK + 3):
        got = cli._check_table(np.random.default_rng(seed), None, count)
        assert got.tobytes() == reference_check_table(seed, count).tobytes(), count
    for state in CHECK_STATES:
        got = cli._check_table(np.random.default_rng(seed), state, 500)
        want = reference_check_table(seed, state=state)
        assert got.tobytes() == want.tobytes(), state


class RecordingRng:
    """default_rng(seed) that records the size of each normal draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def normal(self, size):
        self.sizes.append(size)
        return self.rng.normal(size=size)


def test_check_table_draws_the_fibers_once_per_block():
    block = cli._CHECK_BLOCK
    rng = RecordingRng(3)
    cli._check_table(rng, None, 2 * block + 3)
    assert rng.sizes == [(2 * block + 3, 8), (block, 4), (block, 4), (3, 4)]
    for state in CHECK_STATES:
        rng = RecordingRng(3)
        cli._check_table(rng, state, 500)
        assert rng.sizes == [(1, 4)]


@pytest.mark.parametrize("block", [1, 7])
def test_check_table_does_not_depend_on_the_block_size(monkeypatch, block):
    want = cli._check_table(np.random.default_rng(5), None, 40)
    monkeypatch.setattr(cli, "_CHECK_BLOCK", block)
    got = cli._check_table(np.random.default_rng(5), None, 40)
    assert got.tobytes() == want.tobytes()


def _raw_state(*amps):
    """A TwoQubitState that holds amps as given, normalized or not."""
    s = object.__new__(TwoQubitState)
    for setter, amp in zip((_set_alpha, _set_beta, _set_gamma, _set_delta),
                           amps):
        setter(s, amp)
    return s


def _check_block(states, fibs):
    """cli._check_block on the amplitudes of states."""
    rows = [s.amplitudes() for s in states]
    return cli._check_block(rows, np.array(rows, dtype=complex), fibs)


def test_check_block_rows_match_the_per_state_reference_in_a_mixed_block():
    # one block where rows at infinity, whose fiber_invariance the column
    # mask writes as 0.0, and rows where xi is flagged, whose
    # concurrence_identity leaves out the xi claim, sit beside live rows
    states = [
        *(bell_state(code) for code in ("00", "01", "10", "11")),
        TwoQubitState(1 + 0j, 0j, 0j, 0j), TwoQubitState(0j, 1 + 0j, 0j, 0j),
        *CHECK_STATES[2:],
        TwoQubitState(1e-6 + 0j, 0j, 1 + 0j, 0j),
        *random_states(np.random.default_rng(8), 6),
        # xi flagged: a product state at infinity (t flagged too), t = k,
        # and t = k with a concurrence of 1.2e-13, where the claim would
        # differ; then t flagged with a concurrence of 3.6e-13
        TwoQubitState(0.6, 0.8, 0, 0), TwoQubitState(0.6, 0, 0.8j, 0),
        TwoQubitState(0.6 + 0j, 0j, 0.8j, 1e-13 + 0j),
        TwoQubitState(0.6 + 0j, 0j, 0.8 + 0j, 3e-13 + 0j),
        # int amplitudes, and real ones (bell_state("10") above too), which
        # Python multiplies as floats and the columns as complex numbers
        TwoQubitState(1, 0, 0, 0), TwoQubitState(0, 1, 0, 0),
        TwoQubitState(-0.6, 0.0, 0.0, -0.8),
        # one ulp past the threshold: |q1|^2 is off infinity, but |q1 * f|^2
        # is on it for the fiber element f that default_rng(68) draws
        TwoQubitState(1 + 0j, 0j, complex(math.nextafter(1e-12, 1.0)), 0j),
    ]
    raw = np.random.default_rng(9).normal(size=(len(states), 4))
    raw[-1] = np.random.default_rng(68).normal(size=4)
    got = _check_block(states, cli._unit_rows(raw))
    assert got[:, 5].tolist().count(0.0) >= 5  # the rows at infinity
    assert [CoordFlag.XI_UNDEFINED in extract(s).flags
            for s in states].count(True) >= 8
    for row, s, raw_fiber in zip(got, states, raw):
        want = np.array(_reference_deviations(s, raw_fiber))
        assert row.tobytes() == want.tobytes(), s


def test_check_block_at_infinity_emits_no_warning(capsys):
    states = [TwoQubitState(1 + 0j, 0j, 0j, 0j), bell_state("00"),
              *CHECK_STATES[2:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fibs = cli._unit_rows(np.random.default_rng(1).normal(size=(5, 4)))
        _check_block(states, fibs)
        code = main(["check", "--state=1,0;0,0;1e-12,0;0,0"])
    assert code == 0
    assert capsys.readouterr().err == ""


# --state inputs at the edges of what check accepts: a norm off by 9e-7,
# which TwoQubitState renormalizes, a 1e-300 part and subnormal parts
EDGE_STATE_ARGS = ("1.0000009,0;0,0;0,0;0,0", "0.6,0;0,0;0.8,0;0,1e-300",
                   "0.6,5e-324;0.8,0;0,0;0,0", "0,0;1,0;1e-310,0;0,0")

# The premise that lets check run the float cores without their guards:
# the pair, the pair moved by its fiber element and the base point of its
# extracted angles are each unit to within a few ulps (at most 9e-16
# measured), where the guards allow EPS_UNIT = 1e-9.  1e-13 is about 450
# ulps of 1: far above rounding, and 1e4 times below what a guard would
# reject, so a row that breaks it has lost its normalization.
PREMISE_TOLERANCE = 1e-13


def test_check_rows_are_unit_where_the_core_guards_are_left_out(monkeypatch):
    # the (vec, fibs) of every block that check builds
    blocks, check_block = [], cli._check_block

    def record(rows, vec, fibs):
        blocks.append((vec, fibs))
        return check_block(rows, vec, fibs)

    monkeypatch.setattr(cli, "_check_block", record)
    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    for seed in range(5):
        cli._check_table(np.random.default_rng(seed), None, 2000)
    for state in CHECK_STATES:
        cli._check_table(np.random.default_rng(0), state, 1)
    with contextlib.redirect_stdout(io.StringIO()):
        for arg in EDGE_STATE_ARGS:
            assert main(["check", f"--state={arg}"]) == 0, arg
    assert sum(len(vec) for vec, _ in blocks) == (
        5 * 2000 + len(CHECK_STATES) + len(EDGE_STATE_ARGS))
    for vec, fibs in blocks:
        q0 = _from_complex_pair(vec[:, 0], vec[:, 1])
        q1 = _from_complex_pair(vec[:, 2], vec[:, 3])
        fib = tuple(fibs.T)
        total = _pair_norms(q0, q1)[1]
        moved = _pair_norms(_hamilton(*q0, *fib), _hamilton(*q1, *fib))[1]
        sphere = [sum(x * x for x in _base_point(*_extract(*row)[:4]))
                  for row in vec.tolist()]
        for err in (total - 1.0, moved - 1.0, np.array(sphere) - 1.0):
            assert (abs(err) <= PREMISE_TOLERANCE).all(), err


def test_nan_max_columns_is_nan_max_row_by_row():
    # a NaN of either sign comes out as math.nan itself, as _nan_max gives it
    columns = (np.array([1.0, math.nan, 0.5, 2.0]),
               np.array([-math.nan, 3.0, 0.5, 1.0]),
               np.array([0.0, 1.0, -math.nan, 2.0]))
    want = [_nan_max(row) for row in zip(*(c.tolist() for c in columns))]
    got = cli._nan_max_columns(columns)
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", [1, 7, 128])
def test_unit_rows_are_each_row_over_its_norm_bit_for_bit(n):
    # complex rows as _check_table builds them, strided views of a draw,
    # and real rows as it draws the fiber elements
    rng = np.random.default_rng(n)
    for _ in range(20):
        raw = rng.normal(size=(n, 8))
        for rows in (raw[:, 0::2] + 1j * raw[:, 1::2], rng.normal(size=(n, 4))):
            want = np.array([row / np.linalg.norm(row) for row in rows])
            assert cli._unit_rows(rows).tobytes() == want.tobytes()


def _first_error(check):
    with pytest.raises(HopfBlochError) as info:
        check()
    return type(info.value), str(info.value)


def test_check_block_raises_what_the_per_state_sweep_meets_first():
    good = bell_state("00")
    off_sphere = _raw_state(complex(math.nan), 0j, 0j, 0j)
    doubled = _raw_state(2 + 0j, 0j, 0j, 0j)  # |x|^2 = 16
    unit = cli._unit_rows(np.random.default_rng(4).normal(size=(3, 4)))
    # the first state that extract rejects raises; one after it is never
    # reached
    assert _first_error(lambda: _check_block(
        [good, off_sphere, doubled], unit)) == (
        OffSphere, "coordinates off the unit 4-sphere by nan")
    assert _first_error(lambda: _check_block(
        [good, doubled, off_sphere], unit)) == (
        OffSphere, "coordinates off the unit 4-sphere by 1.500e+01")


# tracemalloc peak growth of `check --count` per state between two counts:
# the (count, 8) draw and the (count, 6) deviation table take 112 bytes a
# state, and the blocks' arrays and columns do not grow with the count, so
# one more float64 array as long as the sweep would break the bound.  Each
# count starts after a full collection, which empties CPython's tuple free
# lists, so both runs allocate a block's tuples under tracing: otherwise one
# run can reuse tuples freed before tracemalloc started and the other not,
# depending on when the last collection ran, which moves one peak by a
# block's worth (about 96 KB at 512 states)
CHECK_BYTES_PER_STATE = 120


def test_check_memory_grows_only_with_its_two_tables(monkeypatch):
    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    counts, peaks = (2000, 6000), []
    with contextlib.redirect_stdout(io.StringIO()):
        main(["check", "--count", "10"])  # the parser and numpy, loaded once
        for count in counts:
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["check", "--count", str(count)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    growth = (peaks[1] - peaks[0]) / (counts[1] - counts[0])
    assert growth < CHECK_BYTES_PER_STATE, f"{growth:.1f} bytes a state"


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
GOLDENS = BENCHMARKS / "goldens"


def _benchmark_commands():
    """(name, argv, env, kind) of every benchmark CLI command, kind being
    "golden" or "error", read from benchmarks/run.py without importing it
    (importing sets process env)."""
    tree = ast.parse((BENCHMARKS / "run.py").read_text())
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "CLI_COMMANDS":
            commands = ast.literal_eval(node.value)
            return [(c[0], c[1], c[2], c[3]) for c in commands]
    raise LookupError("CLI_COMMANDS not found in benchmarks/run.py")


BENCHMARK_COMMANDS = _benchmark_commands()
GOLDEN_COMMANDS = [(name, argv) for name, argv, _, kind in BENCHMARK_COMMANDS
                   if kind == "golden"]
ERROR_COMMANDS = [(name, argv, env) for name, argv, env, kind
                  in BENCHMARK_COMMANDS if kind == "error"]


@pytest.mark.parametrize("name, argv", GOLDEN_COMMANDS,
                         ids=[name for name, _ in GOLDEN_COMMANDS])
def test_cli_output_matches_benchmark_goldens(capsys, monkeypatch, name, argv):
    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    want_codes = json.loads((GOLDENS / "exit_codes.json").read_text())
    code, out = run(capsys, argv)
    assert code == want_codes[name]
    assert out.encode() == (GOLDENS / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name, argv, env", ERROR_COMMANDS,
                         ids=[name for name, _, _ in ERROR_COMMANDS])
def test_benchmark_error_commands_emit_json_errors(capsys, monkeypatch, name,
                                                   argv, env):
    monkeypatch.delenv("HOPFBLOCH_SEED", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out = run(capsys, argv)
    assert (code, out) == ERROR_PAYLOADS[name]


# each benchmark error command's exit code and stdout, byte for byte
ERROR_PAYLOADS = {
    "bad-bell": (2, '{\n  "error": "parse",\n  "message": "--bell: bell code '
                    'must be one of [\'00\', \'01\', \'10\', \'11\'], got '
                    '\'22\'"\n}\n'),
    "unknown-gate": (4, '{\n  "error": "unknown_gate",\n  "message": "unknown '
                        'gate \'foo\'; use cnot, cz, swap or cu"\n}\n'),
    "south-pole": (3, '{\n  "error": "south_pole_a",\n  "message": "state is '
                      '|1>_A (x) |psi_B>; seven-angle coordinates undefined, '
                      'use the single-qubit fallback",\n  "psi_b": [\n    [\n'
                      '      1.0,\n      0.0\n    ],\n    [\n      0.0,\n'
                      '      0.0\n    ]\n  ]\n}\n'),
    "angle-range": (3, '{\n  "error": "out_of_range",\n  "message": "theta_a '
                       '= 9.0 outside [0, pi]"\n}\n'),
    "bad-axis": (2, '{\n  "error": "parse",\n  "message": "bad --axis '
                    '\'a,b,c\': could not convert string to float: \'a\'"\n}\n'),
    "bad-seed-env": (2, '{\n  "error": "parse",\n  "message": "HOPFBLOCH_SEED '
                        'must be an integer, got \'abc\'"\n}\n'),
    "negative-count": (2, '{\n  "error": "parse",\n  "message": "--count must '
                          'be at least 1, got -1"\n}\n'),
}


# ASCII, a quote, a backslash, control characters, and non-ASCII characters
# inside and beyond the BMP (the second written as a surrogate pair)
JSON_TEXT = st.text(st.sampled_from('ab"\\\x00\x08\t\n\x1f\x7fé\u2028𝄞'),
                    max_size=8)
JSON_LEAVES = (st.floats() | st.integers() | st.booleans() | st.none() | JSON_TEXT
               | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                  1e308]))
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children) | st.dictionaries(JSON_TEXT, children),
    max_leaves=20)


def _round_floats(obj):
    """obj with each float of the tree at 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, list):
        return [_round_floats(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _round_floats(item) for key, item in obj.items()}
    return obj


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(obj=JSON_TREES)
def test_json_writer_matches_json_dumps_indent_2(obj):
    assert cli._json(obj) == json.dumps(_round_floats(obj), indent=2)


@pytest.mark.parametrize("obj", [(1.0, 2.0), {1.0}, {"a": [0, (1,)]},
                                 {"a": {"b": {2}}}, {1: 2}],
                         ids=["tuple", "set", "nested-tuple", "nested-set",
                              "int-key"])
def test_json_writer_rejects_what_the_cli_never_writes(obj):
    # json.dumps writes a tuple as a list and an int key as a string; the
    # CLI builds only lists and str keys, so the writer rejects the rest
    with pytest.raises(TypeError):
        cli._json(obj)


# the specials of _num's fast path: zeros, subnormals, the smallest normal,
# each end of the magnitudes it takes, texts with an 'e+', and non-finites
NUM_EXAMPLES = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e-300,
                -1e-300, 99999999999.99, 1e11, 1.5e13, 1e16, math.inf,
                -math.inf, math.nan)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(v=st.floats())
def test_num_writes_what_json_writes_for_the_rounded_float(v):
    assert cli._num(v) == json.dumps(float(f"{v:.12g}"))


@pytest.mark.parametrize("v", NUM_EXAMPLES)
def test_num_on_its_specials(v):
    assert cli._num(v) == json.dumps(float(f"{v:.12g}"))


def _writer_pool():
    """Every gate kind, a zero-rotation and two random controlled-U gates,
    and the Bell, basis, product, Haar and south-pole states."""
    rng = np.random.default_rng(21)
    states = [bell_state(code) for code in ("00", "01", "10", "11")]
    states += [TwoQubitState(*e) for e in np.eye(4, dtype=complex)]
    states += random_product_states(rng, 2) + random_states(rng, 2)
    states += [
        TwoQubitState(0, 0, 0.6, 0.8),  # on the south pole at every sample
        # SWAP carries this one onto the south pole from the (-b, -t) twin
        TwoQubitState(0, math.cos(0.8) * cmath.exp(6j), 0,
                      math.sin(0.8) * cmath.exp(0.9j)),
    ]
    gates = [GateSpec.cnot(), GateSpec.cz(), GateSpec.swap(),
             GateSpec.controlled_u((0, 0, 1), 0.0, 1.5 * PI)]
    for _ in range(2):
        axis = rng.normal(size=3)
        eta, omega = rng.uniform(-2 * PI, 2 * PI, size=2)
        gates.append(GateSpec.controlled_u(tuple(axis / np.linalg.norm(axis)),
                                           float(omega), float(eta)))
    return gates, states


def test_streamed_traj_writers_match_the_whole_text_writers():
    gates, states = _writer_pool()
    flips = 0
    flag_counts = set()
    for g in gates:
        for s in states:
            # each of 2, 3 and 32 on each ramp
            for n1, n2 in ((2, 2), (2, 32), (3, 3), (32, 3), (32, 32)):
                traj = trajectory(g, s, n1, n2)
                streamed = "".join(cli._traj_json(g, iter(traj.samples)))
                assert streamed == json.dumps(reference_traj_json(traj),
                                              indent=2)
                streamed = "".join(cli._traj_csv(iter(traj.samples)))
                assert streamed == reference_traj_csv(traj)
                flips += sum(smp.branch_flip for smp in traj.samples)
                flag_counts.update(len(smp.coords.flags)
                                   for smp in traj.samples)
    assert flips > 0
    # phi_b_undefined (|v| = 0) and theta_b_pi_ambiguous (|u| = 0) never
    # hold together, so a sample carries at most five of the six flags
    assert flag_counts == {0, 1, 2, 3, 4, 5}


class _CountingSink:
    """A stdout that counts what is written to it and keeps none of it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


# tracemalloc peak of one `traj cz --bell 10 --n1 20000 --n2 2` run.  JSON
# and CSV are written a sample at a time, so their peak (about 10 KB) does
# not grow with the sample count; 1 MiB over 20 002 samples leaves no room
# for 53 bytes kept per sample.  Before they streamed, JSON peaked at 84 MB
# and CSV at 22 MB.
STREAMED_PEAK_BYTES = 1 << 20
# SVG writes each sphere's path as one polyline, so it keeps every point: 72
# bytes a sample as doubles (1.4 MB here) and the text built from them, 3.7
# MB at its peak.  Kept as tuples of floats, the points alone took 11 MB.
SVG_PEAK_BYTES = 5 << 20


@pytest.mark.parametrize("fmt, bound", [("json", STREAMED_PEAK_BYTES),
                                        ("csv", STREAMED_PEAK_BYTES),
                                        ("svg", SVG_PEAK_BYTES)])
def test_traj_memory_stays_flat_in_the_sample_count(fmt, bound):
    argv = ["traj", "cz", "--bell", "10", "--n2", "2", "--format", fmt]
    with contextlib.redirect_stdout(_CountingSink()):
        main(argv + ["--n1", "2"])  # the parser and caches, built once
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv + ["--n1", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 800_000  # the output itself is larger than the bound
    assert peak < bound, f"{fmt} peaked at {peak} bytes"


@pytest.mark.parametrize("argv", [
    ["traj", "cz", "--bell", "00", "--n1", "1"],
    ["traj", "toffoli", "--bell", "00"],
    ["traj", "cnot", "--axis", "0,0,1", "--bell", "00"],
    ["traj", "cz", "--state", "1,0;1,0;0,0;0,0"],
    ["traj", "cu", "--axis", "0,0,1", "--omega", "1e308", "--bell", "00"],
])
@pytest.mark.parametrize("fmt", ["json", "csv", "svg"])
def test_traj_errors_are_raised_before_the_first_byte(argv, fmt):
    # the error is the whole of stdout: one piece, then its newline
    pieces = []
    with contextlib.redirect_stdout(mock.Mock(write=pieces.append)):
        code = main(argv + ["--format", fmt])
    assert code in (2, 3, 4)
    assert len(pieces) == 2 and pieces[1] == "\n"
    assert isinstance(json.loads(pieces[0])["error"], str)


# runs in a fresh interpreter, so nothing the test process imported counts
NUMPY_PROBE = """
import contextlib, io, json, sys
seen = []
import hopfbloch
seen.append(["import hopfbloch", 0, "numpy" in sys.modules])
import hopfbloch.cli
seen.append(["import hopfbloch.cli", 0, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hopfbloch.cli.main(argv)
    seen.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_numpy_free_commands_never_import_numpy():
    numpy_free = [argv for _, argv in GOLDEN_COMMANDS if argv[0] != "check"]
    assert len(numpy_free) == 6
    # the control: check's sweep needs numpy, so the probe must see it load
    argvs = numpy_free + [["check", "--count", "3"]]
    env = dict(os.environ, PYTHONPATH=str(BENCHMARKS.parent / "src"))
    env.pop("HOPFBLOCH_SEED", None)
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120,
                          check=True)
    seen = json.loads(proc.stdout)
    assert len(seen) == 2 + len(argvs)
    *free, control = seen
    for step, code, numpy_loaded in free:
        assert (step, code, numpy_loaded) == (step, 0, False)
    assert control == ["check --count 3", 0, True]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_stdout_exits_1_without_traceback(fmt):
    # megabytes of output; the reader keeps one byte and closes the pipe
    argv = ["traj", "cz", "--bell", "00", "--n1", "2000", "--n2", "2000",
            "--format", fmt]
    env = dict(os.environ, PYTHONPATH=str(BENCHMARKS.parent / "src"))
    # buffered; test_closed_stdout_exits_1_when_unbuffered covers the rest
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "hopfbloch.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == (b"{" if fmt == "json" else b"s")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert stderr == ""


@pytest.mark.parametrize("fmt, first", [("json", b"{"), ("csv", b"s"),
                                        ("svg", b"<")])
def test_closed_stdout_exits_1_when_unbuffered(fmt, first):
    # unbuffered, a closed pipe can cut the text's write short without an
    # error, so the separate write of the final newline must raise
    argv = ["traj", "cz", "--bell", "00", "--n1", "2000", "--n2", "2000",
            "--format", fmt]
    env = dict(os.environ, PYTHONPATH=str(BENCHMARKS.parent / "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", "hopfbloch.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == first
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert stderr == ""


def test_closed_stdout_in_process_keeps_the_host_stdout(capsys):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w") as pipe:
        with contextlib.redirect_stdout(pipe):
            assert main(["coords", "--bell", "00"]) == 1
        # only the closed pipe's descriptor moved to devnull
        pipe.write("dropped")
    print("host")
    assert capsys.readouterr().out == "host\n"


# README's states, its overflowing one, and a south pole state
CONTRACT_STATES = ("0.5,0;0.5,0;0.5,0;0.5,0", "0.70710678,0;0,0.70710678;0,0;0,0",
                   "1e308,0;1e308,0;0,0;0,0", "0,0;0,0;0.6,0;0.8,0")
# option values for the CLI contract property: edge numbers, junk, README's
# examples, Bell codes and gate names
CONTRACT_VALUES = CONTRACT_STATES + (
    "0", "1", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "", "x",
    "1.5707963,1.5707963,1.5707963,1.5707963,0,0,0", "0,0,1", "1.5707963",
    "3.1415927", "1e-9", "7", "json", "csv", "svg",
    "00", "22", "cnot", "cz", "swap", "cu", "foo",
)
# --n1, --n2 and --count draw from this pool instead, so an example stays fast
CONTRACT_SIZES = ("0", "1", "-1", "2", "3", "40", "", "x", "nan", "1e308")
# half the draws come from the values README shows an option taking, so
# that valid commands and domain errors are as common as parse errors
CONTRACT_USUAL = {
    "gate": ("cnot", "cz", "swap", "cu"),
    "--state": CONTRACT_STATES,
    "--bell": ("00",),
    "--format": ("json", "csv", "svg"),
    "--angles": ("1.5707963,1.5707963,1.5707963,1.5707963,0,0,0",),
    "--axis": ("0,0,1",),
    "--eta": ("1.5707963",),
    "--omega": ("3.1415927",),
    "--seed": ("7",),
    "--tolerance": ("1e-9", "5e-324"),
    "--n1": ("2", "3", "40"),
    "--n2": ("2", "3", "40"),
    "--count": ("1", "3"),
}
CONTRACT_OPTIONS = {
    "coords": ("--state", "--bell", "--fix-phase", "--canonical", "--format"),
    "amplitudes": ("--angles", "--roundtrip"),
    "traj": ("--state", "--bell", "--axis", "--eta", "--omega", "--n1", "--n2",
             "--format"),
    "check": ("--state", "--bell", "--seed", "--tolerance"),
}
CONTRACT_FLAGS = ("--fix-phase", "--canonical", "--roundtrip")
# README's exit code for each error kind
ERROR_KIND_CODES = {"parse": 2, "unknown_gate": 4, "not_normalized": 3,
                    "out_of_range": 3, "domain": 3, "south_pole_a": 3}


@st.composite
def cli_argvs(draw):
    def value(opt):
        pool = CONTRACT_SIZES if opt in ("--n1", "--n2", "--count") \
            else CONTRACT_VALUES
        return draw(st.sampled_from(CONTRACT_USUAL[opt])
                    | st.sampled_from(pool))

    command = draw(st.sampled_from(sorted(CONTRACT_OPTIONS)))
    argv = [command]
    if command == "traj":
        argv.append(value("gate"))
    # the command's input first, then up to four options, perhaps the input
    # again or its exclusive twin
    inputs = ("--angles",) if command == "amplitudes" else ("--state", "--bell")
    options = [draw(st.sampled_from(inputs))]
    options += draw(st.lists(st.sampled_from(CONTRACT_OPTIONS[command]),
                             max_size=4, unique=True))
    if command == "check":
        options.append("--count")  # the default of 500 states is slow
    for opt in options:
        argv.append(opt if opt in CONTRACT_FLAGS else f"{opt}={value(opt)}")
    return argv


def _main_in_process(argv):
    """(code, stdout, stderr) of one in-process main call, HOPFBLOCH_SEED
    unset."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("HOPFBLOCH_SEED", None)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _no_json_int(text):
    pytest.fail(f"the CLI wrote the JSON int {text}")


def _twelve_digit_float(text):
    x = float(text)
    assert float(f"{x:.12g}") == x, text
    return x


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(argv=cli_argvs())
def test_every_argv_gets_a_documented_exit_code(argv):
    code, out, err = _main_in_process(argv)
    assert code in (0, 2, 3, 4)
    assert err == ""
    # every number of every JSON output, records and errors, is a float at
    # 12 significant digits
    record = (json.loads(out, parse_int=_no_json_int,
                         parse_float=_twelve_digit_float)
              if out.startswith("{") else None)
    if code == 0:
        return
    if argv[0] == "check" and code == 3 and record is None:
        lines = out.splitlines()
        assert len(lines) == 7 and lines[-1].startswith("checked ")
        assert any(line.startswith("FAIL") for line in lines)
        return
    assert isinstance(record, dict)
    assert ERROR_KIND_CODES[record["error"]] == code


def _fresh_parser():
    """Patches main to build a new parser on every call."""
    return mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__)


# run before each example, so the shared parser has just seen a success, an
# exclusive-group conflict, a missing required option and a --help
WARM_UP_ARGVS = (["coords", "--bell", "00"],
                 ["coords", "--state=x", "--bell", "00"],
                 ["amplitudes"], ["traj", "--help"])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(argv=cli_argvs())
def test_shared_parser_keeps_no_state_between_calls(argv):
    for warm_up in WARM_UP_ARGVS:
        _main_in_process(warm_up)
    shared = _main_in_process(argv)
    with _fresh_parser():
        assert _main_in_process(argv) == shared


def test_build_parser_is_shared_and_not_built_on_import():
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=str(BENCHMARKS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import hopfbloch.cli as cli; "
                               "print(cli.build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "0\n"


def test_svg_wireframe_is_shared_and_not_built_on_import():
    wireframe = svg._wireframe(120.0, 124.8)
    assert isinstance(wireframe, tuple)
    assert svg._wireframe(120.0, 124.8) is wireframe
    env = dict(os.environ, PYTHONPATH=str(BENCHMARKS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import hopfbloch.cli, hopfbloch.svg as svg; "
                               "print(svg._wireframe.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "0\n"


def test_help_wraps_at_the_width_of_each_call(monkeypatch):
    # rebuilt under a third width first, so a width read while building the
    # parser would show in both helps
    cli.build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "120")
    cli.build_parser()
    helps = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        shared = _main_in_process(["traj", "--help"])
        with _fresh_parser():
            assert _main_in_process(["traj", "--help"]) == shared
        helps.append(shared[1])
    assert helps[0] != helps[1]


def test_main_calls_the_command_function_bound_at_call_time(monkeypatch):
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_coords", lambda args: (0, "rebound"))
    assert _main_in_process(["coords", "--bell", "00"]) == (0, "rebound\n", "")
