"""Acceptance sweep: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import cmath
import math
import time

import numpy as np
import pytest

from hopfbloch import (
    Basis,
    BlochCoordinates,
    CoordFlag,
    GateSpec,
    SouthPoleA,
    TwoQubitState,
    apply,
    bell_state,
    concurrence,
    extract,
    h1,
    inverse_stereographic,
    normalize_global_phase,
    partial_trace_projection,
    phase_aligned_distance,
    quasi_density,
    quasi_state,
    reconstruct,
    reduced_density,
    trajectory,
)
from hopfbloch.cli import main
from hopfbloch.quaternion import angle_distance

from helpers import (
    SQ2,
    dense_reduced,
    phase_family_state,
    random_quaternion,
    random_states,
)

PI = math.pi


def report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_bell_table():
    t0 = time.perf_counter()
    expected = {
        "00": dict(t=(0, 1, 0), theta_b=0.0, phi_b=0.0),
        "01": dict(t=(0, -1, 0), theta_b=PI, phi_b=0.0),
        "10": dict(t=(0, -1, 0), theta_b=0.0, phi_b=0.0),
        "11": dict(t=(0, 1, 0), theta_b=PI, phi_b=0.0),
    }
    for code, want in expected.items():
        c = extract(bell_state(code))
        assert abs(c.s4_point.x0) <= 1e-9, code
        assert abs(c.s4_point.x1) <= 1e-9, code
        assert abs(c.b - 1.0) <= 1e-9, code
        t = c.t
        for got, target in zip((t.tx, t.ty, t.tz), want["t"]):
            assert abs(got - target) <= 1e-9, code
        assert angle_distance(c.theta_b, want["theta_b"]) <= 1e-9, code
        assert angle_distance(c.phi_b, want["phi_b"]) <= 1e-9, code
        assert angle_distance(c.zeta_b, 0.0) <= 1e-9, code
        # the four angles behind (x0, x1, b) = (0, 0, 1)
        assert angle_distance(c.theta_a, PI / 2) <= 1e-9, code
        assert angle_distance(c.phi_a, PI / 2) <= 1e-9, code
        assert angle_distance(c.chi, PI / 2) <= 1e-9, code
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"Bell table reproduced ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_roundtrip_100k():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    raw = rng.normal(size=(100_000, 8))
    worst = 0.0
    skipped = 0
    for i, row in enumerate(raw):
        vec = row[0::2] + 1j * row[1::2]
        vec /= np.linalg.norm(vec)
        s = TwoQubitState(complex(vec[0]), complex(vec[1]),
                          complex(vec[2]), complex(vec[3]))
        try:
            c = extract(s)
        except SouthPoleA:
            skipped += 1
            continue
        worst = max(worst, phase_aligned_distance(s, reconstruct(c)))
        if i % 16 == 0 and not c.flags:
            # spot-check that stripping zeta_b leaves only the global phase
            fixed = normalize_global_phase(c)
            worst = max(worst, float(np.max(np.abs(
                reconstruct(fixed).vector
                - cmath.exp(-1j * c.zeta_b) * reconstruct(c).vector))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(2, f"1e5 round trips, max amplitude error {worst:.2e} "
              f"({elapsed:.1f} s, {skipped} skipped)")


def test_criterion_3_concurrence_identities():
    rng = np.random.default_rng(3)
    worst_mag = worst_phase = 0.0
    for s in random_states(rng, 10_000):
        c = extract(s)
        mag, _ = concurrence(s)
        model = math.sin(c.theta_a) * math.sin(c.phi_a) * math.sin(c.chi)
        worst_mag = max(worst_mag, abs(mag - model))
        if CoordFlag.XI_UNDEFINED not in c.flags:
            det2 = 2 * (s.alpha * s.delta - s.beta * s.gamma)
            claim = model * cmath.exp(1j * (c.xi - PI / 2))
            worst_phase = max(worst_phase, abs(det2 - claim))
    assert worst_mag <= 1e-9
    assert worst_phase <= 1e-9

    worst_mes = 0.0
    for eta in np.linspace(0.0, 2 * PI, 64, endpoint=False):
        c = extract(TwoQubitState(SQ2, 0, 0, SQ2 * cmath.exp(1j * eta)))
        worst_mes = max(worst_mes, angle_distance(c.xi, PI / 2 + eta))
        c = extract(TwoQubitState(0, SQ2, SQ2 * cmath.exp(1j * eta), 0))
        worst_mes = max(worst_mes, angle_distance(c.xi, 3 * PI / 2 + eta))
    assert worst_mes <= 1e-9
    report(3, f"concurrence identities max err {max(worst_mag, worst_phase):.2e}, "
              f"phase-rule max err {worst_mes:.2e}")


def _single_qubit_azimuth(c: BlochCoordinates) -> float:
    # through the (b, t) identification: when t lands on -k, the twin branch
    # (2 pi - phi_a, t = +k) carries the literal single-qubit azimuth
    if c.t.tz < 0:
        return (2 * PI - c.phi_a) % (2 * PI)
    return c.phi_a


def test_criterion_4_phase_family():
    r3 = 1 / math.sqrt(3)
    c0, _ = concurrence(phase_family_state(r3, r3, 0, r3, 0.7, 1.9))
    assert abs(c0 - 2 / 3) <= 1e-12

    grid = np.linspace(0.0, 2 * PI, 16, endpoint=False)
    worst = 0.0
    for p1 in grid:
        for p2 in grid:
            c = normalize_global_phase(
                extract(phase_family_state(r3, r3, 0, r3, p1, p2)))
            worst = max(worst, angle_distance(c.xi, 2 * p1 + PI / 2))
            worst = max(worst, angle_distance(c.phi_b, p1 - p2))
            worst = max(worst,
                        abs(math.cos(c.phi_a) - math.cos(p1 + p2) / math.sqrt(2)))
    assert worst <= 1e-9

    worst_sep = 0.0
    for p1 in grid:
        for p2 in grid:
            c = normalize_global_phase(
                extract(phase_family_state(SQ2, SQ2, 0, 0, p1, p2)))
            worst_sep = max(worst_sep, angle_distance(c.phi_b, p1 - p2))
            c = normalize_global_phase(
                extract(phase_family_state(0, SQ2, 0, SQ2, p1, p2)))
            worst_sep = max(worst_sep,
                            angle_distance(_single_qubit_azimuth(c), p1 + p2))
            c = normalize_global_phase(
                extract(phase_family_state(0.5, 0.5, 0.5, 0.5, p1, p2)))
            worst_sep = max(worst_sep,
                            angle_distance(_single_qubit_azimuth(c), p1 + p2))
            worst_sep = max(worst_sep, angle_distance(c.phi_b, p1 - p2))
    assert worst_sep <= 1e-9
    report(4, f"phase-family equalities max err {max(worst, worst_sep):.2e} "
              f"on a 16x16 grid")


def test_criterion_5_gate_endpoints_and_cz_path():
    got = apply(GateSpec.cz(), bell_state("10"))
    assert float(np.max(np.abs(got.vector - bell_state("00").vector))) <= 1e-12

    got = apply(GateSpec.cnot(), bell_state("10"))
    want = TwoQubitState(SQ2, 0, -SQ2, 0)
    assert float(np.max(np.abs(got.vector - want.vector))) <= 1e-12

    got = apply(GateSpec.swap(), TwoQubitState(SQ2, 1j * SQ2, 0, 0))
    want = TwoQubitState(SQ2, 0, 1j * SQ2, 0)
    assert float(np.max(np.abs(got.vector - want.vector))) <= 1e-12

    traj = trajectory(GateSpec.cz(), bell_state("10"), 32, 32)
    assert len(traj.samples) == 64
    worst_c = max(abs(smp.coords.concurrence - 1.0) for smp in traj.samples)
    assert worst_c <= 1e-9
    assert angle_distance(traj.samples[0].coords.xi, 3 * PI / 2) <= 1e-9
    assert angle_distance(traj.samples[-1].coords.xi, PI / 2) <= 1e-9
    report(5, f"gate endpoints exact, CZ path concurrence drift {worst_c:.2e}")


def test_criterion_6_fiber_invariance():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10_000):
        q0 = random_quaternion(rng)
        q1 = random_quaternion(rng)
        n = math.sqrt(q0.norm_squared() + q1.norm_squared())
        q0, q1 = q0 * (1 / n), q1 * (1 / n)
        if q1.norm() <= 1e-6:
            continue
        f = random_quaternion(rng, unit=True)
        base = inverse_stereographic(h1(q0, q1))
        moved = inverse_stereographic(h1(q0 * f, q1 * f))
        worst = max(worst, abs(base.x0 - moved.x0), abs(base.x1 - moved.x1),
                    abs(base.x2 - moved.x2), abs(base.x3 - moved.x3),
                    abs(base.x4 - moved.x4))
    assert worst <= 1e-9
    report(6, f"fiber invariance over 1e4 pairs, max drift {worst:.2e}")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_red = worst_proj = worst_ball = 0.0
    for s in random_states(rng, 10_000):
        for keep in (Basis.A, Basis.B):
            worst_red = max(worst_red, float(np.max(np.abs(
                reduced_density(s, keep) - dense_reduced(s, keep)))))
        rho = quasi_density(quasi_state(s))
        sq = rho.matmul(rho)
        worst_proj = max(worst_proj, abs(rho.trace - 1.0))
        for got, want in zip(sq.entries(), rho.entries()):
            worst_proj = max(worst_proj, (got - want).norm())
        p = extract(s).s4_point
        worst_ball = max(worst_ball,
                         abs(p.x0 ** 2 + p.x1 ** 2 + p.x4 ** 2 + p.c ** 2 - 1.0))
        worst_red = max(worst_red, float(np.max(np.abs(
            partial_trace_projection(p) - dense_reduced(s, Basis.A)))))
    assert worst_red <= 1e-12
    assert worst_proj <= 1e-9
    assert worst_ball <= 1e-9
    report(7, f"reduced-density oracle {worst_red:.2e}, projector "
              f"{worst_proj:.2e}, ball identity {worst_ball:.2e}")


def test_criterion_8_degenerate_policy():
    rng = np.random.default_rng(8)
    for _ in range(200):
        raw = rng.normal(size=4)
        psi = raw[0:4:2] + 1j * raw[1:4:2]
        psi /= np.linalg.norm(psi)
        s = TwoQubitState(0, 0, complex(psi[0]), complex(psi[1]))
        with pytest.raises(SouthPoleA) as info:
            extract(s)
        got = info.value.psi_b
        assert abs(got[0] - s.gamma) <= 1e-15
        assert abs(got[1] - s.delta) <= 1e-15

    worst = 0.0
    for _ in range(500):
        c = BlochCoordinates(rng.uniform(0.05, PI - 0.05),
                             rng.uniform(0.05, PI - 0.05),
                             rng.uniform(0.05, PI - 0.05),
                             rng.uniform(0, 2 * PI), PI,
                             rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        s = reconstruct(c)
        got = extract(s)
        assert got.zeta_b == 0.0
        assert CoordFlag.THETA_B_PI_AMBIGUOUS in got.flags
        worst = max(worst, phase_aligned_distance(reconstruct(got), s))
    assert worst <= 1e-9
    report(8, f"south-pole payload exact, theta_b=pi round trips {worst:.2e}")


def test_criterion_9_cli_determinism(capsys):
    for args in (["coords", "--bell", "00", "--format", "json"],
                 ["traj", "cz", "--bell", "10", "--format", "csv",
                  "--n1", "8", "--n2", "8"]):
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        out2 = capsys.readouterr().out
        assert out1.encode() == out2.encode()
    report(9, "CLI output byte-identical across runs")
