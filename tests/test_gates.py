import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hopfbloch import (
    BadAxis,
    CoordFlag,
    GateKind,
    GateSpec,
    OutOfRange,
    SouthPoleA,
    Stage,
    TwoQubitState,
    apply,
    bell_state,
    concurrence,
    extract,
    gate_matrix,
    phase_aligned_distance,
    trajectory,
)
from hopfbloch.bloch import (
    _nearer_branch,
    alternate,
    coords_distance,
    south_pole_coords,
)
from hopfbloch import gates
from hopfbloch.gates import Trajectory, TrajectorySample
from hopfbloch.quaternion import angle_distance

from helpers import (
    SQ2,
    assert_extract_matches_reference,
    random_product_states,
    random_states,
)

PI = math.pi

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def dense_gate(g, eta, omega):
    """Oracle: the 4x4 gate from Pauli matrices, block embedded with np.ix_."""
    n_sigma = sum(a * p for a, p in zip(g.axis, _PAULI))
    block = np.exp(1j * eta) * (math.cos(0.5 * omega) * np.eye(2, dtype=complex)
                                - 1j * math.sin(0.5 * omega) * n_sigma)
    i, j = (1, 2) if g.kind is GateKind.SWAP else (2, 3)
    m = np.eye(4, dtype=complex)
    m[np.ix_((i, j), (i, j))] = block
    return m


def test_gate_matrix_endpoints():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    cnot = gate_matrix(GateSpec.cnot(), PI / 2, PI)
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = x
    assert np.max(np.abs(cnot - want)) <= 1e-12

    cz = gate_matrix(GateSpec.cz(), PI / 2, PI)
    assert np.max(np.abs(cz - np.diag([1, 1, 1, -1]))) <= 1e-12

    swap = gate_matrix(GateSpec.swap(), PI / 2, PI)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[3, 3] = 1
    want[1, 2] = want[2, 1] = 1
    assert np.max(np.abs(swap - want)) <= 1e-12


def test_gate_matrix_identity_at_origin():
    for g in (GateSpec.cnot(), GateSpec.cz(), GateSpec.swap(),
              GateSpec.controlled_u((0, 1, 0), 1.0, 0.5)):
        m = gate_matrix(g, 0.0, 0.0)
        assert np.max(np.abs(m - np.eye(4))) <= 1e-12


def test_gate_matrix_unitary_along_path():
    rng = np.random.default_rng(51)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        g = GateSpec.controlled_u(tuple(axis), rng.uniform(0, PI),
                                  rng.uniform(0, PI / 2))
        m = gate_matrix(g, rng.uniform(0, PI / 2), rng.uniform(0, PI))
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-9


@pytest.mark.parametrize("axis", [(1.0, 1.0, 0.0), (1.0, 0.0), (1.0, 0.0, 0.0, 0.0)],
                         ids=["not_unit", "two_components", "four_components"])
def test_bad_axis_rejected(axis):
    with pytest.raises(BadAxis):
        GateSpec.controlled_u(axis, PI, PI / 2)


def test_apply_caption_endpoints():
    assert phase_aligned_distance(apply(GateSpec.cz(), bell_state("10")),
                                  bell_state("00")) <= 1e-12

    got = apply(GateSpec.cnot(), bell_state("10"))
    want = TwoQubitState(SQ2, 0, -SQ2, 0)
    assert np.max(np.abs(got.vector - want.vector)) <= 1e-12

    got = apply(GateSpec.swap(), TwoQubitState(SQ2, 1j * SQ2, 0, 0))
    want = TwoQubitState(SQ2, 0, 1j * SQ2, 0)
    assert np.max(np.abs(got.vector - want.vector)) <= 1e-12


def test_trajectory_shape_and_endpoints():
    s = bell_state("10")
    traj = trajectory(GateSpec.cz(), s, 8, 8)
    assert len(traj.samples) == 16
    assert [smp.stage for smp in traj.samples[:8]] == [Stage.PHASE_RAMP] * 8
    assert [smp.stage for smp in traj.samples[8:]] == [Stage.ROTATION_RAMP] * 8
    assert traj.samples[0].s == 0.0 and traj.samples[7].s == 1.0
    assert np.max(np.abs(traj.samples[0].state.vector - s.vector)) <= 1e-12
    assert phase_aligned_distance(traj.samples[-1].state,
                                  apply(GateSpec.cz(), s)) <= 1e-9
    with pytest.raises(ValueError):
        trajectory(GateSpec.cz(), s, 1, 8)


def test_cz_trajectory_moves_only_xi():
    traj = trajectory(GateSpec.cz(), bell_state("10"), 32, 32)
    first, last = traj.samples[0].coords, traj.samples[-1].coords
    assert angle_distance(first.xi, 3 * PI / 2) <= 1e-9
    assert angle_distance(last.xi, PI / 2) <= 1e-9
    for smp in traj.samples:
        assert abs(smp.coords.concurrence - 1.0) <= 1e-9
        c, _ = concurrence(smp.state)
        assert abs(c - 1.0) <= 1e-9
        assert not smp.branch_flip
    # counterclockwise through the wrap at 0, total advance pi
    unwrapped = np.unwrap([smp.coords.xi for smp in traj.samples])
    steps = np.diff(unwrapped)
    assert np.all(steps > -1e-12)
    assert abs((unwrapped[-1] - unwrapped[0]) - PI) <= 1e-9
    # everything else stays put
    for smp in traj.samples:
        assert angle_distance(smp.coords.theta_a, first.theta_a) <= 1e-9
        assert angle_distance(smp.coords.phi_a, first.phi_a) <= 1e-9
        assert angle_distance(smp.coords.chi, first.chi) <= 1e-9
        assert angle_distance(smp.coords.theta_b, first.theta_b) <= 1e-9


def test_cnot_phase_ramp_midpoint():
    traj = trajectory(GateSpec.cnot(), bell_state("10"), 3, 2)
    mid = traj.samples[1]  # eta = pi/4, omega = 0
    want = TwoQubitState(SQ2, 0, 0, -SQ2 * np.exp(1j * PI / 4))
    assert np.max(np.abs(mid.state.vector - want.vector)) <= 1e-12
    assert angle_distance(mid.coords.xi, 3 * PI / 2 + PI / 4) <= 1e-9


def test_cnot_rotation_ramp_disentangles():
    traj = trajectory(GateSpec.cnot(), bell_state("10"), 8, 32)
    rotation = [smp for smp in traj.samples if smp.stage is Stage.ROTATION_RAMP]
    concs = [smp.coords.concurrence for smp in rotation]
    assert abs(concs[0] - 1.0) <= 1e-9
    assert concs[-1] <= 1e-9
    assert all(c_next <= c_prev + 1e-12
               for c_prev, c_next in zip(concs, concs[1:]))
    # the qubit-B coordinates never move
    first = traj.samples[0].coords
    last = traj.samples[-1].coords
    assert angle_distance(first.theta_b, last.theta_b) <= 1e-9
    assert abs(last.b) <= 1e-9


def test_swap_exchanges_qubit_roles():
    s = TwoQubitState(SQ2, 1j * SQ2, 0, 0)  # |0> (x) (|0> + k|1>)/sqrt2
    before = extract(s)
    after = extract(apply(GateSpec.swap(), s))
    assert angle_distance(after.theta_a, before.theta_b) <= 1e-9
    assert angle_distance(after.phi_a, before.phi_b) <= 1e-9
    assert angle_distance(after.theta_b, before.theta_a) <= 1e-9


def test_identity_controlled_u_constant_trajectory():
    g = GateSpec.controlled_u((0, 0, 1), 0.0, 0.0)
    s = TwoQubitState(0.5, 0.5, 0.5, 0.5)
    traj = trajectory(g, s, 2, 2)
    first = traj.samples[0]
    for smp in traj.samples:
        assert np.max(np.abs(smp.state.vector - first.state.vector)) <= 1e-12
        assert smp.coords == first.coords
        assert not smp.branch_flip


def test_branch_flip_on_azimuth_crossing():
    # a pure phase ramp that drives phi_a through pi forces the canonical
    # branch to reflect; continuity should emit the (-b, -t) twin and flag it
    g = GateSpec.controlled_u((0, 0, 1), 0.0, 1.5 * PI)
    s = TwoQubitState(SQ2, 0, SQ2, 0)
    traj = trajectory(g, s, 16, 2)
    flips = [smp.branch_flip for smp in traj.samples]
    assert any(flips)
    phase = [smp for smp in traj.samples if smp.stage is Stage.PHASE_RAMP]
    # emitted azimuths follow the ramp without reflection
    for smp in phase[1:]:
        eta = smp.s * 1.5 * PI
        if CoordFlag.T_UNDEFINED in smp.coords.flags:
            continue
        assert angle_distance(smp.coords.phi_a, eta) <= 1e-9
    # flipped samples sit on the non-canonical branch
    for smp in phase:
        if smp.coords.b < -1e-9:
            assert smp.coords.t.tz > 0  # alternate branch keeps t = +k here


def test_south_pole_sample_is_flagged_not_fatal():
    g = GateSpec.controlled_u((0, 0, 1), 0.0, 0.0)
    s = TwoQubitState(0, 0, 0.6, 0.8)
    traj = trajectory(g, s, 2, 2)
    for smp in traj.samples:
        assert CoordFlag.SOUTH_POLE_A in smp.coords.flags
        assert smp.coords.theta_a == PI


def test_trajectory_samples_unitary_states():
    rng = np.random.default_rng(52)
    for s in random_states(rng, 5):
        for g in (GateSpec.cnot(), GateSpec.cz(), GateSpec.swap()):
            traj = trajectory(g, s, 6, 6)
            for smp in traj.samples:
                assert abs(np.linalg.norm(smp.state.vector) - 1.0) <= 1e-9


def test_non_finite_axis_rejected():
    with pytest.raises(BadAxis):
        GateSpec.controlled_u((float("nan"), 0.0, 0.0), PI, PI / 2)


def test_closed_form_block_matches_dense_oracle():
    # every kind with random axes, so both block placements are exercised:
    # (1, 2) for SWAP and (2, 3) for the rest
    rng = np.random.default_rng(53)
    states = random_states(rng, 4)
    for _ in range(10):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        eta, omega = rng.uniform(-2 * PI, 2 * PI, size=2)
        for kind in GateKind:
            g = GateSpec(kind, tuple(axis), eta, omega)
            dense = dense_gate(g, eta, omega)
            assert np.max(np.abs(gate_matrix(g, eta, omega) - dense)) <= 1e-12
            for s in states:
                got = apply(g, s).vector
                assert np.max(np.abs(got - dense @ s.vector)) <= 1e-12
            traj = trajectory(g, states[0], 5, 5)
            for smp in traj.samples:
                phase = smp.stage is Stage.PHASE_RAMP
                want = dense_gate(g, eta * smp.s if phase else eta,
                                  0.0 if phase else omega * smp.s)
                assert np.max(np.abs(smp.state.vector
                                     - want @ states[0].vector)) <= 1e-12


@pytest.mark.parametrize("eta, omega", [
    (math.inf, PI), (math.nan, PI), (PI / 2, math.inf), (PI / 2, math.nan),
], ids=["eta-inf", "eta-nan", "omega-inf", "omega-nan"])
def test_non_finite_endpoints_rejected(eta, omega):
    with pytest.raises(OutOfRange):
        apply(GateSpec.controlled_u((0, 0, 1), omega, eta), bell_state("00"))


@pytest.mark.parametrize("eta, omega", [
    (1e308, PI), (PI / 2, 1e308), (PI / 2, -1e308),
], ids=["eta-1e308", "omega-1e308", "omega-minus-1e308"])
def test_trajectory_sweep_overflow_is_out_of_range(eta, omega):
    # the endpoints are finite, and so is the two-sample sweep, but
    # endpoint * (n - 1) for n = 32 is not
    g = GateSpec.controlled_u((0, 0, 1), omega, eta)
    apply(g, bell_state("00"))
    assert len(trajectory(g, bell_state("00"), 2, 2).samples) == 4
    with pytest.raises(OutOfRange):
        trajectory(g, bell_state("00"))


def test_samples_checks_before_the_first_sample_and_builds_no_schedule():
    s = bell_state("00")
    # raised by the call itself, not by the first next() of the generator
    with pytest.raises(ValueError):
        gates._samples(GateSpec.cz(), s, 1, 2)
    with pytest.raises(OutOfRange):
        gates._samples(GateSpec.controlled_u((0, 0, 1), 1e308, PI / 2), s, 32, 32)
    # a schedule of 2 * 10**6 samples, built whole, would take over 100 MB
    tracemalloc.start()
    try:
        first = next(gates._samples(GateSpec.cz(), s, 10 ** 6, 10 ** 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == trajectory(GateSpec.cz(), s, 2, 2).samples[0]
    assert peak < 100_000


def reference_trajectory(g, s, n1=32, n2=32):
    """Reference for ``trajectory``: the sampling loop with each branch_flip
    case spelled out (first sample, south-pole sample, regular sample)."""
    if n1 < 2 or n2 < 2:
        raise ValueError("n1 and n2 must be at least 2")
    schedule = [(Stage.PHASE_RAMP, i / (n1 - 1), g.eta * i / (n1 - 1), 0.0)
                for i in range(n1)]
    schedule += [(Stage.ROTATION_RAMP, i / (n2 - 1), g.eta, g.omega * i / (n2 - 1))
                 for i in range(n2)]

    samples = []
    prev_coords = None
    prev_alt = False
    for stage, frac, eta, omega in schedule:
        state = apply(replace(g, eta=eta, omega=omega), s)
        try:
            canon = extract(state)
        except SouthPoleA as exc:
            coords = south_pole_coords(exc)
            flip = prev_alt
            prev_alt = False
        else:
            twin = alternate(canon)
            use_alt = False
            if prev_coords is not None and twin is not canon:
                use_alt = (coords_distance(twin, prev_coords)
                           < coords_distance(canon, prev_coords))
            coords = twin if use_alt else canon
            flip = prev_coords is not None and use_alt != prev_alt
            prev_alt = use_alt
        samples.append(TrajectorySample(stage, frac, state, coords, flip))
        prev_coords = coords

    return Trajectory(g, tuple(samples))


def test_trajectory_matches_reference_loop():
    rng = np.random.default_rng(54)
    states = [bell_state(code) for code in ("00", "01", "10", "11")]
    states += [TwoQubitState(*e) for e in np.eye(4, dtype=complex)]
    states += random_product_states(rng, 3) + random_states(rng, 3)
    states += [
        TwoQubitState(0, 0, 0.6, 0.8),  # on the south pole at every sample
        # SWAP carries this one to b ~ 0 (t_undefined) from the (-b, -t) twin
        TwoQubitState(0, math.cos(0.8) * cmath.exp(6j), 0,
                      math.sin(0.8) * cmath.exp(0.9j)),
    ]
    gates = [GateSpec.cnot(), GateSpec.cz(), GateSpec.swap(),
             GateSpec.controlled_u((0, 0, 1), 0.0, 1.5 * PI)]
    for _ in range(3):
        axis = rng.normal(size=3)
        eta, omega = rng.uniform(-2 * PI, 2 * PI, size=2)
        gates.append(GateSpec.controlled_u(axis / np.linalg.norm(axis),
                                           omega, eta))
    flips = twinless_flips = 0
    for g in gates:
        for s in states:
            got = trajectory(g, s, 12, 12)
            want = reference_trajectory(g, s, 12, 12)
            assert len(got.samples) == len(want.samples)
            for a, b in zip(got.samples, want.samples):
                assert a.state == b.state
                assert a.coords == b.coords
                assert a.coords.flags == b.coords.flags
                assert a.branch_flip == b.branch_flip
                flips += a.branch_flip
                twinless_flips += (a.branch_flip
                                   and alternate(a.coords) is a.coords)
            assert got.samples[-1].state == want.samples[-1].state
    # every case of the flip rule ran: flips onto and off the twin, and a
    # flip back to the canonical branch on a sample without a twin (a gate
    # keeps alpha = beta = 0 only where its input had it, so no sample
    # enters the south pole from the twin)
    assert flips > 0
    assert twinless_flips > 0


def reference_loop_pool():
    """The gates and states of test_trajectory_matches_reference_loop."""
    rng = np.random.default_rng(54)
    states = [bell_state(code) for code in ("00", "01", "10", "11")]
    states += [TwoQubitState(*e) for e in np.eye(4, dtype=complex)]
    states += random_product_states(rng, 3) + random_states(rng, 3)
    states += [
        TwoQubitState(0, 0, 0.6, 0.8),
        TwoQubitState(0, math.cos(0.8) * cmath.exp(6j), 0,
                      math.sin(0.8) * cmath.exp(0.9j)),
    ]
    gates = [GateSpec.cnot(), GateSpec.cz(), GateSpec.swap(),
             GateSpec.controlled_u((0, 0, 1), 0.0, 1.5 * PI)]
    for _ in range(3):
        axis = rng.normal(size=3)
        eta, omega = rng.uniform(-2 * PI, 2 * PI, size=2)
        gates.append(GateSpec.controlled_u(axis / np.linalg.norm(axis),
                                           omega, eta))
    return gates, states


def test_extract_matches_quaternion_route_on_trajectory_samples():
    gates, states = reference_loop_pool()
    samples = south_pole = 0
    for g in gates:
        for s in states:
            for smp in trajectory(g, s, 12, 12).samples:
                samples += 1
                south_pole += assert_extract_matches_reference(smp.state) is None
    assert samples == len(gates) * len(states) * 24
    assert south_pole > 0


def test_nearer_branch_on_emitted_consecutive_pairs():
    # c is each sample's canonical extraction and prev the coordinates the
    # trajectory emitted one sample earlier: the pairs _nearer_branch meets
    rejects = kept = twins = 0
    gates, states = reference_loop_pool()
    for g in gates:
        for s in states:
            samples = trajectory(g, s, 32, 32).samples
            for prev, smp in zip(samples, samples[1:]):
                if CoordFlag.SOUTH_POLE_A in smp.coords.flags:
                    continue
                c = extract(smp.state)
                got = _nearer_branch(c, prev.coords)
                assert got == smp.coords
                twin = alternate(c)
                if twin is c:
                    assert got is c
                    continue
                # coords_distance's rule: the twin only when strictly closer
                closer = (coords_distance(twin, prev.coords)
                          < coords_distance(c, prev.coords))
                assert got == (twin if closer else c)
                # the fast reject: none of the twin's own distances is smaller
                own = [(angle_distance(t, p), angle_distance(a, p))
                       for t, a, p in zip(
                           (twin.phi_a, twin.chi, twin.xi),
                           (c.phi_a, c.chi, c.xi),
                           (prev.coords.phi_a, prev.coords.chi, prev.coords.xi))]
                if all(dt >= dc for dt, dc in own):
                    assert got is c
                    rejects += 1
                elif closer:
                    twins += 1
                else:
                    kept += 1
    assert rejects > 0 and kept > 0 and twins > 0
