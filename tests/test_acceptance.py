"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so a verbose run reads as a checklist of the package's
core claims.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import bosonic_coincidence_map, teleport_trajectory
from parityqec.cli import (
    REFERENCE_INPUTS,
    RunConfig,
    exact_pipeline_means,
    load_default_noise,
    run_experiment,
)
from parityqec.cnotgate import build_mode_network, postselect_cnot
from parityqec.codec import decode, encode, ideal_encoded
from parityqec.measure import simulate_counts, expected_counts, tomo_settings
from parityqec.optics import THETA_FAMILY, PHI_FAMILY, prepare_input
from parityqec.qcore import PureState, conditional_state, fidelity, pure_state
from parityqec.teleport import (
    BELL_LABELS,
    encoded_teleport_success,
    monte_carlo_success,
)
from parityqec.tomo import mle

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

SWEEP_INPUTS = [prepare_input(THETA_FAMILY, a).state for a in range(10, 90, 10)] + [
    prepare_input(PHI_FAMILY, a).state for a in range(10, 90, 10)
]


def _random_two_qubit_states(count: int, seed: int) -> list[PureState]:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    return [pure_state(row) for row in raw]


def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_gate_oracle():
    start = time.perf_counter()
    network = build_mode_network()
    oracle_map = bosonic_coincidence_map(network.unitary)
    assert_allclose(oracle_map, CNOT / 3.0, atol=1e-10)

    worst_prob_err = 0.0
    for psi in _random_two_qubit_states(1000, seed=101):
        prob, out = postselect_cnot(psi)
        worst_prob_err = max(worst_prob_err, abs(prob - 1.0 / 9.0))
        assert abs(prob - 1.0 / 9.0) <= 1e-10
        target = pure_state(CNOT @ psi.amplitudes)
        assert fidelity(out.density(), target) >= 1.0 - 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"map = CNOT/3 within 1e-10; worst |p-1/9| = {worst_prob_err:.2e}; {elapsed:.2f}s")


def test_criterion_2_ideal_roundtrip():
    start = time.perf_counter()
    worst = 1.0
    cells = 0
    for psi in SWEEP_INPUTS:
        _, encoded = encode(psi, gate="ideal")
        for qubit in (1, 2):
            for outcome in (0, 1):
                decoded = decode(encoded, qubit, outcome, correct=True)
                fid = fidelity(decoded.state, psi)
                worst = min(worst, fid)
                cells += 1
                assert fid >= 1.0 - 1e-10
    elapsed = time.perf_counter() - start
    assert cells == 64
    assert elapsed < 1.0
    _report(2, f"64 decoded states at fidelity 1 (worst {worst:.15f}); {elapsed:.2f}s")


def test_criterion_3_reference_code_states():
    s2 = 1.0 / np.sqrt(2.0)
    expected_kets = {
        "0": pure_state([s2, 0, 0, s2]),
        "1": pure_state([0, s2, s2, 0]),
        "0+1": pure_state([0.5, 0.5, 0.5, 0.5]),
        "0-1": pure_state([0.5, -0.5, -0.5, 0.5]),
        "0+i1": pure_state([0.5, 0.5j, 0.5j, 0.5]),
        "0-i1": pure_state([0.5, -0.5j, -0.5j, 0.5]),
    }
    for label, psi in REFERENCE_INPUTS:
        _, encoded = encode(psi, gate="ideal")
        fid = fidelity(encoded.state, expected_kets[label])
        assert fid >= 1.0 - 1e-10
    _report(3, "all six encoded reference kets reproduced at fidelity 1")


def test_criterion_4_decode_statistics_are_exactly_fair():
    # the encoded amplitudes are (a, b, b, a)/sqrt(2), so either qubit's
    # Z-outcome probability is (|a|^2 + |b|^2)/2 = 1/2 identically; the
    # checks below evaluate that expression, not sampled statistics
    rng = np.random.default_rng(7)
    states = [psi for _, psi in REFERENCE_INPUTS]
    states += [pure_state(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(200)]
    worst = 0.0
    for psi in states:
        a, b = psi.amplitudes
        closed_form = (abs(a) ** 2 + abs(b) ** 2) / 2.0
        _, encoded = encode(psi, gate="ideal")
        for qubit in (1, 2):
            p0, _ = conditional_state(encoded.state, qubit, 0)
            p1, _ = conditional_state(encoded.state, qubit, 1)
            for p in (closed_form, p0, p1):
                worst = max(worst, abs(p - 0.5))
                assert p == pytest.approx(0.5, abs=1e-12)
    _report(4, f"outcome probabilities exactly (1/2, 1/2); worst deviation {worst:.2e}")


def test_criterion_5_tomography_accuracy():
    start = time.perf_counter()
    settings = tomo_settings(2, "minimal")
    encoded_states = [encode(psi, gate="ideal")[1].state for _, psi in REFERENCE_INPUTS]
    targets = [ideal_encoded(psi) for _, psi in REFERENCE_INPUTS]

    exact_worst = 1.0
    for rho, target in zip(encoded_states, targets):
        result = mle(expected_counts(rho, settings, shots=10_000))
        fid = fidelity(result.rho, target)
        exact_worst = min(exact_worst, fid)
        assert result.converged
        assert fid >= 1.0 - 1e-6
        assert all(b >= a - 1e-9 for a, b in zip(result.trajectory, result.trajectory[1:]))

    fids = []
    for idx, (rho, target) in enumerate(zip(encoded_states, targets)):
        for seed in range(100):
            counts = simulate_counts(rho, settings, shots=10_000, seed=1000 * idx + seed)
            result = mle(counts)
            assert result.converged
            assert all(
                b >= a - 1e-9 for a, b in zip(result.trajectory, result.trajectory[1:])
            )
            fids.append(fidelity(result.rho, target))
    median = float(np.median(fids))
    elapsed = time.perf_counter() - start
    assert median >= 0.99
    assert elapsed < 60.0
    _report(
        5,
        f"exact-limit worst fidelity {exact_worst:.9f}; sampled median {median:.5f} "
        f"over 600 runs; all 606 converged, log-likelihood monotone; {elapsed:.1f}s",
    )


def test_criterion_6_calibrated_default_hits_the_targets():
    noise = load_default_noise()
    means = exact_pipeline_means(noise)
    targets = (0.88, 0.93, 0.96)
    for mean, target in zip(means, targets):
        assert abs(mean - target) <= 0.05
    assert means[0] <= means[1] <= means[2]
    _report(
        6,
        "default model means ("
        + ", ".join(f"{m:.4f}" for m in means)
        + ") within 0.05 of (0.88, 0.93, 0.96), correctly ordered",
    )


def test_criterion_7_decoding_survey_shape():
    noise = load_default_noise()
    angles = list(range(5, 90, 5))
    per_angle_mean = {}
    q1_outcome0 = []
    q1_outcome1 = []
    for angle in angles:
        psi = prepare_input(THETA_FAMILY, angle).state
        _, encoded = encode(psi, gate=noise)
        fids = {}
        for qubit in (1, 2):
            for outcome in (0, 1):
                decoded = decode(encoded, qubit, outcome, correct=True)
                fids[(qubit, outcome)] = fidelity(decoded.state, psi)
        per_angle_mean[angle] = np.mean(list(fids.values()))
        q1_outcome0.append(fids[(1, 0)])
        q1_outcome1.append(fids[(1, 1)])
    best_angle = max(per_angle_mean, key=per_angle_mean.get)
    assert best_angle == 45
    assert np.mean(q1_outcome0) >= np.mean(q1_outcome1)
    _report(
        7,
        f"theta sweep peaks at 45 deg (F={per_angle_mean[45]:.4f}); "
        f"qubit-1 outcome-0 mean {np.mean(q1_outcome0):.4f} >= "
        f"outcome-1 mean {np.mean(q1_outcome1):.4f}",
    )


def test_criterion_8_teleport_laws():
    assert encoded_teleport_success(1, 2) == 0.75
    trials = 100_000
    for n in (1, 2, 3):
        for width in (1, 2, 3):
            exact = encoded_teleport_success(n, width)
            estimate = monte_carlo_success(n, width, trials, seed=31 * n + width)
            se = np.sqrt(exact * (1.0 - exact) / trials)
            assert abs(estimate - exact) < 4.0 * se

    payloads = [PureState(1, [0.6, 0.8j]), PureState(1, [1.0, 0.0])]
    branches = [[("success", b)] for b in BELL_LABELS]
    branches += [[("fail", z), ("success", b)] for z in (0, 1) for b in BELL_LABELS]
    branches += [[("fail", z1), ("fail", z2)] for z1 in (0, 1) for z2 in (0, 1)]
    for psi in payloads:
        for decisions in branches:
            outcome = teleport_trajectory(psi, decisions)
            assert fidelity(outcome.final_state, psi) >= 1.0 - 1e-12
    _report(
        8,
        "Monte Carlo matches enumeration within 4 SE for n, width in {1,2,3}; "
        "width-2 n=1 success exactly 0.75; fidelity 1 on every branch",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    config = RunConfig("fig2", shots=1000, seed=42, out_dir=tmp_path)
    run_experiment(config)
    first = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    run_experiment(config)
    second = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert first.keys() == second.keys()
    assert all(first[p] == second[p] for p in first)
    _report(9, f"two identical runs reproduced {len(first)} files byte for byte")
