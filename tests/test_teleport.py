"""Tests for teleportation bookkeeping on the width-2 parity code."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import teleport_trajectory, z_outcome_probabilities
from parityqec.qcore import PureState, fidelity
from parityqec.teleport import (
    BELL_CORRECTIONS,
    BELL_LABELS,
    AttemptRecord,
    attempt_success_prob,
    encoded_teleport_success,
    monte_carlo_success,
    simulate_teleport,
)

RNG = np.random.default_rng(20260818)


def random_payload() -> PureState:
    raw = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    return PureState(1, raw / np.linalg.norm(raw))


PAYLOADS = [
    PureState(1, [1.0, 0.0]),
    PureState(1, [0.0, 1.0]),
    PureState(1, [1.0, 1.0]),
    PureState(1, [0.6, 0.8j]),
    random_payload(),
]


class TestSuccessLaws:
    @pytest.mark.parametrize("n,expected", [(1, 0.5), (2, 2.0 / 3.0), (3, 0.75), (10, 10.0 / 11.0)])
    def test_single_attempt_probability(self, n, expected):
        assert attempt_success_prob(n) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_single_attempt_rejects_bad_n(self, bad):
        with pytest.raises(ValueError):
            attempt_success_prob(bad)

    def test_width_two_simplest_case_is_three_quarters(self):
        assert encoded_teleport_success(1, 2) == 0.75

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_width_one_matches_single_attempt(self, n):
        assert encoded_teleport_success(n, 1) == pytest.approx(attempt_success_prob(n), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_formula_matches_branch_enumeration(self, n, width):
        p = attempt_success_prob(n)
        # sum over the attempt index where the first success lands
        enumerated = sum((1.0 - p) ** k * p for k in range(width))
        assert encoded_teleport_success(n, width) == pytest.approx(enumerated, abs=1e-12)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            encoded_teleport_success(2, 0)


class TestZStatistics:
    @pytest.mark.parametrize("psi", PAYLOADS)
    def test_encoded_z_outcomes_are_exactly_fair(self, psi):
        p0, p1 = z_outcome_probabilities(psi)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)


class TestForcedTrajectories:
    def test_fail_then_success_accumulates_corrections(self):
        psi = PureState(1, [0.6, 0.8j])
        outcome = teleport_trajectory(psi, [("fail", 1), ("success", "11")])
        assert outcome.overall_success
        assert outcome.corrections_applied == ("X", "X", "Z")
        assert outcome.attempts == (
            AttemptRecord(False, z_outcome=1),
            AttemptRecord(True, bell_outcome="11"),
        )
        assert fidelity(outcome.final_state, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bell", BELL_LABELS)
    def test_immediate_success(self, bell):
        psi = PAYLOADS[3]
        outcome = teleport_trajectory(psi, [("success", bell)])
        assert outcome.overall_success
        assert outcome.corrections_applied == BELL_CORRECTIONS[bell]
        assert len(outcome.attempts) == 1
        assert fidelity(outcome.final_state, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z1", [0, 1])
    @pytest.mark.parametrize("z2", [0, 1])
    def test_double_failure_preserves_payload(self, z1, z2):
        psi = PAYLOADS[4]
        outcome = teleport_trajectory(psi, [("fail", z1), ("fail", z2)])
        assert not outcome.overall_success
        assert len(outcome.attempts) == 2
        # only the first, non-terminal failure can add a correction
        assert outcome.corrections_applied == (("X",) if z1 == 1 else ())
        assert outcome.attempts[1].z_outcome == z2
        assert fidelity(outcome.final_state, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("psi", PAYLOADS)
    def test_every_branch_ends_at_the_payload(self, psi):
        branches = [[("success", b)] for b in BELL_LABELS]
        branches += [[("fail", z), ("success", b)] for z in (0, 1) for b in BELL_LABELS]
        branches += [[("fail", z1), ("fail", z2)] for z1 in (0, 1) for z2 in (0, 1)]
        assert len(branches) == 16
        for decisions in branches:
            outcome = teleport_trajectory(psi, decisions)
            assert fidelity(outcome.final_state, psi) == pytest.approx(1.0, abs=1e-12)
            assert outcome.overall_success == (decisions[-1][0] == "success")

    def test_exhausted_decision_sequence_raises(self):
        with pytest.raises(ValueError):
            teleport_trajectory(PAYLOADS[0], [("fail", 0)])


class TestSimulation:
    def test_same_seed_reproduces_the_history(self):
        a = simulate_teleport(0.6, 0.8j, 2, seed=7)
        b = simulate_teleport(0.6, 0.8j, 2, seed=7)
        assert a.attempts == b.attempts
        assert a.corrections_applied == b.corrections_applied
        assert a.overall_success == b.overall_success
        assert_allclose(a.final_state.matrix, b.final_state.matrix)

    def test_rejects_unnormalized_payload(self):
        with pytest.raises(ValueError):
            simulate_teleport(1.0, 1.0, 2)

    def test_histories_are_well_formed_and_faithful(self):
        psi = PureState(1, [0.6, 0.8j])
        for seed in range(200):
            outcome = simulate_teleport(0.6, 0.8j, 1, seed=seed)
            assert 1 <= len(outcome.attempts) <= 2
            assert outcome.overall_success == outcome.attempts[-1].success
            assert fidelity(outcome.final_state, psi) == pytest.approx(1.0, abs=1e-12)

    def test_success_rate_matches_the_law(self):
        trials = 2000
        hits = sum(simulate_teleport(1.0, 0.0, 1, seed=s).overall_success for s in range(trials))
        p = encoded_teleport_success(1, 2)
        se = np.sqrt(p * (1.0 - p) / trials)
        assert abs(hits / trials - p) < 4.0 * se

    def test_first_failure_z_is_fair(self):
        zs = []
        for seed in range(3000):
            outcome = simulate_teleport(np.sqrt(0.9), np.sqrt(0.1), 1, seed=seed)
            if not outcome.attempts[0].success:
                zs.append(outcome.attempts[0].z_outcome)
        frac = np.mean(zs)
        se = np.sqrt(0.25 / len(zs))
        assert abs(frac - 0.5) < 4.0 * se


class TestMonteCarlo:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_estimate_matches_enumeration(self, n, width):
        trials = 100_000
        estimate = monte_carlo_success(n, width, trials, seed=n * 10 + width)
        p = encoded_teleport_success(n, width)
        se = np.sqrt(p * (1.0 - p) / trials)
        assert abs(estimate - p) < 4.0 * se

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_success(1, 2, 0)


class TestRecordValidation:
    def test_success_record_requires_bell_outcome(self):
        with pytest.raises(ValueError):
            AttemptRecord(True)

    def test_failure_record_requires_z(self):
        with pytest.raises(ValueError):
            AttemptRecord(False, bell_outcome="00")
