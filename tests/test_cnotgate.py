"""Tests for the mode network, the ideal post-selected gate and its noise model."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityqec.cnotgate import (
    CONTROL_MODES,
    MODE_CONTROL_V,
    MODE_TARGET_V,
    NUM_MODES,
    TARGET_MODES,
    _CHANNEL_TERMS,
    ModeNetwork,
    NoiseModel,
    _network_unitary,
    _two_photon_operators,
    build_mode_network,
    coincidence_operator,
    noisy_cnot,
    postselect_cnot,
)
from parityqec.qcore import DensityMatrix, PureState, fidelity, kron, pure_state

from oracles import (
    bosonic_coincidence_map,
    bosonic_total_probability,
    branch_sum_noisy_cnot,
    distinguishable_coincidence_probs,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# Pinned fixture: distinguishable photons (v_nonclassical = 0, classical
# visibilities perfect), input control (|0>+|1>)/sqrt2, target |0>.
# Derived once by expanding the direct and exchange amplitudes by hand:
# the output is an equal mixture of (|00>+|10>)/sqrt2 and (|11>-|10>)/sqrt2
# with coincidence probability 2/9.
DISTINGUISHABLE_FIXTURE = 0.25 * np.array(
    [
        [1, 0, 1, 0],
        [0, 0, 0, 0],
        [1, 0, 2, -1],
        [0, 0, -1, 1],
    ],
    dtype=complex,
)


def random_two_qubit_state(rng):
    return PureState(2, rng.normal(size=4) + 1j * rng.normal(size=4))


class TestModeNetwork:
    def test_unitary(self):
        u = build_mode_network().unitary
        np.testing.assert_allclose(u.conj().T @ u, np.eye(NUM_MODES), atol=1e-12)

    def test_constructor_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ModeNetwork(np.eye(NUM_MODES) * 1.001)

    def test_sign_branches_are_unitary(self):
        for sc in (1, -1):
            for st in (1, -1):
                u = _network_unitary(sc, st)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(NUM_MODES), atol=1e-12)


class TestIdealGateAgainstOracle:
    def test_production_map_matches_fock_enumeration(self):
        u = build_mode_network().unitary
        oracle = bosonic_coincidence_map(u)
        production = coincidence_operator(build_mode_network())
        np.testing.assert_allclose(production, oracle, atol=1e-12)

    def test_map_is_one_third_cnot(self):
        production = coincidence_operator(build_mode_network())
        np.testing.assert_allclose(production, CNOT / 3.0, atol=1e-10)

    def test_oracle_total_probability_is_one(self):
        u = build_mode_network().unitary
        for c in CONTROL_MODES:
            for t in TARGET_MODES:
                assert bosonic_total_probability(u, c, t) == pytest.approx(1.0, abs=1e-12)

    def test_direct_and_exchange_match_oracle_on_sign_branches(self):
        # the noise branches reuse the same construction; spot-check one
        u = _network_unitary(-1, -1)
        oracle = bosonic_coincidence_map(u)
        direct, exchange = _two_photon_operators(u)
        np.testing.assert_allclose(direct + exchange, oracle, atol=1e-12)


class TestPostselectCnot:
    def test_truth_table_case(self):
        prob, out = postselect_cnot(pure_state([0, 0, 1, 0]))
        assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert fidelity(out.density(), pure_state([0, 0, 0, 1])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_encoder_action_makes_bell_state(self):
        control = PureState(1, [1, 1])
        target = PureState(1, [1, 0])
        prob, out = postselect_cnot(kron(control, target))
        bell = pure_state([1, 0, 0, 1])
        assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert fidelity(out.density(), bell) == pytest.approx(1.0, abs=1e-12)

    def test_success_probability_uniform_over_random_inputs(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            psi = random_two_qubit_state(rng)
            prob, out = postselect_cnot(psi)
            assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)
            expected = pure_state(CNOT @ psi.amplitudes)
            assert fidelity(out.density(), expected) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            postselect_cnot(PureState(1, [1, 0]))


class TestNoiseModel:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseModel(1.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            NoiseModel(1.0, -0.1, 1.0)

    def test_round_trip_dict(self):
        nm = NoiseModel(0.9, 0.8, 0.7)
        assert NoiseModel.from_dict(nm.to_dict()) == nm


class TestNoisyCnot:
    def test_perfect_visibilities_reduce_to_ideal(self):
        rng = np.random.default_rng(31415)
        for _ in range(20):
            psi = random_two_qubit_state(rng)
            prob_ideal, out_ideal = postselect_cnot(psi)
            prob, out = noisy_cnot(psi.density(), NoiseModel.ideal())
            assert prob == pytest.approx(prob_ideal, abs=1e-12)
            assert fidelity(out, out_ideal) == pytest.approx(1.0, abs=1e-10)

    def test_distinguishable_fixture(self):
        psi = kron(PureState(1, [1, 1]), PureState(1, [1, 0]))
        prob, out = noisy_cnot(psi.density(), NoiseModel(0.0, 1.0, 1.0))
        assert prob == pytest.approx(2.0 / 9.0, abs=1e-12)
        np.testing.assert_allclose(out.matrix, DISTINGUISHABLE_FIXTURE, atol=1e-12)

    def test_distinguishable_fixture_reduces_bell_coherence(self):
        psi = kron(PureState(1, [1, 1]), PureState(1, [1, 0]))
        _, ideal_out = noisy_cnot(psi.density(), NoiseModel.ideal())
        _, out = noisy_cnot(psi.density(), NoiseModel(0.0, 1.0, 1.0))
        assert abs(out.matrix[0, 3]) < abs(ideal_out.matrix[0, 3]) - 0.25

    def test_distinguishable_diagonal_matches_classical_oracle(self):
        # basis inputs: the distinguishable branch outcome distribution must
        # equal two labeled photons routed independently through the network
        u = build_mode_network().unitary
        basis_pairs = [(c, t) for c in CONTROL_MODES for t in TARGET_MODES]
        for j, (c, t) in enumerate(basis_pairs):
            amps = np.zeros(4)
            amps[j] = 1.0
            prob, out = noisy_cnot(pure_state(amps).density(), NoiseModel(0.0, 1.0, 1.0))
            oracle = distinguishable_coincidence_probs(u, c, t)
            total = sum(oracle.values())
            assert prob == pytest.approx(total, abs=1e-12)
            for i, (k, l) in enumerate(basis_pairs):
                assert prob * out.matrix[i, i].real == pytest.approx(
                    oracle[(k, l)], abs=1e-12
                )

    def test_success_probability_bounds(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            psi = random_two_qubit_state(rng)
            noise = NoiseModel(*rng.uniform(0, 1, size=3))
            prob, _ = noisy_cnot(psi.density(), noise)
            assert 1.0 / 9.0 - 1e-12 <= prob <= 5.0 / 9.0 + 1e-12

    def test_success_probability_exactly_one_ninth_at_full_nonclassical(self):
        rng = np.random.default_rng(999)
        for _ in range(50):
            psi = random_two_qubit_state(rng)
            noise = NoiseModel(1.0, rng.uniform(), rng.uniform())
            prob, _ = noisy_cnot(psi.density(), noise)
            assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_classical_dephasings_act_as_pre_gate_flips(self):
        # sign branches are algebraically pre-gate Z (control) / X (target)
        base_direct, base_exchange = _two_photon_operators(_network_unitary(1, 1))
        z_c = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        x_t = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        rotations = {(1, 1): np.eye(4), (-1, 1): z_c, (1, -1): x_t, (-1, -1): x_t @ z_c}
        for (sc, st), rot in rotations.items():
            direct, exchange = _two_photon_operators(_network_unitary(sc, st))
            np.testing.assert_allclose(direct, base_direct @ rot, atol=1e-12)
            np.testing.assert_allclose(exchange, base_exchange @ rot, atol=1e-12)

    def test_fidelity_monotone_in_each_visibility(self):
        # encoded |0>: control (|0>+|1>)/sqrt2, target |0>
        psi = kron(PureState(1, [1, 1]), PureState(1, [1, 0]))
        rho = psi.density()
        _, ideal_out = postselect_cnot(psi)
        grid = np.linspace(0.0, 1.0, 5)

        def fid(v):
            _, out = noisy_cnot(rho, NoiseModel(*v))
            return fidelity(out, ideal_out)

        for a in grid:
            for b in grid:
                values_nc = [fid((v, a, b)) for v in grid]
                values_cc = [fid((a, v, b)) for v in grid]
                values_ct = [fid((a, b, v)) for v in grid]
                for seq in (values_nc, values_cc, values_ct):
                    assert all(
                        later >= earlier - 1e-12
                        for earlier, later in zip(seq, seq[1:])
                    )

    def test_theta_sweep_fidelity_peaks_at_45_degrees(self):
        noise = NoiseModel(0.7, 0.9, 0.85)
        angles = np.arange(0.0, 90.5, 5.0)
        fids = []
        for angle in angles:
            a = np.deg2rad(angle)
            target_in = PureState(1, [np.cos(a), np.sin(a)])
            psi = kron(PureState(1, [1, 1]), target_in)
            _, ideal_out = postselect_cnot(psi)
            _, out = noisy_cnot(psi.density(), noise)
            fids.append(fidelity(out, ideal_out))
        assert np.argmax(fids) == list(angles).index(45.0)


visibilities = st.tuples(*[st.floats(0.0, 1.0)] * 3).map(lambda v: NoiseModel(*v))


@st.composite
def two_qubit_inputs(draw):
    """A random 2-qubit density matrix of any rank, G G^dag / Tr."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    g = (np.array(entries[:16]) + 1j * np.array(entries[16:])).reshape(4, 4)
    trace = np.real(np.trace(g @ g.conj().T))
    if trace < 1e-3:
        g = g + np.eye(4)
        trace = np.real(np.trace(g @ g.conj().T))
    return DensityMatrix(2, g @ g.conj().T / trace)


@pytest.mark.parametrize("v_nc,v_cc,v_ct", itertools.product((0.0, 1.0), repeat=3))
def test_channel_is_completely_positive_at_every_cube_corner(v_nc, v_cc, v_ct):
    # the channel is trilinear, so CP corners make it CP on the whole cube
    monomials = np.outer([1.0, v_cc, v_ct, v_cc * v_ct], [1.0, v_nc])
    superop = np.einsum("ij,ijab->ab", monomials, _CHANNEL_TERMS)
    # Choi matrix: block (k, l) is the channel's image of |k><l|
    choi = superop.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1).reshape(16, 16)
    np.testing.assert_allclose(choi, choi.conj().T, rtol=0, atol=1e-15)
    assert np.linalg.eigvalsh(choi).min() >= -1e-14


class TestNoisyCnotProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(noise=visibilities, rho=two_qubit_inputs())
    def test_contraction_equals_branch_sum(self, noise, rho):
        prob, out = noisy_cnot(rho, noise)
        oracle_prob, oracle_out = branch_sum_noisy_cnot(rho.matrix, noise)
        assert abs(prob - oracle_prob) <= 1e-12
        np.testing.assert_allclose(out.matrix, oracle_out, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(noise=visibilities, rho=two_qubit_inputs())
    def test_success_probability_and_positivity(self, noise, rho):
        prob, out = noisy_cnot(rho, noise)
        assert 1.0 / 9.0 - 1e-12 <= prob <= 5.0 / 9.0 + 1e-12
        assert np.min(np.linalg.eigvalsh(out.matrix)) >= -1e-12
