"""Tests for parity-code encoding, decoding and the n-qubit extension."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parityqec.cnotgate import NoiseModel
from parityqec.codec import (
    MAX_CODE_QUBITS,
    SAMPLED,
    _decode_batch,
    decode,
    encode,
    ideal_encoded,
    parity_extend,
)
from oracles import embedded_decode, embedded_z_probability
from parityqec import qcore
from parityqec.qcore import (
    DensityMatrix,
    ImpossibleOutcomeError,
    PureState,
    fidelity,
    kron,
    pure_state,
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_payload(rng):
    return PureState(1, rng.normal(size=2) + 1j * rng.normal(size=2))


def encoded(psi):
    return ideal_encoded(psi).density()


class TestIdealEncoded:
    def test_one_maps_to_odd_bell(self):
        out = ideal_encoded(PureState(1, [0, 1]))
        np.testing.assert_allclose(
            out.amplitudes, np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-12
        )

    def test_minus_superposition(self):
        out = ideal_encoded(PureState(1, [1, -1]))
        np.testing.assert_allclose(
            out.amplitudes, np.array([1, -1, -1, 1]) / 2.0, atol=1e-12
        )

    def test_circular_superposition(self):
        out = ideal_encoded(PureState(1, [1, 1j]))
        np.testing.assert_allclose(
            out.amplitudes, np.array([1, 1j, 1j, 1]) / 2.0, atol=1e-12
        )

    def test_parity_amplitude_structure(self):
        rng = np.random.default_rng(5)
        psi = random_payload(rng)
        a, b = psi.amplitudes
        out = ideal_encoded(psi).amplitudes
        for idx in range(4):
            want = (a if bin(idx).count("1") % 2 == 0 else b) / np.sqrt(2)
            assert out[idx] == pytest.approx(want, abs=1e-12)

    def test_symmetric_under_qubit_swap(self):
        rng = np.random.default_rng(6)
        out = ideal_encoded(random_payload(rng)).amplitudes
        swapped = out.reshape(2, 2).T.reshape(-1)
        np.testing.assert_allclose(out, swapped, atol=1e-12)


class TestEncode:
    def test_ideal_gate_matches_ideal_encoding(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = random_payload(rng)
            prob, enc = encode(psi)
            assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)
            assert fidelity(enc, ideal_encoded(psi)) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_noisy_gate_validity(self):
        prob, enc = encode(PureState(1, [1, 0]), NoiseModel(0.8, 0.9, 0.95))
        assert prob > 1.0 / 9.0 - 1e-12
        assert fidelity(enc, ideal_encoded(PureState(1, [1, 0]))) < 1.0

    def test_rejects_multi_qubit_payload(self):
        with pytest.raises(ValueError):
            encode(pure_state([1, 0, 0, 0]))

    def test_rejects_unknown_gate_string(self):
        for gate in ("perfect", "ideal"):
            with pytest.raises(ValueError, match="NoiseModel"):
                encode(PureState(1, [1, 0]), gate)


class TestDecode:
    def test_outcome_zero_preserves_superposition(self):
        rng = np.random.default_rng(8)
        psi = random_payload(rng)
        result = decode(encoded(psi), measured_qubit=1, outcome=0, correct=False)
        assert result.probability == pytest.approx(0.5, abs=1e-12)
        assert not result.corrected
        assert fidelity(result.state, psi) == pytest.approx(1.0, abs=1e-10)

    def test_outcome_one_bit_flips_without_correction(self):
        rng = np.random.default_rng(9)
        psi = random_payload(rng)
        a, b = psi.amplitudes
        flipped = PureState(1, [b, a])
        result = decode(encoded(psi), 1, 1, correct=False)
        assert result.probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(result.state, flipped) == pytest.approx(1.0, abs=1e-10)

    def test_correction_restores_payload(self):
        rng = np.random.default_rng(10)
        psi = random_payload(rng)
        result = decode(encoded(psi), 1, 1, correct=True)
        assert result.corrected
        assert fidelity(result.state, psi) == pytest.approx(1.0, abs=1e-10)

    def test_circular_payload_measured_on_qubit_two(self):
        psi = PureState(1, [1, 1j])
        result = decode(encoded(psi), measured_qubit=2, outcome=0, correct=False)
        assert result.probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(result.state, psi) == pytest.approx(1.0, abs=1e-10)

    def test_full_grid_of_qubit_outcome_choices(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            psi = random_payload(rng)
            for qubit in (1, 2):
                for outcome in (0, 1):
                    result = decode(encoded(psi), qubit, outcome, correct=True)
                    assert result.probability == pytest.approx(0.5, abs=1e-12)
                    assert fidelity(result.state, psi) == pytest.approx(1.0, abs=1e-10)

    def test_sampled_outcomes_are_fair(self):
        psi = PureState(1, [1, 1])
        rng = np.random.default_rng(12)
        outcomes = [
            decode(encoded(psi), 1, SAMPLED, correct=True, rng=rng).outcome
            for _ in range(2000)
        ]
        assert np.mean(outcomes) == pytest.approx(0.5, abs=0.05)

    def test_sampled_requires_rng(self):
        with pytest.raises(ValueError):
            decode(encoded(PureState(1, [1, 0])), 1, SAMPLED)

    @pytest.mark.parametrize("qubit", [0, 3])
    @pytest.mark.parametrize("outcome", [0, SAMPLED])
    def test_out_of_range_qubit_rejected(self, qubit, outcome):
        enc = encoded(PureState(1, [1, 1]))
        with pytest.raises(ValueError, match="out of range"):
            decode(enc, qubit, outcome, rng=np.random.default_rng(0))

    def test_impossible_outcome_propagates(self):
        # product |00> is not a code state; conditioning qubit 2 on 1 is impossible
        with pytest.raises(ImpossibleOutcomeError):
            decode(pure_state([1, 0, 0, 0]).density(), 2, 1)

    @pytest.mark.parametrize("correct", [False, True])
    @pytest.mark.parametrize("outcome", [0, 1])
    def test_validates_the_surviving_state_once(self, monkeypatch, outcome, correct):
        enc = encoded(random_payload(np.random.default_rng(13)))
        checks = []
        check = qcore._check_density
        monkeypatch.setattr(qcore, "_check_density", lambda m: checks.append(m) or check(m))
        decode(enc, 1, outcome, correct)
        assert len(checks) == 1


class _FixedDraw:
    """An rng stand-in whose random() always returns one value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


@st.composite
def code_registers(draw):
    """An n-qubit register, n = 2-6: a parity-code state or a random mixed state."""
    n = draw(st.integers(2, MAX_CODE_QUBITS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        payload = PureState(1, rng.normal(size=2) + 1j * rng.normal(size=2))
        return parity_extend(payload, n).density()
    dim = 2**n
    shape = (dim, draw(st.integers(1, dim)))
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


class TestDecodeOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(code_registers())
    def test_matches_the_embedded_operator_route(self, rho):
        for qubit in range(1, rho.num_qubits + 1):
            for outcome in (0, 1):
                for correct in (False, True):
                    result = decode(rho, qubit, outcome, correct)
                    prob, state = embedded_decode(rho, qubit, outcome, correct)
                    assert result.probability == prob
                    assert np.array_equal(result.state.matrix, state)
            # the sampled outcome is 0 exactly when the draw is below p0
            p0 = embedded_z_probability(rho, qubit, 0)
            for draw, want in ((p0 - 1e-15, 0), (p0 + 1e-15, 1)):
                assert decode(rho, qubit, SAMPLED, rng=_FixedDraw(draw)).outcome == want


_unit = st.floats(-1.0, 1.0, allow_nan=False)


def _complex_array(draw, shape):
    size = 2 * int(np.prod(shape))
    parts = np.array(draw(st.lists(_unit, min_size=size, max_size=size)))
    return (parts[::2] + 1j * parts[1::2]).reshape(shape)


@st.composite
def density_stacks(draw):
    """1-3 random full-rank 2-qubit density matrices, stacked."""
    g = _complex_array(draw, (draw(st.integers(1, 3)), 4, 4))
    rhos = g @ g.conj().transpose(0, 2, 1) + 1e-3 * np.eye(4)
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


@st.composite
def payload_lists(draw):
    """1-4 random 1-qubit payloads."""
    amps = _complex_array(draw, (draw(st.integers(1, 4)), 2))
    assume(np.linalg.norm(amps, axis=1).min() > 1e-3)
    return [PureState(1, a) for a in amps]


class TestDecodeBatch:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(density_stacks())
    def test_matches_per_cell_decode(self, rhos):
        probs, decoded = _decode_batch(rhos)
        for idx, rho in enumerate(rhos):
            for qubit in (1, 2):
                for outcome in (0, 1):
                    cell = decode(DensityMatrix(2, rho), qubit, outcome, correct=True)
                    assert probs[idx, qubit - 1, outcome] == cell.probability
                    assert np.array_equal(decoded[idx, qubit - 1, outcome], cell.state.matrix)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(payload_lists())
    def test_ideal_code_decodes_fairly_and_corrects(self, payloads):
        codes = np.stack([ideal_encoded(psi).density().matrix for psi in payloads])
        probs, decoded = _decode_batch(codes)
        np.testing.assert_allclose(probs, 0.5, rtol=0, atol=1e-12)
        for idx, psi in enumerate(payloads):
            for state in decoded[idx].reshape(4, 2, 2):
                assert fidelity(DensityMatrix(1, state), psi) >= 1.0 - 1e-12

    def test_impossible_outcome_raises(self):
        with pytest.raises(ImpossibleOutcomeError):
            _decode_batch(pure_state([1, 0, 0, 0]).density().matrix[None])


class TestParityExtend:
    def test_n2_equals_ideal_encoded(self):
        rng = np.random.default_rng(13)
        psi = random_payload(rng)
        np.testing.assert_allclose(
            parity_extend(psi, 2).amplitudes, ideal_encoded(psi).amplitudes, atol=1e-12
        )

    def test_n3_zero_payload(self):
        out = parity_extend(PureState(1, [1, 0]), 3)
        expected = np.zeros(8)
        for idx in (0b000, 0b011, 0b101, 0b110):
            expected[idx] = 0.5
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_matches_cnot_chain_construction(self):
        # fresh control (|0>+|1>)/sqrt2 prepended, CNOT onto an encoded qubit
        rng = np.random.default_rng(14)
        psi = random_payload(rng)
        plus = PureState(1, [1, 1])
        chain = kron(plus, ideal_encoded(psi))
        cnot_1_to_2 = np.kron(CNOT, np.eye(2)).astype(complex)
        # reorder CNOT(control qubit 1, target qubit 2) within 3 qubits:
        # kron(CNOT, I) is exactly that in our ordering
        grown = cnot_1_to_2 @ chain.amplitudes
        np.testing.assert_allclose(
            grown, parity_extend(psi, 3).amplitudes, atol=1e-12
        )

    def test_decoding_reduces_to_smaller_code(self):
        rng = np.random.default_rng(15)
        psi = random_payload(rng)
        for n in range(3, MAX_CODE_QUBITS + 1):
            enc = parity_extend(psi, n).density()
            for qubit in range(1, n + 1):
                for outcome in (0, 1):
                    result = decode(enc, qubit, outcome, correct=True)
                    smaller = parity_extend(psi, n - 1)
                    assert result.probability == pytest.approx(0.5, abs=1e-12)
                    assert fidelity(result.state, smaller) == pytest.approx(
                        1.0, abs=1e-10
                    )

    def test_rejects_out_of_range_n(self):
        psi = PureState(1, [1, 0])
        with pytest.raises(ValueError):
            parity_extend(psi, 1)
        with pytest.raises(ValueError):
            parity_extend(psi, MAX_CODE_QUBITS + 1)
