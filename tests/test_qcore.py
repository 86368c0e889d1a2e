"""Tests for state containers, conditioning, reduction and fidelity."""

import json

import numpy as np
import pytest

from oracles import (
    PAULI_X,
    Operator,
    apply_to_pure,
    apply_unitary,
    fidelity_mixed,
    min_eigenvalue,
    partial_trace,
    single_qubit_operator,
    stokes,
    trace_distance,
)
from parityqec.qcore import (
    DensityMatrix,
    HermitianMatrix,
    ImpossibleOutcomeError,
    PureState,
    conditional_state,
    density_matrix_from_dict,
    density_matrix_to_dict,
    fidelity,
    kron,
    load_density_matrix,
    pure_state,
    save_density_matrix,
)

RNG = np.random.default_rng(20240811)


def random_pure(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amps)


def random_density(n, rng, rank=None):
    dim = 2**n
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m))


class TestPureState:
    def test_normalizes_on_construction(self):
        psi = PureState(1, [3.0, 4.0])
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert psi.amplitudes[0] == pytest.approx(0.6)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            PureState(1, [0.0, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, [1.0, 0.0])

    def test_amplitudes_read_only(self):
        psi = PureState(1, [1.0, 0.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_density_is_projector(self):
        psi = random_pure(2, RNG)
        rho = psi.density()
        np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)
        assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(1, mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(1, np.diag([0.7, 0.7]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_tolerates_tiny_violations(self):
        mat = np.diag([1.0, 0.0]).astype(complex)
        mat[0, 1] = 1e-12
        mat[1, 0] = 0.0
        DensityMatrix(1, mat)  # within HERMITIAN_ATOL

    def test_hermitian_container_allows_negative_eigenvalue(self):
        h = HermitianMatrix(1, np.diag([1.2, -0.2]))
        assert min_eigenvalue(h) == pytest.approx(-0.2)


class TestOperations:
    @pytest.mark.parametrize("amplitudes", [[], [1.0, 0.0, 0.0]])
    def test_pure_state_rejects_non_power_of_two_counts(self, amplitudes):
        with pytest.raises(ValueError, match="power of two"):
            pure_state(amplitudes)

    def test_kron_ordering(self):
        # qubit 1 is the leftmost factor: |1> kron |0> = |10> = index 2
        psi = kron(PureState(1, [0, 1]), PureState(1, [1, 0]))
        np.testing.assert_allclose(psi.amplitudes, [0, 0, 1, 0], atol=1e-12)

    def test_apply_to_pure_renormalizes(self):
        proj = Operator(2, np.diag([1.0, 0.0]))
        psi = apply_to_pure(proj, PureState(1, [1.0, 1.0]))
        np.testing.assert_allclose(psi.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_apply_unitary_preserves_validity(self):
        rho = random_density(1, RNG)
        h = Operator(2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        out = apply_unitary(rho, h)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_single_qubit_operator_embedding(self):
        x2 = single_qubit_operator(PAULI_X, 2, 3)
        psi = pure_state([1, 0, 0, 0, 0, 0, 0, 0])
        flipped = apply_to_pure(Operator(8, x2), psi)
        # |000> -> |010>, index 2
        np.testing.assert_allclose(flipped.amplitudes[2], 1.0, atol=1e-12)


class TestFidelity:
    def test_global_phase_invariance(self):
        psi = random_pure(2, RNG)
        rho = random_density(2, RNG)
        phased = PureState(2, np.exp(1j * 0.7) * psi.amplitudes)
        assert fidelity(rho, psi) == pytest.approx(fidelity(rho, phased), abs=1e-12)

    def test_orthogonal_states(self):
        rho = PureState(1, [1, 0]).density()
        assert fidelity(rho, PureState(1, [0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_fidelity_matches_pure_case(self):
        psi = random_pure(2, RNG)
        rho = random_density(2, RNG)
        # sqrt of near-zero eigenvalues amplifies eigensolver noise to ~1e-8
        assert fidelity_mixed(rho, psi.density()) == pytest.approx(
            fidelity(rho, psi), abs=1e-7
        )

    def test_trace_distance_bounds(self):
        a = random_density(2, RNG)
        b = random_density(2, RNG)
        d = trace_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)


class TestPartialTraceAndConditioning:
    def test_partial_trace_of_product_state(self):
        a = random_pure(1, RNG)
        b = random_pure(1, RNG)
        rho = kron(a, b).density()
        np.testing.assert_allclose(
            partial_trace(rho, 1).matrix, a.density().matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(rho, 2).matrix, b.density().matrix, atol=1e-12
        )

    def test_partial_trace_of_bell_state_is_maximally_mixed(self):
        bell = pure_state([1, 0, 0, 1]).density()
        for keep in (1, 2):
            np.testing.assert_allclose(
                partial_trace(bell, keep).matrix, np.eye(2) / 2, atol=1e-12
            )

    def test_conditioning_on_product_state_leaves_partner_untouched(self):
        a = random_pure(1, RNG)
        b = random_pure(1, RNG)
        rho = kron(a, b).density()
        p0 = abs(a.amplitudes[0]) ** 2
        prob, rest = conditional_state(rho, measured=1, outcome=0)
        assert prob == pytest.approx(p0, abs=1e-12)
        np.testing.assert_allclose(rest.matrix, b.density().matrix, atol=1e-12)

    def test_conditioning_probabilities_sum_to_one(self):
        rho = random_density(2, RNG)
        p0, _ = conditional_state(rho, 2, 0)
        p1, _ = conditional_state(rho, 2, 1)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_conditioning_three_qubit_register(self):
        # |0>(|00>+|11>)/sqrt(2): measuring qubit 1 as 0 keeps the Bell pair.
        amps = np.zeros(8)
        amps[0] = amps[3] = 1.0
        rho = pure_state(amps).density()
        prob, rest = conditional_state(rho, measured=1, outcome=0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            rest.matrix, pure_state([1, 0, 0, 1]).density().matrix, atol=1e-12
        )

    def test_impossible_outcome_raises(self):
        rho = kron(PureState(1, [1, 0]), PureState(1, [1, 0])).density()
        with pytest.raises(ImpossibleOutcomeError):
            conditional_state(rho, 1, 1)


class TestStokes:
    def test_single_qubit_cardinal_states(self):
        plus = pure_state([1, 1]).density()
        assert stokes(plus) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        circ = pure_state([1, 1j]).density()
        assert stokes(circ) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        zero = pure_state([1, 0]).density()
        assert stokes(zero) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_two_qubit_length_and_order(self):
        # |00>: IZ, ZI and ZZ are 1, everything else 0.
        rho = pure_state([1, 0, 0, 0]).density()
        values = stokes(rho)
        assert len(values) == 15
        # order: IX IY IZ XI XX XY XZ YI YX YY YZ ZI ZX ZY ZZ
        expected = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
        assert values == pytest.approx(expected, abs=1e-12)

    def test_bell_state_correlations(self):
        bell = pure_state([1, 0, 0, 1]).density()
        values = dict(
            zip(
                ["IX", "IY", "IZ", "XI", "XX", "XY", "XZ", "YI", "YX", "YY", "YZ", "ZI", "ZX", "ZY", "ZZ"],
                stokes(bell),
            )
        )
        assert values["XX"] == pytest.approx(1.0, abs=1e-12)
        assert values["YY"] == pytest.approx(-1.0, abs=1e-12)
        assert values["ZZ"] == pytest.approx(1.0, abs=1e-12)
        assert values["ZI"] == pytest.approx(0.0, abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        rho = random_density(2, RNG)
        data = density_matrix_to_dict(rho)
        back = density_matrix_from_dict(data)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_dict_layout(self):
        rho = pure_state([1, 1j]).density()
        data = density_matrix_to_dict(rho)
        assert data["num_qubits"] == 1
        assert len(data["re"]) == 4 and len(data["im"]) == 4
        assert data["im"][1] == pytest.approx(-0.5)  # row-major upper off-diagonal

    def test_load_rejects_a_file_without_a_field(self, tmp_path):
        path = tmp_path / "rho.json"
        save_density_matrix(pure_state([1, 1j]).density(), path)
        data = json.loads(path.read_text())
        for key in data:
            path.write_text(json.dumps({k: v for k, v in data.items() if k != key}))
            with pytest.raises(ValueError, match="num_qubits, re and im"):
                load_density_matrix(path)
