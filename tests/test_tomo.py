"""Tests for linear inversion and maximum-likelihood reconstruction."""

import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parityqec.cli import REFERENCE_INPUTS, main
from parityqec.codec import encode
from parityqec.measure import (
    MINIMAL,
    OVERCOMPLETE,
    CountRecord,
    expected_counts,
    setting_projector,
    simulate_counts,
    tomo_settings,
)
from oracles import min_eigenvalue, pauli_linear_inversion, trace_distance
from parityqec.qcore import DensityMatrix, PureState, fidelity, pure_state
from parityqec import tomo
from parityqec.tomo import TomographyResult, linear_inversion, mle

BELL = pure_state([1, 0, 0, 1])


def random_pure(n, rng):
    return PureState(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))


class TestLinearInversion:
    @pytest.mark.parametrize("scheme", [MINIMAL, OVERCOMPLETE])
    def test_exact_limit_recovers_bell_state(self, scheme):
        counts = expected_counts(BELL.density(), tomo_settings(2, scheme), 10_000)
        est = linear_inversion(counts)
        np.testing.assert_allclose(est.matrix, BELL.density().matrix, atol=1e-8)

    def test_uniform_counts_give_maximally_mixed(self):
        settings = tomo_settings(2, OVERCOMPLETE)
        counts = [CountRecord(s, 250.0, 1000) for s in settings]
        est = linear_inversion(counts)
        np.testing.assert_allclose(est.matrix, np.eye(4) / 4, atol=1e-10)

    def test_single_qubit_exact_limit(self):
        rng = np.random.default_rng(21)
        for scheme in (MINIMAL, OVERCOMPLETE):
            psi = random_pure(1, rng)
            counts = expected_counts(psi.density(), tomo_settings(1, scheme), 1000)
            est = linear_inversion(counts)
            np.testing.assert_allclose(est.matrix, psi.density().matrix, atol=1e-8)

    def test_shot_noise_can_break_positivity_but_not_hermiticity(self):
        # a pure state on the Bloch surface plus noise often dips negative
        rho = pure_state([1, 0]).density()
        found_negative = False
        for seed in range(30):
            counts = simulate_counts(rho, tomo_settings(1, OVERCOMPLETE), 100, seed)
            est = linear_inversion(counts)
            assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-10)
            if min_eigenvalue(est) < -1e-6:
                found_negative = True
        assert found_negative

    def test_rank_deficient_set_rejected(self):
        settings = tomo_settings(2, MINIMAL)[:10]
        counts = [CountRecord(s, 100.0, 1000) for s in settings]
        with pytest.raises(ValueError, match="informationally complete"):
            linear_inversion(counts)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            linear_inversion([])


@st.composite
def inversion_inputs(draw):
    """Sampled counts, with unequal nominal shots, on a random subset of a scheme.

    The subset keeps at least half of the 1- or 2-qubit settings, in a random
    order; dropping any minimal setting, or the wrong overcomplete ones,
    leaves a set that is not informationally complete.
    """
    num_qubits = draw(st.sampled_from([1, 2]))
    scheme = draw(st.sampled_from([MINIMAL, OVERCOMPLETE]))
    full = tomo_settings(num_qubits, scheme)
    order = draw(st.permutations(range(len(full))))
    chosen = [full[k] for k in order[: len(full) - draw(st.integers(0, len(full) // 2))]]
    shots = draw(st.lists(st.integers(1, 10_000), min_size=len(chosen), max_size=len(chosen)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = DensityMatrix(num_qubits, g @ g.conj().T / np.trace(g @ g.conj().T).real)
    probs = [rec.count for rec in expected_counts(rho, chosen, 1)]
    return [
        CountRecord(setting, int(rng.poisson(n * p)), n)
        for setting, n, p in zip(chosen, shots, probs)
    ]


class TestLinearInversionOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(inversion_inputs())
    def test_matches_the_pauli_basis_inversion(self, counts):
        try:
            want = pauli_linear_inversion(counts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                linear_inversion(counts)
            return
        np.testing.assert_allclose(linear_inversion(counts).matrix, want, rtol=0, atol=1e-12)


class TestMle:
    @pytest.mark.parametrize("scheme", [MINIMAL, OVERCOMPLETE])
    def test_exact_limit_pure_states(self, scheme):
        rng = np.random.default_rng(33)
        for _ in range(5):
            psi = random_pure(2, rng)
            counts = expected_counts(psi.density(), tomo_settings(2, scheme), 10_000)
            result = mle(counts)
            assert result.converged
            assert fidelity(result.rho, psi) >= 1 - 1e-6

    @pytest.mark.parametrize("scheme", [MINIMAL, OVERCOMPLETE])
    def test_agrees_with_linear_inversion_in_exact_limit(self, scheme):
        rng = np.random.default_rng(34)
        psi = random_pure(2, rng)
        counts = expected_counts(psi.density(), tomo_settings(2, scheme), 10_000)
        inv = linear_inversion(counts)
        result = mle(counts)
        assert trace_distance(result.rho, inv) < 1e-6

    def test_zero_count_entries_handled(self):
        rho = pure_state([1, 0]).density()
        counts = expected_counts(rho, tomo_settings(1, OVERCOMPLETE), 1000)
        assert any(rec.count < 1e-9 for rec in counts)
        # exact zeros as well: an n_k = 0 entry adds nothing to the gap
        # certificate, even where its probability vanishes at the optimum
        zeroed = [
            CountRecord(rec.setting, 0.0 if rec.count < 1e-9 else rec.count, rec.shots_nominal)
            for rec in counts
        ]
        for records in (counts, zeroed):
            result = mle(records)
            assert result.converged
            assert fidelity(result.rho, pure_state([1, 0])) >= 1 - 1e-6

    def test_output_always_valid_density_matrix(self):
        rho = pure_state([1, 1j]).density()
        for seed in range(10):
            counts = simulate_counts(rho, tomo_settings(1, OVERCOMPLETE), 50, seed)
            result = mle(counts)
            assert isinstance(result.rho, DensityMatrix)  # validation ran

    def test_statistical_fidelity_at_moderate_shots(self):
        # the reconstruction should sit close to the truth at 10^4 shots
        target = pure_state([1, 0, 0, 1])
        fids = []
        for seed in range(20):
            counts = simulate_counts(target.density(), tomo_settings(2, OVERCOMPLETE), 10_000, seed)
            fids.append(fidelity(mle(counts).rho, target))
        assert np.median(fids) >= 0.99

    def test_mixed_state_reconstruction(self):
        rho = DensityMatrix(1, np.diag([0.7, 0.3]))
        counts = expected_counts(rho, tomo_settings(1, OVERCOMPLETE), 100_000)
        result = mle(counts)
        np.testing.assert_allclose(result.rho.matrix, rho.matrix, atol=1e-5)

    def test_scheme_inference(self):
        rho = pure_state([1, 1]).density()
        for scheme in (MINIMAL, OVERCOMPLETE):
            counts = expected_counts(rho, tomo_settings(1, scheme), 1000)
            assert mle(counts).scheme == scheme

    def test_iteration_budget_respected(self):
        rho = pure_state([1, 1]).density()
        counts = expected_counts(rho, tomo_settings(1, OVERCOMPLETE), 1000)
        result = mle(counts, max_iter=3)
        assert isinstance(result, TomographyResult)
        assert result.iterations <= 3

    def test_sub_floor_tol_fails_fast(self):
        # at 1e6 shots per setting the gap's rounding floor is about
        # 1e-15 * 3.6e6 = 3.6e-9 nats, so tol = 1e-13 cannot be certified
        rng = np.random.default_rng(5)
        psi = random_pure(2, rng)
        counts = simulate_counts(psi.density(), tomo_settings(2, MINIMAL), 10**6, seed=1)
        result = mle(counts, tol=1e-13)
        assert not result.converged
        assert result.iterations <= 50
        assert fidelity(result.rho, psi) >= 0.99

    @pytest.mark.parametrize("tol", [0.0, 1e-13, 1e-9])
    def test_no_tol_below_the_rounding_floor_is_certified(self, tol):
        # the computed gap can read at or below such a tol while the
        # recomputed one does not: below the floor neither can be trusted
        rng = np.random.default_rng(5)
        for seed in range(1, 13):
            psi = random_pure(2, rng)
            counts = simulate_counts(psi.density(), tomo_settings(2, MINIMAL), 10**6, seed=seed)
            assert tol < tomo._GAP_ROUNDING * sum(rec.count for rec in counts)
            result = mle(counts, tol=tol)
            assert not result.converged
            assert result.iterations <= 50
            assert fidelity(result.rho, psi) >= 0.99
            assert mle(counts).converged

    def test_empty_and_all_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            mle([])
        settings = tomo_settings(1, OVERCOMPLETE)
        with pytest.raises(ValueError):
            mle([CountRecord(s, 0.0, 100) for s in settings])


class TestLikelihoodMonotonicity:
    def test_likelihood_never_decreases_between_restarts(self):
        # run mle at increasing iteration caps: the reported likelihood is
        # non-decreasing because every accepted step is
        rho = pure_state([1, 0, 0, 1]).density()
        counts = simulate_counts(rho, tomo_settings(2, OVERCOMPLETE), 1000, seed=8)
        lls = [mle(counts, max_iter=k).log_likelihood for k in (1, 2, 5, 10, 50, 200)]
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


@st.composite
def count_records(draw):
    """Counts of a random 1- or 2-qubit state under either scheme.

    The state mixes a random pure state with a random density matrix; the
    counts are Poisson samples or, for a pure state, the exact means, whose
    optimum sits on the boundary with zero-probability projectors.
    """
    num_qubits = draw(st.sampled_from([1, 2]))
    scheme = draw(st.sampled_from([MINIMAL, OVERCOMPLETE]))
    shots = draw(st.integers(5, 20_000))
    seed = draw(st.integers(0, 2**32 - 1))
    purity = draw(st.sampled_from([1.0, 0.9, 0.5, 0.0]))
    exact = draw(st.booleans())
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mixed = a @ a.conj().T
    rho = purity * np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    rho = DensityMatrix(num_qubits, rho + (1 - purity) * mixed / np.trace(mixed).real)
    settings_list = tomo_settings(num_qubits, scheme)
    if exact and purity == 1.0:
        return expected_counts(rho, settings_list, shots)
    counts = simulate_counts(rho, settings_list, shots, seed=seed)
    assume(sum(rec.count for rec in counts) > 0)
    return counts


def recomputed_gap(rho, counts):
    """The Frank-Wolfe gap lambda_max(G) - N of rho, rebuilt from the projectors.

    The projectors, weighted by shots / max shots, are whitened by their sum
    S; sigma = S^1/2 rho S^1/2 / Tr and G = sum_k n_k T_k / Tr(T_k sigma) over
    the settings with counts (one without adds nothing).
    """
    n = np.array([float(rec.count) for rec in counts])
    shots = np.array([float(rec.shots_nominal) for rec in counts])
    projectors = np.stack(
        [w * setting_projector(rec.setting) for w, rec in zip(shots / shots.max(), counts)]
    )
    ew, ev = np.linalg.eigh(projectors.sum(axis=0))
    s_half = (ev * np.sqrt(ew)) @ ev.conj().T
    s_inv_half = (ev / np.sqrt(ew)) @ ev.conj().T
    whitened = (s_inv_half @ projectors @ s_inv_half)[n > 0]
    sigma = s_half @ rho.matrix @ s_half
    sigma /= np.trace(sigma).real
    probs = np.einsum("kij,ji->k", whitened, sigma).real
    g = np.einsum("k,kij->ij", n[n > 0] / probs, whitened)
    return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T))[-1] - n.sum())


MLE_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)
GAP_TOL = 1e-6


class TestMleProperties:
    @MLE_PROPERTY
    @given(count_records())
    def test_output_is_a_density_matrix(self, counts):
        rho = mle(counts).rho.matrix
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    @MLE_PROPERTY
    @given(count_records())
    def test_trajectory_is_monotone(self, counts):
        result = mle(counts)
        trajectory = result.trajectory
        assert len(trajectory) == result.iterations + 1
        assert trajectory[-1] == result.log_likelihood
        assert all(b >= a for a, b in zip(trajectory, trajectory[1:]))

    @MLE_PROPERTY
    @given(count_records(), st.sampled_from([3, tomo.DEFAULT_MAX_ITER]))
    def test_converged_means_the_gap_is_within_tol(self, counts, max_iter):
        # a low cap leaves some runs unconverged; the claim must hold either way
        result = mle(counts, tol=GAP_TOL, max_iter=max_iter)
        if result.converged:
            assert recomputed_gap(result.rho, counts) <= GAP_TOL

    @MLE_PROPERTY
    @given(count_records())
    def test_no_iterations_exactly_when_the_warm_start_certifies(self, counts):
        warm = mle(counts, tol=GAP_TOL, max_iter=0)
        certifies = recomputed_gap(warm.rho, counts) <= GAP_TOL
        assert warm.iterations == 0 and warm.converged == certifies
        assert (mle(counts, tol=GAP_TOL).iterations == 0) == certifies


def central_differences(fun, x, h):
    """d fun / d x_i by central differences, one row per coordinate."""
    return np.array([(fun(x + h * e) - fun(x - h * e)) / (2 * h) for e in np.eye(x.size)])


class TestLevenbergMarquardt:
    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_derivatives_match_central_differences(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        dim = 2**num_qubits
        operators = np.stack([setting_projector(s) for s in tomo_settings(num_qubits, OVERCOMPLETE)])
        counts = rng.integers(1, 200, size=len(operators)).astype(float)

        def objective(x):
            t = x.view(complex).reshape(dim, dim)
            a = t @ t.conj().T
            q = np.einsum("kij,ji->k", operators, a).real
            return counts @ np.log(q) - counts.sum() * np.log(np.trace(a).real)

        real = tomo._real_forms(operators)
        for _ in range(3):
            x = rng.normal(size=2 * dim * dim)
            r, q, grad, hess = tomo._derivatives(real, counts, x)
            t = x.view(complex).reshape(dim, dim)
            np.testing.assert_allclose(q, np.einsum("kij,ji->k", operators, t @ t.conj().T).real, rtol=1e-12)
            np.testing.assert_allclose(r @ x, q, rtol=1e-12)
            scale = np.abs(grad).max()
            np.testing.assert_allclose(grad, central_differences(objective, x, 1e-6), rtol=0, atol=1e-6 * scale)
            fd_hess = central_differences(lambda y: tomo._derivatives(real, counts, y)[2], x, 1e-6)
            np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * np.abs(hess).max())
            np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-6 * np.abs(hess).max())

    @pytest.mark.parametrize("scheme", [MINIMAL, OVERCOMPLETE])
    def test_every_fig2_cell_is_certified_at_seed_42_and_1000_shots(self, tmp_path, scheme):
        # cells on which an accelerated projected-gradient ascent stalls uncertified
        argv = ["fig2", "--seed", "42", "--shots", "1000", "--scheme", scheme, "--out", str(tmp_path)]
        assert main(argv) == 0
        with open(tmp_path / "fig2.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert all(row["converged"] == "true" for row in rows)

    def test_criterion_5_runs_reach_no_cap(self):
        settings_list = tomo_settings(2, MINIMAL)
        states = [encode(psi)[1] for _, psi in REFERENCE_INPUTS]
        results = [mle(expected_counts(rho, settings_list, 10_000)) for rho in states]
        for idx, rho in enumerate(states):
            for seed in range(100):
                results.append(mle(simulate_counts(rho, settings_list, 10_000, seed=1000 * idx + seed)))
        assert len(results) == 606
        assert all(result.converged for result in results)
        assert max(result.iterations for result in results) <= 50

    def test_a_cell_the_warm_start_certifies_builds_no_real_forms(self, monkeypatch):
        calls = []
        real_forms = tomo._real_forms

        def counted(operators):
            calls.append(len(operators))
            return real_forms(operators)

        monkeypatch.setattr(tomo, "_real_forms", counted)
        rng = np.random.default_rng(7)
        for num_qubits in (1, 2):
            for scheme in (MINIMAL, OVERCOMPLETE):
                dim = 2**num_qubits
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                mixed = DensityMatrix(num_qubits, g @ g.conj().T / np.trace(g @ g.conj().T).real)
                for rho in (mixed, random_pure(num_qubits, rng).density()):
                    result = mle(expected_counts(rho, tomo_settings(num_qubits, scheme), 10_000))
                    assert result.converged and result.iterations == 0
        assert calls == []
        # the positive control: a sampled cell that takes steps builds them once
        counts = simulate_counts(BELL.density(), tomo_settings(2, MINIMAL), 1000, seed=3)
        assert mle(counts).iterations > 0
        assert len(calls) == 1
