"""Tests for wave-plate matrices, preparation recipes and analyzer projectors."""

import numpy as np
import pytest

from oracles import PAULI_EIGENSTATES, analyzed_state, recipe_state
from parityqec.optics import (
    ANALYZER_SETTINGS,
    HWP,
    PHI_FAMILY,
    QWP,
    REFLECTED,
    THETA_FAMILY,
    AnalyzerSetting,
    WaveplateSetting,
    analyzer_projector,
    prepare_input,
    waveplate,
)


def ray_overlap(psi, phi):
    """|<psi|phi>|^2 for two PureStates (global-phase blind comparison)."""
    return abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2


class TestWaveplates:
    def test_unitarity_over_random_angles(self):
        rng = np.random.default_rng(7)
        for angle in rng.uniform(0, 180, size=200):
            for kind in (HWP, QWP):
                u = waveplate(WaveplateSetting(kind, angle))
                np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_hwp_is_involution_up_to_phase(self):
        for angle in np.arange(0, 180, 7.5):
            u = waveplate(WaveplateSetting(HWP, angle))
            sq = u @ u
            np.testing.assert_allclose(sq, sq[0, 0] * np.eye(2), atol=1e-12)
            assert abs(abs(sq[0, 0]) - 1.0) < 1e-12

    def test_hwp_22_5_makes_diagonal_from_h(self):
        u = waveplate(WaveplateSetting(HWP, 22.5))
        out = u @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)

    def test_hwp_0_flips_sign_of_v(self):
        u = waveplate(WaveplateSetting(HWP, 0.0))
        np.testing.assert_allclose(u @ np.array([0.0, 1.0]), [0.0, -1.0], atol=1e-12)

    def test_qwp_45_makes_circular_from_h(self):
        # the convention fixes the sign: (|H> - i|V>)/sqrt(2)
        u = waveplate(WaveplateSetting(QWP, 45.0))
        out = u @ np.array([1.0, 0.0])
        np.testing.assert_allclose(np.abs(out), [1 / np.sqrt(2)] * 2, atol=1e-12)
        np.testing.assert_allclose(out[1] / out[0], -1j, atol=1e-12)

    def test_angle_reduced_mod_180(self):
        assert WaveplateSetting(HWP, 190.0).angle == pytest.approx(10.0)
        assert WaveplateSetting(QWP, -45.0).angle == pytest.approx(135.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WaveplateSetting("TWP", 0.0)


class TestPrepareInput:
    @pytest.mark.parametrize("angle", [0.0, 10.0, 30.0, 45.0, 60.0, 90.0])
    def test_theta_family_formula(self, angle):
        prep = prepare_input(THETA_FAMILY, angle)
        a = np.deg2rad(angle)
        np.testing.assert_allclose(
            prep.state.amplitudes, [np.cos(a), np.sin(a)], atol=1e-12
        )

    @pytest.mark.parametrize("angle", [0.0, 10.0, 45.0, 80.0, 90.0])
    def test_phi_family_formula(self, angle):
        prep = prepare_input(PHI_FAMILY, angle)
        a = np.deg2rad(angle)
        expected = np.array([1.0, np.exp(1j * (np.pi / 2 - 2 * a))]) / np.sqrt(2)
        np.testing.assert_allclose(prep.state.amplitudes, expected, atol=1e-12)

    def test_theta_0_is_h(self):
        prep = prepare_input(THETA_FAMILY, 0.0)
        np.testing.assert_allclose(prep.state.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_both_families_agree_at_45(self):
        t = prepare_input(THETA_FAMILY, 45.0).state
        p = prepare_input(PHI_FAMILY, 45.0).state
        assert ray_overlap(t, p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", [THETA_FAMILY, PHI_FAMILY])
    def test_recipe_reproduces_formula_every_degree(self, family):
        for angle in np.arange(0.0, 90.5, 1.0):
            prep = prepare_input(family, float(angle))
            assert ray_overlap(recipe_state(prep), prep.state) >= 1.0 - 1e-10

    def test_angle_out_of_range(self):
        with pytest.raises(ValueError):
            prepare_input(THETA_FAMILY, 91.0)
        with pytest.raises(ValueError):
            prepare_input(PHI_FAMILY, -1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            prepare_input("chi", 10.0)


class TestAnalyzer:
    def test_h_setting(self):
        proj = analyzer_projector(AnalyzerSetting(0.0, 0.0))
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]), atol=1e-12)

    def test_d_setting(self):
        proj = analyzer_projector(AnalyzerSetting(0.0, 22.5))
        np.testing.assert_allclose(proj, np.full((2, 2), 0.5), atol=1e-12)

    @pytest.mark.parametrize("label", ["H", "V", "D", "A", "R", "L"])
    def test_named_settings_project_on_named_states(self, label):
        proj = analyzer_projector(ANALYZER_SETTINGS[label])
        target = PAULI_EIGENSTATES[label]
        value = np.real(
            target.amplitudes.conj() @ proj @ target.amplitudes
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_projectors_are_rank_one_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = AnalyzerSetting(rng.uniform(0, 180), rng.uniform(0, 180))
            p = analyzer_projector(s)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)

    def test_ports_sum_to_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            q, h = rng.uniform(0, 180, size=2)
            pt = analyzer_projector(AnalyzerSetting(q, h, "transmitted"))
            pr = analyzer_projector(AnalyzerSetting(q, h, REFLECTED))
            np.testing.assert_allclose(pt + pr, np.eye(2), atol=1e-12)

    def test_plates_and_projectors_are_read_only_arrays(self):
        for mat in (waveplate(WaveplateSetting(QWP, 30.0)), analyzer_projector(ANALYZER_SETTINGS["R"])):
            assert isinstance(mat, np.ndarray) and mat.shape == (2, 2)
            with pytest.raises(ValueError):
                mat[0, 0] = 0.0

    def test_circular_settings_are_orthogonal(self):
        r = analyzed_state(ANALYZER_SETTINGS["R"])
        l = analyzed_state(ANALYZER_SETTINGS["L"])
        assert abs(np.vdot(r.amplitudes, l.amplitudes)) < 1e-12

    def test_prepared_state_passes_matching_analyzer(self):
        # prepare D via the theta recipe and analyze with the D setting
        prep = prepare_input(THETA_FAMILY, 45.0)
        state = recipe_state(prep)
        proj = analyzer_projector(ANALYZER_SETTINGS["D"])
        value = np.real(state.amplitudes.conj() @ proj @ state.amplitudes)
        assert value == pytest.approx(1.0, abs=1e-12)
