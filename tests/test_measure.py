"""Tests for tomography settings, Poisson counting and record serialization."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parityqec import measure
from parityqec.measure import (
    MINIMAL,
    OVERCOMPLETE,
    CountRecord,
    MeasurementSetting,
    _projector_stack,
    expected_counts,
    outcome_probability,
    read_count_records,
    setting_projector,
    simulate_counts,
    tomo_settings,
    write_count_records,
)
from parityqec.optics import ANALYZER_SETTINGS, REFLECTED, AnalyzerSetting
from parityqec.qcore import DensityMatrix, pure_state
from parityqec.tomo import linear_inversion, mle


class TestTomoSettings:
    def test_counts_per_scheme(self):
        assert len(tomo_settings(1, MINIMAL)) == 4
        assert len(tomo_settings(1, OVERCOMPLETE)) == 6
        assert len(tomo_settings(2, MINIMAL)) == 16
        assert len(tomo_settings(2, OVERCOMPLETE)) == 36

    def test_single_qubit_overcomplete_labels(self):
        labels = [s.label for s in tomo_settings(1, OVERCOMPLETE)]
        assert labels == ["H", "V", "D", "A", "R", "L"]

    def test_two_qubit_overcomplete_is_product_set(self):
        labels = {s.label for s in tomo_settings(2, OVERCOMPLETE)}
        assert len(labels) == 36
        assert labels == {a + b for a in "HVDARL" for b in "HVDARL"}

    def test_overcomplete_sextet_sums_to_three_identities(self):
        total = sum(
            setting_projector(s) for s in tomo_settings(1, OVERCOMPLETE)
        )
        np.testing.assert_allclose(total, 3 * np.eye(2), atol=1e-12)

    def test_minimal_two_qubit_is_informationally_complete(self):
        projectors = [
            setting_projector(s).reshape(-1) for s in tomo_settings(2, MINIMAL)
        ]
        assert np.linalg.matrix_rank(np.stack(projectors), tol=1e-10) == 16

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError):
            tomo_settings(3, MINIMAL)
        with pytest.raises(ValueError):
            tomo_settings(2, "complete")


class TestProbabilities:
    def test_h_state_against_settings(self):
        rho = pure_state([1, 0]).density()
        settings = {s.label: s for s in tomo_settings(1, OVERCOMPLETE)}
        assert outcome_probability(rho, settings["H"]) == pytest.approx(1.0, abs=1e-12)
        assert outcome_probability(rho, settings["V"]) == pytest.approx(0.0, abs=1e-12)
        for label in ("D", "A", "R", "L"):
            assert outcome_probability(rho, settings[label]) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_bell_state_correlations(self):
        bell = pure_state([1, 0, 0, 1]).density()
        settings = {s.label: s for s in tomo_settings(2, OVERCOMPLETE)}
        assert outcome_probability(bell, settings["HH"]) == pytest.approx(0.5, abs=1e-12)
        assert outcome_probability(bell, settings["HV"]) == pytest.approx(0.0, abs=1e-12)
        assert outcome_probability(bell, settings["DD"]) == pytest.approx(0.5, abs=1e-12)
        assert outcome_probability(bell, settings["DA"]) == pytest.approx(0.0, abs=1e-12)
        # anti-correlated circular bases: (|00>+|11>)/sqrt2 has <YY> = -1
        assert outcome_probability(bell, settings["RR"]) == pytest.approx(0.0, abs=1e-12)
        assert outcome_probability(bell, settings["RL"]) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            outcome_probability(
                pure_state([1, 0]).density(), tomo_settings(2, MINIMAL)[0]
            )


class TestProjectorStack:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(1, MINIMAL), (1, OVERCOMPLETE), (2, MINIMAL), (2, OVERCOMPLETE)]),
        st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    )
    def test_stacked_probabilities_equal_the_per_setting_traces(self, scheme, entries):
        dim = 2 ** scheme[0]
        raw = np.array(entries[: 2 * dim * dim]).view(complex).reshape(dim, dim)
        gram = raw @ raw.conj().T
        trace = np.real(np.trace(gram))
        assume(trace > 1e-6)
        rho = DensityMatrix(scheme[0], gram / trace)
        settings_list = tomo_settings(*scheme)
        stacked = [rec.count for rec in expected_counts(rho, settings_list, shots=1)]
        per_setting = [
            min(max(float(np.real(np.trace(setting_projector(s) @ rho.matrix))), 0.0), 1.0)
            for s in settings_list
        ]
        assert stacked == per_setting

    def test_equal_setting_tuples_share_one_read_only_stack(self, tmp_path, monkeypatch):
        stack = _projector_stack(tuple(tomo_settings(2, MINIMAL)))
        assert _projector_stack(tuple(tomo_settings(2, MINIMAL))) is stack
        rho = pure_state([1, 1j, 0, 1]).density()
        write_count_records(simulate_counts(rho, tomo_settings(2, MINIMAL), 1000, seed=4), tmp_path / "c.csv")
        back = read_count_records(tmp_path / "c.csv")
        assert _projector_stack(tuple(rec.setting for rec in back)) is stack
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0
        # counting and both reconstructions read the cached stack, not the wave plates
        monkeypatch.setattr(measure, "setting_projector", None)
        assert len(expected_counts(rho, [rec.setting for rec in back], 1000)) == 16
        linear_inversion(back)
        mle(back)


class TestSimulateCounts:
    def test_deterministic_under_seed(self):
        rho = pure_state([1, 1, 0, 0]).density()
        settings = tomo_settings(2, OVERCOMPLETE)
        a = simulate_counts(rho, settings, shots=1000, seed=42)
        b = simulate_counts(rho, settings, shots=1000, seed=42)
        assert [r.count for r in a] == [r.count for r in b]

    def test_different_seeds_differ(self):
        rho = pure_state([1, 1]).density()
        settings = tomo_settings(1, OVERCOMPLETE)
        a = [r.count for r in simulate_counts(rho, settings, 1000, seed=1)]
        b = [r.count for r in simulate_counts(rho, settings, 1000, seed=2)]
        assert a != b

    def test_substreams_are_order_independent(self):
        # record k depends only on (seed, k), not on which settings precede it
        rho = pure_state([1, 1]).density()
        settings = tomo_settings(1, OVERCOMPLETE)
        full = simulate_counts(rho, settings, 1000, seed=9)
        prefix = simulate_counts(rho, settings[:3], 1000, seed=9)
        assert [r.count for r in full[:3]] == [r.count for r in prefix]

    def test_zero_probability_gives_zero_counts(self):
        rho = pure_state([1, 0]).density()
        v_setting = tomo_settings(1, OVERCOMPLETE)[1]
        for seed in range(5):
            rec = simulate_counts(rho, [v_setting], shots=5000, seed=seed)[0]
            assert rec.count == 0

    def test_counts_fluctuate_around_mean(self):
        rho = pure_state([1, 0]).density()
        d_setting = tomo_settings(1, OVERCOMPLETE)[2]
        counts = [
            simulate_counts(rho, [d_setting], shots=1000, seed=s)[0].count
            for s in range(400)
        ]
        # Poisson(500): standard error of the mean is sqrt(500/400) ~ 1.1
        assert np.mean(counts) == pytest.approx(500.0, abs=4 * np.sqrt(500 / 400))

    def test_expected_counts_are_means(self):
        rho = pure_state([1, 1]).density()
        settings = tomo_settings(1, OVERCOMPLETE)
        recs = expected_counts(rho, settings, shots=1000)
        by_label = {r.setting.label: r.count for r in recs}
        assert by_label["D"] == pytest.approx(1000.0, abs=1e-9)
        assert by_label["A"] == pytest.approx(0.0, abs=1e-9)
        assert by_label["H"] == pytest.approx(500.0, abs=1e-9)


class TestCountRecord:
    def test_rejects_negative_count(self):
        setting = tomo_settings(1, MINIMAL)[0]
        with pytest.raises(ValueError):
            CountRecord(setting, -1, 100)

    def test_rejects_nonpositive_shots(self):
        setting = tomo_settings(1, MINIMAL)[0]
        with pytest.raises(ValueError):
            CountRecord(setting, 1, 0)

    @pytest.mark.parametrize("count", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_count(self, count):
        setting = tomo_settings(1, MINIMAL)[0]
        with pytest.raises(ValueError, match="finite"):
            CountRecord(setting, count, 100)


class TestSerialization:
    def test_round_trip_two_qubit(self, tmp_path):
        rho = pure_state([1, 0, 0, 1]).density()
        records = simulate_counts(rho, tomo_settings(2, OVERCOMPLETE), 1000, seed=3)
        path = tmp_path / "counts.csv"
        write_count_records(records, path)
        back = read_count_records(path)
        assert len(back) == len(records)
        for orig, rec in zip(records, back):
            assert rec.setting.label == orig.setting.label
            assert rec.count == orig.count
            assert rec.shots_nominal == orig.shots_nominal
            for a, b in zip(rec.setting.analyzers, orig.setting.analyzers):
                assert a.qwp_angle == pytest.approx(b.qwp_angle)
                assert a.hwp_angle == pytest.approx(b.hwp_angle)

    def test_round_trip_single_qubit_and_means(self, tmp_path):
        rho = pure_state([1, 1j]).density()
        records = expected_counts(rho, tomo_settings(1, MINIMAL), 1000)
        path = tmp_path / "counts.csv"
        write_count_records(records, path)
        back = read_count_records(path)
        for orig, rec in zip(records, back):
            assert rec.setting.num_qubits == 1
            assert rec.count == pytest.approx(orig.count, abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(1, MINIMAL), (1, OVERCOMPLETE), (2, MINIMAL), (2, OVERCOMPLETE)]),
        st.one_of(
            st.lists(st.integers(0, 2**53), min_size=36, max_size=36),
            st.lists(st.floats(0.0, 1e12, allow_nan=False), min_size=36, max_size=36),
        ),
        st.integers(1, 10**9),
    )
    def test_round_trip_property(self, tmp_path_factory, scheme, counts, shots):
        settings_list = tomo_settings(*scheme)
        records = [CountRecord(s, c, shots) for s, c in zip(settings_list, counts)]
        path = tmp_path_factory.mktemp("counts") / "counts.csv"
        write_count_records(records, path)
        assert read_count_records(path) == records

    @pytest.mark.parametrize(
        "analyzers",
        [
            # three qubits: the file has columns for two
            (ANALYZER_SETTINGS["H"], ANALYZER_SETTINGS["D"], ANALYZER_SETTINGS["R"]),
            # the reflected port: the file holds no port, so it would read
            # back as the orthogonal, transmitted projector
            (AnalyzerSetting(0.0, 0.0, REFLECTED),),
        ],
    )
    def test_rejects_settings_the_file_cannot_hold(self, tmp_path, analyzers):
        record = CountRecord(MeasurementSetting("X", analyzers), 5, 100)
        path = tmp_path / "counts.csv"
        with pytest.raises(ValueError, match="transmitted-port"):
            write_count_records([record], path)
        assert not path.exists()

    def test_byte_identical_output_for_same_seed(self, tmp_path):
        rho = pure_state([1, 1, 1, 1]).density()
        settings = tomo_settings(2, MINIMAL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_count_records(simulate_counts(rho, settings, 1000, seed=5), p1)
        write_count_records(simulate_counts(rho, settings, 1000, seed=5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("nope,really\n1,2\n", ""):
            path.write_text(text)
            with pytest.raises(ValueError):
                read_count_records(path)

    def test_rejects_non_finite_count_on_read(self, tmp_path):
        path = tmp_path / "nan.csv"
        rho = pure_state([1, 0]).density()
        write_count_records(expected_counts(rho, tomo_settings(1, MINIMAL), 100), path)
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-2] + ["nan", "100"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="finite"):
            read_count_records(path)
