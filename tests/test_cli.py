"""Tests for the experiment harness and its command line front end."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityqec.cli import (
    DEFAULT_TARGETS,
    EXPERIMENTS,
    ConfigError,
    RunConfig,
    build_config,
    calibrate_noise,
    exact_pipeline_means,
    load_default_noise,
    main,
    run_experiment,
)
from parityqec.cnotgate import NoiseModel
from parityqec.measure import read_count_records
from parityqec import qcore
from parityqec.qcore import DensityMatrix, load_density_matrix

from oracles import per_cell_pipeline_means


def _dir_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError):
            RunConfig("fig9")

    @pytest.mark.parametrize("field,value", [("shots", 0), ("seed", -1), ("scheme", "fancy")])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig("fig2", **{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("shots", 2.5),
            ("shots", True),
            ("seed", True),
            ("seed", "3"),
            ("budget", 50.5),
            ("budget", False),
            ("exact", 1),
            ("plots", "yes"),
            ("scheme", 5),
            ("noise", "ideal"),
            ("out_dir", "strdir"),
            ("targets", (0.9, 0.9)),
            ("targets", [0.9, 0.9, 0.9]),
            ("targets", (0.9, True, 0.9)),
            ("targets", (0.9, float("nan"), 0.9)),
        ],
    )
    def test_rejects_wrong_types(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            RunConfig("fig4", **{field: value})

    def test_default_noise_is_the_packaged_model(self):
        noise = RunConfig("fig2").noise
        assert noise == load_default_noise()

    def test_explicit_noise_wins(self):
        model = NoiseModel(0.9, 0.8, 0.7)
        cfg = RunConfig("fig2", noise=model)
        assert cfg.noise == model

    def test_to_dict_embeds_resolved_noise(self):
        d = RunConfig("fig2", noise=NoiseModel(0.5, 0.6, 0.7)).to_dict()
        assert d["noise"]["v_nonclassical"] == 0.5
        assert RunConfig("fig4").to_dict()["noise"] == load_default_noise().to_dict()
        assert RunConfig("table1", noise=None).to_dict()["noise"] == "ideal"
        # an experiment that runs no gate writes no gate
        assert "noise" not in RunConfig("teleport").to_dict()
        assert "noise" not in RunConfig("calibrate", noise=None).to_dict()

    def test_config_file_merging(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"shots": 123, "seed": 5, "noise": "ideal"}))
        parser_args = _parse(["fig2", "--config", str(cfg_file), "--seed", "9"])
        cfg = build_config("fig2", parser_args)
        assert cfg.shots == 123
        assert cfg.seed == 9  # explicit flag overrides the file
        assert cfg.noise is None

    def test_config_file_noise_triplet(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"noise": [0.9, 0.95, 0.97]}))
        cfg = build_config("fig2", _parse(["fig2", "--config", str(cfg_file)]))
        assert cfg.noise == NoiseModel(0.9, 0.95, 0.97)


    def test_config_file_noise_object(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"noise": NoiseModel(0.9, 0.95, 0.97).to_dict()}))
        cfg = build_config("fig2", _parse(["fig2", "--config", str(cfg_file)]))
        assert cfg.noise == NoiseModel(0.9, 0.95, 0.97)

    def test_noise_flag_overrides_the_file(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"noise": "ideal"}))
        args = _parse(["fig2", "--config", str(cfg_file), "--noise", "0.9,0.8,0.7"])
        assert build_config("fig2", args).noise == NoiseModel(0.9, 0.8, 0.7)

    # key, the flags that set it, the same setting as a config value, another config value
    MERGE_CASES = [
        ("shots", ["--shots", "300"], 300, 7),
        ("seed", ["--seed", "4"], 4, 9),
        ("scheme", ["--scheme", "overcomplete"], "overcomplete", "minimal"),
        ("out", ["--out", "res"], "res", "elsewhere"),
        ("exact", ["--exact"], True, False),
        ("plots", ["--plots"], True, False),
        ("noise", ["--noise", "0.9,0.8,0.7"], [0.9, 0.8, 0.7], "ideal"),
        ("targets", ["--targets", "0.8,0.9,0.95"], [0.8, 0.9, 0.95], [0.7, 0.7, 0.7]),
        ("budget", ["--budget", "50"], 50, 60),
    ]

    @pytest.mark.parametrize("key,flags,value,other", MERGE_CASES)
    def test_flag_and_file_give_one_config_and_the_flag_wins(
        self, tmp_path, key, flags, value, other
    ):
        experiment = READER[key]
        by_flag = _built(tmp_path, experiment, flags)
        assert by_flag != RunConfig(experiment)
        assert _built(tmp_path, experiment, [], {key: value}) == by_flag
        assert _built(tmp_path, experiment, [], {key: other}) != by_flag
        assert _built(tmp_path, experiment, flags, {key: other}) == by_flag

    @pytest.mark.parametrize(
        "flags,file_values", [(["--ideal"], None), (["--noise", "ideal"], None), ([], {"noise": "ideal"})]
    )
    def test_every_spelling_of_ideal_is_no_noise(self, tmp_path, flags, file_values):
        assert _built(tmp_path, "fig2", flags, file_values) == RunConfig("fig2", noise=None)

    def test_a_configuration_header_is_a_config_file(self, tmp_path):
        # the embedded configuration, experiment key included, reads back as the same run
        config = RunConfig("fig2", shots=300, seed=4, out_dir=Path("res"))
        assert _built(tmp_path, "fig2", [], config.to_dict()) == config


# the settings each experiment reads: its only flags besides --out and --config
READS = {
    "table1": {"noise"},
    "fig2": {"noise", "shots", "seed", "scheme", "exact", "plots"},
    "fig3": {"noise", "shots", "seed", "scheme", "exact", "plots"},
    "fig4": {"noise", "shots", "seed", "scheme", "exact"},
    "teleport": {"seed"},
    "calibrate": {"targets", "budget"},
}
# a subcommand that reads each setting, so that its own checks judge a value
READER = {
    "noise": "table1",
    "shots": "fig4",
    "seed": "teleport",
    "scheme": "fig4",
    "out": "calibrate",
    "exact": "fig2",
    "plots": "fig3",
    "targets": "calibrate",
    "budget": "calibrate",
}


def _built(tmp_path, experiment, flags, file_values=None):
    """build_config of a subcommand's flags, with file_values as its config file if given."""
    argv = [experiment, *flags]
    if file_values is not None:
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(file_values))
        argv += ["--config", str(cfg_file)]
    return build_config(experiment, _parse(argv))


def _header(summary: Path) -> dict[str, str]:
    """The configuration block of a summary file: key -> JSON text."""
    lines = summary.read_text().splitlines()
    return dict(line.strip().split(": ", 1) for line in lines[2 : lines.index("")])


def _parse(argv):
    from parityqec.cli import _build_parser

    return _build_parser()[0].parse_args(argv)


@pytest.mark.parametrize(
    "experiment,validations",
    [("table1", 0), ("fig2", 6), ("fig3", 6), ("fig4", 88), ("calibrate", 0)],
)
def test_only_mle_outputs_are_validated(tmp_path, monkeypatch, experiment, validations):
    # encoder and decoder are CP maps, so their outputs need no check: the
    # one state check runs only where mle wraps its result in a DensityMatrix
    config = RunConfig(experiment, exact=True, out_dir=tmp_path)
    wraps, checks = [], []
    validate, check = DensityMatrix.__post_init__, qcore._check_density

    def counted(self):
        wraps.append(self.num_qubits)
        validate(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    # in every package module, so a call from any module that imports the check counts
    for name, module in list(sys.modules.items()):
        if name.startswith("parityqec."):
            monkeypatch.setattr(
                module, "_check_density", lambda m: checks.append(m) or check(m), raising=False
            )
    run_experiment(config)
    assert len(wraps) == len(checks) == validations


class TestTable1:
    def test_ideal_truth_table(self, tmp_path):
        cfg = RunConfig("table1", noise=None, out_dir=tmp_path)
        res = run_experiment(cfg)
        for label, prob, fid in res["rows"]:
            assert prob == pytest.approx(1.0 / 9.0, abs=1e-12)
            assert fid == pytest.approx(1.0, abs=1e-12)
        assert (tmp_path / "table1.csv").exists()
        assert len(list((tmp_path / "table1_states").glob("*.json"))) == 6

    def test_noisy_encoder_departs_from_ideal(self, tmp_path):
        cfg = RunConfig("table1", out_dir=tmp_path)
        res = run_experiment(cfg)
        fids = [row[2] for row in res["rows"]]
        assert all(f < 1.0 for f in fids)
        assert all(row[1] > 1.0 / 9.0 - 1e-12 for row in res["rows"])


class TestFig2:
    def test_exact_ideal_reconstructions_are_perfect(self, tmp_path):
        cfg = RunConfig("fig2", noise=None, exact=True, out_dir=tmp_path)
        res = run_experiment(cfg)
        assert res["mean"] == pytest.approx(1.0, abs=1e-6)
        for _, _, fid, _, converged in res["rows"]:
            assert fid >= 1.0 - 1e-6
            assert converged

    def test_high_shot_sampled_ideal_run(self, tmp_path):
        cfg = RunConfig(
            "fig2", noise=None, shots=1_000_000, seed=7, out_dir=tmp_path
        )
        res = run_experiment(cfg)
        assert all(row[2] >= 0.995 for row in res["rows"])

    def test_calibrated_sampled_run_lands_near_target(self, tmp_path):
        cfg = RunConfig("fig2", seed=1, out_dir=tmp_path)
        res = run_experiment(cfg)
        assert 0.83 <= res["mean"] <= 0.93
        counts = read_count_records(tmp_path / "fig2_counts" / "0+i1.csv")
        assert len(counts) == 16
        rho = load_density_matrix(tmp_path / "fig2_states" / "0.json")
        assert rho.num_qubits == 2
        summary = (tmp_path / "fig2_summary.txt").read_text()
        assert "parityqec" in summary and "mean fidelity" in summary

    def test_overcomplete_scheme(self, tmp_path):
        cfg = RunConfig(
            "fig2", noise=None, exact=True, scheme="overcomplete", out_dir=tmp_path
        )
        res = run_experiment(cfg)
        assert res["mean"] == pytest.approx(1.0, abs=1e-6)
        assert len(read_count_records(tmp_path / "fig2_counts" / "0.csv")) == 36


class TestFig3:
    def test_exact_ideal_decodings_are_perfect(self, tmp_path):
        cfg = RunConfig("fig3", noise=None, exact=True, out_dir=tmp_path)
        res = run_experiment(cfg)
        assert len(res["rows"]) == 24
        for *_, prob, fid, _ in res["rows"]:
            assert prob == pytest.approx(0.5, abs=1e-6)
            assert fid >= 1.0 - 1e-6
        assert res["imag_mean"] == pytest.approx(0.0, abs=1e-7)

    def test_calibrated_sampled_run(self, tmp_path):
        cfg = RunConfig("fig3", seed=1, out_dir=tmp_path)
        res = run_experiment(cfg)
        assert 0.86 <= res["mean"] <= 0.99
        assert res["imag_mean"] < 0.08
        assert len(list((tmp_path / "fig3_states").glob("*.json"))) == 24

    def test_decoded_mean_beats_encoded_mean_at_the_default(self, tmp_path):
        fig2 = run_experiment(RunConfig("fig2", seed=2, out_dir=tmp_path / "a"))
        fig3 = run_experiment(RunConfig("fig3", seed=2, out_dir=tmp_path / "b"))
        assert fig3["mean"] >= fig2["mean"]


class TestFig4:
    def test_exact_ideal_grid_is_perfect(self, tmp_path):
        cfg = RunConfig("fig4", noise=None, exact=True, out_dir=tmp_path)
        res = run_experiment(cfg)
        assert len(res["rows"]) == (6 + 16) * 4
        assert all(row[6] >= 0.995 for row in res["rows"])

    def test_calibrated_sampled_run(self, tmp_path):
        cfg = RunConfig("fig4", seed=1, out_dir=tmp_path)
        res = run_experiment(cfg)
        assert 0.90 <= res["mean"] <= 0.99
        assert res["curve_means"][(1, 0)] >= res["curve_means"][(1, 1)]
        text = (tmp_path / "fig4.csv").read_text().splitlines()
        assert text[0] == "input,family,angle,qubit,outcome,outcome_prob,fidelity"
        assert len(text) == 1 + 88


class TestTeleportRunner:
    def test_table_contents(self, tmp_path):
        res = run_experiment(RunConfig("teleport", out_dir=tmp_path))
        assert len(res["rows"]) == 9
        by_key = {(n, w): (ex, est, se) for n, w, ex, est, _, se in res["rows"]}
        assert by_key[(1, 2)][0] == 0.75
        for (n, w), (exact, estimate, se) in by_key.items():
            assert abs(estimate - exact) < 4.0 * se


@pytest.fixture(scope="module")
def fitted():
    return calibrate_noise()


class TestCalibration:
    def test_residuals_within_tolerance(self, fitted):
        assert max(fitted.residuals) <= 0.05
        assert fitted.within_tolerance

    def test_achieved_means_are_ordered(self, fitted):
        m2, m3, m4 = fitted.achieved
        assert m2 <= m3 <= m4

    def test_matches_the_packaged_default(self, fitted):
        shipped = load_default_noise()
        assert fitted.noise.v_nonclassical == pytest.approx(shipped.v_nonclassical, abs=1e-6)
        assert fitted.noise.v_classical_control == pytest.approx(
            shipped.v_classical_control, abs=1e-6
        )
        assert fitted.noise.v_classical_target == pytest.approx(
            shipped.v_classical_target, abs=1e-6
        )

    def test_noiseless_fixed_point(self):
        result = calibrate_noise((1.0, 1.0, 1.0))
        assert result.noise == NoiseModel(1.0, 1.0, 1.0)
        assert result.residuals == (0.0, 0.0, 0.0)

    def test_degenerate_target_warns(self):
        result = calibrate_noise((0.5, 0.5, 0.5))
        assert any("reachable" in w for w in result.warnings)

    @pytest.mark.parametrize("targets", [(0.0, 0.9, 0.9), (0.9, 0.9, 1.1), (0.9, 0.9)])
    def test_rejects_bad_targets(self, targets):
        with pytest.raises(ValueError):
            calibrate_noise(targets)

    def test_tiny_budget_warns(self):
        result = calibrate_noise(budget=10)
        assert result.evaluations <= 10
        assert any("budget" in w for w in result.warnings)

    def test_evaluations_never_exceed_the_budget(self):
        for budget in range(10, 61):
            assert calibrate_noise(budget=budget).evaluations <= budget

    def test_ideal_pipeline_means_are_unity(self):
        assert exact_pipeline_means(None) == (1.0, 1.0, 1.0)
        assert exact_pipeline_means(NoiseModel.ideal()) == (1.0, 1.0, 1.0)

    def test_default_targets_constant(self):
        assert DEFAULT_TARGETS == (0.88, 0.93, 0.96)


# Benchmark pool models (block b, draw k of default_rng([b, 6]).uniform(0.85, 1,
# 3)) whose pipeline means the grid + Nelder-Mead search stalled short of, by
# 3e-5 to 6e-3.
STALLED_POOL_MODELS = [
    (0.9836362376806052, 0.9970235440220502, 0.853726186838488),  # block 1, draw 1
    (0.9983884983859992, 0.9540394031606261, 0.8971212516989996),  # block 6, draw 2
    (0.9998688860104111, 0.9371888674986942, 0.972216062671167),  # block 8, draw 0
    (0.9985965710917306, 0.976631418964095, 0.9961896533823911),  # block 9, draw 1
    (0.9323503906088432, 0.9877156713418576, 0.9873238943577715),  # block 10, draw 2
    (0.9369235924232541, 0.9672538385822741, 0.9985683091326347),  # block 13, draw 0
    (0.9219310892870219, 0.9657610925809695, 0.9978323562674597),  # block 13, draw 1
    (0.9828863088743278, 0.9818723207544172, 0.9694811016405255),  # block 13, draw 3
]


class TestCalibrationFit:
    @pytest.mark.parametrize("visibilities", STALLED_POOL_MODELS)
    def test_reaches_formerly_stalled_targets(self, visibilities):
        result = calibrate_noise(exact_pipeline_means(NoiseModel(*visibilities)))
        assert max(result.residuals) <= 1e-12
        assert result.warnings == ()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_reaches_every_reachable_target(self, visibilities):
        result = calibrate_noise(exact_pipeline_means(NoiseModel(*visibilities)))
        assert max(result.residuals) <= 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(*[st.floats(0.5, 1.0)] * 3))
    def test_recovers_the_visibilities(self, visibilities):
        result = calibrate_noise(exact_pipeline_means(NoiseModel(*visibilities)))
        fitted = list(result.noise.to_dict().values())
        np.testing.assert_allclose(fitted, visibilities, rtol=0, atol=1e-9)


class TestExactPipeline:
    @pytest.mark.parametrize(
        "visibilities", [None] + [tuple(float(b) for b in f"{k:03b}") for k in range(8)]
    )
    def test_matches_the_per_cell_oracle_at_the_corners(self, visibilities):
        noise = None if visibilities is None else NoiseModel(*visibilities)
        np.testing.assert_allclose(
            exact_pipeline_means(noise), per_cell_pipeline_means(noise), rtol=0, atol=1e-12
        )

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.tuples(*[st.floats(0.0, 1.0)] * 3))
    def test_matches_the_per_cell_oracle(self, visibilities):
        noise = NoiseModel(*visibilities)
        np.testing.assert_allclose(
            exact_pipeline_means(noise), per_cell_pipeline_means(noise), rtol=0, atol=1e-12
        )


class TestMain:
    def test_table1_exit_code_and_stdout(self, tmp_path, capsys):
        code = main(["table1", "--ideal", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "parityqec" in out and "F=1.000000" in out

    def test_bad_noise_string_fails_cleanly(self, tmp_path, capsys):
        code = main(["fig2", "--noise", "0.9,0.8", "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["table1", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "absent.json" in err

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["table1", "--out", str(blocker / "results")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "values",
        [
            {"noise": "Ideal"},
            {"noise": [0.9, 0.8]},
            {"noise": [0.9, True, 1.0]},
            {"noise": {"v_nonclassical": 0.9}},
            {"noise": {**NoiseModel().to_dict(), "v_extra": 1.0}},
            {"targets": 5},
            {"targets": [0.9, 0.9]},
            {"targets": [0.9, "x", 0.9]},
            {"shots": [1]},
            {"shots": 100.0},
            {"shots": True},
            {"seed": 1.7},
            {"seed": "3"},
            {"budget": 50.5},
            {"budget": False},
            {"exact": "no"},
            {"exact": 1},
            {"plots": "yes"},
            {"scheme": 5},
            {"shot": 5},
            {"experiment": "fig4"},
        ],
    )
    def test_bad_config_values_fail_cleanly(self, tmp_path, capsys, values):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(values))
        # a misspelt key has no reader, so any subcommand rejects it
        experiment = READER.get(next(iter(values)), "table1")
        code = main([experiment, "--config", str(cfg_file), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bad_config_out_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # no --out flag, so the file's out is the one that is used
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"out": 5}))
        code = main(["table1", "--config", "run.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_config_file_scalars_are_used(self, tmp_path):
        runs = {
            "fig2": {"shots": 300, "seed": 4, "exact": True, "plots": True, "scheme": "overcomplete"},
            "calibrate": {"budget": 50, "out": "res"},
        }
        for experiment, values in runs.items():
            resolved = _built(tmp_path, experiment, [], values).to_dict()
            assert {key: resolved[key] for key in values} == values

    def test_repeated_calls_do_not_leak_flags(self, tmp_path, capsys):
        assert main(["table1", "--ideal", "--out", str(tmp_path / "a")]) == 0
        assert main(["table1", "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        default = json.dumps(load_default_noise().to_dict(), sort_keys=True)
        assert '  noise: "ideal"' in (tmp_path / "a" / "table1_summary.txt").read_text()
        assert f"  noise: {default}" in (tmp_path / "b" / "table1_summary.txt").read_text()

    # a run of each subcommand with a setting it reads away from its default
    HEADER_RUNS = {
        "table1": ["--ideal"],
        "fig2": ["--exact", "--plots"],
        "fig3": ["--exact", "--seed", "3"],
        "fig4": ["--exact", "--scheme", "overcomplete"],
        "teleport": ["--seed", "3"],
        "calibrate": ["--budget", "60"],
    }

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_configuration_header_is_a_config_file(self, tmp_path, capsys, experiment):
        summary = tmp_path / "out" / f"{experiment}_summary.txt"
        argv = [experiment, *self.HEADER_RUNS[experiment], "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        first = _header(summary)
        config = {key: json.loads(value) for key, value in first.items()}
        (tmp_path / "run.json").write_text(json.dumps(config))
        assert main([experiment, "--config", str(tmp_path / "run.json")]) == 0
        assert _header(summary) == first
        capsys.readouterr()

    # per subcommand: a flag it does not read, and the same setting as a config key
    UNREAD = {
        "table1": (["--shots", "5"], {"shots": 5}),
        "fig2": (["--budget", "50"], {"budget": 50}),
        "fig3": (["--targets", "0.9,0.9,0.9"], {"targets": [0.9, 0.9, 0.9]}),
        "fig4": (["--plots"], {"plots": True}),
        "teleport": (["--exact"], {"exact": True}),
        "calibrate": (["--seed", "1"], {"seed": 1}),
    }

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_flags_header_and_file_keys_are_the_read_settings(self, tmp_path, capsys, experiment):
        reads = READS[experiment]
        with pytest.raises(SystemExit) as done:
            main([experiment, "--help"])
        assert done.value.code == 0
        options = capsys.readouterr().out.split("options:")[1]
        flags = set(re.findall(r"(?<![\w-])--[a-z]+", options)) - {"--help"}
        spellings = {"--ideal"} if "noise" in reads else set()
        assert flags == {f"--{key}" for key in reads} | spellings | {"--out", "--config"}

        out = tmp_path / "out"
        unread_flags, unread_values = self.UNREAD[experiment]
        with pytest.raises(SystemExit) as done:
            main([experiment, *unread_flags, "--out", str(out)])
        assert done.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: parityqec {experiment} ")
        assert unread_flags[0] in err
        assert not out.exists()
        (tmp_path / "run.json").write_text(json.dumps(unread_values))
        assert main([experiment, "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(next(iter(unread_values))) in err
        assert not out.exists()

        fast = ["--exact"] if "exact" in reads else []
        assert main([experiment, *fast, "--out", str(out)]) == 0
        capsys.readouterr()
        header = _header(out / f"{experiment}_summary.txt")
        assert set(header) == {"experiment", "out"} | reads

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_noise_and_ideal_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--noise", "1,1,1", "--ideal"])

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        args = ["fig2", "--shots", "500", "--seed", "11", "--out", str(tmp_path)]
        assert main(args) == 0
        first = _dir_digest(tmp_path)
        assert main(args) == 0
        assert _dir_digest(tmp_path) == first
        capsys.readouterr()

    def test_plots_flag_emits_svg(self, tmp_path, capsys):
        code = main(
            ["fig2", "--shots", "200", "--seed", "3", "--plots", "--out", str(tmp_path)]
        )
        assert code == 0
        svg = (tmp_path / "fig2_bars.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg
        capsys.readouterr()

    def test_teleport_cli_row(self, tmp_path, capsys):
        assert main(["teleport", "--out", str(tmp_path)]) == 0
        table = (tmp_path / "teleport.csv").read_text().splitlines()
        assert table[0] == "n,width,exact_success,mc_estimate,trials,std_error"
        row_12 = [line for line in table if line.startswith("1,2,")][0]
        assert row_12.split(",")[2] == "0.7500000000"
        capsys.readouterr()


# Runs main() on each argv in a fresh interpreter, which has imported nothing
# yet, and prints the exit codes and the scipy modules loaded by the end.
_COLD_RUN = """
import contextlib, io, json, sys
import parityqec, parityqec.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(parityqec.cli.main(argv))
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _cold_run(tmp_path, *argvs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argvs = [[*argv, "--out", str(tmp_path / "out")] for argv in argvs]
    done = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestColdStart:
    """scipy is imported only by calibrate, the one path that runs a scipy solver."""

    def test_runs_without_a_solver_never_import_scipy(self, tmp_path):
        argvs = [
            ["table1"],
            ["teleport"],
            ["fig2", "--exact"],
            ["fig3", "--exact"],
            ["fig4", "--exact"],
        ]
        run = _cold_run(tmp_path, *argvs)
        assert run["codes"] == [0] * len(argvs)
        assert run["scipy"] == []

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_a_sampled_run_never_imports_scipy(self, tmp_path, figure):
        # the sampled runs take maximum-likelihood steps, which need no scipy
        run = _cold_run(tmp_path, [figure, "--seed", "1", "--shots", "500"])
        assert run["codes"] == [0]
        assert run["scipy"] == []

    @pytest.mark.parametrize("argv", [["calibrate"]], ids=["calibrate"])
    def test_a_solver_imports_scipy_from_a_cold_process(self, tmp_path, argv):
        # the positive control: the deferred import is reached and works
        run = _cold_run(tmp_path, argv)
        assert run["codes"] == [0]
        assert "scipy.optimize" in run["scipy"]
