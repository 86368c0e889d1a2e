"""Experiment harness: end-to-end encoding, tomography, and decoding runs.

Subcommands (named after the analyses they reproduce):
    table1     encoder truth table: the six reference inputs and their codes
    fig2       2-qubit tomography of the six encoded reference states
    fig3       the four Z-measurement decodings of the fig2 reconstructions
    fig4       direct conditioned 1-qubit tomography over the input sweeps
    teleport   success-law table for teleportation on the width-2 code
    calibrate  fit the three visibilities to target pipeline mean fidelities

Every run is a pure function of its configuration: sampling seeds are derived
per pipeline cell (input x qubit x outcome) from the run seed, so cells are
independent and their execution order cannot matter, and identical configs
produce byte-identical output files. Reports embed the resolved settings the
experiment reads and the package version; no timestamps. shots counts the
post-selected coincidences collected per analyzer setting.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .cnotgate import NoiseModel, _noisy_cnot_batch
from .codec import _CONTROL_PLUS, _decode_batch, ideal_encoded
from .measure import MINIMAL, OVERCOMPLETE, _counts, tomo_settings, write_count_records
from .optics import PHI_FAMILY, THETA_FAMILY, prepare_input
from .qcore import (
    PureState,
    _fidelity_batch,
    _save_matrix,
    kron,
    save_density_matrix,
)
from .teleport import encoded_teleport_success, monte_carlo_success
from .tomo import mle

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The six reference inputs: both Z eigenstates and the four equal
# superpositions along X and Y.
REFERENCE_INPUTS = (
    ("0", PureState(1, [1.0, 0.0])),
    ("1", PureState(1, [0.0, 1.0])),
    ("0+1", PureState(1, [_INV_SQRT2, _INV_SQRT2])),
    ("0-1", PureState(1, [_INV_SQRT2, -_INV_SQRT2])),
    ("0+i1", PureState(1, [_INV_SQRT2, 1j * _INV_SQRT2])),
    ("0-i1", PureState(1, [_INV_SQRT2, -1j * _INV_SQRT2])),
)

# Inputs whose ideal states are real in the computational basis; any
# imaginary structure in their decoded reconstructions is pure artifact.
REAL_INPUT_LABELS = ("0", "1", "0+1", "0-1")

SWEEP_ANGLES = tuple(range(10, 90, 10))

DEFAULT_TARGETS = (0.88, 0.93, 0.96)
DEFAULT_BUDGET = 900
CALIBRATION_TOLERANCE = 0.05
# calibration starts: the ideal gate first, then the other cube corners
_CUBE_CORNERS = tuple(itertools.product((1.0, 0.0), repeat=3))
# a start whose cost 0.5 * sum(residual^2) is at most this met the targets
_EXACT_COST = 1e-24
# the type each scalar RunConfig field must have (an int is no bool)
_FIELD_TYPES = dict(shots=int, seed=int, budget=int, exact=bool, plots=bool, scheme=str)


class ConfigError(ValueError):
    """The run configuration is malformed."""


def load_default_noise() -> NoiseModel:
    """The packaged noise model fitted to the target pipeline means."""
    text = resources.files("parityqec").joinpath("data/default_noise.json").read_text()
    return NoiseModel.from_dict(json.loads(text)["noise"])


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    # the encoding gate of table1 and fig2-4; None means the ideal gate
    noise: NoiseModel | None = field(default_factory=load_default_noise)
    shots: int = 10_000
    seed: int = 0
    scheme: str = MINIMAL
    out_dir: Path = Path("parityqec-results")
    exact: bool = False
    plots: bool = False
    targets: tuple[float, float, float] = DEFAULT_TARGETS
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            if type(value) is not kind:
                raise ConfigError(f"{key} must be {kind.__name__}; got {value!r}")
        if not (self.noise is None or isinstance(self.noise, NoiseModel)):
            raise ConfigError(f"noise must be NoiseModel or None; got {self.noise!r}")
        if not isinstance(self.out_dir, Path):
            raise ConfigError(f"out_dir must be Path; got {self.out_dir!r}")
        targets = self.targets
        if not (
            type(targets) is tuple
            and len(targets) == 3
            and all(type(t) is float and math.isfinite(t) for t in targets)
        ):
            raise ConfigError(f"targets must be three finite floats; got {targets!r}")
        if self.shots < 1:
            raise ConfigError("shots must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.scheme not in (MINIMAL, OVERCOMPLETE):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.budget < 10:
            raise ConfigError("budget too small to search at all")

    def to_dict(self) -> dict:
        """The experiment, out and the settings the experiment reads: the report header."""
        values = {
            "experiment": self.experiment,
            "noise": "ideal" if self.noise is None else self.noise.to_dict(),
            "shots": self.shots,
            "seed": self.seed,
            "scheme": self.scheme,
            "out": str(self.out_dir),
            "exact": self.exact,
            "plots": self.plots,
            "targets": list(self.targets),
            "budget": self.budget,
        }
        _, _, reads = EXPERIMENTS[self.experiment]
        return {key: values[key] for key in ("experiment", "out", *reads)}


def _cell_seed(base: int, *key: int) -> int:
    """A deterministic per-cell seed; cells never share sample streams."""
    ss = np.random.SeedSequence([int(base), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _mean_sd(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _prepared(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_summary(config: RunConfig, name: str, lines: list[str]) -> Path:
    """Write <name>_summary.txt: version, resolved configuration, a blank line, lines."""
    header = [f"parityqec {__version__}", "configuration:"]
    header += [
        f"  {key}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(config.to_dict().items())
    ]
    path = _prepared(config.out_dir / f"{name}_summary.txt")
    path.write_text("\n".join(header + [""] + lines) + "\n")
    return path


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_format_field(v) for v in row))
    _prepared(path).write_text("\n".join(out) + "\n")


def _format_field(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.10f}"
    return str(value)


def _bar_chart_svg(title: str, labels: list[str], values: list[float]) -> str:
    """A static bar chart; all geometry fixed so output bytes are stable."""
    bar_w, gap, chart_h, base_y = 64, 18, 220, 250
    width = gap + len(values) * (bar_w + gap)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="300" '
        f'viewBox="0 0 {width} 300" font-family="monospace" font-size="12">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{gap}" y1="{base_y}" x2="{width - gap}" y2="{base_y}" stroke="black"/>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        h = max(0.0, min(1.0, value)) * chart_h
        x = gap + i * (bar_w + gap)
        parts.append(
            f'<rect x="{x}" y="{base_y - h:.1f}" width="{bar_w}" height="{h:.1f}" '
            'fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y - h - 6:.1f}" '
            f'text-anchor="middle">{value:.3f}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y + 16}" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pipeline_inputs() -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The 6 reference then the 16 sweep inputs that every experiment encodes.

    Returns (cells, payload amplitudes (22, 2), encoder input states
    (22, 4, 4), ideal code amplitudes (22, 4)). cells holds one (label,
    family, angle, payload) per input; a reference input has family
    "reference" and angle None. The arrays are read-only.
    """
    cells = [(label, "reference", None, psi) for label, psi in REFERENCE_INPUTS]
    for family in (THETA_FAMILY, PHI_FAMILY):
        for angle in SWEEP_ANGLES:
            psi = prepare_input(family, angle).state
            cells.append((f"{family}{angle}", family, float(angle), psi))
    payloads = [psi for *_, psi in cells]
    joint = np.stack([kron(_CONTROL_PLUS, psi).amplitudes for psi in payloads])
    arrays = (
        np.stack([psi.amplitudes for psi in payloads]),
        joint[:, :, None] * joint[:, None, :].conj(),
        np.stack([ideal_encoded(psi).amplitudes for psi in payloads]),
    )
    for arr in arrays:
        arr.flags.writeable = False
    return (tuple(cells), *arrays)


def _encode_all(noise: NoiseModel | None) -> tuple[np.ndarray, np.ndarray]:
    """Encode all 22 pipeline inputs in one batched contraction of the gate.

    The payload enters the target port with the control in |+>; None is the
    ideal gate (all visibilities 1). Returns (coincidence probabilities (22,),
    encoded states (22, 4, 4)), density matrices as the channel is CP.
    """
    _, _, inputs, _ = _pipeline_inputs()
    return _noisy_cnot_batch(inputs, NoiseModel.ideal() if noise is None else noise)


def run_table1(config: RunConfig) -> dict:
    """Encoder truth table: success probability and fidelity per input."""
    _, _, _, codes = _pipeline_inputs()
    probs, encoded = _encode_all(config.noise)
    fids = _fidelity_batch(codes, encoded)
    rows = []
    out = config.out_dir
    for idx, (label, _) in enumerate(REFERENCE_INPUTS):
        rows.append((label, float(probs[idx]), float(fids[idx])))
        _save_matrix(encoded[idx], _prepared(out / "table1_states" / f"{label}.json"))
    lines = ["encoder outputs (success probability, fidelity vs ideal code):"]
    lines += [f"  {label}: p={p:.6f} F={f:.6f}" for label, p, f in rows]
    _write_csv(out / "table1.csv", ("input", "success_prob", "fidelity"), rows)
    return {"rows": rows, "summary": _write_summary(config, "table1", lines)}


def _cell_counts(config: RunConfig, state: np.ndarray, settings, *key: int) -> list:
    """A cell state's counts: exact means, or sampled from the cell's seed."""
    seed = None if config.exact else _cell_seed(config.seed, *key)
    return _counts(state, settings, config.shots, seed)


def _fig2_cells(config: RunConfig) -> list[dict]:
    """Count and reconstruct the encoded state of each reference input."""
    probs, encoded = _encode_all(config.noise)
    settings = tomo_settings(2, config.scheme)
    cells = []
    for idx, (label, _) in enumerate(REFERENCE_INPUTS):
        counts = _cell_counts(config, encoded[idx], settings, 2, idx)
        cells.append(
            {
                "label": label,
                "success_prob": float(probs[idx]),
                "counts": counts,
                "tomography": mle(counts),
            }
        )
    return cells


def run_fig2(config: RunConfig) -> dict:
    """2-qubit tomography survey of the six encoded reference states."""
    _, _, _, codes = _pipeline_inputs()
    cells = _fig2_cells(config)
    rhos = np.stack([cell["tomography"].rho.matrix for cell in cells])
    fids = _fidelity_batch(codes[: len(cells)], rhos)
    out = config.out_dir
    rows = []
    for cell, fid in zip(cells, fids):
        label = cell["label"]
        write_count_records(cell["counts"], _prepared(out / "fig2_counts" / f"{label}.csv"))
        save_density_matrix(cell["tomography"].rho, _prepared(out / "fig2_states" / f"{label}.json"))
        rows.append(
            (
                label,
                cell["success_prob"],
                float(fid),
                cell["tomography"].iterations,
                cell["tomography"].converged,
            )
        )
    mean, sd = _mean_sd([row[2] for row in rows])
    lines = ["encoded-state reconstruction fidelities:"]
    lines += [f"  {label}: F={fid:.6f}" for label, _, fid, _, _ in rows]
    lines += ["", f"mean fidelity: {mean:.6f}", f"sd across states: {sd:.6f}"]
    _write_csv(
        out / "fig2.csv",
        ("input", "success_prob", "fidelity", "iterations", "converged"),
        rows,
    )
    summary = _write_summary(config, "fig2", lines)
    if config.plots:
        labels = [row[0] for row in rows]
        svg = _bar_chart_svg("encoded-state fidelities", labels, [row[2] for row in rows])
        _prepared(out / "fig2_bars.svg").write_text(svg)
    return {"rows": rows, "cells": cells, "mean": mean, "sd": sd, "summary": summary}


def run_fig3(config: RunConfig) -> dict:
    """Decode the fig2 reconstructions by each of the four Z measurements."""
    _, payloads, _, _ = _pipeline_inputs()
    cells = _fig2_cells(config)
    probs, decoded = _decode_batch(np.stack([cell["tomography"].rho.matrix for cell in cells]))
    fids = _fidelity_batch(payloads[: len(cells), None, None], decoded)
    out = config.out_dir
    rows = []
    imag_rows = []
    for idx, cell in enumerate(cells):
        label = cell["label"]
        for qubit in (1, 2):
            for outcome in (0, 1):
                state = decoded[idx, qubit - 1, outcome]
                fid = float(fids[idx, qubit - 1, outcome])
                mean_abs_imag = float(np.mean(np.abs(state.imag)))
                prob = float(probs[idx, qubit - 1, outcome])
                rows.append((label, qubit, outcome, prob, fid, mean_abs_imag))
                if label in REAL_INPUT_LABELS:
                    imag_rows.append(mean_abs_imag)
                _save_matrix(
                    state, _prepared(out / "fig3_states" / f"{label}_q{qubit}_{outcome}.json")
                )
    mean, sd = _mean_sd([row[4] for row in rows])
    imag_mean, imag_sd = _mean_sd(imag_rows)
    lines = ["decoded fidelities (input, qubit, outcome):"]
    lines += [f"  {lb} q{q} -> {oc}: F={f:.6f}" for lb, q, oc, _, f, _ in rows]
    lines += [
        "",
        f"mean decoded fidelity: {mean:.6f}",
        f"sd across decodings: {sd:.6f}",
        "mean |imag| over real-amplitude inputs: "
        f"{imag_mean:.6f} (sd {imag_sd:.6f})",
    ]
    _write_csv(
        out / "fig3.csv",
        ("input", "qubit", "outcome", "outcome_prob", "fidelity", "mean_abs_imag"),
        rows,
    )
    summary = _write_summary(config, "fig3", lines)
    if config.plots:
        labels = [f"{lb}/q{q}{oc}" for lb, q, oc, _, _, _ in rows[::4]]
        fids = [row[4] for row in rows[::4]]
        svg = _bar_chart_svg("decoded fidelities (qubit 1, outcome 0)", labels, fids)
        _prepared(out / "fig3_bars.svg").write_text(svg)
    return {
        "rows": rows,
        "mean": mean,
        "sd": sd,
        "imag_mean": imag_mean,
        "imag_sd": imag_sd,
        "summary": summary,
    }


def run_fig4(config: RunConfig) -> dict:
    """Direct conditioned 1-qubit tomography across the two input sweeps."""
    probs, decoded = _decode_batch(_encode_all(config.noise)[1])
    settings = tomo_settings(1, config.scheme)
    out = config.out_dir
    cells, payloads, _, _ = _pipeline_inputs()
    rows = []
    for idx, (label, family, angle, _) in enumerate(cells):
        for qubit in (1, 2):
            for outcome in (0, 1):
                state = decoded[idx, qubit - 1, outcome]
                counts = _cell_counts(config, state, settings, 4, idx, qubit, outcome)
                fid = float(_fidelity_batch(payloads[idx], mle(counts).rho.matrix))
                prob = float(probs[idx, qubit - 1, outcome])
                angle_field = "" if angle is None else angle
                rows.append((label, family, angle_field, qubit, outcome, prob, fid))
    sweep_fids = [r[6] for r in rows if r[1] != "reference"]
    mean, sd = _mean_sd(sweep_fids)
    full_mean, _ = _mean_sd([r[6] for r in rows])
    curve_means = {
        (q, oc): _mean_sd([r[6] for r in rows if r[1] != "reference" and r[3] == q and r[4] == oc])[0]
        for q in (1, 2)
        for oc in (0, 1)
    }
    lines = ["direct decoded fidelities:"]
    lines += [
        f"  {lb} q{q} -> {oc}: F={f:.6f}" for lb, _, _, q, oc, _, f in rows
    ]
    lines += [
        "",
        f"mean fidelity over the sweeps: {mean:.6f}",
        f"sd over the sweeps: {sd:.6f}",
        f"mean fidelity including reference endpoints: {full_mean:.6f}",
    ]
    lines += [
        f"sweep mean for qubit {q}, outcome {oc}: {curve_means[(q, oc)]:.6f}"
        for q in (1, 2)
        for oc in (0, 1)
    ]
    _write_csv(
        out / "fig4.csv",
        ("input", "family", "angle", "qubit", "outcome", "outcome_prob", "fidelity"),
        rows,
    )
    return {
        "rows": rows,
        "mean": mean,
        "sd": sd,
        "full_mean": full_mean,
        "curve_means": curve_means,
        "summary": _write_summary(config, "fig4", lines),
    }


TELEPORT_TRIALS = 100_000


def run_teleport(config: RunConfig) -> dict:
    """Exact versus Monte Carlo success table for the teleportation step."""
    out = config.out_dir
    rows = []
    for n in (1, 2, 3):
        for width in (1, 2, 3):
            exact = encoded_teleport_success(n, width)
            estimate = monte_carlo_success(
                n, width, TELEPORT_TRIALS, seed=_cell_seed(config.seed, 5, n, width)
            )
            se = math.sqrt(exact * (1.0 - exact) / TELEPORT_TRIALS)
            rows.append((n, width, exact, estimate, TELEPORT_TRIALS, se))
    lines = ["n,width,exact,estimate,trials,std_error"]
    lines += [
        f"  n={n} width={w}: exact={ex:.6f} estimate={est:.6f} se={se:.6f}"
        for n, w, ex, est, _, se in rows
    ]
    _write_csv(
        out / "teleport.csv",
        ("n", "width", "exact_success", "mc_estimate", "trials", "std_error"),
        rows,
    )
    return {"rows": rows, "summary": _write_summary(config, "teleport", lines)}


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    noise: NoiseModel
    achieved: tuple[float, float, float]
    residuals: tuple[float, float, float]
    objective: float
    evaluations: int
    warnings: tuple[str, ...]

    @property
    def within_tolerance(self) -> bool:
        return max(self.residuals) <= CALIBRATION_TOLERANCE


def exact_pipeline_means(noise: NoiseModel | None) -> tuple[float, float, float]:
    """The three pipeline mean fidelities in the infinite-statistics limit.

    Tomography reconstructs exact probabilities exactly, so the sampled
    pipelines collapse to pure state algebra: encoded fidelity over the six
    reference inputs, decoded fidelity over their four Z decodings, and
    decoded fidelity over the two 8-angle input sweeps. All 22 inputs are
    encoded at once (_encode_all), decoded by all four Z measurements at once
    (codec._decode_batch) and scored by qcore._fidelity_batch. Nothing is
    validated: encoder and decoder are CP maps, so their outputs are states.
    """
    _, payloads, _, codes = _pipeline_inputs()
    encoded = _encode_all(noise)[1]
    encoded_fids = _fidelity_batch(codes, encoded)
    decoded_fids = _fidelity_batch(payloads[:, None, None], _decode_batch(encoded)[1])
    n_ref = len(REFERENCE_INPUTS)
    return (
        float(np.mean(encoded_fids[:n_ref])),
        float(np.mean(decoded_fids[:n_ref])),
        float(np.mean(decoded_fids[n_ref:])),
    )


def calibrate_noise(
    targets: tuple[float, float, float] = DEFAULT_TARGETS, budget: int = DEFAULT_BUDGET
) -> CalibrationResult:
    """Fit the three visibilities so the pipeline means hit the targets.

    A bounded least-squares solve (scipy's dogbox method, bounds [0, 1]) of
    the three residuals exact_pipeline_means(v) - targets, started from the
    ideal gate (1, 1, 1). When that start ends short of the targets (cost
    above _EXACT_COST), the solve is repeated from each of the other seven
    cube corners in turn until one reaches them, and the best end point is
    kept. Every pipeline evaluation counts against the budget, including the
    three forward differences of each Jacobian: one dogbox step costs at most
    four, so each start may take (budget - evaluations) // 4 steps and the
    total never exceeds the budget. A start stopped by that cap reports a
    warning, and so does a fit that stays more than 0.05 from any target.
    On a 2-core host, a fit to reachable targets took 16-24 evaluations and
    6-8 ms; targets outside the reachable set run all eight starts, up to
    649 evaluations and 0.38 s over 100 random targets.
    """
    # imported here, the one solver call in this module, so that the other
    # experiments start without scipy
    from scipy.optimize import least_squares

    target_arr = np.asarray(targets, dtype=float)
    if target_arr.shape != (3,) or np.any(target_arr <= 0) or np.any(target_arr > 1):
        raise ValueError("targets must be three fidelities in (0, 1]")
    if budget < 10:
        raise ValueError("budget too small to search at all")

    evaluations = 0

    def misfit(v) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        return np.asarray(exact_pipeline_means(NoiseModel(*v))) - target_arr

    best, exhausted = None, False
    for corner in _CUBE_CORNERS:
        steps = (budget - evaluations) // 4
        exhausted = steps < 1
        if exhausted:
            break
        # scipy's default gtol (1e-8) would stop with residuals near 1e-8
        fit = least_squares(
            misfit, corner, bounds=(0.0, 1.0), method="dogbox", gtol=1e-15, max_nfev=steps
        )
        if best is None or fit.cost < best.cost:
            best = fit
        exhausted = fit.status == 0
        if exhausted or best.cost <= _EXACT_COST:
            break

    warnings = ["search budget exhausted; returning best model found"] if exhausted else []
    noise = NoiseModel(*best.x.tolist())
    achieved = exact_pipeline_means(noise)
    residuals = tuple(float(abs(a - t)) for a, t in zip(achieved, target_arr))
    if max(residuals) > CALIBRATION_TOLERANCE:
        warnings.append(
            "targets lie outside the model's reachable set; "
            f"best residuals {tuple(round(r, 4) for r in residuals)}"
        )
    return CalibrationResult(
        noise=noise,
        achieved=tuple(float(a) for a in achieved),
        residuals=residuals,
        objective=float(2.0 * best.cost),
        evaluations=evaluations,
        warnings=tuple(warnings),
    )


def run_calibrate(config: RunConfig) -> dict:
    result = calibrate_noise(config.targets, config.budget)
    payload = {
        "noise": result.noise.to_dict(),
        "targets": list(config.targets),
        "achieved": list(result.achieved),
        "residuals": list(result.residuals),
        "objective": result.objective,
        "evaluations": result.evaluations,
        "warnings": list(result.warnings),
        "version": __version__,
    }
    calibration = _prepared(config.out_dir / "calibration.json")
    calibration.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    lines = [
        f"fitted visibilities: {json.dumps(result.noise.to_dict(), sort_keys=True)}",
        f"achieved means: {[round(a, 6) for a in result.achieved]}",
        f"residuals: {[round(r, 6) for r in result.residuals]}",
        f"objective: {result.objective:.3e}",
        f"evaluations: {result.evaluations}",
    ]
    lines += [f"warning: {w}" for w in result.warnings]
    return {"result": result, "summary": _write_summary(config, "calibrate", lines)}


# ---------------------------------------------------------------------------
# Command line front end
# ---------------------------------------------------------------------------

# every experiment: its runner, its one-line help and the run settings it reads,
# its only flags and (with experiment and out) its only header and config keys
_SAMPLED = ("noise", "shots", "seed", "scheme", "exact")
_CHARTED = (*_SAMPLED, "plots")
EXPERIMENTS = {
    "table1": (run_table1, "encoder truth table for the six reference inputs", ("noise",)),
    "fig2": (run_fig2, "2-qubit tomography of the encoded reference states", _CHARTED),
    "fig3": (run_fig3, "the four Z-measurement decodings of the fig2 reconstructions", _CHARTED),
    "fig4": (run_fig4, "direct conditioned 1-qubit tomography over the input sweeps", _SAMPLED),
    "teleport": (run_teleport, "success-law table for teleportation on the width-2 code", ("seed",)),
    "calibrate": (run_calibrate, "fit the noise model to target pipeline means", ("targets", "budget")),
}

# a switch that was not given reads None, as every other unset flag does
_SWITCH = dict(action="store_true", default=None)
# each run setting's flags and their argparse options; a setting's flags exclude each other
_FLAGS = {
    "noise": {
        "--noise": dict(
            metavar="V_NC,V_CC,V_CT",
            help="visibilities: non-classical, classical control, classical target",
        ),
        "--ideal": dict(
            action="store_const", const="ideal", help="run the perfect gate instead of a noise model"
        ),
    },
    "shots": {"--shots": dict(type=int, help="coincidences per analyzer setting")},
    "seed": {"--seed": dict(type=int, help="run seed; every cell derives its own stream")},
    "scheme": {"--scheme": dict(choices=(MINIMAL, OVERCOMPLETE), help="tomography settings set")},
    "exact": {"--exact": dict(_SWITCH, help="replace sampling with exact Poisson means")},
    "plots": {"--plots": dict(_SWITCH, help="also emit static bar-chart vector graphics")},
    "targets": {"--targets": dict(metavar="T2,T3,T4", help="three target mean fidelities")},
    "budget": {"--budget": dict(type=int, help="cap on pipeline evaluations, Jacobian ones included")},
    "out": {"--out": dict(help="output directory")},
}


def run_experiment(config: RunConfig) -> dict:
    """Dispatch a configured run; returns the runner's result payload."""
    runner, _, _ = EXPERIMENTS[config.experiment]
    return runner(config)


def _three_numbers(value, error: str) -> tuple[float, float, float]:
    """Three finite numbers from a JSON list or a flag's comma-separated text.

    Anything else raises ConfigError(error).
    """
    parts = value.split(",") if isinstance(value, str) else value
    if isinstance(parts, list) and len(parts) == 3 and not any(isinstance(p, bool) for p in parts):
        try:
            numbers = tuple(float(p) for p in parts)
        except (TypeError, ValueError):
            raise ConfigError(error) from None
        if all(map(math.isfinite, numbers)):
            return numbers
    raise ConfigError(error)


def _parse_noise(value, source: str) -> NoiseModel | None:
    """The gate a --noise flag or a config file's noise names; None is the ideal gate.

    Accepts "ideal", three visibilities (V_NC, V_CC, V_CT), or an object with
    exactly the three NoiseModel keys.
    """
    if value == "ideal":
        return None
    keys = list(NoiseModel().to_dict())
    if isinstance(value, dict) and sorted(value) == sorted(keys):
        value = [value[key] for key in keys]
    error = (
        f"{source} must be 'ideal', three visibilities or an object with exactly "
        f"the keys {', '.join(keys)}; got {value!r}"
    )
    return NoiseModel(*_three_numbers(value, error))


def _field(key: str, value, source: str) -> tuple[str, object]:
    """The RunConfig field and value that a flag or config key gives; errors name the source."""
    if key == "noise":
        return key, _parse_noise(value, source)
    if key == "targets":
        return key, _three_numbers(value, f"{source} must be three numbers; got {value!r}")
    if key == "out":
        # RunConfig checks the other values; out becomes a Path before it sees it
        if type(value) is not str:
            raise ConfigError(f"{source} must be str; got {value!r}")
        return "out_dir", Path(value)
    return key, value


def build_config(experiment: str, args: argparse.Namespace) -> RunConfig:
    """RunConfig(experiment, **given): the config file's values, then every flag that was set.

    The file may hold exactly the keys of the configuration header
    (RunConfig.to_dict()); its experiment, if given, must be the subcommand.
    """
    given = {}
    if args.config is not None:
        values = json.loads(Path(args.config).read_text())
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(values) - set(RunConfig(experiment).to_dict()))
        if unknown:
            raise ConfigError(f"config keys {unknown} are not settings of {experiment}")
        named = values.pop("experiment", experiment)
        if named != experiment:
            raise ConfigError(f"config experiment {named!r} is not the subcommand {experiment!r}")
        given.update(_field(key, value, f"config {key}") for key, value in values.items())
    given.update(
        _field(key, value, f"--{key}")
        for key, value in vars(args).items()
        if key not in ("experiment", "config") and value is not None
    )
    return RunConfig(experiment, **given)


@lru_cache(maxsize=None)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name, built once."""
    parser = argparse.ArgumentParser(
        prog="parityqec",
        description="Photonic parity-code experiments: encoding, tomography, decoding.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, description, reads) in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=description)
        for key in (*reads, "out"):
            group = sp.add_mutually_exclusive_group()
            for flag, options in _FLAGS[key].items():
                group.add_argument(flag, dest=key, **options)
        sp.add_argument("--config", help="JSON file mirroring the run configuration")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, subcommands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # under the subcommand's usage, which names it and its flags
        subcommands[args.experiment].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        config = build_config(args.experiment, args)
        result = run_experiment(config)
        summary = result["summary"].read_text()
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
