"""Tomography measurement settings and Poisson coincidence-count simulation.

A measurement setting is one analyzer per qubit; its projector is the tensor
product of the per-qubit analyzer projectors. Counting is modeled as Poisson
with mean shots * Tr(rho Pi), matching coincidence counting over a fixed
integration window.

Randomness: counts are drawn from numpy's PCG64 generator. Record k of a run
uses the substream seeded by SeedSequence(entropy=seed, spawn_key=(k,)), so
results are independent of evaluation order and safe to parallelize, and a
fixed seed gives bit-identical count lists across runs and platforms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .optics import ANALYZER_SETTINGS, TRANSMITTED, AnalyzerSetting, analyzer_projector
from .qcore import DensityMatrix

MINIMAL = "minimal"
OVERCOMPLETE = "overcomplete"

# Single-qubit tomography labels. The minimal quartet spans the Bloch space;
# the overcomplete sextet is the three full Pauli bases.
SINGLE_QUBIT_MINIMAL = ("H", "V", "D", "R")
SINGLE_QUBIT_OVERCOMPLETE = ("H", "V", "D", "A", "R", "L")

# Minimal 2-qubit scheme: the standard 16-projector list of the cited
# tomography method, expressed as per-qubit analyzer labels.
TWO_QUBIT_MINIMAL = (
    "HH", "HV", "VV", "VH",
    "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD",
    "VD", "VL", "HL", "RL",
)


@dataclass(frozen=True)
class MeasurementSetting:
    """One analyzer per qubit plus a human-readable label."""

    label: str
    analyzers: tuple[AnalyzerSetting, ...]

    def __post_init__(self):
        if not self.analyzers:
            raise ValueError("at least one analyzer required")
        object.__setattr__(self, "analyzers", tuple(self.analyzers))

    @property
    def num_qubits(self) -> int:
        return len(self.analyzers)


@dataclass(frozen=True)
class CountRecord:
    """Observed (or exact-mean) count for one setting.

    count is an integer when sampled; the exact-probability limit stores the
    Poisson mean, which is generally not an integer.
    """

    setting: MeasurementSetting
    count: float
    shots_nominal: int

    def __post_init__(self):
        if not (math.isfinite(self.count) and self.count >= 0):
            raise ValueError(f"count must be finite and non-negative, got {self.count}")
        if self.shots_nominal <= 0:
            raise ValueError("shots_nominal must be positive")


def _setting_from_labels(labels: str) -> MeasurementSetting:
    return MeasurementSetting(labels, tuple(ANALYZER_SETTINGS[ch] for ch in labels))


def tomo_settings(num_qubits: int, scheme: str = OVERCOMPLETE) -> list[MeasurementSetting]:
    """The tomography setting list for 1 or 2 qubits.

    minimal: 4 settings (1 qubit) / 16 (2 qubits).
    overcomplete: 6 settings / 36, every Pauli-eigenstate product.
    """
    if scheme not in (MINIMAL, OVERCOMPLETE):
        raise ValueError(f"unknown scheme {scheme!r}")
    if num_qubits == 1:
        labels = SINGLE_QUBIT_MINIMAL if scheme == MINIMAL else SINGLE_QUBIT_OVERCOMPLETE
        return [_setting_from_labels(ch) for ch in labels]
    if num_qubits == 2:
        if scheme == MINIMAL:
            return [_setting_from_labels(pair) for pair in TWO_QUBIT_MINIMAL]
        return [
            _setting_from_labels(a + b)
            for a in SINGLE_QUBIT_OVERCOMPLETE
            for b in SINGLE_QUBIT_OVERCOMPLETE
        ]
    raise ValueError("tomography settings exist for 1 or 2 qubits")


def setting_projector(setting: MeasurementSetting) -> np.ndarray:
    """Tensor-product projector of a measurement setting."""
    proj = np.array([[1.0 + 0.0j]])
    for analyzer in setting.analyzers:
        proj = np.kron(proj, analyzer_projector(analyzer))
    return proj


@lru_cache(maxsize=64)
def _projector_stack(settings: tuple[MeasurementSetting, ...]) -> np.ndarray:
    """The (k, d, d) projectors of a setting tuple, built once and read-only.

    Equal setting tuples share one stack, so every count and reconstruction
    of a setting list reads the same projectors.
    """
    stack = np.stack([setting_projector(setting) for setting in settings])
    stack.flags.writeable = False
    return stack


def _counts(
    matrix: np.ndarray, settings, shots: int, seed: int | None = None
) -> list[CountRecord]:
    """One count per setting for a density matrix held as a bare array.

    seed=None gives the exact Poisson means; otherwise record k is drawn from
    the substream SeedSequence(entropy=seed, spawn_key=(k,)).
    """
    settings = tuple(settings)
    if any(2**setting.num_qubits != matrix.shape[0] for setting in settings):
        raise ValueError("setting and state dimensions differ")
    if not settings:
        return []
    probs = np.real(np.trace(_projector_stack(settings) @ matrix, axis1=1, axis2=2))
    outside = (probs < -1e-10) | (probs > 1 + 1e-10)
    if outside.any():
        raise ValueError(f"projector probability {probs[outside][0]} outside [0, 1]")
    means = [shots * p for p in np.clip(probs, 0.0, 1.0).tolist()]
    if seed is None:
        return [CountRecord(s, mean, shots) for s, mean in zip(settings, means)]
    records = []
    for k, (setting, mean) in enumerate(zip(settings, means)):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        )
        records.append(CountRecord(setting, int(rng.poisson(mean)), shots))
    return records


def outcome_probability(rho: DensityMatrix, setting: MeasurementSetting) -> float:
    """Tr(rho Pi) for one setting, clipped to [0, 1]."""
    return _counts(rho.matrix, (setting,), 1)[0].count


def simulate_counts(
    rho: DensityMatrix,
    settings: list[MeasurementSetting],
    shots: int = 10_000,
    seed: int = 0,
) -> list[CountRecord]:
    """Poisson-sample one count per setting, deterministically in the seed."""
    return _counts(rho.matrix, settings, shots, seed)


def expected_counts(
    rho: DensityMatrix, settings: list[MeasurementSetting], shots: int = 10_000
) -> list[CountRecord]:
    """Exact-probability (infinite-statistics) counts: the Poisson means."""
    return _counts(rho.matrix, settings, shots)


# ---------------------------------------------------------------------------
# Tabular serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = ("label", "q1_qwp", "q1_hwp", "q2_qwp", "q2_hwp", "count", "shots")


def _format_count(count: float) -> str:
    return str(int(count)) if float(count).is_integer() else repr(float(count))


def write_count_records(records: list[CountRecord], path) -> None:
    """Write records as CSV, or raise ValueError before opening the file if
    one has more than two analyzers or a reflected port, which it cannot hold.
    """
    for rec in records:
        analyzers = rec.setting.analyzers
        if len(analyzers) > 2 or any(a.port != TRANSMITTED for a in analyzers):
            raise ValueError(f"count files hold 1 or 2 transmitted-port analyzers, not {rec.setting}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rec in records:
            analyzers = rec.setting.analyzers
            q1 = analyzers[0]
            q2 = analyzers[1] if len(analyzers) > 1 else None
            writer.writerow(
                [
                    rec.setting.label,
                    f"{q1.qwp_angle:.4f}",
                    f"{q1.hwp_angle:.4f}",
                    f"{q2.qwp_angle:.4f}" if q2 else "",
                    f"{q2.hwp_angle:.4f}" if q2 else "",
                    _format_count(rec.count),
                    str(rec.shots_nominal),
                ]
            )


def read_count_records(path) -> list[CountRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != _CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        for row in reader:
            label, q1q, q1h, q2q, q2h, count, shots = row
            analyzers = [AnalyzerSetting(float(q1q), float(q1h))]
            if q2q:
                analyzers.append(AnalyzerSetting(float(q2q), float(q2h)))
            records.append(
                CountRecord(
                    MeasurementSetting(label, tuple(analyzers)),
                    float(count),
                    int(shots),
                )
            )
    return records
