"""The three benchmark workloads: request generation and output checks.

Each workload turns the workload seed into a stream of CLI argument lists,
cycling through a fixed pool of requests (see Workload). The reference values
a request's output is checked against are made with the pool, before the
first timed call. References use the package's
public API; the expected file sets and input labels are the benchmark's own
copy of the report format, so a change to that format fails the checks.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_LABELS = ("0", "1", "0+1", "0-1", "0+i1", "0-i1")
SWEEP_FAMILIES = ("theta", "phi")
SWEEP_ANGLES = tuple(range(10, 90, 10))

# fig2 mean fidelity versus the exact-limit mean at 10k shots, measured over
# 40 seeds at the default noise: mean -0.0025, sd 0.0031, worst -0.0093.
FIG2_MEAN_TOLERANCE = 0.02
# Likelihood gap (see likelihood_gap) of the fig2 states, in nats. A state
# fails above FIG2_STATE_GAP; a run fails if the median over its states is
# above FIG2_MEDIAN_GAP. See README.md for the baseline figures they come from.
FIG2_STATE_GAP = 0.1
FIG2_MEDIAN_GAP = 1e-4
FIG4_FIDELITY_TOLERANCE = 1e-6
# The targets are reachable, so the fit must come well inside the CLI's own
# 0.05 tolerance: a search that stops at that tolerance fails. Of 64 fits over
# pool blocks 0-15, 56 ended near 5e-9; in the other 8 the search stalled
# after 660-850 evaluations at 3e-5 to 6e-3.
CALIBRATION_RESIDUAL = 0.02
CALIBRATION_REPRODUCE_TOLERANCE = 1e-12
POOL_SPAN = 1000


@dataclass
class Request:
    argv: list[str]
    reference: object
    key: int = -1


def likelihood_gap(pq, rho, records) -> float:
    """How far rho's log-likelihood can be below the maximum, in nats.

    This is the Frank-Wolfe duality gap of the objective tomo.mle maximises,
    sum_k n_k log tr(T_k sigma) over unit-trace sigma >= 0, where the T_k are
    the shot-weighted projectors whitened to sum to the identity and sigma is
    rho in that frame. The objective is concave, so its maximum is at most
    lambda_max(G) - tr(G sigma) above the value at sigma, with G the gradient.
    Projectors come from the scheme's settings by label, not from the angles
    the count file rounds.
    """
    settings = {s.label: s for s in pq.measure.tomo_settings(rho.num_qubits, pq.measure.MINIMAL)}
    n = np.array([rec.count for rec in records])
    shots = np.array([float(rec.shots_nominal) for rec in records])
    projectors = np.stack(
        [w * pq.measure.setting_projector(settings[rec.setting.label]) for w, rec in zip(shots / shots.max(), records)]
    )
    ew, ev = np.linalg.eigh(projectors.sum(axis=0))
    s_half = (ev * np.sqrt(ew)) @ ev.conj().T
    s_inv_half = (ev / np.sqrt(ew)) @ ev.conj().T
    whitened = s_inv_half @ projectors @ s_inv_half
    sigma = s_half @ rho.matrix @ s_half
    sigma /= np.real(np.trace(sigma))
    probs = np.real(np.einsum("kij,ji->k", whitened, sigma))
    gradient = np.einsum("k,kij->ij", n / probs, whitened)
    return float(np.linalg.eigvalsh(0.5 * (gradient + gradient.conj().T))[-1] - n.sum())


def _visibilities(rng) -> list[float]:
    return [float(v) for v in rng.uniform(0.85, 1.0, 3)]


def _triple(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _file_set(out: Path) -> set[str]:
    return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}


def _missing_or_extra(out: Path, expected: set[str]) -> list[str]:
    found = _file_set(out)
    if found == expected:
        return []
    return [f"file set differs: missing {sorted(expected - found)}, extra {sorted(found - expected)}"]


class Workload:
    """A fixed pool of requests, served in a cycle whose order the seed shuffles.

    Seeds in one block of POOL_SPAN (0-999, 1000-1999, ...) share one pool,
    drawn from the block number, so runs with different seeds of a block send
    the same mix of requests and their spread is the machine's, not the
    draw's. Another block gives requests not seen before, to check a claim on.
    """

    tag: int
    pool_size: int

    def __init__(self, pq, seed: int):
        self.pq = pq
        rng = np.random.default_rng([seed // POOL_SPAN, self.tag])
        self.pool = [self.make(rng) for _ in range(self.pool_size)]
        for key, request in enumerate(self.pool):
            request.key = key
        self.order = np.random.default_rng([seed, self.tag]).permutation(self.pool_size)
        self.served = 0

    def make(self, rng) -> Request:
        raise NotImplementedError

    def next(self) -> Request:
        request = self.pool[self.order[self.served % self.pool_size]]
        self.served += 1
        return request

    def finish(self) -> list[str]:
        """Checks over the whole run, made after its last request."""
        return []


class Fig2Sampled(Workload):
    """fig2, default noise, minimal scheme, 10k shots; the run seed varies."""

    name = "fig2-sampled"
    expected_files = (
        {"fig2.csv", "fig2_summary.txt"}
        | {f"fig2_counts/{label}.csv" for label in REFERENCE_LABELS}
        | {f"fig2_states/{label}.json" for label in REFERENCE_LABELS}
    )

    tag = 2
    pool_size = 12

    def __init__(self, pq, seed: int):
        self.exact_mean = pq.cli.exact_pipeline_means(pq.cli.load_default_noise())[0]
        self.gaps = []
        super().__init__(pq, seed)

    def make(self, rng) -> Request:
        run_seed = int(rng.integers(0, 2**31))
        argv = ["fig2", "--scheme", "minimal", "--shots", "10000", "--seed", str(run_seed)]
        return Request(argv, self.exact_mean)

    def check(self, request: Request, out: Path) -> list[str]:
        problems = _missing_or_extra(out, self.expected_files)
        if problems:
            return problems
        for label in REFERENCE_LABELS:
            try:
                rho = self.pq.qcore.load_density_matrix(out / "fig2_states" / f"{label}.json")
            except ValueError as exc:
                problems.append(f"state {label} is not a valid density matrix: {exc}")
                continue
            if rho.num_qubits != 2:
                problems.append(f"state {label} has {rho.num_qubits} qubits")
                continue
            try:
                records = self.pq.measure.read_count_records(out / "fig2_counts" / f"{label}.csv")
                gap = likelihood_gap(self.pq, rho, records)
            except (ValueError, KeyError) as exc:
                problems.append(f"counts of state {label} do not fit the minimal scheme: {exc!r}")
                continue
            self.gaps.append(gap)
            if not gap <= FIG2_STATE_GAP:
                problems.append(f"state {label} is {gap:.3g} nats short of the maximum likelihood")
        match = re.search(r"^mean fidelity: ([-+0-9.e]+)$", (out / "fig2_summary.txt").read_text(), re.M)
        if match is None:
            problems.append("fig2_summary.txt reports no mean fidelity")
        elif abs(float(match.group(1)) - request.reference) > FIG2_MEAN_TOLERANCE:
            problems.append(
                f"mean fidelity {match.group(1)} is not within {FIG2_MEAN_TOLERANCE} "
                f"of the exact-limit {request.reference:.6f}"
            )
        return problems

    def finish(self) -> list[str]:
        if not self.gaps:
            return []
        median = float(np.median(self.gaps))
        print(f"  likelihood gap over {len(self.gaps)} states: median {median:.3g}, max {max(self.gaps):.3g} nats")
        if not median <= FIG2_MEDIAN_GAP:
            return [f"median likelihood gap {median:.3g} nats is above {FIG2_MEDIAN_GAP}"]
        return []


class Fig4Exact(Workload):
    """fig4 --exact with visibilities drawn uniformly from [0.85, 1]."""

    name = "fig4-exact"
    expected_files = {"fig4.csv", "fig4_summary.txt"}

    tag = 4
    pool_size = 16

    def __init__(self, pq, seed: int):
        root = 1.0 / np.sqrt(2.0)
        amplitudes = (
            [1.0, 0.0], [0.0, 1.0], [root, root], [root, -root], [root, 1j * root], [root, -1j * root]
        )
        self.inputs = [(label, pq.PureState(1, amps)) for label, amps in zip(REFERENCE_LABELS, amplitudes)]
        self.inputs += [
            (f"{family}{angle}", pq.prepare_input(family, angle).state)
            for family in SWEEP_FAMILIES
            for angle in SWEEP_ANGLES
        ]
        super().__init__(pq, seed)

    def make(self, rng) -> Request:
        v = _visibilities(rng)
        noise = self.pq.NoiseModel(*v)
        expected = {}
        for label, psi in self.inputs:
            _, encoded = self.pq.encode(psi, gate=noise)
            for qubit in (1, 2):
                for outcome in (0, 1):
                    decoded = self.pq.decode(encoded, qubit, outcome, correct=True)
                    expected[(label, qubit, outcome)] = self.pq.fidelity(decoded.state, psi)
        return Request(["fig4", "--exact", "--noise", _triple(v)], expected)

    def check(self, request: Request, out: Path) -> list[str]:
        problems = _missing_or_extra(out, self.expected_files)
        if problems:
            return problems
        with open(out / "fig4.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        found = {(r["input"], int(r["qubit"]), int(r["outcome"])): float(r["fidelity"]) for r in rows}
        if len(rows) != len(request.reference) or found.keys() != request.reference.keys():
            return [f"fig4.csv has {len(rows)} rows that do not match the {len(request.reference)} expected cells"]
        for key, want in request.reference.items():
            if abs(found[key] - want) > FIG4_FIDELITY_TOLERANCE:
                problems.append(f"fig4 cell {key}: fidelity {found[key]} differs from exact {want}")
        return problems


class Calibrate(Workload):
    """calibrate --targets set to the exact pipeline means of a drawn model."""

    name = "calibrate"
    expected_files = {"calibration.json", "calibrate_summary.txt"}

    tag = 6
    pool_size = 4

    def __init__(self, pq, seed: int):
        self.residuals = []
        super().__init__(pq, seed)

    def make(self, rng) -> Request:
        targets = self.pq.cli.exact_pipeline_means(self.pq.NoiseModel(*_visibilities(rng)))
        return Request(["calibrate", "--targets", _triple(targets)], [float(t) for t in targets])

    def check(self, request: Request, out: Path) -> list[str]:
        problems = _missing_or_extra(out, self.expected_files)
        if problems:
            return problems
        report = json.loads((out / "calibration.json").read_text())
        if report["targets"] != request.reference:
            problems.append(f"calibration.json targets {report['targets']} are not the requested ones")
        self.residuals.append(max(report["residuals"]))
        if max(report["residuals"]) > CALIBRATION_RESIDUAL:
            problems.append(f"residuals {report['residuals']} exceed {CALIBRATION_RESIDUAL}")
        again = self.pq.cli.exact_pipeline_means(self.pq.NoiseModel.from_dict(report["noise"]))
        if max(abs(a - b) for a, b in zip(again, report["achieved"])) > CALIBRATION_REPRODUCE_TOLERANCE:
            problems.append(f"fitted model gives means {list(again)}, report says {report['achieved']}")
        return problems

    def finish(self) -> list[str]:
        if self.residuals:
            median, worst = float(np.median(self.residuals)), max(self.residuals)
            print(f"  largest residual of {len(self.residuals)} fits: median {median:.3g}, max {worst:.3g}")
        return []


WORKLOADS = {w.name: w for w in (Fig2Sampled, Fig4Exact, Calibrate)}
