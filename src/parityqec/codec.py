"""Parity-code encode, decode and bit-flip correction.

The code maps a|0> + b|1> onto a(|00>+|11>)/sqrt2 + b(|01>+|10>)/sqrt2: the
logical amplitudes ride on the parity of the register, so measuring either
qubit in the computational basis removes one qubit without destroying the
superposition. Outcome 0 leaves the remaining qubit(s) carrying (a, b);
outcome 1 leaves the bit-flipped (b, a), fixed in software by an X gate.

The encoder is a CNOT with the control photon prepared in (|0>+|1>)/sqrt2
(half-wave plate at 22.5 degrees) and the payload entering the target port.
The same construction extends the code one qubit at a time, giving uniform
amplitudes over the even- and odd-parity classes of an n-qubit register.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cnotgate import NoiseModel, noisy_cnot
from .optics import HWP, WaveplateSetting, waveplate
from .qcore import (
    PROB_FLOOR,
    DensityMatrix,
    ImpossibleOutcomeError,
    PureState,
    _check_density,
    _conditional_block,
    kron,
)

PROVENANCE_IDEAL = "ideal"
PROVENANCE_GATE = "gate-simulated"

SAMPLED = "sampled"

MAX_CODE_QUBITS = 6

# |H> through the half-wave plate: the first column of its Jones matrix
_CONTROL_PLUS = PureState(1, waveplate(WaveplateSetting(HWP, 22.5))[:, 0])


@dataclass(frozen=True, eq=False)
class EncodedState:
    """A code-qubit register plus bookkeeping about where it came from."""

    state: DensityMatrix
    provenance: str

    def __post_init__(self):
        if self.provenance not in (PROVENANCE_IDEAL, PROVENANCE_GATE):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def num_qubits(self) -> int:
        return self.state.num_qubits


@dataclass(frozen=True, eq=False)
class DecodedResult:
    """Outcome of Z-measuring one code qubit, optionally bit-flip corrected."""

    outcome: int
    probability: float
    state: DensityMatrix
    corrected: bool

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError("probability out of range")


def ideal_encoded(psi: PureState) -> PureState:
    """The exact code state a(|00>+|11>)/sqrt2 + b(|01>+|10>)/sqrt2."""
    if psi.num_qubits != 1:
        raise ValueError("the code encodes a single qubit")
    a, b = psi.amplitudes
    return PureState(2, np.array([a, b, b, a]) / np.sqrt(2.0))


def encode(psi: PureState, gate: str | NoiseModel = "ideal") -> tuple[float, EncodedState]:
    """Run the payload through the encoder CNOT.

    Args:
        psi: 1-qubit payload, becomes the target input.
        gate: "ideal" for the gate at visibilities (1, 1, 1), or a NoiseModel.
            Both run the same channel (cnotgate.noisy_cnot) as the CLI does.

    Returns:
        (coincidence probability, encoded 2-qubit state).
    """
    if psi.num_qubits != 1:
        raise ValueError("the code encodes a single qubit")
    if isinstance(gate, str):
        if gate != "ideal":
            raise ValueError(f"gate must be 'ideal' or a NoiseModel, got {gate!r}")
        gate, provenance = NoiseModel.ideal(), PROVENANCE_IDEAL
    else:
        provenance = PROVENANCE_GATE
    prob, rho = noisy_cnot(kron(_CONTROL_PLUS, psi).density(), gate)
    return prob, EncodedState(rho, provenance)


def decode(
    encoded: EncodedState,
    measured_qubit: int = 1,
    outcome: int | str = 0,
    correct: bool = True,
    rng: np.random.Generator | None = None,
) -> DecodedResult:
    """Z-measure one code qubit and return the surviving register.

    Args:
        encoded: the code state (2 or more qubits).
        measured_qubit: 1-based index of the qubit to measure.
        outcome: 0, 1, or SAMPLED to draw from the state's own statistics.
        correct: apply the X correction when the outcome is 1, so the result
            targets the original payload rather than its bit-flipped twin.
        rng: required when outcome == SAMPLED.

    Returns:
        DecodedResult with the post-measurement (n-1)-qubit state.
    """
    rho = encoded.state
    if outcome == SAMPLED:
        if rng is None:
            raise ValueError("sampled decoding requires an rng")
        n = rho.num_qubits
        if not 1 <= measured_qubit <= n:
            raise ValueError(f"qubit index {measured_qubit} out of range for {n} qubits")
        # the diagonal entries whose measured bit is 0
        diag = np.real(rho.matrix.diagonal()).reshape(2 ** (measured_qubit - 1), 2, -1)
        p0 = float(diag[:, 0].sum())
        outcome = 0 if rng.random() < p0 else 1
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0, 1 or SAMPLED")
    prob, rest = _conditional_block(rho, measured_qubit, outcome)
    applied = bool(correct) and outcome == 1
    if applied:
        # flipping any single qubit of a parity-code register flips the
        # logical qubit; X on the first remaining one reverses its row and
        # column index
        dim = rest.shape[0]
        rest = rest.reshape(2, dim // 2, 2, dim // 2)[::-1, :, ::-1, :].reshape(dim, dim)
    return DecodedResult(outcome, prob, DensityMatrix(rho.num_qubits - 1, rest), applied)


def _decode_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All four corrected Z decodings of a stack of 2-qubit states, (n, 4, 4).

    Reshaped to (2, 2, 2, 2), a state holds its decodings as conditional 2x2
    blocks: qubit 1 with outcome o is the [o, :, o, :] block, qubit 2 the
    [:, o, :, o] one, each normalised by its trace (the outcome probability).
    The X correction after outcome 1 swaps the two surviving amplitudes.

    Returns (outcome probabilities (n, 2, 2), decoded states (n, 2, 2, 2, 2)),
    indexed [input, measured qubit - 1, outcome]. An outcome below PROB_FLOOR
    raises ImpossibleOutcomeError, and the decoded states are validated as
    density matrices in one batched check.
    """
    t = states.reshape(-1, 2, 2, 2, 2)
    blocks = np.stack([np.einsum("noaob->noab", t), np.einsum("naobo->noab", t)], axis=1)
    probs = np.real(np.trace(blocks, axis1=-2, axis2=-1))
    if probs.min() < PROB_FLOOR:
        _, qubit, outcome = np.unravel_index(np.argmin(probs), probs.shape)
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {qubit + 1} has probability {probs.min():.3e}"
        )
    decoded = blocks / probs[..., None, None]
    decoded[:, :, 1] = decoded[:, :, 1, ::-1, ::-1]
    _check_density(decoded)
    return probs, decoded


def parity_extend(psi: PureState, n: int) -> PureState:
    """The n-qubit parity-code state of a 1-qubit payload.

    Amplitude a/sqrt(2^(n-1)) on every even-parity basis string and
    b/sqrt(2^(n-1)) on every odd-parity one; n = 2 reduces to ideal_encoded.
    """
    if psi.num_qubits != 1:
        raise ValueError("the code encodes a single qubit")
    if not 2 <= n <= MAX_CODE_QUBITS:
        raise ValueError(f"n must lie in [2, {MAX_CODE_QUBITS}]")
    a, b = psi.amplitudes
    scale = 1.0 / np.sqrt(2.0 ** (n - 1))
    amps = np.empty(2**n, dtype=complex)
    for idx in range(2**n):
        amps[idx] = (a if bin(idx).count("1") % 2 == 0 else b) * scale
    return PureState(n, amps)

