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
    PureState,
    _normalised,
    _z_blocks,
    kron,
)

SAMPLED = "sampled"

MAX_CODE_QUBITS = 6

# |H> through the half-wave plate: the first column of its Jones matrix
_CONTROL_PLUS = PureState(1, waveplate(WaveplateSetting(HWP, 22.5))[:, 0])


@dataclass(frozen=True, eq=False)
class DecodedResult:
    """Outcome of Z-measuring one code qubit, optionally bit-flip corrected."""

    outcome: int
    probability: float
    state: DensityMatrix
    corrected: bool


def ideal_encoded(psi: PureState) -> PureState:
    """The exact code state a(|00>+|11>)/sqrt2 + b(|01>+|10>)/sqrt2."""
    return parity_extend(psi, 2)


def encode(psi: PureState, gate: NoiseModel = NoiseModel()) -> tuple[float, DensityMatrix]:
    """Run the payload through the encoder CNOT.

    Args:
        psi: 1-qubit payload, becomes the target input.
        gate: the gate's visibilities; the default (1, 1, 1) is the ideal
            gate. The channel is cnotgate.noisy_cnot, as in the CLI.

    Returns:
        (coincidence probability, encoded 2-qubit state).
    """
    if psi.num_qubits != 1:
        raise ValueError("the code encodes a single qubit")
    return noisy_cnot(kron(_CONTROL_PLUS, psi).density(), gate)


def decode(
    rho: DensityMatrix,
    measured_qubit: int = 1,
    outcome: int | str = 0,
    correct: bool = True,
    rng: np.random.Generator | None = None,
) -> DecodedResult:
    """Z-measure one code qubit and return the surviving register.

    Args:
        rho: the code state (2 or more qubits).
        measured_qubit: 1-based index of the qubit to measure.
        outcome: 0, 1, or SAMPLED to draw from the state's own statistics.
        correct: apply the X correction when the outcome is 1, so the result
            targets the original payload rather than its bit-flipped twin.
        rng: required when outcome == SAMPLED.

    Returns:
        DecodedResult with the post-measurement (n-1)-qubit state.
    """
    if outcome == SAMPLED and rng is None:
        raise ValueError("sampled decoding requires an rng")
    blocks = _z_blocks(rho.matrix, measured_qubit)
    if outcome == SAMPLED:
        outcome = 0 if rng.random() < np.real(np.trace(blocks[0])) else 1
    prob, rest = _normalised(blocks, measured_qubit, outcome)
    applied = bool(correct) and outcome == 1
    rest = _flip_first(rest) if applied else rest
    return DecodedResult(outcome, prob, DensityMatrix(rho.num_qubits - 1, rest), applied)


def _flip_first(mats: np.ndarray) -> np.ndarray:
    """The X correction: the first qubit's row and column bit of each (..., d, d) reversed.

    X on any one qubit of a parity-code register flips the logical qubit.
    """
    half = mats.shape[-1] // 2
    return mats.reshape(mats.shape[:-2] + (2, half, 2, half))[..., ::-1, :, ::-1, :].reshape(mats.shape)


def _decode_batch(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All four corrected Z decodings of a stack of 2-qubit states, (n, 4, 4).

    Each decoding is a Z block of qubit 1 or 2 (qcore._z_blocks), normalised by
    its trace (the outcome probability) and X-corrected after outcome 1.

    Returns (outcome probabilities (n, 2, 2), decoded states (n, 2, 2, 2, 2)),
    indexed [input, measured qubit - 1, outcome]. An outcome below PROB_FLOOR
    raises ImpossibleOutcomeError. A Z block of a PSD matrix is PSD and the X
    correction a permutation, so decoding density matrices needs no check.
    """
    # concatenate, not stack, and the 2x2 trace written out: cheaper per call
    blocks = np.concatenate([_z_blocks(states, 1)[:, None], _z_blocks(states, 2)[:, None]], axis=1)
    probs = (blocks[..., 0, 0] + blocks[..., 1, 1]).real
    if probs.min() < PROB_FLOOR:
        cell, qubit, outcome = np.unravel_index(np.argmin(probs), probs.shape)
        _normalised(blocks[cell, qubit], qubit + 1, outcome)  # raises ImpossibleOutcomeError
    decoded = blocks / probs[..., None, None]
    decoded[:, :, 1] = _flip_first(decoded[:, :, 1])
    return probs, decoded


def parity_extend(psi: PureState, n: int) -> PureState:
    """The n-qubit parity-code state of a 1-qubit payload.

    Amplitude a/sqrt(2^(n-1)) on every even-parity basis string and
    b/sqrt(2^(n-1)) on every odd-parity one; n = 2 is ideal_encoded.
    """
    if psi.num_qubits != 1:
        raise ValueError("the code encodes a single qubit")
    if not 2 <= n <= MAX_CODE_QUBITS:
        raise ValueError(f"n must lie in [2, {MAX_CODE_QUBITS}]")
    a, b = psi.amplitudes
    odd = np.array([bin(idx).count("1") % 2 for idx in range(2**n)], dtype=bool)
    return PureState(n, np.where(odd, b, a) / np.sqrt(2.0 ** (n - 1)))
