"""Teleportation-failure bookkeeping for the parity code.

A non-deterministic teleportation step succeeds with probability n/(n+1)
(the ancilla-size law of the underlying protocol). When it fails it performs
a computational-basis measurement on the qubit it consumed. Unencoded, that
failure destroys the payload; on a parity-code register it merely shortens
the code by one qubit, because the Z outcome is a fair coin whose value only
toggles the logical bit, fixable by an X correction.

The simulation follows a width-2 code: a failed attempt Z-measures a code
qubit (outcome 0 or 1 with probability 1/2 each, outcome 1 recorded with an
X correction); a successful attempt teleports the payload up to the standard
Bell-outcome Pauli frame, which the recorded X/Z corrections undo. One
bookkeeping convention (documented here, asserted by tests): when the last
code qubit's attempt fails there is nothing left to protect the payload
with, and the protocol abandons the attempt with the state intact; the
recorded terminal z outcome is drawn from the payload's own Z statistics
(0 with probability |a|^2) but nothing is collapsed or corrected. In this
ideal model every branch therefore ends with the payload state unchanged,
so no register is tracked: the final state is the payload's density matrix,
and what failure costs is the gate the teleportation was meant to apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, PureState

BELL_LABELS = ("00", "01", "10", "11")

# Pauli-frame corrections undoing each Bell outcome.
BELL_CORRECTIONS = {
    "00": (),
    "01": ("X",),
    "10": ("Z",),
    "11": ("X", "Z"),
}


@dataclass(frozen=True)
class AttemptRecord:
    """One teleportation attempt: either a Bell outcome or a failure Z value."""

    success: bool
    z_outcome: int | None = None
    bell_outcome: str | None = None

    def __post_init__(self):
        if self.success:
            if self.bell_outcome not in BELL_LABELS or self.z_outcome is not None:
                raise ValueError("successful attempt carries only a Bell outcome")
        else:
            if self.z_outcome not in (0, 1) or self.bell_outcome is not None:
                raise ValueError("failed attempt carries only a z outcome")


@dataclass(frozen=True, eq=False)
class TeleportOutcome:
    attempts: tuple[AttemptRecord, ...]
    corrections_applied: tuple[str, ...]
    final_state: DensityMatrix
    overall_success: bool


def attempt_success_prob(n: int) -> float:
    """Success probability n/(n+1) of a single teleportation attempt."""
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    return n / (n + 1.0)


def encoded_teleport_success(n: int, code_width: int) -> float:
    """Probability that at least one of code_width attempts succeeds.

    Overall failure needs every attempt to fail, each with probability
    1/(n+1), so the success probability is 1 - (n+1)^(-code_width).
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    if int(code_width) != code_width or code_width < 1:
        raise ValueError("code_width must be a positive integer")
    return 1.0 - (1.0 / (n + 1.0)) ** code_width


def _run(psi: PureState, decide_success, decide_z, decide_bell) -> TeleportOutcome:
    """Shared trajectory logic; decision callables supply the randomness.

    decide_z gets the probability of z = 0: 1/2 for the first failure, which
    measures a code qubit, and |a|^2 for the terminal one, which reads the
    payload itself.
    """
    attempts: list[AttemptRecord] = []
    corrections: list[str] = []
    for terminal, p0 in ((False, 0.5), (True, abs(psi.amplitudes[0]) ** 2)):
        if decide_success():
            bell = decide_bell()
            corrections.extend(BELL_CORRECTIONS[bell])
            attempts.append(AttemptRecord(True, bell_outcome=bell))
            break
        z = decide_z(p0)
        attempts.append(AttemptRecord(False, z_outcome=z))
        # a terminal failure abandons the attempt: nothing is corrected
        if z == 1 and not terminal:
            corrections.append("X")
    return TeleportOutcome(
        attempts=tuple(attempts),
        corrections_applied=tuple(corrections),
        final_state=psi.density(),
        overall_success=attempts[-1].success,
    )


def simulate_teleport(alpha: complex, beta: complex, n: int, seed: int = 0) -> TeleportOutcome:
    """One random teleportation history of the width-2 encoded payload.

    Draw order per attempt: the success Bernoulli first, then the z outcome
    (on failure) or the uniform Bell outcome (on success), all from a single
    PCG64 generator seeded with seed.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("payload amplitudes must be normalized")
    p_success = attempt_success_prob(n)
    psi = PureState(1, [alpha, beta])
    rng = np.random.default_rng(seed)
    return _run(
        psi,
        decide_success=lambda: bool(rng.random() < p_success),
        decide_z=lambda p0: 0 if rng.random() < p0 else 1,
        decide_bell=lambda: BELL_LABELS[rng.integers(4)],
    )


def monte_carlo_success(n: int, code_width: int, trials: int, seed: int = 0) -> float:
    """Monte Carlo estimate of encoded_teleport_success by direct sampling."""
    if trials < 1:
        raise ValueError("trials must be positive")
    p = attempt_success_prob(n)
    rng = np.random.default_rng(seed)
    draws = rng.random(size=(trials, code_width))
    return float(np.mean(np.any(draws < p, axis=1)))
