"""Simulation toolkit for a two-qubit parity code on photonic qubits.

The package models a non-deterministic linear-optical CNOT at the optical-mode
level, photon-counting measurement with Poisson shot noise, maximum-likelihood
state tomography, the parity encode/measure/correct cycle that protects a
qubit against a computational-basis measurement, and a teleportation-based
success/abort bookkeeping layer. A command-line driver reproduces the summary
tables and scans of the accompanying experiment analysis.
"""

__version__ = "0.1.0"

from .cnotgate import NoiseModel, build_mode_network, noisy_cnot, postselect_cnot
from .codec import decode, encode, ideal_encoded, parity_extend
from .measure import expected_counts, simulate_counts, tomo_settings
from .optics import prepare_input
from .qcore import (
    DensityMatrix,
    HermitianMatrix,
    ImpossibleOutcomeError,
    PureState,
    conditional_state,
    fidelity,
    pure_state,
)
from .teleport import (
    attempt_success_prob,
    encoded_teleport_success,
    simulate_teleport,
)
from .tomo import TomographyResult, linear_inversion, mle

__all__ = [
    "__version__",
    "DensityMatrix",
    "HermitianMatrix",
    "ImpossibleOutcomeError",
    "NoiseModel",
    "PureState",
    "TomographyResult",
    "attempt_success_prob",
    "build_mode_network",
    "conditional_state",
    "decode",
    "encode",
    "encoded_teleport_success",
    "expected_counts",
    "fidelity",
    "ideal_encoded",
    "linear_inversion",
    "mle",
    "noisy_cnot",
    "parity_extend",
    "postselect_cnot",
    "prepare_input",
    "pure_state",
    "simulate_counts",
    "simulate_teleport",
    "tomo_settings",
]
