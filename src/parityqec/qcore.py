"""Small-n qubit state algebra.

Pure states, density matrices, conditioning and fidelity for the
one- and two-qubit (and small n) systems the rest of the package works with.
Qubit 1 is the leftmost tensor factor; the computational basis is ordered
|00>, |01>, |10>, |11> (and likewise for larger registers).

All values are immutable: every operation returns new objects and the wrapped
numpy arrays are marked read-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Validation tolerances shared across the package.
NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
PROB_FLOOR = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Raised when conditioning on an outcome of probability below PROB_FLOOR."""


def _as_complex_array(values, copy: bool = True) -> np.ndarray:
    arr = np.array(values, dtype=complex, copy=copy)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("amplitudes/matrix entries must be finite")
    return arr


def _check_density(mat: np.ndarray) -> None:
    """Raise ValueError unless mat is a density matrix: DensityMatrix's check, the only one."""
    if np.abs(mat - mat.conj().T).max() > HERMITIAN_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    if abs(np.trace(mat) - 1.0) > TRACE_ATOL:
        raise ValueError("matrix trace differs from 1 beyond tolerance")
    if np.linalg.eigvalsh(mat).min() < EIGENVALUE_FLOOR:
        raise ValueError("matrix has a negative eigenvalue beyond tolerance")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over 2^num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        amps = _as_complex_array(self.amplitudes).reshape(-1)
        if amps.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {amps.shape[0]}"
            )
        norm = np.linalg.norm(amps)
        if norm < NORM_ATOL:
            raise ValueError("cannot normalize a zero state vector")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        """Return |psi><psi| as a DensityMatrix."""
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace matrix over 2^num_qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        dim = 2**self.num_qubits
        mat = _as_complex_array(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {mat.shape}")
        _check_density(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Hermitian unit-trace matrix that may fail positivity.

    Linear-inversion tomography under shot noise lands here; it only becomes a
    DensityMatrix after a maximum-likelihood projection.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2**self.num_qubits
        mat = _as_complex_array(self.matrix)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def pure_state(amplitudes) -> PureState:
    """Build a PureState from raw amplitudes, inferring the qubit count."""
    amps = _as_complex_array(amplitudes).reshape(-1)
    n = amps.shape[0].bit_length() - 1
    if 2**n != amps.shape[0]:
        raise ValueError("amplitude count must be a power of two")
    return PureState(n, amps)


def kron(a: PureState, b: PureState) -> PureState:
    """Tensor product; 'a' occupies the leading (leftmost) qubits."""
    return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def _fidelity_batch(kets: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> of each ket (..., d) with its state (..., d, d), clipped to [0, 1].

    The leading axes broadcast, so one call scores a whole stack.
    """
    values = np.einsum("...a,...ab,...b->...", kets.conj(), states, kets)
    return np.clip(np.real(values), 0.0, 1.0)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Fidelity <psi|rho|psi> of a state with a pure target.

    Invariant under any global phase on the target. The result is clipped to
    [0, 1]; numerical excursions beyond the interval stay below 1e-12.
    """
    if rho.num_qubits != target.num_qubits:
        raise ValueError("dimension mismatch between state and target")
    return float(_fidelity_batch(target.amplitudes, rho.matrix))


def conditional_state(rho: DensityMatrix, measured: int, outcome: int) -> tuple[float, DensityMatrix]:
    """Condition on a computational-basis measurement of one qubit.

    Args:
        rho: n-qubit density matrix, n >= 2.
        measured: 1-based index of the measured qubit.
        outcome: 0 or 1.

    Returns:
        (probability, normalized (n-1)-qubit state of the remaining qubits).

    Raises:
        ImpossibleOutcomeError: outcome probability is below PROB_FLOOR.
    """
    prob, block = _normalised(_z_blocks(rho.matrix, measured), measured, outcome)
    return prob, DensityMatrix(rho.num_qubits - 1, block)


def _z_blocks(mats: np.ndarray, measured: int) -> np.ndarray:
    """Unnormalised Z-measurement blocks of one qubit, for a stack of matrices.

    mats is (..., d, d) over n >= 2 qubits; the result is (..., 2, d/2, d/2),
    indexed by outcome. Block o keeps the rows and columns whose measured bit
    is o, so its trace is the outcome's probability.
    """
    dim = mats.shape[-1]
    n = dim.bit_length() - 1
    if n < 2:
        raise ValueError("conditioning needs at least 2 qubits")
    if not 1 <= measured <= n:
        raise ValueError(f"qubit index {measured} out of range for {n} qubits")
    split = (2 ** (measured - 1), 2, dim >> measured)  # qubits before, measured, after
    blocks = np.einsum("...aobcod->...oabcd", mats.reshape(mats.shape[:-2] + split + split))
    return blocks.reshape(blocks.shape[:-4] + (dim // 2, dim // 2))


def _normalised(blocks: np.ndarray, measured: int, outcome: int) -> tuple[float, np.ndarray]:
    """Probability and normalised block of one outcome of _z_blocks, not yet validated."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    block = blocks[outcome]
    prob = float(np.real(np.trace(block)))
    if prob < PROB_FLOOR:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {measured} has probability {prob:.3e}"
        )
    return prob, block / prob


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def density_matrix_to_dict(rho: DensityMatrix | HermitianMatrix) -> dict:
    """Serialize as {"num_qubits": n, "re": row-major, "im": row-major}."""
    return _matrix_to_dict(rho.matrix)


def _matrix_to_dict(matrix: np.ndarray) -> dict:
    flat = matrix.reshape(-1)
    return {
        "num_qubits": matrix.shape[0].bit_length() - 1,
        "re": [float(x) for x in flat.real],
        "im": [float(x) for x in flat.imag],
    }


def density_matrix_from_dict(data: dict) -> DensityMatrix:
    if not isinstance(data, dict) or not {"num_qubits", "re", "im"} <= data.keys():
        raise ValueError("density-matrix data needs the keys num_qubits, re and im")
    n = data["num_qubits"]
    if type(n) is not int or n < 1:
        raise ValueError(f"num_qubits must be a positive integer; got {n!r}")
    dim = 2**n
    mat = (np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)).reshape(dim, dim)
    return DensityMatrix(n, mat)


def save_density_matrix(rho: DensityMatrix | HermitianMatrix, path) -> None:
    _save_matrix(rho.matrix, path)


def _save_matrix(matrix: np.ndarray, path) -> None:
    """Write a (d, d) density matrix held as a bare array."""
    with open(path, "w") as fh:
        json.dump(_matrix_to_dict(matrix), fh, indent=1)
        fh.write("\n")


def load_density_matrix(path) -> DensityMatrix:
    with open(path) as fh:
        return density_matrix_from_dict(json.load(fh))
