"""Reference calculations used only by the tests.

The two-photon maps deliberately avoid the package's direct/exchange operator
construction: the bosonic output is expanded photon by photon over the full
21-dimensional two-photon Fock space of the six modes, and the coincidence
block is read off at the end. Agreement between this route and the production
operators is what the gate tests assert.

The noisy-channel and pipeline oracles start from those (tested) operators
but take the slow road from there: the gate summed over its four dephasing
branches, and the pipeline means computed one encode/decode/fidelity cell at
a time, each decoding gathered index by index. The production code contracts
precomputed terms over a batch instead.

The state-algebra, measurement, codec, optics and teleport helpers at the
end are independent references that the program itself has no use for:
general fidelity, trace distance, the minimum eigenvalue, single-qubit
operators embedded in a register, partial trace, Pauli expectations,
operator application, linear inversion over the Pauli basis, Z blocks
gathered by index arithmetic and corrected by embedded operators, the
preparation recipe run through the wave plates, the analyzed states, the
exact Z statistics of the width-2 code, and the teleport protocol replayed
along a forced decision sequence.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from parityqec.cli import REFERENCE_INPUTS, SWEEP_ANGLES
from parityqec.cnotgate import _network_unitary, _two_photon_operators, postselect_cnot
from parityqec.codec import ideal_encoded, parity_extend
from parityqec.measure import setting_projector
from parityqec.optics import PHI_FAMILY, THETA_FAMILY, TRANSMITTED, _composed, prepare_input
from parityqec.qcore import (
    DensityMatrix,
    PureState,
    _as_complex_array,
    fidelity,
    kron,
    pure_state,
)
from parityqec.teleport import _run

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

CONTROL_MODES = (1, 2)
TARGET_MODES = (3, 4)


def bosonic_output(u, mode_c, mode_t):
    """Full two-photon output state for photons injected in two distinct modes.

    Returns a dict mapping unordered mode pairs (m <= n) to the coefficient
    of the normalized Fock state (|1_m 1_n> for m < n, |2_m> for m == n).
    """
    if mode_c == mode_t:
        raise ValueError("input photons occupy distinct modes")
    six = u.shape[0]
    coeffs = {}
    for m in range(six):
        for n in range(six):
            amp = u[m, mode_c] * u[n, mode_t]
            key = (min(m, n), max(m, n))
            coeffs[key] = coeffs.get(key, 0.0 + 0.0j) + amp
    # a_m^dag a_m^dag |0> = sqrt(2) |2_m>, and the ordered double loop visits
    # (m, m) only once, so the coefficient on the normalized |2_m> picks up
    # a factor sqrt(2).
    for m in range(six):
        coeffs[(m, m)] = coeffs[(m, m)] * np.sqrt(2.0)
    return coeffs


def bosonic_total_probability(u, mode_c, mode_t):
    coeffs = bosonic_output(u, mode_c, mode_t)
    return sum(abs(a) ** 2 for a in coeffs.values())


def bosonic_coincidence_map(u):
    """4x4 coincidence-basis map assembled column by column from basis inputs."""
    mat = np.zeros((4, 4), dtype=complex)
    cols = [(c, t) for c in CONTROL_MODES for t in TARGET_MODES]
    rows = [(k, l) for k in CONTROL_MODES for l in TARGET_MODES]
    for j, (c, t) in enumerate(cols):
        coeffs = bosonic_output(u, c, t)
        for i, (k, l) in enumerate(rows):
            mat[i, j] = coeffs[(min(k, l), max(k, l))]
    return mat


def distinguishable_coincidence_probs(u, mode_c, mode_t):
    """Coincidence outcome probabilities for two labeled (classical) photons.

    Photon 1 enters mode_c, photon 2 enters mode_t; each propagates
    independently and probabilities, not amplitudes, are summed over which
    photon landed where.
    """
    probs = {}
    for k in CONTROL_MODES:
        for l in TARGET_MODES:
            p = abs(u[k, mode_c] * u[l, mode_t]) ** 2 + abs(u[l, mode_c] * u[k, mode_t]) ** 2
            probs[(k, l)] = p
    return probs


def branch_sum_noisy_cnot(rho_in, noise):
    """The visibility-limited gate summed branch by branch.

    Averages the four dephasing sign branches with weights (1 +- v)/2 per
    classical visibility and, within each branch, mixes the bosonic map with
    the distinguishable-photon map by v_nonclassical. Takes and returns 4x4
    arrays: (coincidence probability, normalized output).
    """
    v_nc = noise.v_nonclassical
    out = np.zeros((4, 4), dtype=complex)
    for sc in (1, -1):
        for st in (1, -1):
            weight = 0.25 * (1 + sc * noise.v_classical_control) * (
                1 + st * noise.v_classical_target
            )
            direct, exchange = _two_photon_operators(_network_unitary(sc, st))
            bosonic = direct + exchange
            term = v_nc * (bosonic @ rho_in @ bosonic.conj().T) + (1 - v_nc) * (
                direct @ rho_in @ direct.conj().T + exchange @ rho_in @ exchange.conj().T
            )
            out += weight * term
    prob = float(np.real(np.trace(out)))
    out = out / prob
    return prob, 0.5 * (out + out.conj().T)


def per_cell_pipeline_means(noise):
    """The three exact-limit pipeline means, one encode/decode/fidelity cell at a time.

    Encodes each payload with the branch-sum gate (the ideal post-selected
    gate when noise is None), conditions on each of the four Z outcomes,
    applies the X correction after outcome 1, and averages the fidelities:
    encoded over the six reference inputs, decoded over their decodings, and
    decoded over the two 8-angle sweeps.
    """
    control = PureState(1, [1.0, 1.0])

    def cell(psi):
        joint = kron(control, psi)
        if noise is None:
            encoded = postselect_cnot(joint)[1].density()
        else:
            encoded = DensityMatrix(2, branch_sum_noisy_cnot(joint.density().matrix, noise)[1])
        decoded = []
        for qubit in (1, 2):
            for outcome in (0, 1):
                prob, block = indexed_z_block(encoded.matrix, qubit, outcome)
                rest = block / prob
                if outcome == 1:
                    rest = PAULI_X @ rest @ PAULI_X
                decoded.append(fidelity(DensityMatrix(1, rest), psi))
        return fidelity(encoded, ideal_encoded(psi)), decoded

    reference = [cell(psi) for _, psi in REFERENCE_INPUTS]
    sweep = [
        cell(prepare_input(family, angle).state)
        for family in (THETA_FAMILY, PHI_FAMILY)
        for angle in SWEEP_ANGLES
    ]
    return (
        float(np.mean([enc for enc, _ in reference])),
        float(np.mean([fid for _, dec in reference for fid in dec])),
        float(np.mean([fid for _, dec in sweep for fid in dec])),
    )


# ---------------------------------------------------------------------------
# State algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Operator:
    """A complex square matrix; not necessarily unitary."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex_array(self.matrix)
        if mat.shape != (self.dimension, self.dimension):
            raise ValueError(f"expected shape {(self.dimension, self.dimension)}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def apply_to_pure(op, psi):
    """Apply an operator to a pure state and renormalize.

    Raises ValueError if the operator annihilates the state.
    """
    return pure_state(op.matrix @ psi.amplitudes)


def apply_unitary(rho, op):
    """Conjugate a density matrix by a unitary operator."""
    return DensityMatrix(rho.num_qubits, op.matrix @ rho.matrix @ op.matrix.conj().T)


def fidelity_mixed(rho, sigma):
    """General two-density-matrix fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.num_qubits != sigma.num_qubits:
        raise ValueError("dimension mismatch")
    w, u = np.linalg.eigh(rho.matrix)
    sqrt_rho = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    ew = np.linalg.eigvalsh(inner)
    value = float(np.sum(np.sqrt(np.clip(ew, 0.0, None)))) ** 2
    return min(max(value, 0.0), 1.0)


def trace_distance(a, b):
    """Trace distance (1/2)||a - b||_1 between two Hermitian matrices."""
    ew = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.sum(np.abs(ew)))


def min_eigenvalue(h):
    """Smallest eigenvalue of a Hermitian matrix (negative when positivity fails)."""
    return float(np.min(np.linalg.eigvalsh(h.matrix)))


def single_qubit_operator(op, qubit, num_qubits):
    """Embed a 2x2 matrix acting on the given 1-based qubit of an n-qubit register."""
    if not 1 <= qubit <= num_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")
    full = np.array([[1.0 + 0j]])
    for k in range(1, num_qubits + 1):
        full = np.kron(full, op if k == qubit else IDENTITY_2)
    return full


def partial_trace(rho, keep):
    """Trace out one qubit of a 2-qubit state, keeping the 1-based index 'keep'."""
    if rho.num_qubits != 2:
        raise ValueError("partial_trace expects a 2-qubit state")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    t = rho.matrix.reshape(2, 2, 2, 2)
    reduced = np.einsum("ikjk->ij", t) if keep == 1 else np.einsum("kikj->ij", t)
    return DensityMatrix(1, reduced)


def stokes(rho):
    """Pauli expectation values of a 1- or 2-qubit state.

    One qubit: (<X>, <Y>, <Z>). Two qubits: 15 values for every Pauli pair
    (P, Q) != (I, I) in row-major order over (I, X, Y, Z):
    IX, IY, IZ, XI, XX, XY, XZ, YI, YX, ..., ZZ.
    """
    paulis = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)
    if rho.num_qubits == 1:
        return tuple(float(np.real(np.trace(p @ rho.matrix))) for p in paulis[1:])
    if rho.num_qubits == 2:
        values = []
        for i, p in enumerate(paulis):
            for j, q in enumerate(paulis):
                if i == j == 0:
                    continue
                values.append(float(np.real(np.trace(np.kron(p, q) @ rho.matrix))))
        return tuple(values)
    raise ValueError("stokes supports 1- or 2-qubit states")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def pauli_linear_inversion(counts):
    """Least-squares state estimate expanded in the normalised Pauli-product basis.

    The design matrix is Tr(Pi_k B_b) over the d^2 orthonormal Hermitian
    B_b; its rank (tolerance 1e-10) must be d^2. Returns the unit-trace
    (d, d) matrix, or raises ValueError as tomo.linear_inversion does.
    """
    num_qubits = counts[0].setting.num_qubits
    dim = 2**num_qubits
    basis = []
    for combo in product((IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z), repeat=num_qubits):
        op = np.array([[1.0 + 0.0j]])
        for pauli in combo:
            op = np.kron(op, pauli)
        basis.append(op / np.sqrt(dim))
    basis = np.stack(basis)
    projectors = np.stack([setting_projector(rec.setting) for rec in counts])
    design = np.real(np.einsum("kij,bji->kb", projectors, basis))
    if np.linalg.matrix_rank(design, tol=1e-10) < dim * dim:
        raise ValueError("setting set is not informationally complete")
    freqs = np.array([rec.count / rec.shots_nominal for rec in counts])
    coeffs, *_ = np.linalg.lstsq(design, freqs, rcond=None)
    mat = np.einsum("b,bij->ij", coeffs, basis)
    mat = 0.5 * (mat + mat.conj().T)
    trace = float(np.real(np.trace(mat)))
    if abs(trace) < 1e-12:
        raise ValueError("degenerate reconstruction with near-zero trace")
    return mat / trace


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


def embedded_z_probability(rho, qubit, outcome):
    """Tr((|o><o| on one qubit) rho) through the embedded 2^n x 2^n projector."""
    proj = np.diag([1.0, 0.0] if outcome == 0 else [0.0, 1.0]).astype(complex)
    full = single_qubit_operator(proj, qubit, rho.num_qubits)
    return float(np.real(np.trace(full @ rho.matrix)))


def indexed_z_block(matrix, qubit, outcome):
    """(probability, unnormalised block) of a Z outcome, gathered index by index.

    Each remaining basis index r of the (n-1)-qubit register gets the measured
    bit inserted at the measured qubit's position (qubit 1 is the most
    significant bit); the block is the matrix restricted to those rows and
    columns, and its trace is the outcome's probability.
    """
    n = matrix.shape[0].bit_length() - 1
    shift = n - qubit
    rest = np.arange(2 ** (n - 1))
    full = ((rest >> shift) << (shift + 1)) | (outcome << shift) | (rest & ((1 << shift) - 1))
    block = matrix[np.ix_(full, full)]
    return float(np.real(np.trace(block))), block


def embedded_decode(rho, qubit, outcome, correct):
    """(probability, state) of a Z decoding, corrected by the embedded X on qubit 1."""
    prob, block = indexed_z_block(rho.matrix, qubit, outcome)
    matrix = block / prob
    if correct and outcome == 1:
        x_full = single_qubit_operator(PAULI_X, 1, rho.num_qubits - 1)
        matrix = x_full @ matrix @ x_full.conj().T
    return prob, matrix


# ---------------------------------------------------------------------------
# Optics
# ---------------------------------------------------------------------------


def recipe_state(prepared):
    """Run a PreparedInput's wave plates on |H> (cross-checks prepare_input)."""
    amps = _composed(prepared.qwp_angle, prepared.hwp_angle) @ np.array([1.0, 0.0], dtype=complex)
    return PureState(1, amps)


def analyzed_state(setting):
    """The pure state an analyzer setting projects onto."""
    w = _composed(setting.qwp_angle, setting.hwp_angle)
    port_index = 0 if setting.port == TRANSMITTED else 1
    return PureState(1, w.conj().T[:, port_index])


# The six Pauli eigenstates that optics.ANALYZER_SETTINGS select.
KET_H = PureState(1, [1.0, 0.0])
KET_V = PureState(1, [0.0, 1.0])
KET_D = PureState(1, [1.0, 1.0])
KET_A = PureState(1, [1.0, -1.0])
KET_L = PureState(1, [1.0, 1.0j])
KET_R = PureState(1, [1.0, -1.0j])

PAULI_EIGENSTATES = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_A, "R": KET_R, "L": KET_L}


# ---------------------------------------------------------------------------
# Teleport
# ---------------------------------------------------------------------------


def z_outcome_probabilities(psi):
    """Exact Z statistics of either qubit of the width-2 encoded state.

    (1/2, 1/2) for every payload: the code hides the logical amplitudes from
    single-qubit Z measurements.
    """
    register = parity_extend(psi, 2).density()
    return indexed_z_block(register.matrix, 1, 0)[0], indexed_z_block(register.matrix, 1, 1)[0]


def teleport_trajectory(psi, decisions):
    """Replay the teleport protocol along a forced decision sequence.

    decisions: iterable of ("fail", z) or ("success", bell_label) tuples,
    consumed one per attempt.
    """
    queue = list(decisions)

    def next_decision():
        if not queue:
            raise ValueError("decision sequence exhausted before the protocol ended")
        return queue[0]

    def decide_success():
        return next_decision()[0] == "success"

    def decide_z(_p0):
        kind, value = queue.pop(0)
        if kind != "fail":
            raise ValueError("expected a failure decision")
        return value

    def decide_bell():
        kind, value = queue.pop(0)
        if kind != "success":
            raise ValueError("expected a success decision")
        return value

    return _run(psi, decide_success, decide_z, decide_bell)
