"""Reference calculations used only by the tests.

The two-photon maps deliberately avoid the package's direct/exchange operator
construction: the bosonic output is expanded photon by photon over the full
21-dimensional two-photon Fock space of the six modes, and the coincidence
block is read off at the end. Agreement between this route and the production
operators is what the gate tests assert.

The noisy-channel and pipeline oracles start from those (tested) operators
but take the slow road from there: the gate summed over its four dephasing
branches, and the pipeline means computed one encode/decode/fidelity cell at
a time. The production code contracts precomputed terms over a batch instead.
"""

import numpy as np

from parityqec.cli import REFERENCE_INPUTS, SWEEP_ANGLES
from parityqec.cnotgate import _network_unitary, _two_photon_operators, postselect_cnot
from parityqec.codec import ideal_encoded
from parityqec.optics import PHI_FAMILY, THETA_FAMILY, prepare_input
from parityqec.qcore import PAULI_X, DensityMatrix, PureState, conditional_state, fidelity, kron

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
                rest = conditional_state(encoded, qubit, outcome)[1].matrix
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
