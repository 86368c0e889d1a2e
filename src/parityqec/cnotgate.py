"""Mode-level model of the post-selected coincidence-basis CNOT.

The gate routes two polarization qubits through six optical modes:

    0  vacuum ancilla A
    1  control H        2  control V
    3  target H         4  target V
    5  vacuum ancilla B

Network, in the order light meets it:
    1. 50/50 mixer on (target H, target V), producing t+ on mode 3 and
       t- on mode 4.
    2. Central beamsplitter of reflectivity 1/3 coupling control V (mode 2)
       with t- (mode 4); this is the only point where the two photons can
       meet, so it carries all of the non-classical interference.
    3. 1/3-amplitude couplers dumping control H (mode 1) into ancilla A and
       t+ (mode 3) into ancilla B, which balance the losses so every
       surviving amplitude is scaled by exactly 1/3.
    4. 50/50 unmixer on the target modes.
    5. A sign flip on control V fixing the overall phase so that the
       post-selected map is +1/3 times the CNOT truth table.

Post-selecting on one photon in the control modes and one in the target
modes (a coincidence) yields (1/3) * CNOT, i.e. success probability 1/9 for
every input.

Imperfections are three visibilities. The two classical ones dephase the two
interferometer arms they control (control H against control V, and t+
against t-): a visibility v is a random sign flip on the second arm with
probability (1 - v)/2. The non-classical one mixes the bosonic two-photon
map with the distinguishable-photon map in which the direct and exchange
amplitudes add in probability rather than in amplitude.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .qcore import DensityMatrix, PureState

MODE_VAC_A = 0
MODE_CONTROL_H = 1
MODE_CONTROL_V = 2
MODE_TARGET_H = 3
MODE_TARGET_V = 4
MODE_VAC_B = 5
NUM_MODES = 6

CONTROL_MODES = (MODE_CONTROL_H, MODE_CONTROL_V)
TARGET_MODES = (MODE_TARGET_H, MODE_TARGET_V)

_R = 1.0 / np.sqrt(3.0)      # central reflectivity-1/3 amplitude
_T = np.sqrt(2.0 / 3.0)
_H = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class ModeNetwork:
    """Single-photon unitary over the six optical modes."""

    unitary: np.ndarray

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        if u.shape != (NUM_MODES, NUM_MODES):
            raise ValueError("mode network must be 6x6")
        if np.max(np.abs(u.conj().T @ u - np.eye(NUM_MODES))) > 1e-12:
            raise ValueError("mode network is not unitary within tolerance")
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)


@dataclass(frozen=True)
class NoiseModel:
    """Interference visibilities of the gate, each in [0, 1].

    v_nonclassical: two-photon (bosonic) interference at the central
        beamsplitter. 1 = fully indistinguishable photons.
    v_classical_control: single-photon interference between the control H
        and control V arms.
    v_classical_target: single-photon interference between the t+ and t-
        arms of the target interferometer.
    """

    v_nonclassical: float = 1.0
    v_classical_control: float = 1.0
    v_classical_target: float = 1.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (np.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls(1.0, 1.0, 1.0)

    def to_dict(self) -> dict:
        return {
            "v_nonclassical": float(self.v_nonclassical),
            "v_classical_control": float(self.v_classical_control),
            "v_classical_target": float(self.v_classical_target),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        return cls(
            float(data["v_nonclassical"]),
            float(data["v_classical_control"]),
            float(data["v_classical_target"]),
        )


def _embed(block: np.ndarray, modes: tuple[int, int]) -> np.ndarray:
    full = np.eye(NUM_MODES, dtype=complex)
    a, b = modes
    full[a, a], full[a, b] = block[0, 0], block[0, 1]
    full[b, a], full[b, b] = block[1, 0], block[1, 1]
    return full


def _network_unitary(control_v_sign: float = 1.0, target_minus_sign: float = 1.0) -> np.ndarray:
    """Compose the network, optionally flipping a dephasing sign on one arm.

    control_v_sign multiplies the control V amplitude at the input;
    target_minus_sign multiplies the t- arm between the mixer and the
    central beamsplitter.
    """
    mixer = _embed(np.array([[_H, _H], [_H, -_H]]), (MODE_TARGET_H, MODE_TARGET_V))
    central = _embed(np.array([[-_R, _T], [_T, _R]]), (MODE_CONTROL_V, MODE_TARGET_V))
    dump_control = _embed(np.array([[-_R, _T], [_T, _R]]), (MODE_VAC_A, MODE_CONTROL_H))
    dump_target = _embed(np.array([[_R, _T], [_T, -_R]]), (MODE_TARGET_H, MODE_VAC_B))
    fix_phase = np.eye(NUM_MODES, dtype=complex)
    fix_phase[MODE_CONTROL_V, MODE_CONTROL_V] = -1.0

    sign_c = np.eye(NUM_MODES, dtype=complex)
    sign_c[MODE_CONTROL_V, MODE_CONTROL_V] = control_v_sign
    sign_t = np.eye(NUM_MODES, dtype=complex)
    sign_t[MODE_TARGET_V, MODE_TARGET_V] = target_minus_sign

    return fix_phase @ mixer @ dump_control @ dump_target @ central @ sign_t @ mixer @ sign_c


def build_mode_network() -> ModeNetwork:
    """The ideal six-mode network."""
    return ModeNetwork(_network_unitary())


def _two_photon_operators(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct and exchange coincidence operators of a mode unitary.

    Both act on the 2-qubit coincidence space ordered (control mode, target
    mode) = (1,3), (1,4), (2,3), (2,4), i.e. the computational basis. The
    direct operator keeps each photon on its own rail; the exchange operator
    swaps them. Their sum is the bosonic post-selected map.
    """
    direct = np.zeros((4, 4), dtype=complex)
    exchange = np.zeros((4, 4), dtype=complex)
    for i, (k, l) in enumerate((k, l) for k in CONTROL_MODES for l in TARGET_MODES):
        for j, (c, t) in enumerate((c, t) for c in CONTROL_MODES for t in TARGET_MODES):
            direct[i, j] = u[k, c] * u[l, t]
            exchange[i, j] = u[l, c] * u[k, t]
    return direct, exchange


def coincidence_operator(network: ModeNetwork) -> np.ndarray:
    """Bosonic post-selected two-photon map of a network (4x4)."""
    direct, exchange = _two_photon_operators(network.unitary)
    return direct + exchange


def _channel_terms() -> np.ndarray:
    """The noisy channel's 8 fixed superoperators, shape (4, 2, 16, 16).

    Each visibility enters the model affinely: a classical one weights the
    two dephasing signs by (1 +- v)/2, and v_nonclassical mixes the bosonic
    map B = D + E with the distinguishable one as
    v B.B^dag + (1 - v)(D.D^dag + E.E^dag) = D.D^dag + E.E^dag + v (D.E^dag + E.D^dag).
    So the channel is trilinear, and term [i, j] multiplies the monomial
    (1, v_cc, v_ct, v_cc v_ct)[i] * (1, v_nc)[j]. A superoperator acts on the
    row-major flattened density matrix: vec(A rho C^dag) = (A kron C*) vec(rho).
    Trilinear, the channel is a nonnegative blend of its 8 cube-corner values,
    where each (1 +- v)/2 is 0, 1 or 1/2 and v_nc picks B.B^dag or D.D^dag +
    E.E^dag: sums of K rho K^dag maps. So it is completely positive on [0, 1]^3.
    """
    terms = np.zeros((4, 2, 16, 16), dtype=complex)
    for sc in (1, -1):
        for st in (1, -1):
            direct, exchange = _two_photon_operators(_network_unitary(sc, st))
            signs = 0.25 * np.array([1, sc, st, sc * st])
            incoherent = np.kron(direct, direct.conj()) + np.kron(exchange, exchange.conj())
            coherent = np.kron(direct, exchange.conj()) + np.kron(exchange, direct.conj())
            terms[:, 0] += signs[:, None, None] * incoherent
            terms[:, 1] += signs[:, None, None] * coherent
    terms.flags.writeable = False
    return terms


_CHANNEL_TERMS = _channel_terms()

_IDEAL_MAP = coincidence_operator(build_mode_network())


def postselect_cnot(psi: PureState) -> tuple[float, PureState]:
    """Ideal gate on a pure 2-qubit input.

    Returns (success probability, post-selected output). The ideal map is
    (1/3) * CNOT, so the probability is 1/9 for every input.
    """
    if psi.num_qubits != 2:
        raise ValueError("the gate acts on 2-qubit states")
    amp = _IDEAL_MAP @ psi.amplitudes
    prob = float(np.real(amp.conj() @ amp))
    return prob, PureState(2, amp)


def _noisy_cnot_batch(rhos: np.ndarray, noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """The channel on a stack of 2-qubit inputs, (n, 4, 4).

    Returns (coincidence probabilities (n,), outputs (n, 4, 4)): each output
    is normalised by its probability and symmetrised to be exactly Hermitian.
    """
    vc, vt = noise.v_classical_control, noise.v_classical_target
    monomials = np.outer([1.0, vc, vt, vc * vt], [1.0, noise.v_nonclassical])
    superop = np.einsum("ij,ijab->ab", monomials, _CHANNEL_TERMS)
    flat = np.reshape(rhos, (-1, 16))
    out = (flat @ superop.T).reshape(-1, 4, 4)
    probs = np.real(np.trace(out, axis1=1, axis2=2))
    out = out / probs[:, None, None]
    return probs, 0.5 * (out + out.conj().transpose(0, 2, 1))


def noisy_cnot(rho_in: DensityMatrix, noise: NoiseModel) -> tuple[float, DensityMatrix]:
    """Visibility-limited gate on a 2-qubit density matrix.

    The channel averages the four dephasing sign branches with weights
    (1 +- v)/2 per classical visibility; within each branch the bosonic and
    distinguishable two-photon maps are mixed with weight v_nonclassical.
    It is evaluated as one contraction of precomputed terms (_channel_terms).
    Returns (coincidence probability, normalized output state).
    """
    if not isinstance(noise, NoiseModel):
        raise ValueError(f"gate must be a NoiseModel, got {noise!r}")
    if rho_in.num_qubits != 2:
        raise ValueError("the gate acts on 2-qubit states")
    probs, outs = _noisy_cnot_batch(rho_in.matrix, noise)
    return float(probs[0]), DensityMatrix(2, outs[0])
