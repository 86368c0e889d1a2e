"""Jones-calculus wave plates, input preparation recipes and analyzer projectors.

Polarization encodes the qubit: |H> = |0>, |V> = |1>. A state is prepared by
sending |H> through a half-wave plate and then a quarter-wave plate; an
analyzer is the mirror arrangement, a half-wave plate, a quarter-wave plate
and a polarizing beamsplitter whose transmitted port passes |H>. In both
stages light traverses the HWP first, so the composed Jones matrix is
QWP(q) @ HWP(h).

Conventions (all angles in degrees, optic axis measured from horizontal):
    HWP(t) = [[cos 2t,  sin 2t], [sin 2t, -cos 2t]]
    QWP(t) = exp(-i pi/4) * R(t) @ diag(1, i) @ R(-t)
Under these matrices QWP(45) |H> = (|H> - i|V>)/sqrt(2). Global phases are
irrelevant everywhere; state comparisons go through fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import PureState

HWP = "HWP"
QWP = "QWP"
TRANSMITTED = "transmitted"
REFLECTED = "reflected"

THETA_FAMILY = "theta"
PHI_FAMILY = "phi"


@dataclass(frozen=True)
class WaveplateSetting:
    """One wave plate: kind HWP or QWP, optic axis angle in degrees mod 180."""

    kind: str
    angle: float

    def __post_init__(self):
        if self.kind not in (HWP, QWP):
            raise ValueError(f"unknown wave plate kind {self.kind!r}")
        if not np.isfinite(self.angle):
            raise ValueError("angle must be finite")
        object.__setattr__(self, "angle", float(self.angle) % 180.0)


@dataclass(frozen=True)
class AnalyzerSetting:
    """Wave-plate pair plus PBS port selecting one polarization projector."""

    qwp_angle: float
    hwp_angle: float
    port: str = TRANSMITTED

    def __post_init__(self):
        if self.port not in (TRANSMITTED, REFLECTED):
            raise ValueError(f"unknown port {self.port!r}")
        if not (np.isfinite(self.qwp_angle) and np.isfinite(self.hwp_angle)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "qwp_angle", float(self.qwp_angle) % 180.0)
        object.__setattr__(self, "hwp_angle", float(self.hwp_angle) % 180.0)


def _jones(kind: str, angle: float) -> np.ndarray:
    """Jones matrix of a wave plate whose angle is already reduced mod 180."""
    t = np.deg2rad(angle)
    if kind == HWP:
        c2, s2 = np.cos(2 * t), np.sin(2 * t)
        return np.array([[c2, s2], [s2, -c2]], dtype=complex)
    c, s = np.cos(t), np.sin(t)
    return np.exp(-1j * np.pi / 4) * np.array(
        [
            [c**2 + 1j * s**2, (1 - 1j) * s * c],
            [(1 - 1j) * s * c, s**2 + 1j * c**2],
        ]
    )


def waveplate(setting: WaveplateSetting) -> np.ndarray:
    """Jones matrix of a single wave plate, read-only."""
    mat = _jones(setting.kind, setting.angle)
    mat.flags.writeable = False
    return mat


def _composed(qwp_angle: float, hwp_angle: float) -> np.ndarray:
    """Jones matrix of HWP followed by QWP (light passes the HWP first)."""
    return _jones(QWP, qwp_angle) @ _jones(HWP, hwp_angle)


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedInput:
    """A prepared 1-qubit state together with the wave-plate recipe behind it."""

    family: str
    angle: float
    hwp_angle: float
    qwp_angle: float
    state: PureState


def prepare_input(family: str, angle: float) -> PreparedInput:
    """Prepare a member of one of the two scan families.

    theta family:  cos(a)|0> + sin(a)|1>            via hwp = a/2, qwp = a
    phi family:    (|0> + exp(i(90 - 2a))|1>)/sqrt2  via hwp = 45 - a/2, qwp = 45

    Args:
        family: THETA_FAMILY or PHI_FAMILY.
        angle: family parameter in degrees, within [0, 90].

    Returns:
        PreparedInput whose state matches the family formula exactly and whose
        recipe reproduces it through waveplate() up to global phase.
    """
    if not 0.0 <= angle <= 90.0:
        raise ValueError("family angle must lie in [0, 90] degrees")
    a = np.deg2rad(angle)
    if family == THETA_FAMILY:
        hwp_angle, qwp_angle = angle / 2.0, angle
        amps = np.array([np.cos(a), np.sin(a)], dtype=complex)
    elif family == PHI_FAMILY:
        hwp_angle, qwp_angle = 45.0 - angle / 2.0, 45.0
        amps = np.array([1.0, np.exp(1j * (np.pi / 2 - 2 * a))], dtype=complex) / np.sqrt(2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return PreparedInput(family, float(angle), hwp_angle, qwp_angle, PureState(1, amps))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def analyzer_projector(setting: AnalyzerSetting) -> np.ndarray:
    """Rank-1 projector implemented by an analyzer setting, read-only.

    The analyzer applies W = QWP(q) @ HWP(h) and detects on one PBS port, so
    the projector on the incoming state is W^dag |port><port| W.
    """
    w = _composed(setting.qwp_angle, setting.hwp_angle)
    ket = w[0 if setting.port == TRANSMITTED else 1].conj()
    proj = np.outer(ket, ket.conj())
    proj.flags.writeable = False
    return proj


# The transmitted-port analyzer angles that select the six Pauli eigenstates
# H, V, D = H + V, A = H - V, R = H - iV and L = H + iV. With light passing
# the HWP first, circular analysis needs the QWP at +-45 degrees; the HWP
# then only flips handedness, so L sits at qwp = 135 (= -45 mod 180).
ANALYZER_SETTINGS = {
    "H": AnalyzerSetting(qwp_angle=0.0, hwp_angle=0.0),
    "V": AnalyzerSetting(qwp_angle=0.0, hwp_angle=45.0),
    "D": AnalyzerSetting(qwp_angle=0.0, hwp_angle=22.5),
    "A": AnalyzerSetting(qwp_angle=0.0, hwp_angle=67.5),
    "R": AnalyzerSetting(qwp_angle=45.0, hwp_angle=0.0),
    "L": AnalyzerSetting(qwp_angle=135.0, hwp_angle=0.0),
}
