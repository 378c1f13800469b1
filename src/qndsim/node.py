"""Single atom-cavity detector node: reflection physics, qubit control, readout.

The reflection branch convention: qubit index 0 ('up', z+) is the coupled
branch, index 1 ('down', z-) is uncoupled. A resonant, fully one-sided empty
cavity reflects with amplitude -1, so an ideal node realizes a controlled-Z
per photon on the down branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ZeroProbabilityError
from .fock import JointState, apply_channel, measure_diagonal, _reflection_kraus


@dataclass(frozen=True)
class CqedParams:
    """Cavity QED rates in MHz and detunings; only dimensionless ratios matter."""

    g: float
    kappa: float
    gamma: float
    kappa_r: float | None = None  # out-coupling mirror decay; None resolves to kappa (one-sided)
    delta_c: float = 0.0
    delta_a: float = 0.0

    def __post_init__(self) -> None:
        if self.g <= 0 or self.kappa <= 0 or self.gamma <= 0:
            raise ConfigError(
                f"g, kappa, gamma must be > 0, got ({self.g}, {self.kappa}, {self.gamma})"
            )
        if self.kappa_r is None:
            object.__setattr__(self, "kappa_r", self.kappa)
        if not 0 < self.kappa_r <= self.kappa:
            raise ConfigError(f"kappa_r must satisfy 0 < kappa_r <= kappa, got {self.kappa_r}")


@dataclass(frozen=True)
class NodeImperfections:
    """Measured node-level error budget.

    dark_count is the no-light probability of reporting 'up' after the full
    two-pulse sequence (dephasing over protocol_window included); the matching
    pulse over-rotation is derived from it, see over_rotation().

    reflection_contrast is the amplitude overlap between the wavepackets
    reflected on the coupled and uncoupled branches. Every reflected photon
    whose shape distinguishes the branches decoheres the atomic superposition,
    so atom-photon cross coherences scale as contrast^n while populations and
    click statistics are untouched.
    """

    dark_count: float = 0.0
    t_coherence: float = math.inf  # microseconds
    prep_fidelity: float = 1.0
    readout_fidelity: float = 1.0
    protocol_window: float = 3.0  # microseconds between the two pi/2 pulses
    reflection_contrast: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dark_count", "prep_fidelity", "readout_fidelity", "reflection_contrast"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.t_coherence <= 0:
            raise ConfigError(f"t_coherence must be > 0, got {self.t_coherence}")
        if self.protocol_window < 0:
            raise ConfigError(f"protocol_window must be >= 0, got {self.protocol_window}")
        self.over_rotation()  # fail fast on an infeasible dark-count / window combination

    def visibility(self) -> float:
        """Coherence retained between the two pi/2 pulses."""
        return math.exp(-self.protocol_window / self.t_coherence)

    def over_rotation(self) -> float:
        """Per-pulse over-rotation reproducing dark_count at zero input light.

        With visibility V between the pulses, the no-light up-probability is
        1 - cos^2(delta) (1+V)/2, so sin^2(delta) = 1 - 2(1-dc)/(1+V). For V=1
        this reduces to delta = asin(sqrt(dc)). Dephasing alone contributes
        (1-V)/2, so dark counts below that floor are unreachable.
        """
        v = self.visibility()
        floor = (1.0 - v) / 2.0
        residual = 1.0 - 2.0 * (1.0 - self.dark_count) / (1.0 + v)
        if residual < -1e-12:
            raise ConfigError(
                f"dark_count {self.dark_count} below the dephasing floor {floor:.3e} "
                f"set by protocol_window={self.protocol_window} us and "
                f"t_coherence={self.t_coherence} us; shorten the window"
            )
        return math.asin(math.sqrt(max(residual, 0.0)))


@dataclass(frozen=True)
class ReflectionPair:
    """Complex amplitude reflection coefficients for the two atomic branches.

    s holds the branches' loss amplitudes (coupled, uncoupled), with
    |r|^2 + s^2 = 1. None resolves it to sqrt(1 - |r|^2), which one ulp of
    |r|^2 moves by 1e-8 at |r| = 1; a cavity's pair takes s from
    loss_amplitude instead (reflection_pair).
    """

    r_coupled: complex
    r_uncoupled: complex
    s: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name, r in (("r_coupled", self.r_coupled), ("r_uncoupled", self.r_uncoupled)):
            if abs(r) > 1.0 + 1e-12:
                raise ConfigError(f"|{name}| = {abs(r)} exceeds 1")
        if self.s is None:
            r = (self.r_coupled, self.r_uncoupled)
            object.__setattr__(self, "s", tuple(math.sqrt(max(0.0, 1.0 - abs(complex(x)) ** 2)) for x in r))


def reflection_coefficients(params: CqedParams, coupled: bool) -> complex:
    """Steady-state amplitude reflection of the single-sided cavity.

    r = (i dc + kappa - 2 kappa_r + g^2/(gamma + i da)) / (i dc + kappa + g^2/(gamma + i da)),
    with g = 0 for the uncoupled branch. On resonance with kappa_r = kappa this is
    (2C - 1)/(2C + 1) when coupled and -1 when uncoupled.
    """
    g_eff = params.g if coupled else 0.0
    lorentz = g_eff**2 / (params.gamma + 1j * params.delta_a)
    denom = 1j * params.delta_c + params.kappa + lorentz
    num = 1j * params.delta_c + params.kappa - 2.0 * params.kappa_r + lorentz
    r = num / denom
    if abs(r) > 1.0 + 1e-12:
        raise ConfigError(f"computed |r| = {abs(r)} > 1; parameters unphysical")
    return complex(r)


def loss_amplitude(params: CqedParams, coupled: bool) -> float:
    """s = sqrt(1 - |r|^2) of reflection_coefficients, from the closed form below s = 1/2.

    1 - |r|^2 = 4 kappa_r (kappa - kappa_r + g^2 gamma/(gamma^2 + da^2)) / |D|^2,
    D = i dc + kappa + g^2/(gamma + i da), with g = 0 for the uncoupled branch.
    Formed from a rounded |r|, s is off by about 1e-16 / s. The closed form is
    exactly 0 for a lossless empty resonator (kappa_r = kappa) at any
    detuning, where |r| may round below 1 and would read s = 1.49e-8. From
    s = 1/2 the two agree within an ulp, and the form from |r| is kept: one ulp
    of s moves numpy's multinomial fate draws, so most Monte Carlo samples.
    """
    g2 = params.g**2 if coupled else 0.0
    absorbed = params.kappa - params.kappa_r + g2 * params.gamma / (params.gamma**2 + params.delta_a**2)
    denom = 1j * params.delta_c + params.kappa + g2 / (params.gamma + 1j * params.delta_a)
    s = math.sqrt(4.0 * params.kappa_r * absorbed) / abs(denom)
    return s if s < 0.5 else math.sqrt(1.0 - abs(reflection_coefficients(params, coupled)) ** 2)


def reflection_pair(params: CqedParams) -> ReflectionPair:
    return ReflectionPair(
        reflection_coefficients(params, coupled=True),
        reflection_coefficients(params, coupled=False),
        (loss_amplitude(params, coupled=True), loss_amplitude(params, coupled=False)),
    )


def reflect(
    state: JointState,
    qubit: str,
    mode: str,
    pair: ReflectionPair,
    contrast: float = 1.0,
) -> JointState:
    """Branch-conditioned cavity reflection of the mode.

    On each qubit branch the mode suffers loss at |r|^2 into a shared fresh
    ancilla (traced out) and a per-photon phase arg(r). Reduces to an ideal
    controlled-Z for the pair (+1, -1). A contrast below one additionally
    tags each surviving photon with which-branch wavepacket information, see
    branch_distinguishability().
    """
    pq, pm = state.position(qubit), state.position(mode)
    if state.kinds[pq] != "q" or state.kinds[pm] != "m":
        raise ConfigError(f"reflect needs a qubit and a mode, got {qubit!r}, {mode!r}")
    kraus = _branch_reflection_kraus(state.dims[pm], pair)
    out = apply_channel(state, kraus, [qubit, mode])
    if contrast < 1.0:
        out = branch_distinguishability(out, qubit, mode, contrast)
    return out


def _branch_reflection_kraus(dim: int, pair: ReflectionPair) -> np.ndarray:
    """Stacked family of reflect() on (qubit, mode): each branch's reflection, block by block.

    The k-photons-lost operators of the two branches share one index, so the
    loss ancilla is common; operators zero on both branches are dropped.
    """
    kraus = np.zeros((dim, 2 * dim, 2 * dim), dtype=complex)
    kraus[:, :dim, :dim] = _reflection_kraus(dim, complex(pair.r_coupled), pair.s[0])
    kraus[:, dim:, dim:] = _reflection_kraus(dim, complex(pair.r_uncoupled), pair.s[1])
    return kraus[kraus.any(axis=(1, 2))]


def branch_distinguishability(
    state: JointState, qubit: str, mode: str, contrast: float
) -> JointState:
    """Per-photon which-branch record left by an imperfect reflection contrast.

    Photons reflected on the coupled (up) branch match the uncoupled-branch
    wavepacket only with amplitude `contrast`; the orthogonal remainder is a
    which-branch tag carried by the light. The channel multiplies the
    qubit-mode cross coherences <up,n|rho|down,n> by contrast^n and leaves
    every population (and hence all click statistics) unchanged.
    """
    if not 0.0 <= contrast <= 1.0:
        raise ConfigError(f"contrast must be in [0, 1], got {contrast}")
    if contrast == 1.0:
        return state
    kraus = _distinguishability_kraus(state.dims[state.position(mode)], float(contrast))
    return apply_channel(state, kraus, [qubit, mode])


def _distinguishability_kraus(dim: int, contrast: float) -> np.ndarray:
    """Stacked family of branch_distinguishability() on (qubit, mode).

    Operator j tags j of the up-branch photons with the orthogonal wavepacket
    shape; the down branch passes through operator 0 unchanged.
    """
    n = np.arange(dim)
    ortho = 1.0 - contrast**2
    kraus = np.zeros((dim, 2 * dim, 2 * dim), dtype=complex)
    for j in range(dim):
        nn = n[j:]
        kraus[j, nn, nn] = np.sqrt(
            [math.comb(int(m), j) for m in nn]
        ) * contrast ** (nn - j) * ortho ** (j / 2.0)
    kraus[0, dim:, dim:] = np.eye(dim)
    return kraus[kraus.any(axis=(1, 2))]


def rotation_matrix(azimuth: float, theta: float) -> np.ndarray:
    """Rotation by theta about the equatorial Bloch axis at the given azimuth.

    azimuth 0 is the x axis, pi/2 the y axis; matches
    R_y(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]] and
    R_x(t) = [[cos t/2, -i sin t/2], [-i sin t/2, cos t/2]].
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    axis = math.cos(azimuth) * sx + math.sin(azimuth) * sy
    return math.cos(theta / 2.0) * np.eye(2, dtype=complex) - 1j * math.sin(theta / 2.0) * axis


_AXIS_AZIMUTH = {"x": 0.0, "y": math.pi / 2.0}


def rotate(
    state: JointState,
    qubit: str,
    axis: "str | float",
    theta: float,
    over_rotation: float = 0.0,
) -> JointState:
    """Apply R_axis(theta + over_rotation) to the labeled qubit."""
    if isinstance(axis, str):
        if axis not in _AXIS_AZIMUTH:
            raise ConfigError(f"axis must be 'x', 'y' or an azimuth in radians, got {axis!r}")
        azimuth = _AXIS_AZIMUTH[axis]
    else:
        azimuth = float(axis)
    u = rotation_matrix(azimuth, theta + over_rotation)
    return apply_channel(state, [u], [qubit])


def dephase_visibility(state: JointState, qubit: str, visibility: float) -> JointState:
    """Scale the qubit's z-basis coherences by the given visibility in [0, 1]."""
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError(f"visibility must be in [0, 1], got {visibility}")
    eye = np.eye(2, dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    kraus = [
        math.sqrt((1.0 + visibility) / 2.0) * eye,
        math.sqrt((1.0 - visibility) / 2.0) * z,
    ]
    return apply_channel(state, kraus, [qubit])


def dephase(state: JointState, qubit: str, window: float, t_coherence: float) -> JointState:
    """Scale the qubit's z-basis coherences by exp(-window/t_coherence)."""
    if window < 0 or t_coherence <= 0:
        raise ConfigError("window must be >= 0 and t_coherence > 0")
    return dephase_visibility(state, qubit, math.exp(-window / t_coherence))


def prepare(fidelity: float) -> np.ndarray:
    """Optically pumped qubit: diagonal mixture p|up><up| + (1-p)|down><down|."""
    if not 0.0 <= fidelity <= 1.0:
        raise ConfigError(f"preparation fidelity must be in [0, 1], got {fidelity}")
    return np.diag([fidelity, 1.0 - fidelity]).astype(complex)


@dataclass(frozen=True)
class AtomReadout:
    """z-basis readout with symmetric misassignment; the atom is consumed."""

    p_up: float
    p_down: float
    _state_up: JointState | None
    _state_down: JointState | None

    def probability(self, up: bool) -> float:
        return self.p_up if up else self.p_down

    def conditional_or_none(self, up: bool) -> JointState | None:
        return self._state_up if up else self._state_down

    def conditional(self, up: bool) -> JointState:
        state = self.conditional_or_none(up)
        if state is None:
            outcome = "up" if up else "down"
            raise ZeroProbabilityError(
                f"conditioning on the zero-probability readout outcome {outcome!r}"
            )
        return state


def detect_state(state: JointState, qubit: str, readout_fidelity: float = 1.0) -> AtomReadout:
    if not 0.0 <= readout_fidelity <= 1.0:
        raise ConfigError(f"readout fidelity must be in [0, 1], got {readout_fidelity}")
    f = readout_fidelity
    p_up, state_up = measure_diagonal(state, qubit, np.array([f, 1.0 - f]))
    p_dn, state_dn = measure_diagonal(state, qubit, np.array([1.0 - f, f]))
    return AtomReadout(p_up, p_dn, state_up, state_dn)
