"""Heralded photon-number sorter: dichotomy-tree discrimination with feed-forward.

k cascaded nodes carry conditional phases theta_j = pi / 2^(j-1) per photon on
the uncoupled branch; node j reads out the j-th binary digit of the photon
number modulo 2^k, with the readout basis fed forward from earlier digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams, fiber_channel
from .errors import ConfigError
from .fock import (
    FockSpace,
    JointState,
    ModeState,
    coherent_state,
    fock_state,
)
from .node import (
    CqedParams,
    NodeImperfections,
    ReflectionPair,
    detect_state,
    dephase,
    prepare,
    reflect,
    reflection_coefficients,
    rotate,
)

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class FeedForwardBasis:
    """Readout-basis choice for the next node, derived from earlier digits."""

    azimuth: float  # equatorial rotation axis, 0 = x, pi/2 = y
    angle: float  # pulse area, always pi/2
    up_means_bit: int  # digit value heralded by an 'up' readout

    @property
    def axis_label(self) -> str | None:
        if abs(self.azimuth) < 1e-12:
            return "x"
        if abs(self.azimuth - HALF_PI) < 1e-12:
            return "y"
        return None


def feed_forward_basis(prior_bits: Sequence[int], k: int | None = None) -> FeedForwardBasis:
    """Basis for node j = len(prior_bits) + 1 given the digits read so far.

    The node's accumulated phase is pi * b_j + phi with the known correction
    phi = pi * (0.b_{j-1} ... b_1) in binary. The rotation axis is placed a
    quarter turn from phi, folded into [0, pi) by swapping the outcome-to-digit
    map; for k = 2 this reproduces the R_y(pi/2) (prior even) / R_x(pi/2)
    (prior odd) rule exactly.
    """
    if k is not None and len(prior_bits) >= k:
        raise ConfigError(
            f"prior outcome list of length {len(prior_bits)} too long for k={k}"
        )
    if any(b not in (0, 1) for b in prior_bits):
        raise ConfigError(f"prior outcomes must be bits, got {list(prior_bits)}")
    j = len(prior_bits) + 1
    phi = math.pi * sum(b * 2.0 ** (i + 1 - j) for i, b in enumerate(prior_bits))
    canonical = (phi + HALF_PI) % (2.0 * math.pi)
    if canonical < math.pi - 1e-12:
        return FeedForwardBasis(canonical, HALF_PI, 1)
    return FeedForwardBasis(canonical - math.pi, HALF_PI, 0)


@dataclass(frozen=True)
class SorterConfig:
    k: int = 2
    input_kind: str = "coherent"  # 'coherent' or 'fock'
    mean_photon: float = 0.5
    fock_n: int = 0
    n_max: int | None = None  # input truncation; None picks the tail-safe cutoff
    ideal: bool = True
    # realistic mode: per-node cavity parameters (detunings chosen by the user);
    # the nominal phase theta_j is applied exactly, with the amplitude penalty
    # |r(params)| per branch.
    node_params: tuple[CqedParams, ...] | None = None
    imperfections: tuple[NodeImperfections, ...] | None = None
    channel: ChannelParams | None = None  # applied between consecutive nodes

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.input_kind not in ("coherent", "fock"):
            raise ConfigError(f"input_kind must be 'coherent' or 'fock', got {self.input_kind!r}")
        if not self.ideal and self.node_params is None:
            raise ConfigError("realistic mode requires per-node cavity parameters")
        for name in ("node_params", "imperfections"):
            seq = getattr(self, name)
            if seq is not None and len(seq) != self.k:
                raise ConfigError(f"{name} must list one entry per node (k={self.k})")

    def phase(self, node_index: int) -> float:
        """Per-photon phase of node j (1-based): pi / 2^(j-1)."""
        return math.pi / 2.0 ** (node_index - 1)

    def gate_pair(self, node_index: int) -> ReflectionPair:
        """Gate of node j, a reflection (|r_c|, |r_u| e^{i theta_j}); unit moduli when ideal."""
        r_c, r_u = 1.0, 1.0
        if not self.ideal:
            params = self.node_params[node_index - 1]
            r_c = abs(reflection_coefficients(params, coupled=True))
            r_u = abs(reflection_coefficients(params, coupled=False))
        return ReflectionPair(complex(r_c), complex(r_u * np.exp(1j * self.phase(node_index))))

    def space(self) -> FockSpace:
        if self.n_max is not None:
            return FockSpace(self.n_max)
        if self.input_kind == "fock":
            return FockSpace(max(1, self.fock_n))
        return FockSpace.for_mean_photon(self.mean_photon)

    def input_state(self) -> ModeState:
        space = self.space()
        if self.input_kind == "fock":
            return fock_state(self.fock_n, space)
        # Explicit n_max means a deliberately truncated, renormalized pulse.
        return coherent_state(self.mean_photon, space, check_truncation=self.n_max is None)

    def node_imperfections(self, node_index: int) -> NodeImperfections:
        if self.imperfections is None:
            return NodeImperfections()
        return self.imperfections[node_index - 1]


@dataclass(frozen=True)
class SorterResult:
    herald: int  # estimated photon number in {0, ..., 2^k - 1}
    probability: float
    state: ModeState
    fidelity: float  # overlap with the nominal Fock state |herald>


def _sorter_node(
    state: JointState,
    config: SorterConfig,
    node_index: int,
    prior_bits: tuple[int, ...],
) -> list[tuple[int, float, JointState]]:
    """Run one node; returns (digit, branch probability, post state) pairs."""
    imp = config.node_imperfections(node_index)
    qubit = f"q{node_index}"
    state = _attach_qubit(state, qubit, prepare(imp.prep_fidelity))
    state = rotate(state, qubit, "y", HALF_PI, imp.over_rotation())

    state = reflect(state, qubit, "ph", config.gate_pair(node_index))
    basis = feed_forward_basis(prior_bits, config.k)
    state = dephase(state, qubit, imp.protocol_window, imp.t_coherence)
    state = rotate(state, qubit, basis.azimuth, basis.angle, imp.over_rotation())
    readout = detect_state(state, qubit, imp.readout_fidelity)
    branches = []
    for up in (False, True):
        p = readout.probability(up)
        post = readout.conditional_or_none(up)
        if p <= 0.0 or post is None:
            continue
        bit = basis.up_means_bit if up else 1 - basis.up_means_bit
        branches.append((bit, p, post))
    return branches


def _attach_qubit(state: JointState, label: str, qubit_matrix: np.ndarray) -> JointState:
    return JointState(
        (label,) + state.labels,
        ("q",) + state.kinds,
        (None,) + state.spaces,
        np.kron(qubit_matrix, state.matrix),
    )


def run_sorter(config: SorterConfig) -> list[SorterResult]:
    """Heralding probabilities and conditional output states for every label."""
    initial = config.input_state().to_joint("ph")
    results: dict[int, tuple[float, np.ndarray]] = {}
    space = config.space()

    def descend(state: JointState, node_index: int, bits: tuple[int, ...], weight: float) -> None:
        if node_index > config.k:
            herald = sum(b << i for i, b in enumerate(bits))
            mode = state.mode_state("ph")
            prob, accum = results.get(herald, (0.0, np.zeros((space.dim, space.dim), complex)))
            results[herald] = (prob + weight, accum + weight * np.asarray(mode.matrix))
            return
        for bit, p, post in _sorter_node(state, config, node_index, bits):
            if config.channel is not None and node_index < config.k:
                post = fiber_channel(post, "ph", config.channel)
            descend(post, node_index + 1, bits + (bit,), weight * p)

    descend(initial, 1, (), 1.0)
    out = []
    for herald in sorted(results):
        prob, accum = results[herald]
        if prob <= 0.0:
            continue
        mode = ModeState(space, accum / prob)
        fidelity = float(np.real(mode.matrix[herald, herald])) if herald <= space.n_max else 0.0
        out.append(SorterResult(herald, prob, mode, fidelity))
    return out


def herald_confusion_matrix(config: SorterConfig, n_range: Sequence[int]) -> np.ndarray:
    """P(herald = m | input Fock n) for n in n_range; rows sum to 1."""
    from dataclasses import replace

    labels = 2**config.k
    space_max = max(max(n_range), 1)
    matrix = np.zeros((len(n_range), labels))
    for i, n in enumerate(n_range):
        cfg = replace(config, input_kind="fock", fock_n=int(n), n_max=space_max)
        for res in run_sorter(cfg):
            matrix[i, res.herald] = res.probability
    return matrix
