"""Heralded photon-number sorter: dichotomy-tree discrimination with feed-forward.

k cascaded nodes carry conditional phases theta_j = pi / 2^(j-1) per photon on
the uncoupled branch; node j reads out the j-th binary digit of the photon
number modulo 2^k, with the readout basis fed forward from earlier digits.

Like the cascade (see qndsim.protocol) it runs on the photon-number sector:
every sorter channel keeps n - m and every output reads the number diagonal,
so between nodes the light is a photon-number distribution and the fiber's
phase flip drops out. Each node is the cascade's node step
(protocol._node_step) on a (dim, 2, 2) stack of its atom's blocks; the
fiber's loss and the node's gate are one thinning of those numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import ChannelParams
from .errors import ConfigError
from .fock import FockSpace, pulse_amplitudes
from .node import (
    CqedParams,
    NodeImperfections,
    ReflectionPair,
    reflection_pair,
    rotation_matrix,
)
from .protocol import HALF_PI, _compose, _node_atom, _node_step, _reflection_weights, _thinning


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
    # Realistic nodes: per-node cavity parameters (detunings chosen by the
    # user); the nominal phase theta_j is applied exactly, with the amplitude
    # penalty |r(params)| per branch. None gives ideal nodes.
    node_params: tuple[CqedParams, ...] | None = None
    imperfections: tuple[NodeImperfections, ...] | None = None
    channel: ChannelParams | None = None  # applied between consecutive nodes

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.input_kind not in ("coherent", "fock"):
            raise ConfigError(f"input_kind must be 'coherent' or 'fock', got {self.input_kind!r}")
        if not (math.isfinite(self.mean_photon) and self.mean_photon >= 0):
            raise ConfigError(f"mean_photon must be finite and >= 0, got {self.mean_photon}")
        if self.fock_n < 0:
            raise ConfigError(f"fock_n must be >= 0, got {self.fock_n}")
        for name in ("node_params", "imperfections"):
            seq = getattr(self, name)
            if seq is not None and len(seq) != self.k:
                raise ConfigError(f"{name} must list one entry per node (k={self.k})")

    def _position(self, node_index: int) -> int:
        """Position j - 1 of node j (1-based) in the per-node tuples."""
        if not 1 <= node_index <= self.k:
            raise ConfigError(f"node index must be in 1..{self.k}, got {node_index}")
        return node_index - 1

    def phase(self, node_index: int) -> float:
        """Per-photon phase of node j (1-based): pi / 2^(j-1)."""
        return math.pi / 2.0 ** self._position(node_index)

    def gate_pair(self, node_index: int) -> ReflectionPair:
        """Gate of node j, a reflection (|r_c|, |r_u| e^{i theta_j}); lossless without node_params."""
        r_c, r_u, s = 1.0, 1.0, (0.0, 0.0)
        if self.node_params is not None:
            pair = reflection_pair(self.node_params[self._position(node_index)])
            r_c, r_u, s = abs(pair.r_coupled), abs(pair.r_uncoupled), pair.s
        return ReflectionPair(complex(r_c), complex(r_u * np.exp(1j * self.phase(node_index))), s)

    def space(self) -> FockSpace:
        if self.n_max is not None:
            return FockSpace(self.n_max)
        if self.input_kind == "fock":
            return FockSpace(max(1, self.fock_n))
        return FockSpace.for_mean_photon(self.mean_photon)

    def input_numbers(self) -> np.ndarray:
        """Photon-number distribution of the input pulse on space()."""
        check = self.n_max is None  # explicit n_max: a deliberately truncated, renormalized pulse
        amp = pulse_amplitudes(self.input_kind, self.space(), self.mean_photon, self.fock_n, check)
        return amp * amp

    def node_imperfections(self, node_index: int) -> NodeImperfections:
        j = self._position(node_index)
        return NodeImperfections() if self.imperfections is None else self.imperfections[j]


# The configuration `qndsim sorter` runs; the experiment config does not reach
# it, so the CLI's manifest records this instead and `--config` is refused.
SORTER_CONFIG = SorterConfig(k=2, input_kind="coherent", mean_photon=0.5, n_max=3)


@dataclass(frozen=True)
class SorterResult:
    herald: int  # estimated photon number in {0, ..., 2^k - 1}
    probability: float
    numbers: np.ndarray  # output photon-number distribution; no output reads coherences
    fidelity: float  # overlap with the nominal Fock state |herald>


def run_sorter(config: SorterConfig) -> list[SorterResult]:
    """Heralding probabilities and conditional output photon numbers for every label.

    Each node is the cascade's node step (protocol._node_step): its gate, and
    the fiber before it, are one thinning map built once per node, and each
    branch's readout pulse is fed forward from the digits read so far.
    """
    transmission = config.channel.transmission if config.channel is not None else 1.0
    dim = config.space().dim
    branches = [((), 1.0, config.input_numbers())]
    for j in range(1, config.k + 1):
        imp = config.node_imperfections(j)
        t = transmission if j > 1 else 1.0  # the fiber runs between consecutive nodes
        thinning = _thinning(*_compose((t, 1.0 - t), _reflection_weights(config.gate_pair(j))), dim)
        _, atom = _node_atom(imp)
        deeper = []
        for bits, weight, numbers in branches:
            basis = feed_forward_basis(bits, config.k)
            readout = rotation_matrix(basis.azimuth, basis.angle + imp.over_rotation())
            read = _node_step(numbers, thinning, atom, readout, imp.readout_fidelity, f"sorter node {j}")
            for up, p, cond in read:
                bit = basis.up_means_bit if up else 1 - basis.up_means_bit
                deeper.append((bits + (bit,), weight * p, cond))
        branches = deeper
    heralds: dict[int, list[tuple[float, np.ndarray]]] = {}
    for bits, weight, numbers in branches:
        heralds.setdefault(sum(b << i for i, b in enumerate(bits)), []).append((weight, numbers))
    out = []
    for herald, kept in sorted(heralds.items()):
        prob = sum(w for w, _ in kept)
        numbers = sum(w * n for w, n in kept) / prob
        fidelity = float(numbers[herald]) if herald < len(numbers) else 0.0
        out.append(SorterResult(herald, prob, numbers, fidelity))
    return out


def herald_confusion_matrix(config: SorterConfig, n_range: Sequence[int]) -> np.ndarray:
    """P(herald = m | input Fock n) for n in n_range; rows sum to 1."""
    if len(n_range) == 0:
        raise ConfigError("photon-number range n_range is empty: the matrix needs at least one Fock input")
    labels = 2**config.k
    space_max = max(max(n_range), 1)
    matrix = np.zeros((len(n_range), labels))
    for i, n in enumerate(n_range):
        cfg = replace(config, input_kind="fock", fock_n=int(n), n_max=space_max)
        for res in run_sorter(cfg):
            matrix[i, res.herald] = res.probability
    return matrix
