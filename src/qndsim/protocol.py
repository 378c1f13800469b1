"""Full two-detector cascade and single-detector characterization pipelines.

Produces exact joint outcome distributions over the two atomic readouts and
the two absorbing detectors, and the readout-resolved photon-number table
P[s1, s2, n] that the g2 and no-light estimators read. Atomic readout is
applied before the photon counting; all measurement channels act on disjoint
subsystems, so this ordering does not affect the joint table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelParams, detection_path, fiber_channel
from .detectors import DetectorParams, hbt_split_and_count
from .errors import ConfigError, TruncationError, ZeroProbabilityError
from .fock import (
    N_MAX_CAP,
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
    reflection_pair,
    rotate,
)

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class NodeConfig:
    cqed: CqedParams
    imperfections: NodeImperfections = NodeImperfections()
    # explicit (r_coupled, r_uncoupled) override, e.g. (+1, -1) for an ideal gate
    reflection_override: tuple[complex, complex] | None = None

    def pair(self) -> ReflectionPair:
        if self.reflection_override is not None:
            return ReflectionPair(*self.reflection_override)
        return reflection_pair(self.cqed)

    def empty_pair(self) -> ReflectionPair:
        """Reflection seen by a pulse that no longer couples to the atom."""
        p = self.pair()
        return ReflectionPair(p.r_uncoupled, p.r_uncoupled)


@dataclass(frozen=True)
class ExperimentConfig:
    node1: NodeConfig
    node2: NodeConfig
    channel: ChannelParams
    detection_efficiency: float
    detector_a: DetectorParams
    detector_b: DetectorParams
    mean_photon_sweep: tuple[float, ...]
    input_kind: str = "coherent"  # 'coherent' or 'fock'
    fock_n: int = 1
    mode: str = "exact"  # 'exact' or 'monte_carlo' (alias 'mc')
    trials: int = 100_000
    seed: int = 12345

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_photon_sweep", tuple(self.mean_photon_sweep))
        object.__setattr__(self, "mode", {"mc": "monte_carlo"}.get(self.mode, self.mode))
        if not self.mean_photon_sweep:
            raise ConfigError("mean photon sweep must be nonempty")
        if any(m < 0 for m in self.mean_photon_sweep):
            raise ConfigError("mean photon numbers must be >= 0")
        if not 0.0 <= self.detection_efficiency <= 1.0:
            raise ConfigError(
                f"detection_efficiency must be in [0, 1], got {self.detection_efficiency}"
            )
        if self.input_kind not in ("coherent", "fock"):
            raise ConfigError(f"input_kind must be 'coherent' or 'fock', got {self.input_kind!r}")
        if self.fock_n < 0:
            raise ConfigError(f"fock_n must be >= 0, got {self.fock_n}")
        if self.mode not in ("exact", "monte_carlo"):
            raise ConfigError(f"mode must be 'exact' or 'monte_carlo', got {self.mode!r}")
        if self.mode == "monte_carlo" and self.trials < 1:
            raise ConfigError(f"trials must be >= 1 in monte_carlo mode, got {self.trials}")
        self.fock_space()  # fail fast on truncation-infeasible sweeps

    def node(self, index: int) -> NodeConfig:
        """Node 1 (upstream of the fiber) or node 2 (downstream)."""
        return self.node1 if index == 1 else self.node2

    def fock_space(self) -> FockSpace:
        """Cutoff adapted to the run's largest mean photon number (or Fock input)."""
        if self.input_kind == "fock":
            if self.fock_n > N_MAX_CAP:
                raise TruncationError(
                    f"fock_n = {self.fock_n} exceeds the cutoff cap n_max = {N_MAX_CAP}"
                )
            return FockSpace(max(1, self.fock_n))
        return FockSpace.for_mean_photon(max(self.mean_photon_sweep))

    def input_state(self, mean_photon: float, space: FockSpace) -> ModeState:
        if self.input_kind == "fock":
            return fock_state(self.fock_n, space)
        return coherent_state(mean_photon, space)


class Outcome(NamedTuple):
    """One joint outcome; atom fields are True for 'up', detectors for 'click'."""

    s1: bool
    s2: bool
    da: bool
    db: bool


class SingleOutcome(NamedTuple):
    s: bool
    da: bool
    db: bool


_OUTCOME_TYPES = {("s1", "s2", "da", "db"): Outcome, ("s", "da", "db"): SingleOutcome}


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over binary outcome axes (index 1 = up / click)."""

    axes: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2,) * len(self.axes):
            raise ValueError(f"table shape {t.shape} does not match axes {self.axes}")
        if np.any(t < -1e-12):
            raise ValueError(f"negative probability {t.min():.3e}")
        total = float(t.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        t = np.clip(t, 0.0, None)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def _outcome_type(self):
        return _OUTCOME_TYPES.get(self.axes, None) or NamedTuple(
            "AdHocOutcome", [(a, bool) for a in self.axes]
        )

    def outcomes(self) -> Iterator[tuple[tuple, float]]:
        otype = self._outcome_type()
        for idx in np.ndindex(*self.table.shape):
            yield otype(*(bool(i) for i in idx)), float(self.table[idx])

    def prob(self, predicate: Callable) -> float:
        return float(sum(p for o, p in self.outcomes() if predicate(o)))


def _pulse_area_rotation(state: JointState, qubit: str, imp: NodeImperfections) -> JointState:
    return rotate(state, qubit, "y", HALF_PI, imp.over_rotation())


def _downstream_reflection(
    state: JointState, qubit: str, node: NodeConfig, channel: ChannelParams
) -> JointState:
    """Reflection off the node downstream of the connecting fiber.

    With probability p + eps the pulse's polarization has scrambled in the
    fiber (collectively, per pulse): the scrambled component reflects off the
    bare resonator on both branches and no longer drives this node's atom, so
    its record decouples the downstream readout from everything upstream.
    """
    q = channel.scramble_probability
    coupled = reflect(state, qubit, "ph", node.pair(), node.imperfections.reflection_contrast)
    if q == 0.0:
        return coupled
    decoupled = reflect(state, qubit, "ph", node.empty_pair())
    return coupled._replace_matrix((1.0 - q) * coupled.matrix + q * decoupled.matrix)


def _propagate_cascade(
    config: ExperimentConfig, mean_photon: float, nodes: Sequence[int] = (1, 2)
) -> JointState:
    """Optical pipeline up to (and including) the final pi/2 pulses.

    Node k's atom is the qubit "a<k>". Only the listed nodes take part; a
    missing node acts as a unit-reflectivity mirror, so (1,) or (2,) is the
    single-node characterization run and the fiber and detection losses stay
    where they are.
    """
    space = config.fock_space()
    atoms = [(f"a{k}", config.node(k)) for k in nodes]
    state = JointState.from_parts(
        [(qubit, prepare(node.imperfections.prep_fidelity)) for qubit, node in atoms]
        + [("ph", config.input_state(mean_photon, space))]
    )
    for qubit, node in atoms:
        state = _pulse_area_rotation(state, qubit, node.imperfections)
    if 1 in nodes:
        imp1 = config.node1.imperfections
        state = reflect(state, "a1", "ph", config.node1.pair(), imp1.reflection_contrast)
    state = fiber_channel(state, "ph", config.channel)
    if 2 in nodes:
        state = _downstream_reflection(state, "a2", config.node2, config.channel)
    state = detection_path(state, "ph", config.detection_efficiency)
    for qubit, node in atoms:
        imp = node.imperfections
        state = dephase(state, qubit, imp.protocol_window, imp.t_coherence)
    for qubit, node in atoms:
        state = _pulse_area_rotation(state, qubit, node.imperfections)
    return state


_Branch = tuple[tuple[int, ...], float, JointState]


def _readout_branches(state: JointState, readouts: Sequence[tuple[str, float]]) -> list[_Branch]:
    """(readout bits, joint probability, conditional state) of every reachable branch.

    The atoms are read in the given order, each as (qubit label, readout
    fidelity); bit 1 means 'up'. A branch too improbable to condition on is
    dropped together with every branch below it.
    """
    branches = [((), 1.0, state)]
    for qubit, fidelity in readouts:
        deeper = []
        for bits, p, current in branches:
            read = detect_state(current, qubit, fidelity)
            for up in (0, 1):
                p_up, cond = read.probability(up), read.conditional_or_none(up)
                if p_up > 0.0 and cond is not None:
                    deeper.append((bits + (up,), p * p_up, cond))
        branches = deeper
    return branches


def _node_branches(
    config: ExperimentConfig, mean_photon: float, nodes: Sequence[int] = (1, 2)
) -> list[_Branch]:
    """Readout branches of the propagated run, one readout bit per listed node.

    Each branch keeps only the photon mode.
    """
    readouts = [(f"a{k}", config.node(k).imperfections.readout_fidelity) for k in nodes]
    return _readout_branches(_propagate_cascade(config, mean_photon, nodes), readouts)


def _click_table(config: ExperimentConfig, mean_photon: float, nodes: Sequence[int]) -> np.ndarray:
    """Table over (one readout bit per listed node..., detector a, detector b)."""
    table = np.zeros((2,) * (len(nodes) + 2))
    for bits, p, cond in _node_branches(config, mean_photon, nodes):
        clicks = hbt_split_and_count(cond, "ph", config.detector_a, config.detector_b)
        for (da, db), pc in clicks.items():
            table[bits + (int(da), int(db))] += p * pc
    return table


def run_cascade(config: ExperimentConfig, mean_photon: float) -> JointDistribution:
    """Exact 16-outcome table over (s1, s2, detector a, detector b)."""
    table = _click_table(config, mean_photon, (1, 2))
    return JointDistribution(("s1", "s2", "da", "db"), table)


def branch_photon_numbers(config: ExperimentConfig, mean_photon: float) -> np.ndarray:
    """P[s1, s2, n]: joint probability of both readouts and n photons before the split.

    Every estimator that needs only the atomic outcomes and the photon-number
    populations (conditioned g2, no-light rates) reads this one table.
    """
    table = np.zeros((2, 2, config.fock_space().dim))
    for bits, p, cond in _node_branches(config, mean_photon):
        table[bits] = p * np.real(np.diagonal(cond.matrix))
    return table


def run_single(config: ExperimentConfig, node_index: int, mean_photon: float) -> JointDistribution:
    """Characterization run with the other node replaced by a unit-reflectivity mirror."""
    if node_index not in (1, 2):
        raise ConfigError(f"node_index must be 1 or 2, got {node_index}")
    table = _click_table(config, mean_photon, (node_index,))
    return JointDistribution(("s", "da", "db"), table)


def conditioned_photon_state(
    config: ExperimentConfig, mean_photon: float, predicate: Callable
) -> ModeState:
    """Photon state just before the 50:50 split, conditioned on atomic outcomes.

    The predicate sees an object with boolean fields s1 and s2. The diagonal
    of this state is the normalized sum of the kept rows of
    branch_photon_numbers(), which the estimators read instead.
    """
    kept = [
        (p, cond.matrix)
        for (s1, s2), p, cond in _node_branches(config, mean_photon)
        if predicate(Outcome(bool(s1), bool(s2), False, False))
    ]
    total = sum(p for p, _ in kept)
    if total <= 0.0:
        raise ZeroProbabilityError("conditioning on a zero-probability atomic predicate")
    return ModeState(config.fock_space(), sum(p * matrix for p, matrix in kept) / total)
