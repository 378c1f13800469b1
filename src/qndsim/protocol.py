"""The two-node cascade: the exact engine behind every exact figure.

The engine's one output is the readout-resolved photon-number table
P[s1, s2, n] (branch_photon_numbers): the joint probability of the two
atomic readouts and of n photons before the 50:50 split. Every exact figure
reads it: the click tables (run_cascade_each) split each nonzero row onto
the two detectors, conditioned_photon_state sums the kept rows, and the g2,
no-light and atom-only estimators (fig2) read it without a split. A
single-node characterization run (run_single, figS1) is the same cascade on
mirrored(config, k), where the other node is an ideal unit-reflectivity
mirror whose atom reads one outcome with probability 1.

The engine runs on the photon-number-diagonal sector. Every cascade channel
(loss, reflection, branch distinguishability, the fiber's phase flip,
dephasing, the qubit rotations) keeps the photon-number difference n - m of a
coherence, and every measurement (atomic readout, threshold detection) is
diagonal in photon number, so only the n = m sector reaches an output. The
cascade is two runs of one node step (_node_step): the photon numbers that
reach a node are thinned by the node's per-photon weights (a, b), one pair
per block of its atom's 2 x 2 state rho', and after the final pulse the atom
is read; each readout outcome leaves a probability and the photon numbers
that go on to the next node. Thinnings compose, so node 2's map holds the
fiber, its own reflection and the detection loss. Node 1 is read before
node 2's stages act and both atoms before the photon counting; each later
stage acts on other subsystems and every step is linear, so this ordering
does not affect the joint table. Only the input photon numbers depend on mu,
so the node maps, pulses and rho' are built once per physics (the two nodes,
the channel, the detection efficiency and the cutoff). The number sorter
runs k of the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelParams
from .detectors import DetectorParams, hbt_split_and_count
from .errors import ConfigError, TruncationError, ZeroProbabilityError
from .fock import (
    MIN_PROBABILITY,
    N_MAX_CAP,
    FockSpace,
    JointState,
    ModeState,
    _check_blocks,
    pulse_amplitudes,
)
from .node import (
    CqedParams,
    NodeImperfections,
    ReflectionPair,
    prepare,
    reflection_pair,
    rotation_matrix,
)

HALF_PI = math.pi / 2.0
# Largest run seed: the Monte Carlo streams take it as a 64-bit Philox key.
SEED_MAX = 2**64 - 1


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
        return ReflectionPair(p.r_uncoupled, p.r_uncoupled, (p.s[1], p.s[1]))


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
        # + 0.0 turns -0.0 into 0.0 and leaves every other value as it is.
        object.__setattr__(self, "mean_photon_sweep", tuple(m + 0.0 for m in self.mean_photon_sweep))
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
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(f"seed must be in [0, {SEED_MAX}], got {self.seed}")
        self.fock_space()  # fail fast on truncation-infeasible sweeps

    def node(self, index: int) -> NodeConfig:
        """Node 1 (upstream of the fiber) or node 2 (downstream)."""
        if index not in (1, 2):
            raise ConfigError(f"node index must be 1 or 2, got {index}")
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

    def input_numbers(self, mean_photon: float) -> np.ndarray:
        """Photon-number distribution of the input pulse on fock_space()."""
        amp = pulse_amplitudes(self.input_kind, self.fock_space(), mean_photon, self.fock_n)
        return amp * amp


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
        if not np.isfinite(t).all():
            raise ValueError(f"non-finite probability {t[~np.isfinite(t)][0]}")
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


def _reflection_weights(pair: ReflectionPair, contrast: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-photon weights (a, b)[x, y] of a reflection on an atom's blocks |x><y|.

    A photon of block (x, y) is kept with a = r_x conj(r_y) and lost with
    b = s_x s_y, the pair's loss amplitudes; a contrast below one tags each
    kept photon with its branch, which scales a by the contrast when x != y.
    """
    r = np.array([complex(pair.r_coupled), complex(pair.r_uncoupled)])
    s = np.array(pair.s)
    return np.outer(r, r.conj()) * np.array([[1.0, contrast], [contrast, 1.0]]), np.outer(s, s)


def _compose(first: tuple, then: tuple) -> tuple:
    """Two thinnings in sequence: (a1, b1) then (a2, b2) is (a1 a2, b1 + a1 b2)."""
    (a1, b1), (a2, b2) = first, then
    return a1 * a2, b1 + a1 * b2


def _thinning(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """M[..., m, n] = C(n, m) a^m b^(n - m): per-photon weights (a, b) as a map on photon numbers.

    Each of the n photons is independently kept with weight a and lost with
    weight b; a and b broadcast together, one map per entry.
    """
    n = np.arange(dim)
    lost = np.asarray(b)[..., None, None] ** np.maximum(n - n[:, None], 0)
    binomial = np.array([[math.comb(k, m) for k in range(dim)] for m in range(dim)])  # C(n, m) at [m, n]
    return np.asarray(a)[..., None, None] ** n[:, None] * (lost * binomial)


def _node_atom(imp: NodeImperfections) -> tuple[np.ndarray, np.ndarray]:
    """A node's pi/2 pulse and its atom's rho': prepared, pulsed and dephased between the pulses.

    Dephasing acts on the atom alone, so it commutes with the thinning and is folded into rho'.
    """
    pulse = rotation_matrix(HALF_PI, HALF_PI + imp.over_rotation())
    v = imp.visibility()
    return pulse, pulse @ prepare(imp.prep_fidelity) @ pulse.conj().T * np.array([[1.0, v], [v, 1.0]])


def _node_step(
    numbers: np.ndarray,
    thinning: np.ndarray,
    atom: np.ndarray,
    pulse: np.ndarray,
    fidelity: float,
    what: str,
) -> list[tuple[int, float, np.ndarray]]:
    """(bit, probability, conditional photon numbers) per readout of one node reached by p_n.

    Block (x, y) of the atom is rho'_xy times p_n thinned by the node's map
    thinning[x, y]; after the final pulse the (dim, 2, 2) stack is checked as
    `what`. The atom is read with symmetric misassignment at the readout
    fidelity; bit 1 means 'up'. An outcome below MIN_PROBABILITY is dropped;
    the photon numbers of the others, the normalized weighted diagonal, are
    checked as `what` readout.
    """
    blocks = pulse @ (np.moveaxis(thinning @ numbers, -1, 0) * atom) @ pulse.conj().T
    _check_blocks(blocks, what)
    out = []
    # Weights on the qubit's up (index 0) and down states.
    for up, (w0, w1) in ((0, (1.0 - fidelity, fidelity)), (1, (fidelity, 1.0 - fidelity))):
        reduced = w0 * blocks[:, 0, 0] + w1 * blocks[:, 1, 1]
        p_read = float(reduced.real.sum())
        if p_read >= MIN_PROBABILITY:
            cond = reduced / p_read
            _check_blocks(cond[:, None, None], f"{what} readout")
            out.append((up, p_read, cond.real))
    return out


# Every sweep point reads it (86 to 196 hits per benchmark pass). Keyed on what
# the propagation reads, so a config and its quiet_detectors() twin share one
# entry; a CLI run reads at most two, the cascade's or figS1's mirrored pair.
@lru_cache(maxsize=8)
def _cascade_nodes(
    node1: NodeConfig, node2: NodeConfig, channel: ChannelParams, detection: float, dim: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Each node's read-only (thinning, atom, pulse), the mu-independent part of a node step.

    Node 1's map is its reflection. Node 2's composes the fiber, its own
    reflection and the detection loss, so its readout's photon numbers are
    those before the split. The fiber's phase flip is the identity on the
    sector and drops out.
    """
    first = _reflection_weights(node1.pair(), node1.imperfections.reflection_contrast)
    fiber = (channel.transmission, 1.0 - channel.transmission)
    detected = (detection, 1.0 - detection)
    # With probability q the pulse's polarization has scrambled in the fiber
    # (collectively, per pulse): that component reflects off the bare resonator
    # on both branches and no longer drives the downstream atom.
    q = channel.scramble_probability
    coupled = _reflection_weights(node2.pair(), node2.imperfections.reflection_contrast)
    paths = [(1.0 - q, coupled), (q, _reflection_weights(node2.empty_pair()))]
    second = sum(w * _thinning(*_compose(_compose(fiber, r), detected), dim) for w, r in paths)
    nodes = []
    for thinning, node in ((_thinning(*first, dim), node1), (second, node2)):
        pulse, atom = _node_atom(node.imperfections)
        for array in (thinning, atom, pulse):
            array.flags.writeable = False
        nodes.append((thinning, atom, pulse))
    return tuple(nodes)


def branch_photon_numbers(config: ExperimentConfig, mean_photon: float) -> np.ndarray:
    """P[s1, s2, n]: joint probability of both nodes' readouts and n photons before the split.

    The engine's one output; every exact estimator reads it. Node 1's step
    reads its atom first, and each of its kept outcomes' photon numbers run
    through node 2's step. A readout below MIN_PROBABILITY drops its branch
    and every branch below it, and its row is zero.
    """
    dim = config.fock_space().dim
    first, second = _cascade_nodes(
        config.node1, config.node2, config.channel, config.detection_efficiency, dim
    )
    f1, f2 = (config.node(k).imperfections.readout_fidelity for k in (1, 2))
    table = np.zeros((2, 2, dim))
    for s1, p1, numbers in _node_step(config.input_numbers(mean_photon), *first, f1, "node 1"):
        for s2, p2, detected in _node_step(numbers, *second, f2, "node 2"):
            table[s1, s2] = p1 * p2 * detected
    return table


def run_cascade_each(
    config: ExperimentConfig,
    mean_photon: float,
    detectors: Sequence[tuple[DetectorParams, DetectorParams]],
) -> list[JointDistribution]:
    """The (s1, s2, detector a, detector b) table once per (detector a, detector b) pair.

    One propagation, and each nonzero branch is split once; every detector
    pair weights that split.
    """
    numbers = branch_photon_numbers(config, mean_photon)
    tables = np.zeros((len(detectors), 2, 2, 2, 2))
    space = config.fock_space()
    for bits in np.ndindex(2, 2):
        p = numbers[bits].sum()
        if p > 0.0:
            photon = JointState(("ph",), ("m",), (space,), np.diag(numbers[bits] / p))
            tables[(slice(None),) + bits] = p * hbt_split_and_count(photon, "ph", detectors)
    return [JointDistribution(("s1", "s2", "da", "db"), table) for table in tables]


def run_cascade(config: ExperimentConfig, mean_photon: float) -> JointDistribution:
    """Exact 16-outcome table over (s1, s2, detector a, detector b)."""
    return run_cascade_each(config, mean_photon, [(config.detector_a, config.detector_b)])[0]


def mirrored(config: ExperimentConfig, node_index: int) -> ExperimentConfig:
    """The config with the node other than node_index replaced by an ideal unit-reflectivity mirror.

    The mirror reflects every photon on both branches (r = 1) and its atom is
    ideal (default NodeImperfections), so that atom reads one outcome with
    probability 1 and the other readout row of the cascade is zero: the
    cascade on this config is node_index's single-node characterization run.
    """
    if node_index not in (1, 2):
        raise ConfigError(f"node_index must be 1 or 2, got {node_index}")
    other = 3 - node_index
    mirror = NodeConfig(config.node(other).cqed, reflection_override=(1.0, 1.0))
    return replace(config, **{f"node{other}": mirror})


def run_single(config: ExperimentConfig, node_index: int, mean_photon: float) -> JointDistribution:
    """Characterization run: the cascade on mirrored(config, node_index), summed over the mirror's readout."""
    table = run_cascade(mirrored(config, node_index), mean_photon).table
    return JointDistribution(("s", "da", "db"), table.sum(axis=2 - node_index))


def conditioned_photon_state(
    config: ExperimentConfig, mean_photon: float, predicate: Callable
) -> ModeState:
    """Number-dephased photon state just before the 50:50 split, conditioned on atomic outcomes.

    The predicate sees an object with boolean fields s1 and s2. The state is
    diagonal in photon number (every later measurement is), and its diagonal
    is the normalized sum of the kept rows of branch_photon_numbers(), which
    the estimators read instead.
    """
    numbers = branch_photon_numbers(config, mean_photon)
    weights = np.zeros(numbers.shape[-1])
    for s1, s2 in np.ndindex(2, 2):
        if predicate(Outcome(bool(s1), bool(s2), False, False)):
            weights += numbers[s1, s2]
    total = weights.sum()
    if total <= 0.0:
        raise ZeroProbabilityError("conditioning on a zero-probability atomic predicate")
    return ModeState(config.fock_space(), np.diag(weights / total))
