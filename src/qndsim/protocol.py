"""Full two-detector cascade and single-detector characterization pipelines.

The engine's one output is the readout-resolved photon-number table
P[s..., n] (branch_photon_numbers): the joint probability of the atomic
readouts and of n photons before the 50:50 split. Every exact figure reads
it: the click tables (run_cascade, run_single) split each nonzero row onto
the two detectors, conditioned_photon_state sums the kept rows, and the g2,
no-light and atom-only estimators (fig2) read it without a split.

The engine runs on the photon-number-diagonal sector. Every cascade channel
(loss, reflection, branch distinguishability, the fiber's phase flip,
dephasing, the qubit rotations) keeps the photon-number difference n - m of a
coherence, and every measurement (atomic readout, threshold detection) is
diagonal in photon number, so only the n = m sector reaches an output. The
state is one 2^k x 2^k block of the k atoms per photon number. Each stage
between the two pi/2 pulses keeps or loses every photon independently, with
weights (a, b) per block, and thinnings compose, so the whole path is one
thinning per block. Only the input photon numbers depend on mu, so that
thinning map, the pulses and the atoms' state are built once per (config,
nodes) and applied to each point's photon numbers. Atomic readout is applied
before the photon counting; all measurement channels act on disjoint
subsystems, so this ordering does not affect the joint table. The number
sorter runs on the same sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
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


@lru_cache(maxsize=None)
def _binomial(dim: int) -> np.ndarray:
    """C(n, m) at [m, n] for m, n < dim, as a read-only array cached per dimension."""
    table = np.array([[math.comb(n, m) for n in range(dim)] for m in range(dim)])
    table.flags.writeable = False
    return table


def _thinning(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """M[..., m, n] = C(n, m) a^m b^(n - m): per-photon weights (a, b) as a map on photon numbers.

    Each of the n photons is independently kept with weight a and lost with
    weight b; a and b broadcast together, one map per entry.
    """
    n = np.arange(dim)
    lost = np.asarray(b)[..., None, None] ** np.maximum(n - n[:, None], 0)
    return np.asarray(a)[..., None, None] ** n[:, None] * (lost * _binomial(dim))


def _thin(numbers: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W[..., m] = sum_n p_n C(n, m) a^m b^(n - m): the thinning map applied to p_n."""
    return _thinning(a, b, len(numbers)) @ numbers


# A CLI run reads at most four: a config and its quiet_detectors() twin, for
# the cascade's nodes or for each single node.
@lru_cache(maxsize=8)
def _propagator(config: ExperimentConfig, nodes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The mu-independent part of _propagate, as read-only (thinning, pulse, atoms).

    thinning[X, Y, m, n] maps the input photon numbers n to the weights of
    block (X, Y), with both fiber paths and the detection loss composed in;
    pulse is the kron of the final pi/2 pulses and atoms the atoms' rho',
    dephased between the pulses. Only the listed nodes take part, one atom
    each in the listed order; a missing node acts as a unit-reflectivity
    mirror, so (1,) or (2,) is the single-node characterization run and the
    fiber and detection losses stay where they are. The fiber's phase flip is
    the identity on the sector and drops out.
    """
    k = len(nodes)
    imps = [config.node(j).imperfections for j in nodes]

    def reflection(node: int, pair: ReflectionPair, contrast: float = 1.0) -> tuple:
        bit = (np.arange(2**k) >> (k - 1 - nodes.index(node))) & 1
        return tuple(w[bit[:, None], bit[None, :]] for w in _reflection_weights(pair, contrast))

    n1, n2 = config.node1, config.node2
    fiber, detection = config.channel.transmission, config.detection_efficiency
    path = (fiber, 1.0 - fiber)
    if 1 in nodes:
        path = _compose(reflection(1, n1.pair(), n1.imperfections.reflection_contrast), path)
    paths = [(1.0, path)]
    if 2 in nodes:
        # With probability q the pulse's polarization has scrambled in the
        # fiber (collectively, per pulse): that component reflects off the bare
        # resonator on both branches and no longer drives the downstream atom.
        q = config.channel.scramble_probability
        coupled = reflection(2, n2.pair(), n2.imperfections.reflection_contrast)
        scrambled = reflection(2, n2.empty_pair())
        paths = [(1.0 - q, _compose(path, coupled)), (q, _compose(path, scrambled))]

    dim = config.fock_space().dim
    thinning = sum(w * _thinning(*_compose(p, (detection, 1.0 - detection)), dim) for w, p in paths)
    pulses = [rotation_matrix(HALF_PI, HALF_PI + imp.over_rotation()) for imp in imps]
    pulse = reduce(np.kron, pulses)
    visibilities = [np.array([[1.0, v], [v, 1.0]]) for v in map(NodeImperfections.visibility, imps)]
    atoms = reduce(np.kron, [prepare(imp.prep_fidelity) for imp in imps])
    # rho', dephased between the pulses: a channel on the atoms alone commutes with the thinning
    atoms = pulse @ atoms @ pulse.conj().T * reduce(np.kron, visibilities)
    for array in (thinning, pulse, atoms):
        array.flags.writeable = False
    return thinning, pulse, atoms


def _propagate(
    config: ExperimentConfig, mean_photon: float, nodes: Sequence[int] = (1, 2)
) -> np.ndarray:
    """Number-diagonal blocks S[n] of the state after the final pi/2 pulses.

    The state is a (dim, 2^k, 2^k) stack of the k atoms' blocks, one per
    photon number (see the module docstring). Block (X, Y) is the first
    pulses' atom block rho'_XY times the input photon numbers thinned by the
    composed weights of every stage up to the detectors: _propagator's map,
    built once per (config, nodes) and applied here to this point's input.
    Only the final stack is formed, and it is validated.
    """
    thinning, pulse, atoms = _propagator(config, tuple(nodes))
    weights = thinning @ config.input_numbers(mean_photon)
    blocks = pulse @ (np.moveaxis(weights, -1, 0) * atoms) @ pulse.conj().T
    _check_blocks(blocks, "propagated state")
    return blocks


def _read_atom(blocks: np.ndarray, f: float, what: str) -> list[tuple[int, float, np.ndarray]]:
    """(bit, probability, conditional (dim, b/2, b/2) blocks) per readout of the leading atom.

    Symmetric misassignment at readout fidelity f; bit 1 means 'up'. An
    outcome below MIN_PROBABILITY is dropped; the others are checked as `what`.
    """
    dim, size = blocks.shape[:2]
    split = blocks.reshape(dim, 2, size // 2, 2, size // 2)
    out = []
    # Weights on the qubit's up (index 0) and down states.
    for up, (w0, w1) in ((0, (1.0 - f, f)), (1, (f, 1.0 - f))):
        reduced = w0 * split[:, 0, :, 0] + w1 * split[:, 1, :, 1]
        p_read = float(reduced.trace(axis1=1, axis2=2).real.sum())
        if p_read >= MIN_PROBABILITY:
            cond = reduced / p_read
            _check_blocks(cond, what)
            out.append((up, p_read, cond))
    return out


def branch_photon_numbers(
    config: ExperimentConfig, mean_photon: float, nodes: Sequence[int] = (1, 2)
) -> np.ndarray:
    """P[bits..., n]: joint probability of the listed nodes' readouts and n photons before the split.

    The engine's one output, of shape (2,) * len(nodes) + (dim,); every exact
    estimator reads it. The atoms are read in order by _read_atom at each
    node's readout fidelity. A branch whose readout has conditional
    probability below MIN_PROBABILITY is dropped together with every branch
    below it, and its row is zero.
    """
    branches = [((), 1.0, _propagate(config, mean_photon, nodes))]
    for k in nodes:
        f = config.node(k).imperfections.readout_fidelity
        branches = [
            (bits + (up,), p * p_read, cond)
            for bits, p, blocks in branches
            for up, p_read, cond in _read_atom(blocks, f, f"node {k} readout")
        ]
    table = np.zeros((2,) * len(nodes) + (config.fock_space().dim,))
    for bits, p, blocks in branches:
        table[bits] = p * blocks[:, 0, 0].real
    return table


def _click_table(
    config: ExperimentConfig,
    mean_photon: float,
    nodes: Sequence[int],
    detectors: Sequence[tuple[DetectorParams, DetectorParams]],
) -> np.ndarray:
    """Tables over (detector pair, one readout bit per listed node..., detector a, detector b).

    Each nonzero branch is split once; every (a, b) detector pair weights that split.
    """
    numbers = branch_photon_numbers(config, mean_photon, nodes)
    table = np.zeros((len(detectors),) + numbers.shape[:-1] + (2, 2))
    space = config.fock_space()
    for bits in np.ndindex(numbers.shape[:-1]):
        p = numbers[bits].sum()
        if p > 0.0:
            photon = JointState(("ph",), ("m",), (space,), np.diag(numbers[bits] / p))
            table[(slice(None),) + bits] = p * hbt_split_and_count(photon, "ph", detectors)
    return table


def run_cascade(config: ExperimentConfig, mean_photon: float) -> JointDistribution:
    """Exact 16-outcome table over (s1, s2, detector a, detector b)."""
    table = _click_table(config, mean_photon, (1, 2), [(config.detector_a, config.detector_b)])[0]
    return JointDistribution(("s1", "s2", "da", "db"), table)


def run_single_each(
    config: ExperimentConfig,
    node_index: int,
    mean_photon: float,
    detectors: Sequence[tuple[DetectorParams, DetectorParams]],
) -> list[JointDistribution]:
    """run_single once per (detector a, detector b) pair, from one propagation and one split per branch."""
    if node_index not in (1, 2):
        raise ConfigError(f"node_index must be 1 or 2, got {node_index}")
    tables = _click_table(config, mean_photon, (node_index,), detectors)
    return [JointDistribution(("s", "da", "db"), table) for table in tables]


def run_single(config: ExperimentConfig, node_index: int, mean_photon: float) -> JointDistribution:
    """Characterization run with the other node replaced by a unit-reflectivity mirror."""
    return run_single_each(config, node_index, mean_photon, [(config.detector_a, config.detector_b)])[0]


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
