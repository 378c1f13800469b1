import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim.channel import ChannelParams, fiber_channel
from qndsim.errors import ConfigError
from qndsim.fock import JointState, ModeState, coherent_state, fock_state
from qndsim.node import (
    CqedParams,
    NodeImperfections,
    detect_state,
    dephase,
    prepare,
    reflect,
    rotate,
)
from qndsim.sorter import (
    HALF_PI,
    SorterConfig,
    SorterResult,
    feed_forward_basis,
    herald_confusion_matrix,
    run_sorter,
)


# The dense sorter the photon-number sector sorter replaced, kept as its
# reference: the joint density matrix of each node's atom and the photon mode
# through the node, channel and fock layers.


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


def dense_run_sorter(config: SorterConfig) -> list[SorterResult]:
    """Heralding probabilities and conditional output photon numbers for every label."""
    space = config.space()
    if config.input_kind == "fock":
        pulse = fock_state(config.fock_n, space)
    else:
        # Explicit n_max means a deliberately truncated, renormalized pulse.
        pulse = coherent_state(config.mean_photon, space, check_truncation=config.n_max is None)
    initial = pulse.to_joint("ph")
    results: dict[int, tuple[float, np.ndarray]] = {}

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
        out.append(SorterResult(herald, prob, mode.number_distribution(), fidelity))
    return out


@st.composite
def sorter_configs(draw):
    """Valid SorterConfigs: k 1-3, either input, ideal or detuned gates, imperfect nodes, a fiber."""
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        kind = dict(input_kind="fock", fock_n=draw(st.integers(0, 2**k + 1)))
        kind["n_max"] = max(kind["fock_n"], draw(st.integers(1, 2**k + 1)))
    else:
        mean_photon = draw(st.floats(0.05, 1.5))
        n_max = draw(st.one_of(st.none(), st.integers(1, 2**k + 1)))
        kind = dict(input_kind="coherent", mean_photon=mean_photon, n_max=n_max)
    ideal = draw(st.booleans())
    node_params = None
    if not ideal:
        node_params = tuple(
            CqedParams(
                g=7.6,
                kappa=2.5,
                gamma=3.0,
                delta_c=draw(st.floats(-2.0, 2.0)),
                delta_a=draw(st.floats(-2.0, 2.0)),
            )
            for _ in range(k)
        )
    imperfections = None
    if draw(st.booleans()):
        imperfections = tuple(
            NodeImperfections(
                dark_count=draw(st.floats(0.01, 0.05)),
                t_coherence=draw(st.floats(200.0, 1e4)),
                prep_fidelity=draw(st.floats(0.85, 1.0)),
                readout_fidelity=draw(st.floats(0.85, 1.0)),
            )
            for _ in range(k)
        )
    channel = None
    if draw(st.booleans()):
        channel = ChannelParams(
            transmission=draw(st.floats(0.5, 1.0)),
            depolarization=draw(st.floats(0.0, 0.1)),
            birefringence_residual=draw(st.floats(0.0, 0.05)),
        )
    return SorterConfig(
        k=k,
        node_params=node_params,
        imperfections=imperfections,
        channel=channel,
        **kind,
    )


def _weighted(result):
    """Herald probability p, and p times the fidelity, the <n> and each photon-number population."""
    numbers = result.numbers
    values = [1.0, result.fidelity, np.arange(len(numbers)) @ numbers, *numbers]
    return result.probability * np.array(values)


class TestDenseReference:
    """The sector sorter against the dense qubit-mode pipeline it replaced."""

    @staticmethod
    def _assert_matches(config):
        # The conditional quantities are compared weighted by their herald's
        # probability p: a conditional carries the rounding error of the joint
        # divided by p, and at p ~ 3e-8 (ideal k=3, mu 0.3, n_max 8) both
        # engines put the conditional <n> about 1e-9 away from its exact 7.
        sector, dense = run_sorter(config), dense_run_sorter(config)
        assert [r.herald for r in sector] == [r.herald for r in dense]
        for s, d in zip(sector, dense):
            assert s.numbers.shape == d.numbers.shape == (config.space().dim,)
            assert np.max(np.abs(_weighted(s) - _weighted(d))) < 1e-12

    def test_cli_config(self):
        self._assert_matches(SorterConfig(k=2, input_kind="coherent", mean_photon=0.5, n_max=3))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(config=sorter_configs())
    def test_random_configs(self, config):
        self._assert_matches(config)


class TestFeedForwardBasis:
    def test_first_node_parity_basis(self):
        basis = feed_forward_basis([])
        assert basis.axis_label == "y"
        assert basis.angle == pytest.approx(math.pi / 2)
        assert basis.up_means_bit == 1

    def test_even_prior_uses_y(self):
        basis = feed_forward_basis([0])
        assert basis.axis_label == "y"
        assert basis.angle == pytest.approx(math.pi / 2)

    def test_odd_prior_uses_x(self):
        basis = feed_forward_basis([1])
        assert basis.axis_label == "x"
        assert basis.angle == pytest.approx(math.pi / 2)
        assert basis.up_means_bit == 0  # an 'up' readout heralds |1>, not |3>

    def test_k2_rule_equivalence(self):
        # general digit-readout rule restricted to k=2 reproduces the explicit
        # R_y / R_x table byte-for-byte
        table = {(0,): ("y", 1), (1,): ("x", 0)}
        for prior, (axis, up_bit) in table.items():
            basis = feed_forward_basis(list(prior), k=2)
            assert (basis.axis_label, basis.up_means_bit) == (axis, up_bit)

    def test_over_length_prior_rejected(self):
        with pytest.raises(ConfigError):
            feed_forward_basis([0, 1], k=2)

    def test_non_bit_rejected(self):
        with pytest.raises(ConfigError):
            feed_forward_basis([2])


class TestRunSorter:
    def test_fock2_heralded_deterministically(self):
        res = run_sorter(SorterConfig(k=2, input_kind="fock", fock_n=2, n_max=3))
        assert len(res) == 1
        assert res[0].herald == 2
        assert res[0].probability == pytest.approx(1.0, abs=1e-12)
        assert res[0].fidelity == pytest.approx(1.0, abs=1e-12)

    def test_truncated_coherent_poisson_heralds(self):
        cfg = SorterConfig(k=2, input_kind="coherent", mean_photon=0.5, n_max=3)
        res = run_sorter(cfg)
        weights = np.array([0.5**n / math.factorial(n) for n in range(4)])
        weights /= weights.sum()
        assert len(res) == 4
        for r in res:
            assert r.probability == pytest.approx(weights[r.herald], abs=1e-9)
            assert r.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_k3_fock5(self):
        res = run_sorter(SorterConfig(k=3, input_kind="fock", fock_n=5, n_max=7))
        assert [(r.herald, r.probability) for r in res] == [(5, pytest.approx(1.0, abs=1e-12))]

    def test_heralding_completeness(self):
        cfg = SorterConfig(k=2, input_kind="coherent", mean_photon=0.8, n_max=6)
        res = run_sorter(cfg)
        assert sum(r.probability for r in res) == pytest.approx(1.0, abs=1e-10)

    def test_output_state_is_modular_projection(self):
        # herald label m selects the Fock components n = m (mod 4)
        cfg = SorterConfig(k=2, input_kind="coherent", mean_photon=0.8, n_max=6)
        weights = np.array([0.8**n / math.factorial(n) for n in range(7)])
        weights /= weights.sum()
        for r in run_sorter(cfg):
            pops = r.numbers
            keep = np.arange(7) % 4 == r.herald
            expected = np.where(keep, weights, 0.0)
            expected /= expected.sum()
            assert np.max(np.abs(pops - expected)) < 1e-10

    def test_k1_reduces_to_parity_readout(self):
        cfg = SorterConfig(k=1, input_kind="coherent", mean_photon=0.5, n_max=4)
        res = run_sorter(cfg)
        weights = np.array([0.5**n / math.factorial(n) for n in range(5)])
        weights /= weights.sum()
        p_odd = weights[1::2].sum()
        by_label = {r.herald: r.probability for r in res}
        assert by_label[1] == pytest.approx(p_odd, abs=1e-10)


    @pytest.mark.parametrize(
        "fields",
        [
            dict(mean_photon=-1.0),
            dict(mean_photon=math.nan),
            dict(mean_photon=math.inf),
            dict(input_kind="fock", fock_n=-1),
        ],
    )
    def test_invalid_input_rejected(self, fields):
        with pytest.raises(ConfigError):
            SorterConfig(**fields)

    @pytest.mark.parametrize("accessor", ["phase", "gate_pair", "node_imperfections"])
    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_node_accessors_reject_indices_outside_1_to_k(self, accessor, index):
        config = SorterConfig(k=2, imperfections=(NodeImperfections(), NodeImperfections()))
        with pytest.raises(ConfigError, match=f"node index must be in 1..2, got {index}"):
            getattr(config, accessor)(index)


class TestConfusionMatrix:
    def test_ideal_k2_identity(self):
        m = herald_confusion_matrix(SorterConfig(k=2), range(4))
        assert np.max(np.abs(m - np.eye(4))) < 1e-12

    def test_aliasing_mod_2k(self):
        m = herald_confusion_matrix(SorterConfig(k=2), [4])
        assert m[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        m = herald_confusion_matrix(SorterConfig(k=2, channel=ChannelParams(0.8, 0, 0)), range(4))
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-10)

    def test_loss_grows_offdiagonal_mass(self):
        previous = -1.0
        for t in (1.0, 0.9, 0.7, 0.5):
            cfg = SorterConfig(k=2, channel=ChannelParams(t, 0, 0))
            m = herald_confusion_matrix(cfg, range(1, 4))
            off = float(m.sum() - sum(m[i, i + 1] for i in range(3)))
            assert off >= previous - 1e-12
            previous = off

    def test_k3_identity(self):
        m = herald_confusion_matrix(SorterConfig(k=3), range(8))
        assert np.max(np.abs(m - np.eye(8))) < 1e-12

    @pytest.mark.parametrize("n_range", [[], range(0)])
    def test_empty_range_refused(self, n_range):
        with pytest.raises(ConfigError, match="n_range is empty"):
            herald_confusion_matrix(SorterConfig(k=2), n_range)


class TestRealisticMode:
    def test_amplitude_penalty_keeps_completeness(self):
        params = CqedParams(g=7.6, kappa=2.5, gamma=3.0, delta_c=2.0, delta_a=1.0)
        cfg = SorterConfig(
            k=2,
            input_kind="coherent",
            mean_photon=0.5,
            n_max=3,
            node_params=(params, params),
        )
        res = run_sorter(cfg)
        assert sum(r.probability for r in res) == pytest.approx(1.0, abs=1e-10)
        # detuned cavities lose photons: heralds are no longer perfectly sharp
        by_label = {r.herald: r for r in res}
        assert by_label[1].fidelity < 1.0

    def test_imperfect_readout_spreads_heralds(self):
        imp = NodeImperfections(readout_fidelity=0.99)
        cfg = SorterConfig(k=2, input_kind="fock", fock_n=2, n_max=3, imperfections=(imp, imp))
        res = run_sorter(cfg)
        by_label = {r.herald: r.probability for r in res}
        assert by_label[2] == pytest.approx(0.99**2, abs=1e-9)
