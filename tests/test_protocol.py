import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from importlib import util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import conditional, random_configs
from qndsim.channel import ChannelParams, detection_path, fiber_channel
from qndsim.cli import build_figure, main
from qndsim.config import build_config, config_values, ideal_config, parse_config_text, serialize_config
from qndsim.detectors import hbt_split_and_count
from qndsim.errors import ConfigError, ZeroProbabilityError
from qndsim.estimators import G2_CONDITIONS, cells_from_distribution, g2_from_numbers, g2_table, snr
from qndsim.estimators import quiet_detectors
from qndsim.fock import MIN_PROBABILITY, JointState, _beam_splitter_unitary, coherent_state, fock_state, loss_channel
from qndsim.node import (
    CqedParams,
    ReflectionPair,
    _branch_reflection_kraus,
    _distinguishability_kraus,
    detect_state,
    dephase,
    prepare,
    reflect,
    reflection_pair,
    rotate,
    rotation_matrix,
)
from qndsim.protocol import (
    HALF_PI,
    JointDistribution,
    _cascade_nodes,
    _compose,
    _reflection_weights,
    _thinning,
    branch_photon_numbers,
    conditioned_photon_state,
    mirrored,
    run_cascade,
    run_single,
)
from qndsim.sorter import SorterConfig

ROOT = Path(__file__).resolve().parents[1]


# The dense cascade pipeline the photon-number sector engine replaced, kept as
# its reference: the full joint density matrix of the atoms and the photon
# mode through the node, channel and fock layers, read out atom by atom.


def _dense_pulses(state, atoms):
    for qubit, node in atoms:
        state = rotate(state, qubit, "y", math.pi / 2, node.imperfections.over_rotation())
    return state


def _dense_downstream_reflection(state, node, channel):
    q = channel.scramble_probability
    coupled = reflect(state, "a2", "ph", node.pair(), node.imperfections.reflection_contrast)
    if q == 0.0:
        return coupled
    decoupled = reflect(state, "a2", "ph", node.empty_pair())
    return coupled._replace_matrix((1.0 - q) * coupled.matrix + q * decoupled.matrix)


def dense_input(config, mu):
    """The config's input pulse as a dense ModeState on its Fock space."""
    if config.input_kind == "fock":
        return fock_state(config.fock_n, config.fock_space())
    return coherent_state(mu, config.fock_space())


def dense_propagate(config, mu, nodes=(1, 2), fiber=fiber_channel):
    atoms = [(f"a{k}", config.node(k)) for k in nodes]
    state = JointState.from_parts(
        [(qubit, prepare(node.imperfections.prep_fidelity)) for qubit, node in atoms]
        + [("ph", dense_input(config, mu))]
    )
    state = _dense_pulses(state, atoms)
    if 1 in nodes:
        imp1 = config.node1.imperfections
        state = reflect(state, "a1", "ph", config.node1.pair(), imp1.reflection_contrast)
    state = fiber(state, "ph", config.channel)
    if 2 in nodes:
        state = _dense_downstream_reflection(state, config.node2, config.channel)
    state = detection_path(state, "ph", config.detection_efficiency)
    for qubit, node in atoms:
        imp = node.imperfections
        state = dephase(state, qubit, imp.protocol_window, imp.t_coherence)
    return _dense_pulses(state, atoms)


def dense_node_branches(config, mu, nodes=(1, 2), fiber=fiber_channel):
    """(readout bits, joint probability, conditional photon JointState) per kept branch."""
    branches = [((), 1.0, dense_propagate(config, mu, nodes, fiber))]
    for k in nodes:
        deeper = []
        for bits, p, current in branches:
            read = detect_state(current, f"a{k}", config.node(k).imperfections.readout_fidelity)
            for up in (0, 1):
                p_up, cond = read.probability(up), read.conditional_or_none(up)
                if p_up > 0.0 and cond is not None:
                    deeper.append((bits + (up,), p * p_up, cond))
        branches = deeper
    return branches


def dense_tables(config, mu, nodes=(1, 2), fiber=fiber_channel):
    """(branches, P[bits..., n], click table over (bits..., da, db)) of the dense pipeline."""
    branches = dense_node_branches(config, mu, nodes, fiber)
    numbers = np.zeros((2,) * len(nodes) + (config.fock_space().dim,))
    clicks = np.zeros((2,) * (len(nodes) + 2))
    for bits, p, cond in branches:
        numbers[bits] = p * np.real(np.diagonal(cond.matrix))
        clicks[bits] += p * hbt_split_and_count(cond, "ph", [(config.detector_a, config.detector_b)])[0]
    return branches, numbers, clicks


def reference_propagate(config, mu, nodes=(1, 2)):
    """Number-diagonal blocks after the final pulses, composed and thinned at this point.

    The per-point joint formula that the engine's per-node steps
    (protocol._node_step) replaced, kept as their reference: every stage's
    per-photon weights are composed on the atoms' joint blocks, and the input
    photon numbers thinned, at each call.
    """
    k = len(nodes)
    imps = [config.node(j).imperfections for j in nodes]

    def reflection(node, pair, contrast=1.0):
        bit = (np.arange(2**k) >> (k - 1 - nodes.index(node))) & 1
        return tuple(w[bit[:, None], bit[None, :]] for w in _reflection_weights(pair, contrast))

    def thin(numbers, a, b):
        n = np.arange(len(numbers))
        binomial = np.array([[math.comb(int(j), int(i)) for j in n] for i in n])
        lost = np.asarray(b)[..., None, None] ** np.maximum(n - n[:, None], 0)
        return np.asarray(a)[..., None] ** n * ((lost * binomial) @ numbers)

    n1, n2 = config.node1, config.node2
    fiber, detection = config.channel.transmission, config.detection_efficiency
    path = (fiber, 1.0 - fiber)
    if 1 in nodes:
        path = _compose(reflection(1, n1.pair(), n1.imperfections.reflection_contrast), path)
    paths = [(1.0, path)]
    if 2 in nodes:
        q = config.channel.scramble_probability
        coupled = reflection(2, n2.pair(), n2.imperfections.reflection_contrast)
        paths = [(1.0 - q, _compose(path, coupled)), (q, _compose(path, reflection(2, n2.empty_pair())))]
    numbers = config.input_numbers(mu)
    weights = sum(w * thin(numbers, *_compose(p, (detection, 1.0 - detection))) for w, p in paths)
    pulse = reduce(np.kron, [rotation_matrix(HALF_PI, HALF_PI + imp.over_rotation()) for imp in imps])
    visibilities = reduce(np.kron, [np.array([[1.0, v], [v, 1.0]]) for v in (imp.visibility() for imp in imps)])
    atoms = reduce(np.kron, [prepare(imp.prep_fidelity) for imp in imps])
    atoms = pulse @ atoms @ pulse.conj().T * visibilities
    return pulse @ (np.moveaxis(weights, -1, 0) * atoms) @ pulse.conj().T


def reference_photon_numbers(config, mu, nodes=(1, 2)):
    """branch_photon_numbers read atom by atom from reference_propagate's joint blocks.

    Each readout is the partial trace of the leading atom against its
    misassignment POVM; a branch below MIN_PROBABILITY is dropped, as the
    engine drops it.
    """
    branches = [((), 1.0, reference_propagate(config, mu, nodes))]
    for k in nodes:
        f = config.node(k).imperfections.readout_fidelity
        povm = np.array([[1.0 - f, f], [f, 1.0 - f]])  # [bit, state]: bit 1 and state 0 are 'up'
        deeper = []
        for bits, p, blocks in branches:
            dim, size = blocks.shape[:2]
            split = blocks.reshape(dim, 2, size // 2, 2, size // 2)
            for bit in (0, 1):
                reduced = np.einsum("s,nsasb->nab", povm[bit], split)
                p_read = reduced.trace(axis1=1, axis2=2).real.sum()
                if p_read >= MIN_PROBABILITY:
                    deeper.append((bits + (bit,), p * p_read, reduced / p_read))
        branches = deeper
    table = np.zeros((2,) * len(nodes) + (config.fock_space().dim,))
    for bits, p, blocks in branches:
        table[bits] = p * blocks[:, 0, 0].real
    return table


def single_node_clicks(config, mu, node):
    """P[s, da, db] of one node alone, as run_single and as the mirrored cascade summed by hand."""
    summed = run_cascade(mirrored(config, node), mu).table.sum(axis=2 - node)
    return run_single(config, node, mu).table, summed


def engine_numbers(config, mu, nodes):
    """The engine's P[bits..., n] for the cascade (1, 2) or for one node alone, (1,) or (2,).

    One node alone is the mirrored cascade's table summed over the mirror's readout.
    """
    if nodes == (1, 2):
        return branch_photon_numbers(config, mu)
    (node,) = nodes
    return branch_photon_numbers(mirrored(config, node), mu).sum(axis=2 - node)


def engine_clicks(config, mu, nodes):
    """The engine's click tables for the cascade (1, 2) or for one node alone, (1,) or (2,)."""
    return [run_cascade(config, mu).table] if nodes == (1, 2) else single_node_clicks(config, mu, *nodes)


def split_rows(config, numbers):
    """Click table over (bits..., da, db): each nonzero row of P[bits..., n] split onto the detectors."""
    table = np.zeros(numbers.shape[:-1] + (2, 2))
    for bits in np.ndindex(numbers.shape[:-1]):
        p = numbers[bits].sum()
        if p > 0.0:
            photon = JointState(("ph",), ("m",), (config.fock_space(),), np.diag(numbers[bits] / p))
            table[bits] = p * hbt_split_and_count(photon, "ph", [(config.detector_a, config.detector_b)])[0]
    return table


def nodes_of(config):
    """_cascade_nodes' cached entry for a config's physics and cutoff: (thinning, atom, pulse) per node."""
    dim = config.fock_space().dim
    return _cascade_nodes(config.node1, config.node2, config.channel, config.detection_efficiency, dim)


def seed1_random_configs():
    """The benchmark's seed-1 random configs (perfbench/configs.py), parsed."""
    spec = util.spec_from_file_location("perfbench_configs", ROOT / "perfbench" / "configs.py")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [parse_config_text(text) for text in module.generate(1)]


def _loss_only_fiber(state, mode, params):
    return loss_channel(state, mode, params.transmission)


def click(o):
    return o.da or o.db


class TestRunCascadeIdeal:
    def test_single_photon_heralded_twice(self, perfect_config):
        cfg = replace(perfect_config, input_kind="fock", fock_n=1)
        dist = run_cascade(cfg, 1.0)
        one_click = lambda o: o.s1 and o.s2 and (o.da != o.db)
        assert dist.prob(one_click) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_stays_quiet(self, perfect_config):
        dist = run_cascade(perfect_config, 0.0)
        quiet = lambda o: (not o.s1) and (not o.s2) and not (o.da or o.db)
        assert dist.prob(quiet) == pytest.approx(1.0, abs=1e-12)

    def test_table_sums_to_one_across_sweep(self, base_config):
        for mu in (0.0, 0.084, 0.45, 3.11):
            dist = run_cascade(base_config, mu)
            assert dist.table.sum() == pytest.approx(1.0, abs=1e-10)


class TestRunCascadePaper:
    def test_conditional_detection_anchor(self, base_config):
        p = cells_from_distribution(run_cascade(base_config, 0.084))["p_up1_given_click"]
        assert 0.76 <= p <= 0.86  # brackets the 81.3% reference point

    def test_up_probability_monotone_and_bounded(self, base_config):
        dc1 = base_config.node1.imperfections.dark_count
        previous = -1.0
        for mu in base_config.mean_photon_sweep:
            p = run_cascade(base_config, mu).prob(lambda o: o.s1)
            assert p >= previous - 1e-12
            assert dc1 * 0.9 <= p <= 0.5 + 0.011
            previous = p

    def test_node_swap_symmetry(self, base_config):
        # Swapping the node blocks and reversing the channel (folding the fiber
        # loss into the detection path so the same losses follow the atom)
        # reproduces run_single of the corresponding node exactly.
        base = replace(base_config, channel=ChannelParams(0.53, 0.0, 0.0))
        swapped = replace(
            base,
            node1=base.node2,
            node2=base.node1,
            channel=ChannelParams(1.0, 0.0, 0.0),
            detection_efficiency=base.detection_efficiency * base.channel.transmission,
        )
        mu = 0.2
        original = run_single(base, 1, mu)
        mirrored = run_single(swapped, 2, mu)
        assert original.prob(lambda o: o.s) == pytest.approx(
            mirrored.prob(lambda o: o.s), abs=1e-9
        )

    def test_full_depolarization_removes_conditioning_effect(self, base_config):
        cfg = replace(base_config, channel=ChannelParams(0.53, 1.0, 0.0))
        cells = cells_from_distribution(run_cascade(cfg, 0.2))
        assert cells["p_up1_given_up2"] == pytest.approx(cells["p_up1"], abs=1e-9)


class TestRunSingle:
    def test_ideal_single_photon(self, perfect_config):
        cfg = replace(perfect_config, input_kind="fock", fock_n=1)
        for node in (1, 2):
            dist = run_single(cfg, node, 1.0)
            assert dist.prob(lambda o: o.s) == pytest.approx(1.0, abs=1e-9)

    def test_ideal_parity_law(self, perfect_config):
        for mu in (0.01, 0.084, 0.45, 1.0, 3.11):
            dist = run_single(perfect_config, 1, mu)
            expected = (1 - math.exp(-2 * mu)) / 2
            assert dist.prob(lambda o: o.s) == pytest.approx(expected, abs=1e-9)

    def test_node2_conditional_anchor(self, base_config):
        dist = run_single(base_config, 2, 0.056)
        assert conditional(dist, lambda o: o.s, click) == pytest.approx(0.87, abs=0.05)

    def test_invalid_index(self, base_config):
        with pytest.raises(ConfigError):
            run_single(base_config, 3, 0.1)
        with pytest.raises(ConfigError, match="node_index must be 1 or 2, got 0"):
            mirrored(base_config, 0)

    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_node_accessor_rejects_other_indices(self, base_config, index):
        with pytest.raises(ConfigError, match=f"node index must be 1 or 2, got {index}"):
            base_config.node(index)

    @pytest.mark.parametrize("case", ["default", "ideal", "random_seed1", "fock2", "fock24"])
    def test_mirror_reads_one_outcome(self, base_config, perfect_config, case):
        # The ideal mirror's atom reads 'down' with probability 1: its 'up'
        # row is dropped, exactly zero, so each single-node point splits two
        # branches, as the node's own readout has two.
        configs = {
            "default": [base_config],
            "ideal": [perfect_config],
            "fock2": [replace(base_config, input_kind="fock", fock_n=2)],
            "fock24": [replace(base_config, input_kind="fock", fock_n=24)],
        }.get(case) or seed1_random_configs()
        for config in configs:
            for node in (1, 2):
                single = mirrored(config, node)
                for mu in config.mean_photon_sweep:
                    numbers = branch_photon_numbers(single, mu)
                    mirror_up = numbers[:, 1] if node == 1 else numbers[1]
                    assert not mirror_up.any(), (node, mu)

    @staticmethod
    def _assert_matches_cascade_with_mirror(config, mu):
        # The other node becomes a unit mirror whose atom is read and summed out.
        for node_index in (1, 2):
            other = 2 if node_index == 1 else 1
            node = config.node(other)
            mirror = replace(
                node,
                reflection_override=(1.0, 1.0),
                imperfections=replace(node.imperfections, reflection_contrast=1.0),
            )
            cascade = run_cascade(replace(config, **{f"node{other}": mirror}), mu).table
            expected = cascade.sum(axis=other - 1)
            got = run_single(config, node_index, mu).table
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_matches_cascade_with_mirror(self, base_config, perfect_config):
        for config in (base_config, perfect_config):
            for mu in (0.0, 0.084, 0.45, 3.11):
                self._assert_matches_cascade_with_mirror(config, mu)

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(config=random_configs())
    def test_matches_cascade_with_mirror_on_random_configs(self, config):
        self._assert_matches_cascade_with_mirror(config, config.mean_photon_sweep[0])


class TestFiberPhaseFlip:
    """Every cascade output is photon-number diagonal, so the fiber's flip never shows.

    The sector engine leaves the flip out; the dense reference, which applies
    it, shows that it changes nothing, and the runtime matches that reference.
    """

    @pytest.mark.parametrize("depolarization", [0.01, 0.3])  # the default, and a strong flip
    def test_flip_never_reaches_cascade_outputs(self, base_config, depolarization):
        config = replace(
            base_config, channel=replace(base_config.channel, depolarization=depolarization)
        )
        mus = (0.0, 0.084, 0.45, 3.11)

        def dense_outputs(fiber):
            out = []
            for mu in mus:
                _, numbers, cascade = dense_tables(config, mu, (1, 2), fiber)
                singles = [dense_tables(config, mu, (k,), fiber)[2] for k in (1, 2)]
                out.append(np.concatenate([a.ravel() for a in (cascade, numbers, *singles)]))
            return out

        runtime = [
            np.concatenate(
                [
                    run_cascade(config, mu).table.ravel(),
                    branch_photon_numbers(config, mu).ravel(),
                    run_single(config, 1, mu).table.ravel(),
                    run_single(config, 2, mu).table.ravel(),
                ]
            )
            for mu in mus
        ]
        with_flip = dense_outputs(fiber_channel)
        loss_only = dense_outputs(_loss_only_fiber)
        for mu, a, b, c in zip(mus, with_flip, loss_only, runtime):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=f"flip, mu={mu}")
            np.testing.assert_allclose(c, a, rtol=0, atol=1e-12, err_msg=f"runtime, mu={mu}")


class TestSectorMatchesDense:
    """The photon-number sector engine against the dense pipeline it replaced."""

    @staticmethod
    def _assert_matches(config, mu):
        # One node alone is the cascade on mirrored(config, k), summed over the
        # mirror's readout; the dense reference leaves the other node out.
        for nodes in ((1, 2), (1,), (2,)):
            branches, numbers, clicks = dense_tables(config, mu, nodes)
            dense = {bits: (p, np.real(np.diagonal(cond.matrix))) for bits, p, cond in branches}
            table = engine_numbers(config, mu, nodes)
            sector = {
                bits: (table[bits].sum(), table[bits] / table[bits].sum())
                for bits in np.ndindex(table.shape[:-1])
                if table[bits].any()
            }
            assert sector.keys() == dense.keys(), nodes
            for bits, (p, n) in dense.items():
                assert sector[bits][0] == pytest.approx(p, abs=1e-12, rel=0)
                np.testing.assert_allclose(sector[bits][1], n, rtol=0, atol=1e-12)
            np.testing.assert_allclose(table, numbers, rtol=0, atol=1e-12, err_msg=f"nodes {nodes}")
            for got in engine_clicks(config, mu, nodes):
                np.testing.assert_allclose(got, clicks, rtol=0, atol=1e-12, err_msg=f"nodes {nodes}")

    @pytest.mark.parametrize("mu", [0.0, 0.084, 0.45, 3.11])
    def test_coherent_input(self, base_config, perfect_config, mu):
        for config in (base_config, perfect_config):
            self._assert_matches(config, mu)

    @pytest.mark.parametrize("fock_n", [0, 1, 2, 3])
    def test_fock_input(self, base_config, perfect_config, fock_n):
        for config in (base_config, perfect_config):
            self._assert_matches(replace(config, input_kind="fock", fock_n=fock_n), 0.0)

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        self._assert_matches(config, config.mean_photon_sweep[0])


class TestPropagatorMatchesPerPoint:
    """The engine's per-config propagation map against the per-point formula it replaced."""

    @staticmethod
    def _assert_matches(config, mus):
        # One node alone is the cascade on mirrored(config, k), summed over the
        # mirror's readout; the per-point reference leaves the other node out.
        for nodes in ((1, 2), (1,), (2,)):
            for mu in mus:
                expected = reference_photon_numbers(config, mu, nodes)
                where = f"nodes {nodes}, mu {mu}"
                got = engine_numbers(config, mu, nodes)
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14, err_msg=where)
                if nodes != (1, 2):
                    clicks = split_rows(config, expected)
                    for got in single_node_clicks(config, mu, *nodes):
                        np.testing.assert_allclose(got, clicks, rtol=0, atol=1e-14, err_msg=where)

    @pytest.mark.parametrize("delta_c", [None, 0.5, 7.0])
    def test_default_and_detuned(self, base_config, delta_c):
        config = base_config
        if delta_c is not None:
            n1, n2 = (replace(n, cqed=replace(n.cqed, delta_c=delta_c)) for n in (config.node1, config.node2))
            config = replace(config, node1=n1, node2=n2)
        self._assert_matches(config, config.mean_photon_sweep)

    def test_ideal(self, perfect_config):
        self._assert_matches(perfect_config, perfect_config.mean_photon_sweep)

    @pytest.mark.parametrize("fock_n", [2, 24])
    def test_fock_input(self, base_config, fock_n):
        self._assert_matches(replace(base_config, input_kind="fock", fock_n=fock_n), (0.0,))

    @pytest.mark.parametrize(
        "edge",
        [
            {"channel.transmission": 0.0},  # no light past the fiber
            {"channel.depolarization": 1.0, "channel.birefringence_residual": 0.0},  # every pulse scrambled
            {"node1.reflection_contrast": 0.0, "node2.reflection_contrast": 0.0},  # no branch coherence
            {"node1.readout_fidelity": 0.5, "node2.readout_fidelity": 0.5},  # readouts that tell nothing
            {"node1.readout_fidelity": 0.0, "node2.readout_fidelity": 0.0},  # readouts that always lie
            {"detection.efficiency": 0.0},  # no light at the detectors
        ],
    )
    def test_edge_configs(self, base_config, edge):
        config = build_config({**config_values(base_config), **edge})
        self._assert_matches(config, config.mean_photon_sweep)

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        self._assert_matches(config, config.mean_photon_sweep)


# Prints run_cascade's table at MU for the config text on stdin, from a fresh process.
_FRESH_TABLE = """
import json, sys
from qndsim.config import parse_config_text
from qndsim.protocol import run_cascade
print(json.dumps(run_cascade(parse_config_text(sys.stdin.read()), float(sys.argv[1])).table.tolist()))
"""


class TestCaches:
    """The per-physics node maps and the split's unitary are cached across calls."""

    def test_caches_neither_leak_nor_mutate(self, base_config, tmp_path):
        # The same figure, built twice in one process, writes the same bytes.
        config_path = tmp_path / "short.cfg"
        config_path.write_text("sweep.mu = 0.04, 0.45\n")
        for figure in ("fig3", "figS1"):
            outs = [tmp_path / figure / run for run in ("first", "second")]
            for out in outs:
                assert main([figure, "--config", str(config_path), "--out", str(out)]) == 0
            assert (outs[0] / f"{figure}.csv").read_bytes() == (outs[1] / f"{figure}.csv").read_bytes()

        # Two configs one physics key apart, on two sweeps whose largest mu sets
        # different cutoffs, alternated in one process: each table is the one a
        # fresh process computes for that config alone.
        moved = replace(base_config, channel=replace(base_config.channel, transmission=0.6))
        mu = 0.2
        configs = [replace(c, mean_photon_sweep=(mu, top)) for top in (0.45, 3.11) for c in (base_config, moved)]
        assert len({c.fock_space().dim for c in configs}) == 2
        alternated = [[run_cascade(c, mu).table.tolist() for c in configs] for _ in range(2)]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for i, config in enumerate(configs):
            fresh = subprocess.run(
                [sys.executable, "-c", _FRESH_TABLE, repr(mu)],
                input=serialize_config(config),
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            assert alternated[0][i] == alternated[1][i] == json.loads(fresh.stdout), f"config {i}"

        # No cached array can be written to.
        cached = [array for c in (base_config, mirrored(base_config, 2)) for node in nodes_of(c) for array in node]
        cached.append(_beam_splitter_unitary(5, 5, 0.5, 0.0))
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0.0

    def test_quiet_twin_shares_the_propagator(self, base_config):
        # The node steps read no dark rate, so fig3's two sweeps, on the
        # config and on its quiet_detectors() twin, build one entry.
        _cascade_nodes.cache_clear()
        build_figure("fig3", base_config)
        assert _cascade_nodes.cache_info().currsize == 1
        assert nodes_of(quiet_detectors(base_config)) is nodes_of(base_config)
        for node in nodes_of(base_config):
            for array in node:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 0.0


def _transfer(kraus):
    """Sector transfer T[x, y, m, n] of a (qubit, mode) Kraus family that keeps x and n - m.

    Each operator maps |x, n> to |x, m> only, with n - m fixed per operator,
    so a block |x, n><y, n| goes to sum_m T[x, y, m, n] |x, m><y, m| with
    T[x, y, m, n] = sum_k K[k, (x, m), (x, n)] conj(K[k, (y, m), (y, n)]).
    """
    dim = kraus.shape[1] // 2
    ops = kraus.reshape(len(kraus), 2, dim, 2, dim)[:, [0, 1], :, [0, 1], :]
    return np.einsum("xkmn,ykmn->xymn", ops, ops.conj())


class TestThinningWeights:
    """The per-photon weights against the Kraus-family transfers they replaced."""

    DIM = 25  # the cutoff cap: the largest binomials the engine forms

    def _assert_reflection(self, pair, contrast=1.0):
        expected = _transfer(_branch_reflection_kraus(self.DIM, pair))
        if contrast < 1.0:
            expected = _transfer(_distinguishability_kraus(self.DIM, contrast)) @ expected
        got = _thinning(*_reflection_weights(pair, contrast), self.DIM)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_near_unit_reflection(self):
        # |r_u| = 1 in exact arithmetic; this detuning rounds it just below, where
        # sqrt(1 - |r|^2) moves by 1e-8 per ulp of |r|^2. The pair's s is the
        # closed form's 0, and the Kraus family reads the same s.
        pair = reflection_pair(CqedParams(7.6, 2.5, 3.0, delta_c=0.11202338443976245))
        assert abs(pair.r_uncoupled) == 0.9999999999999999
        self._assert_reflection(pair)

    @pytest.mark.parametrize("contrast", [0.93, 0.0])
    def test_contrast(self, contrast):
        self._assert_reflection(reflection_pair(CqedParams(7.6, 2.8, 3.0)), contrast)

    def test_loss(self):
        t = 0.37
        pair = ReflectionPair(math.sqrt(t), math.sqrt(t))
        self._assert_reflection(pair)
        expected = _transfer(_branch_reflection_kraus(self.DIM, pair))[0, 0]
        np.testing.assert_allclose(_thinning(t, 1.0 - t, self.DIM), expected, rtol=0, atol=1e-15)

    def test_sorter_gate(self):
        params = (CqedParams(7.6, 2.5, 3.0, delta_c=0.3),) * 3
        self._assert_reflection(SorterConfig(k=3, node_params=params).gate_pair(3))


class TestLosslessEmptyCavity:
    """A detuned one-sided empty cavity (kappa_r = kappa) reflects every photon."""

    @pytest.fixture
    def config(self, base_config):
        detuned = [replace(n, cqed=replace(n.cqed, delta_c=0.5)) for n in (base_config.node1, base_config.node2)]
        assert all(n.cqed.kappa_r == n.cqed.kappa for n in detuned)
        return replace(base_config, node1=detuned[0], node2=detuned[1])

    def test_loss_amplitude_is_zero(self, config):
        for node in (config.node1, config.node2):
            pair = node.pair()
            # sqrt(1 - |r|^2) of the rounded |r| would read 1.49e-8.
            assert abs(pair.r_uncoupled) == 0.9999999999999999
            assert pair.s[1] == 0.0
            assert node.empty_pair().s == (0.0, 0.0)

    def test_engines_lose_no_photon(self, config):
        from qndsim.montecarlo import _F_LOST1, _F_LOST2, _Model

        for node in (config.node1, config.node2):
            lost = _reflection_weights(node.pair(), node.imperfections.reflection_contrast)[1]
            assert not lost[1].any() and not lost[:, 1].any()  # every block of the uncoupled branch
            assert not _reflection_weights(node.empty_pair())[1].any()
        prob = _Model.from_config(config).prob  # (depolarized, x, y, fate)
        assert not prob[:, 1, :, _F_LOST1].any()
        assert not prob[:, :, 1, _F_LOST2].any()
        assert not prob[1, :, :, _F_LOST2].any()  # a scrambled pulse meets the empty cavity


class TestCondition:
    def test_product_distribution_independence(self):
        table = np.zeros((2, 2))
        px, py = 0.3, 0.8
        for i in (0, 1):
            for j in (0, 1):
                table[i, j] = (px if i else 1 - px) * (py if j else 1 - py)
        dist = JointDistribution(("x", "y"), table)
        assert dist.prob(lambda o: o.y) == pytest.approx(py, abs=1e-12)
        assert conditional(dist, lambda o: o.y, lambda o: o.x) == pytest.approx(py, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        table = np.full((2, 2), 0.25)
        table[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite probability"):
            JointDistribution(("x", "y"), table)

    def test_correlation_threshold_near_mu_02(self, base_config):
        cells = cells_from_distribution(run_cascade(base_config, 0.2))
        assert cells["p_up1_given_up2"] > 0.5

    def test_zero_probability_predicate_raises(self, perfect_config):
        # Without light or dark counts nothing clicks: the click-conditioned
        # cells are absent and the SNR, which needs them, refuses to form.
        cfg = replace(
            perfect_config,
            detector_a=replace(perfect_config.detector_a, dark_rate=0.0),
            detector_b=replace(perfect_config.detector_b, dark_rate=0.0),
            mean_photon_sweep=(0.0,),
        )
        cells = cells_from_distribution(run_cascade(cfg, 0.0))
        assert cells["p_up1_given_click"] is None and cells["p_and_given_click"] is None
        with pytest.raises(ZeroProbabilityError):
            snr(cfg)


class TestConditionedPhotonState:
    """Photon-number populations before the split, resolved by readout branch."""

    def test_ideal_parity_projection(self):
        cfg = ideal_config(sweep=(0.45,))
        numbers = branch_photon_numbers(cfg, 0.45)
        assert float(np.max(numbers[1, :, 0::2])) < 1e-10

    def test_trivial_predicate_returns_propagated_state(self, base_config):
        trivial = G2_CONDITIONS["none"]
        numbers = branch_photon_numbers(base_config, 0.45)[trivial].sum(0)
        # unconditioned propagated pulse: mean photon number scaled by the
        # branch-weighted reflectivities and the line transmission; branch
        # weights follow the (over-rotated) first pulse
        def mean_reflectivity(node):
            delta = node.imperfections.over_rotation()
            w_up = math.cos(math.pi / 4 + delta / 2) ** 2
            pair = node.pair()
            return w_up * abs(pair.r_coupled) ** 2 + (1 - w_up) * abs(pair.r_uncoupled) ** 2

        r1 = mean_reflectivity(base_config.node1)
        q = base_config.channel.scramble_probability
        pair2 = base_config.node2.pair()
        r2 = (1 - q) * mean_reflectivity(base_config.node2) + q * abs(pair2.r_uncoupled) ** 2
        expected = 0.45 * r1 * 0.53 * r2 * 0.5
        assert numbers.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(np.arange(len(numbers)) @ numbers) == pytest.approx(expected, abs=1e-9)

    def test_heralded_state_g2_anchor(self, base_config):
        numbers = branch_photon_numbers(base_config, 0.45)
        assert 0.017 <= g2_from_numbers(numbers[:, 1].sum(0)) <= 0.110

    def test_zero_probability_raises(self, perfect_config):
        # Without light, ideal nodes never read up: the conditioned state is
        # undefined and every g2 row is absent.
        assert branch_photon_numbers(perfect_config, 0.0)[1].sum() == 0.0
        with pytest.raises(ZeroProbabilityError):
            conditioned_photon_state(perfect_config, 0.0, lambda o: o.s1)
        for row in g2_table(perfect_config, 0.0):
            assert row.g2_zero is None and row.g2_zero_stderr is None

    def test_full_state_diagonal_matches_branch_rows(self, base_config):
        numbers = branch_photon_numbers(base_config, 0.45)
        predicates = {
            "none": lambda o: True,
            "up1": lambda o: o.s1,
            "up2": lambda o: o.s2,
            "up1_and_up2": lambda o: o.s1 and o.s2,
        }
        for name, predicate in predicates.items():
            weights = numbers[G2_CONDITIONS[name]].sum(0)
            state = conditioned_photon_state(base_config, 0.45, predicate)
            np.testing.assert_allclose(
                state.number_distribution(), weights / weights.sum(), rtol=0, atol=1e-12
            )

    def _assert_branch_sums_match(self, config, mu):
        numbers = branch_photon_numbers(config, mu)
        clicks = run_cascade(config, mu).table
        np.testing.assert_allclose(numbers.sum(-1), clicks.sum((2, 3)), rtol=0, atol=1e-12)

    def test_branch_sums_match_run_cascade(self, base_config, perfect_config):
        for config in (base_config, perfect_config):
            for mu in (0.0, 0.084, 0.45, 3.11):
                self._assert_branch_sums_match(config, mu)

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(config=random_configs())
    def test_branch_sums_match_run_cascade_on_random_configs(self, config):
        self._assert_branch_sums_match(config, config.mean_photon_sweep[0])


class TestConfigValidation:
    def test_empty_sweep_rejected(self, base_config):
        with pytest.raises(ConfigError):
            replace(base_config, mean_photon_sweep=())

    def test_monte_carlo_needs_trials(self, base_config):
        with pytest.raises(ConfigError):
            replace(base_config, mode="monte_carlo", trials=0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_exact_mode_needs_trials_too(self, base_config, trials):
        # Every config has a file form, and the parser refuses run.trials below 1.
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            replace(base_config, mode="exact", trials=trials)

    def test_truncation_infeasible_sweep(self, base_config):
        with pytest.raises(ConfigError):
            replace(base_config, mean_photon_sweep=(0.1, 60.0))
