"""Click tables from the photon-number generating function, an oracle with no Fock cutoff.

Every stage between the two pi/2 pulses keeps or loses each photon
independently, with per-photon weights that depend only on the atoms'
branches. For atom block (X, Y) a photon survives every stage with weight
A = a_1 a_2 ... and is lost at a first stage i with weight a_1 ... a_(i-1) b_i;
losses at different stages land in orthogonal environment modes, so B is the
sum of those. With n input photons the block is rho'_XY (z A + B)^n as a
generating function in z of the photons that reach the 50:50 split, so the
input gives rho'_XY exp(mu (z A + B - 1)) for a coherent pulse, untruncated,
and rho'_XY (z A + B)^N for Fock N. A scrambled pulse (probability q)
reflects off node 2's empty resonator instead: a second term, weighted q.

Behind the split each photon misses a threshold detector of efficiency eta
with probability 1 - eta/2, so the no-click probabilities are the generating
function at z = 1 - eta_a/2, 1 - eta_b/2 and 1 - (eta_a + eta_b)/2, times the
dark-count factors, and the other outcomes follow by inclusion-exclusion.

The oracle builds its weights from the reflection coefficients, ChannelParams
and NodeImperfections itself and imports no propagation helper, so it does
not share the runtime's thinning algebra; a cavity's loss amplitudes come
from the oracle's own closed form. The runtime truncates a coherent pulse at
n_max and renormalizes it; every table entry is an average over the input
photon number of a probability in [0, 1], so that moves it by at most the
Poisson tail beyond n_max.
"""

import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_configs
from qndsim.node import prepare, rotation_matrix
from qndsim.protocol import run_cascade, run_single


def _loss(node) -> np.ndarray:
    """Loss amplitudes s (coupled, uncoupled) of a node's reflection.

    s = sqrt(1 - |r|^2) is ill-conditioned at |r| = 1, where one ulp of |r|^2
    moves it by 1e-8, and a detuned lossless empty resonator has |r| = 1 up to
    rounding. So for a cavity s comes from r = 1 - 2 kappa_r / D,
    D = i dc + kappa + g^2/(gamma + i da): 1 - |r|^2 = 4 kappa_r (Re D - kappa_r) / |D|^2.
    """
    if node.reflection_override is not None:
        return np.array([math.sqrt(max(0.0, 1.0 - abs(complex(r)) ** 2)) for r in node.reflection_override])
    p = node.cqed
    d = np.array([1j * p.delta_c + p.kappa + g**2 / (p.gamma + 1j * p.delta_a) for g in (p.g, 0.0)])
    return np.sqrt(4.0 * p.kappa_r * (d.real - p.kappa_r)) / np.abs(d)


def _reflection(r: np.ndarray, s: np.ndarray, contrast: float, bits: np.ndarray) -> tuple:
    """Per-photon (kept, lost) weights on the blocks |X><Y| of a reflection off the atom at bits.

    r, s: each branch's (coupled, uncoupled) reflection and loss amplitudes.
    """
    x, y = bits[:, None], bits[None, :]
    # A kept photon carries its branch's wavepacket; the overlap is the contrast.
    return r[x] * r[y].conj() * np.where(x == y, 1.0, contrast), s[x] * s[y]


def _path(config, nodes: tuple[int, ...], scrambled: bool) -> tuple:
    """(A, B) per block for the whole path to the split; an absent node is a unit mirror."""
    k = len(nodes)
    bits = {node: (np.arange(2**k) >> (k - 1 - i)) & 1 for i, node in enumerate(nodes)}
    n1, n2 = config.node1, config.node2
    t, eta = config.channel.transmission, config.detection_efficiency
    r1, r2 = (np.array([p.r_coupled, p.r_uncoupled], dtype=complex) for p in (n1.pair(), n2.pair()))
    stages = []
    if 1 in nodes:
        stages.append(_reflection(r1, _loss(n1), n1.imperfections.reflection_contrast, bits[1]))
    stages.append((t, 1.0 - t))
    if 2 in nodes:
        s2 = _loss(n2)
        if scrambled:
            # The scrambled pulse meets the empty resonator on both branches.
            stages.append(_reflection(r2[[1, 1]], s2[[1, 1]], 1.0, bits[2]))
        else:
            stages.append(_reflection(r2, s2, n2.imperfections.reflection_contrast, bits[2]))
    stages.append((eta, 1.0 - eta))
    kept, lost = np.ones((2**k, 2**k)), np.zeros((2**k, 2**k))
    for a, b in stages:
        kept, lost = kept * a, lost + kept * b
    return kept, lost


def oracle_clicks(config, mu: float, nodes: tuple[int, ...]) -> np.ndarray:
    """P[bits..., da, db] of the listed nodes' readouts and both detectors, from the generating function."""
    imps = [config.node(j).imperfections for j in nodes]
    pulse = reduce(np.kron, [rotation_matrix(math.pi / 2, math.pi / 2 + i.over_rotation()) for i in imps])
    dephasing = reduce(np.kron, [np.array([[1.0, i.visibility()], [i.visibility(), 1.0]]) for i in imps])
    atoms = reduce(np.kron, [prepare(i.prep_fidelity) for i in imps])
    atoms = pulse @ atoms @ pulse.conj().T * dephasing
    # Row: the bit read (1 = up); column: the atom's basis state (0 = up).
    f = [i.readout_fidelity for i in imps]
    readout = reduce(np.kron, [np.array([[1.0 - x, x], [x, 1.0 - x]]) for x in f])
    q = config.channel.scramble_probability
    paths = [(1.0 - q, _path(config, nodes, False)), (q, _path(config, nodes, True))]

    def read(z: float) -> np.ndarray:
        weights = 0.0
        for w, (kept, lost) in paths:
            u = z * kept + lost
            generating = u**config.fock_n if config.input_kind == "fock" else np.exp(mu * (u - 1.0))
            weights = weights + w * generating
        final = pulse @ (atoms * weights) @ pulse.conj().T
        return (readout @ np.diagonal(final).real).reshape((2,) * len(nodes))

    a, b = config.detector_a, config.detector_b
    neither = (1.0 - a.p_dark) * (1.0 - b.p_dark) * read(1.0 - (a.efficiency + b.efficiency) / 2.0)
    no_a = (1.0 - a.p_dark) * read(1.0 - a.efficiency / 2.0)
    no_b = (1.0 - b.p_dark) * read(1.0 - b.efficiency / 2.0)
    table = np.empty((2,) * len(nodes) + (2, 2))
    table[..., 0, 0] = neither
    table[..., 0, 1] = no_a - neither
    table[..., 1, 0] = no_b - neither
    table[..., 1, 1] = read(1.0) - no_a - no_b + neither
    return table


def assert_runtime_matches_oracle(config, mu: float) -> None:
    tail = 0.0 if config.input_kind == "fock" else config.fock_space().tail_probability(mu)
    runs = {(1, 2): run_cascade(config, mu), (1,): run_single(config, 1, mu), (2,): run_single(config, 2, mu)}
    for nodes, dist in runs.items():
        expected = oracle_clicks(config, mu, nodes)
        bound = tail + 1e-14
        np.testing.assert_allclose(dist.table, expected, rtol=0, atol=bound, err_msg=f"nodes {nodes}, mu {mu}")


class TestGeneratingFunctionOracle:
    def test_default_sweep(self, base_config):
        # The top of the sweep, mu 3.11, has a truncated tail near 1e-9.
        for mu in base_config.mean_photon_sweep:
            assert_runtime_matches_oracle(base_config, mu)

    def test_ideal_config(self, perfect_config):
        for mu in (0.0, 0.45, 3.11):
            assert_runtime_matches_oracle(perfect_config, mu)

    @pytest.mark.parametrize("fock_n", [0, 1, 2, 24])
    def test_fock_input(self, base_config, fock_n):
        assert_runtime_matches_oracle(replace(base_config, input_kind="fock", fock_n=fock_n), 0.0)

    def test_detuned_lossless_empty_cavities(self, base_config):
        # kappa_r = kappa: |r_u| = 1 exactly, and rounds to 0.9999999999999999.
        nodes = [replace(n, cqed=replace(n.cqed, delta_c=0.5)) for n in (base_config.node1, base_config.node2)]
        config = replace(base_config, node1=nodes[0], node2=nodes[1])
        for mu in (0.04, 0.45, 3.11):
            assert_runtime_matches_oracle(config, mu)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(config=random_configs(), fock_n=st.integers(0, 4))
    def test_random_configs(self, config, fock_n):
        if config.input_kind == "fock":
            config = replace(config, fock_n=fock_n)
        assert_runtime_matches_oracle(config, config.mean_photon_sweep[0])

    def test_oracle_sees_a_wrong_table(self, base_config):
        # A 1e-9 change of the fiber's transmission moves the table past the oracle's bound.
        mu = 0.45
        moved = replace(base_config, channel=replace(base_config.channel, transmission=0.53 + 1e-9))
        tail = base_config.fock_space().tail_probability(mu)
        gap = np.abs(run_cascade(moved, mu).table - oracle_clicks(base_config, mu, (1, 2))).max()
        assert gap > tail + 1e-14
