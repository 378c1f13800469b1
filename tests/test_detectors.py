import math

import numpy as np
import pytest

from conftest import (
    click_probability,
    random_density_matrix,
    random_mode_state,
    random_qubit_mode_state,
    thermal_state,
)
from qndsim.detectors import DetectorParams, hbt_split_and_count, no_click_weights
from qndsim.errors import ConfigError
from qndsim.fock import FockSpace, JointState, ModeState, beam_splitter, coherent_state, fock_state, measure_diagonal

IDEAL = DetectorParams(efficiency=1.0, dark_rate=0.0, gate_window=2.0)
SNSPD = DetectorParams(efficiency=0.9, dark_rate=40.0, gate_window=2.0)
# Detector pairs for the split reference: ideal, the default model, and an
# unequal pair with strong dark counts.
PAIRS = {
    "ideal": (IDEAL, IDEAL),
    "snspd": (SNSPD, SNSPD),
    "unequal": (DetectorParams(0.55, 3e4, 3.0), DetectorParams(0.8, 0.0, 2.0)),
}


def reference_split_and_count(state, mode, params_a, params_b):
    """The split read as a chain of measure_diagonal calls on conditional states.

    The no-click probability of b given no click at a comes from the
    conditional state after a; the click outcomes follow by differences,
    clamped at zero.
    """
    space = state.space(mode)
    anc = f"{mode}_hbt"
    split = beam_splitter(state.with_vacuum_ancilla(space, anc), mode, anc, 0.5)
    w_no_a = no_click_weights(space.dim, params_a)
    w_no_b = no_click_weights(space.dim, params_b)
    p_no_a, rest = measure_diagonal(split, mode, w_no_a)
    p_no_b, _ = measure_diagonal(split, anc, w_no_b)
    p_no_no = 0.0 if rest is None else p_no_a * measure_diagonal(rest, anc, w_no_b)[0]
    return {
        (False, False): p_no_no,
        (True, False): max(p_no_b - p_no_no, 0.0),
        (False, True): max(p_no_a - p_no_no, 0.0),
        (True, True): max(1.0 - p_no_a - p_no_b + p_no_no, 0.0),
    }


class TestDetectorParams:
    def test_dark_probability(self):
        # 40 Hz over a 2 us gate
        assert SNSPD.p_dark == pytest.approx(1 - math.exp(-8e-5), rel=1e-12)
        assert SNSPD.p_dark == pytest.approx(8.0e-5, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DetectorParams(efficiency=1.1)
        with pytest.raises(ConfigError):
            DetectorParams(gate_window=0.0)


class TestClickPovm:
    def test_vacuum_never_clicks_without_darks(self):
        st = fock_state(0, FockSpace(3)).to_joint("m")
        w_click = 1.0 - no_click_weights(4, DetectorParams(0.9, 0.0, 2.0))
        p_click, after_click = measure_diagonal(st, "m", w_click)
        assert p_click == pytest.approx(0.0, abs=1e-15)
        assert after_click is None  # no state to condition on

    def test_single_photon_efficiency(self):
        st = fock_state(1, FockSpace(2)).to_joint("m")
        p_click = click_probability(st, "m", DetectorParams(0.9, 0.0, 2.0))
        assert p_click == pytest.approx(0.9, abs=1e-12)

    def test_coherent_poisson_no_click(self):
        mu, eta = 0.45, 0.9
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        p_click = click_probability(st, "m", DetectorParams(eta, 0.0, 2.0))
        assert p_click == pytest.approx(1 - math.exp(-eta * mu), abs=1e-9)

    def test_outcomes_sum_to_one(self):
        mu = 0.3
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        p_no_click, _ = measure_diagonal(st, "m", no_click_weights(st.dims[0], SNSPD))
        assert click_probability(st, "m", SNSPD) + p_no_click == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_efficiency_and_mean(self):
        space = FockSpace.for_mean_photon(1.0)
        previous = -1.0
        for eta in np.linspace(0.1, 1.0, 10):
            p = click_probability(
                coherent_state(0.4, space).to_joint("m"), "m", DetectorParams(eta, 0.0, 2.0)
            )
            assert p >= previous
            previous = p
        previous = -1.0
        for mu in np.linspace(0.0, 1.0, 11):
            p = click_probability(
                coherent_state(mu, space, check_truncation=False).to_joint("m"),
                "m",
                DetectorParams(0.9, 0.0, 2.0),
            )
            assert p >= previous
            previous = p

    def test_thermal_noise_port_construction_matches(self):
        # the alternative dark-count model: detector beam splitter fed with a
        # thermal state whose occupancy reproduces p_dark on vacuum input
        params = SNSPD
        nbar = params.p_dark / ((1.0 - params.p_dark) * (1.0 - params.efficiency))
        space = FockSpace(12)
        st = fock_state(0, space).to_joint("m").with_vacuum_ancilla(space, "noise")
        st = st._replace_matrix(
            np.kron(fock_state(0, space).matrix, thermal_state(nbar, space).matrix)
        )
        mixed = beam_splitter(st, "m", "noise", params.efficiency)
        p_click = click_probability(mixed, "m", DetectorParams(1.0, 0.0, 2.0))
        assert p_click == pytest.approx(params.p_dark, abs=1e-6)


class TestHbt:
    def test_single_photon_never_coincides(self):
        st = fock_state(1, FockSpace(2)).to_joint("m")
        dist = hbt_split_and_count(st, "m", [(IDEAL, IDEAL)])[0]
        assert dist[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert dist[1, 0] + dist[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_coherent_factorizes(self):
        mu = 0.6
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        det = DetectorParams(0.8, 0.0, 2.0)
        dist = hbt_split_and_count(st, "m", [(det, det)])[0]
        p_a = dist[1, 1] + dist[1, 0]
        p_b = dist[1, 1] + dist[0, 1]
        assert dist[1, 1] == pytest.approx(p_a * p_b, abs=1e-9)

    def test_vacuum_dark_coincidences(self):
        st = fock_state(0, FockSpace(2)).to_joint("m")
        dist = hbt_split_and_count(st, "m", [(SNSPD, SNSPD)])[0]
        assert dist[1, 1] == pytest.approx(SNSPD.p_dark**2, abs=1e-12)

    def test_distribution_sums_to_one(self):
        mu = 0.45
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        dist = hbt_split_and_count(st, "m", [(SNSPD, SNSPD)])[0]
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_each_pair_weights_the_same_split(self):
        # one split weighted by several pairs gives each pair's own table, bit for bit
        mu = 0.45
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        pairs = [PAIRS[name] for name in sorted(PAIRS)]
        tables = hbt_split_and_count(st, "m", pairs)
        assert tables.shape == (len(pairs), 2, 2)
        for table, pair in zip(tables, pairs):
            assert np.array_equal(table, hbt_split_and_count(st, "m", [pair])[0])

    def test_closed_form_at_default_cutoff(self):
        # n photons split 50:50 put n_a on detector a with probability
        # C(n, n_a) / 2^n, so P[n_a, n_b] = p_n C(n, n_a) / 2^n with n = n_a + n_b.
        space = FockSpace(18)
        p = np.random.default_rng(18).random(space.dim)
        p /= p.sum()
        numbers = np.zeros((space.dim, space.dim))
        for n_a in range(space.dim):
            for n_b in range(space.dim - n_a):
                n = n_a + n_b
                numbers[n_a, n_b] = p[n] * math.comb(n, n_a) / 2.0**n
        pairs = [PAIRS[name] for name in sorted(PAIRS)]
        tables = hbt_split_and_count(ModeState(space, np.diag(p)).to_joint("m"), "m", pairs)
        for table, (params_a, params_b) in zip(tables, pairs):
            no_a, no_b = no_click_weights(space.dim, params_a), no_click_weights(space.dim, params_b)
            expected = np.stack([no_a, 1.0 - no_a]) @ numbers @ np.stack([no_b, 1.0 - no_b]).T
            assert np.max(np.abs(table - expected)) < 1e-14


@pytest.mark.parametrize("pair", sorted(PAIRS))
class TestSplitMatchesReference:
    """The split's diagonal read against the measure_diagonal chain."""

    @staticmethod
    def assert_matches(state, mode, pair):
        got = hbt_split_and_count(state, mode, [PAIRS[pair]])[0]
        expected = reference_split_and_count(state, mode, *PAIRS[pair])
        for (da, db), p in expected.items():
            assert got[int(da), int(db)] == pytest.approx(p, abs=1e-12, rel=0), (da, db)

    @pytest.mark.parametrize("n_max", [1, 3, 6])
    def test_random_mode_states(self, pair, n_max):
        rng = np.random.default_rng(n_max)
        for _ in range(3):
            self.assert_matches(random_mode_state(rng, n_max).to_joint("m"), "m", pair)

    @pytest.mark.parametrize("mode_first", [False, True])
    def test_qubit_traced_out(self, pair, mode_first):
        rng = np.random.default_rng(17)
        for n_max in (2, 5):
            if mode_first:
                space = FockSpace(n_max)
                dim = 2 * space.dim
                state = JointState(("m", "q"), ("m", "q"), (space, None), random_density_matrix(rng, dim))
            else:
                state = random_qubit_mode_state(rng, n_max)
            self.assert_matches(state, "m", pair)

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    def test_fock_and_vacuum(self, pair, n):
        self.assert_matches(fock_state(n, FockSpace(4)).to_joint("m"), "m", pair)

    def test_coherent(self, pair):
        mu = 3.11
        self.assert_matches(coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m"), "m", pair)


def test_no_click_weights_form():
    w = no_click_weights(4, DetectorParams(0.9, 0.0, 2.0))
    assert np.allclose(w, [1.0, 0.1, 0.01, 0.001], atol=1e-12)
