import math

import numpy as np
import pytest

from conftest import click_probability, thermal_state
from qndsim.detectors import DetectorParams, hbt_split_and_count, no_click_weights
from qndsim.errors import ConfigError
from qndsim.fock import FockSpace, beam_splitter, coherent_state, fock_state, measure_diagonal

IDEAL = DetectorParams(efficiency=1.0, dark_rate=0.0, gate_window=2.0)
SNSPD = DetectorParams(efficiency=0.9, dark_rate=40.0, gate_window=2.0)


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
        dist = hbt_split_and_count(st, "m", IDEAL, IDEAL)
        assert dist[(True, True)] == pytest.approx(0.0, abs=1e-12)
        assert dist[(True, False)] + dist[(False, True)] == pytest.approx(1.0, abs=1e-12)

    def test_coherent_factorizes(self):
        mu = 0.6
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        det = DetectorParams(0.8, 0.0, 2.0)
        dist = hbt_split_and_count(st, "m", det, det)
        p_a = dist[(True, True)] + dist[(True, False)]
        p_b = dist[(True, True)] + dist[(False, True)]
        assert dist[(True, True)] == pytest.approx(p_a * p_b, abs=1e-9)

    def test_vacuum_dark_coincidences(self):
        st = fock_state(0, FockSpace(2)).to_joint("m")
        dist = hbt_split_and_count(st, "m", SNSPD, SNSPD)
        assert dist[(True, True)] == pytest.approx(SNSPD.p_dark**2, abs=1e-12)

    def test_distribution_sums_to_one(self):
        mu = 0.45
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        dist = hbt_split_and_count(st, "m", SNSPD, SNSPD)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_no_click_weights_form():
    w = no_click_weights(4, DetectorParams(0.9, 0.0, 2.0))
    assert np.allclose(w, [1.0, 0.1, 0.01, 0.001], atol=1e-12)
