from dataclasses import replace

import numpy as np
import pytest

from conftest import click_probability, random_qubit_mode_state
from qndsim.channel import ChannelParams, detection_path, fiber_channel
from qndsim.config import default_config, ideal_config
from qndsim.detectors import DetectorParams
from qndsim.errors import ConfigError
from qndsim.fock import FockSpace, coherent_state, loss_channel, moments
from qndsim.protocol import run_cascade


class TestChannelParams:
    def test_range_validation(self):
        with pytest.raises(ConfigError):
            ChannelParams(transmission=1.2)
        with pytest.raises(ConfigError):
            ChannelParams(depolarization=-0.1)
        with pytest.raises(ConfigError):
            ChannelParams(depolarization=0.7, birefringence_residual=0.7)


class TestFiberChannel:
    def test_identity(self):
        rng = np.random.default_rng(61)
        st = random_qubit_mode_state(rng, 4)
        out = fiber_channel(st, "m", ChannelParams(1.0, 0.0, 0.0))
        assert np.allclose(out.matrix, st.matrix, atol=1e-14)

    def test_equals_pure_loss_without_depolarization(self):
        rng = np.random.default_rng(62)
        st = random_qubit_mode_state(rng, 5)
        via_fiber = fiber_channel(st, "m", ChannelParams(0.53, 0.0, 0.0))
        via_loss = loss_channel(st, "m", 0.53)
        assert np.max(np.abs(via_fiber.matrix - via_loss.matrix)) < 1e-14

    def test_fiber_transmission_mean_photon(self):
        mu = 0.45
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        out = fiber_channel(st, "m", ChannelParams(0.53, 0.01, 0.005))
        assert moments(out, "m")[0] == pytest.approx(0.53 * mu, abs=1e-9)

    def test_parity_dephasing_scales_odd_coherences(self):
        rng = np.random.default_rng(63)
        st = random_qubit_mode_state(rng, 4)
        q = 0.3
        out = fiber_channel(st, "m", ChannelParams(1.0, q, 0.0))
        dim = 5
        t_in = st.matrix.reshape(2, dim, 2, dim)
        t_out = out.matrix.reshape(2, dim, 2, dim)
        for n in range(dim):
            for m in range(dim):
                factor = 1.0 - q if (n - m) % 2 else 1.0
                assert np.allclose(t_out[:, n, :, m], factor * t_in[:, n, :, m], atol=1e-12)

    def test_full_depolarization_factorizes_node_outcomes(self):
        # The polarization-scrambled pulse never drives the downstream atom, so
        # the two readouts become independent (checked through the pipeline).
        config = replace(default_config(), channel=ChannelParams(0.53, 1.0, 0.0))
        dist = run_cascade(config, 0.2)
        p1 = dist.prob(lambda o: o.s1)
        p2 = dist.prob(lambda o: o.s2)
        p12 = dist.prob(lambda o: o.s1 and o.s2)
        assert p12 == pytest.approx(p1 * p2, abs=1e-9)

    def test_full_birefringence_decouples_downstream_atom(self):
        # Decoupling is keyed off depolarization + birefringence_residual, so a
        # fully birefringent fiber alone leaves the downstream atom dark.
        config = replace(default_config(), channel=ChannelParams(0.53, 0.0, 1.0))
        p2_dark = run_cascade(config, 0.0).prob(lambda o: o.s2)
        for mu in config.mean_photon_sweep:
            table = run_cascade(config, mu).table.sum(axis=(2, 3))
            p1, p2 = table.sum(axis=1), table.sum(axis=0)
            assert p2[1] == pytest.approx(p2_dark, abs=1e-12)
            assert np.max(np.abs(table - np.outer(p1, p2))) < 1e-12

    def test_full_depolarization_ideal_nodes(self):
        config = replace(ideal_config(), channel=ChannelParams(1.0, 1.0, 0.0))
        dist = run_cascade(config, 0.2)
        p1 = dist.prob(lambda o: o.s1)
        p2 = dist.prob(lambda o: o.s2)
        p12 = dist.prob(lambda o: o.s1 and o.s2)
        assert p12 == pytest.approx(p1 * p2, abs=1e-9)


class TestDetectionPath:
    def test_identity(self):
        rng = np.random.default_rng(64)
        st = random_qubit_mode_state(rng, 3)
        out = detection_path(st, "m", 1.0)
        assert np.allclose(out.matrix, st.matrix, atol=1e-14)

    def test_single_photon_click_probability(self):
        from qndsim.fock import fock_state

        st = fock_state(1, FockSpace(2)).to_joint("m")
        out = detection_path(st, "m", 0.5)
        p_click = click_probability(out, "m", DetectorParams(1.0, 0.0, 2.0))
        assert p_click == pytest.approx(0.5, abs=1e-12)

    def test_composition_with_fiber(self):
        mu = 0.3
        st = coherent_state(mu, FockSpace.for_mean_photon(mu)).to_joint("m")
        out = detection_path(fiber_channel(st, "m", ChannelParams(0.53, 0.0, 0.0)), "m", 0.5)
        attenuation = moments(out, "m")[0] / moments(st, "m")[0]
        assert attenuation == pytest.approx(0.265, abs=1e-12)

    def test_click_probability_monotone_in_transmission(self):
        mu = 0.3
        space = FockSpace.for_mean_photon(mu)
        det = DetectorParams(0.9, 0.0, 2.0)
        previous = -1.0
        for t in np.linspace(0.0, 1.0, 11):
            st = fiber_channel(
                coherent_state(mu, space).to_joint("m"), "m", ChannelParams(t, 0.01, 0.005)
            )
            p_click = click_probability(st, "m", det)
            assert p_click >= previous - 1e-12
            previous = p_click
