import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_configs
from qndsim import montecarlo
from qndsim.config import build_config, config_values
from qndsim.errors import ConfigError
from qndsim.estimators import CELLS, cells_from_distribution, quiet_detectors
from qndsim.montecarlo import _F_FIBER, _F_LOST1, _F_LOST2, _simulate_arrays, estimate, g2_estimate
from qndsim.protocol import run_cascade


def sigma_deviation(exact, mc, stderr):
    if stderr == 0.0:
        return 0.0 if exact == mc else math.inf
    return abs(exact - mc) / stderr


def reference_atom_probabilities(model, fate_counts, depolarized, c1, c2):
    """Reference: the dense amplitude power and one einsum per dephasing term."""
    n_trials = fate_counts.shape[0]
    amp = model.amp[depolarized.astype(int)]  # (N, 2, 2, 8)
    factors = np.power(amp, fate_counts[:, None, None, :]).prod(axis=-1)  # (N, 2, 2)
    psi = c1[:, :, None] * c2[:, None, :] * factors

    kept1 = fate_counts.sum(axis=1) - fate_counts[:, _F_LOST1]
    kept2 = kept1 - fate_counts[:, _F_FIBER] - fate_counts[:, _F_LOST2]
    v1 = model.visibility[0] * model.contrast[0] ** kept1
    v2 = model.visibility[1] * np.where(
        depolarized, 1.0, model.contrast[1] ** kept2
    )

    u1, u2 = model.rotation
    probs = np.zeros((n_trials, 2, 2))
    for a in (0, 1):
        wa = (1.0 + v1) / 2.0 if a == 0 else (1.0 - v1) / 2.0
        for b in (0, 1):
            wb = (1.0 + v2) / 2.0 if b == 0 else (1.0 - v2) / 2.0
            psi_ab = psi.copy()
            if a:
                psi_ab[:, 1, :] *= -1.0
            if b:
                psi_ab[:, :, 1] *= -1.0
            rotated = np.einsum("ij,njk,lk->nil", u1, psi_ab, u2)
            probs += (wa * wb)[:, None, None] * np.abs(rotated) ** 2
    norm = probs.sum(axis=(1, 2))
    return probs / norm[:, None, None]


def kernel_inputs(config, mean_photon, trials):
    """The arguments `_simulate_arrays` passes to `_atom_probabilities`."""
    captured = []
    kernel = montecarlo._atom_probabilities

    def capture(*args):
        captured.append(args)
        return kernel(*args)

    with mock.patch.object(montecarlo, "_atom_probabilities", capture):
        _simulate_arrays(config, mean_photon, trials)
    (args,) = captured
    return args


# Key values that make some per-photon amplitudes vanish, or the contrast factor exactly 1.
_EDGE_VALUES = {
    "detector_a_blind": {"detector_a.efficiency": 0.0, "detector_b.efficiency": 1.0},
    "detector_b_blind": {"detector_a.efficiency": 1.0, "detector_b.efficiency": 0.0},
    "lossless_fiber": {"channel.transmission": 1.0},
    "full_contrast": {"node1.reflection_contrast": 1.0, "node2.reflection_contrast": 1.0},
    "no_detection_loss": {"detection.efficiency": 1.0},
}


class TestAtomProbabilitiesKernel:
    """The element-wise kernel against the einsum kernel it replaced."""

    @staticmethod
    def assert_kernels_agree(config, mean_photon, trials=20_000):
        args = kernel_inputs(config, mean_photon, trials)
        np.testing.assert_allclose(
            montecarlo._atom_probabilities(*args),
            reference_atom_probabilities(*args),
            rtol=0.0,
            atol=1e-15,
        )

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        self.assert_kernels_agree(config, config.mean_photon_sweep[0])

    @pytest.mark.parametrize("name", sorted(_EDGE_VALUES))
    @pytest.mark.parametrize("input_kind", ["coherent", "fock"])
    def test_edge_configs(self, base_config, name, input_kind):
        values = config_values(base_config)
        values.update({"input.kind": input_kind, "input.fock_n": 3, **_EDGE_VALUES[name]})
        self.assert_kernels_agree(build_config(values), 0.9)

    def test_many_photons(self, base_config):
        self.assert_kernels_agree(base_config, 3.11)


class TestSampleIdentity:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("mean_photon", [0.04, 0.45, 3.11])
    def test_reference_kernel_draws_the_same_trials(self, base_config, monkeypatch, seed, mean_photon):
        config = replace(base_config, seed=seed)
        arrays = _simulate_arrays(config, mean_photon, 20_000)
        monkeypatch.setattr(montecarlo, "_atom_probabilities", reference_atom_probabilities)
        expected = _simulate_arrays(config, mean_photon, 20_000)
        assert arrays.keys() == expected.keys()
        for key in expected:
            np.testing.assert_array_equal(arrays[key], expected[key], err_msg=key)


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("estimator", [estimate, g2_estimate])
def test_estimators_reject_too_few_trials(base_config, estimator, trials):
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        estimator(base_config, 0.45, trials)


@pytest.mark.parametrize("mean_photon", [-0.1, math.nan])
@pytest.mark.parametrize("estimator", [estimate, g2_estimate])
def test_estimators_reject_bad_mean_photon(base_config, estimator, mean_photon):
    with pytest.raises(ConfigError, match="mean photon number must be >= 0"):
        estimator(base_config, mean_photon, 1000)


class TestSimulateArrays:
    def test_no_light_produces_no_clicks(self, base_config):
        cfg = quiet_detectors(base_config)
        trials = 20_000
        arrays = _simulate_arrays(cfg, 0.0, trials)
        assert not arrays["click_a"].any() and not arrays["click_b"].any()
        assert not arrays["n"].any()
        dc1 = cfg.node1.imperfections.dark_count
        stderr = math.sqrt(dc1 * (1 - dc1) / trials)
        assert abs(arrays["s1"].mean() - dc1) < 4 * stderr

    def test_forced_single_photon_ideal(self, perfect_config):
        cfg = replace(perfect_config, input_kind="fock", fock_n=1)
        arrays = _simulate_arrays(cfg, 1.0, 2_000)
        assert arrays["s1"].all() and arrays["s2"].all()
        assert (arrays["click_a"] != arrays["click_b"]).all()  # exactly one detector fires

    def test_deterministic_in_arguments(self, base_config):
        a = _simulate_arrays(base_config, 0.084, 1_000)
        b = _simulate_arrays(base_config, 0.084, 1_000)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_survival_counts_never_exceed_input(self, base_config):
        arrays = _simulate_arrays(base_config, 0.45, 20_000)
        n, fates = arrays["n"], arrays["fate_counts"]
        np.testing.assert_array_equal(fates.sum(axis=1), n)
        # photons still in the main mode after loss stages 0..3
        surviving = n[:, None] - np.cumsum(fates[:, :4], axis=1)
        assert (surviving >= 0).all() and (surviving <= n[:, None]).all()

    def test_matches_exact_engine_statistically(self, base_config):
        mu, trials = 0.084, 20_000
        exact = cells_from_distribution(run_cascade(base_config, mu))
        arrays = _simulate_arrays(base_config, mu, trials)
        s1 = arrays["s1"]
        click = arrays["click_a"] | arrays["click_b"]
        p1 = s1.mean()
        assert sigma_deviation(exact["p_up1"], p1, math.sqrt(p1 * (1 - p1) / trials)) < 4
        p1c = s1[click].mean()
        n_c = int(click.sum())
        assert sigma_deviation(
            exact["p_up1_given_click"], p1c, math.sqrt(p1c * (1 - p1c) / n_c)
        ) < 4


class TestEnginesAgreeOnRandomConfigs:
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(config=random_configs())
    def test_every_populated_cell_within_4_sigma(self, config):
        # sigma comes from the exact probability, so a cell the sampler fills
        # with all-ones or all-zeros still gets a nonzero bound.
        mu = config.mean_photon_sweep[0]
        exact = cells_from_distribution(run_cascade(config, mu))
        est = estimate(config, mu, 100_000)
        checked = 0
        for cell in CELLS:
            n_eff = est.counts[cell]
            if n_eff < 100:
                continue
            p = exact[cell]
            assert p is not None, cell
            stderr = math.sqrt(p * (1.0 - p) / n_eff)
            assert sigma_deviation(p, est.values[cell], stderr) < 4, (cell, p, est.values[cell], n_eff)
            checked += 1
        assert checked >= 4  # both marginals and both cross-conditioned cells


class TestEstimate:
    def test_identical_runs_bit_for_bit(self, base_config):
        a = estimate(base_config, 0.084, 50_000)
        b = estimate(base_config, 0.084, 50_000)
        assert a == b

    def test_exact_agreement_over_sweep(self, base_config):
        # every conditioned cell with enough accepted trials inside 3 sigma
        checked = violations = 0
        for mu in (0.04, 0.2, 0.9):
            est = estimate(base_config, mu, 100_000)
            exact = cells_from_distribution(run_cascade(base_config, mu))
            for cell in CELLS:
                if est.values[cell] is None or est.counts[cell] < 100:
                    continue
                checked += 1
                dev = sigma_deviation(exact[cell], est.values[cell], est.stderrs[cell])
                if dev > 3:
                    violations += 1
        assert checked >= 25
        assert violations <= max(1, int(0.01 * checked))

    def test_stderr_scale_at_large_trials(self, base_config):
        est = estimate(base_config, 0.04, 470_000)
        for cell in ("p_up1", "p_up2"):
            assert est.stderrs[cell] <= 1e-3

    def test_coincidence_rate_order_of_magnitude(self, base_config):
        # reference coincidence fraction: 1068 triple events out of 4.7e5 runs
        est = estimate(base_config, 0.04, 100_000)
        v = est.values["p_and_given_click"]
        click_rate = est.counts["p_up1_given_click"] / est.trials
        triple = v * click_rate
        reference = 1068 / 4.7e5
        assert reference / 3 <= triple <= reference * 3

    def test_absent_cells_flagged(self, perfect_config):
        est = estimate(quiet_detectors(perfect_config), 0.0, 5_000)
        assert est.values["p_up1_given_click"] is None
        assert est.counts["p_up1_given_click"] == 0


class TestG2Estimate:
    def test_unconditioned_sampled_g2_matches_exact(self, base_config):
        rows = {r.condition: r for r in g2_estimate(base_config, 0.45, 400_000)}
        row = rows["none"]
        # branch-mixed pulse is slightly bunched; sampled estimate within errors
        assert row.g2_zero == pytest.approx(1.145, abs=4 * row.g2_zero_stderr)
        assert row.g2_tau == pytest.approx(1.0, abs=4 * row.g2_tau_stderr)

    def test_conditioned_rows_suppressed(self, base_config):
        rows = {r.condition: r for r in g2_estimate(base_config, 0.45, 400_000)}
        assert rows["up2"].g2_zero < 0.3
        assert rows["up1_and_up2"].g2_zero < 0.3
