import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import random_configs
from qndsim.estimators import CELLS, cells_from_distribution, quiet_detectors
from qndsim.montecarlo import _simulate_arrays, estimate, g2_estimate
from qndsim.protocol import run_cascade


def sigma_deviation(exact, mc, stderr):
    if stderr == 0.0:
        return 0.0 if exact == mc else math.inf
    return abs(exact - mc) / stderr


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
