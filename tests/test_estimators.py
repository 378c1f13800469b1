import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_mode_state
from qndsim.config import ideal_config
from qndsim.estimators import (
    CELLS,
    g2_from_numbers,
    g2_table,
    snr,
    sweep_estimates,
)
from qndsim.fock import FockSpace, coherent_state, fock_state, loss_channel


class TestSweepEstimates:
    def test_ideal_saturation_at_large_mean(self):
        cfg = ideal_config(sweep=(3.11,))
        table = sweep_estimates(cfg)
        assert table.rows[0].values["p_up1"] == pytest.approx(0.5, abs=1e-3)

    def test_no_light_row_reproduces_dark_counts(self, base_config):
        cfg = replace(base_config, mean_photon_sweep=(0.0, 0.084))
        table = sweep_estimates(cfg)
        assert table.rows[0].values["p_up1"] == pytest.approx(
            base_config.node1.imperfections.dark_count, abs=1e-6
        )
        assert table.rows[0].values["p_up2"] == pytest.approx(
            base_config.node2.imperfections.dark_count, abs=1e-6
        )

    def test_or_anchor(self, base_config):
        table = sweep_estimates(base_config)
        _, best = table.max_cell("p_or_given_click")
        assert best == pytest.approx(0.951, abs=0.04)

    def test_every_cell_present_with_light(self, base_config):
        cfg = replace(base_config, mean_photon_sweep=(0.084,))
        row = sweep_estimates(cfg).rows[0]
        assert all(row.values[c] is not None for c in CELLS)

    def test_zero_probability_cells_absent_not_failing(self, perfect_config):
        cfg = replace(
            perfect_config,
            mean_photon_sweep=(0.0,),
            detector_a=replace(perfect_config.detector_a, dark_rate=0.0),
            detector_b=replace(perfect_config.detector_b, dark_rate=0.0),
        )
        row = sweep_estimates(cfg).rows[0]
        assert row.values["p_up1"] == pytest.approx(0.0, abs=1e-12)
        assert row.values["p_up1_given_click"] is None  # no clicks at zero input
        assert row.stderrs["p_up1_given_click"] is None and row.stderrs["p_up1"] == 0.0

    def test_set_theoretic_inequalities(self, base_config):
        table = sweep_estimates(base_config)
        for row in table.rows:
            v = row.values
            assert v["p_or_given_click"] >= max(v["p_up1_given_click"], v["p_up2_given_click"]) - 1e-12
            assert v["p_and_given_click"] <= min(v["p_up1_given_click"], v["p_up2_given_click"]) + 1e-12

    def test_state_preparation_inequality_pointwise(self, base_config):
        table = sweep_estimates(base_config)
        for row in table.rows:
            assert (
                row.values["p_up2_given_up1_and_click"]
                >= row.values["p_up2_given_click"] - 1e-12
            )


class TestSnr:
    def test_independent_residuals_product(self, base_config):
        report = snr(base_config)
        assert report.dc_and == pytest.approx(0.014 * 0.004, abs=1e-8)
        assert report.dc_and == pytest.approx(5.6e-5, abs=1e-8)
        assert report.dc_and <= min(report.dc1, report.dc2)

    def test_paper_anchor_values(self, base_config):
        report = snr(base_config)
        assert 50 <= report.snr1 <= 70
        assert 185 <= report.snr2 <= 250

    def test_combined_gain_ratios(self, base_config):
        report = snr(base_config)
        assert 50 <= report.snr_and / report.snr2 <= 75
        assert report.snr_and / report.snr1 == pytest.approx(227, rel=0.25)

    def test_pipeline_dark_joint_factorizes(self, base_config):
        report = snr(base_config)
        assert report.dc_and == pytest.approx(report.dc1 * report.dc2, abs=1e-6)

    def test_zero_dark_counts_reported_infinite(self, perfect_config):
        cfg = replace(perfect_config, mean_photon_sweep=(0.084,))
        report = snr(cfg)
        assert math.isinf(report.snr1)
        assert math.isinf(report.snr_and)


class TestG2FromState:
    """g2(0) of single-mode states, read from their photon-number weights."""

    def test_coherent_is_one(self):
        mu = 0.7
        st = coherent_state(mu, FockSpace(FockSpace.for_mean_photon(mu).n_max + 4))
        assert g2_from_numbers(st.number_distribution()) == pytest.approx(1.0, abs=1e-9)

    def test_fock_values(self):
        assert g2_from_numbers(fock_state(1, FockSpace(3)).number_distribution()) == 0.0
        two = fock_state(2, FockSpace(3)).number_distribution()
        assert g2_from_numbers(two) == pytest.approx(0.5, abs=1e-12)
        # unnormalized weights give the same value
        assert g2_from_numbers(0.3 * two) == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_undefined(self):
        assert g2_from_numbers(fock_state(0, FockSpace(2)).number_distribution()) is None
        assert g2_from_numbers(np.zeros(3)) is None

    def test_invariant_under_loss(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            st = random_mode_state(rng, 6)
            before = g2_from_numbers(st.number_distribution())
            lossy = loss_channel(st.to_joint("m"), "m", 0.37).mode_state("m")
            after = g2_from_numbers(lossy.number_distribution())
            assert after == pytest.approx(before, abs=1e-9)


class TestG2Table:
    def test_conditioned_rows(self, base_config):
        rows = {r.condition: r for r in g2_table(base_config, 0.45)}
        assert rows["up1"].g2_zero == pytest.approx(0.354, abs=3 * 0.121)
        assert 0.017 <= rows["up2"].g2_zero <= 0.110
        assert rows["up1_and_up2"].g2_zero <= rows["up2"].g2_zero + 1e-12
        assert rows["up1_and_up2"].g2_zero < rows["up1"].g2_zero < 1.0

    def test_exact_mode_cross_trial_flag(self, base_config):
        for row in g2_table(base_config, 0.45):
            assert row.tau_mode == "analytic"
            assert row.g2_tau == 1.0

    def test_unconditioned_value_reflects_branch_mixing(self, base_config):
        # The propagated pulse is an even mixture over the four branch
        # reflectivities, hence super-Poissonian: 4 sum(x^2)/(sum x)^2 with
        # x the branch intensities (up to small imperfection corrections).
        rows = {r.condition: r for r in g2_table(base_config, 0.45)}
        pair1, pair2 = base_config.node1.pair(), base_config.node2.pair()
        intensities = [
            abs(r1) ** 2 * abs(r2) ** 2
            for r1 in (pair1.r_coupled, pair1.r_uncoupled)
            for r2 in (pair2.r_coupled, pair2.r_uncoupled)
        ]
        bunched = 4 * sum(x**2 for x in intensities) / sum(intensities) ** 2
        assert rows["none"].g2_zero == pytest.approx(bunched, abs=0.02)
