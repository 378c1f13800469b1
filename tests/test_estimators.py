import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_configs, random_mode_state
from qndsim import cli, protocol
from qndsim.config import ideal_config
from qndsim.estimators import (
    CELL_PREDICATES,
    CELLS,
    SINGLE_NODE_MASKS,
    _ATOM_MASKS,
    cells_from_distribution,
    cells_from_table,
    g2_from_numbers,
    g2_table,
    quiet_detectors,
    snr,
    sweep_estimates,
)
from qndsim.fock import FockSpace, coherent_state, fock_state, loss_channel
from qndsim.node import prepare, rotation_matrix
from qndsim.protocol import JointDistribution, Outcome, SingleOutcome, run_cascade, run_single_each

# The mask evaluator sums in another order than a predicate walk and divides
# the unconditioned cells by the table's total (1 to rounding): a few float64
# ulps of a probability.
CELL_TOL = 1e-15


def reference_cells(dist):
    """Reference: every cell's predicates walked over the outcomes of one exact distribution."""
    out = {}
    for cell, (event, given) in CELL_PREDICATES.items():
        if given is None:
            out[cell] = dist.prob(event)
            continue
        denom = dist.prob(given)
        if denom <= 0.0:
            out[cell] = None  # absent: conditioning event has zero probability
        else:
            out[cell] = dist.prob(lambda o: event(o) and given(o)) / denom
    return out


def assert_cells_close(cells, reference):
    assert cells.keys() == reference.keys()
    for cell, value in cells.items():
        if reference[cell] is None:
            assert value is None, cell
        else:
            assert value == pytest.approx(reference[cell], abs=CELL_TOL), cell


@st.composite
def outcome_tables(draw, outcome_type):
    """Normalized random tables over an outcome type's grid, some with an event zeroed out.

    Zeroing a click, the first atom up with a click, or the first atom up
    leaves a conditioning event of probability exactly 0. The all-zero
    outcome is never zeroed.
    """
    bits = len(outcome_type._fields)
    grid = outcome_type(*np.indices((2,) * bits).astype(bool))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2**bits, max_size=2**bits)))
    table = weights.reshape((2,) * bits)
    click = grid.da | grid.db
    zeroed = {"nothing": click & ~click, "click": click, "first and click": grid[0] & click, "first": grid[0]}
    table[zeroed[draw(st.sampled_from(sorted(zeroed)))]] = 0.0
    if table.sum() < 1e-3:  # keeps the normalization finite
        table[(0,) * bits] = 1.0
    return JointDistribution(outcome_type._fields, table / table.sum())


class TestCellEvaluator:
    """Mask sums on the outcome grid against the predicate walk they replace."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(dist=outcome_tables(Outcome))
    def test_random_tables(self, dist):
        assert_cells_close(cells_from_distribution(dist), reference_cells(dist))

    @pytest.mark.parametrize("zeroed", ["click", "up1_and_click"])
    def test_condition_of_probability_zero(self, zeroed):
        o = Outcome(*np.indices((2, 2, 2, 2)).astype(bool))
        click = o.da | o.db
        table = np.where(click & (o.s1 if zeroed == "up1_and_click" else True), 0.0, 1.0)
        dist = JointDistribution(Outcome._fields, table / table.sum())
        cells = cells_from_distribution(dist)
        assert_cells_close(cells, reference_cells(dist))
        assert cells["p_up2_given_up1_and_click"] is None
        assert (cells["p_up1_given_click"] is None) == (zeroed == "click")

    def test_requested_cells_only(self):
        dist = JointDistribution(Outcome._fields, np.full((2, 2, 2, 2), 1 / 16))
        cells = ("p_and_given_click", "p_up1")
        assert list(cells_from_distribution(dist, cells)) == list(cells)

    def test_atom_cells_are_the_click_blind_ones(self):
        assert list(_ATOM_MASKS) == list(cli._FIGURE_CELLS["fig2"])


def reference_single_node_cells(dist):
    """Reference: figS1's cells as predicate walks over one node's (s, da, db) outcomes."""
    p_click = dist.prob(lambda o: o.da or o.db)
    return {
        "p_up": dist.prob(lambda o: o.s),
        "p_up_given_click": dist.prob(lambda o: o.s and (o.da or o.db)) / p_click if p_click > 0 else None,
    }


class TestSingleNodeCells:
    """figS1's mask cells against the predicate walks they replace."""

    @staticmethod
    def assert_matches_reference(dist):
        cells = cells_from_table(dist.table, ("p_up", "p_up_given_click"), SINGLE_NODE_MASKS)
        assert_cells_close(cells, reference_single_node_cells(dist))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dist=outcome_tables(SingleOutcome))
    def test_random_tables(self, dist):
        self.assert_matches_reference(dist)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        detectors = [(config.detector_a, config.detector_b)]
        for node in (1, 2):
            self.assert_matches_reference(run_single_each(config, node, config.mean_photon_sweep[0], detectors)[0])

    def test_no_click(self, perfect_config):
        config = quiet_detectors(replace(perfect_config, mean_photon_sweep=(0.0,)))
        dist = run_single_each(config, 1, 0.0, [(config.detector_a, config.detector_b)])[0]
        self.assert_matches_reference(dist)
        assert cells_from_table(dist.table, ("p_up_given_click",), SINGLE_NODE_MASKS) == {"p_up_given_click": None}


@pytest.fixture
def split_calls(monkeypatch):
    """Counts the detector splits the exact engine runs."""
    calls = []
    original = protocol.hbt_split_and_count

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "hbt_split_and_count", counting)
    return calls


FIG2_CELLS = cli._FIGURE_CELLS["fig2"]


def assert_fig2_is_cascade(config):
    """fig2's split-free cells against the same cells of the split cascade table."""
    for row in sweep_estimates(config, FIG2_CELLS).rows:
        reference = cells_from_distribution(run_cascade(config, row.mean_photon), FIG2_CELLS)
        assert_cells_close(row.values, reference)
        assert row.stderrs == {c: None if v is None else 0.0 for c, v in row.values.items()}


class TestSplitFreeCells:
    """Cells that read no click come from the readout marginal, without the detector split."""

    SWEEP = (0.1, 0.45)

    def test_fig2_runs_no_split(self, base_config, split_calls):
        cli.build_figure("fig2", replace(base_config, mean_photon_sweep=self.SWEEP))
        assert split_calls == []

    def test_full_sweep_splits_every_branch(self, base_config, split_calls):
        sweep_estimates(replace(base_config, mean_photon_sweep=self.SWEEP))
        assert len(split_calls) == 4 * len(self.SWEEP)

    def test_a_click_cell_keeps_the_split(self, base_config, split_calls):
        table = sweep_estimates(replace(base_config, mean_photon_sweep=self.SWEEP), ("p_up1", "p_up1_given_click"))
        assert len(split_calls) == 4 * len(self.SWEEP)
        assert all(list(row.values) == ["p_up1", "p_up1_given_click"] for row in table.rows)

    def test_default_config(self, base_config):
        assert_fig2_is_cascade(base_config)

    @pytest.mark.parametrize("input_kind", ["coherent", "fock"])
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config, input_kind):
        assert_fig2_is_cascade(replace(config, input_kind=input_kind))

    def test_conditioning_readout_of_probability_zero(self, perfect_config):
        # Ideal nodes without light never read 'up', so P(up1) = P(up2) = 0.
        config = replace(perfect_config, mean_photon_sweep=(0.0,))
        assert_fig2_is_cascade(config)
        values = sweep_estimates(config, FIG2_CELLS).rows[0].values
        assert values["p_up1_given_up2"] is None and values["p_up2_given_up1"] is None


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


def untruncated_g2_none(config) -> float:
    """g2(0) of the unconditioned row with no Fock cutoff, from the node and channel parameters.

    Tracing out the atoms leaves the input thinned by each branch's kept
    weight A_X: the diagonal atom branch X = (x1, x2) after the first pulses
    has weight w_X, and its photons are kept with |r1_x1|^2 T |r2_x2|^2 eta,
    or with |r2_u|^2 in place of |r2_x2|^2 when the fiber has scrambled the
    pulse (probability q). Thinning scales <n> by A and <n(n - 1)> by A^2,
    so g2 = f sum w A^2 / (sum w A)^2 with f = <n(n - 1)>/<n>^2 of the input:
    1 for a coherent pulse and (N - 1)/N for Fock N.
    """
    populations, reflected = [], []
    for node in (config.node1, config.node2):
        imp, pair = node.imperfections, node.pair()
        pulse = rotation_matrix(math.pi / 2, math.pi / 2 + imp.over_rotation())
        populations.append(np.diag(pulse @ prepare(imp.prep_fidelity) @ pulse.conj().T).real)
        reflected.append(np.abs([pair.r_coupled, pair.r_uncoupled]) ** 2)
    (w1, w2), (k1, k2) = populations, reflected
    path = config.channel.transmission * config.detection_efficiency
    q = config.channel.scramble_probability
    weights, kept = [], []
    for x1, x2 in np.ndindex(2, 2):
        weights += [(1.0 - q) * w1[x1] * w2[x2], q * w1[x1] * w2[x2]]
        kept += [k1[x1] * path * k2[x2], k1[x1] * path * k2[1]]
    weights, kept = np.array(weights), np.array(kept)
    f = (config.fock_n - 1) / config.fock_n if config.input_kind == "fock" else 1.0
    return f * float(weights @ kept**2) / float(weights @ kept) ** 2


def moment_weighted_tail(mu: float, n_max: int) -> float:
    """sum_{n > n_max} n (n - 1) p_n / mu^2 of a Poisson(mu) input: the g2 rows' truncation bound."""
    n = np.arange(n_max + 1, n_max + 200)
    log_p = n * math.log(mu) - mu - np.array([math.lgamma(k + 1.0) for k in n.tolist()])
    return float((n * (n - 1.0) * np.exp(log_p)).sum()) / mu**2


class TestG2Truncation:
    """The exact engine's g2 rows against the untruncated value, within the stated bound."""

    @staticmethod
    def _assert_within_bound(config, mu):
        got = {r.condition: r.g2_zero for r in g2_table(config, mu)}["none"]
        exact = untruncated_g2_none(config)
        if config.input_kind == "fock":
            assert got == pytest.approx(exact, abs=1e-12, rel=0)
        else:
            bound = moment_weighted_tail(mu, config.fock_space().n_max) + 1e-12
            assert abs(got - exact) / exact <= bound

    @pytest.mark.parametrize("which", ["default", "ideal"])
    def test_top_of_sweep(self, base_config, perfect_config, which):
        config = base_config if which == "default" else perfect_config
        self._assert_within_bound(config, max(config.mean_photon_sweep))

    @pytest.mark.parametrize("fock_n", [2, 24])
    def test_fock_input(self, base_config, perfect_config, fock_n):
        for config in (base_config, perfect_config):
            self._assert_within_bound(replace(config, input_kind="fock", fock_n=fock_n), 0.0)

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        self._assert_within_bound(config, max(config.mean_photon_sweep))
