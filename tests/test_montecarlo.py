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
from qndsim.montecarlo import (
    _F_AHIT,
    _F_BHIT,
    _F_FIBER,
    _F_LOST1,
    _F_LOST2,
    _atom_probabilities,
    _distinct_rows,
    _Model,
    _simulate_arrays,
    _sweep_stream,
    estimate,
    g2_estimate,
)
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


def reference_simulate_arrays(config, mean_photon, trials):
    """Reference: the sampler with its per-trial work, one kernel row per trial."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if not mean_photon >= 0.0:  # false for NaN too
        raise ConfigError(f"mean photon number must be >= 0, got {mean_photon}")
    model = _Model.from_config(config)
    seed = config.seed
    stream = lambda name: _sweep_stream(seed, mean_photon, name)

    prep1 = stream("prep1").random(trials) < model.prep[0]
    prep2 = stream("prep2").random(trials) < model.prep[1]
    if config.input_kind == "fock":
        n = np.full(trials, config.fock_n, dtype=np.int64)
    else:
        n = stream("photon_number").poisson(mean_photon, size=trials)
    depolarized = stream("depolarization").random(trials) < model.scramble

    c1 = np.where(prep1[:, None], model.c_good[0][None, :], model.c_bad[0][None, :])
    c2 = np.where(prep2[:, None], model.c_good[1][None, :], model.c_bad[1][None, :])
    w = np.abs(c1[:, :, None] * c2[:, None, :]) ** 2
    w = w.reshape(trials, 4)
    w_cum = np.cumsum(w, axis=1)
    u = stream("branch_label").random(trials) * w_cum[:, -1]
    label = (u[:, None] >= w_cum).sum(axis=1)
    x0, y0 = label // 2, label % 2

    fate_counts = np.zeros((trials, 8), dtype=np.int64)
    fate_rng = stream("fates")
    for d in (0, 1):
        for xx in (0, 1):
            for yy in (0, 1):
                sel = (depolarized.astype(int) == d) & (x0 == xx) & (y0 == yy)
                if not np.any(sel):
                    continue
                fate_counts[sel] = fate_rng.multinomial(n[sel], model.prob[d, xx, yy])

    probs = _atom_probabilities(model, fate_counts, depolarized, c1, c2)
    flat = probs.reshape(trials, 4).cumsum(axis=1)
    r = stream("atom_outcome").random(trials) * flat[:, -1]
    z = np.minimum((r[:, None] >= flat).sum(axis=1), 3)
    z1, z2 = z // 2, z % 2
    s1_up = (z1 == 0) ^ (stream("readout1").random(trials) < 1.0 - model.readout[0])
    s2_up = (z2 == 0) ^ (stream("readout2").random(trials) < 1.0 - model.readout[1])
    click_a = (fate_counts[:, _F_AHIT] > 0) | (stream("dark_a").random(trials) < model.p_dark[0])
    click_b = (fate_counts[:, _F_BHIT] > 0) | (stream("dark_b").random(trials) < model.p_dark[1])
    return {
        "n": n,
        "fate_counts": fate_counts,
        "depolarized": depolarized,
        "s1": s1_up,
        "s2": s2_up,
        "click_a": click_a,
        "click_b": click_b,
    }


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


def assert_same_samples(config, mean_photon, trials):
    arrays = _simulate_arrays(config, mean_photon, trials)
    expected = reference_simulate_arrays(config, mean_photon, trials)
    assert arrays.keys() == expected.keys()
    for key in expected:
        np.testing.assert_array_equal(arrays[key], expected[key], err_msg=key)


class TestSamplerMatchesReference:
    """The sampler, grouped per distinct record, against the per-trial reference."""

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("mean_photon", [0.04, 0.45, 3.11])
    def test_default_config(self, base_config, seed, mean_photon):
        assert_same_samples(replace(base_config, seed=seed), mean_photon, 20_000)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        # Prep fidelities below 1 and scrambling above 0 make prep1, prep2
        # and depolarized vary between trials, so each is part of the record.
        assert_same_samples(config, config.mean_photon_sweep[0], 20_000)

    @pytest.mark.parametrize("input_kind", ["coherent", "fock"])
    def test_imperfect_preparation_and_scrambling(self, base_config, input_kind):
        values = config_values(base_config)
        values.update(
            {
                "input.kind": input_kind,
                "input.fock_n": 3,
                "node1.prep_fidelity": 0.9,
                "node2.prep_fidelity": 0.8,
                "channel.depolarization": 0.3,
            }
        )
        assert_same_samples(build_config(values), 0.9, 20_000)


class TestGroupingIsExact:
    """Records whose mixed-radix key would pass int64 are still grouped exactly."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("mean_photon", [1000.0, 3000.0])
    def test_thousands_of_photons(self, base_config, mean_photon):
        # At 3000 the key passes 2^62 and the dense-id merge runs. At these
        # photon numbers the kernel's normalization underflows for every
        # record, so the samples alone cannot show a wrong grouping;
        # test_rows_past_an_int64_key checks the grouping itself.
        assert_same_samples(base_config, mean_photon, 2_000)

    def test_largest_fock_input(self, base_config):
        values = config_values(base_config)
        values.update({"input.kind": "fock", "input.fock_n": 24, "node2.prep_fidelity": 0.9})
        assert_same_samples(build_config(values), 0.0, 20_000)

    @pytest.mark.parametrize("top", [2**16 - 1, 2**63 - 1])
    def test_rows_past_an_int64_key(self, top):
        # Base 2^16 per count column puts the key's bound at 2^131 over the
        # 11 columns: a key that wraps would drop every column past the fourth.
        rng = np.random.default_rng(5)
        counts = rng.choice(np.array([0, 1, top]), size=(2_000, 8))
        flags = rng.random((2_000, 3)) < 0.5
        columns = [*counts.T, *flags.T]
        first, inverse = _distinct_rows(columns)
        table = np.column_stack(columns).astype(np.int64)
        np.testing.assert_array_equal(table[first][inverse], table)
        assert first.size == np.unique(table, axis=0).shape[0]


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
