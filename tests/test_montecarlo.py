import json
import math
import os
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_configs
from qndsim import cli, montecarlo
from qndsim.cli import build_figure
from qndsim.config import build_config, config_values
from qndsim.errors import ConfigError, QndsimError
from qndsim.estimators import (
    CELL_PREDICATES,
    CELLS,
    EstimateRow,
    cells_from_distribution,
    quiet_detectors,
    sweep_estimates,
    sweep_with_nodark,
)
from qndsim.montecarlo import (
    _BLOCK as BLOCK,
    _F_AHIT,
    _F_BHIT,
    _F_FIBER,
    _F_LOST1,
    _F_LOST2,
    _F_LOSTD,
    _atom_probabilities,
    _distinct_rows,
    _Model,
    _simulate_arrays,
    _sweep_stream,
    _tabulate,
    estimate,
    estimate_with_nodark,
    g2_estimate,
)
from qndsim.protocol import Outcome, run_cascade


def sigma_deviation(exact, mc, stderr):
    if stderr == 0.0:
        return 0.0 if exact == mc else math.inf
    return abs(exact - mc) / stderr


def reference_atom_probabilities(model, fate_counts, depolarized, c1, c2):
    """Reference: the two-atom density matrix, dephased and rotated, read on its diagonal.

    Residual Z dephasing scales each atom's coherences by its visibility v;
    the final pulses act as kron(U1, U2) on the four (x, y) branches.
    """
    n_trials = fate_counts.shape[0]
    amp = model.amp[depolarized.astype(int)]  # (N, 2, 2, 8)
    factors = np.power(amp, fate_counts[:, None, None, :]).prod(axis=-1)  # (N, 2, 2)
    psi = (c1[:, :, None] * c2[:, None, :] * factors).reshape(n_trials, 4)
    rho = psi[:, :, None] * psi[:, None, :].conj()

    kept1 = fate_counts.sum(axis=1) - fate_counts[:, _F_LOST1]
    kept2 = kept1 - fate_counts[:, _F_FIBER] - fate_counts[:, _F_LOST2]
    v1 = model.visibility[0] * model.contrast[0] ** kept1
    v2 = model.visibility[1] * np.where(
        depolarized, 1.0, model.contrast[1] ** kept2
    )
    x, y = np.divmod(np.arange(4), 2)
    coherent1 = x[:, None] != x[None, :]
    coherent2 = y[:, None] != y[None, :]
    rho = rho * np.where(coherent1, v1[:, None, None], 1.0) * np.where(coherent2, v2[:, None, None], 1.0)

    u = np.kron(*model.rotation)
    rho = u @ rho @ u.conj().T
    probs = np.diagonal(rho, axis1=1, axis2=2).real.reshape(n_trials, 2, 2)
    return probs / probs.sum(axis=(1, 2))[:, None, None]


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
    """The kernel's amplitude algebra against the two-atom density matrix."""

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

    def test_one_row_equals_its_row_of_the_batch(self, base_config):
        # About 1,500 distinct records; with a matmul in the kernel, half of
        # the one-row calls differed from the batch in the last bit.
        model, *rows = kernel_inputs(base_config, 3.11, 20_000)
        batched = montecarlo._atom_probabilities(model, *rows)
        one_by_one = np.concatenate(
            [montecarlo._atom_probabilities(model, *(a[i : i + 1] for a in rows)) for i in range(len(batched))]
        )
        np.testing.assert_array_equal(one_by_one.view(np.uint64), batched.view(np.uint64))


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


def imperfect_config(config, input_kind, fock_n):
    """`config` with imperfect preparation and scrambling, so that prep1, prep2 and depolarized vary."""
    values = config_values(config)
    values.update(
        {
            "input.kind": input_kind,
            "input.fock_n": fock_n,
            "node1.prep_fidelity": 0.9,
            "node2.prep_fidelity": 0.8,
            "channel.depolarization": 0.3,
        }
    )
    return build_config(values)


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
        assert_same_samples(imperfect_config(base_config, input_kind, 3), 0.9, 20_000)

    @pytest.mark.parametrize("input_kind", ["coherent", "fock"])
    def test_photon_free_input(self, base_config, input_kind):
        # No trial has photons, so no fate is drawn, every branch group is
        # empty and every record is one of the eight photon-free ones.
        assert_same_samples(imperfect_config(base_config, input_kind, 0), 0.0, 20_000)

    @pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("imperfect, mean_photon", [(False, 0.04), (False, 3.11), (True, 0.9)])
    def test_block_boundaries(self, base_config, imperfect, mean_photon, trials):
        # The stages run block by block, the last block possibly short; each
        # stream must still draw as one draw over all the trials.
        config = imperfect_config(base_config, "fock", 3) if imperfect else base_config
        assert_same_samples(config, mean_photon, trials)


class TestFixedStagesDrawNothing:
    """A stage whose outcome is fixed makes no stream, and the samples stay the per-trial reference's."""

    # The stages that can decide an outcome on any config with light.
    ALWAYS = ("photon_number", "branch_label", "fates", "atom_outcome")

    @staticmethod
    def stages_asked(monkeypatch, config, mean_photon, trials=3 * BLOCK + 7):
        asked = []

        def spy(seed, mean_photon, name):
            asked.append(name)
            return _sweep_stream(seed, mean_photon, name)

        monkeypatch.setattr(montecarlo, "_sweep_stream", spy)
        arrays = _simulate_arrays(config, mean_photon, trials)
        # The reference draws every stage, through its own _sweep_stream.
        expected = reference_simulate_arrays(config, mean_photon, trials)
        assert arrays.keys() == expected.keys()
        for key in expected:
            assert np.array_equal(arrays[key], expected[key]), key
        return sorted(asked)

    @pytest.mark.parametrize("fidelity", [1.0, 0.0])
    def test_idle_stages(self, base_config, monkeypatch, fidelity):
        # At fidelity 1 a preparation never fails and a readout never flips;
        # at 0 the reverse. No scrambling and no dark counts draw nothing either.
        values = config_values(base_config)
        for node in ("node1", "node2"):
            values.update({f"{node}.prep_fidelity": fidelity, f"{node}.readout_fidelity": fidelity})
        values.update({"channel.depolarization": 0.0, "channel.birefringence_residual": 0.0})
        values.update({"detector_a.dark_rate": 0.0, "detector_b.dark_rate": 0.0})
        assert self.stages_asked(monkeypatch, build_config(values), 0.45) == sorted(self.ALWAYS)

    def test_default_config_skips_preparation_and_readout(self, base_config, monkeypatch):
        expected = sorted(self.ALWAYS + ("depolarization", "dark_a", "dark_b"))
        assert self.stages_asked(monkeypatch, base_config, 0.45) == expected

    def test_every_stage_on_an_imperfect_config(self, base_config, monkeypatch):
        values = config_values(imperfect_config(base_config, "coherent", 1))
        values.update({"node1.readout_fidelity": 0.9, "node2.readout_fidelity": 0.95})
        assert self.stages_asked(monkeypatch, build_config(values), 0.9) == sorted(montecarlo._STAGES)


class TestKernelReadsOnlyWhatTheAtomsSee:
    """The grouping's premise: how the photons split behind node 2 reaches no atom."""

    def test_detector_side_split_changes_no_bit(self, base_config):
        rng = np.random.default_rng(3)
        rows = 2_000
        model = _Model.from_config(base_config)
        node_side = rng.integers(0, 3, size=(rows, _F_LOSTD))
        detector_side = rng.multinomial(rng.integers(0, 6, size=rows), [0.2] * 5)
        fate_counts = np.hstack([node_side, detector_side])
        depolarized = rng.random(rows) < 0.5
        prep = rng.integers(0, 2, size=(rows, 2))
        c1 = np.stack([model.c_bad[0], model.c_good[0]])[prep[:, 0]]
        c2 = np.stack([model.c_bad[1], model.c_good[1]])[prep[:, 1]]
        probs = _atom_probabilities(model, fate_counts, depolarized, c1, c2).reshape(rows, 4)

        seen = np.column_stack([depolarized, prep, fate_counts.sum(axis=1), node_side])
        _, first, group = np.unique(seen, axis=0, return_index=True, return_inverse=True)
        representative = first[group.ravel()]
        possible = np.isfinite(probs).all(axis=1)  # impossible records give NaN
        np.testing.assert_array_equal(
            probs[possible].view(np.uint64), probs[representative][possible].view(np.uint64)
        )
        # Hundreds of rows share what their atoms see with a row whose split differs.
        assert ((fate_counts != fate_counts[representative]).any(axis=1) & possible).sum() > 500


class TestKernelNearUnderflow:
    """An atom whose squared amplitudes reach the subnormal range is refused, not rounded."""

    def test_rows_are_exact_or_not_finite(self, base_config):
        # The default uncoupled pair at node 1 is lossless, so a photon lost
        # there leaves atom 1 on its coupled branch alone: its outcome
        # probabilities are |U1[:, 0]|^2 however small the amplitude
        # s^lost r^kept. Every photon past node 1 is lost in the fiber, so
        # atom 2 stays as if no photon came. The kernel divides s by its
        # largest modulus, the coupled branch's, so only r_c^kept shrinks:
        # from about 1,355 photons of each kind atom 1's squares are subnormal.
        model = _Model.from_config(base_config)
        assert not model.prob[:, 1, :, _F_LOST1].any()
        photons = np.arange(1000, 1700)
        rows = photons.size
        fate_counts = np.zeros((rows, 8), dtype=np.int64)
        fate_counts[:, _F_LOST1] = photons
        fate_counts[:, _F_FIBER] = photons
        depolarized = np.zeros(rows, dtype=bool)
        c1, c2 = (np.tile(c, (rows, 1)) for c in model.c_good)
        probs = _atom_probabilities(model, fate_counts, depolarized, c1, c2)

        no_fates = np.zeros((1, 8), dtype=np.int64)
        photon_free = _atom_probabilities(model, no_fates, depolarized[:1], c1[:1], c2[:1])[0]
        up_or_down = np.abs(model.rotation[0][:, 0]) ** 2
        expected = (up_or_down / up_or_down.sum())[:, None] * photon_free.sum(axis=0)[None, :]
        finite = np.isfinite(probs).all(axis=(1, 2))
        assert finite[0] and not finite[-1]
        kept = probs[finite]
        np.testing.assert_allclose(kept, np.broadcast_to(expected, kept.shape), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("mean_photon", [960.0, 1000.0])
    def test_default_config_refuses_no_record(self, base_config, mean_photon):
        # Without the kernel's per-row rescaling, the common factor s^lost
        # r^kept underflowed here: 5 of 1,981 records at 960 and 89 of 1,973
        # at 1000 were refused.
        with mock.patch.object(montecarlo, "_atom_probabilities", wraps=_atom_probabilities) as kernel:
            _simulate_arrays(base_config, mean_photon, 2_000)
        assert np.isfinite(_atom_probabilities(*kernel.call_args.args)).all()


class TestGroupingIsExact:
    """Records whose mixed-radix key would pass int64 are still grouped exactly."""

    @pytest.mark.parametrize("mean_photon", [2500.0, 3000.0])
    def test_thousands_of_photons(self, base_config, mean_photon):
        # At these photon numbers the normalization underflows for some
        # grouped records, so the sampler refuses to draw rather than read
        # those trials as both atoms up. The message counts exactly the rows
        # with photons whose kernel output is not finite;
        # test_rows_past_an_int64_key checks the grouping itself.
        with mock.patch.object(montecarlo, "_atom_probabilities", wraps=_atom_probabilities) as kernel:
            with pytest.raises(QndsimError) as raised:
                _simulate_arrays(base_config, mean_photon, 2_000)
        with_photons = _atom_probabilities(*kernel.call_args.args)[8:]
        lost = int((~np.isfinite(with_photons).all(axis=(1, 2))).sum())
        message = f"mean photon number {mean_photon}: {lost} of {len(with_photons)} distinct trial records"
        assert message in str(raised.value)
        assert raised.value.category == "runtime"

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


def reference_tabulate(trial, mean_photon):
    """Reference: each cell's predicates evaluated on every trial's outcome, then counted."""
    values, stderrs, counts = {}, {}, {}
    for cell in CELLS:
        event, given = CELL_PREDICATES[cell]
        hit = event(trial)
        if given is None:
            n_eff, k = hit.size, int(hit.sum())
        else:
            accepted = given(trial)
            n_eff, k = int(accepted.sum()), int((hit & accepted).sum())
        counts[cell] = n_eff
        if n_eff == 0:
            values[cell] = stderrs[cell] = None
            continue
        p = values[cell] = k / n_eff
        stderrs[cell] = math.sqrt(p * (1.0 - p) / n_eff)
    return EstimateRow(mean_photon, values, stderrs, counts)


class TestTabulate:
    """Cells from the 16-outcome count against the predicates evaluated per trial."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 5_000),
        rates=st.lists(st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0]), min_size=4, max_size=4),
    )
    # _tabulate counts a block of trials at a time.
    @example(seed=1, trials=BLOCK, rates=[0.5, 0.01, 0.99, 0.5])
    @example(seed=2, trials=3 * BLOCK + 7, rates=[0.5, 0.5, 0.5, 0.5])
    def test_random_outcomes(self, seed, trials, rates):
        rng = np.random.default_rng(seed)
        trial = Outcome(*(rng.random((4, trials)) < np.array(rates)[:, None]))
        assert _tabulate(trial, 0.3) == reference_tabulate(trial, 0.3)

    def test_conditioning_event_never_occurs(self):
        rng = np.random.default_rng(3)
        never = np.zeros(1_000, dtype=bool)
        trial = Outcome(never, rng.random(1_000) < 0.5, never, never)
        row = _tabulate(trial, 0.3)
        assert row == reference_tabulate(trial, 0.3)
        for cell in ("p_up2_given_up1", "p_up1_given_click", "p_up2_given_up1_and_click"):
            assert (row.values[cell], row.stderrs[cell], row.counts[cell]) == (None, None, 0)

    @pytest.mark.parametrize("outcome", range(16))
    def test_single_trial(self, outcome):
        bits = np.array([(outcome >> shift) & 1 for shift in (3, 2, 1, 0)], dtype=bool)
        trial = Outcome(*bits[:, None])
        assert _tabulate(trial, 0.3) == reference_tabulate(trial, 0.3)


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

    @pytest.mark.parametrize("mean_photon, dtype", [(0.45, np.uint8), (300.0, np.uint16)])
    def test_counts_kept_in_the_smallest_type_that_holds_them(self, base_config, mean_photon, dtype):
        arrays = _simulate_arrays(base_config, mean_photon, 2_000)
        n, fates = arrays["n"], arrays["fate_counts"]
        assert n.dtype == fates.dtype == dtype
        assert (n.max() > 255) == (dtype == np.uint16)
        np.testing.assert_array_equal(fates.sum(axis=1), n)
        expected = reference_simulate_arrays(base_config, mean_photon, 2_000)
        np.testing.assert_array_equal(fates, expected["fate_counts"])

    @pytest.mark.parametrize("mean_photon", [0.0, 0.45, 3.11])
    @pytest.mark.parametrize("point", [_simulate_arrays, estimate_with_nodark], ids=lambda f: f.__name__)
    def test_memory_grows_by_the_outputs_alone(self, base_config, point, mean_photon):
        # The sampled arrays take 14 bytes per trial; everything else a point
        # holds per trial, tabulation included, is a byte or two, or lives
        # for one block of trials.
        point(base_config, mean_photon, 1_000)
        peaks = []
        tracemalloc.start()
        try:
            for trials in (100_000, 400_000):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                point(base_config, mean_photon, trials)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 300_000 <= 18.0

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
        trials = 100_000
        est = estimate(base_config, 0.04, trials)
        v = est.values["p_and_given_click"]
        click_rate = est.counts["p_up1_given_click"] / trials
        triple = v * click_rate
        reference = 1068 / 4.7e5
        assert reference / 3 <= triple <= reference * 3

    def test_absent_cells_flagged(self, perfect_config):
        est = estimate(quiet_detectors(perfect_config), 0.0, 5_000)
        assert est.values["p_up1_given_click"] is None
        assert est.counts["p_up1_given_click"] == 0


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_streams_keyed_by_the_seed(seed):
    # Valid seeds keep the streams they had while every seed was masked to 64 bits.
    for name, stage in montecarlo._STAGES.items():
        counter = [0, stage, montecarlo._mu_tag(0.45), 2]
        masked = np.random.Generator(np.random.Philox(key=seed & (2**64 - 1), counter=counter))
        np.testing.assert_array_equal(_sweep_stream(seed, 0.45, name).random(4), masked.random(4))


def with_dark_rate(config, dark_rate):
    return replace(
        config,
        detector_a=replace(config.detector_a, dark_rate=dark_rate),
        detector_b=replace(config.detector_b, dark_rate=dark_rate),
    )


# p_dark = 1 - exp(-25000 * 2 us) = 0.049 per detector and trial: enough dark
# clicks that every *_nodark column differs from its dark-count column.
NOISY_DARK_RATE = 25_000.0


def reference_mc_figure(figure, config):
    """Reference: the *_nodark columns from a second sweep on quiet detectors."""
    cells = cli._FIGURE_CELLS[figure]
    header = ["mu"]
    for suffix in ("", "_nodark"):
        for cell in cells:
            header += [f"{cell}{suffix}", f"{cell}{suffix}_stderr"]
    rows = []
    for dark, nodark in zip(sweep_estimates(config).rows, sweep_estimates(quiet_detectors(config)).rows):
        row = [dark.mean_photon]
        for estimate_row in (dark, nodark):
            for cell in cells:
                row += [estimate_row.values[cell], estimate_row.stderrs[cell]]
        rows.append(["" if v is None else format(v, ".15g") for v in row])
    return header, rows


class TestNodarkFromOneTrialSet:
    """The dark-free cells read from the trials that give the dark-count cells."""

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("input_kind", ["coherent", "fock"])
    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_figure_matches_a_second_sweep(self, base_config, figure, input_kind, seed):
        values = config_values(with_dark_rate(base_config, NOISY_DARK_RATE))
        values.update(
            {
                "input.kind": input_kind,
                "input.fock_n": 2,
                "sweep.mu": (0.1, 0.45, 1.3),
                "run.mode": "monte_carlo",
                "run.trials": 4_000,
                "run.seed": seed,
            }
        )
        config = build_config(values)
        header, rows = build_figure(figure, config)
        assert (header, rows) == reference_mc_figure(figure, config)
        for cell in cli._FIGURE_CELLS[figure]:
            dark = [row[header.index(cell)] for row in rows]
            nodark = [row[header.index(f"{cell}_nodark")] for row in rows]
            assert dark != nodark, cell

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(config=random_configs())
    def test_random_configs(self, config):
        config = with_dark_rate(config, NOISY_DARK_RATE)
        mu = config.mean_photon_sweep[0]
        dark, nodark = estimate_with_nodark(config, mu, 4_000)
        assert dark == estimate(config, mu, 4_000)
        assert nodark == estimate(quiet_detectors(config), mu, 4_000)
        assert nodark.values != dark.values


class TestOneSimulationPerPoint:
    SWEEP = (0.1, 0.45, 1.3)

    @pytest.fixture
    def simulated(self, monkeypatch):
        """The mean photon number of every _simulate_arrays call, in the order the calls began."""
        seen = []
        original = montecarlo._simulate_arrays

        def counting(config, mean_photon, trials):
            seen.append(mean_photon)
            return original(config, mean_photon, trials)

        monkeypatch.setattr(montecarlo, "_simulate_arrays", counting)
        return seen

    @pytest.fixture
    def config(self, base_config):
        return replace(base_config, mode="monte_carlo", trials=1_000, mean_photon_sweep=self.SWEEP)

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_sweep_figures(self, config, simulated, figure):
        build_figure(figure, config)
        # The points run concurrently, so they may begin in any order.
        assert Counter(simulated) == Counter(self.SWEEP)

    def test_table1(self, config, simulated):
        build_figure("table1", config)
        assert simulated == [0.45]


class TestSweepPool:
    """Sweep points run on a thread pool and come back in sweep order, whatever the worker count."""

    SWEEP = (1.3, 0.1, 0.45, 0.04)  # not sorted, so sweep order is not value order

    @pytest.fixture
    def use_cpus(self, monkeypatch):
        """Set the usable CPU count; returns the setter and the pool sizes map_sweep asked for."""
        sizes = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)

        def use(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        return use, sizes

    @pytest.fixture
    def config(self, base_config):
        return replace(base_config, mode="monte_carlo", trials=2_000, seed=7, mean_photon_sweep=self.SWEEP)

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_rows_in_sweep_order_for_any_worker_count(self, config, use_cpus, figure):
        use, sizes = use_cpus
        built = []
        for cpus in (1, 4, 8):
            use(cpus)
            built.append(build_figure(figure, config))
        assert sizes == [1, 4, 4]  # one worker per usable CPU, at most one per point
        assert built[1] == built[0] and built[2] == built[0]
        header, rows = built[0]
        assert [float(row[header.index("mu")]) for row in rows] == list(self.SWEEP)

    def test_rows_equal_the_serial_loop(self, config, use_cpus):
        use, _ = use_cpus
        use(4)
        cells = cli._FIGURE_CELLS["fig3"]
        serial = [estimate_with_nodark(config, mu, config.trials, cells) for mu in self.SWEEP]
        dark, nodark = sweep_with_nodark(config, cells)
        assert (dark.rows, nodark.rows) == tuple(zip(*serial))
        serial = tuple(estimate(config, mu, config.trials) for mu in self.SWEEP)
        assert sweep_estimates(config).rows == serial

    @pytest.mark.parametrize("sweep", [(0.45, 2500.0, 3000.0), (0.45, 3000.0, 2500.0)])
    def test_failing_point_raises_the_serial_error(self, base_config, use_cpus, sweep):
        # Both late points underflow (see test_thousands_of_photons) with
        # different messages; the first in sweep order is the one raised,
        # whichever of the two concurrent points fails first.
        use, _ = use_cpus
        use(4)
        point = lambda mu: estimate(base_config, mu, 2_000)
        with pytest.raises(QndsimError) as serial:
            [point(mu) for mu in sweep]
        assert f"mean photon number {sweep[1]}:" in str(serial.value)
        with pytest.raises(QndsimError) as pooled:
            montecarlo.map_sweep(point, SimpleNamespace(mean_photon_sweep=sweep))
        assert str(pooled.value) == str(serial.value)

    def test_failing_point_exits_3_with_its_message(self, tmp_path, capsys, monkeypatch):
        def failing(config, mean_photon, trials, cells):
            if mean_photon >= 0.45:
                raise QndsimError(f"point {mean_photon} failed")
            return original(config, mean_photon, trials, cells)

        original = montecarlo.estimate_with_nodark
        monkeypatch.setattr(montecarlo, "estimate_with_nodark", failing)
        config_path = tmp_path / "sweep.cfg"
        config_path.write_text("sweep.mu = 0.1, 0.45, 1.3\n")
        argv = ["fig3", "--config", str(config_path), "--mode", "mc", "--trials", "1000", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert json.loads(capsys.readouterr().err) == {"category": "runtime", "message": "point 0.45 failed"}
        assert not (tmp_path / "out" / "fig3.csv").exists()


class TestRequestedCells:
    """A sweep of some cells holds exactly the full sweep's rows on those cells."""

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4"])
    def test_figure_cells(self, base_config, figure):
        config = replace(base_config, mode="monte_carlo", trials=4_000, seed=7, mean_photon_sweep=(0.1, 0.45, 1.3))
        cells = cli._FIGURE_CELLS[figure]

        def restricted(row):
            return EstimateRow(
                row.mean_photon,
                *({c: part[c] for c in cells} for part in (row.values, row.stderrs, row.counts)),
            )

        full = sweep_estimates(config)
        assert sweep_estimates(config, cells).rows == tuple(map(restricted, full.rows))
        for requested, whole in zip(sweep_with_nodark(config, cells), sweep_with_nodark(config)):
            assert requested.rows == tuple(map(restricted, whole.rows))


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
