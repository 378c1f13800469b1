"""Randomized channel-property suite: trace, positivity, composition, covariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import click_probability, parity_probabilities, random_density_matrix
from qndsim.channel import ChannelParams, fiber_channel
from qndsim.detectors import DetectorParams
from qndsim.fock import (
    FockSpace,
    JointState,
    beam_splitter,
    coherent_state,
    loss_channel,
    moments,
    partial_trace,
)
from qndsim.node import ReflectionPair, branch_distinguishability, dephase_visibility, reflect

TRACE_TOL = 1e-12
EIG_FLOOR = -1e-10
N_CASES = 1000


def _random_joint(rng, n_max=4):
    dim = 2 * (n_max + 1)
    return JointState(
        ("q", "m"), ("q", "m"), (None, FockSpace(n_max)), random_density_matrix(rng, dim)
    )


def _random_channel(rng, state):
    kind = rng.integers(0, 6)
    if kind == 0:
        return loss_channel(state, "m", float(rng.uniform(0, 1)))
    if kind == 1:
        r_c = complex(rng.uniform(-1, 1), 0.0)
        return reflect(state, "q", "m", ReflectionPair(r_c, -1.0))
    if kind == 2:
        # the sorter's controlled phase: unit moduli, phase on the down branch
        phase = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        return reflect(state, "q", "m", ReflectionPair(1.0, phase))
    if kind == 3:
        return dephase_visibility(state, "q", float(rng.uniform(0, 1)))
    if kind == 4:
        return fiber_channel(
            state, "m", ChannelParams(float(rng.uniform(0, 1)), float(rng.uniform(0, 0.5)), 0.0)
        )
    return branch_distinguishability(state, "q", "m", float(rng.uniform(0, 1)))


def test_channels_preserve_trace_and_positivity_bulk():
    rng = np.random.default_rng(2024)
    for case in range(N_CASES):
        state = _random_joint(rng, n_max=3)
        out = _random_channel(rng, state)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=TRACE_TOL), case
        eigs = np.linalg.eigvalsh(out.matrix)
        assert eigs[0] >= EIG_FLOOR, case
        herm = np.max(np.abs(out.matrix - out.matrix.conj().T))
        assert herm < 1e-12, case


def test_beam_splitter_preserves_trace_bulk():
    rng = np.random.default_rng(7)
    space = FockSpace(3)
    for case in range(200):
        st = JointState(("a",), ("m",), (space,), random_density_matrix(rng, 4))
        st = st.with_vacuum_ancilla(space, "b")
        out = beam_splitter(st, "a", "b", float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * math.pi)))
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=TRACE_TOL)
        assert np.linalg.eigvalsh(out.matrix)[0] >= EIG_FLOOR


@settings(max_examples=60, deadline=None)
@given(
    t1=st.floats(min_value=0.05, max_value=1.0),
    t2=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_loss_composition_property(t1, t2, seed):
    rng = np.random.default_rng(seed)
    state = _random_joint(rng, n_max=3)
    chained = loss_channel(loss_channel(state, "m", t1), "m", t2)
    direct = loss_channel(state, "m", t1 * t2)
    assert np.max(np.abs(chained.matrix - direct.matrix)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(min_value=0.0, max_value=2.0),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_loss_coherent_covariance_property(mu, t):
    space = FockSpace(FockSpace.required_cutoff(max(mu, 0.01)) + 4)
    st = coherent_state(mu, space).to_joint("m")
    out = loss_channel(st, "m", t)
    n_mean, n_fac2 = moments(out, "m")
    assert n_mean == pytest.approx(t * mu, abs=1e-9)
    assert n_fac2 == pytest.approx((t * mu) ** 2, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(mu=st.floats(min_value=0.01, max_value=2.0))
def test_parity_closed_form_property(mu):
    space = FockSpace(FockSpace.required_cutoff(mu) + 4)
    even, odd = parity_probabilities(coherent_state(mu, space))
    assert even == pytest.approx((1 + math.exp(-2 * mu)) / 2, abs=1e-9)
    assert odd == pytest.approx((1 - math.exp(-2 * mu)) / 2, abs=1e-9)


def test_phase_shift_never_changes_click_statistics():
    # a per-photon phase on both branches: a reflection of unit modulus
    rng = np.random.default_rng(55)
    det = DetectorParams(0.8, 10.0, 2.0)
    for _ in range(50):
        st = _random_joint(rng, n_max=4)
        phase = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        rotated = reflect(st, "q", "m", ReflectionPair(phase, phase))
        assert click_probability(rotated, "m", det) == pytest.approx(
            click_probability(st, "m", det), abs=1e-12
        )


def test_partial_trace_consistency_bulk():
    rng = np.random.default_rng(99)
    for _ in range(100):
        st = _random_joint(rng, n_max=3)
        reduced = partial_trace(st, ["m"])
        assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=TRACE_TOL)
        assert np.linalg.eigvalsh(reduced.matrix)[0] >= EIG_FLOOR
