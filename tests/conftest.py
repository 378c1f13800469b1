import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qndsim.config import build_config, config_values, default_config, ideal_config
from qndsim.detectors import DetectorParams, no_click_weights
from qndsim.fock import FockSpace, JointState, ModeState, measure_diagonal


@pytest.fixture(scope="session")
def base_config():
    return default_config()


@pytest.fixture(scope="session")
def perfect_config():
    return ideal_config()


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre-random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_mode_state(rng: np.random.Generator, n_max: int) -> ModeState:
    return ModeState(FockSpace(n_max), random_density_matrix(rng, n_max + 1))


def random_qubit_mode_state(rng: np.random.Generator, n_max: int) -> JointState:
    dim = 2 * (n_max + 1)
    return JointState(
        ("q", "m"), ("q", "m"), (None, FockSpace(n_max)), random_density_matrix(rng, dim)
    )


def thermal_state(mean_occupancy: float, space: FockSpace) -> ModeState:
    """Truncated, renormalized thermal state of the given mean occupancy."""
    n = np.arange(space.dim)
    p = np.exp(n * math.log(mean_occupancy / (1.0 + mean_occupancy)))
    return ModeState(space, np.diag(p / p.sum()).astype(complex))


def click_probability(state: JointState, mode: str, params: DetectorParams) -> float:
    """P(click) of one threshold detector on the labeled mode: POVM element 1 - no-click."""
    w_no_click = no_click_weights(state.space(mode).dim, params)
    return measure_diagonal(state, mode, 1.0 - w_no_click)[0]


def parity_probabilities(state: ModeState) -> tuple[float, float]:
    """(p_even, p_odd) of the photon number, measured as a diagonal POVM."""
    odd = np.arange(state.space.dim) % 2
    p_odd, _ = measure_diagonal(state.to_joint("m"), "m", odd)
    p_even, _ = measure_diagonal(state.to_joint("m"), "m", 1 - odd)
    return p_even, p_odd


def conditional(dist, event, given) -> float:
    """P(event | given) on an exact joint distribution."""
    return dist.prob(lambda o: event(o) and given(o)) / dist.prob(given)


_fidelity = st.floats(0.85, 1.0)
_detuning = st.floats(-1.5, 1.5)


@st.composite
def random_configs(draw):
    """Valid configs around the default, with one sweep point and either input kind."""
    values = config_values(default_config())
    for name in ("node1", "node2"):
        values[f"{name}.reflection_contrast"] = draw(st.floats(0.3, 1.0))
        values[f"{name}.prep_fidelity"] = draw(_fidelity)
        values[f"{name}.readout_fidelity"] = draw(_fidelity)
        values[f"{name}.delta_c"] = draw(_detuning)
        values[f"{name}.delta_a"] = draw(_detuning)
    values["channel.transmission"] = draw(st.floats(0.2, 1.0))
    values["channel.depolarization"] = draw(st.floats(0.0, 0.1))
    values["channel.birefringence_residual"] = draw(st.floats(0.0, 0.05))
    values["detection.efficiency"] = draw(st.floats(0.3, 1.0))
    values["input.kind"] = draw(st.sampled_from(("coherent", "fock")))
    values["input.fock_n"] = 1
    values["sweep.mu"] = (draw(st.floats(0.05, 1.0)),)
    return build_config(values)
