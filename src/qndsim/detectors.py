"""Absorbing single-photon detectors with finite efficiency and dark counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fock import JointState, beam_splitter, measure_diagonal


@dataclass(frozen=True)
class DetectorParams:
    efficiency: float = 1.0
    dark_rate: float = 0.0  # Hz
    gate_window: float = 2.0  # microseconds

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError(f"detector efficiency must be in [0, 1], got {self.efficiency}")
        if self.dark_rate < 0:
            raise ConfigError(f"dark_rate must be >= 0, got {self.dark_rate}")
        if self.gate_window <= 0:
            raise ConfigError(f"gate_window must be > 0, got {self.gate_window}")

    @property
    def p_dark(self) -> float:
        return 1.0 - math.exp(-self.dark_rate * self.gate_window * 1e-6)


def no_click_weights(dim: int, params: DetectorParams) -> np.ndarray:
    """Diagonal POVM element for 'no click': (1 - p_dark) (1 - eta)^n."""
    n = np.arange(dim)
    return (1.0 - params.p_dark) * (1.0 - params.efficiency) ** n


def hbt_split_and_count(
    state: JointState,
    mode: str,
    params_a: DetectorParams,
    params_b: DetectorParams,
) -> dict[tuple[bool, bool], float]:
    """50:50 split of the mode onto two threshold detectors.

    Returns the joint click distribution over (detector a, detector b); any
    other subsystems of the state are traced out.
    """
    space = state.space(mode)
    anc = f"{mode}_hbt"
    split = beam_splitter(state.with_vacuum_ancilla(space, anc), mode, anc, 0.5)
    dim = space.dim
    w_no_a = no_click_weights(dim, params_a)
    w_no_b = no_click_weights(dim, params_b)
    p_no_a, rest = measure_diagonal(split, mode, w_no_a)
    p_no_b, _ = measure_diagonal(split, anc, w_no_b)
    if rest is None:
        p_no_no = 0.0
    else:
        p_no_b_given, _ = measure_diagonal(rest, anc, w_no_b)
        p_no_no = p_no_a * p_no_b_given
    p_a_no_b = max(p_no_b - p_no_no, 0.0)  # a clicks, b does not
    p_b_no_a = max(p_no_a - p_no_no, 0.0)
    p_both = max(1.0 - p_no_a - p_no_b + p_no_no, 0.0)
    return {
        (False, False): p_no_no,
        (True, False): p_a_no_b,
        (False, True): p_b_no_a,
        (True, True): p_both,
    }

