"""Absorbing single-photon detectors with finite efficiency and dark counts.

Both detectors are diagonal in photon number, so the 50:50 split reads only
the number diagonal of the split state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .fock import JointState, beam_splitter


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


@lru_cache(maxsize=64)
def _click_weights(dim: int, params: DetectorParams) -> np.ndarray:
    """Read-only (2, dim) stack of one detector's weights: row 0 'no click', row 1 'click'."""
    no = no_click_weights(dim, params)
    stack = np.stack([no, 1.0 - no])
    stack.flags.writeable = False
    return stack


def hbt_split_and_count(
    state: JointState,
    mode: str,
    detectors: Sequence[tuple[DetectorParams, DetectorParams]],
) -> np.ndarray:
    """50:50 split of the mode onto two threshold detectors, once for every detector pair.

    Returns table[i, da, db], the joint click distribution of detector a and
    detector b (index 1 = click) under the i-th (a, b) pair; any other
    subsystems of the state are traced out. Both detectors are diagonal in
    photon number, so the mode is split once and each pair contracts the split
    state's number diagonal P[n_a, n_b] with its no-click or click weights on
    each side.
    """
    space = state.space(mode)
    anc = f"{mode}_hbt"
    split = beam_splitter(state.with_vacuum_ancilla(space, anc), mode, anc, 0.5)
    dim = space.dim
    # The ancilla is the last subsystem; every other one but the mode is summed out.
    diagonal = np.diagonal(split.matrix).real.reshape(split.dims)
    numbers = np.moveaxis(diagonal, split.position(mode), 0).reshape(dim, -1, dim).sum(1)
    tables = np.empty((len(detectors), 2, 2))
    for table, (params_a, params_b) in zip(tables, detectors):
        table[...] = _click_weights(dim, params_a) @ numbers @ _click_weights(dim, params_b).T
    return tables
