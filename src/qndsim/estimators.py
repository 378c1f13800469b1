"""Published-quantity estimators: click curves, correlations, OR/AND, SNR, g2.

Each cell is P(event | given) on outcome-grid masks (CELL_MASKS), shared by
both engines; exact cells that read no click skip the detector split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ZeroProbabilityError
from .protocol import (
    ExperimentConfig,
    JointDistribution,
    Outcome,
    branch_photon_numbers,
    run_cascade,
)

# Canonical cell order shared by the exact engine, the Monte Carlo oracle and
# the CSV writers.
CELLS = (
    "p_up1",
    "p_up2",
    "p_up1_given_up2",
    "p_up2_given_up1",
    "p_up1_given_click",
    "p_up2_given_click",
    "p_or_given_click",
    "p_and_given_click",
    "p_up2_given_up1_and_click",
)

_click = lambda o: o.da | o.db

# cell -> (event, conditioning event or None), written with | and & so that the
# same predicates evaluate one exact Outcome or arrays of Monte Carlo trials.
CELL_PREDICATES: dict[str, tuple[Callable, Callable | None]] = {
    "p_up1": (lambda o: o.s1, None),
    "p_up2": (lambda o: o.s2, None),
    "p_up1_given_up2": (lambda o: o.s1, lambda o: o.s2),
    "p_up2_given_up1": (lambda o: o.s2, lambda o: o.s1),
    "p_up1_given_click": (lambda o: o.s1, _click),
    "p_up2_given_click": (lambda o: o.s2, _click),
    "p_or_given_click": (lambda o: o.s1 | o.s2, _click),
    "p_and_given_click": (lambda o: o.s1 & o.s2, _click),
    "p_up2_given_up1_and_click": (lambda o: o.s2, lambda o: o.s1 & _click(o)),
}


# Each cell's event and conditioning masks on the 16 joint outcomes, at flat
# index 8 s1 + 4 s2 + 2 da + db (an unconditioned cell accepts all 16).
_GRID = Outcome(*np.indices((2, 2, 2, 2)).reshape(4, 16).astype(bool))
CELL_MASKS = {
    cell: (event(_GRID), np.ones(16, dtype=bool) if given is None else given(_GRID))
    for cell, (event, given) in CELL_PREDICATES.items()
}
# Cells blind to the clicks at a fixed readout, masked on the (s1, s2) grid.
_ATOM_MASKS = {
    cell: (event[::4], given[::4])
    for cell, (event, given) in CELL_MASKS.items()
    if all((m.reshape(4, 4) == m[::4, None]).all() for m in (event, given))
}


@dataclass(frozen=True)
class EstimateRow:
    mean_photon: float
    values: dict[str, float | None]
    stderrs: dict[str, float | None]
    counts: dict[str, int] | None = None  # Monte Carlo: the trials each cell accepted


@dataclass(frozen=True)
class EstimateTable:
    rows: tuple[EstimateRow, ...]

    def column(self, cell: str) -> list[float | None]:
        return [row.values[cell] for row in self.rows]

    def max_cell(self, cell: str) -> tuple[float, float]:
        """(mean_photon, value) of the largest present entry in a column."""
        best = None
        for row in self.rows:
            v = row.values[cell]
            if v is not None and (best is None or v > best[1]):
                best = (row.mean_photon, v)
        if best is None:
            raise ZeroProbabilityError(f"column {cell!r} has no defined entries")
        return best


def cells_from_table(
    table: np.ndarray, cells: Sequence[str] = CELLS, masks: dict = CELL_MASKS
) -> dict[str, float | None]:
    """The requested cells of a probability table, flattened onto the masks' outcome grid.

    Each is table[event & given].sum() / table[given].sum(), and None (absent)
    when its condition has probability 0.
    """
    p = np.ravel(table)
    out: dict[str, float | None] = {}
    for cell in cells:
        event, given = masks[cell]
        denom = p[given].sum()
        out[cell] = float(p[event & given].sum() / denom) if denom > 0.0 else None
    return out


def cells_from_distribution(dist: JointDistribution, cells: Sequence[str] = CELLS) -> dict[str, float | None]:
    """The requested cells of one exact (s1, s2, da, db) distribution."""
    return cells_from_table(dist.table, cells)


def sweep_estimates(config: ExperimentConfig, cells: Sequence[str] = CELLS) -> EstimateTable:
    """One row of the requested cells per mean photon number; exact or Monte Carlo."""
    if config.mode == "monte_carlo":
        from . import montecarlo

        point = lambda mu: montecarlo.estimate(config, mu, config.trials, cells)
        return EstimateTable(tuple(montecarlo.map_sweep(point, config)))

    split = not _ATOM_MASKS.keys() >= set(cells)
    rows = []
    for mu in config.mean_photon_sweep:
        if split:
            values = cells_from_distribution(run_cascade(config, mu), cells)
        else:
            values = cells_from_table(branch_photon_numbers(config, mu).sum(-1), cells, _ATOM_MASKS)
        stderrs = {c: None if v is None else 0.0 for c, v in values.items()}
        rows.append(EstimateRow(mu, values, stderrs))
    return EstimateTable(tuple(rows))


def quiet_detectors(config: ExperimentConfig) -> ExperimentConfig:
    """The same experiment with the absorbing detectors' dark counts disabled."""
    return replace(
        config,
        detector_a=replace(config.detector_a, dark_rate=0.0),
        detector_b=replace(config.detector_b, dark_rate=0.0),
    )


def sweep_with_nodark(
    config: ExperimentConfig, cells: Sequence[str] = CELLS
) -> tuple[EstimateTable, EstimateTable]:
    """The sweep of the requested cells, and the same sweep on `quiet_detectors(config)`.

    The exact engine runs both sweeps. The Monte Carlo oracle reads both tables
    from one trial set per point (`montecarlo.estimate_with_nodark`), with the
    samples a second sweep would draw.
    """
    if config.mode != "monte_carlo":
        return sweep_estimates(config, cells), sweep_estimates(quiet_detectors(config), cells)
    from . import montecarlo

    point = lambda mu: montecarlo.estimate_with_nodark(config, mu, config.trials, cells)
    dark, nodark = zip(*montecarlo.map_sweep(point, config))
    return EstimateTable(dark), EstimateTable(nodark)


@dataclass(frozen=True)
class SnrReport:
    snr1: float
    snr2: float
    snr_and: float
    dc1: float
    dc2: float
    dc_and: float
    mean_photon_signal: float
    p_up1_given_click: float
    p_up2_given_click: float
    p_and_given_click: float


def _no_light_dark_counts(config: ExperimentConfig) -> tuple[float, float, float]:
    """P(up1), P(up2) and P(up1 and up2) at zero input.

    Atomic marginals do not depend on the absorbing detectors, so they come
    from the branch photon-number table without a detector split.
    """
    p = branch_photon_numbers(replace(config, input_kind="coherent"), 0.0).sum(-1)
    return float(p[1].sum()), float(p[:, 1].sum()), float(p[1, 1])


def _ratio(num: float, den: float) -> float:
    if den <= 0.0:
        return math.inf  # zero dark counts: infinite signal-to-noise, reported explicitly
    return num / den


def snr(config: ExperimentConfig) -> SnrReport:
    """Signal-to-noise at the smallest sweep point (the small-mean-photon limit)."""
    mu = min(config.mean_photon_sweep)
    wanted = ("p_up1_given_click", "p_up2_given_click", "p_and_given_click")
    p1, p2, p_and = cells_from_distribution(run_cascade(config, mu), wanted).values()
    if p1 is None or p2 is None or p_and is None:
        raise ZeroProbabilityError(
            f"no clicks at the signal point mean_photon={mu}; cannot form an SNR"
        )
    dc1, dc2, dc_and = _no_light_dark_counts(config)
    return SnrReport(
        snr1=_ratio(p1, dc1),
        snr2=_ratio(p2, dc2),
        snr_and=_ratio(p_and, dc_and),
        dc1=dc1,
        dc2=dc2,
        dc_and=dc_and,
        mean_photon_signal=mu,
        p_up1_given_click=p1,
        p_up2_given_click=p2,
        p_and_given_click=p_and,
    )


def g2_from_numbers(weights: np.ndarray) -> float | None:
    """g2(0) = W sum n(n-1) w / (sum n w)^2 of photon-number weights w with total W.

    The weights need not be normalized. None when there is no weight or no
    photon, where g2 is undefined.
    """
    w = np.asarray(weights, dtype=float)
    n = np.arange(len(w))
    total, mean = float(w.sum()), float(n @ w)
    if total <= 0.0 or mean <= 0.0:
        return None
    return total * float((n * (n - 1)) @ w) / mean**2


# condition -> mask over the (s1, s2) readout branches it keeps; both engines
# report the rows in this order.
G2_CONDITIONS: dict[str, np.ndarray] = {
    "none": np.array([[True, True], [True, True]]),
    "up1": np.array([[False, False], [True, True]]),
    "up2": np.array([[False, True], [False, True]]),
    "up1_and_up2": np.array([[False, False], [False, True]]),
}


@dataclass(frozen=True)
class G2Row:
    condition: str
    g2_zero: float | None
    g2_zero_stderr: float | None
    g2_tau: float | None
    g2_tau_stderr: float | None
    tau_mode: str  # 'analytic' (exact engine: independent trials) or 'sampled'


def g2_table(config: ExperimentConfig, mean_photon: float = 0.45) -> tuple[G2Row, ...]:
    """Second-order correlation at zero delay, conditioned on node outcomes.

    In exact mode every row comes from one branch photon-number table, and the
    cross-trial value g2(tau != 0) is 1 by construction (independent
    identically prepared pulses) and is flagged 'analytic'; in monte_carlo
    mode both entries are estimated from sampled clicks.
    """
    if config.mode == "monte_carlo":
        from . import montecarlo

        return montecarlo.g2_estimate(config, mean_photon, config.trials)

    numbers = branch_photon_numbers(config, mean_photon)
    rows = []
    for name, keep in G2_CONDITIONS.items():
        value = g2_from_numbers(numbers[keep].sum(0))
        rows.append(G2Row(name, value, 0.0 if value is not None else None, 1.0, 0.0, "analytic"))
    return tuple(rows)
