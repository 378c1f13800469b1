"""Published-quantity estimators: click curves, correlations, OR/AND, SNR, g2."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ZeroProbabilityError
from .protocol import (
    ExperimentConfig,
    JointDistribution,
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


def cells_from_distribution(dist: JointDistribution) -> dict[str, float | None]:
    """Evaluate every table cell on one exact joint distribution."""
    out: dict[str, float | None] = {}
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


def sweep_estimates(config: ExperimentConfig) -> EstimateTable:
    """One row per mean photon number; exact probabilities or Monte Carlo estimates."""
    if config.mode == "monte_carlo":
        from . import montecarlo

        return EstimateTable(
            tuple(montecarlo.estimate(config, mu, config.trials) for mu in config.mean_photon_sweep)
        )

    rows = []
    for mu in config.mean_photon_sweep:
        cells = cells_from_distribution(run_cascade(config, mu))
        stderrs = {c: None if v is None else 0.0 for c, v in cells.items()}
        rows.append(EstimateRow(mu, cells, stderrs))
    return EstimateTable(tuple(rows))


def quiet_detectors(config: ExperimentConfig) -> ExperimentConfig:
    """The same experiment with the absorbing detectors' dark counts disabled."""
    return replace(
        config,
        detector_a=replace(config.detector_a, dark_rate=0.0),
        detector_b=replace(config.detector_b, dark_rate=0.0),
    )


def sweep_with_nodark(config: ExperimentConfig) -> tuple[EstimateTable, EstimateTable]:
    """The sweep, and the same sweep on `quiet_detectors(config)`.

    The exact engine runs both sweeps. The Monte Carlo oracle reads both tables
    from one trial set per point (`montecarlo.estimate_with_nodark`), with the
    samples a second sweep would draw.
    """
    if config.mode != "monte_carlo":
        return sweep_estimates(config), sweep_estimates(quiet_detectors(config))
    from . import montecarlo

    dark, nodark = zip(
        *(montecarlo.estimate_with_nodark(config, mu, config.trials) for mu in config.mean_photon_sweep)
    )
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
    cells = cells_from_distribution(run_cascade(config, mu))
    p1 = cells["p_up1_given_click"]
    p2 = cells["p_up2_given_click"]
    p_and = cells["p_and_given_click"]
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
