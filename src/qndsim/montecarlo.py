"""Independent stochastic sampler of the cascade, cross-validating the exact engine.

Each trial draws a photon number, classical per-photon fates through every
loss stage, and the resulting pure two-atom amplitude over the four branch
combinations; atomic outcomes and detector clicks are then sampled. This
per-photon unraveling is exact here because the input is Poissonian (or Fock)
and all optics are linear with branch-conditioned amplitudes; the test suite
asserts agreement with the exact engine instead of assuming it.

Randomness comes from counter-based Philox streams keyed by
(seed, stage, sweep point), so results are reproducible independent of
scheduling and identical for identical (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimators import CELL_PREDICATES, CELLS, G2_CONDITIONS, G2Row
from .node import rotation_matrix
from .protocol import ExperimentConfig, Outcome

HALF_PI = math.pi / 2.0

# Per-photon fate categories through the cascade, in fate_counts column order:
# lost at node 1, in the fiber, at node 2, before the detectors; reaching
# detector a and missed or detected; reaching detector b and missed or detected.
_F_LOST1, _F_FIBER, _F_LOST2, _F_LOSTD, _F_AMISS, _F_AHIT, _F_BMISS, _F_BHIT = range(8)

_STAGES = {
    "prep1": 0,
    "prep2": 1,
    "photon_number": 2,
    "depolarization": 3,
    "branch_label": 4,
    "fates": 5,
    "atom_outcome": 6,
    "readout1": 7,
    "readout2": 8,
    "dark_a": 9,
    "dark_b": 10,
}


def _mu_tag(mean_photon: float) -> int:
    return int(np.float64(mean_photon).view(np.uint64))


def _sweep_stream(seed: int, mean_photon: float, name: str) -> np.random.Generator:
    # The trailing 2 is a fixed tag: changing it would change every seed's streams.
    counter = [0, _STAGES[name], _mu_tag(mean_photon), 2]
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1), counter=counter))


@dataclass(frozen=True)
class _Model:
    """Per-photon amplitude tables and atomic parameters derived from a config."""

    amp: np.ndarray  # (2 depol, 2 x, 2 y, 8 fates) complex amplitudes
    prob: np.ndarray  # |amp|^2
    c_good: tuple[np.ndarray, np.ndarray]  # post-first-pulse amplitudes per atom
    c_bad: tuple[np.ndarray, np.ndarray]
    visibility: tuple[float, float]
    contrast: tuple[float, float]
    rotation: tuple[np.ndarray, np.ndarray]
    readout: tuple[float, float]
    prep: tuple[float, float]
    scramble: float
    p_dark: tuple[float, float]

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "_Model":
        pair1 = config.node1.pair()
        pair2 = config.node2.pair()
        imp1, imp2 = config.node1.imperfections, config.node2.imperfections
        r1 = np.array([pair1.r_coupled, pair1.r_uncoupled])
        r2_by_depol = (
            np.array([pair2.r_coupled, pair2.r_uncoupled]),
            np.array([pair2.r_uncoupled, pair2.r_uncoupled]),
        )
        t_fiber = config.channel.transmission
        t_det = config.detection_efficiency
        eta_a = config.detector_a.efficiency
        eta_b = config.detector_b.efficiency
        amp = np.zeros((2, 2, 2, 8), dtype=complex)
        for d in (0, 1):
            r2 = r2_by_depol[d]
            for x in (0, 1):
                for y in (0, 1):
                    kept1 = r1[x]
                    kept2 = kept1 * math.sqrt(t_fiber) * r2[y]
                    at_det = kept2 * math.sqrt(t_det)
                    amp[d, x, y] = [
                        math.sqrt(max(0.0, 1.0 - abs(r1[x]) ** 2)),
                        kept1 * math.sqrt(1.0 - t_fiber),
                        kept1 * math.sqrt(t_fiber) * math.sqrt(max(0.0, 1.0 - abs(r2[y]) ** 2)),
                        kept2 * math.sqrt(1.0 - t_det),
                        at_det * math.sqrt((1.0 - eta_a) / 2.0),
                        at_det * math.sqrt(eta_a / 2.0),
                        at_det * math.sqrt((1.0 - eta_b) / 2.0),
                        at_det * math.sqrt(eta_b / 2.0),
                    ]
        prob = np.abs(amp) ** 2
        if not np.allclose(prob.sum(axis=-1), 1.0, atol=1e-12):
            raise ConfigError("per-photon fate probabilities do not sum to 1")

        def pulse_amplitudes(delta: float) -> tuple[np.ndarray, np.ndarray]:
            half = (HALF_PI + delta) / 2.0
            good = np.array([math.cos(half), math.sin(half)], dtype=complex)
            bad = np.array([-math.sin(half), math.cos(half)], dtype=complex)
            return good, bad

        g1, b1 = pulse_amplitudes(imp1.over_rotation())
        g2, b2 = pulse_amplitudes(imp2.over_rotation())
        return cls(
            amp=amp,
            prob=prob,
            c_good=(g1, g2),
            c_bad=(b1, b2),
            visibility=(imp1.visibility(), imp2.visibility()),
            contrast=(imp1.reflection_contrast, imp2.reflection_contrast),
            rotation=(
                rotation_matrix(HALF_PI, HALF_PI + imp1.over_rotation()),
                rotation_matrix(HALF_PI, HALF_PI + imp2.over_rotation()),
            ),
            readout=(imp1.readout_fidelity, imp2.readout_fidelity),
            prep=(imp1.prep_fidelity, imp2.prep_fidelity),
            scramble=config.channel.scramble_probability,
            p_dark=(config.detector_a.p_dark, config.detector_b.p_dark),
        )


def _atom_probabilities(
    model: _Model,
    fate_counts: np.ndarray,
    depolarized: np.ndarray,
    c1: np.ndarray,
    c2: np.ndarray,
) -> np.ndarray:
    """Joint (z1, z2) outcome probabilities for a batch of fate records.

    fate_counts: (N, 8); depolarized: (N,) bool; c1, c2: (N, 2) complex.
    Returns (N, 2, 2) probabilities (index 0 = up).

    The branch amplitude is psi[x, y] = c1[x] c2[y] prod_f amp[d, x, y, f]^count_f.
    The power is taken only for the rows whose count in fate column f is
    nonzero; every other row keeps an exact factor 1, as amp^0 = 1 would give.
    Each atom's residual Z dephasing is the mixture of Z^0 and Z^1 with
    weights (1 + v)/2 and (1 - v)/2, so the (a, b) sum below adds the
    probabilities of U1 Z^a psi Z^b U2^T. That product is written out on the
    four (N,) components of psi: entry (i, l) is sum over (j, k) of
    U1[i, j] U2[l, k] psi[j, k], with the sign (-1)^(a j + b k) folded into
    the scalar coefficient.
    """
    n_trials = fate_counts.shape[0]
    depol = depolarized.astype(int)
    factors = np.ones((n_trials, 2, 2), dtype=complex)
    for f in range(fate_counts.shape[1]):
        rows = np.flatnonzero(fate_counts[:, f])
        if rows.size:
            base = model.amp[depol[rows], :, :, f]  # (M, 2, 2)
            factors[rows] *= np.power(base, fate_counts[rows, f][:, None, None])
    psi = {(j, k): c1[:, j] * c2[:, k] * factors[:, j, k] for j in (0, 1) for k in (0, 1)}

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
            wab = wa * ((1.0 + v2) / 2.0 if b == 0 else (1.0 - v2) / 2.0)
            for i in (0, 1):
                for l in (0, 1):
                    rotated = sum(
                        (-1) ** (a * j + b * k) * u1[i, j] * u2[l, k] * psi_jk
                        for (j, k), psi_jk in psi.items()
                    )
                    probs[:, i, l] += wab * np.abs(rotated) ** 2
    norm = probs.sum(axis=(1, 2))
    return probs / norm[:, None, None]


def _distinct_rows(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One trial per distinct row of the columns, and each trial's row among them.

    columns: (N,) arrays of non-negative integers or bools. Each column enters
    a mixed-radix key with base max + 1, so equal keys mean equal rows. A
    column that would take the key's bound past 2^62 is merged by sorting
    instead: the new key numbers the distinct (key, column) pairs 0, 1, ...
    So the key never overflows, whatever the counts.
    """
    key = np.zeros(columns[0].shape, dtype=np.int64)
    bound = 1  # every key < bound; a Python int, so this check cannot overflow
    for col in columns:
        base = int(col.max()) + 1
        if bound * base <= 2**62:
            key, bound = key * base + col, bound * base
            continue
        order = np.lexsort((col, key))
        pairs = np.stack([key, col])[:, order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (pairs[:, 1:] != pairs[:, :-1]).any(axis=0)
        key = np.empty_like(key)
        key[order] = np.cumsum(new) - 1
        bound = int(new.sum())
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _threshold_index(u: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """Per row, how many of the four cumulative weights u reaches."""
    return sum((u >= cumulative[:, j]).astype(np.int64) for j in range(4))


def _simulate_arrays(config: ExperimentConfig, mean_photon: float, trials: int) -> dict:
    """Sample `trials` independent runs at one mean photon number.

    Returns per-trial arrays: photon number "n", "fate_counts" (trials, 8) in
    the _F_* column order, "depolarized", the readouts "s1"/"s2" (True = up)
    and the detector clicks "click_a"/"click_b".

    The deterministic work is done once per distinct input and gathered back
    per trial. The branch-label weights depend only on (prep1, prep2), so they
    come from a 2x2 table. The atom outcome probabilities depend only on the
    record (fate_counts row, depolarized, prep1, prep2), so `_atom_probabilities`
    runs once per distinct record: a few dozen at low mu, a few thousand at
    mu ~ 3 for 10^5 trials. This is exact, not an approximation: each row's
    probabilities are computed element-wise from that row alone, so a trial
    gets the same floats as from a per-trial call, and every stream draws the
    same numbers in the same order.
    """
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

    # Post-first-pulse amplitudes indexed by prep outcome (1 = prepared).
    c1 = np.stack([model.c_bad[0], model.c_good[0]])
    c2 = np.stack([model.c_bad[1], model.c_good[1]])
    p1, p2 = prep1.astype(np.intp), prep2.astype(np.intp)
    w = np.abs(c1[:, None, :, None] * c2[None, :, None, :]) ** 2  # (prep1, prep2, x, y)
    w_cum = np.cumsum(w.reshape(2, 2, 4), axis=-1)[p1, p2]
    u = stream("branch_label").random(trials) * w_cum[:, -1]
    label = _threshold_index(u, w_cum)  # x * 2 + y
    branch = 2 * label + depolarized

    fate_counts = np.zeros((trials, 8), dtype=np.int64)
    fate_rng = stream("fates")
    for d in (0, 1):
        for xx in (0, 1):
            for yy in (0, 1):
                rows = np.flatnonzero(branch == 2 * (2 * xx + yy) + d)
                if rows.size:
                    fate_counts[rows] = fate_rng.multinomial(n[rows], model.prob[d, xx, yy])

    first, inverse = _distinct_rows([*fate_counts.T, depolarized, prep1, prep2])
    probs = _atom_probabilities(
        model, fate_counts[first], depolarized[first], c1[p1[first]], c2[p2[first]]
    )
    flat = probs.reshape(-1, 4).cumsum(axis=1)[inverse]
    r = stream("atom_outcome").random(trials) * flat[:, -1]
    z = np.minimum(_threshold_index(r, flat), 3)
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


@dataclass(frozen=True)
class McEstimate:
    mean_photon: float
    trials: int
    values: dict[str, float | None]
    stderrs: dict[str, float | None]
    counts: dict[str, int]


def _cell_estimate(event: np.ndarray, given: np.ndarray | None) -> tuple[float | None, float | None, int]:
    if given is None:
        n_eff = event.size
        k = int(event.sum())
    else:
        n_eff = int(given.sum())
        if n_eff == 0:
            return None, None, 0  # absent cell: no accepted trials
        k = int((event & given).sum())
    p = k / n_eff
    return p, math.sqrt(p * (1.0 - p) / n_eff), n_eff


def estimate(config: ExperimentConfig, mean_photon: float, trials: int) -> McEstimate:
    """Monte Carlo estimates with binomial standard errors for every table cell."""
    arrays = _simulate_arrays(config, mean_photon, trials)
    trial = Outcome(arrays["s1"], arrays["s2"], arrays["click_a"], arrays["click_b"])
    values: dict[str, float | None] = {}
    stderrs: dict[str, float | None] = {}
    counts: dict[str, int] = {}
    for cell in CELLS:
        event, given = CELL_PREDICATES[cell]
        values[cell], stderrs[cell], counts[cell] = _cell_estimate(
            event(trial), None if given is None else given(trial)
        )
    return McEstimate(mean_photon, trials, values, stderrs, counts)


def g2_estimate(config: ExperimentConfig, mean_photon: float, trials: int) -> tuple[G2Row, ...]:
    """Click-coincidence estimate of g2(0) and the cross-trial g2(tau != 0)."""
    arrays = _simulate_arrays(config, mean_photon, trials)
    s1, s2 = arrays["s1"].astype(int), arrays["s2"].astype(int)
    rows = []
    for name, keep in G2_CONDITIONS.items():
        mask = keep[s1, s2]
        a = arrays["click_a"][mask]
        b = arrays["click_b"][mask]
        n_eff, na, nb = a.size, int(a.sum()), int(b.sum())
        nab = int((a & b).sum())
        if n_eff < 2 or na == 0 or nb == 0:
            rows.append(G2Row(name, None, None, None, None, "sampled"))
            continue
        g2_zero = (nab * n_eff) / (na * nb) if nab else 0.0
        g2_zero_err = (
            g2_zero * math.sqrt(1.0 / nab + 1.0 / na + 1.0 / nb) if nab else None
        )
        cross = int((a[:-1] & b[1:]).sum())
        denom = (na / n_eff) * (nb / n_eff) * (n_eff - 1)
        g2_tau = cross / denom if denom > 0 else None
        g2_tau_err = g2_tau * math.sqrt(1.0 / cross) if cross else None
        rows.append(G2Row(name, g2_zero, g2_zero_err, g2_tau, g2_tau_err, "sampled"))
    return tuple(rows)
