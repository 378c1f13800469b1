"""Seeded generator of randomized, valid flat-text qndsim configurations.

Each config draws physics from ranges the parser and the model accept and a
dense sweep at small mean photon number, so the exact engine runs many small
points instead of few large ones. The first config always has a node with
reflection_contrast = 1 and the second a fiber with no scrambling
(depolarization + birefringence_residual = 0): both branches are skipped
under the default config.
"""

from __future__ import annotations

import math
import random

SWEEP_POINTS = 40
MU_MAX = 0.5
# One config per random_configs figure; the first two carry the forced branches.
CONFIG_COUNT = 4


def _node(rng: random.Random, name: str, contrast_one: bool) -> dict[str, float]:
    kappa = rng.uniform(1.5, 4.0)
    window = rng.uniform(1.0, 5.0)
    t_coherence = rng.uniform(200.0, 800.0)
    # dark_count may not fall below the dephasing floor (1 - V) / 2.
    floor = (1.0 - math.exp(-window / t_coherence)) / 2.0
    contrast = 1.0 if contrast_one or rng.random() < 0.25 else rng.uniform(0.5, 1.0)
    return {
        f"{name}.g": rng.uniform(3.0, 12.0),
        f"{name}.kappa": kappa,
        f"{name}.kappa_r": kappa * rng.uniform(0.7, 0.999),
        f"{name}.gamma": rng.uniform(2.0, 4.0),
        f"{name}.delta_c": rng.uniform(-1.5, 1.5),
        f"{name}.delta_a": rng.uniform(-1.5, 1.5),
        f"{name}.dark_count": floor + rng.uniform(0.001, 0.03),
        f"{name}.t_coherence": t_coherence,
        f"{name}.protocol_window": window,
        f"{name}.reflection_contrast": contrast,
        f"{name}.prep_fidelity": rng.uniform(0.9, 1.0),
        f"{name}.readout_fidelity": rng.uniform(0.9, 1.0),
    }


def _config(rng: random.Random, contrast_one: bool, no_scramble: bool) -> dict[str, object]:
    one_node = rng.choice(("node1", "node2")) if contrast_one else None
    values: dict[str, object] = {}
    for name in ("node1", "node2"):
        values.update(_node(rng, name, name == one_node))
    if no_scramble or rng.random() < 0.2:
        depol, biref = 0.0, 0.0
    else:
        depol, biref = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.02)
    values.update(
        {
            "channel.transmission": rng.uniform(0.3, 1.0),
            "channel.depolarization": depol,
            "channel.birefringence_residual": biref,
            "detection.efficiency": rng.uniform(0.3, 1.0),
        }
    )
    for det in ("detector_a", "detector_b"):
        values[f"{det}.efficiency"] = rng.uniform(0.5, 1.0)
        values[f"{det}.dark_rate"] = rng.uniform(0.0, 200.0)
        values[f"{det}.gate_window"] = rng.uniform(1.0, 3.0)
    lo = rng.uniform(0.01, 0.03)
    # Keeping the top of the sweep near MU_MAX fixes the cutoff at n_max = 9,
    # so every seed asks for about the same amount of work.
    hi = rng.uniform(0.45, MU_MAX)
    step = (hi - lo) / (SWEEP_POINTS - 1)
    values["sweep.mu"] = [lo + i * step for i in range(SWEEP_POINTS)]
    return values


def _format(value: object) -> str:
    # Floats are written at 9 significant digits; every drawn value keeps a
    # margin to its bound far larger than that rounding.
    if isinstance(value, list):
        return ", ".join(format(v, ".9g") for v in value)
    return format(value, ".9g")


def generate(seed: int) -> list[str]:
    """CONFIG_COUNT config texts drawn from `seed`; identical seeds give identical texts."""
    rng = random.Random(seed)
    texts = []
    for i in range(CONFIG_COUNT):
        values = _config(rng, contrast_one=i == 0, no_scramble=i == 1)
        lines = [f"# perfbench random config {i} of seed {seed}"]
        lines += [f"{key} = {_format(val)}" for key, val in values.items()]
        texts.append("\n".join(lines) + "\n")
    return texts
