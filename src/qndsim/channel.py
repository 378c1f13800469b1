"""Fiber link between the detectors and the collection path after the second node."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fock import JointState, apply_channel, loss_channel


@dataclass(frozen=True)
class ChannelParams:
    transmission: float = 1.0
    depolarization: float = 0.0
    birefringence_residual: float = 0.0

    def __post_init__(self) -> None:
        for name in ("transmission", "depolarization", "birefringence_residual"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"channel.{name} must be in [0, 1], got {v}")
        if self.depolarization + self.birefringence_residual > 1.0:
            raise ConfigError(
                "depolarization + birefringence_residual exceeds 1: "
                f"{self.depolarization} + {self.birefringence_residual}"
            )

    @property
    def scramble_probability(self) -> float:
        """Probability that the pulse's phase reference is lost in transit.

        With probability depolarization + birefringence_residual the pulse is
        scrambled out of the interacting polarization: its branch coherence
        with the upstream atom is destroyed and it no longer drives the
        downstream atom. Both effects are collective per pulse; the protocol
        engine and the Monte Carlo oracle realize the decoupling around the
        downstream reflection.
        """
        return self.depolarization + self.birefringence_residual


def fiber_channel(state: JointState, mode: str, params: ChannelParams) -> JointState:
    """Loss at the fiber transmission, then phase randomization of the mode.

    With probability p + eps the mode suffers a per-photon pi phase flip
    (Fock off-diagonals with odd photon-number difference are scaled by
    1 - (p + eps)). The accompanying decoupling of the downstream node is a
    collective per-pulse effect and lives in the protocol engine, keyed off
    scramble_probability.

    The flip never changes a cascade or sorter output: the later channels
    keep the photon-number difference of every coherence and all measurements
    are number-diagonal, so only populations are read. The protocol engine
    and the number sorter run on that sector, where the flip is the identity,
    so neither calls this function; it serves the dense reference pipelines
    they are tested against.
    """
    out = loss_channel(state, mode, params.transmission)
    q = params.scramble_probability
    if q == 0.0:
        return out
    pos = out.position(mode)
    dim = out.dims[pos]
    eye = np.eye(dim, dtype=complex)
    flip = np.diag((-1.0 + 0j) ** np.arange(dim))
    kraus = [math.sqrt(1.0 - q / 2.0) * eye, math.sqrt(q / 2.0) * flip]
    return apply_channel(out, kraus, [mode])


def detection_path(state: JointState, mode: str, efficiency: float) -> JointState:
    """Collection loss between the last node and the absorbing detectors."""
    if not 0.0 <= efficiency <= 1.0:
        raise ConfigError(f"detection efficiency must be in [0, 1], got {efficiency}")
    return loss_channel(state, mode, efficiency)
