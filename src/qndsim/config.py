"""Configuration defaults, flat-text parsing, and serialization.

The file format is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Unknown keys are rejected. An empty file
yields the default configuration, whose physics numbers are the
characterization values of the modeled two-node experiment.
"""

from __future__ import annotations

import math

from .channel import ChannelParams
from .detectors import DetectorParams
from .errors import ConfigError
from .node import CqedParams, NodeImperfections
from .protocol import ExperimentConfig, NodeConfig

DEFAULT_SWEEP = (0.04, 0.056, 0.084, 0.12, 0.2, 0.3, 0.45, 0.65, 0.9, 1.3, 1.8, 2.4, 3.11)

# Flat key table: name -> (kind, lower, upper). kind 'float', 'int', 'str',
# 'float_list'. Bounds are inclusive; None disables the bound.
_SCHEMA: dict[str, tuple[str, float | None, float | None]] = {}
for _n in ("node1", "node2"):
    _SCHEMA.update(
        {
            f"{_n}.g": ("float", 0.0, None),
            f"{_n}.kappa": ("float", 0.0, None),
            f"{_n}.kappa_r": ("float", 0.0, None),
            f"{_n}.gamma": ("float", 0.0, None),
            f"{_n}.delta_c": ("float", None, None),
            f"{_n}.delta_a": ("float", None, None),
            f"{_n}.dark_count": ("float", 0.0, 1.0),
            f"{_n}.t_coherence": ("float", 0.0, None),
            f"{_n}.prep_fidelity": ("float", 0.0, 1.0),
            f"{_n}.readout_fidelity": ("float", 0.0, 1.0),
            f"{_n}.protocol_window": ("float", 0.0, None),
            f"{_n}.reflection_contrast": ("float", 0.0, 1.0),
        }
    )
_SCHEMA.update(
    {
        "channel.transmission": ("float", 0.0, 1.0),
        "channel.depolarization": ("float", 0.0, 1.0),
        "channel.birefringence_residual": ("float", 0.0, 1.0),
        "detection.efficiency": ("float", 0.0, 1.0),
        "detector_a.efficiency": ("float", 0.0, 1.0),
        "detector_a.dark_rate": ("float", 0.0, None),
        "detector_a.gate_window": ("float", 0.0, None),
        "detector_b.efficiency": ("float", 0.0, 1.0),
        "detector_b.dark_rate": ("float", 0.0, None),
        "detector_b.gate_window": ("float", 0.0, None),
        "sweep.mu": ("float_list", 0.0, None),
        "input.kind": ("str", None, None),
        "input.fock_n": ("int", 0, None),
        "run.mode": ("str", None, None),
        "run.trials": ("int", 1, None),
        "run.seed": ("int", None, None),
    }
)

# Keys whose value may be +inf: an infinite coherence time means no dephasing.
# Every other number must be finite, and NaN is rejected everywhere.
_INFINITY_ALLOWED = frozenset(f"{n}.t_coherence" for n in ("node1", "node2"))

_DEFAULTS: dict[str, object] = {
    "node1.g": 7.6,
    "node1.kappa": 2.5,
    "node1.kappa_r": 2.5,
    "node1.gamma": 3.0,
    "node1.delta_c": 0.0,
    "node1.delta_a": 0.0,
    "node1.dark_count": 0.014,
    "node1.t_coherence": 420.0,
    "node1.prep_fidelity": 1.0,
    "node1.readout_fidelity": 1.0,
    "node1.protocol_window": 3.0,
    "node1.reflection_contrast": 0.63,
    "node2.g": 7.6,
    "node2.kappa": 2.8,
    "node2.kappa_r": 2.8,
    "node2.gamma": 3.0,
    "node2.delta_c": 0.0,
    "node2.delta_a": 0.0,
    "node2.dark_count": 0.004,
    "node2.t_coherence": 470.0,
    "node2.prep_fidelity": 1.0,
    "node2.readout_fidelity": 1.0,
    "node2.protocol_window": 3.0,
    "node2.reflection_contrast": 0.87,
    "channel.transmission": 0.53,
    "channel.depolarization": 0.01,
    "channel.birefringence_residual": 0.005,
    "detection.efficiency": 0.5,
    "detector_a.efficiency": 0.9,
    "detector_a.dark_rate": 40.0,
    "detector_a.gate_window": 2.0,
    "detector_b.efficiency": 0.9,
    "detector_b.dark_rate": 40.0,
    "detector_b.gate_window": 2.0,
    "sweep.mu": DEFAULT_SWEEP,
    "input.kind": "coherent",
    "input.fock_n": 1,
    "run.mode": "exact",
    "run.trials": 100_000,
    "run.seed": 12345,
}


def _parse_value(key: str, raw: str, line_no: int) -> object:
    kind, lo, hi = _SCHEMA[key]
    try:
        if kind == "float":
            value: object = float(raw)
        elif kind == "int":
            value = int(raw)
        elif kind == "float_list":
            value = tuple(float(x) for x in raw.split(",") if x.strip())
            if not value:
                raise ValueError("empty list")
        else:
            value = raw.strip()
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: cannot parse value for {key!r}: {exc}") from None
    items = value if kind == "float_list" else (value,)
    if kind in ("float", "int", "float_list"):
        for item in items:
            if math.isnan(item) or (math.isinf(item) and key not in _INFINITY_ALLOWED):
                raise ConfigError(f"line {line_no}: {key} = {item} is not a finite number")
            if lo is not None and item < lo:
                raise ConfigError(f"line {line_no}: {key} = {item} below minimum {lo}")
            if hi is not None and item > hi:
                raise ConfigError(f"line {line_no}: {key} = {item} above maximum {hi}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'section.key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, line_no)
    return build_config(values)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_text(text)


def _node(values: dict[str, object], name: str) -> NodeConfig:
    g = values[f"{name}.g"]
    return NodeConfig(
        cqed=CqedParams(
            g=g,
            kappa=values[f"{name}.kappa"],
            gamma=values[f"{name}.gamma"],
            kappa_r=values[f"{name}.kappa_r"],
            delta_c=values[f"{name}.delta_c"],
            delta_a=values[f"{name}.delta_a"],
        ),
        imperfections=NodeImperfections(
            dark_count=values[f"{name}.dark_count"],
            t_coherence=values[f"{name}.t_coherence"],
            prep_fidelity=values[f"{name}.prep_fidelity"],
            readout_fidelity=values[f"{name}.readout_fidelity"],
            protocol_window=values[f"{name}.protocol_window"],
            reflection_contrast=values[f"{name}.reflection_contrast"],
        ),
    )


def build_config(values: dict[str, object]) -> ExperimentConfig:
    return ExperimentConfig(
        node1=_node(values, "node1"),
        node2=_node(values, "node2"),
        channel=ChannelParams(
            transmission=values["channel.transmission"],
            depolarization=values["channel.depolarization"],
            birefringence_residual=values["channel.birefringence_residual"],
        ),
        detection_efficiency=values["detection.efficiency"],
        detector_a=DetectorParams(
            efficiency=values["detector_a.efficiency"],
            dark_rate=values["detector_a.dark_rate"],
            gate_window=values["detector_a.gate_window"],
        ),
        detector_b=DetectorParams(
            efficiency=values["detector_b.efficiency"],
            dark_rate=values["detector_b.dark_rate"],
            gate_window=values["detector_b.gate_window"],
        ),
        mean_photon_sweep=tuple(values["sweep.mu"]),
        input_kind=values["input.kind"],
        fock_n=values["input.fock_n"],
        mode={"mc": "monte_carlo"}.get(values["run.mode"], values["run.mode"]),
        trials=values["run.trials"],
        seed=values["run.seed"],
    )


def default_config() -> ExperimentConfig:
    return build_config(dict(_DEFAULTS))


def ideal_config(
    sweep: tuple[float, ...] = DEFAULT_SWEEP, input_kind: str = "coherent", fock_n: int = 1
) -> ExperimentConfig:
    """Loss-free, error-free configuration with perfect controlled-Z reflections."""
    node = NodeConfig(
        cqed=CqedParams(g=7.6, kappa=2.5, gamma=3.0),
        imperfections=NodeImperfections(),
        reflection_override=(1.0, -1.0),
    )
    return ExperimentConfig(
        node1=node,
        node2=node,
        channel=ChannelParams(1.0, 0.0, 0.0),
        detection_efficiency=1.0,
        detector_a=DetectorParams(1.0, 0.0, 2.0),
        detector_b=DetectorParams(1.0, 0.0, 2.0),
        mean_photon_sweep=sweep,
        input_kind=input_kind,
        fock_n=fock_n,
    )


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    return repr(value) if not isinstance(value, str) else value


def config_values(config: ExperimentConfig) -> dict[str, object]:
    out: dict[str, object] = {}
    for name, node in (("node1", config.node1), ("node2", config.node2)):
        cq, imp = node.cqed, node.imperfections
        out.update(
            {
                f"{name}.g": cq.g,
                f"{name}.kappa": cq.kappa,
                f"{name}.kappa_r": cq.out_coupling,
                f"{name}.gamma": cq.gamma,
                f"{name}.delta_c": cq.delta_c,
                f"{name}.delta_a": cq.delta_a,
                f"{name}.dark_count": imp.dark_count,
                f"{name}.t_coherence": imp.t_coherence,
                f"{name}.prep_fidelity": imp.prep_fidelity,
                f"{name}.readout_fidelity": imp.readout_fidelity,
                f"{name}.protocol_window": imp.protocol_window,
                f"{name}.reflection_contrast": imp.reflection_contrast,
            }
        )
    out.update(
        {
            "channel.transmission": config.channel.transmission,
            "channel.depolarization": config.channel.depolarization,
            "channel.birefringence_residual": config.channel.birefringence_residual,
            "detection.efficiency": config.detection_efficiency,
            "detector_a.efficiency": config.detector_a.efficiency,
            "detector_a.dark_rate": config.detector_a.dark_rate,
            "detector_a.gate_window": config.detector_a.gate_window,
            "detector_b.efficiency": config.detector_b.efficiency,
            "detector_b.dark_rate": config.detector_b.dark_rate,
            "detector_b.gate_window": config.detector_b.gate_window,
            "sweep.mu": config.mean_photon_sweep,
            "input.kind": config.input_kind,
            "input.fock_n": config.fock_n,
            "run.mode": config.mode,
            "run.trials": config.trials,
            "run.seed": config.seed,
        }
    )
    return out


def serialize_config(config: ExperimentConfig) -> str:
    """Flat text that parse_config_text() maps back to an equal config."""
    if config.node1.reflection_override is not None or config.node2.reflection_override is not None:
        raise ConfigError("configs with explicit reflection overrides have no file form")
    values = config_values(config)
    lines = [f"{key} = {_format_value(values[key])}" for key in sorted(_SCHEMA)]
    return "\n".join(lines) + "\n"
