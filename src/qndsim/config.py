"""Configuration defaults, flat-text parsing, and serialization.

The file format is one `section.key = value` assignment per line, with `#`
comments and blank lines ignored. Unknown keys are rejected. An empty file
yields the default configuration, whose physics numbers are the
characterization values of the modeled two-node experiment.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .channel import ChannelParams
from .detectors import DetectorParams
from .errors import ConfigError
from .node import CqedParams, NodeImperfections
from .protocol import SEED_MAX, ExperimentConfig, NodeConfig

DEFAULT_SWEEP = (0.04, 0.056, 0.084, 0.12, 0.2, 0.3, 0.45, 0.65, 0.9, 1.3, 1.8, 2.4, 3.11)

# (kind, lower, upper, default) of one key. kind is 'float', 'int', 'str' or
# 'float_list'; bounds are inclusive and None disables one.
_Entry = tuple[str, float | None, float | None, object]


def _node_keys(
    name: str, kappa: float, dark_count: float, t_coherence: float, contrast: float
) -> dict[str, _Entry]:
    return {
        f"{name}.g": ("float", 0.0, None, 7.6),
        f"{name}.kappa": ("float", 0.0, None, kappa),
        # None resolves to kappa in CqedParams: a fully one-sided cavity.
        f"{name}.kappa_r": ("float", 0.0, None, None),
        f"{name}.gamma": ("float", 0.0, None, 3.0),
        f"{name}.delta_c": ("float", None, None, 0.0),
        f"{name}.delta_a": ("float", None, None, 0.0),
        f"{name}.dark_count": ("float", 0.0, 1.0, dark_count),
        f"{name}.t_coherence": ("float", 0.0, None, t_coherence),
        f"{name}.prep_fidelity": ("float", 0.0, 1.0, 1.0),
        f"{name}.readout_fidelity": ("float", 0.0, 1.0, 1.0),
        f"{name}.protocol_window": ("float", 0.0, None, 3.0),
        f"{name}.reflection_contrast": ("float", 0.0, 1.0, contrast),
    }


# The file's key set, the one place it is declared. A key `section.field` of a
# parameter section (_NODE_PARTS, _SECTIONS) names the dataclass field of the
# same name; _TOP_LEVEL maps the keys of ExperimentConfig itself.
_KEYS: dict[str, _Entry] = {
    **_node_keys("node1", kappa=2.5, dark_count=0.014, t_coherence=420.0, contrast=0.63),
    **_node_keys("node2", kappa=2.8, dark_count=0.004, t_coherence=470.0, contrast=0.87),
    "channel.transmission": ("float", 0.0, 1.0, 0.53),
    "channel.depolarization": ("float", 0.0, 1.0, 0.01),
    "channel.birefringence_residual": ("float", 0.0, 1.0, 0.005),
    "detection.efficiency": ("float", 0.0, 1.0, 0.5),
    "detector_a.efficiency": ("float", 0.0, 1.0, 0.9),
    "detector_a.dark_rate": ("float", 0.0, None, 40.0),
    "detector_a.gate_window": ("float", 0.0, None, 2.0),
    "detector_b.efficiency": ("float", 0.0, 1.0, 0.9),
    "detector_b.dark_rate": ("float", 0.0, None, 40.0),
    "detector_b.gate_window": ("float", 0.0, None, 2.0),
    "sweep.mu": ("float_list", 0.0, None, DEFAULT_SWEEP),
    "input.kind": ("str", None, None, "coherent"),
    "input.fock_n": ("int", 0, None, 1),
    "run.mode": ("str", None, None, "exact"),
    "run.trials": ("int", 1, None, 100_000),
    "run.seed": ("int", 0, SEED_MAX, 12345),
}

_NODES = ("node1", "node2")
_NODE_PARTS = {"cqed": CqedParams, "imperfections": NodeImperfections}
_SECTIONS = {"channel": ChannelParams, "detector_a": DetectorParams, "detector_b": DetectorParams}
_TOP_LEVEL = {
    "detection.efficiency": "detection_efficiency",
    "sweep.mu": "mean_photon_sweep",
    "input.kind": "input_kind",
    "input.fock_n": "fock_n",
    "run.mode": "mode",
    "run.trials": "trials",
    "run.seed": "seed",
}

# Keys whose value may be +inf: an infinite coherence time means no dephasing.
# Every other number must be finite, and NaN is rejected everywhere.
_INFINITY_ALLOWED = frozenset(f"{n}.t_coherence" for n in _NODES)


def _defaults() -> dict[str, object]:
    return {key: entry[3] for key, entry in _KEYS.items()}


def _parse_value(key: str, raw: str, line_no: int) -> object:
    kind, lo, hi, _ = _KEYS[key]
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
            # Ints are finite; this guard also keeps huge ints out of float conversion.
            if kind != "int" and (
                math.isnan(item) or (math.isinf(item) and key not in _INFINITY_ALLOWED)
            ):
                raise ConfigError(f"line {line_no}: {key} = {item} is not a finite number")
            if lo is not None and item < lo:
                raise ConfigError(f"line {line_no}: {key} = {item} below minimum {lo}")
            if hi is not None and item > hi:
                raise ConfigError(f"line {line_no}: {key} = {item} above maximum {hi}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    values = _defaults()
    set_on: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'section.key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {line_no}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = line_no
        values[key] = _parse_value(key, raw, line_no)
    return build_config(values)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_text(text)


def _params(cls: type, section: str, values: dict[str, object]):
    return cls(**{f.name: values[f"{section}.{f.name}"] for f in fields(cls)})


def build_config(values: dict[str, object]) -> ExperimentConfig:
    """ExperimentConfig from a complete key -> value map, as config_values() returns."""
    kwargs = {attr: values[key] for key, attr in _TOP_LEVEL.items()}
    for name in _NODES:
        parts = {part: _params(cls, name, values) for part, cls in _NODE_PARTS.items()}
        kwargs[name] = NodeConfig(**parts)
    for name, cls in _SECTIONS.items():
        kwargs[name] = _params(cls, name, values)
    return ExperimentConfig(**kwargs)


def default_config() -> ExperimentConfig:
    return build_config(_defaults())


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
    """The file's key -> value map of a config; build_config() inverts it."""
    out = {key: getattr(config, attr) for key, attr in _TOP_LEVEL.items()}
    sections = [(name, getattr(getattr(config, name), p)) for name in _NODES for p in _NODE_PARTS]
    sections += [(name, getattr(config, name)) for name in _SECTIONS]
    for name, params in sections:
        out.update({f"{name}.{f.name}": getattr(params, f.name) for f in fields(params)})
    return out


def serialize_config(config: ExperimentConfig) -> str:
    """Flat text that parse_config_text() maps back to an equal config."""
    if config.node1.reflection_override is not None or config.node2.reflection_override is not None:
        raise ConfigError("configs with explicit reflection overrides have no file form")
    values = config_values(config)
    lines = [f"{key} = {_format_value(values[key])}" for key in sorted(_KEYS)]
    return "\n".join(lines) + "\n"
