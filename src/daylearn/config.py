"""Config file handling for the CLI.

Flat `section.key = value` text files. Effective config = defaults,
overlaid by DAYLEARN_* environment variables, the file, then command-line
overrides (highest precedence). Unknown keys are rejected. Each key sets
one dataclass field (FIELDS), whose type gives the key's parser and whose
default is the key's default.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .data import AugmentConfig, NormalizationSpec, read_text
from .errors import ConfigError
from .metrics import DetectorConfig
from .nn import parse_layers
from .protocol import ExperimentConfig

ENV_PREFIX = "DAYLEARN_"

DEFAULT_LAYERS = "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3"


def _bool(s):
    if str(s).lower() in ("true", "1", "yes"):
        return True
    if str(s).lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# config key -> the dataclass field it sets; model.layers, a layer string
# that parse_layers turns into ExperimentConfig.layers, is the one other key
FIELDS = {
    "optimizer.kind": (ExperimentConfig, "optimizer_kind"),
    "optimizer.lr": (ExperimentConfig, "learning_rate"),
    "optimizer.beta1": (ExperimentConfig, "beta1"),
    "optimizer.beta2": (ExperimentConfig, "beta2"),
    "optimizer.epsilon": (ExperimentConfig, "epsilon"),
    "optimizer.momentum": (ExperimentConfig, "momentum"),
    "data.root": (ExperimentConfig, "data_root"),
    "data.image_size": (ExperimentConfig, "image_size"),
    "data.norm_mean": (NormalizationSpec, "mean"),
    "data.norm_std": (NormalizationSpec, "std"),
    "data.hflip": (AugmentConfig, "hflip_probability"),
    "data.rotate_degrees": (AugmentConfig, "rotation_degrees"),
    "data.translate": (AugmentConfig, "translate_fraction"),
    "data.jitter": (AugmentConfig, "jitter_fraction"),
    "schedule.days": (ExperimentConfig, "total_days"),
    "schedule.n_per_day": (ExperimentConfig, "n_per_day"),
    "schedule.strategy": (ExperimentConfig, "strategy"),
    "schedule.allow_short_final": (ExperimentConfig, "allow_short_final"),
    "protocol.loss": (ExperimentConfig, "loss_kind"),
    "protocol.batch_size": (ExperimentConfig, "batch_size"),
    "protocol.epochs_per_day": (ExperimentConfig, "epochs_per_day"),
    "protocol.pretrain_size": (ExperimentConfig, "pretrain_size"),
    "protocol.pretrain_epochs": (ExperimentConfig, "pretrain_epochs"),
    "protocol.pretrain_target": (ExperimentConfig, "pretrain_target"),
    "protocol.checkpoint_every": (ExperimentConfig, "checkpoint_every"),
    "protocol.seed": (ExperimentConfig, "seed"),
    "detectors.window": (DetectorConfig, "window"),
    "detectors.slope_tol": (DetectorConfig, "slope_tolerance"),
    "detectors.var_tol": (DetectorConfig, "variance_tolerance"),
    "detectors.spike_drop": (DetectorConfig, "spike_drop"),
}

# field annotations are strings (postponed evaluation)
_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool}


def _field_schema(cls, name):
    f = next(f for f in fields(cls) if f.name == name)
    return _PARSERS[f.type], f.default


# key -> (parser, default), both taken from the key's dataclass field
SCHEMA = {"model.layers": (str, DEFAULT_LAYERS)} | {
    key: _field_schema(*field) for key, field in FIELDS.items()
}


def _apply(effective, key, raw, where):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    parser, _ = SCHEMA[key]
    try:
        effective[key] = parser(raw.strip()) if isinstance(raw, str) else parser(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r} ({where}): {e}")


def load_effective_config(path=None, overrides=(), env=None):
    """Resolve the effective key->value map with full precedence."""
    effective = {k: d for k, (_, d) in SCHEMA.items()}
    env = os.environ if env is None else env
    for key in SCHEMA:
        env_key = ENV_PREFIX + key.upper().replace(".", "__")
        if env_key in env:
            _apply(effective, key, env[env_key], f"environment {env_key}")
    if path is not None:
        for ln, line in enumerate(read_text(path, ConfigError).splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            _apply(effective, key.strip(), raw, f"{path}:{ln}")
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} must look like key=value")
        key, _, raw = ov.partition("=")
        _apply(effective, key.strip().lstrip("-"), raw, "command line")
    return effective


def _build(cls, effective, **extra):
    """cls from its FIELDS keys in `effective`; other fields keep their defaults."""
    kwargs = {name: effective[key] for key, (owner, name) in FIELDS.items() if owner is cls}
    return cls(**kwargs, **extra)


def to_experiment_config(effective) -> ExperimentConfig:
    return _build(
        ExperimentConfig,
        effective,
        layers=parse_layers(effective["model.layers"], effective["data.image_size"]),
        augment=_build(AugmentConfig, effective),
        norm=_build(NormalizationSpec, effective),
    )


def to_detector_config(effective) -> DetectorConfig:
    return _build(DetectorConfig, effective)


def format_effective_config(effective):
    """The text of a run's effective_config.cfg: a `key = value` line per key, sorted."""
    return "".join(f"{key} = {str(value).lower() if isinstance(value, bool) else value}\n"
                   for key, value in sorted(effective.items()))
