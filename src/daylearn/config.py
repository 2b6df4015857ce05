"""The experiment config: `ExperimentConfig`, its hash, and its keys.

Config text is flat `section.key = value` lines; `format_config` writes a
config as one such line per key, as every run's effective_config.cfg.
Effective config = defaults (for a command on an existing run, then the run's
record: `protocol.run_config`), overlaid by DAYLEARN_* environment variables,
the file, then command-line overrides (highest precedence). Unknown keys are
rejected. Each key sets one dataclass field (FIELDS), whose default is the
key's default and whose default's type gives the key's parser.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import nn
from .data import SPLIT_FRACTIONS, AugmentConfig, NormalizationSpec, read_text
from .errors import ConfigError
from .metrics import DetectorConfig
from .nn import parse_layers
from .schedule import GLOBAL_HOLDOUT, STRATEGIES

ENV_PREFIX = "DAYLEARN_"

DEFAULT_LAYERS = "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3"


@dataclass
class ExperimentConfig:
    layers: list
    image_size: int = 32
    optimizer_kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    momentum: float = 0.0
    loss_kind: str = nn.SOFTMAX_CE
    batch_size: int = 16
    pretrain_size: int = 0  # 0 disables pre-training
    pretrain_epochs: int = 5
    pretrain_target: float = 0.70
    total_days: int = 10
    n_per_day: int = 20
    epochs_per_day: int = 1
    strategy: str = GLOBAL_HOLDOUT
    allow_short_final: bool = False
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    norm: NormalizationSpec = field(default_factory=NormalizationSpec)
    detectors: DetectorConfig = field(default_factory=DetectorConfig, metadata={"hashed": False})
    seed: int = 0
    checkpoint_every: int = 25
    data_root: str = field(default="", metadata={"hashed": False})

    def __post_init__(self):
        if self.batch_size < 1 or self.total_days < 1 or self.n_per_day < 1:
            raise ConfigError("batch_size, total_days and n_per_day must be >= 1")
        if self.epochs_per_day < 1 or self.pretrain_epochs < 1:
            raise ConfigError("epoch counts must be >= 1")
        if self.pretrain_size < 0:
            raise ConfigError("pretrain_size must be >= 0")
        if math.isnan(self.pretrain_target):
            raise ConfigError("pretrain_target must be a number, not NaN")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.loss_kind not in nn.LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {nn.LOSS_KINDS}")
        self.make_optimizer()  # the optimizer's constructor checks its values

    def make_optimizer(self):
        """A new optimizer of this config's kind and hyperparameters."""
        return nn.make_optimizer(self.optimizer_kind, lr=self.learning_rate, beta1=self.beta1,
                                 beta2=self.beta2, epsilon=self.epsilon, momentum=self.momentum)

    def config_hash(self):
        """sha256 of the config as sorted, compact JSON: nested dataclasses
        flattened to dotted keys, numbers compared by value (1 and 1.0
        agree), and fields marked `hashed: False` left out: `data_root`, so a
        moved dataset still resumes, and `detectors`, which only assess reads."""
        flat = {"split_fractions": list(SPLIT_FRACTIONS)}  # a removed field, which every old hash holds
        _flatten(self, "", flat)
        text = json.dumps(flat, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _flatten(value, key, out):
    """Flatten `value` into `out` as dotted key -> plain JSON value. Items
    of a list of dataclasses (the layer specs) also record their type."""
    if is_dataclass(value):
        for f in fields(value):
            if f.metadata.get("hashed", True):
                _flatten(getattr(value, f.name), f"{key}.{f.name}" if key else f.name, out)
    elif isinstance(value, (list, tuple)) and any(is_dataclass(v) for v in value):
        for i, item in enumerate(value):
            out[f"{key}.{i}"] = type(item).__name__
            _flatten(item, f"{key}.{i}", out)
    else:
        out[key] = _plain(value)


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


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


def _values(config):
    """key -> the value `config` holds for it, for every key."""
    owners = {type(c): c for c in (config, config.augment, config.norm, config.detectors)}
    return {"model.layers": nn.format_layers(config.layers)} | {
        key: getattr(owners[cls], name) for key, (cls, name) in FIELDS.items()
    }


_PARSERS = {int: int, float: float, str: str, bool: _bool}

# key -> (parser, default), both taken from the default config
SCHEMA = {key: (_PARSERS[type(default)], default) for key, default in
          _values(ExperimentConfig(parse_layers(DEFAULT_LAYERS, ExperimentConfig.image_size))).items()}


def _apply(effective, key, raw, where):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r} ({where})")
    parser, _ = SCHEMA[key]
    try:
        effective[key] = parser(raw.strip()) if isinstance(raw, str) else parser(raw)
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r} ({where}): {e}")


def load_effective_config(path=None, overrides=(), env=None, base=None):
    """Resolve the effective key->value map over `base` (a map this returned) or the defaults."""
    effective = dict(base) if base is not None else {k: d for k, (_, d) in SCHEMA.items()}
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
        detectors=_build(DetectorConfig, effective),
    )


def format_config(config):
    """The text of a run's effective_config.cfg: a sorted `key = value` line
    per key, each value as its key's parser gives it (a 0 in a float field
    is written 0.0), so the text reads back to a config of the same hash."""
    values = {key: SCHEMA[key][0](value) for key, value in _values(config).items()}
    return "".join(f"{key} = {str(v).lower() if isinstance(v, bool) else v}\n"
                   for key, v in sorted(values.items()))
