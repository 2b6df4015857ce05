"""Config file handling for the CLI.

Flat `section.key = value` text files. Effective config = defaults,
overlaid by DAYLEARN_* environment variables, the file, then command-line
overrides (highest precedence). Unknown keys are rejected.
"""

from __future__ import annotations

import os

from .data import AugmentConfig, NormalizationSpec, GRAY_MEAN, GRAY_STD, replacing_open
from .errors import ConfigError
from .metrics import DetectorConfig
from .nn import (
    Conv2dSpec,
    DenseSpec,
    FlattenSpec,
    MaxPool2dSpec,
    ReLUSpec,
    _propagate_shape,
)
from .protocol import ExperimentConfig

ENV_PREFIX = "DAYLEARN_"

DEFAULT_LAYERS = "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3"


def _bool(s):
    if str(s).lower() in ("true", "1", "yes"):
        return True
    if str(s).lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (parser, default)
SCHEMA = {
    "model.layers": (str, DEFAULT_LAYERS),
    "optimizer.kind": (str, "adam"),
    "optimizer.lr": (float, 1e-3),
    "optimizer.beta1": (float, 0.9),
    "optimizer.beta2": (float, 0.999),
    "optimizer.epsilon": (float, 1e-8),
    "optimizer.momentum": (float, 0.0),
    "data.root": (str, ""),
    "data.image_size": (int, 32),
    "data.norm_mean": (float, GRAY_MEAN),
    "data.norm_std": (float, GRAY_STD),
    "data.hflip": (float, 0.5),
    "data.rotate_degrees": (float, 5.0),
    "data.translate": (float, 0.05),
    "data.jitter": (float, 0.05),
    "schedule.days": (int, 10),
    "schedule.n_per_day": (int, 20),
    "schedule.strategy": (str, "global"),
    "schedule.allow_short_final": (_bool, False),
    "protocol.loss": (str, "softmax_ce"),
    "protocol.batch_size": (int, 16),
    "protocol.epochs_per_day": (int, 1),
    "protocol.pretrain_size": (int, 0),
    "protocol.pretrain_epochs": (int, 5),
    "protocol.pretrain_target": (float, 0.70),
    "protocol.checkpoint_every": (int, 25),
    "protocol.seed": (int, 0),
    "detectors.window": (int, 20),
    "detectors.slope_tol": (float, 0.002),
    "detectors.var_tol": (float, 0.0015),
    "detectors.spike_drop": (float, 0.15),
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
        with open(path, "r", encoding="utf-8") as f:
            for ln, line in enumerate(f.read().splitlines(), start=1):
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


def parse_layers(text, image_size):
    """Layer string -> spec list, inferring conv input channels and
    dense input features from shape propagation.

    Tokens: conv:<out>:<kernel>:<stride>:<padding>, relu, pool:<kernel>,
    flatten, dense:<out>.
    """
    shape = (1, image_size, image_size)
    specs = []
    for i, token in enumerate(t.strip() for t in text.split(",")):
        parts = token.split(":")
        name, args = parts[0], parts[1:]
        try:
            if name == "conv":
                out_ch, k = int(args[0]), int(args[1])
                stride = int(args[2]) if len(args) > 2 else 1
                padding = int(args[3]) if len(args) > 3 else 0
                if len(shape) != 3:
                    raise ConfigError(f"layer {i} ({token}): conv needs a [C,H,W] input")
                spec = Conv2dSpec(shape[0], out_ch, k, stride, padding)
            elif name == "relu":
                spec = ReLUSpec()
            elif name == "pool":
                spec = MaxPool2dSpec(int(args[0]))
            elif name == "flatten":
                spec = FlattenSpec()
            elif name == "dense":
                if len(shape) != 1:
                    raise ConfigError(f"layer {i} ({token}): dense needs a flattened input")
                spec = DenseSpec(shape[0], int(args[0]))
            else:
                raise ConfigError(f"layer {i}: unknown layer token {token!r}")
        except (IndexError, ValueError):
            raise ConfigError(f"layer {i}: malformed layer token {token!r}")
        shape = _propagate_shape(i, spec, shape)
        specs.append(spec)
    return specs


def to_experiment_config(effective, seed_override=None) -> ExperimentConfig:
    seed = seed_override if seed_override is not None else effective["protocol.seed"]
    layers = parse_layers(effective["model.layers"], effective["data.image_size"])
    return ExperimentConfig(
        layers=layers,
        image_size=effective["data.image_size"],
        optimizer_kind=effective["optimizer.kind"],
        learning_rate=effective["optimizer.lr"],
        beta1=effective["optimizer.beta1"],
        beta2=effective["optimizer.beta2"],
        epsilon=effective["optimizer.epsilon"],
        momentum=effective["optimizer.momentum"],
        loss_kind=effective["protocol.loss"],
        batch_size=effective["protocol.batch_size"],
        pretrain_size=effective["protocol.pretrain_size"],
        pretrain_epochs=effective["protocol.pretrain_epochs"],
        pretrain_target=effective["protocol.pretrain_target"],
        total_days=effective["schedule.days"],
        n_per_day=effective["schedule.n_per_day"],
        epochs_per_day=effective["protocol.epochs_per_day"],
        strategy=effective["schedule.strategy"],
        allow_short_final=effective["schedule.allow_short_final"],
        augment=AugmentConfig(
            hflip_probability=effective["data.hflip"],
            rotation_degrees=effective["data.rotate_degrees"],
            translate_fraction=effective["data.translate"],
            jitter_fraction=effective["data.jitter"],
        ),
        norm=NormalizationSpec(effective["data.norm_mean"], effective["data.norm_std"]),
        seed=seed,
        checkpoint_every=effective["protocol.checkpoint_every"],
        data_root=effective["data.root"],
    )


def to_detector_config(effective) -> DetectorConfig:
    return DetectorConfig(
        window=effective["detectors.window"],
        slope_tolerance=effective["detectors.slope_tol"],
        variance_tolerance=effective["detectors.var_tol"],
        spike_drop=effective["detectors.spike_drop"],
    )


def write_effective_config(effective, path):
    with replacing_open(path) as f:
        for key in sorted(effective):
            value = effective[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            f.write(f"{key} = {value}\n")
