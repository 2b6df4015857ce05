"""Experiment orchestration: pre-training, the per-day sequential loop,
global-test evaluation, checkpoint cadence, and resume.

All randomness is drawn from substreams keyed by (seed, purpose, day,
epoch). Each training epoch draws one shuffle and one augmentation table
whose row i belongs to the i-th image of the day's training list, which
the day plan fixes; so an interrupted run resumed from a checkpoint
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import nn
from .data import (
    AUG_DRAWS,
    AugmentConfig,
    NormalizationSpec,
    augment_batch as augment_image,  # the name the benchmark tracer wraps
    ingest_directory,
    normalize,
    pgm_read,
    replacing_open,
    split_manifest,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError, UsageError
from .metrics import MetricsRecord, RunLog, CSV_COLUMNS, format_record, read_metrics
from .rng import substream
from .schedule import (
    GLOBAL_HOLDOUT,
    STRATEGIES,
    day_split,
    dayplan_write,
    plan_days,
)


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
    split_fractions: tuple = (0.70, 0.10, 0.20)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    norm: NormalizationSpec = field(default_factory=NormalizationSpec)
    seed: int = 0
    checkpoint_every: int = 25
    data_root: str = ""

    def __post_init__(self):
        if self.batch_size < 1 or self.total_days < 1 or self.n_per_day < 1:
            raise ConfigError("batch_size, total_days and n_per_day must be >= 1")
        if self.epochs_per_day < 1 or self.pretrain_epochs < 1:
            raise ConfigError("epoch counts must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.loss_kind not in nn.LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {nn.LOSS_KINDS}")

    def config_hash(self):
        """sha256 of the config as sorted, compact JSON: nested dataclasses
        flattened to dotted keys, numbers compared by value (1 and 1.0
        agree), and `data_root` left out so a moved dataset still resumes."""
        flat = {}
        _flatten(self, "", flat)
        del flat["data_root"]
        text = json.dumps(flat, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def run_id(self):
        return self.config_hash()[:8]


def _flatten(value, key, out):
    """Flatten `value` into `out` as dotted key -> plain JSON value. Items
    of a list of dataclasses (the layer specs) also record their type."""
    if is_dataclass(value):
        for f in fields(value):
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


def build_model(config: ExperimentConfig, dtype=np.float32):
    shape = (1, config.image_size, config.image_size)
    return nn.Model(config.layers, shape, seed=config.seed, dtype=dtype)


class DatasetCache:
    """Loads PGM files once; serves raw images and normalized tensors."""

    def __init__(self, root, norm: NormalizationSpec):
        self.root = root
        self.norm = norm
        self._images = {}
        self._tensors = {}

    def image(self, rel_path):
        if rel_path not in self._images:
            self._images[rel_path] = pgm_read(os.path.join(self.root, rel_path))
        return self._images[rel_path]

    def tensor(self, rel_path):
        if rel_path not in self._tensors:
            self._tensors[rel_path] = normalize(self.image(rel_path), self.norm)
        return self._tensors[rel_path]


def _batches(n, batch_size):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def evaluate(model, items, loss_kind, batch_size):
    """(mean loss, accuracy) over (tensor, label) pairs; no augmentation."""
    if not items:
        raise UsageError("cannot evaluate on an empty dataset")
    total_loss = 0.0
    correct = 0
    labels = np.array([label for _, label in items], dtype=np.int64)
    for batch in _batches(len(items), batch_size):
        x = np.stack([items[i][0] for i in batch])
        y = labels[list(batch)]
        logits, pred = nn.predict_batch(model, x)
        targets = nn.targets_for(loss_kind, y, model.num_classes, dtype=model.dtype)
        loss, _ = nn.loss_forward_backward(loss_kind, logits, targets)
        total_loss += loss * len(batch)
        correct += int((pred == y).sum())
    return total_loss / len(items), correct / len(items)


def _train_epoch(model, optimizer, config, cache, items, day, epoch):
    """One seeded pass over (rel_path, label) items; returns (loss, acc, steps)."""
    order = substream(config.seed, "shuffle", day, epoch).permutation(len(items))
    draws = substream(config.seed, "aug", day, epoch).random((len(items), AUG_DRAWS))
    labels = np.array([label for _, label in items], dtype=np.int64)
    total_loss = 0.0
    correct = 0
    steps = 0
    for batch in _batches(len(items), config.batch_size):
        picked = order[batch.start : batch.stop]
        pixels = np.stack([cache.image(items[i][0]).pixels for i in picked])
        x = normalize(augment_image(pixels, config.augment, draws[picked]), config.norm, dtype=model.dtype)
        y = labels[picked]
        logits = model.forward(x)
        targets = nn.targets_for(config.loss_kind, y, model.num_classes, dtype=model.dtype)
        loss, glogits = nn.loss_forward_backward(config.loss_kind, logits, targets)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss on day {day}, epoch {epoch}")
        model.backward(glogits, input_grad=False)
        optimizer.step([p for _, p in model.parameters()], model.gradients())
        total_loss += loss * len(batch)
        correct += int((np.argmax(logits, axis=1) == y).sum())
        steps += 1
    return total_loss / len(items), correct / len(items), steps


def run_day(model, optimizer, config, cache, train_items, val_items, day):
    """Day-epochs over one day's training set plus per-epoch validation.

    train_items: list of (rel_path, label); may be empty (strategy A
    day 1: zero steps, validation still runs).
    val_items: list of (tensor, label).
    Returns (records, steps).
    """
    records = []
    total_steps = 0
    for epoch in range(1, config.epochs_per_day + 1):
        train_loss = train_acc = None
        if train_items:
            train_loss, train_acc, steps = _train_epoch(
                model, optimizer, config, cache, train_items, day, epoch
            )
            total_steps += steps
        val_loss, val_acc = evaluate(model, val_items, config.loss_kind, config.batch_size)
        records.append(
            MetricsRecord(
                day=day,
                epoch=epoch,
                phase="sequential",
                train_loss=train_loss,
                train_acc=train_acc,
                val_loss=val_loss,
                val_acc=val_acc,
            )
        )
    return records, total_steps


def pretrain(model, optimizer, config, cache, subset_items, val_items):
    """Epoch-capped pre-training with early stop at the target accuracy."""
    if not subset_items:
        raise ConfigError("pre-training subset is empty")
    records = []
    for epoch in range(1, config.pretrain_epochs + 1):
        train_loss, train_acc, _ = _train_epoch(
            model, optimizer, config, cache, subset_items, 0, epoch
        )
        val_loss, val_acc = evaluate(model, val_items, config.loss_kind, config.batch_size)
        records.append(
            MetricsRecord(
                day=0,
                epoch=epoch,
                phase="pretrain",
                train_loss=train_loss,
                train_acc=train_acc,
                val_loss=val_loss,
                val_acc=val_acc,
            )
        )
        if val_acc >= config.pretrain_target:
            break
    return records


# ---------------------------------------------------------------------------
# Full experiment with checkpoint/resume
# ---------------------------------------------------------------------------

_STATE_FILE = "state.txt"
_METRICS_FILE = "metrics.csv"
_DAYPLAN_FILE = "dayplan.txt"
_FINAL_CKPT = "ckpt_final.bin"


def _write_state(out_dir, config_hash, last_day, ckpt_name):
    with replacing_open(os.path.join(out_dir, _STATE_FILE)) as f:
        f.write(f"config_hash={config_hash}\n")
        f.write(f"last_day={last_day}\n")
        f.write(f"checkpoint={ckpt_name}\n")


def _read_state(out_dir):
    path = os.path.join(out_dir, _STATE_FILE)
    try:
        with open(path, "r", encoding="utf-8") as f:
            kv = dict(line.partition("=")[::2] for line in f.read().splitlines())
        return kv["config_hash"], int(kv["last_day"]), kv["checkpoint"]
    except (KeyError, ValueError):  # UnicodeDecodeError is a ValueError
        raise CheckpointError(
            f"corrupt run state {path}: needs config_hash, integer last_day and checkpoint"
        ) from None


class _CsvWriter:
    """Appends formatted metric rows; supports replay for resume."""

    def __init__(self, path, run_id):
        self.path = path
        self.run_id = run_id

    def start(self, kept_rows):
        with replacing_open(self.path) as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for row in kept_rows:
                f.write(row + "\n")

    def append(self, records):
        with open(self.path, "a", encoding="utf-8", newline="\n") as f:
            for rec in records:
                f.write(format_record(self.run_id, rec) + "\n")


def _split_and_manifests(config, out_dir):
    manifest = ingest_directory(config.data_root)
    if len(manifest.class_names) < 2:
        raise DataError("training needs at least 2 classes")
    train_m, val_m, test_m = split_manifest(
        manifest, fractions=config.split_fractions, seed=config.seed, out_dir=out_dir
    )
    return train_m, val_m, test_m


def _eval_items(cache, manifest):
    labels = manifest.labels_as_indices()
    return [(cache.tensor(rel), int(labels[i])) for i, (rel, _) in enumerate(manifest.entries)]


def run_experiment(config: ExperimentConfig, out_dir, resume=False, stop_after_day=None):
    """Split -> optional pretrain -> day loop -> per-day test evaluation.

    Writes metrics.csv, dayplan.txt, manifests, checkpoints, state.txt and
    run_meta.txt under out_dir. Returns the RunLog. stop_after_day ends the
    run early with a checkpoint so it can be resumed.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not config.data_root:
        raise ConfigError("config.data_root is required")
    t0 = time.time()
    cfg_hash = config.config_hash()
    run_id = config.run_id()

    train_m, val_m, test_m = _split_and_manifests(config, out_dir)
    cache = DatasetCache(config.data_root, config.norm)

    labels_all = train_m.labels_as_indices()

    # pre-training subset is carved out before day planning
    if config.pretrain_size > 0:
        if config.pretrain_size > len(train_m):
            raise ConfigError(
                f"pretrain_size {config.pretrain_size} exceeds train split {len(train_m)}"
            )
        perm = substream(config.seed, "pretrain_subset").permutation(len(train_m))
        subset_idx = sorted(int(i) for i in perm[: config.pretrain_size])
        rest_idx = sorted(int(i) for i in perm[config.pretrain_size :])
    else:
        subset_idx = []
        rest_idx = list(range(len(train_m)))

    plan = plan_days(
        len(rest_idx),
        config.n_per_day,
        config.total_days,
        config.seed,
        allow_short_final=config.allow_short_final,
    )
    dayplan_write(plan, os.path.join(out_dir, _DAYPLAN_FILE))

    def day_items(indices):
        # (rel_path, label) per train-manifest index
        return [(train_m.entries[i][0], int(labels_all[i])) for i in indices]

    val_items = _eval_items(cache, val_m)
    test_items = _eval_items(cache, test_m)

    csv = _CsvWriter(os.path.join(out_dir, _METRICS_FILE), run_id)
    log = RunLog(run_id)
    total_steps = 0
    start_day = 1

    if resume:
        saved_hash, last_day, ckpt_name = _read_state(out_dir)
        if saved_hash != cfg_hash:
            raise ConfigError(
                "resume refused: config hash does not match the run directory; "
                "the directory may also predate the canonical config hash, "
                "and such a directory cannot be resumed"
            )
        model, optimizer = nn.checkpoint_load(os.path.join(out_dir, ckpt_name))
        # a row torn by a kill mid-append is newer than state.txt: drop it
        old = read_metrics(os.path.join(out_dir, _METRICS_FILE), drop_unterminated=True)
        kept = [r for r in old.records if r.phase == "pretrain" or r.day <= last_day]
        log.records.extend(kept)
        csv.start([format_record(run_id, r) for r in kept])
        start_day = last_day + 1
    else:
        model = build_model(config)
        if model.num_classes != len(train_m.class_names):
            raise ConfigError(
                f"model emits {model.num_classes} logits but the dataset has "
                f"{len(train_m.class_names)} classes"
            )
        optimizer = nn.make_optimizer(
            config.optimizer_kind,
            config.learning_rate,
            beta1=config.beta1,
            beta2=config.beta2,
            epsilon=config.epsilon,
            momentum=config.momentum,
        )
        csv.start([])
        if subset_idx:
            pre_records = pretrain(
                model, optimizer, config, cache, day_items(subset_idx), val_items
            )
            log.records.extend(pre_records)
            csv.append(pre_records)

    for day in range(start_day, len(plan) + 1):
        prev_batch = plan.batch(day - 1) if day > 1 else None
        curr_batch = plan.batch(day)
        train_idx, val_idx = day_split(config.strategy, day, prev_batch, curr_batch, config.seed)
        train_items = day_items(rest_idx[i] for i in train_idx)
        if val_idx is None:
            day_val_items = val_items
        else:
            day_val_items = [
                (cache.tensor(rel), label) for rel, label in day_items(rest_idx[i] for i in val_idx)
            ]
        records, steps = run_day(model, optimizer, config, cache, train_items, day_val_items, day)
        total_steps += steps
        test_loss, test_acc = evaluate(model, test_items, config.loss_kind, config.batch_size)
        records[-1].test_loss = test_loss
        records[-1].test_acc = test_acc
        log.records.extend(records)
        csv.append(records)

        at_cadence = config.checkpoint_every > 0 and day % config.checkpoint_every == 0
        stopping = stop_after_day is not None and day >= stop_after_day
        if at_cadence or stopping or day == len(plan):
            ckpt_name = f"ckpt_day_{day:05d}.bin"
            nn.checkpoint_save(model, optimizer, os.path.join(out_dir, ckpt_name))
            _write_state(out_dir, cfg_hash, day, ckpt_name)
        if stopping:
            _write_meta(out_dir, config, t0, total_steps, interrupted_at=day)
            return log

    nn.checkpoint_save(model, optimizer, os.path.join(out_dir, _FINAL_CKPT))
    _write_state(out_dir, cfg_hash, len(plan), _FINAL_CKPT)
    _write_meta(out_dir, config, t0, total_steps)
    return log


def _write_meta(out_dir, config, t0, total_steps, interrupted_at=None):
    # wall-clock lives only here; metrics/checkpoints stay byte-deterministic
    lines = [
        f"run_id={config.run_id()}",
        f"config_hash={config.config_hash()}",
        f"seed={config.seed}",
        f"total_optimizer_steps={total_steps}",
        f"wall_clock_seconds={time.time() - t0:.3f}",
        "note=strategy B trains each day on half of the current day plus the half "
        "of the previous day that was held out for validation",
    ]
    if interrupted_at is not None:
        lines.append(f"interrupted_after_day={interrupted_at}")
    with replacing_open(os.path.join(out_dir, "run_meta.txt")) as f:
        f.write("\n".join(lines) + "\n")
