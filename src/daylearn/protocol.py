"""Experiment orchestration: pre-training, the per-day sequential loop,
global-test evaluation, checkpoint cadence, and resume.

`run_experiment` owns the run directory, whoever calls it: it makes and
locks it, and records the run's `ExperimentConfig` as effective_config.cfg.
This module alone knows the directory's files: `run_config` reads a run's
config back, `read_log` its metrics and `read_state` its resume point.

All randomness is drawn from substreams keyed by (seed, purpose, day,
epoch). Each training epoch draws one shuffle and one augmentation table
whose row i belongs to the i-th image of the day's training list, which
the day plan fixes; so an interrupted run resumed from a checkpoint
reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import dataclasses
import fcntl
import os
import time
from contextlib import ExitStack
from itertools import islice

import numpy as np

from . import nn
from .config import ExperimentConfig, format_config, load_effective_config, to_experiment_config
from .data import (
    AUG_DRAWS,
    augment_batch as augment_image,  # the name the benchmark tracer wraps
    ingest_directory,
    normalize,
    pgm_read,
    read_text,
    replacing_open,
    split_manifest,
    splits_check,
    splits_write,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError, UsageError
from .metrics import MetricsRecord, RunLog, append_metrics, read_metrics, write_metrics
from .rng import substream
from .schedule import GLOBAL_HOLDOUT, day_splits, dayplan_write, plan_days


def build_model(config: ExperimentConfig):
    shape = (1, config.image_size, config.image_size)
    return nn.Model(config.layers, shape, seed=config.seed)


class DatasetCache:
    """The images of one split: one uint8 (N, H, W) stack whose row i is
    manifest entry i, each row decoded on first use, plus the entries'
    class indices as `labels`."""

    def __init__(self, root, manifest, shape):
        self.root = root
        self.paths = [rel for rel, _ in manifest.entries]
        self.labels = manifest.labels_as_indices()
        self.pixels = np.empty((len(self.paths),) + tuple(shape), dtype=np.uint8)
        self.loaded = np.zeros(len(self.paths), dtype=bool)

    def take(self, rows):
        """pixels[rows], decoding the rows not loaded yet; DataError for an
        image that is not `shape` (height, width) pixels, as every image of
        a run must be."""
        rows = np.asarray(rows, dtype=np.intp)
        h, w = self.pixels.shape[1:]
        for i in rows[~self.loaded[rows]].tolist():
            image = pgm_read(os.path.join(self.root, self.paths[i]))
            if image.pixels.shape != (h, w):
                raise DataError(f"{self.paths[i]}: image is {image.width}x{image.height}, expected {w}x{h}")
            self.pixels[i] = image.pixels
            self.loaded[i] = True
        return self.pixels[rows]


def load_split(root, manifest, norm, shape):
    """An evaluation split of `shape` (height, width) images as (x, labels):
    every image decoded once, normalized into one [N, 1, H, W] float32
    array."""
    if not manifest.entries:
        raise UsageError("cannot evaluate on an empty dataset")
    cache = DatasetCache(root, manifest, shape)
    return normalize(cache.take(np.arange(len(manifest))), norm), cache.labels


def _batches(n, batch_size):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def evaluate(model, x, labels, loss_kind, batch_size):
    """(mean loss, accuracy) over an [N, 1, H, W] array and its N integer
    labels, in batches that are views of `x`; no augmentation."""
    n = len(x)
    if n == 0:
        raise UsageError("cannot evaluate on an empty dataset")
    if batch_size < 1:
        raise UsageError(f"batch size must be >= 1, got {batch_size}")
    if x.shape[1:] != model.input_shape:
        raise DataError(f"images of shape {x.shape[1:]} for a model that takes {model.input_shape}")
    total_loss = 0.0
    correct = 0
    for batch in _batches(n, batch_size):
        y = labels[batch.start : batch.stop]
        logits, pred = nn.predict_batch(model, x[batch.start : batch.stop])
        loss, _ = nn.loss_forward_backward(loss_kind, logits, y)
        total_loss += loss * len(batch)
        correct += int((pred == y).sum())
    return total_loss / n, correct / n


def _train_epoch(model, optimizer, config, cache, items, day, epoch):
    """One seeded pass over the `cache` rows `items`; returns (loss, acc)."""
    order = substream(config.seed, "shuffle", day, epoch).permutation(len(items))
    draws = substream(config.seed, "aug", day, epoch).random((len(items), AUG_DRAWS))
    total_loss = 0.0
    correct = 0
    for batch in _batches(len(items), config.batch_size):
        picked = order[batch.start : batch.stop]
        rows = items[picked]
        pixels = augment_image(cache.take(rows), config.augment, draws[picked])
        x = normalize(pixels, config.norm, dtype=model.dtype)
        y = cache.labels[rows]
        logits = model.forward(x)
        loss, glogits = nn.loss_forward_backward(config.loss_kind, logits, y)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite training loss on day {day}, epoch {epoch}")
        model.backward(glogits, input_grad=False)
        optimizer.step([p for _, p in model.parameters()], model.gradients())
        total_loss += loss * len(batch)
        correct += int((np.argmax(logits, axis=1) == y).sum())
    return total_loss / len(items), correct / len(items)


def _run_epochs(model, optimizer, config, cache, items, val_items, day, epochs, target=None):
    """Up to `epochs` epochs: each trains on the rows `items` when there are any,
    validates on `val_items` and records a row; the loop stops after the
    epoch whose val_acc reaches `target`, when one is given. Day 0 is
    pre-training. Returns the records."""
    records = []
    for epoch in range(1, epochs + 1):
        train_loss = train_acc = None
        if len(items):
            train_loss, train_acc = _train_epoch(model, optimizer, config, cache, items, day, epoch)
        val_loss, val_acc = evaluate(model, *val_items, config.loss_kind, config.batch_size)
        phase = "pretrain" if day == 0 else "sequential"
        records.append(MetricsRecord(day, epoch, phase, train_loss, train_acc, val_loss, val_acc))
        if target is not None and val_acc >= target:
            break
    return records


def run_day(model, optimizer, config, cache, train_items, val_items, day):
    """Day-epochs over one day's training set plus per-epoch validation.

    train_items: int array of rows of `cache`; may be empty (strategy A
    day 1: zero steps, validation still runs).
    val_items: (x, labels) as `evaluate` takes them.
    """
    return _run_epochs(
        model, optimizer, config, cache, train_items, val_items, day, config.epochs_per_day
    )


def pretrain(model, optimizer, config, cache, subset_items, val_items):
    """Epoch-capped pre-training with early stop at the target accuracy.
    subset_items: int array of rows of `cache`.
    val_items: (x, labels) as `evaluate` takes them."""
    if not len(subset_items):
        raise ConfigError("pre-training subset is empty")
    return _run_epochs(
        model, optimizer, config, cache, subset_items, val_items, 0,
        config.pretrain_epochs, config.pretrain_target,
    )


# ---------------------------------------------------------------------------
# Full experiment with checkpoint/resume
# ---------------------------------------------------------------------------

_METRICS_FILE = "metrics.csv"
_CONFIG_FILE = "effective_config.cfg"
_STATE_FILE = "state.txt"
_DAYPLAN_FILE = "dayplan.txt"
_FINAL_CKPT = "ckpt_final.bin"
_LOCK_NAME = "lock"


def run_config(run_dir=None, path=None, overrides=()) -> ExperimentConfig:
    """The config of a command on the run in `run_dir`: defaults < its
    effective_config.cfg, if it has one < DAYLEARN_* environment < the `path`
    file < `overrides`. A fresh run passes no `run_dir`, so it reads no record."""
    record = None if run_dir is None else os.path.join(run_dir, _CONFIG_FILE)
    base = load_effective_config(record, env={}) if record and os.path.exists(record) else None
    return to_experiment_config(load_effective_config(path, overrides, base=base))


def read_log(run_dir):
    """`run_dir`'s metrics.csv as a RunLog, less a last row torn by a kill mid-append."""
    return read_metrics(os.path.join(run_dir, _METRICS_FILE))


def _acquire_lock(out):
    """Hold an exclusive flock on `out`/lock; return its descriptor.

    The kernel drops the lock when its holder exits, however it exits, so
    a killed run never blocks the next one. The file itself is never
    removed and means nothing without a holder: unlinking it would let one
    invocation lock the old inode and another a new one. O_RDWR because
    NFS emulates flock with POSIX locks, which need a writable descriptor.
    """
    fd = os.open(os.path.join(out, _LOCK_NAME), os.O_RDWR | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as e:
        os.close(fd)
        if isinstance(e, BlockingIOError):
            raise UsageError(f"run directory {out} is locked by another invocation") from None
        raise
    return fd


def _write_state(out_dir, config_hash, last_day, ckpt_name):
    with replacing_open(os.path.join(out_dir, _STATE_FILE)) as f:
        f.write(f"config_hash={config_hash}\n")
        f.write(f"last_day={last_day}\n")
        f.write(f"checkpoint={ckpt_name}\n")


def read_state(out_dir, config):
    """(last_day, model, optimizer, records) as `out_dir`/state.txt names them:
    the day, its checkpoint and the metrics rows up to it, pre-training's day 0
    included. None without a state.txt, whose run has no checkpoint and starts
    from day 1. Refuses a state of another config, or a last_day outside its days."""
    path = os.path.join(out_dir, _STATE_FILE)
    try:
        kv = dict(line.partition("=")[::2] for line in read_text(path, CheckpointError).splitlines())
        saved_hash, last_day, ckpt_name = kv["config_hash"], int(kv["last_day"]), kv["checkpoint"]
    except FileNotFoundError:
        return None
    except (KeyError, ValueError):
        raise CheckpointError(
            f"corrupt run state {path}: needs config_hash, integer last_day and checkpoint"
        ) from None
    if saved_hash != config.config_hash():
        raise ConfigError(
            "resume refused: config hash does not match the run directory; "
            "the directory may also predate the canonical config hash, "
            "and such a directory cannot be resumed"
        )
    if not 1 <= last_day <= config.total_days:
        raise CheckpointError(
            f"corrupt run state {path}: last_day {last_day} outside days 1-{config.total_days}"
        )
    model, optimizer = nn.checkpoint_load(os.path.join(out_dir, ckpt_name))
    return last_day, model, optimizer, [r for r in read_log(out_dir).records if r.day <= last_day]


def run_experiment(config: ExperimentConfig, out_dir, resume=False, stop_after_day=None):
    """Split -> optional pretrain -> day loop -> per-day test evaluation.

    The only writer of out_dir: locks it (flock on out_dir/lock, UsageError
    when held) before its first read, or a new one as it makes it, and reads
    all it needs before its first write: state.txt, the checkpoint and
    metrics.csv on resume, the data.root split and the evaluation splits. So a
    refused run creates no out_dir and leaves an existing one as it was, bar
    an empty lock. A fresh run then removes effective_config.cfg and then
    state.txt, and the run writes effective_config.cfg (`format_config` of
    `config`, with data_root made absolute), the manifests,
    dayplan.txt, metrics.csv, checkpoints, state.txt and run_meta.txt.
    Returns the RunLog. A resume goes on from the day after the one state.txt
    names, on the split its manifests record; with no state.txt it starts
    from day 1. stop_after_day (>= 1) ends the run early with a checkpoint.
    """
    if not config.data_root:
        raise ConfigError("a data root is required (config key 'data.root')")
    if stop_after_day is not None and stop_after_day < 1:
        raise UsageError(f"stop_after_day must be >= 1, got {stop_after_day}")
    with ExitStack() as held:  # closes the lock's descriptor on every exit
        new_dir = not os.path.exists(out_dir)
        if not new_dir:  # locked before its first read
            held.callback(os.close, _acquire_lock(out_dir))
        t0 = time.time()
        cfg_hash = config.config_hash()
        run_id = cfg_hash[:8]
        state = read_state(out_dir, config) if resume else None
        last_day, model, optimizer, records = state or (0, None, None, [])

        manifest = ingest_directory(config.data_root)
        if len(manifest.class_names) < 2:
            raise DataError("training needs at least 2 classes")
        # from the layer specs, before the first write: building the model here,
        # not after the splits load, measured 15-29% slower cli_resume_ckpt set-up
        (logits,) = nn.output_shape(config.layers, (1, config.image_size, config.image_size))
        if logits != len(manifest.class_names):
            raise ConfigError(
                f"model emits {logits} logits but the dataset has {len(manifest.class_names)} classes"
            )
        train_m, val_m, test_m = splits = split_manifest(manifest, seed=config.seed)
        if state is not None:  # the days done trained on the split the directory records
            splits_check(splits, out_dir)
        shape = (config.image_size, config.image_size)
        cache = DatasetCache(config.data_root, train_m, shape)

        # the pre-training rows are carved out first and the day plan shuffles
        # the rest; with pretrain_size 0 the rest is every row of the train split
        if config.pretrain_size > len(train_m):
            raise ConfigError(f"pretrain_size {config.pretrain_size} exceeds train split {len(train_m)}")
        perm = substream(config.seed, "pretrain_subset").permutation(len(train_m))
        subset_idx = np.sort(perm[: config.pretrain_size])
        rest_idx = np.sort(perm[config.pretrain_size :])

        days = plan_days(rest_idx, config.n_per_day, config.total_days, config.seed,
                         allow_short_final=config.allow_short_final)
        daily_splits = day_splits(config.strategy, days, config.seed)

        # the global validation split is read only by pre-training, which a run
        # with a state has done, and by the global strategy; a run that needs
        # neither never loads it
        reads_val = (len(subset_idx) > 0 and state is None) or config.strategy == GLOBAL_HOLDOUT
        val_split = load_split(config.data_root, val_m, config.norm, shape) if reads_val else None
        test_split = load_split(config.data_root, test_m, config.norm, shape)

        metrics_path = os.path.join(out_dir, _METRICS_FILE)
        if new_dir:  # made at the start of the write phase, so a refused run leaves none
            try:
                os.makedirs(out_dir)
            except FileExistsError:
                raise UsageError(f"run directory {out_dir} was made by another invocation") from None
            held.callback(os.close, _acquire_lock(out_dir))
        if not resume:
            # a fresh run over an old one: a kill before its first checkpoint must
            # leave neither the old state.txt for a resume to trust nor the old
            # record for it to read. The record goes first, so a kill between the
            # two leaves the old state alone, which a resume of another config refuses
            for name in (_CONFIG_FILE, _STATE_FILE):
                try:
                    os.remove(os.path.join(out_dir, name))
                except FileNotFoundError:
                    pass
        with replacing_open(os.path.join(out_dir, _CONFIG_FILE)) as f:
            f.write(format_config(dataclasses.replace(config, data_root=os.path.abspath(config.data_root))))
        splits_write(splits, out_dir)
        dayplan_write(days, config.n_per_day, os.path.join(out_dir, _DAYPLAN_FILE))

        if state is None:
            model, optimizer = build_model(config), config.make_optimizer()
            if len(subset_idx):
                records = pretrain(model, optimizer, config, cache, subset_idx, val_split)
        log = RunLog(run_id, records)
        write_metrics(log, metrics_path)

        # the days before a resume's first are drawn and skipped
        for day, (train_rows, val_rows) in islice(enumerate(daily_splits, start=1), last_day, None):
            if val_rows is None:
                day_val = val_split
            else:
                day_val = (normalize(cache.take(val_rows), config.norm), cache.labels[val_rows])
            records = run_day(model, optimizer, config, cache, train_rows, day_val, day)
            test_loss, test_acc = evaluate(model, *test_split, config.loss_kind, config.batch_size)
            records[-1].test_loss = test_loss
            records[-1].test_acc = test_acc
            log.records.extend(records)
            append_metrics(run_id, records, metrics_path)

            at_cadence = config.checkpoint_every > 0 and day % config.checkpoint_every == 0
            stopping = stop_after_day is not None and day >= stop_after_day
            if at_cadence or stopping:
                ckpt_name = f"ckpt_day_{day:05d}.bin"
                nn.checkpoint_save(model, optimizer, os.path.join(out_dir, ckpt_name))
                _write_state(out_dir, cfg_hash, day, ckpt_name)
            if stopping:
                _write_meta(out_dir, config, run_id, cfg_hash, t0, optimizer.t, interrupted_at=day)
                return log

        nn.checkpoint_save(model, optimizer, os.path.join(out_dir, _FINAL_CKPT))
        _write_state(out_dir, cfg_hash, len(days), _FINAL_CKPT)
        _write_meta(out_dir, config, run_id, cfg_hash, t0, optimizer.t)
        return log


def _write_meta(out_dir, config, run_id, cfg_hash, t0, optimizer_steps, interrupted_at=None):
    # wall-clock lives only here; metrics/checkpoints stay byte-deterministic
    lines = [
        f"run_id={run_id}",
        f"config_hash={cfg_hash}",
        f"seed={config.seed}",
        f"total_optimizer_steps={optimizer_steps}",
        f"wall_clock_seconds={time.time() - t0:.3f}",
    ]
    if interrupted_at is not None:
        lines.append(f"interrupted_after_day={interrupted_at}")
    with replacing_open(os.path.join(out_dir, "run_meta.txt")) as f:
        f.write("\n".join(lines) + "\n")
