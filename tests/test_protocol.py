import math
import os
import shutil

import numpy as np
import pytest

from daylearn import nn, protocol
from daylearn.config import parse_layers
from daylearn.data import (
    AUG_DRAWS, AugmentConfig, augment_batch, gen_synthetic, manifest_read, normalize,
)
from daylearn.errors import ConfigError, DataError, UsageError
from daylearn.metrics import read_metrics
from daylearn.protocol import (
    DatasetCache,
    ExperimentConfig,
    build_model,
    evaluate,
    run_experiment,
)

LAYERS = "conv:8:3:1:1,relu,pool:2,conv:8:3:1:1,relu,pool:2,flatten,dense:3"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    gen_synthetic(3, 40, 16, 0.05, 0, root)
    return str(root)


def small_config(dataset, **kw):
    args = dict(
        layers=parse_layers(LAYERS, 16),
        image_size=16,
        optimizer_kind="adam",
        learning_rate=1e-3,
        loss_kind="softmax_ce",
        batch_size=8,
        total_days=4,
        n_per_day=10,
        epochs_per_day=1,
        strategy="global",
        seed=1,
        checkpoint_every=0,
        data_root=dataset,
    )
    args.update(kw)
    return ExperimentConfig(**args)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def constant_logit_model(config):
    model = build_model(config)
    dense = model.layers[-1]
    dense.w[...] = 0.0
    dense.b[...] = 0.0
    return model


def balanced_split(config, n_per_class=4):
    """(x, labels) of n_per_class random 16x16 images per class."""
    x = np.random.default_rng(0).standard_normal((3 * n_per_class, 1, 16, 16)).astype(np.float32)
    return x, np.repeat(np.arange(3), n_per_class)


def test_evaluate_constant_logits_accuracy_third(dataset):
    config = small_config(dataset)
    model = constant_logit_model(config)
    loss, acc = evaluate(model, *balanced_split(config), "softmax_ce", 8)
    assert acc == pytest.approx(1 / 3)
    assert loss == pytest.approx(math.log(3), rel=1e-5)


def test_evaluate_deterministic(dataset):
    config = small_config(dataset)
    model = build_model(config)
    split = balanced_split(config)
    a = evaluate(model, *split, "softmax_ce", 8)
    b = evaluate(model, *split, "softmax_ce", 8)
    assert a == b


def test_evaluate_empty_dataset_rejected(dataset):
    config = small_config(dataset)
    with pytest.raises(UsageError):
        evaluate(build_model(config), np.empty((0, 1, 16, 16), np.float32), np.empty(0, np.int64),
                 "softmax_ce", 8)


def _evaluate_items(model, items, loss_kind, batch_size):
    """The per-item path `evaluate` replaced: (tensor, label) pairs, one
    np.stack per batch."""
    labels = np.array([label for _, label in items], dtype=np.int64)
    total_loss, correct = 0.0, 0
    for start in range(0, len(items), batch_size):
        batch = range(start, min(start + batch_size, len(items)))
        y = labels[list(batch)]
        logits, pred = nn.predict_batch(model, np.stack([items[i][0] for i in batch]))
        targets = nn.targets_for(loss_kind, y, model.num_classes, dtype=model.dtype)
        loss, _ = nn.loss_forward_backward(loss_kind, logits, targets)
        total_loss += loss * len(batch)
        correct += int((pred == y).sum())
    return total_loss / len(items), correct / len(items)


def test_evaluate_split_array_matches_per_item_path(dataset):
    config = small_config(dataset)
    model = build_model(config)
    split = manifest_read(os.path.join(dataset, "manifest.txt")).subset(range(0, 120, 3))
    x, labels = protocol.load_split(dataset, split, config.norm)
    cache = DatasetCache(dataset, config.norm)
    items = [(normalize(cache.image(rel), config.norm), int(y))
             for (rel, _), y in zip(split.entries, labels)]
    assert x.tobytes() == np.stack([t for t, _ in items]).tobytes()
    for loss_kind in nn.LOSS_KINDS:
        for batch_size in (8, 7, 64):
            got = evaluate(model, x, labels, loss_kind, batch_size)
            assert got == _evaluate_items(model, items, loss_kind, batch_size)


# ---------------------------------------------------------------------------
# run_experiment basics
# ---------------------------------------------------------------------------


def test_run_writes_expected_artifacts(dataset, tmp_path):
    out = tmp_path / "run"
    log = run_experiment(small_config(dataset), out)
    for name in ("metrics.csv", "dayplan.txt", "train.txt", "val.txt", "test.txt",
                 "ckpt_final.bin", "state.txt", "run_meta.txt"):
        assert (out / name).exists()
    seq = [r for r in log.records if r.phase == "sequential"]
    assert len(seq) == 4
    assert all(r.test_acc is not None for r in seq)  # test once per day, last epoch


def test_run_determinism_bitwise(dataset, tmp_path):
    cfg = small_config(dataset, seed=5)
    log1 = run_experiment(cfg, tmp_path / "a")
    log2 = run_experiment(small_config(dataset, seed=5), tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    assert (tmp_path / "a/ckpt_final.bin").read_bytes() == (tmp_path / "b/ckpt_final.bin").read_bytes()
    assert log1.run_id == log2.run_id


def test_step_count_law(dataset, tmp_path):
    cfg = small_config(dataset, total_days=3, n_per_day=10, batch_size=8, epochs_per_day=2)
    run_experiment(cfg, tmp_path / "run")
    _, opt = nn.checkpoint_load(tmp_path / "run/ckpt_final.bin")
    expected = 3 * 2 * math.ceil(10 / 8)
    assert opt.t == expected


def test_pretrain_early_stop_trivial_target(dataset, tmp_path):
    cfg = small_config(dataset, pretrain_size=16, pretrain_epochs=5, pretrain_target=0.0)
    log = run_experiment(cfg, tmp_path / "run")
    pre = [r for r in log.records if r.phase == "pretrain"]
    assert len(pre) == 1  # threshold met trivially after epoch 1
    assert pre[0].day == 0 and pre[0].val_acc is not None


def test_pretrain_epoch_cap(dataset, tmp_path):
    cfg = small_config(dataset, pretrain_size=16, pretrain_epochs=3, pretrain_target=2.0)
    log = run_experiment(cfg, tmp_path / "run")
    pre = [r for r in log.records if r.phase == "pretrain"]
    assert len(pre) == 3  # unreachable target -> cap applies


def test_pretrain_subset_disjoint_from_days(dataset, tmp_path):
    cfg = small_config(dataset, pretrain_size=16, total_days=4, n_per_day=10)
    run_experiment(cfg, tmp_path / "run")
    # the plan draws from the reduced pool: 84 train entries - 16 pretrain = 68 >= 40
    plan_lines = (tmp_path / "run/dayplan.txt").read_text().splitlines()[1:]
    used = [int(t) for line in plan_lines for t in line.split("\t")[1].split(",")]
    assert len(used) == len(set(used)) == 40
    assert max(used) < 84 - 16


def test_strategy_a_day_one_validates_untrained(dataset, tmp_path):
    cfg = small_config(dataset, strategy="prev_curr", total_days=3, n_per_day=10)
    log = run_experiment(cfg, tmp_path / "run")
    day1 = [r for r in log.records if r.phase == "sequential" and r.day == 1]
    assert day1[0].train_loss is None and day1[0].train_acc is None
    assert day1[0].val_acc is not None and day1[0].val_loss is not None


def test_strategy_b_runs_and_trains_day_one(dataset, tmp_path):
    cfg = small_config(dataset, strategy="half_split", total_days=3, n_per_day=10)
    log = run_experiment(cfg, tmp_path / "run")
    day1 = [r for r in log.records if r.phase == "sequential" and r.day == 1]
    assert day1[0].train_loss is not None


def test_validation_split_is_loaded_only_when_read(dataset, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    half = dict(strategy="half_split", total_days=3, n_per_day=10)
    run_experiment(small_config(str(data), **half), tmp_path / "healthy")
    run_experiment(small_config(str(data), pretrain_size=16, **half), tmp_path / "pre_full")
    run_experiment(small_config(str(data), pretrain_size=16, **half), tmp_path / "pre_resumed",
                   stop_after_day=1)
    rel = manifest_read(tmp_path / "healthy" / "val.txt").entries[0][0]
    (data / rel).write_bytes(b"P5\n16 16\n255\n")  # truncated pixel payload

    # half_split without pre-training never reads the global validation split
    run_experiment(small_config(str(data), **half), tmp_path / "corrupt")
    assert (tmp_path / "corrupt/metrics.csv").read_bytes() == (tmp_path / "healthy/metrics.csv").read_bytes()
    # nor does a resumed run, whose pre-training is already done
    run_experiment(small_config(str(data), pretrain_size=16, **half), tmp_path / "pre_resumed", resume=True)
    for name in ("metrics.csv", "ckpt_final.bin"):
        assert (tmp_path / "pre_resumed" / name).read_bytes() == (tmp_path / "pre_full" / name).read_bytes()
    # pre-training on a fresh run and the global strategy do read it
    with pytest.raises(DataError, match="short pixel payload"):
        run_experiment(small_config(str(data), pretrain_size=16, **half), tmp_path / "pre")
    with pytest.raises(DataError, match="short pixel payload"):
        run_experiment(small_config(str(data), total_days=3, n_per_day=10), tmp_path / "global")


def test_class_count_mismatch_rejected(dataset, tmp_path):
    cfg = small_config(dataset, layers=parse_layers(LAYERS.replace("dense:3", "dense:4"), 16))
    with pytest.raises(ConfigError, match="classes"):
        run_experiment(cfg, tmp_path / "run")


def test_demand_exceeding_supply_rejected(dataset, tmp_path):
    cfg = small_config(dataset, total_days=50, n_per_day=10)
    with pytest.raises(ConfigError, match="shortfall"):
        run_experiment(cfg, tmp_path / "run")


# ---------------------------------------------------------------------------
# resume
# ---------------------------------------------------------------------------


def test_resume_tail_matches_uninterrupted(dataset, tmp_path):
    cfg_a = small_config(dataset, total_days=6, seed=9)
    run_experiment(cfg_a, tmp_path / "full")
    cfg_b = small_config(dataset, total_days=6, seed=9)
    run_experiment(cfg_b, tmp_path / "resumed", stop_after_day=3)
    cfg_c = small_config(dataset, total_days=6, seed=9)
    run_experiment(cfg_c, tmp_path / "resumed", resume=True)
    assert (tmp_path / "full/metrics.csv").read_bytes() == (
        tmp_path / "resumed/metrics.csv"
    ).read_bytes()
    assert (tmp_path / "full/ckpt_final.bin").read_bytes() == (
        tmp_path / "resumed/ckpt_final.bin"
    ).read_bytes()


def test_resume_refuses_config_mismatch(dataset, tmp_path):
    run_experiment(small_config(dataset, seed=2), tmp_path / "run", stop_after_day=2)
    other = small_config(dataset, seed=3)
    with pytest.raises(ConfigError, match="hash"):
        run_experiment(other, tmp_path / "run", resume=True)


# ---------------------------------------------------------------------------
# config hash
# ---------------------------------------------------------------------------


def test_config_hash_leaves_out_data_root(dataset):
    assert small_config(dataset).config_hash() == small_config("/moved/elsewhere").config_hash()


def test_config_hash_compares_numbers_by_value(dataset):
    a = small_config(dataset, learning_rate=1.0, split_fractions=(0.7, 0.1, 0.2))
    b = small_config(dataset, learning_rate=1, split_fractions=[0.7, 0.1, 0.2])
    assert a.config_hash() == b.config_hash()


def test_config_hash_sees_nested_and_layer_fields(dataset):
    base = small_config(dataset).config_hash()
    assert small_config(dataset, augment=AugmentConfig(0.4)).config_hash() != base
    other_layers = parse_layers(LAYERS.replace("pool:2,flatten", "relu,pool:2,flatten"), 16)
    assert small_config(dataset, layers=other_layers).config_hash() != base
    assert small_config(dataset, seed=2).config_hash() != base
    # field-free layers differ by type alone
    conv, dense = nn.Conv2dSpec(1, 2, 3, 1, 1), nn.DenseSpec(2 * 16 * 16, 3)
    a = small_config(dataset, layers=[conv, nn.ReLUSpec(), nn.FlattenSpec(), dense])
    b = small_config(dataset, layers=[conv, nn.FlattenSpec(), nn.ReLUSpec(), dense])
    assert a.config_hash() != b.config_hash()


def test_config_hash_is_pinned():
    # the serialization is part of the run-directory format: a change
    # here makes every existing run directory unresumable
    cfg = ExperimentConfig(layers=parse_layers(LAYERS, 16), image_size=16)
    assert cfg.config_hash() == "971d7b406614a880cd47cdb2c6c40bbc8b52bc07e2d8dc403436e8792422e183"


# ---------------------------------------------------------------------------
# augmentation draws
# ---------------------------------------------------------------------------


def test_one_aug_stream_per_epoch(dataset, tmp_path, monkeypatch):
    aug_tags = []
    real = protocol.substream

    def counting(seed, *tags):
        if tags[0] == "aug":
            aug_tags.append(tags[1:])
        return real(seed, *tags)

    monkeypatch.setattr(protocol, "substream", counting)
    cfg = small_config(dataset, pretrain_size=16, pretrain_epochs=2, pretrain_target=2.0,
                       total_days=3, epochs_per_day=2)
    run_experiment(cfg, tmp_path / "run")
    assert aug_tags == [(day, epoch) for day in range(4) for epoch in (1, 2)]


def test_draw_row_belongs_to_the_item_not_its_batch_slot(dataset, monkeypatch):
    cfg = small_config(dataset, batch_size=4)
    cache = DatasetCache(dataset, cfg.norm)
    items = [(rel, 0) for rel, _ in manifest_read(os.path.join(dataset, "manifest.txt")).entries[:10]]
    seen = []

    def recording(pixels, config, draws):
        seen.extend(zip(pixels, draws))
        return augment_batch(pixels, config, draws)

    monkeypatch.setattr(protocol, "augment_image", recording)
    model = build_model(cfg)
    protocol._train_epoch(model, nn.Adam(1e-3), cfg, cache, items, 2, 3)
    table = protocol.substream(cfg.seed, "aug", 2, 3).random((len(items), AUG_DRAWS))
    assert len(seen) == len(items)
    for px, row in seen:
        i = next(i for i, (rel, _) in enumerate(items) if np.array_equal(cache.image(rel).pixels, px))
        assert row.tobytes() == table[i].tobytes()


# ---------------------------------------------------------------------------
# dataset cache
# ---------------------------------------------------------------------------


def test_dataset_cache_loads_once(dataset):
    from daylearn.data import NormalizationSpec, manifest_read

    cache = DatasetCache(dataset, NormalizationSpec())
    m = manifest_read(os.path.join(dataset, "manifest.txt"))
    rels = [rel for rel, _ in m.entries[:3]]
    first = cache.image(rels[0])
    x = cache.stack(rels)
    assert cache.image(rels[0]) is first
    assert x.shape == (3, 1, 16, 16) and x.dtype == np.float32 and x.flags.c_contiguous
    assert x.tobytes() == np.stack([normalize(cache.image(rel)) for rel in rels]).tobytes()
