import math
import os

import numpy as np
import pytest

from daylearn import nn, protocol
from daylearn.config import parse_layers
from daylearn.data import AUG_DRAWS, AugmentConfig, augment_batch, gen_synthetic, manifest_read
from daylearn.errors import ConfigError, UsageError
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


def balanced_items(config, n_per_class=4):
    rng = np.random.default_rng(0)
    items = []
    for k in range(3):
        for _ in range(n_per_class):
            items.append((rng.standard_normal((1, 16, 16)).astype(np.float32), k))
    return items


def test_evaluate_constant_logits_accuracy_third(dataset):
    config = small_config(dataset)
    model = constant_logit_model(config)
    items = balanced_items(config)
    loss, acc = evaluate(model, items, "softmax_ce", 8)
    assert acc == pytest.approx(1 / 3)
    assert loss == pytest.approx(math.log(3), rel=1e-5)


def test_evaluate_deterministic(dataset):
    config = small_config(dataset)
    model = build_model(config)
    items = balanced_items(config)
    a = evaluate(model, items, "softmax_ce", 8)
    b = evaluate(model, items, "softmax_ce", 8)
    assert a == b


def test_evaluate_empty_dataset_rejected(dataset):
    config = small_config(dataset)
    with pytest.raises(UsageError):
        evaluate(build_model(config), [], "softmax_ce", 8)


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
    rel = m.entries[0][0]
    a = cache.tensor(rel)
    b = cache.tensor(rel)
    assert a is b
    assert a.shape == (1, 16, 16)
