import math
import os

import numpy as np
import pytest

from daylearn import nn
from daylearn.config import parse_layers
from daylearn.data import gen_synthetic
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
