"""Acceptance suite: one pass/fail line per criterion on the terminal.

Run with `pytest tests/test_acceptance.py -v`; the ACCEPTANCE lines are
printed with capture suspended so they reach the terminal.
"""

import math
import statistics
import time

import numpy as np
import pytest

from daylearn import data, nn
from daylearn.cli import dispatch
from daylearn.config import parse_layers
from daylearn.data import AUGMENT_OFF, augment, gen_synthetic, build_rotated_dataset
from daylearn.metrics import (
    DetectorConfig,
    MetricsRecord,
    RunLog,
    plateau_detect,
    read_metrics,
    spike_detect,
    write_metrics,
)
from daylearn.protocol import ExperimentConfig, run_experiment
from daylearn.rng import substream

LAYERS_32 = "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3"


@pytest.fixture
def report(capsys):
    # one line per criterion on the real terminal, bypassing capture
    def _report(num, ok, detail=""):
        line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def first_test_crossing(log, thresh=0.90):
    by_day = {r.day: r.test_acc for r in log.records
              if r.phase == "sequential" and r.test_acc is not None}
    for d in sorted(by_day):
        if by_day[d] >= thresh:
            return d
    return None


def first_val_crossing(log, thresh=0.90):
    # day-local validation accuracy at each day's final epoch
    by_day = {}
    for r in log.records:
        if r.phase == "sequential" and r.val_acc is not None:
            by_day[r.day] = r.val_acc
    for d in sorted(by_day):
        if by_day[d] >= thresh:
            return d
    return None


@pytest.fixture(scope="module")
def synth3(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_synth3")
    gen_synthetic(3, 300, 32, 0.05, 0, root)
    return root


@pytest.fixture(scope="module")
def rotated(tmp_path_factory):
    src = tmp_path_factory.mktemp("accept_rot_src")
    m = gen_synthetic(2, 800, 32, 0.05, 0, src)
    keep = [i for i, (_, lab) in enumerate(m.entries) if lab == "c0"]
    out = tmp_path_factory.mktemp("accept_rot")
    build_rotated_dataset(m.subset(keep), src, out, seed=0)
    return out


def exp_config(root, **kw):
    args = dict(
        layers=parse_layers(LAYERS_32, 32),
        image_size=32,
        optimizer_kind="adam",
        learning_rate=1e-3,
        loss_kind="softmax_ce",
        batch_size=16,
        total_days=10,
        n_per_day=20,
        epochs_per_day=1,
        strategy="global",
        seed=1,
        checkpoint_every=0,
        data_root=str(root),
    )
    args.update(kw)
    return ExperimentConfig(**args)


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness(report):
    specs = [
        nn.Conv2dSpec(1, 2, 3, 1, 1),
        nn.ReLUSpec(),
        nn.MaxPool2dSpec(2),
        nn.Conv2dSpec(2, 3, 3, 1, 0),
        nn.ReLUSpec(),
        nn.FlattenSpec(),
        nn.DenseSpec(3 * 2 * 2, 3),
    ]
    t0 = time.time()
    worst = 0.0
    for loss_kind in nn.LOSS_KINDS:
        for seed in range(20):
            model = nn.Model(specs, (1, 8, 8), seed=seed, dtype=np.float64)
            rng = substream(seed, "accept-grad", loss_kind)
            x = rng.standard_normal((4, 1, 8, 8))
            y = rng.integers(0, 3, size=4)
            for item in nn.grad_check_model(model, x, y, loss_kind, h=1e-6, tol=1e-5):
                worst = max(worst, item["max_rel_err"])
    elapsed = time.time() - t0
    report(1, worst < 1e-5 and elapsed < 60,
           f"max rel err {worst:.3g} (tol 1e-5), {elapsed:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 2. Determinism of the CLI run
# ---------------------------------------------------------------------------


def test_criterion_2_run_determinism(synth3, tmp_path, report):
    argv = ["run", "--seed", "11", f"--data.root={synth3}",
            f"--model.layers={LAYERS_32}",
            "--schedule.days=6", "--schedule.n_per_day=20",
            "--protocol.checkpoint_every=0"]
    t0 = time.time()
    assert dispatch(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert dispatch(argv + ["--out", str(tmp_path / "r2")]) == 0
    elapsed = time.time() - t0
    same_csv = (tmp_path / "r1/metrics.csv").read_bytes() == (tmp_path / "r2/metrics.csv").read_bytes()
    same_ckpt = (tmp_path / "r1/ckpt_final.bin").read_bytes() == (tmp_path / "r2/ckpt_final.bin").read_bytes()
    report(2, same_csv and same_ckpt and elapsed < 300,
           f"csv identical={same_csv}, checkpoint identical={same_ckpt}, {elapsed:.1f}s (limit 300s)")


# ---------------------------------------------------------------------------
# 3. Experiment-1 analog: pre-training reaches the threshold sooner
# ---------------------------------------------------------------------------


def test_criterion_3_pretraining_crosses_sooner(synth3, tmp_path, report):
    t0 = time.time()
    crossings = {"A": [], "B": []}
    reached = True
    for variant, pre, days in (("A", 60, 25), ("B", 0, 28)):
        for seed in (1, 2, 3):
            cfg = exp_config(synth3, pretrain_size=pre, pretrain_epochs=5,
                             pretrain_target=0.70, total_days=days, seed=seed)
            log = run_experiment(cfg, tmp_path / f"run{variant}{seed}")
            fc = first_test_crossing(log)
            if fc is None:
                reached = False
                fc = days + 1
            crossings[variant].append(fc)
    med_a = statistics.median(crossings["A"])
    med_b = statistics.median(crossings["B"])
    elapsed = time.time() - t0
    report(3, reached and med_a < med_b and elapsed < 600,
           f"median first day >=90% test acc: pretrain {med_a}, scratch {med_b}; "
           f"all runs crossed={reached}; {elapsed:.0f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 4. Experiment-2 analog: half-split validation crosses sooner
# ---------------------------------------------------------------------------


def test_criterion_4_half_split_crosses_sooner(rotated, tmp_path, report):
    t0 = time.time()
    crossings = {}
    for strat in ("prev_curr", "half_split"):
        cs = []
        for seed in (1, 2, 3):
            cfg = exp_config(rotated, total_days=10, n_per_day=50,
                             epochs_per_day=10, strategy=strat, seed=seed)
            log = run_experiment(cfg, tmp_path / f"run_{strat}_{seed}")
            fc = first_val_crossing(log)
            cs.append(fc if fc is not None else 11)
        crossings[strat] = statistics.median(cs)
    elapsed = time.time() - t0
    ok = crossings["half_split"] < crossings["prev_curr"]
    report(4, ok and elapsed < 600,
           f"median first day >=90% day-local val acc: strategy A {crossings['prev_curr']}, "
           f"strategy B {crossings['half_split']}; {elapsed:.0f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 5. Protocol laws
# ---------------------------------------------------------------------------


def test_criterion_5_protocol_laws(synth3, tmp_path, report):
    # strategy A day 1: validation metrics, zero optimizer steps
    cfg = exp_config(synth3, strategy="prev_curr", total_days=1, n_per_day=20, seed=4)
    log = run_experiment(cfg, tmp_path / "a1")
    _, opt = nn.checkpoint_load(tmp_path / "a1/ckpt_final.bin")
    day1 = [r for r in log.records if r.phase == "sequential" and r.day == 1][0]
    day1_ok = day1.val_acc is not None and day1.train_loss is None and opt.t == 0

    # no-replacement + step-count law over a full run with pre-training
    cfg = exp_config(synth3, pretrain_size=60, pretrain_epochs=5, pretrain_target=2.0,
                     total_days=12, n_per_day=20, epochs_per_day=2, batch_size=16, seed=5)
    log = run_experiment(cfg, tmp_path / "full")
    plan_lines = (tmp_path / "full/dayplan.txt").read_text().splitlines()[1:]
    used = [int(t) for line in plan_lines for t in line.split("\t")[1].split(",")]
    no_replacement = len(used) == len(set(used))

    pre_epochs = len([r for r in log.records if r.phase == "pretrain"])
    expected = pre_epochs * math.ceil(60 / 16) + 12 * 2 * math.ceil(20 / 16)
    _, opt = nn.checkpoint_load(tmp_path / "full/ckpt_final.bin")
    steps_ok = opt.t == expected

    report(5, day1_ok and no_replacement and steps_ok,
           f"strategy-A day-1 ok={day1_ok}, no-replacement={no_replacement}, "
           f"steps {opt.t} == closed form {expected}: {steps_ok}")


# ---------------------------------------------------------------------------
# 6. Data pipeline properties
# ---------------------------------------------------------------------------


def test_criterion_6_data_pipeline(tmp_path, report):
    rng = substream(0, "accept-data")
    img = data.Image(rng.integers(0, 256, size=(9, 13), dtype=np.uint8))
    laws = (
        data.rotate90(data.rotate90(img, "left"), "right") == img
    )
    four = img
    for _ in range(4):
        four = data.rotate90(four, "left")
    laws = laws and four == img

    manifest = data.Manifest([(f"x/{i}.pgm", "x") for i in range(10_000)])
    tr, va, te = data.split_manifest(manifest, seed=1)
    counts_ok = (len(tr), len(va), len(te)) == (7000, 1000, 2000)

    sq = data.Image(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
    data.pgm_write(sq, tmp_path / "a.pgm")
    pgm_ok = data.pgm_read(tmp_path / "a.pgm") == sq

    log = RunLog("rid", [
        MetricsRecord(1, 1, "sequential", train_loss=0.5, train_acc=0.75,
                      val_loss=0.25, val_acc=0.875, test_loss=0.125, test_acc=0.9375),
        MetricsRecord(2, 1, "sequential", val_loss=0.5, val_acc=0.5),
    ])
    write_metrics(log, tmp_path / "m.csv")
    again = read_metrics(tmp_path / "m.csv")
    write_metrics(again, tmp_path / "m2.csv")
    csv_ok = (
        (tmp_path / "m.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
        and again.records[0].train_loss == 0.5
        and again.records[1].train_loss is None
    )

    aug_ok = augment(sq, AUGMENT_OFF, substream(1, "aug")) == sq

    report(6, laws and counts_ok and pgm_ok and csv_ok and aug_ok,
           f"rotate90 laws={laws}, split counts={counts_ok}, pgm round trip={pgm_ok}, "
           f"csv round trip={csv_ok}, augment identity={aug_ok}")


# ---------------------------------------------------------------------------
# 7. Detector oracle equivalence
# ---------------------------------------------------------------------------


def _brute_plateau(series, cfg):
    for i in range(len(series) - cfg.window + 1):
        w = np.asarray(series[i : i + cfg.window], dtype=np.float64)
        x = np.arange(cfg.window, dtype=np.float64)
        slope = np.polyfit(x, w, 1)[0]
        if abs(slope) <= cfg.slope_tolerance and w.var(ddof=1) <= cfg.variance_tolerance:
            return i
    return None


def _brute_spikes(series, drop):
    return [i for i in range(1, len(series)) if series[i - 1] - series[i] >= drop]


def test_criterion_7_detector_equivalence(report):
    mismatches = 0
    for s in range(1000):
        rng = substream(s, "accept-detect")
        n = int(rng.integers(5, 501))
        series = list(rng.random(n))
        cfg = DetectorConfig(
            window=int(rng.integers(2, min(n, 40) + 1)),
            slope_tolerance=float(rng.random() * 0.2),
            variance_tolerance=float(rng.random() * 0.2),
        )
        if plateau_detect(series, cfg) != _brute_plateau(series, cfg):
            mismatches += 1
        drop = float(rng.random() * 0.5 + 0.01)
        if spike_detect(series, drop) != _brute_spikes(series, drop):
            mismatches += 1
    example_ok = spike_detect([0.90, 0.92, 0.55, 0.90], 0.2) == [2]
    report(7, mismatches == 0 and example_ok,
           f"mismatches vs brute force over 1000 series: {mismatches}; "
           f"spike example flags exactly [2]: {example_ok}")


# ---------------------------------------------------------------------------
# 8. Checkpoint / resume
# ---------------------------------------------------------------------------


def test_criterion_8_resume_bit_identical(synth3, tmp_path, report):
    make = lambda: exp_config(synth3, total_days=8, n_per_day=15, seed=6,
                              checkpoint_every=0)
    run_experiment(make(), tmp_path / "full")
    run_experiment(make(), tmp_path / "resumed", stop_after_day=4)
    run_experiment(make(), tmp_path / "resumed", resume=True)
    same_csv = (tmp_path / "full/metrics.csv").read_bytes() == (
        tmp_path / "resumed/metrics.csv").read_bytes()
    same_ckpt = (tmp_path / "full/ckpt_final.bin").read_bytes() == (
        tmp_path / "resumed/ckpt_final.bin").read_bytes()
    report(8, same_csv and same_ckpt,
           f"resumed run log identical={same_csv}, final checkpoint identical={same_ckpt}")


# ---------------------------------------------------------------------------
# 9. Overfit sanity
# ---------------------------------------------------------------------------


def test_criterion_9_overfit_sanity(report):
    from daylearn.data import NormalizationSpec, normalize, synthetic_pattern

    norm = NormalizationSpec()
    xs, ys = [], []
    rng = substream(2, "accept-overfit")
    for i in range(8):
        k = i % 3
        base = synthetic_pattern(k, 3, 32, 32).astype(np.float64)
        noisy = np.clip(base + rng.standard_normal((32, 32)) * 12, 0, 255).astype(np.uint8)
        xs.append(normalize(data.Image(noisy), norm))
        ys.append(k)
    x = np.stack(xs)
    y = np.array(ys)

    ratios = {}
    for loss_kind in nn.LOSS_KINDS:
        model = nn.Model(parse_layers(LAYERS_32, 32), (1, 32, 32), seed=3)
        opt = nn.Adam(1e-3)
        initial = None
        loss = None
        for _ in range(200):
            logits = model.forward(x)
            loss, g = nn.loss_forward_backward(loss_kind, logits, y)
            if initial is None:
                initial = loss
            model.backward(g)
            opt.step([p for _, p in model.parameters()], model.gradients())
        ratios[loss_kind] = loss / initial
    ok = all(r < 0.5 for r in ratios.values())
    report(9, ok, "final/initial loss after 200 Adam steps: "
           + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()) + " (must be < 0.5)")
