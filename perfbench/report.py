"""Turn recorded spans into the benchmark's metrics, and check outputs.

End-to-end metrics come from the light spans of untraced repetitions;
per-layer metrics come from the detailed spans of traced repetitions.
"""

from __future__ import annotations

import csv
import hashlib
import os
import statistics

# Spans that only delegate report inclusive time: their self time is just
# the loop around their children.
INCLUSIVE = ("nn.forward.eval", "nn.forward.train", "protocol.evaluate.val", "protocol.evaluate.test")

# name, unit
END_TO_END = (
    ("run_wall_s", "s"),
    ("setup_s", "s"),
    ("day_s_p50", "s"),
    ("day_s_tail", "s"),
    ("train_img_per_s", "1/s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("final_test_acc", "ratio"),
)
# Printed with the others but left out of the regression list: the first
# two are exact per seed but move by whole days between seeds; error_rate is
# 0 on a correct program and travels as the JSON's failed and attempted.
END_TO_END_PRINTED = (("days_to_90", "day"), ("s_to_90", "s"), ("error_rate", "ratio"))

CONV_SHAPES = ("1x16x32", "16x16x16", "1x4x32")
_TIMED = (
    ["nn.forward.eval", "nn.forward.train"]
    + [f"nn.conv2d.{d}.{shape}" for shape in CONV_SHAPES for d in ("fwd", "bwd")]
    + [f"nn.{layer}.{d}" for layer in ("maxpool2d", "relu", "dense") for d in ("fwd", "bwd")]
    + ["nn.loss", "nn.optim.step", "nn.checkpoint_save", "nn.checkpoint_load"]
    + ["data.pgm_read", "data.augment", "data.normalize", "data.ingest_directory", "data.split_manifest"]
    + ["rng.substream", "protocol.evaluate.val", "protocol.evaluate.test"]
    + ["metrics.read_metrics", "metrics.training_assessment", "metrics.emit_plot"]
    + ["config.load_effective_config", "cli.dispatch"]
)
PER_LAYER = tuple(
    [(f"{n}.s", "s") for n in _TIMED]
    + [(f"{n}.calls", "count") for n in _TIMED + ["schedule.plan_days", "schedule.day_split"]]
    + [
        ("nn.forward.eval.img_per_s", "1/s"),
        ("nn.conv2d.gflops", "GFLOP/s"),
        ("data.pgm_read.bytes", "B"),
        ("nn.checkpoint_save.bytes", "B"),
        ("protocol.cache.hit_ratio", "ratio"),
        ("protocol.self.s", "s"),
        ("trace_overhead_ratio", "ratio"),
    ]
)


# -- one repetition ------------------------------------------------------------


def _ancestor(spans, i, name):
    while i >= 0 and spans[i][0] != name:
        i = spans[i][3]
    return i


def read_metrics_csv(path):
    """[(day, test_acc)] of sequential rows that carry a test accuracy."""
    with open(path, newline="", encoding="utf-8") as f:
        return [
            (int(row["day"]), float(row["test_acc"]))
            for row in csv.DictReader(f)
            if row["phase"] == "sequential" and row["test_acc"]
        ]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def analyze_rep(tracer, run_dir, digest_files):
    """Timings and outputs of one repetition recorded by a light or detailed tracer."""
    spans = tracer.spans
    rep = next(i for i, s in enumerate(spans) if s[0] == "bench.rep")
    rep_start = spans[rep][1]
    runs = [i for i, s in enumerate(spans) if s[0] == "protocol.run_experiment"]
    day_end = {}
    days = []
    first_train = {}
    for r in runs:
        kids = [i for i, s in enumerate(spans) if s[3] == r]
        trains = [i for i in kids if spans[i][0] in ("protocol.pretrain", "protocol.run_day")]
        first_train[r] = spans[trains[0]][1] if trains else spans[r][2]
        day_spans = [i for i in trains if spans[i][0] == "protocol.run_day"]
        for k, i in enumerate(day_spans):
            end = spans[day_spans[k + 1]][1] if k + 1 < len(day_spans) else spans[r][2]
            day_end[spans[i][4]] = end
            days.append(end - spans[i][1])
    last = runs[-1]
    last_days = [i for i in range(last, len(spans)) if spans[i][0] == "protocol.run_day" and spans[i][3] == last]
    invoke = _ancestor(spans, last, "bench.invoke")
    test_acc = read_metrics_csv(os.path.join(run_dir, "metrics.csv"))
    d90 = next((d for d, acc in test_acc if acc >= 0.90), None)
    wall = spans[rep][2] - rep_start
    return {
        "wall": wall,
        "setup": first_train[runs[0]] - spans[runs[0]][1],
        "days": days,
        "resume": day_end[spans[last_days[0]][4]] - spans[invoke][1],
        "train_images": tracer.counters.get("train_images", 0),
        "days_to_90": d90,
        "s_to_90": None if d90 is None else day_end[d90] - rep_start,
        "final_test_acc": test_acc[-1][1],
        "digests": {name: sha256(os.path.join(run_dir, name)) for name in digest_files},
    }


# -- summaries ------------------------------------------------------------------


def tail(values):
    """(value, percentile): the highest order statistic with ten samples
    above it; the median when that would fall below the median."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(reps, probes, peak_rss_mb, resumes):
    """{name: (value, samples, note)} for every end-to-end metric.

    probes: (set-up seconds, first-day seconds) of the stopped probe runs.
    They add set-up samples everywhere, and first-day samples to resume_s
    where the workload never resumes (so its last invocation is a fresh run).
    """
    setups = [r["setup"] for r in reps] + probes[0]
    resume = [r["resume"] for r in reps] + ([] if resumes else probes[1])
    days = [d for r in reps for d in r["days"]]
    day_tail, pct = tail(days)
    d90 = [r["days_to_90"] for r in reps if r["days_to_90"] is not None]
    s90 = [r["s_to_90"] for r in reps if r["s_to_90"] is not None]

    out = {
        "run_wall_s": (statistics.median(w := [r["wall"] for r in reps]), w),
        "setup_s": (statistics.median(setups), setups),
        "day_s_p50": (statistics.median(days), days),
        "day_s_tail": (day_tail, days, f"p{pct:.1f}"),
        "train_img_per_s": (statistics.median(v := [r["train_images"] / r["wall"] for r in reps]), v),
        "resume_s": (statistics.median(resume), resume),
        "peak_rss_mb": (peak_rss_mb, [peak_rss_mb]),
        "final_test_acc": (reps[0]["final_test_acc"], [r["final_test_acc"] for r in reps], "exact"),
        "days_to_90": (d90[0] if d90 else None, d90, "exact"),
        "s_to_90": (statistics.median(s90) if s90 else None, s90),
    }
    return {k: v if len(v) == 3 else v + ("median",) for k, v in out.items()}


def per_layer(tracers, overhead_ratio):
    """{name: value} for every per-layer metric, averaged per traced repetition."""
    n = len(tracers)
    totals, counters = {}, {}
    hits = lookups = 0
    for t in tracers:
        for name, (s, incl, calls) in t.totals().items():
            row = totals.setdefault(name, [0.0, 0.0, 0])
            row[0] += s
            row[1] += incl
            row[2] += calls
        for key, v in t.counters.items():
            counters[key] = counters.get(key, 0) + v
        h, look = t.cache_hits()
        hits += h
        lookups += look
    conv_s = sum(incl for name, (_, incl, _) in totals.items() if name.startswith("nn.conv2d."))
    eval_s = totals.get("nn.forward.eval", [0.0, 0.0, 0])[1]
    special = {
        "nn.forward.eval.img_per_s": counters.get("nn.forward.eval.images", 0) / eval_s if eval_s else 0.0,
        "nn.conv2d.gflops": counters.get("conv_flops", 0) / conv_s / 1e9 if conv_s else 0.0,
        "data.pgm_read.bytes": counters.get("pgm_pixel_bytes", 0) / n,
        "nn.checkpoint_save.bytes": counters.get("checkpoint_bytes", 0) / n,
        "protocol.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "protocol.self.s": sum(s for name, (s, _, _) in totals.items() if name.startswith("protocol.")) / n,
        "trace_overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        row = totals.get(base, [0.0, 0.0, 0])
        if name in special:
            out[name] = special[name]
        elif kind == "calls":
            out[name] = row[2] / n
        else:
            out[name] = (row[1] if base in INCLUSIVE else row[0]) / n
    return out, totals


# -- correctness gate -----------------------------------------------------------


def gate(workload, reps, reference_digests=None):
    """(failed repetition indices, messages). An empty list means correct.

    Every repetition must reproduce the first one's output bytes; a resumed
    CLI run must equal an uninterrupted run of the same config; the
    pretrain_global and half_split_epochs runs must reach 90%
    test accuracy; CLI evaluate must report the run's final test accuracy.
    """
    failed, messages = set(), []
    first = reps[0]["digests"]
    for i, r in enumerate(reps):
        for name, digest in r["digests"].items():
            if digest != first[name]:
                failed.add(i)
                messages.append(f"rep {i}: {name} digest {digest[:16]} != rep 0 {first[name][:16]}")
        if workload != "cli_resume_ckpt" and r["days_to_90"] is None:
            failed.add(i)
            messages.append(f"rep {i}: test accuracy never reached 0.90")
        evaluated = r.get("evaluate")
        if evaluated is not None and f"accuracy={r['final_test_acc']:.6g} " not in evaluated:
            failed.add(i)
            messages.append(f"rep {i}: evaluate printed {evaluated.strip()!r}, "
                            f"run logged test_acc={r['final_test_acc']:.6g}")
        assessed = r.get("assess")
        if assessed is not None and "recommendation=" not in assessed:
            failed.add(i)
            messages.append(f"rep {i}: assess printed no recommendation")
    if reference_digests is not None:
        for i, r in enumerate(reps):
            for name, digest in reference_digests.items():
                if r["digests"][name] != digest:
                    failed.add(i)
                    messages.append(f"rep {i}: resumed {name} differs from the uninterrupted run")
    return sorted(failed), messages
