"""daylearn benchmark: one workload per invocation, one experiment at a time.

    python3 perfbench/run.py --workload pretrain_global --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the workload repeats untraced and the end-to-end metrics are
reported; with `--trace 1` untraced and traced repetitions alternate and
the per-layer metrics are reported. Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Per-run results and span dumps are
written under `.perfbench_work/`. The exit code is 0 only when every
output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from report import END_TO_END, END_TO_END_PRINTED, PER_LAYER, analyze_rep, end_to_end, gate, per_layer, sha256
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 8
MIN_REPS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class _Stop(Exception):
    pass


def probe_samples(dl, config, work, count):
    """(set-up, first-day) seconds of runs stopped at their second run_day
    call: from run_experiment's call to its first training call, and to
    the end of its first day."""
    saved_day, saved_pretrain = dl.protocol.run_day, dl.protocol.pretrain
    trains, days = [], []

    def pretrain(*args, **kwargs):
        trains.append(time.perf_counter())
        return saved_pretrain(*args, **kwargs)

    def run_day(*args, **kwargs):
        days.append(time.perf_counter())
        if len(days) == 2:
            raise _Stop
        trains.append(days[0])
        return saved_day(*args, **kwargs)

    dl.protocol.run_day, dl.protocol.pretrain = run_day, pretrain
    setups, first_days = [], []
    try:
        for i in range(count):
            run_dir = os.path.join(work, f"probe{i}")
            trains.clear()
            days.clear()
            t0 = time.perf_counter()
            try:
                dl.protocol.run_experiment(config, run_dir)
                raise RuntimeError("a probe run finished without a second day")
            except _Stop:
                setups.append(trains[0] - t0)
                first_days.append(days[1] - t0)
            shutil.rmtree(run_dir)
    finally:
        dl.protocol.run_day, dl.protocol.pretrain = saved_day, saved_pretrain
    return setups, first_days


def _rep(dl, workload, data_root, run_dir, tracer):
    tracer.install(dl)
    try:
        with tracer.span("bench.rep"):
            outputs = workload.run(dl, tracer, data_root, run_dir)
    finally:
        tracer.uninstall()
    digest_files = ["metrics.csv", "ckpt_final.bin"] + (["acc.svg"] if "assess" in outputs else [])
    rep = analyze_rep(tracer, run_dir, digest_files)
    rep.update(outputs)
    shutil.rmtree(run_dir)
    return rep


def measure(args, dl, np, workload):
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    # The data root enters the config hash and so the run id in metrics.csv;
    # a path relative to the working directory (the repository root) keeps
    # the digests comparable between runs and checkouts.
    data_root = os.path.relpath(os.path.join(work, "data"))
    workload.generate(data_root)

    reps, traced = [], []
    attempted = 0
    raised = False
    run_id = f"{tag}-{time.time_ns()}"
    probes = ([], [])
    reference = None
    try:
        config = workload.config(dl, data_root)
        start = time.perf_counter()
        while True:
            attempted += 1
            light = Tracer(run_id)
            reps.append(_rep(dl, workload, data_root, os.path.join(work, f"rep{len(reps)}"), light))
            if args.trace:
                attempted += 1
                detailed = Tracer(run_id, detailed=True)
                reps.append(_rep(dl, workload, data_root, os.path.join(work, f"rep{len(reps)}"), detailed))
                reps[-1]["traced"] = True
                traced.append(detailed)
                per_round = reps[-1]["wall"] + reps[-2]["wall"]
                if time.perf_counter() - start + per_round / 2 >= args.seconds:
                    break
            else:
                planned = max(MIN_REPS, round(args.seconds / reps[0]["wall"]))
                # probes follow every repetition, so they meet the same
                # machine conditions as the repetitions do
                for samples, new in zip(probes, probe_samples(dl, config, work, -(-PROBES // planned))):
                    samples.extend(new)
                if len(reps) >= planned:
                    break
        if hasattr(workload, "reference"):
            attempted += 1
            ref_dir = os.path.join(work, "reference")
            workload.reference(dl, data_root, ref_dir)
            reference = {n: sha256(os.path.join(ref_dir, n)) for n in ("metrics.csv", "ckpt_final.bin")}
    except Exception:  # a failing repetition is reported, not raised
        traceback.print_exc()
        raised = True

    failed_reps, failures = gate(workload.name, reps, reference) if reps else ([], [])
    if raised:
        failures.append("a repetition raised; see the traceback on standard error")
    failed = len(failed_reps) + raised
    env = fingerprint(np)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} reps={len(reps)} "
          f"traced={len(traced)} tiny={args.tiny}")
    print("fingerprint " + json.dumps(env, sort_keys=True))
    print(f"  error_rate {failed / attempted:.6g} ratio (exact; failed {failed} of {attempted} attempted)")
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
              "fingerprint": env, "attempted": attempted, "failed": failed, "failures": failures}
    if reps:
        for name, digest in reps[0]["digests"].items():
            print(f"digest {name} sha256={digest}")
        result["digests"] = reps[0]["digests"]
    metrics = {}
    if reps and not failures:
        untraced = [r for r in reps if not r.get("traced")]
        if args.trace:
            wall_ratio = statistics.median(r["wall"] for r in reps if r.get("traced")) / \
                statistics.median(r["wall"] for r in untraced)
            values, totals = per_layer(traced, wall_ratio)
            units = dict(PER_LAYER)
            for name, value in values.items():
                print(f"  {name:<36} {value:.6g} {units[name]}")
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
            result["span_totals"] = {n: {"self_s": s / len(traced), "total_s": t / len(traced),
                                         "calls": c / len(traced)} for n, (s, t, c) in totals.items()}
            traced[-1].dump(os.path.join(WORK, "spans", f"{tag}.json"))
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            summary = end_to_end(untraced, probes, peak, resumes=workload.name == "cli_resume_ckpt")
            units = dict(END_TO_END + END_TO_END_PRINTED)
            for name, (value, samples, note) in summary.items():
                shown = "none" if value is None else f"{value:.6g}"
                spread = ""
                if note == "median" and len(samples) > 1:
                    q1, _, q3 = statistics.quantiles(samples, n=4)
                    spread = f" q1={q1:.6g} q3={q3:.6g}"
                print(f"  {name:<16} {shown} {units[name]} ({note}{spread}; n={len(samples)})")
            metrics = {n: {"value": summary[n][0], "unit": u} for n, u in END_TO_END}
            result["samples"] = {n: {"note": v[2], "values": v[1]} for n, v in summary.items()}
    for line in failures:
        print("GATE FAIL: " + line)
    result["metrics"] = metrics
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            try:
                last = json.loads(lines[-1])
            except json.JSONDecodeError:
                last = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            merged["correct"] &= proc.returncode == 0 and last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "daylearn", "__init__.py")):
        print(f"perfbench: no daylearn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # one BLAS thread: one closed-loop client, steadier on shared cores
    for var in THREAD_VARS:
        os.environ[var] = str(min(1, len(os.sched_getaffinity(0))))
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import daylearn as dl
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    return measure(args, dl, np, WORKLOADS[args.workload](args.seed, tiny=args.tiny))


if __name__ == "__main__":
    sys.exit(main())
