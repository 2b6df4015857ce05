"""Command-line entry point.

Subcommands: gen-synth, gen-rotated, split, run, evaluate, assess, plot,
grad-check. Exit codes: 0 success, 1 runtime/numeric/checkpoint failure,
2 usage or config error, 3 data error.
"""

from __future__ import annotations

import argparse
import fcntl
import os
import sys

import numpy as np

from . import nn
from .config import (
    load_effective_config,
    to_detector_config,
    to_experiment_config,
    write_effective_config,
)
from .data import (
    NormalizationSpec,
    build_rotated_dataset,
    gen_synthetic,
    ingest_directory,
    manifest_read,
    split_manifest,
)
from .errors import CheckpointError, ConfigError, DataError, NumericError, UsageError
from .metrics import emit_plot, read_metrics, training_assessment
from .protocol import METRICS_FILE, load_split, read_state, run_experiment
from .protocol import evaluate as evaluate_model
from .rng import substream

_LOCK_NAME = "lock"


def _build_parser():
    p = argparse.ArgumentParser(prog="daylearn", description="Sequential-learning harness")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("gen-synth", help="generate a synthetic PGM dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--classes", type=int, default=3)
    sp.add_argument("--per-class", type=int, default=300)
    sp.add_argument("--size", type=int, default=32)
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("gen-rotated", help="build the 3-class rotated dataset")
    sp.add_argument("--manifest", required=True, help="source manifest file")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--source-class", default=None, help="restrict to one source class")

    sp = sub.add_parser("split", help="write 70/10/20 split manifests")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fractions", default="0.70,0.10,0.20")

    sp = sub.add_parser("run", help="run an experiment")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--resume", action="store_true")
    sp.add_argument("--stop-after-day", type=int, default=None)

    sp = sub.add_parser("evaluate", help="evaluate a checkpoint on a manifest")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--loss", default="softmax_ce", choices=list(nn.LOSS_KINDS))
    sp.add_argument("--batch-size", type=int, default=16)
    sp.add_argument("--norm-mean", type=float, default=NormalizationSpec.mean)
    sp.add_argument("--norm-std", type=float, default=NormalizationSpec.std)
    sp.add_argument("--data-root", default=None,
                    help="image root (default: the manifest's directory)")

    sp = sub.add_parser("assess", help="hold-out-free training assessment")
    sp.add_argument("--run", required=True, help="run directory")
    sp.add_argument("--config", default=None)

    sp = sub.add_parser("plot", help="emit an SVG line chart from a run")
    sp.add_argument("--run", required=True)
    sp.add_argument("--series", default="train_acc,test_acc")
    sp.add_argument("--out", required=True)
    sp.add_argument("--phase", default="sequential")

    sp = sub.add_parser("grad-check", help="finite-difference gradient verification")
    sp.add_argument("--seeds", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--h", type=float, default=1e-6)

    return p


def _cmd_gen_synth(args):
    os.makedirs(args.out, exist_ok=True)
    m = gen_synthetic(args.classes, args.per_class, args.size, args.noise, args.seed, args.out)
    print(f"wrote {len(m)} images in {len(m.class_names)} classes under {args.out}")
    return 0


def _cmd_gen_rotated(args):
    src = manifest_read(args.manifest)
    if args.source_class is not None:
        keep = [i for i, (_, label) in enumerate(src.entries) if label == args.source_class]
        if not keep:
            raise DataError(f"no entries with class {args.source_class!r} in {args.manifest}")
        src = src.subset(keep)
    os.makedirs(args.out, exist_ok=True)
    root = os.path.dirname(os.path.abspath(args.manifest))
    m = build_rotated_dataset(src, root, args.out, seed=args.seed)
    print(f"wrote {len(m)} rotated images under {args.out}")
    return 0


def _cmd_split(args):
    try:
        fracs = tuple(float(t) for t in args.fractions.split(","))
    except ValueError:
        fracs = ()
    if len(fracs) != 3:
        raise ConfigError("--fractions needs exactly three comma-separated numbers")
    os.makedirs(args.out, exist_ok=True)
    manifest = ingest_directory(args.data)
    train, val, test = split_manifest(manifest, fractions=fracs, seed=args.seed, out_dir=args.out)
    print(f"split {len(manifest)} entries into {len(train)}/{len(val)}/{len(test)}")
    return 0


def _cmd_run(args, overrides):
    if args.stop_after_day is not None and args.stop_after_day < 1:
        raise UsageError(f"--stop-after-day must be >= 1, got {args.stop_after_day}")
    if args.seed is not None:
        overrides = list(overrides) + [f"protocol.seed={args.seed}"]
    effective = load_effective_config(args.config, overrides)
    if not effective["data.root"]:
        raise ConfigError("config key 'data.root' is required for run")
    config = to_experiment_config(effective)
    os.makedirs(args.out, exist_ok=True)
    lock_fd = _acquire_lock(args.out)
    try:
        if args.resume:  # a refused resume writes nothing
            read_state(args.out, config.config_hash())
        write_effective_config(effective, os.path.join(args.out, "effective_config.cfg"))
        log = run_experiment(
            config, args.out, resume=args.resume, stop_after_day=args.stop_after_day
        )
    finally:
        os.close(lock_fd)
    print(f"run {log.run_id}: {len(log.records)} metric records in {args.out}")
    return 0


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


def _cmd_evaluate(args):
    model, _ = nn.checkpoint_load(args.checkpoint)
    manifest = manifest_read(args.manifest)
    spec = NormalizationSpec(args.norm_mean, args.norm_std)
    root = args.data_root or os.path.dirname(os.path.abspath(args.manifest))
    x, labels = load_split(root, manifest, spec, model.input_shape[1:])
    loss, acc = evaluate_model(model, x, labels, args.loss, args.batch_size)
    print(f"loss={loss:.6g} accuracy={acc:.6g} n={len(x)}")
    return 0


def _cmd_assess(args, overrides):
    effective = load_effective_config(args.config, overrides)
    detector = to_detector_config(effective)
    log = read_metrics(os.path.join(args.run, METRICS_FILE))
    report = training_assessment(log, detector)
    print(f"plateaued={report['plateaued']} plateau_index={report['plateau_index']}")
    print(f"forgetting_events={report['forgetting_events']}")
    print(f"recommendation={report['recommendation']}")
    return 0


def _cmd_plot(args):
    log = read_metrics(os.path.join(args.run, METRICS_FILE))
    names = [s.strip() for s in args.series.split(",") if s.strip()]
    emit_plot(log, names, args.out, phase=args.phase)
    print(f"wrote {args.out}")
    return 0


def _cmd_grad_check(args):
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    # every layer kind in one small stack
    specs = nn.parse_layers("conv:2:3:1:1,relu,pool:2,conv:3:3:1:0,relu,flatten,dense:3", 8)
    worst = 0.0
    failed = False
    for loss_kind in nn.LOSS_KINDS:
        for seed in range(args.seeds):
            model = nn.Model(specs, (1, 8, 8), seed=seed, dtype=np.float64)
            rng = substream(seed, "gradcheck", loss_kind)
            x = rng.standard_normal((4, 1, 8, 8))
            y = rng.integers(0, 3, size=4)
            report = nn.grad_check_model(model, x, y, loss_kind, h=args.h, tol=args.tol)
            for item in report:
                worst = max(worst, item["max_rel_err"])
                if not item["passed"]:
                    failed = True
                    print(
                        f"FAIL loss={loss_kind} seed={seed} {item['name']} "
                        f"rel_err={item['max_rel_err']:.3g}"
                    )
    print(f"grad-check: max relative error {worst:.3g} over "
          f"{args.seeds} seeds x {len(nn.LOSS_KINDS)} losses (tol {args.tol:g})")
    if failed:
        print("grad-check: FAILED")
        return 1
    print("grad-check: OK")
    return 0


def dispatch(argv):
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    overrides = []
    for tok in extra:
        if tok.startswith("--") and "=" in tok:
            overrides.append(tok[2:])
        else:
            print(f"USAGE_ERROR: unrecognized argument {tok!r}", file=sys.stderr)
            return 2
    if overrides and args.command not in ("run", "assess"):
        print(f"USAGE_ERROR: overrides not supported for {args.command}", file=sys.stderr)
        return 2
    try:
        if args.command == "gen-synth":
            return _cmd_gen_synth(args)
        if args.command == "gen-rotated":
            return _cmd_gen_rotated(args)
        if args.command == "split":
            return _cmd_split(args)
        if args.command == "run":
            return _cmd_run(args, overrides)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "assess":
            return _cmd_assess(args, overrides)
        if args.command == "plot":
            return _cmd_plot(args)
        if args.command == "grad-check":
            return _cmd_grad_check(args)
        parser.print_usage(sys.stderr)
        return 2
    except (ConfigError, UsageError) as e:
        cls = "CONFIG_ERROR" if isinstance(e, ConfigError) else "USAGE_ERROR"
        print(f"{cls}: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"DATA_ERROR: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"NUMERIC_ERROR: {e}", file=sys.stderr)
        return 1
    except CheckpointError as e:
        print(f"CHECKPOINT_ERROR: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"IO_ERROR: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
