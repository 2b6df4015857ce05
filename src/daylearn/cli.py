"""Command-line entry point. Each subcommand parses, calls the library and
prints. The run directory is protocol's alone: `run` leaves it, lock
included, to run_experiment, and `run --resume`, `assess` and `evaluate`
take their config from its record through `run_config`.
Subcommands: gen-synth, gen-rotated, split, run, evaluate, assess, plot,
grad-check; each subparser names its handler (args, overrides). Exit codes:
0 success, else the raised DaylearnError's `exit_code` (errors.py: 1 runtime/
numeric/checkpoint, 2 usage or config, 3 data), or 1 for any other OSError.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import nn
from .data import (
    SPLIT_FRACTIONS,
    Manifest,
    build_rotated_dataset,
    gen_synthetic,
    ingest_directory,
    manifest_read,
    split_manifest,
    splits_write,
)
from .errors import ConfigError, DataError, DaylearnError, UsageError
from .metrics import emit_plot, training_assessment
from .protocol import load_split, read_log, run_config, run_experiment
from .protocol import evaluate as evaluate_model
from .rng import substream


def _build_parser():
    p = argparse.ArgumentParser(prog="daylearn", description="Sequential-learning harness")
    sub = p.add_subparsers(dest="command")

    def command(name, handler, help, overrides=False):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler, overrides=overrides)
        return sp

    sp = command("gen-synth", _cmd_gen_synth, "generate a synthetic PGM dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--classes", type=int, default=3)
    sp.add_argument("--per-class", type=int, default=300)
    sp.add_argument("--size", type=int, default=32)
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)

    sp = command("gen-rotated", _cmd_gen_rotated, "build the 3-class rotated dataset")
    sp.add_argument("--manifest", required=True, help="source manifest file")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--source-class", default=None, help="restrict to one source class")

    sp = command("split", _cmd_split, "write train/val/test split manifests")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fractions", default=",".join(map(str, SPLIT_FRACTIONS)))

    sp = command("run", _cmd_run, "run an experiment", overrides=True)
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--resume", action="store_true")
    sp.add_argument("--stop-after-day", type=int, default=None)

    sp = command("evaluate", _cmd_evaluate, "evaluate a checkpoint on a manifest", overrides=True)
    sp.add_argument("--checkpoint", required=True, help="its run directory's record gives the config")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--loss", default=None, help="shorthand for --protocol.loss")
    sp.add_argument("--data-root", default=None,
                    help="image root (default: data.root for a run's own manifests, else their directory)")

    sp = command("assess", _cmd_assess, "hold-out-free training assessment", overrides=True)
    sp.add_argument("--run", required=True, help="run directory")
    sp.add_argument("--config", default=None)

    sp = command("plot", _cmd_plot, "emit an SVG line chart from a run")
    sp.add_argument("--run", required=True)
    sp.add_argument("--series", default="train_acc,test_acc")
    sp.add_argument("--out", required=True)
    sp.add_argument("--phase", default="sequential")

    sp = command("grad-check", _cmd_grad_check, "finite-difference gradient verification")
    sp.add_argument("--seeds", type=int, default=20)
    sp.add_argument("--tol", type=float, default=nn.GRAD_CHECK_TOL)
    sp.add_argument("--h", type=float, default=nn.GRAD_CHECK_H)

    return p


def _cmd_gen_synth(args, overrides):
    m = gen_synthetic(args.classes, args.per_class, args.size, args.noise, args.seed, args.out)
    print(f"wrote {len(m)} images in {len(m.class_names)} classes under {args.out}")
    return 0


def _cmd_gen_rotated(args, overrides):
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


def _cmd_split(args, overrides):
    try:
        fracs = tuple(float(t) for t in args.fractions.split(","))
    except ValueError:
        fracs = ()
    if len(fracs) != 3:
        raise ConfigError("--fractions needs exactly three comma-separated numbers")
    manifest = ingest_directory(args.data)
    train, val, test = splits = split_manifest(manifest, fractions=fracs, seed=args.seed)
    # a manifest outside a run directory names its images relative to itself
    rel_root = os.path.relpath(args.data, args.out)
    os.makedirs(args.out, exist_ok=True)
    splits_write([Manifest([(os.path.normpath(os.path.join(rel_root, p)), c) for p, c in m.entries],
                           m.class_names) for m in splits], args.out)
    print(f"split {len(manifest)} entries into {len(train)}/{len(val)}/{len(test)}")
    return 0


def _cmd_run(args, overrides):
    if args.seed is not None:
        overrides = list(overrides) + [f"protocol.seed={args.seed}"]
    config = run_config(args.out if args.resume else None, args.config, overrides)
    log = run_experiment(config, args.out, resume=args.resume, stop_after_day=args.stop_after_day)
    print(f"run {log.run_id}: {len(log.records)} metric records in {args.out}")
    return 0


def _cmd_evaluate(args, overrides):
    run_dir = os.path.dirname(os.path.abspath(args.checkpoint))
    if args.loss is not None:
        overrides = list(overrides) + [f"protocol.loss={args.loss}"]
    config = run_config(run_dir, overrides=overrides)
    model, _ = nn.checkpoint_load(args.checkpoint)
    # a run's own manifests name images under data.root, when set; others, under their directory
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    root = args.data_root or (manifest_dir == run_dir and config.data_root) or manifest_dir
    x, labels = load_split(root, manifest_read(args.manifest), config.norm, model.input_shape[1:])
    loss, acc = evaluate_model(model, x, labels, config.loss_kind, config.batch_size)
    print(f"loss={loss:.6g} accuracy={acc:.6g} n={len(x)}")
    return 0


def _cmd_assess(args, overrides):
    config = run_config(args.run, args.config, overrides)
    report = training_assessment(read_log(args.run), config.detectors)
    print(f"plateaued={report['plateaued']} plateau_index={report['plateau_index']}")
    print(f"forgetting_events={report['forgetting_events']}")
    print(f"recommendation={report['recommendation']}")
    return 0


def _cmd_plot(args, overrides):
    names = [s.strip() for s in args.series.split(",") if s.strip()]
    emit_plot(read_log(args.run), names, args.out, phase=args.phase)
    print(f"wrote {args.out}")
    return 0


def _cmd_grad_check(args, overrides):
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    for flag, value in (("--h", args.h), ("--tol", args.tol)):
        if not (np.isfinite(value) and value > 0):
            raise UsageError(f"{flag} must be finite and > 0, got {value}")
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


def _overrides(args, extra):
    """The `--key=value` tokens left over by the parser, as `key=value`."""
    for tok in extra:
        if not (tok.startswith("--") and "=" in tok):
            raise UsageError(f"unrecognized argument {tok!r}")
    if extra and not args.overrides:
        raise UsageError(f"overrides not supported for {args.command}")
    return [tok[2:] for tok in extra]


def dispatch(argv):
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args, _overrides(args, extra))
    except DaylearnError as e:
        print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"IO_ERROR: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
