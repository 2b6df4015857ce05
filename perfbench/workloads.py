"""The benchmark's workloads: seeded input generation and the timed bodies.

Each workload generates its own PGM tree from the workload seed with
numpy alone, so the program under test sees only image files and a
change to daylearn's own generators cannot change the inputs. Every body
runs one experiment at a time (a closed loop with a single client).

- pretrain_global: the acceptance criterion 3 shape. Each day 20 training
  images face 90 validation and 180 test images, so it is bound by
  evaluation-mode forward passes.
- half_split_epochs: the acceptance criterion 4 shape. 10 epochs over
  ~50 images a day make it bound by training: conv forward/backward,
  pool backward, augmentation and Adam.
- cli_resume_ckpt: the CLI end to end with a stop and a resume, a
  checkpoint every day, the second loss and optimizer and another conv
  shape. It is the only workload that reloads checkpoints and PGMs cold.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

LAYERS_32 = "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3"
LAYERS_CLI = "conv:4:3:1:1,relu,pool:4,flatten,dense:4"
IMAGE_SIZE = 32
NOISE = 0.05
ROTATED_CLASSES = ("original", "rot_left", "rot_right")


# -- input generation --------------------------------------------------------


def _pattern(k, num_classes, size):
    """Oriented sinusoidal grating per class plus a bright corner block,
    which keeps 90-degree rotations of one pattern distinguishable."""
    theta = math.pi * k / num_classes
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    base = 110.0 + 70.0 * np.sin(2.0 * math.pi * 3.0 * (xx * math.cos(theta) + yy * math.sin(theta)) / size)
    base[: size // 4, : size // 4] = 250.0
    return base


def _noisy(base, rng):
    return np.clip(np.rint(base + rng.standard_normal(base.shape) * (NOISE * 255.0)), 0, 255).astype(np.uint8)


def _write_pgm(path, pixels):
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def _write_tree(root, images):
    """images: iterable of (class name, pixels); one directory per class."""
    counts = {}
    for cls, pixels in images:
        i = counts.get(cls, 0)
        counts[cls] = i + 1
        os.makedirs(os.path.join(root, cls), exist_ok=True)
        _write_pgm(os.path.join(root, cls, f"img_{i:05d}.pgm"), pixels)


def gen_classes(root, num_classes, per_class, seed):
    rng = np.random.default_rng([seed, num_classes])
    bases = [_pattern(k, num_classes, IMAGE_SIZE) for k in range(num_classes)]
    _write_tree(root, ((f"c{k}", _noisy(bases[k], rng)) for k in range(num_classes) for _ in range(per_class)))


def gen_rotated(root, count, seed):
    """One pattern, each copy kept, rotated left or rotated right at random."""
    rng = np.random.default_rng([seed, 3])
    base = _pattern(0, 2, IMAGE_SIZE)

    def images():
        for _ in range(count):
            px = _noisy(base, rng)
            which = int(rng.integers(0, 3))
            yield ROTATED_CLASSES[which], np.ascontiguousarray(np.rot90(px, (0, 1, -1)[which]))

    _write_tree(root, images())


# -- workloads ----------------------------------------------------------------


class _Workload:
    name = ""
    why = ""
    sizes = {}

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.size = self.sizes["tiny" if tiny else "full"]

    def generate(self, root):
        """Write the seeded PGM tree the workload reads."""
        raise NotImplementedError

    def config(self, dl, data_root):
        """The ExperimentConfig the body runs; the probes run it too."""
        raise NotImplementedError

    def run(self, dl, tracer, data_root, run_dir):
        """The timed body. Returns a dict of outputs to check."""
        raise NotImplementedError


class _DirectRun(_Workload):
    """One run_experiment call through the library API."""

    def _fields(self):
        raise NotImplementedError

    def config(self, dl, data_root):
        return dl.protocol.ExperimentConfig(
            layers=dl.config.parse_layers(LAYERS_32, IMAGE_SIZE),
            image_size=IMAGE_SIZE,
            optimizer_kind="adam",
            learning_rate=1e-3,
            loss_kind="softmax_ce",
            batch_size=16,
            total_days=self.size["days"],
            n_per_day=self.size["n_per_day"],
            epochs_per_day=self.size["epochs"],
            seed=self.seed,
            checkpoint_every=0,
            data_root=data_root,
            **self._fields(),
        )

    def run(self, dl, tracer, data_root, run_dir):
        config = self.config(dl, data_root)
        with tracer.span("bench.invoke", "run"):
            dl.protocol.run_experiment(config, run_dir)
        return {}


class PretrainGlobal(_DirectRun):
    name = "pretrain_global"
    why = "eval-bound: each day 20 training images face 90 val and 180 test images"
    sizes = {
        "full": dict(classes=3, per_class=300, pretrain=60, days=25, n_per_day=20, epochs=1),
        "tiny": dict(classes=3, per_class=60, pretrain=24, days=6, n_per_day=16, epochs=3),
    }

    def generate(self, root):
        gen_classes(root, self.size["classes"], self.size["per_class"], self.seed)

    def _fields(self):
        # one pre-training epoch: an early stop would make the work per run depend on the seed
        return dict(pretrain_size=self.size["pretrain"], pretrain_epochs=1, strategy="global")


class HalfSplitEpochs(_DirectRun):
    name = "half_split_epochs"
    why = "train-bound: 10 epochs a day over ~50 images; conv fwd/bwd, pool bwd, augment, Adam"
    sizes = {
        "full": dict(count=800, days=10, n_per_day=50, epochs=10),
        "tiny": dict(count=300, days=6, n_per_day=20, epochs=3),
    }

    def generate(self, root):
        gen_rotated(root, self.size["count"], self.seed)

    def _fields(self):
        return dict(strategy="half_split")


class CliResumeCkpt(_Workload):
    name = "cli_resume_ckpt"
    why = "CLI run stopped mid-plan, resumed, evaluated, assessed, plotted; checkpoint every day"
    sizes = {
        "full": dict(classes=4, per_class=300, days=20, n_per_day=40, epochs=5),
        "tiny": dict(classes=4, per_class=30, days=6, n_per_day=8, epochs=4),
    }

    def generate(self, root):
        gen_classes(root, self.size["classes"], self.size["per_class"], self.seed)

    def overrides(self, data_root):
        return [
            f"data.root={data_root}",
            f"model.layers={LAYERS_CLI}",
            "schedule.strategy=prev_curr",
            "protocol.loss=bce_logits",
            "optimizer.kind=sgd",
            "optimizer.lr=0.01",
            "optimizer.momentum=0.9",
            "protocol.checkpoint_every=1",
            f"schedule.days={self.size['days']}",
            f"schedule.n_per_day={self.size['n_per_day']}",
            f"protocol.epochs_per_day={self.size['epochs']}",
            f"protocol.seed={self.seed}",
        ]

    def config(self, dl, data_root):
        return dl.config.to_experiment_config(dl.config.load_effective_config(None, self.overrides(data_root)))

    def _run_argv(self, data_root, run_dir):
        return ["run", "--out", run_dir] + ["--" + ov for ov in self.overrides(data_root)]

    def _dispatch(self, dl, tracer, step, argv):
        out = io.StringIO()
        with tracer.span("bench.invoke", step), contextlib.redirect_stdout(out):
            code = dl.cli.dispatch(argv)
        if code != 0:
            raise RuntimeError(f"daylearn {step} exited with code {code}")
        return out.getvalue()

    def run(self, dl, tracer, data_root, run_dir):
        argv = self._run_argv(data_root, run_dir)
        stop = str(self.size["days"] // 2)
        self._dispatch(dl, tracer, "run", argv + ["--stop-after-day", stop])
        self._dispatch(dl, tracer, "resume", argv + ["--resume"])
        evaluated = self._dispatch(dl, tracer, "evaluate", [
            "evaluate", "--checkpoint", os.path.join(run_dir, "ckpt_final.bin"),
            "--manifest", os.path.join(run_dir, "test.txt"), "--data-root", data_root,
            "--loss", "bce_logits"])
        assessed = self._dispatch(dl, tracer, "assess", ["assess", "--run", run_dir])
        self._dispatch(dl, tracer, "plot", [
            "plot", "--run", run_dir, "--series", "val_acc,test_acc",
            "--out", os.path.join(run_dir, "acc.svg")])
        return {"evaluate": evaluated, "assess": assessed}

    def reference(self, dl, data_root, run_dir):
        """The same config run once without interruption, untimed."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = dl.cli.dispatch(self._run_argv(data_root, run_dir))
        if code != 0:
            raise RuntimeError(f"reference run exited with code {code}")


WORKLOADS = {w.name: w for w in (PretrainGlobal, HalfSplitEpochs, CliResumeCkpt)}
