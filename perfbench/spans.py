"""In-memory span tracer that instruments daylearn from the outside.

`Tracer.install` swaps module attributes and class methods of the
`daylearn` package for timing shims and `Tracer.uninstall` puts the
originals back, so nothing under `src/` changes. Spans are kept in
memory as `[name, start, end, parent, info]` lists, share the tracer's
run id, and are written once by `Tracer.dump`.

Two levels exist. The light level, used for the untraced end-to-end runs,
wraps only the per-run and per-day phase boundaries (a few spans per
day). The detailed level also wraps every layer, loss, optimizer, data,
rng, schedule, metrics, config and cli entry point that a run reaches.
"""

from __future__ import annotations

import contextlib
import json
import os
import time


class Tracer:
    def __init__(self, run_id, detailed=False):
        self.run_id = run_id
        self.detailed = detailed
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patches = []
        self._conv_hw = {}

    # -- span recording ----------------------------------------------------

    def begin(self, name, info=None):
        idx = len(self.spans)
        span = [name, 0.0, None, self._stack[-1] if self._stack else -1, info]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else ""

    @contextlib.contextmanager
    def span(self, name, info=None):
        idx = self.begin(name, info)
        try:
            yield idx
        finally:
            self.end(idx)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a shim that records a span around each call.

        `name` is a string or a callable (tracer, args) -> str, evaluated
        before the call. `after(tracer, args, result, idx)` runs once the
        span is closed, so its cost lands in the caller's self time.
        """
        orig = getattr(owner, attr, None)
        if orig is None:  # a name a later version dropped: its metrics read 0
            return
        tracer = self

        def shim(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else name(tracer, args))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(tracer, args, result, idx)
            return result

        setattr(owner, attr, shim)
        self._patches.append((owner, attr, orig))

    def install(self, dl):
        """Wrap the entry points of the imported `daylearn` package `dl`."""
        nn, protocol, cli = dl.nn, dl.protocol, dl.cli
        for owner in (protocol, cli):
            self.wrap(owner, "run_experiment", "protocol.run_experiment")
        self.wrap(protocol, "run_day", "protocol.run_day", after=_after_run_day)
        self.wrap(protocol, "pretrain", "protocol.pretrain", after=_after_pretrain)
        if not self.detailed:
            return
        self.wrap(cli, "dispatch", "cli.dispatch")
        for owner, attr in ((protocol, "evaluate"), (cli, "evaluate_model")):
            self.wrap(owner, attr, _evaluate_name)
        for attr in ("image", "tensor"):
            self.wrap(protocol.DatasetCache, attr, "protocol.cache." + attr)

        self.wrap(nn.Model, "forward", _forward_name, after=_after_forward)
        self.wrap(nn.Model, "backward", "nn.backward")
        self.wrap(nn.Conv2d, "forward", _conv_fwd_name, after=_after_conv_fwd)
        self.wrap(nn.Conv2d, "backward", _conv_bwd_name, after=_after_conv_bwd)
        for cls, label in ((nn.Dense, "dense"), (nn.ReLU, "relu"),
                           (nn.MaxPool2d, "maxpool2d"), (nn.Flatten, "flatten")):
            self.wrap(cls, "forward", f"nn.{label}.fwd")
            self.wrap(cls, "backward", f"nn.{label}.bwd")
        self.wrap(nn, "loss_forward_backward", "nn.loss")
        for cls in (nn.SGD, nn.Adam):
            self.wrap(cls, "step", "nn.optim.step")
        self.wrap(nn, "checkpoint_save", "nn.checkpoint_save", after=_after_checkpoint_save)
        self.wrap(nn, "checkpoint_load", "nn.checkpoint_load")

        for owner in (protocol, cli):
            self.wrap(owner, "pgm_read", "data.pgm_read", after=_after_pgm_read)
            self.wrap(owner, "normalize", "data.normalize")
        self.wrap(protocol, "augment_image", "data.augment")
        self.wrap(protocol, "ingest_directory", "data.ingest_directory")
        self.wrap(protocol, "split_manifest", "data.split_manifest")
        for owner in (protocol, dl.schedule, dl.data, nn):
            self.wrap(owner, "substream", "rng.substream")
        for attr in ("plan_days", "day_split", "dayplan_write", "dayplan_read"):
            self.wrap(protocol, attr, "schedule." + attr)

        for owner in (protocol, cli):
            self.wrap(owner, "read_metrics", "metrics.read_metrics")
        self.wrap(cli, "training_assessment", "metrics.training_assessment")
        self.wrap(cli, "emit_plot", "metrics.emit_plot")
        for attr in ("load_effective_config", "to_experiment_config",
                     "write_effective_config", "to_detector_config"):
            self.wrap(cli, attr, "config." + attr)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def children(self):
        out = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                out[span[3]].append(i)
        return out

    def self_times(self):
        """Per span: duration minus the part of it that its children cover."""
        out = []
        for i, kids in enumerate(self.children()):
            _, start, end, _, _ = self.spans[i]
            covered, reach = 0.0, start
            for c in kids:  # appended in start order
                c_start, c_end = max(self.spans[c][1], reach), min(self.spans[c][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def totals(self):
        """name -> [self seconds, inclusive seconds, calls]."""
        self_s = self.self_times()
        out = {}
        for (name, start, end, _, _), s in zip(self.spans, self_s):
            row = out.setdefault(name, [0.0, 0.0, 0])
            row[0] += s
            row[1] += end - start
            row[2] += 1
        return out

    def cache_hits(self):
        """(hits, lookups): a cache lookup that read or normalized nothing hit."""
        children = self.children()
        lookups = [i for i, s in enumerate(self.spans) if s[0].startswith("protocol.cache.")]
        return sum(1 for i in lookups if not children[i]), len(lookups)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "names": names,
            "fields": ["name_id", "start_s", "end_s", "parent", "info"],
            "spans": [[ids[n], a, b, p, info] for n, a, b, p, info in self.spans],
            "counters": self.counters,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


# -- naming and counting hooks ----------------------------------------------


def _after_run_day(tracer, args, result, idx):
    # run_day(model, optimizer, config, cache, train_items, val_items, day)
    tracer.spans[idx][4] = args[6]
    tracer.count("train_images", len(args[4]) * args[2].epochs_per_day)


def _after_pretrain(tracer, args, records, idx):
    # pretrain(model, optimizer, config, cache, subset_items, val_items)
    tracer.count("train_images", len(args[4]) * len(records))


def _evaluate_name(tracer, args):
    caller = tracer.parent_name()
    return "protocol.evaluate.val" if caller in ("protocol.run_day", "protocol.pretrain") else "protocol.evaluate.test"


def _forward_name(tracer, args):
    mode = "eval" if tracer.parent_name().startswith("protocol.evaluate") else "train"
    return "nn.forward." + mode


def _after_forward(tracer, args, result, idx):
    tracer.count(tracer.spans[idx][0] + ".images", len(args[1]))


def _conv_key(layer, hw):
    return f"{layer.spec.in_channels}x{layer.spec.out_channels}x{hw}"


def _conv_flops(layer, out_shape):
    n, co, ho, wo = out_shape
    k = layer.spec.kernel
    return 2 * n * co * ho * wo * layer.spec.in_channels * k * k


def _conv_fwd_name(tracer, args):
    layer, x = args[0], args[1]
    tracer._conv_hw[id(layer)] = x.shape[2]
    return "nn.conv2d.fwd." + _conv_key(layer, x.shape[2])


def _conv_bwd_name(tracer, args):
    layer = args[0]
    return "nn.conv2d.bwd." + _conv_key(layer, tracer._conv_hw[id(layer)])


def _after_conv_fwd(tracer, args, out, idx):
    tracer.count("conv_flops", _conv_flops(args[0], out.shape))


def _after_conv_bwd(tracer, args, gx, idx):
    # weight gradient and input gradient each cost one forward's worth
    tracer.count("conv_flops", 2 * _conv_flops(args[0], args[1].shape))


def _after_pgm_read(tracer, args, image, idx):
    tracer.count("pgm_pixel_bytes", image.pixels.nbytes)


def _after_checkpoint_save(tracer, args, result, idx):
    tracer.count("checkpoint_bytes", os.path.getsize(args[2]))
