"""Minimal deterministic CNN engine.

Layers with explicit forward/backward, softmax cross-entropy and
BCE-with-logits losses, SGD and Adam optimizers, finite-difference
gradient verification, and an exact binary checkpoint format.

Runs use float32; the gradient checker exercises the same code paths
in float64.

A layer kind is its spec, its layer class and one row of `LAYER_KINDS`
(layer token, spec dataclass, layer class, checkpoint id). The spec's
fields, in order, are both the token's ints and the checkpoint's; its
`out_shape` is the kind's check and shape rule, and its `param_shapes`
the one statement of its weight and bias shapes, from which each layer
is built and the checkpoint reader sizes its budget. `parse_layers`,
`Model` and the checkpoint reader and writer all read the table.

Every forward takes a `train` flag. Training mode (the default) keeps
what backward needs: the padded conv input, the ReLU mask, the pool's
winning offsets and input shape, the dense input, the flatten shape.
Eval mode (`train=False`, used by `predict_batch` and so by all
evaluation) computes the same logits with the same operations but
writes no layer state, so an evaluation may run between a training
forward and its backward.

`Model` runs its layers in one execution plan, fixed at build time:
the declared order, except that a ReLU directly followed by a MaxPool2d
runs after it. Max and ReLU commute, so ReLU then works on a k*k
smaller tensor and the pool no longer needs ReLU's output. Where a
window's maximum is <= 0 both orders give it zero gradient; otherwise
both route it to the window's first maximum. The logits and every
gradient are byte-equal to the declared order unless the pool input
holds -0.0, where the sign of a zero maximum may differ; a conv output
is never -0.0, since its bias starts at +0.0 and no SGD or Adam step
turns +0.0 into -0.0. `backward` walks the same order reversed;
`specs`, `layers` and checkpoints keep the declared order.

A Conv2d directly followed by a MaxPool2d (through the ReLU before it,
if any) runs with it as one step: `conv.forward(x, bias=False)` returns
the (n, cout, Ho, Wo) view of its GEMM output, with no crop copy and no
bias, and `pool.forward(y, bias=conv.b)` reads its windows from that
view (only columns < (Wo // k) * k <= Wo, never the wrap columns) and
adds the bias at pooled size. In eval the pool takes the running
maximum of the unbiased windows and then adds b, which is exact: float
rounding is monotone, so max_i fl(x_i + b) == fl(max_i x_i + b); a ReLU
after the pool is then applied in place too. In training the winners
must be taken on biased values, because two distinct x_i can round to
one x_i + b (in float32 with b = 1.0, 0.0 and 2**-26 both give 1.0) and
the first of them takes the gradient. There the pool adds the bias
while it copies each strided window, from a contiguous pooled-size
bias array (a broadcast (c,) operand makes that strided add ~2x
slower), and the ReLU stays a layer of its own, whose mask backward
needs. Output and gradient bytes equal the unfused layers'. The step
enters through `Conv2d.forward` and `MaxPool2d.forward`, one call each
per `Model.forward`, and every `Conv2d.backward` follows its layer's
forward; an outside tracer that wraps those class methods relies on
both. The GEMM output is released as soon as the pool has read it.

Conv2d is im2col plus one GEMM (Chellapilla et al. 2006) over flat
rows. The input is padded into a zero buffer of Wp = W + 2p columns,
with spare rows so the last kernel offset stays in bounds, and viewed as
(n, cin, rows*Wp). Offset (ki, kj) reads the run that starts at
ki*Wp + kj and holds Ho*Wp elements at step `stride`: one long run per
(n, cin) rather than Ho runs of Wo. All offsets are one (n, cin, k, k,
Ho*Wp) view of the flat buffer, copied once into the (n, cin*k*k, Ho*Wp)
columns that meet w.reshape(cout, -1) in one batched matmul. The ndarray
constructor that builds the view refuses one reaching past the buffer,
so too few spare rows raise ValueError instead of reading stray memory.
The last Wp - Wo columns of each output row wrap into the next input
row; they are dropped before the bias add, or stay in the view a fused
pool reads. For stride s > 1 about 1 - 1/s of the GEMM columns are such
waste; no model here uses stride > 1, so one kernel serves every stride.
Backward rebuilds columns from the cached flat buffer instead of caching
them. The weight gradient views only the Ho*Wo real positions (tail
(Ho, Wo), steps (stride*Wp, stride)), so its GEMM has no wrap columns to
skip; it is computed as cols @ g.T, summed over the batch and
transposed, which is faster than g @ cols.T for these shapes. The input
gradient zero-extends the output gradient to Wp columns and, per
offset, writes w[:, :, ki, kj].T @ g where offset 0 reads in a zeroed
buffer shaped like the flat input, then adds that whole buffer as one
contiguous run shifted by ki*Wp + kj. The spare rows keep each nonzero
in its own (n, cin) row, and every other term is +0.0, which moves no
byte: a sum that starts at +0.0 is never -0.0 under round-to-nearest.

MaxPool2d takes the running maximum over the k*k strided slices. In
training it also records, per window, the offset of the first maximum
in row-major order in an unsigned array of the pooled shape (uint8 for
k <= 16): a later offset replaces it only with a strictly larger value.
Its backward scatters the gradient to that offset.

`Model.backward(g, input_grad=False)` stops at the first layer with
parameters: that layer fills its grads but skips its input gradient,
which training never uses.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from dataclasses import astuple, dataclass, fields

import numpy as np

from .data import replacing_open
from .errors import CheckpointError, ConfigError, DataError, NumericError, UsageError
from .rng import substream

# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------


class _Spec:
    """A layer kind's facts that need no layer built: `out_shape` checks
    the spec and its input shape, `param_shapes` gives its parameters'
    shapes. The dataclass fields, in order, are the kind's checkpoint
    ints; a kind with `infer_input` takes its first field from the
    incoming shape's leading dimension when parsed from a layer token."""

    infer_input = False

    def out_shape(self, i, shape):
        """Output shape of layer i; raises ConfigError on inconsistency."""
        return shape

    def param_shapes(self):
        """(weight shape, bias shape), the weight's fan-in its trailing
        dims; () for a kind without parameters."""
        return ()

    def param_count(self):
        """Parameter values the layer holds: weights plus bias."""
        return sum(math.prod(shape) for shape in self.param_shapes())


@dataclass(frozen=True)
class Conv2dSpec(_Spec):
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    infer_input = True

    def out_hw(self, h, w):
        k, st, p = self.kernel, self.stride, self.padding
        return (h + 2 * p - k) // st + 1, (w + 2 * p - k) // st + 1

    def out_shape(self, i, shape):
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ConfigError(f"layer {i}: conv kernel/stride must be >=1, padding >=0")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError(f"layer {i}: conv channel counts must be >=1")
        if len(shape) != 3 or shape[0] != self.in_channels:
            raise ConfigError(
                f"layer {i} (Conv2d): expected input channels {self.in_channels}, got shape {shape}"
            )
        ho, wo = self.out_hw(*shape[1:])
        if ho < 1 or wo < 1:
            raise ConfigError(f"layer {i} (Conv2d): empty output from input shape {shape}")
        return (self.out_channels, ho, wo)

    def param_shapes(self):
        k = self.kernel
        return (self.out_channels, self.in_channels, k, k), (self.out_channels,)


@dataclass(frozen=True)
class DenseSpec(_Spec):
    in_features: int
    out_features: int

    infer_input = True

    def out_shape(self, i, shape):
        if self.in_features < 1 or self.out_features < 1:
            raise ConfigError(f"layer {i}: dense feature counts must be >=1")
        if len(shape) != 1 or shape[0] != self.in_features:
            raise ConfigError(
                f"layer {i} (Dense): expected {self.in_features} input features, got shape {shape}"
            )
        return (self.out_features,)

    def param_shapes(self):
        return (self.out_features, self.in_features), (self.out_features,)


@dataclass(frozen=True)
class ReLUSpec(_Spec):
    pass


@dataclass(frozen=True)
class MaxPool2dSpec(_Spec):
    kernel: int

    def out_shape(self, i, shape):
        if self.kernel < 1:
            raise ConfigError(f"layer {i}: pool kernel must be >=1")
        if len(shape) != 3:
            raise ConfigError(f"layer {i} (MaxPool2d): needs [C,H,W] input, got {shape}")
        c, h, w = shape
        ho, wo = h // self.kernel, w // self.kernel
        if ho < 1 or wo < 1:
            raise ConfigError(f"layer {i} (MaxPool2d): empty output from input shape {shape}")
        return (c, ho, wo)


@dataclass(frozen=True)
class FlattenSpec(_Spec):
    def out_shape(self, i, shape):
        return (math.prod(shape),)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class _Layer:
    """A layer built from its spec; a kind is its spec (fields,
    `out_shape`, `param_shapes`), its layer class and one `LAYER_KINDS`
    row. The weight w and bias b take the spec's `param_shapes`: w
    He-normal from `rng` (zeros when `rng` is None), b zero. A kind
    without parameters keeps the empty defaults."""

    params = grads = ()

    def __init__(self, spec, rng, dtype):
        self.spec = spec
        shapes = spec.param_shapes()
        if shapes:
            w, b = shapes
            self.w = _he_normal(rng, w, math.prod(w[1:]), dtype)
            self.b = np.zeros(b, dtype=dtype)
            self.params = [self.w, self.b]
            self.grads = [None, None]

    def forward(self, x, train=True):
        raise NotImplementedError

    def backward(self, gy):
        raise NotImplementedError


def _offsets(k):
    """Kernel window offsets in row-major order."""
    return [(ki, kj) for ki in range(k) for kj in range(k)]


def _window(ki, kj, ho, wo, stride):
    """Index of the (ho, wo) input elements that kernel offset (ki, kj) meets."""
    return (
        slice(None),
        slice(None),
        slice(ki, ki + stride * ho, stride),
        slice(kj, kj + stride * wo, stride),
    )


def _he_normal(rng, shape, fan_in, dtype):
    """He-normal initial weights drawn from `rng`; zeros when `rng` is
    None, for a model whose parameters a checkpoint fills."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Conv2d(_Layer):
    _cache = None

    def _geometry(self, h, w):
        """(ho, wo, padded width wp, padded rows including spare ones)."""
        s = self.spec
        ho, wo = s.out_hw(h, w)
        wp = w + 2 * s.padding
        # the last offset's run ends here in the flat buffer
        end = (s.kernel - 1) * (wp + 1) + s.stride * (ho * wp - 1) + 1
        return ho, wo, wp, -(-end // wp)

    def _cols(self, flat, wp, tail, steps):
        """(n, cin*k*k, prod(tail)) columns of the flat padded input, row
        order that of w.reshape(cout, -1): offset (ki, kj) starts at
        ki*wp + kj and walks the tail axes by `steps`, all in one copy of
        one view. numpy refuses a view that reaches past the buffer."""
        n, c = flat.shape[:2]
        k = self.spec.kernel
        sn, sc, s1 = flat.strides
        view = np.ndarray((n, c, k, k, *tail), flat.dtype, buffer=flat, offset=0,
                          strides=(sn, sc, wp * s1, s1, *(st * s1 for st in steps)))
        return view.copy().reshape(n, c * k * k, -1)

    def forward(self, x, train=True, bias=True):
        """(n, cout, ho, wo) output. bias=False returns the GEMM output's
        view instead, wrap columns still in memory and no bias added: the
        MaxPool2d after this conv adds the bias at pooled size."""
        s = self.spec
        n, c, h, w = x.shape
        p = s.padding
        ho, wo, wp, rows = self._geometry(h, w)
        if ho < 1 or wo < 1:
            raise ConfigError(f"conv output would be empty for input {x.shape}")
        xp = np.zeros((n, c, rows, wp), dtype=x.dtype)
        xp[:, :, p : p + h, p : p + w] = x
        flat = xp.reshape(n, c, rows * wp)
        cols = self._cols(flat, wp, (ho * wp,), (s.stride,))
        out = np.matmul(self.w.reshape(s.out_channels, -1), cols)
        # columns wo..wp-1 of each output row wrap into the next input row
        out = out.reshape(n, s.out_channels, ho, wp)[..., :wo]
        if train:
            self._cache = (flat, x.shape)
        if not bias:
            return out
        out = np.ascontiguousarray(out)
        out += self.b[None, :, None, None]
        return out

    def backward(self, gy, input_grad=True):
        s = self.spec
        flat, (n, c, h, w) = self._cache
        p = s.padding
        ho, wo, wp, rows = self._geometry(h, w)
        g = gy.reshape(n, s.out_channels, ho * wo)
        cols = self._cols(flat, wp, (ho, wo), (s.stride * wp, s.stride))
        gw = np.matmul(cols, g.transpose(0, 2, 1)).sum(axis=0)
        self.grads = [gw.T.reshape(self.w.shape), gy.sum(axis=(0, 2, 3))]
        if not input_grad:
            return None
        g = np.zeros((n, s.out_channels, ho, wp), dtype=gy.dtype)
        g[..., :wo] = gy  # the wrap columns get zero gradient
        g = g.reshape(n, s.out_channels, ho * wp)
        # w2.T @ g one offset's rows at a time, each written where the
        # forward read them relative to offset 0 and added as one contiguous
        # run shifted by the offset; everything else added is +0.0
        gflat, prod = np.zeros_like(flat), np.zeros_like(flat)
        gf, pf = gflat.reshape(-1), prod.reshape(-1)
        span = s.stride * (ho * wp - 1) + 1
        for ki, kj in _offsets(s.kernel):
            base = ki * wp + kj
            np.matmul(self.w[:, :, ki, kj].T, g, out=prod[..., :span:s.stride])
            gf[base:] += pf[: pf.size - base]
        return gflat.reshape(n, c, rows, wp)[:, :, p : p + h, p : p + w]


class Dense(_Layer):
    _x = None

    def forward(self, x, train=True):
        if train:
            self._x = x
        return x @ self.w.T + self.b

    def backward(self, gy, input_grad=True):
        self.grads = [gy.T @ self._x, gy.sum(axis=0)]
        return gy @ self.w if input_grad else None


class ReLU(_Layer):
    _mask = None

    def forward(self, x, train=True):
        if train:
            self._mask = x > 0
        return np.maximum(x, x.dtype.type(0))

    def backward(self, gy):
        gx = gy * self._mask
        gx += 0.0  # a negative gradient times False is -0.0; store +0.0
        return gx


class MaxPool2d(_Layer):
    # stride == kernel, floor cropping on ragged edges
    _cache = None

    def forward(self, x, train=True, bias=None, relu=False):
        """Pooled x + bias, bias (c,) or None. relu=True (eval only) also
        clamps the pooled tensor at zero, in place."""
        k = self.spec.kernel
        ho, wo = x.shape[2] // k, x.shape[3] // k
        if ho < 1 or wo < 1:
            raise ConfigError(f"pool output would be empty for input {x.shape}")
        if not train:
            # max_i fl(x_i + b) == fl(max_i x_i + b): rounding is monotone
            out = x[_window(0, 0, ho, wo, k)].copy()
            for ki, kj in _offsets(k)[1:]:
                np.maximum(out, x[_window(ki, kj, ho, wo, k)], out=out)
            if bias is not None:
                out += bias[None, :, None, None]
            if relu:
                np.maximum(out, out.dtype.type(0), out=out)
            return out
        # winners are taken on biased values, since two x_i may round to
        # one x_i + b: the offset of each window's first maximum, which a
        # later offset replaces only with a strictly larger value
        x0 = x[_window(0, 0, ho, wo, k)]
        if bias is None:
            out = x0.copy()
        else:
            # a contiguous pooled-size bias: a strided read that adds it
            # costs about a strided copy, half what a broadcast (c,) bias costs
            b = np.empty(x0.shape, dtype=x.dtype)
            b[...] = bias[None, :, None, None]
            out = x0 + b
        idx = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
        buf, gt = np.empty_like(out), np.empty(out.shape, dtype=bool)
        for o, (ki, kj) in enumerate(_offsets(k)[1:], 1):
            # one strided read (adding the bias on the way), then the compare
            # and both maxima run on contiguous operands
            xw = x[_window(ki, kj, ho, wo, k)]
            if bias is None:
                buf[...] = xw
            else:
                np.add(xw, b, out=buf)
            np.greater(buf, out, out=gt)
            np.maximum(idx, gt * idx.dtype.type(o), out=idx)
            np.maximum(out, buf, out=out)
        self._cache = (idx, x.shape)
        return out

    def backward(self, gy):
        # the first maximum of each window in row-major order takes the gradient
        k = self.spec.kernel
        idx, shape = self._cache
        ho, wo = idx.shape[2:]
        gx = np.zeros(shape, dtype=gy.dtype)
        for o, (ki, kj) in enumerate(_offsets(k)):
            np.multiply(gy, idx == o, out=gx[_window(ki, kj, ho, wo, k)])
        gx += 0.0  # a negative gradient times False is -0.0; store +0.0
        return gx


class Flatten(_Layer):
    _shape = None

    def forward(self, x, train=True):
        if train:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gy):
        return gy.reshape(self._shape)


# one row per layer kind (see the module docstring)
LayerKind = namedtuple("LayerKind", "token spec layer kind_id")
LAYER_KINDS = (
    LayerKind("conv", Conv2dSpec, Conv2d, 1),
    LayerKind("dense", DenseSpec, Dense, 2),
    LayerKind("relu", ReLUSpec, ReLU, 3),
    LayerKind("pool", MaxPool2dSpec, MaxPool2d, 4),
    LayerKind("flatten", FlattenSpec, Flatten, 5),
)
_BY_TOKEN = {k.token: k for k in LAYER_KINDS}
_BY_SPEC = {k.spec: k for k in LAYER_KINDS}
_BY_ID = {k.kind_id: k for k in LAYER_KINDS}


def parse_layers(text, image_size):
    """Layer string -> spec list for a (1, image_size, image_size) input.

    Tokens are comma-separated `name[:int...]`, with name a LAYER_KINDS
    token; the ints fill the spec's fields in order, after the leading
    in_channels/in_features, which the incoming shape supplies. Omitted
    trailing fields take their defaults: conv:<out>:<kernel>[:<stride>
    [:<padding>]], relu, pool:<kernel>, flatten, dense:<out>.
    """
    shape = (1, image_size, image_size)
    specs = []
    for i, token in enumerate(t.strip() for t in text.split(",")):
        name, *args = token.split(":")
        if name not in _BY_TOKEN:
            raise ConfigError(f"layer {i}: unknown layer token {token!r}")
        cls = _BY_TOKEN[name].spec
        lead = [shape[0]] if cls.infer_input else []
        try:
            spec = cls(*lead, *map(int, args))
        except (TypeError, ValueError):
            raise ConfigError(f"layer {i}: malformed layer token {token!r}") from None
        shape = spec.out_shape(i, shape)
        specs.append(spec)
    return specs


def format_layers(specs):
    """Spec list -> the layer string that parse_layers reads back to it,
    every field but the inferred leading one written."""
    return ",".join(":".join([_BY_SPEC[type(s)].token, *map(str, astuple(s)[s.infer_input :])])
                    for s in specs)


def output_shape(specs, input_shape):
    """Validate a layer stack and return its output shape, building
    nothing; raises ConfigError on the first bad or inconsistent layer."""
    if not specs:
        raise ConfigError("model needs at least one layer")
    shape = input_shape
    for i, spec in enumerate(specs):
        if type(spec) not in _BY_SPEC:
            raise ConfigError(f"layer {i}: unknown layer spec {spec!r}")
        shape = spec.out_shape(i, shape)
    if len(shape) != 1:
        raise ConfigError(f"model must end with a flat logit vector, got shape {shape}")
    return shape


def _execution_plan(specs):
    """Forward steps in run order, each a (conv, i, relu) triple of layer
    indices. For a MaxPool2d i, conv is the Conv2d directly before it (or
    before the ReLU before it), run as one step with the pool, and relu a
    ReLU directly before or after it, which runs after it on the k*k
    smaller tensor. Otherwise, and where there is no such layer, None."""
    kinds = [type(spec) for spec in specs] + [None, None]
    plan, i = [], 0
    while i < len(specs):
        conv = relu = None
        if kinds[i] is Conv2dSpec and (
            kinds[i + 1] is MaxPool2dSpec or kinds[i + 1 : i + 3] == [ReLUSpec, MaxPool2dSpec]
        ):
            conv, i = i, i + 1
        if kinds[i] is ReLUSpec and kinds[i + 1] is MaxPool2dSpec:
            relu, i = i, i + 1
        nxt = i + 1
        if kinds[i] is MaxPool2dSpec and relu is None and kinds[i + 1] is ReLUSpec:
            relu, nxt = i + 1, i + 2
        plan.append((conv, i, relu))
        i = nxt
    return plan


class Model:
    """Ordered layer stack; shape-checked at build time.

    input_shape is (channels, height, width). All parameters are
    initialized from substream(seed, 'init', layer_index); seed=None
    draws no stream and leaves them zero, for a checkpoint to fill.
    """

    def __init__(self, specs, input_shape, seed=0, dtype=np.float32):
        self.specs = list(specs)
        self.input_shape = tuple(int(d) for d in input_shape)
        self.dtype = np.dtype(dtype)
        self.output_shape = output_shape(self.specs, self.input_shape)
        self.layers = [
            _BY_SPEC[type(spec)].layer(spec, None if seed is None else substream(seed, "init", i), self.dtype)
            for i, spec in enumerate(self.specs)
        ]
        self._first_trained = next((i for i, l in enumerate(self.layers) if l.params), -1)
        self._plan = _execution_plan(self.specs)
        self._order = [i for step in self._plan for i in step if i is not None]

    def parameters(self):
        return [(f"layer{i}.{name}", p) for i, layer in enumerate(self.layers)
                for name, p in zip("wb", layer.params)]

    def gradients(self):
        out = []
        for layer in self.layers:
            out.extend(layer.grads)
        return out

    def forward(self, x, train=True):
        """Logits for a batch. train=False writes no layer cache, so it
        may run between a training forward and its backward."""
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ConfigError(
                f"input shape {x.shape} does not match model input [batch, {self.input_shape}]"
            )
        for conv, i, relu in self._plan:
            if conv is None:
                x = self.layers[i].forward(x, train=train)
            else:
                # rebinding x frees the conv's GEMM output once the pool has read it
                c = self.layers[conv]
                x = c.forward(x, train=train, bias=False)
                fold = relu is not None and not train  # eval: the pool applies the ReLU
                x = self.layers[i].forward(x, train=train, bias=c.b, relu=fold)
                if fold:
                    continue
            if relu is not None:
                x = self.layers[relu].forward(x, train=train)
        return x

    def backward(self, glogits, input_grad=True):
        """Fill every layer's grads; return the input gradient.

        With input_grad=False the pass stops at the first layer that has
        parameters: it fills its grads without computing its input
        gradient, and backward returns None.
        """
        g = np.asarray(glogits, dtype=self.dtype)
        for i in reversed(self._order):
            layer = self.layers[i]
            if not input_grad and i == self._first_trained:
                layer.backward(g, input_grad=False)
                return None
            g = layer.backward(g)
        return g if input_grad else None


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

SOFTMAX_CE = "softmax_ce"
BCE_LOGITS = "bce_logits"


def _check_batch(logits, class_idx):
    """(logits, int64 class indices) of one batch: UsageError for an empty
    batch, DataError unless there is one index per row, in [0, k)."""
    logits = np.asarray(logits)
    n, k = logits.shape
    if n < 1:
        raise UsageError("empty batch")
    idx = np.asarray(class_idx, dtype=np.int64)
    if idx.shape != (n,):  # a single index would broadcast over every row
        raise DataError(f"{idx.size} class indices for {n} rows of logits")
    if idx.min() < 0 or idx.max() >= k:
        raise DataError(f"class index out of range [0,{k})")
    return logits, idx


def softmax_cross_entropy(logits, class_idx):
    """Mean cross-entropy over the batch; grad w.r.t. logits."""
    logits, idx = _check_batch(logits, class_idx)
    n = len(logits)
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    loss = float(np.mean(lse - logits[np.arange(n), idx]))
    p = np.exp(logits - lse[:, None])
    p[np.arange(n), idx] -= 1.0
    return loss, (p / n).astype(logits.dtype)


def bce_with_logits(logits, class_idx):
    """Mean over batch*classes of binary cross-entropy on raw logits, each
    row's target the one-hot row of its class index."""
    logits, idx = _check_batch(logits, class_idx)
    n, k = logits.shape
    t = np.zeros(logits.shape, dtype=logits.dtype)
    t[np.arange(n), idx] = 1.0
    per = np.maximum(logits, 0) - logits * t + np.log1p(np.exp(-np.abs(logits)))
    loss = float(per.mean())
    e = np.exp(-np.abs(logits))
    sig = np.where(logits >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return loss, ((sig - t) / (n * k)).astype(logits.dtype)


# loss kind -> function (logits, class indices) -> (mean loss, grad w.r.t. logits)
LOSSES = {SOFTMAX_CE: softmax_cross_entropy, BCE_LOGITS: bce_with_logits}
LOSS_KINDS = tuple(LOSSES)


def loss_forward_backward(kind, logits, class_idx):
    if kind not in LOSSES:
        raise ConfigError(f"unknown loss kind {kind!r}")
    return LOSSES[kind](logits, class_idx)


def predict_batch(model, inputs):
    """Logits plus argmax class per row; ties go to the lowest index."""
    logits = model.forward(inputs, train=False)
    return logits, np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _Optimizer:
    """Shared step: make state_per_param zero tensors per parameter on the
    first step, abort on a non-finite gradient before anything changes,
    count the step, then `_update`. An optimizer's checkpoint record is
    its kind_id, its hyperparameters (the constructor's arguments, in
    order) and its state tensors."""

    def __init__(self, lr):
        if not lr > 0:  # also rejects NaN
            raise ConfigError("learning_rate must be > 0")
        self.lr = float(lr)
        self.t = 0
        self.state = None  # one tuple of state_per_param tensors per parameter

    def step(self, params, grads):
        if self.state is None:
            self.state = [tuple(np.zeros_like(p) for _ in range(self.state_per_param)) for p in params]
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise NumericError("non-finite gradient; step aborted")
        self.t += 1
        self._update(params, grads)


class SGD(_Optimizer):
    kind = "sgd"
    kind_id = 1
    hyperparameters = ("lr", "momentum")
    state_per_param = 1  # velocity

    def __init__(self, lr, momentum=0.0):
        super().__init__(lr)
        if not momentum >= 0:
            raise ConfigError("momentum must be >= 0")
        self.momentum = float(momentum)

    def _update(self, params, grads):
        for p, g, (v,) in zip(params, grads, self.state):
            if self.momentum != 0.0:
                v *= self.momentum
                v += g
                p -= self.lr * v
            else:
                p -= self.lr * g


class Adam(_Optimizer):
    kind = "adam"
    kind_id = 2
    hyperparameters = ("lr", "beta1", "beta2", "epsilon")
    state_per_param = 2  # m, v

    def __init__(self, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
        super().__init__(lr)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigError("betas must be in [0,1)")
        if not epsilon > 0:
            raise ConfigError("epsilon must be > 0")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)

    def _update(self, params, grads):
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, (m, v) in zip(params, grads, self.state):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


# optimizer kind -> class; a class's `kind_id` names it in checkpoints
OPTIMIZERS = {cls.kind: cls for cls in (SGD, Adam)}


def make_optimizer(kind, **values):
    """An optimizer of `kind`, built from the entries of `values` that its
    `hyperparameters` name; the others are ignored."""
    if kind not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    cls = OPTIMIZERS[kind]
    return cls(**{name: values[name] for name in cls.hyperparameters if name in values})


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

GRAD_CHECK_H = 1e-6  # central-difference step
GRAD_CHECK_TOL = 1e-5  # largest relative error that passes


def _fd_max_rel_err(flat, gflat, loss_value, h):
    """Central differences over every entry of `flat` (perturbed in place
    and restored) against the analytic gradient `gflat`."""
    numeric = np.empty_like(gflat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_value()
        flat[i] = orig - h
        lm = loss_value()
        flat[i] = orig
        numeric[i] = (lp - lm) / (2.0 * h)
    # tensor-level normalization keeps near-zero entries from dominating
    denom = max(np.abs(gflat).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(gflat - numeric).max() / denom)


def _grad_check_setup(model, inputs, class_idx, loss_kind):
    """One training forward/backward (fills the layer grads).

    Returns (x, input gradient, loss_value), where x is a private copy
    of the inputs and loss_value() re-evaluates the loss on x in eval
    mode, which leaves the layer caches alone.
    """
    x = np.array(inputs, dtype=model.dtype)
    _, glogits = loss_forward_backward(loss_kind, model.forward(x), class_idx)
    gx = model.backward(glogits)

    def loss_value():
        return loss_forward_backward(loss_kind, model.forward(x, train=False), class_idx)[0]

    return x, gx, loss_value


def grad_check_model(model, inputs, class_idx, loss_kind, h=GRAD_CHECK_H, tol=GRAD_CHECK_TOL):
    """Central finite differences vs analytic gradients, per parameter tensor.

    The model should be built with dtype float64; returns a list of
    dicts {name, max_rel_err, passed}.
    """
    _, _, loss_value = _grad_check_setup(model, inputs, class_idx, loss_kind)
    analytic = [g.copy() for g in model.gradients()]
    report = []
    for (name, p), ga in zip(model.parameters(), analytic):
        max_rel = _fd_max_rel_err(p.reshape(-1), ga.reshape(-1), loss_value, h)
        report.append({"name": name, "max_rel_err": max_rel, "passed": max_rel < tol})
    return report


def grad_check_input(model, inputs, class_idx, loss_kind, h=GRAD_CHECK_H):
    """Max relative error of the input gradient, same scheme as above."""
    x, gx, loss_value = _grad_check_setup(model, inputs, class_idx, loss_kind)
    return _fd_max_rel_err(x.reshape(-1), gx.reshape(-1), loss_value, h)


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

_MAGIC = b"SQLN"
_VERSION = 1
_OPTIMIZER_IDS = {cls.kind_id: cls for cls in OPTIMIZERS.values()}
_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


def _write_tensor(f, arr):
    a = np.ascontiguousarray(arr)
    code = a.dtype.itemsize
    if code not in _DTYPE_CODES or a.dtype.kind != "f":
        raise CheckpointError(f"unsupported tensor dtype {a.dtype}")
    f.write(struct.pack("<I", a.ndim))
    f.write(struct.pack(f"<{a.ndim}I", *a.shape))
    f.write(struct.pack("<B", code))
    f.write(a.astype(_DTYPE_CODES[code], copy=False).tobytes())


class _Reader:
    def __init__(self, data):
        self.data = data
        self.off = 0

    def take(self, n, what):
        if self.off + n > len(self.data):
            raise CheckpointError(f"truncated checkpoint: need {n} bytes for {what} at offset {self.off}")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u8(self, what):
        return struct.unpack("<B", self.take(1, what))[0]

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]


def _read_tensor(r, what):
    ndim = r.u32(f"{what} rank")
    shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim, f"{what} dims"))
    code = r.u8(f"{what} dtype")
    if code not in _DTYPE_CODES:
        raise CheckpointError(f"bad dtype code {code} at offset {r.off - 1}")
    dt = _DTYPE_CODES[code]
    count = math.prod(shape)
    raw = r.take(count * dt.itemsize, f"{what} payload")
    return np.frombuffer(raw, dtype=dt).reshape(shape).copy()


def checkpoint_save(model, optimizer, path):
    """Write model + optimizer state to `path` in the SQLN format, through
    a temp file that replaces `path` only once it is complete."""
    with replacing_open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<3I", *model.input_shape))
        f.write(struct.pack("<I", len(model.specs)))
        for spec in model.specs:
            ints = astuple(spec)
            f.write(struct.pack("<BB", _BY_SPEC[type(spec)].kind_id, len(ints)))
            f.write(struct.pack(f"<{len(ints)}i", *ints))
        params = [p for _, p in model.parameters()]
        f.write(struct.pack("<I", len(params)))
        for p in params:
            _write_tensor(f, p)
        if optimizer is None:
            f.write(struct.pack("<B", 0))
            f.write(struct.pack("<Q", 0))
            return
        hp = [getattr(optimizer, name) for name in optimizer.hyperparameters]
        f.write(struct.pack("<BBB", 1, optimizer.kind_id, len(hp)))
        f.write(struct.pack(f"<{len(hp)}d", *hp))
        tensors = [t for per_param in optimizer.state or () for t in per_param]
        f.write(struct.pack("<I", len(tensors)))
        for t in tensors:
            _write_tensor(f, t)
        f.write(struct.pack("<Q", optimizer.t))


def checkpoint_load(path):
    """Read a SQLN checkpoint; returns (float32 model, optimizer or None)."""
    with open(path, "rb") as f:
        data = f.read()
    r = _Reader(data)
    if r.take(4, "magic") != _MAGIC:
        raise CheckpointError("bad magic bytes at offset 0")
    version = r.u32("version")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    input_shape = struct.unpack("<3I", r.take(12, "input shape"))
    n_layers = r.u32("layer count")
    specs = []
    for _ in range(n_layers):
        kind_id = r.u8("layer kind")
        if kind_id not in _BY_ID:
            raise CheckpointError(f"unknown layer kind id {kind_id} at offset {r.off - 1}")
        cls = _BY_ID[kind_id].spec
        n_ints = r.u8("layer param count")
        if n_ints != len(fields(cls)):
            raise CheckpointError(f"layer kind {cls.__name__} takes {len(fields(cls))} ints, got {n_ints}")
        specs.append(cls(*struct.unpack(f"<{n_ints}i", r.take(4 * n_ints, "layer params"))))
    try:
        output_shape(specs, input_shape)
    except ConfigError as e:
        raise CheckpointError(f"bad layer table: {e}") from None
    # each stored value takes at least 4 bytes; check before allocating
    values = sum(spec.param_count() for spec in specs)
    if 4 * values > len(data) - r.off:
        raise CheckpointError(
            f"layer table implies {values} parameter values, more than the "
            f"{len(data) - r.off} bytes after offset {r.off} can hold"
        )
    model = Model(specs, input_shape, seed=None)
    n_params = r.u32("parameter count")
    params = [p for _, p in model.parameters()]
    if n_params != len(params):
        raise CheckpointError(f"parameter count {n_params} does not match layer table ({len(params)})")
    for i, p in enumerate(params):
        t = _read_tensor(r, f"parameter {i}")
        if t.shape != p.shape:
            raise CheckpointError(f"parameter shape mismatch: expected {p.shape}, got {t.shape}")
        p[...] = t  # casts a float64 file to the model's float32
    optimizer = None
    if r.u8("optimizer presence flag"):
        opt_id = r.u8("optimizer kind")
        if opt_id not in _OPTIMIZER_IDS:
            raise CheckpointError(f"unknown optimizer id {opt_id} at offset {r.off - 1}")
        cls = _OPTIMIZER_IDS[opt_id]
        n_hp = r.u8("hyperparameter count")
        if n_hp != len(cls.hyperparameters):
            raise CheckpointError(
                f"optimizer {cls.kind} takes {len(cls.hyperparameters)} hyperparameters, got {n_hp}"
            )
        hp = struct.unpack(f"<{n_hp}d", r.take(8 * n_hp, "hyperparameters"))
        try:
            optimizer = cls(*hp)
        except ConfigError as e:
            raise CheckpointError(f"bad optimizer hyperparameters {hp}: {e}") from None
        n_tensors = r.u32("optimizer tensor count")
        k = cls.state_per_param
        if n_tensors not in (0, k * len(params)):
            raise CheckpointError("optimizer state tensor count mismatch")
        tensors = [_read_tensor(r, f"optimizer tensor {i}") for i in range(n_tensors)]
        for i, t in enumerate(tensors):
            if t.shape != params[i // k].shape:
                raise CheckpointError(
                    f"optimizer state shape {t.shape} does not mirror parameter {params[i // k].shape}"
                )
        if tensors:
            optimizer.state = [tuple(tensors[i : i + k]) for i in range(0, n_tensors, k)]
    step = r.u64("step counter")
    if optimizer is not None:
        optimizer.t = step
    if r.off != len(data):
        raise CheckpointError(
            f"{len(data) - r.off} trailing bytes after the step counter at offset {r.off}"
        )
    return model, optimizer
