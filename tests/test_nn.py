import math
import weakref

import numpy as np
import pytest

from daylearn import nn
from daylearn.config import parse_layers
from daylearn.errors import ConfigError, DataError, NumericError, UsageError
from daylearn.rng import substream


def small_specs():
    return [
        nn.Conv2dSpec(1, 2, 3, 1, 1),
        nn.ReLUSpec(),
        nn.MaxPool2dSpec(2),
        nn.FlattenSpec(),
        nn.DenseSpec(2 * 4 * 4, 3),
    ]


def small_model(seed=0, dtype=np.float64):
    return nn.Model(small_specs(), (1, 8, 8), seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------


def test_conv_shape_arithmetic():
    m = nn.Model(
        [nn.Conv2dSpec(1, 8, 3, 1, 1), nn.FlattenSpec(), nn.DenseSpec(8 * 64 * 64, 2)],
        (1, 64, 64),
        seed=0,
    )
    out = m.layers[0].forward(np.zeros((1, 1, 64, 64), dtype=np.float32))
    assert out.shape == (1, 8, 64, 64)


def test_conv_hand_example():
    m = nn.Model(
        [nn.Conv2dSpec(1, 1, 2, 1, 0), nn.FlattenSpec(), nn.DenseSpec(1, 1)],
        (1, 2, 2),
        dtype=np.float64,
    )
    conv = m.layers[0]
    conv.w[...] = np.array([[[[1, 0], [0, 1]]]], dtype=np.float64)
    conv.b[...] = 0.0
    x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float64)
    out = conv.forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 5.0  # 1*1 + 0*2 + 0*3 + 1*4


def test_relu_forward_backward():
    layer = nn.ReLU(nn.ReLUSpec(), None, np.float64)
    x = np.array([[-1.0, 2.0, 0.0]])
    assert np.array_equal(layer.forward(x), [[0.0, 2.0, 0.0]])
    layer.forward(np.array([[-1.0, 2.0]]))
    gx = layer.backward(np.array([[1.0, 1.0]]))
    assert np.array_equal(gx, [[0.0, 1.0]])


def test_relu_backward_bytes_match_select():
    # masked-out negative gradients must come back as +0.0, not -0.0
    layer = nn.ReLU(nn.ReLUSpec(), None, np.float32)
    rng = substream(7, "relu")
    layer.forward(rng.integers(-1, 2, size=(4, 3, 8, 8)).astype(np.float32))
    gy = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    gy[0] = 0.0
    gx = layer.backward(gy)
    assert gx.tobytes() == np.where(layer._mask, gy, np.float32(0)).tobytes()


def test_dense_zero_upstream_gives_zero_grads():
    layer = nn.Dense(nn.DenseSpec(3, 2), substream(0, "t"), np.float64)
    layer.forward(np.ones((4, 3)))
    layer.backward(np.zeros((4, 2)))
    assert all(np.all(g == 0) for g in layer.grads)


def test_maxpool_first_index_tie_and_backward():
    layer = nn.MaxPool2d(nn.MaxPool2dSpec(2), None, np.float64)
    x = np.array([[[[5.0, 5.0], [1.0, 2.0]]]])
    out = layer.forward(x)
    assert out[0, 0, 0, 0] == 5.0
    gx = layer.backward(np.ones((1, 1, 1, 1)))
    # tie resolved to the first (row-major) occurrence
    assert np.array_equal(gx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_forward_shape_mismatch_raises():
    m = small_model()
    with pytest.raises(ConfigError):
        m.forward(np.zeros((2, 1, 7, 7)))


def test_build_rejects_inconsistent_stack():
    with pytest.raises(ConfigError, match="layer 1"):
        nn.Model([nn.Conv2dSpec(1, 4, 3, 1, 1), nn.Conv2dSpec(8, 4, 3, 1, 1)], (1, 8, 8))
    with pytest.raises(ConfigError):
        nn.Model([nn.FlattenSpec(), nn.DenseSpec(10, 3)], (1, 8, 8))
    with pytest.raises(ConfigError):
        nn.Model([nn.Conv2dSpec(1, 4, 3)], (1, 8, 8))  # must end flat


# ---------------------------------------------------------------------------
# im2col conv and strided max-pool against loop references
# ---------------------------------------------------------------------------


def _reference_conv(spec, w, b, x, gy):
    """Per-offset einsum convolution: (out, gw, gb, gx)."""
    p, st, k = spec.padding, spec.stride, spec.kernel
    ho, wo = gy.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros(gy.shape) + b[None, :, None, None]
    gw, gxp = np.zeros_like(w), np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            win = (slice(None), slice(None), slice(ki, ki + st * ho, st), slice(kj, kj + st * wo, st))
            out += np.einsum("ncij,oc->noij", xp[win], w[:, :, ki, kj])
            gw[:, :, ki, kj] = np.einsum("noij,ncij->oc", gy, xp[win])
            gxp[win] += np.einsum("noij,oc->ncij", gy, w[:, :, ki, kj])
    h, wd = x.shape[2:]
    return out, gw, gy.sum(axis=(0, 2, 3)), gxp[:, :, p : p + h, p : p + wd]


@pytest.mark.parametrize("ci,co,k,st,p,hw", [
    (1, 16, 3, 1, 1, 12), (3, 4, 3, 1, 1, 9), (2, 3, 3, 2, 1, 9), (2, 3, 2, 2, 0, 8), (3, 2, 1, 1, 0, 5),
])
def test_conv_matches_einsum_reference(ci, co, k, st, p, hw):
    _check_conv_against_reference(ci, co, k, st, p, hw, hw)


@pytest.mark.parametrize("ci,co,k,st,p,h,w", [
    (2, 3, 2, 2, 0, 8, 9),  # more than half of each GEMM row is wrap columns
    (2, 3, 3, 2, 1, 9, 11),
    (1, 2, 3, 3, 2, 10, 7),
    (2, 2, 3, 1, 0, 5, 12),
    (3, 2, 1, 1, 0, 4, 6),
])
def test_conv_matches_einsum_reference_non_square(ci, co, k, st, p, h, w):
    _check_conv_against_reference(ci, co, k, st, p, h, w)


def _check_conv_against_reference(ci, co, k, st, p, h, w):
    spec = nn.Conv2dSpec(ci, co, k, st, p)
    conv = nn.Conv2d(spec, substream(1, "conv"), np.float64)
    conv.b[...] = substream(2, "bias").standard_normal(co)
    rng = substream(3, "x")
    x = rng.standard_normal((3, ci, h, w))
    out = conv.forward(x)
    gy = rng.standard_normal(out.shape)
    gx = conv.backward(gy)
    ref_out, ref_gw, ref_gb, ref_gx = _reference_conv(spec, conv.w, conv.b, x, gy)
    # only the summation order differs from the reference
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.grads[0], ref_gw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv.grads[1], ref_gb, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gx, ref_gx, rtol=1e-12, atol=1e-12)
    assert out.shape == ref_out.shape and gx.shape == x.shape


def _per_offset_conv(conv, x, gy):
    """The conv as one strided copy or add per kernel offset, the byte
    oracle for the one-copy column views and the shifted contiguous adds:
    (output, unbiased GEMM output view, gw, gb, gx)."""
    s = conv.spec
    k, st, p = s.kernel, s.stride, s.padding
    n, c, h, w = x.shape
    ho, wo, wp, rows = conv._geometry(h, w)
    xp = np.zeros((n, c, rows, wp), dtype=x.dtype)
    xp[:, :, p : p + h, p : p + w] = x
    flat = xp.reshape(n, c, rows * wp)
    span = st * (ho * wp - 1) + 1
    slices = [(ki, kj, slice(ki * wp + kj, ki * wp + kj + span, st)) for ki, kj in nn._offsets(k)]
    cols = np.empty((n, c, k, k, ho * wp), dtype=x.dtype)
    for ki, kj, sl in slices:
        cols[:, :, ki, kj] = flat[..., sl]
    gemm = np.matmul(conv.w.reshape(s.out_channels, -1), cols.reshape(n, c * k * k, ho * wp))
    gemm = gemm.reshape(n, s.out_channels, ho, wp)[..., :wo]
    out = gemm + conv.b[None, :, None, None]
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for ki, kj in nn._offsets(k):
        cols[:, :, ki, kj] = xp[nn._window(ki, kj, ho, wo, st)]
    g = gy.reshape(n, s.out_channels, ho * wo)
    gw = np.matmul(cols.reshape(n, c * k * k, ho * wo), g.transpose(0, 2, 1)).sum(axis=0)
    g = np.zeros((n, s.out_channels, ho, wp), dtype=gy.dtype)
    g[..., :wo] = gy
    g = g.reshape(n, s.out_channels, ho * wp)
    gflat = np.zeros_like(flat)
    for ki, kj, sl in slices:
        gflat[..., sl] += np.matmul(conv.w[:, :, ki, kj].T, g)
    gx = gflat.reshape(n, c, rows, wp)[:, :, p : p + h, p : p + w]
    return out, gemm, gw.T.reshape(conv.w.shape), gy.sum(axis=(0, 2, 3)), gx


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("st", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("ci,h,w", [(1, 9, 11), (3, 8, 7)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_bytes_match_per_offset_oracle(k, st, p, ci, h, w, dtype):
    conv = nn.Conv2d(nn.Conv2dSpec(ci, 5, k, st, p), substream(1, "conv", k), dtype)
    rng = substream(k, "conv-oracle", st, p, ci)
    conv.b[...] = rng.standard_normal(5)
    x = rng.standard_normal((3, ci, h, w)).astype(dtype)
    gy = rng.standard_normal((3, 5) + conv.spec.out_hw(h, w)).astype(dtype)
    gy[1] = -0.0  # every product for that image is a signed zero
    ref_out, ref_gemm, ref_gw, ref_gb, ref_gx = _per_offset_conv(conv, x, gy)
    assert conv.forward(x, train=False).tobytes() == ref_out.tobytes()
    gemm = conv.forward(x, bias=False)
    assert gemm.shape == ref_gemm.shape and gemm.tobytes() == ref_gemm.tobytes()
    out = conv.forward(x)
    assert out.dtype == dtype and out.tobytes() == ref_out.tobytes()
    gx = conv.backward(gy)
    assert gx.shape == x.shape and gx.tobytes() == ref_gx.tobytes()
    for got, want in zip(conv.grads, (ref_gw, ref_gb)):
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k,st,p", [(3, 1, 1), (3, 2, 1), (2, 3, 0), (1, 1, 0)])
def test_conv_column_view_refuses_a_buffer_one_row_short(k, st, p):
    # the forward's column view is bounds-checked: a `rows` too small for
    # the last offset's reads raises instead of reading past the buffer
    conv = nn.Conv2d(nn.Conv2dSpec(2, 3, k, st, p), substream(1, "conv"), np.float32)
    ho, wo, wp, rows = conv._geometry(9, 11)
    conv._cols(np.zeros((2, 2, rows * wp), dtype=np.float32), wp, (ho * wp,), (st,))
    with pytest.raises(ValueError):
        conv._cols(np.zeros((2, 2, (rows - 1) * wp), dtype=np.float32), wp, (ho * wp,), (st,))


@pytest.mark.parametrize("k,hw", [(2, 8), (2, 9), (3, 8), (4, 10)])
def test_maxpool_matches_argmax_reference(k, hw):
    # small integers give many ties, exact zeros and negative windows
    x = substream(k, "pool", hw).integers(-2, 3, size=(2, 3, hw, hw)).astype(np.float64)
    layer = nn.MaxPool2d(nn.MaxPool2dSpec(k), None, np.float64)
    out = layer.forward(x)
    gy = substream(k, "gy", hw).standard_normal(out.shape)
    gx = layer.backward(gy)
    n, c, ho, wo = out.shape
    win = x[:, :, : ho * k, : wo * k].reshape(n, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(n, c, ho, wo, k * k)
    idx = np.argmax(win, axis=-1)
    assert out.tobytes() == np.take_along_axis(win, idx[..., None], axis=-1)[..., 0].tobytes()
    gwin = np.zeros(win.shape)
    np.put_along_axis(gwin, idx[..., None], gy[..., None], axis=-1)
    ref = np.zeros(x.shape)
    ref[:, :, : ho * k, : wo * k] = (
        gwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho * k, wo * k)
    )
    assert gx.tobytes() == ref.tobytes()


def _first_max_pool(x, k, gy):
    """Loop reference: (out, gx) with each window's gradient on its first
    row-major maximum; every other input entry, ragged edges included, +0.0."""
    n, c, ho, wo = gy.shape
    out = np.empty(gy.shape, dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=gy.dtype)
    for b, ch, i, j in np.ndindex(n, c, ho, wo):
        best = (i * k, j * k)
        for di, dj in np.ndindex(k, k):
            if x[b, ch, i * k + di, j * k + dj] > x[(b, ch) + best]:
                best = (i * k + di, j * k + dj)
        out[b, ch, i, j] = x[(b, ch) + best]
        gx[(b, ch) + best] = gy[b, ch, i, j] + 0.0
    return out, gx


@pytest.mark.parametrize("k,h,w", [(1, 3, 4), (2, 8, 9), (2, 9, 9), (3, 8, 7), (3, 10, 11),
                                   (4, 10, 9), (17, 35, 36)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_first_max_reference(k, h, w, dtype):
    # few distinct values: ties, +0.0 next to -0.0, all-negative windows;
    # k = 17 has 289 offsets, more than an 8-bit winner index holds
    rng = substream(k, "pool-ref", h, w)
    x = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0], dtype=dtype), size=(2, 3, h, w))
    x[0, 0] = -1.0  # windows whose maximum is reached everywhere
    x[1, 2, -1, -1] = 9.0  # a maximum in the cropped edge is never a winner
    layer = nn.MaxPool2d(nn.MaxPool2dSpec(k), None, dtype)
    out = layer.forward(x)
    gy = rng.standard_normal(out.shape).astype(dtype)
    gy[0, 1] = -0.0
    ref_out, ref_gx = _first_max_pool(x, k, gy)
    # np.maximum may return either zero of a +0.0/-0.0 tie, so compare values
    assert np.array_equal(out, ref_out)
    gx = layer.backward(gy)
    assert gx.dtype == gy.dtype and gx.tobytes() == ref_gx.tobytes()
    assert layer.backward(gy).tobytes() == gx.tobytes()  # backward leaves its cache


# ---------------------------------------------------------------------------
# eval mode and execution order
# ---------------------------------------------------------------------------

BENCH_STACKS = [
    "conv:16:3:1:1,relu,pool:2,conv:16:3:1:1,relu,pool:2,flatten,dense:3",
    "conv:4:3:1:1,relu,pool:4,flatten,dense:4",
]


def _bench_model(layers, seed=0):
    return nn.Model(parse_layers(layers, 32), (1, 32, 32), seed=seed, dtype=np.float64)


def _tied_inputs(seed, n):
    # integer pixels (ties everywhere), zero rows and a zero block
    x = substream(seed, "tied").integers(-1, 2, size=(n, 1, 32, 32)).astype(np.float64)
    x[:, :, :4] = 0.0
    x[0, :, 8:16, 8:16] = 0.0
    return x


def _layer_state(model):
    names = ("_cache", "_mask", "_x", "_shape")
    return [getattr(layer, a, None) for layer in model.layers for a in names]


# (layers, image size): a ragged pool:3 after a padding-0 conv, a ReLU with
# no pool after it, a conv->pool with no ReLU, a stride-2 conv before a
# pool, pool:1, and two conv->pool blocks with the ReLU on either side
ORDER_STACKS = [(layers, 32) for layers in BENCH_STACKS] + [
    ("conv:3:3:1:0,relu,pool:3,flatten,dense:3", 12),
    ("conv:3:3:1:1,relu,conv:4:3:1:1,pool:2,relu,flatten,dense:3", 8),
    ("conv:3:3:1:1,pool:2,flatten,dense:3", 8),
    ("conv:3:3:2:1,relu,pool:2,flatten,dense:3", 13),
    ("conv:3:3:1:1,relu,pool:1,flatten,dense:3", 6),
    ("conv:3:3:1:1,pool:2,relu,conv:4:3:1:1,relu,pool:2,flatten,dense:3", 8),
]


def _declared_order_step(model, x, glogits, input_grad):
    """Forward and backward through model.layers by hand, in declared order."""
    for layer in model.layers:
        x = layer.forward(x)
    logits, g = x, glogits
    for i in range(len(model.layers) - 1, -1, -1):
        if not input_grad and i == model._first_trained:
            model.layers[i].backward(g, input_grad=False)
            return logits, None
        g = model.layers[i].backward(g)
    return logits, g


@pytest.mark.parametrize("layers,size", ORDER_STACKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("input_grad", [True, False])
def test_model_step_byte_equal_declared_order(layers, size, dtype, input_grad):
    def model():
        return nn.Model(parse_layers(layers, size), (1, size, size), seed=6, dtype=dtype)

    rng = substream(6, "order", size)
    x = rng.integers(-1, 2, size=(5, 1, size, size)).astype(dtype)  # ties and zeros
    x[1:3] = rng.standard_normal((2, 1, size, size))
    glogits = rng.standard_normal((5, model().output_shape[0])).astype(dtype)
    m, ref = model(), model()
    logits = m.forward(x)
    gx = m.backward(glogits, input_grad=input_grad)
    ref_logits, ref_gx = _declared_order_step(ref, x, glogits, input_grad)
    assert logits.tobytes() == ref_logits.tobytes()
    if input_grad:
        assert gx.tobytes() == ref_gx.tobytes()
    else:
        assert gx is None
    assert [g.tobytes() for g in m.gradients()] == [g.tobytes() for g in ref.gradients()]


@pytest.mark.parametrize("layers,size", ORDER_STACKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_logits_byte_equal_train_logits_on_order_stacks(layers, size, dtype):
    m = nn.Model(parse_layers(layers, size), (1, size, size), seed=3, dtype=dtype)
    rng = substream(3, "eval-train", size)
    x = rng.integers(-1, 2, size=(4, 1, size, size)).astype(dtype)
    x[2:] = rng.standard_normal((2, 1, size, size))
    for layer in m.layers:  # nonzero biases, so the pool's bias add matters
        if isinstance(layer, nn.Conv2d):
            layer.b[...] = rng.standard_normal(layer.b.shape)
    ev = m.forward(x, train=False)
    assert all(state is None for state in _layer_state(m))
    assert ev.tobytes() == m.forward(x).tobytes()


def test_pool_winner_is_taken_on_biased_values():
    # float32 with b = 1.0: 0.0 and 2**-26 both give 1.0, so the first of
    # them wins, though the second is larger before the bias
    def model():
        m = nn.Model(parse_layers("conv:1:1:1:0,pool:2,flatten,dense:2", 4), (1, 4, 4),
                     seed=8, dtype=np.float32)
        m.layers[0].w[...] = 1.0
        m.layers[0].b[...] = 1.0
        return m

    # all other windows are all zero, so only the tied window's winner
    # moves the weight gradient
    x = np.zeros((2, 1, 4, 4), dtype=np.float32)
    x[0, 0, 0, :2] = [0.0, 2.0**-26]
    assert np.float32(2.0**-26) + np.float32(1.0) == np.float32(1.0)
    glogits = substream(8, "tie-g").standard_normal((2, 2)).astype(np.float32)
    m, ref = model(), model()
    logits = m.forward(x)
    m.backward(glogits, input_grad=False)
    ref_logits, _ = _declared_order_step(ref, x, glogits, input_grad=False)
    assert logits.tobytes() == ref_logits.tobytes()
    assert [g.tobytes() for g in m.gradients()] == [g.tobytes() for g in ref.gradients()]
    assert m.layers[1]._cache[0][0, 0, 0, 0] == 0  # offset (0, 0) holds 0.0


def test_conv_before_pool_returns_the_unbiased_uncropped_gemm_view():
    conv = nn.Conv2d(nn.Conv2dSpec(2, 3, 3, 1, 1), substream(9, "conv"), np.float32)
    x = substream(9, "x").standard_normal((2, 2, 6, 6)).astype(np.float32)
    conv.b[...] = 0.0
    unbiased = conv.forward(x, train=False)
    conv.b[...] = [1.0, -2.0, 3.0]
    y = conv.forward(x, train=False, bias=False)
    assert y.shape == unbiased.shape and not y.flags.c_contiguous  # no crop copy
    assert np.array_equal(y, unbiased)
    assert y.base.shape == (2, 3, 6 * 8)  # rows of wp = 8 columns, 2 of them wrap


@pytest.mark.parametrize("layers,size", ORDER_STACKS)
@pytest.mark.parametrize("train", [True, False])
def test_gemm_output_is_freed_once_the_pool_has_read_it(layers, size, train, monkeypatch):
    m = nn.Model(parse_layers(layers, size), (1, size, size), seed=1)
    gemms = []  # weak references to the GEMM outputs whose views fused convs return
    for cls in (nn.Conv2d, nn.ReLU, nn.Flatten, nn.Dense):
        def shim(*args, _orig=cls.forward, **kwargs):
            # any layer after a fused conv runs after its pool has read the view
            assert all(ref() is None for ref in gemms)
            out = _orig(*args, **kwargs)
            if kwargs.get("bias") is False:
                gemms.append(weakref.ref(out.base))
            return out

        monkeypatch.setattr(cls, "forward", shim)
    m.forward(substream(1, "free").standard_normal((3, 1, size, size)), train=train)
    assert len(gemms) == sum(conv is not None for conv, _, _ in m._plan) > 0


@pytest.mark.parametrize("layers,size", ORDER_STACKS)
def test_tracer_sees_each_conv_and_pool_forward_once(layers, size, monkeypatch):
    m = nn.Model(parse_layers(layers, size), (1, size, size), seed=0)
    traced = sorted(id(l) for l in m.layers if isinstance(l, (nn.Conv2d, nn.MaxPool2d)))
    log = []  # (method, layer) per call, from class-level shims as an outside tracer installs them
    for cls in (nn.Conv2d, nn.MaxPool2d):
        for attr in ("forward", "backward"):
            def shim(*args, _orig=getattr(cls, attr), _attr=attr, **kwargs):
                log.append((_attr, args[0]))
                return _orig(*args, **kwargs)

            monkeypatch.setattr(cls, attr, shim)
    x = substream(0, "tracer").standard_normal((2, 1, size, size)).astype(np.float32)
    for train in (False, True):
        del log[:]
        logits = m.forward(x, train=train)
        assert sorted(id(l) for method, l in log if method == "forward") == traced
    _, g = nn.softmax_cross_entropy(logits, np.arange(2) % m.output_shape[0])
    m.backward(g, input_grad=False)
    assert any(method == "backward" for method, _ in log)
    for i, (method, layer) in enumerate(log):
        if method == "backward" and isinstance(layer, nn.Conv2d):
            assert ("forward", layer) in log[:i]


def test_tracer_hooks_outside_nn_keep_their_contract(tmp_path, monkeypatch):
    # An outside tracer and set-up probes replace these module attributes and
    # methods, and read the arguments named below; a run must call each of
    # them through the module or class attribute, or a traced run misses it.
    from daylearn import cli, data, protocol

    seen = []

    def hook(owner, attr, check=None):
        orig = getattr(owner, attr)

        def shim(*args, **kwargs):
            result = orig(*args, **kwargs)
            if check is not None:
                check(args, result)
            seen.append(attr)
            return result

        monkeypatch.setattr(owner, attr, shim)

    def run_day_args(args, result):
        # run_day(model, optimizer, config, cache, train_rows, val_items, day)
        assert len(args) == 7 and isinstance(args[6], int)
        assert len(args[4]) * args[2].epochs_per_day >= 0

    def pretrain_args(args, records):
        # pretrain(model, optimizer, config, cache, subset_rows, val_items)
        assert len(args) == 6 and len(args[4]) * len(records) > 0

    def returns_image(args, result):
        assert isinstance(result, data.Image)

    hook(protocol, "run_day", run_day_args)
    hook(protocol, "pretrain", pretrain_args)
    hook(protocol, "pgm_read", returns_image)
    for attr in ("normalize", "ingest_directory", "split_manifest", "evaluate", "augment_image"):
        hook(protocol, attr)
    hook(protocol.DatasetCache, "take")
    hook(cli, "evaluate_model")

    root = str(tmp_path / "data")
    data.gen_synthetic(3, 12, 8, 0.05, 0, root)
    config = protocol.ExperimentConfig(
        layers=parse_layers("conv:2:3:1:1,relu,pool:2,flatten,dense:3", 8), image_size=8,
        batch_size=4, pretrain_size=6, pretrain_epochs=1, total_days=2, n_per_day=6,
        checkpoint_every=0, data_root=root,
    )
    protocol.run_experiment(config, tmp_path / "run")
    assert cli.dispatch(["evaluate", "--checkpoint", str(tmp_path / "run" / "ckpt_final.bin"),
                         "--manifest", str(tmp_path / "run" / "test.txt"), "--data-root", root]) == 0
    assert set(seen) == {"run_day", "pretrain", "pgm_read", "normalize", "ingest_directory",
                         "split_manifest", "evaluate", "augment_image", "take", "evaluate_model"}


@pytest.mark.parametrize("layers,size", ORDER_STACKS)
def test_relu_before_pool_runs_on_pooled_tensor(layers, size):
    m = nn.Model(parse_layers(layers, size), (1, size, size), seed=0)
    x = substream(0, "mask").standard_normal((2, 1, size, size)).astype(np.float32)
    shapes, y = [], x
    for layer in m.layers:  # each layer's output shape in declared order
        y = layer.forward(y, train=False)
        shapes.append(y.shape)
    m.forward(x)
    for i, layer in enumerate(m.layers):
        if isinstance(layer, nn.ReLU):
            pooled = i + 1 < len(m.layers) and isinstance(m.layers[i + 1], nn.MaxPool2d)
            assert layer._mask.shape == shapes[i + 1 if pooled else i]


@pytest.mark.parametrize("layers,size", ORDER_STACKS)
def test_eval_writes_no_state_and_backward_is_repeatable(layers, size):
    m = nn.Model(parse_layers(layers, size), (1, size, size), seed=2)
    x = substream(2, "repeat").integers(-1, 2, size=(4, 1, size, size)).astype(np.float32)
    m.forward(x, train=False)
    assert all(state is None for state in _layer_state(m))
    _, g = nn.softmax_cross_entropy(m.forward(x), np.arange(4) % m.output_shape[0])
    first = [a.tobytes() for a in [m.backward(g)] + m.gradients()]
    assert [a.tobytes() for a in [m.backward(g)] + m.gradients()] == first


@pytest.mark.parametrize("layers", BENCH_STACKS)
def test_eval_logits_byte_equal_train_logits(layers):
    m = _bench_model(layers)
    x = _tied_inputs(1, 5)
    ev = m.forward(x, train=False)
    assert all(state is None for state in _layer_state(m))  # eval writes no layer cache
    tr = m.forward(x)
    assert ev.tobytes() == tr.tobytes()
    _, pred = nn.predict_batch(m, x)
    assert list(pred) == list(np.argmax(tr, axis=1))


@pytest.mark.parametrize("layers", BENCH_STACKS)
def test_eval_forward_between_forward_and_backward_keeps_grads(layers):
    m = _bench_model(layers, seed=4)
    x = _tied_inputs(2, 4)
    y = np.array([0, 1, 2, 0])
    other = _tied_inputs(3, 7)

    def grads(interleave):
        _, g = nn.softmax_cross_entropy(m.forward(x), y)
        if interleave:
            m.forward(other, train=False)
        gx = m.backward(g)
        return [a.tobytes() for a in m.gradients() + [gx]]

    assert grads(False) == grads(True)


@pytest.mark.parametrize("layers", BENCH_STACKS)
def test_backward_without_input_grad_keeps_param_grads(layers):
    m = _bench_model(layers, seed=5)
    x = _tied_inputs(4, 6)
    _, g = nn.softmax_cross_entropy(m.forward(x), np.array([0, 1, 2, 0, 1, 2]) % m.output_shape[0])
    assert m.backward(g).shape == x.shape
    full = [a.tobytes() for a in m.gradients()]
    for layer in m.layers:
        layer.grads = [None] * len(layer.grads)
    assert m.backward(g, input_grad=False) is None
    assert [a.tobytes() for a in m.gradients()] == full


GRAD_CHECK_CASES = {
    "stride2_padded_conv": (
        [nn.Conv2dSpec(1, 2, 3, 2, 1), nn.ReLUSpec(), nn.Conv2dSpec(2, 3, 3, 2, 1),
         nn.FlattenSpec(), nn.DenseSpec(3 * 2 * 2, 3)],
        (1, 8, 8),
    ),
    "ragged_pool2": (
        [nn.Conv2dSpec(1, 2, 3, 1, 1), nn.ReLUSpec(), nn.MaxPool2dSpec(2),
         nn.FlattenSpec(), nn.DenseSpec(2 * 4 * 4, 3)],
        (1, 9, 9),
    ),
    "pool3": (
        [nn.Conv2dSpec(1, 2, 3, 1, 1), nn.ReLUSpec(), nn.MaxPool2dSpec(3),
         nn.FlattenSpec(), nn.DenseSpec(2 * 3 * 3, 3)],
        (1, 10, 10),
    ),
}


@pytest.mark.parametrize("case", sorted(GRAD_CHECK_CASES))
@pytest.mark.parametrize("loss_kind", nn.LOSS_KINDS)
def test_grad_check_strided_and_ragged(case, loss_kind):
    specs, shape = GRAD_CHECK_CASES[case]
    m = nn.Model(specs, shape, seed=13, dtype=np.float64)
    x, y = _random_batch(13, shape=shape)
    report = nn.grad_check_model(m, x, y, loss_kind)
    assert max(item["max_rel_err"] for item in report) < 1e-5
    assert nn.grad_check_input(m, x, y, loss_kind) < 1e-5


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_softmax_ce_uniform_logits():
    logits = np.zeros((1, 3))
    for target in range(3):
        loss, grad = nn.softmax_cross_entropy(logits, [target])
        assert loss == pytest.approx(math.log(3), rel=1e-12)
        assert grad.shape == logits.shape


def test_softmax_ce_peaked_logits():
    # oracle: -log p(class 0) = log(1 + 2*exp(-10))
    expected = math.log1p(2.0 * math.exp(-10.0))
    loss, _ = nn.softmax_cross_entropy(np.array([[10.0, 0.0, 0.0]]), [0])
    assert loss == pytest.approx(expected, rel=1e-12)


def test_softmax_grad_rows_sum_to_zero():
    rng = substream(3, "loss")
    logits = rng.standard_normal((5, 4))
    _, grad = nn.softmax_cross_entropy(logits, [0, 1, 2, 3, 0])
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_bce_zero_logits():
    loss, grad = nn.bce_with_logits(np.zeros((1, 3)), [1])
    assert loss == pytest.approx(math.log(2), rel=1e-12)
    assert grad.shape == (1, 3)


def test_loss_errors():
    with pytest.raises(DataError):
        nn.softmax_cross_entropy(np.zeros((1, 3)), [3])
    with pytest.raises(UsageError):
        nn.softmax_cross_entropy(np.zeros((0, 3)), [])
    with pytest.raises(DataError):
        nn.bce_with_logits(np.zeros((2, 3)), [0, 3])
    with pytest.raises(DataError, match="1 class indices for 2 rows"):
        nn.softmax_cross_entropy(np.zeros((2, 3)), [0])


def test_loss_stability_large_logits():
    loss, grad = nn.softmax_cross_entropy(np.array([[1000.0, 0.0, 0.0]]), [0])
    assert math.isfinite(loss) and np.all(np.isfinite(grad))
    loss, grad = nn.bce_with_logits(np.array([[1000.0, -1000.0]]), [0])
    assert math.isfinite(loss) and np.all(np.isfinite(grad))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_make_optimizer_reads_the_names_of_its_hyperparameters():
    sgd = nn.make_optimizer("sgd", lr=0.1, momentum=0.5, beta1=2.0)  # SGD has no beta1
    assert (type(sgd), sgd.lr, sgd.momentum) == (nn.SGD, 0.1, 0.5)
    adam = nn.make_optimizer("adam", lr=0.1, beta2=0.5, momentum=float("nan"))
    assert (type(adam), adam.beta1, adam.beta2, adam.epsilon) == (nn.Adam, 0.9, 0.5, 1e-8)
    with pytest.raises(ConfigError, match="unknown optimizer kind 'foo'"):
        nn.make_optimizer("foo", lr=0.1)
    with pytest.raises(ConfigError, match="betas"):
        nn.make_optimizer("adam", lr=0.1, beta1=2.0)
    assert nn.LOSS_KINDS == tuple(nn.LOSSES)


def test_sgd_plain_step():
    p = np.array([1.0])
    opt = nn.SGD(lr=0.1, momentum=0.0)
    opt.step([p], [np.array([0.2])])
    assert p[0] == pytest.approx(0.98, rel=1e-12)
    assert opt.t == 1


def test_sgd_zero_grad_no_change():
    p = np.array([1.0, -2.0])
    opt = nn.SGD(lr=0.5)
    opt.step([p], [np.zeros(2)])
    assert np.array_equal(p, [1.0, -2.0])


def test_sgd_momentum_recurrence():
    # v <- mu*v + g; two steps with mu=0.9, g=1, lr=0.1: -0.1 then -0.19
    p = np.array([0.0])
    opt = nn.SGD(lr=0.1, momentum=0.9)
    opt.step([p], [np.ones(1)])
    assert p[0] == pytest.approx(-0.1, rel=1e-12)
    opt.step([p], [np.ones(1)])
    assert p[0] == pytest.approx(-0.29, rel=1e-12)


def test_adam_first_step_magnitude_near_lr():
    for g in (0.7, -3.0, 1e-4):
        p = np.array([1.0])
        opt = nn.Adam(lr=0.1)
        opt.step([p], [np.array([g])])
        assert abs(p[0] - 1.0) == pytest.approx(0.1, rel=1e-3)


def test_adam_zero_grad_fresh_state():
    p = np.array([2.0])
    opt = nn.Adam(lr=0.1)
    opt.step([p], [np.zeros(1)])
    assert p[0] == 2.0


def test_adam_quadratic_descent_vs_scripted_oracle():
    # independent recurrence for f(p) = p^2, p0 = 1, lr = 0.1, defaults
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    pe, m, v = 1.0, 0.0, 0.0
    expected = []
    for t in range(1, 4):
        g = 2.0 * pe
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        pe -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        expected.append(pe)

    p = np.array([1.0])
    opt = nn.Adam(lr=lr, beta1=b1, beta2=b2, epsilon=eps)
    seen = []
    for _ in range(3):
        opt.step([p], [2.0 * p])
        seen.append(float(p[0]))
    assert seen == pytest.approx(expected, rel=1e-12)
    assert seen[0] > seen[1] > seen[2]
    assert all(s < prev for s, prev in zip(seen, [1.0] + seen))


def test_nonfinite_gradient_aborts_step():
    p = np.array([1.0])
    for opt in (nn.SGD(0.1), nn.Adam(0.1)):
        with pytest.raises(NumericError):
            opt.step([p], [np.array([np.nan])])
        assert p[0] == 1.0


def test_step_counter_increments_by_one():
    p = np.array([1.0])
    opt = nn.Adam(0.01)
    for expected_t in range(1, 6):
        opt.step([p], [np.ones(1)])
        assert opt.t == expected_t


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


class _FixedLogitsModel:
    dtype = np.dtype(np.float64)
    num_classes = 3

    def __init__(self, logits):
        self._logits = np.asarray(logits)

    def forward(self, x, train=True):
        return self._logits


def test_predict_argmax_and_ties():
    m = _FixedLogitsModel([[0.1, 0.9, 0.3], [0.5, 0.5, 0.1]])
    _, pred = nn.predict_batch(m, None)
    assert list(pred) == [1, 0]  # tie -> lowest index


def test_predict_order_preserving():
    logits = np.eye(4, 3)
    m = _FixedLogitsModel(logits)
    _, pred = nn.predict_batch(m, None)
    assert list(pred) == [0, 1, 2, 0]


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def _random_batch(seed, n=4, shape=(1, 8, 8), classes=3):
    rng = substream(seed, "batch")
    return rng.standard_normal((n, *shape)), rng.integers(0, classes, size=n)


@pytest.mark.parametrize("loss_kind", nn.LOSS_KINDS)
def test_grad_check_two_layer_model(loss_kind):
    m = small_model(seed=11)
    x, y = _random_batch(11)
    report = nn.grad_check_model(m, x, y, loss_kind)
    assert all(item["passed"] for item in report)
    assert max(item["max_rel_err"] for item in report) < 1e-5


def test_grad_check_input_gradient():
    m = small_model(seed=5)
    x, y = _random_batch(5)
    assert nn.grad_check_input(m, x, y, nn.SOFTMAX_CE) < 1e-5


def test_grad_check_zero_final_layer_degenerate_guard():
    m = small_model(seed=2)
    dense = m.layers[-1]
    dense.w[...] = 0.0
    dense.b[...] = 0.0
    x, y = _random_batch(2)
    report = nn.grad_check_model(m, x, y, nn.SOFTMAX_CE)
    # upstream gradients vanish for earlier layers; 1e-12 floor keeps them passing
    assert all(item["passed"] for item in report)


def test_grad_check_catches_sign_flip():
    m = small_model(seed=7)
    dense = m.layers[-1]
    orig = dense.backward

    def corrupted(gy):
        gx = orig(gy)
        dense.grads = [-dense.grads[0], dense.grads[1]]
        return gx

    dense.backward = corrupted
    x, y = _random_batch(7)
    report = nn.grad_check_model(m, x, y, nn.SOFTMAX_CE)
    bad = [item for item in report if item["name"] == "layer4.w"]
    assert not bad[0]["passed"]
    assert bad[0]["max_rel_err"] == pytest.approx(2.0, rel=0.2)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_training_is_bit_deterministic():
    def run():
        m = nn.Model(small_specs(), (1, 8, 8), seed=3, dtype=np.float32)
        opt = nn.Adam(1e-3)
        x, y = _random_batch(9)
        x = x.astype(np.float32)
        for _ in range(10):
            logits = m.forward(x)
            _, g = nn.softmax_cross_entropy(logits, y)
            m.backward(g)
            opt.step([p for _, p in m.parameters()], m.gradients())
        return [p.copy() for _, p in m.parameters()]

    a, b = run(), run()
    for pa, pb in zip(a, b):
        assert pa.tobytes() == pb.tobytes()
