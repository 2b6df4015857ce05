import dataclasses
import os
import struct
import tracemalloc

import numpy as np
import pytest

from daylearn import nn
from daylearn.errors import CheckpointError
from daylearn.rng import substream


def make_specs():
    return [
        nn.Conv2dSpec(1, 4, 3, 1, 1),
        nn.ReLUSpec(),
        nn.MaxPool2dSpec(2),
        nn.FlattenSpec(),
        nn.DenseSpec(4 * 4 * 4, 3),
    ]


def train_steps(model, opt, n_steps, seed=0):
    rng = substream(seed, "ckpt-train")
    x = rng.standard_normal((4, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=4)
    for _ in range(n_steps):
        logits = model.forward(x)
        _, g = nn.softmax_cross_entropy(logits, y)
        model.backward(g)
        opt.step([p for _, p in model.parameters()], model.gradients())
    return x


def test_round_trip_fresh_model(tmp_path):
    m = nn.Model(make_specs(), (1, 8, 8), seed=1)
    path = tmp_path / "fresh.bin"
    nn.checkpoint_save(m, None, path)
    loaded, opt = nn.checkpoint_load(path)
    assert opt is None
    x = substream(0, "probe").standard_normal((2, 1, 8, 8)).astype(np.float32)
    assert m.forward(x).tobytes() == loaded.forward(x).tobytes()


def test_round_trip_with_optimizer_state(tmp_path):
    m = nn.Model(make_specs(), (1, 8, 8), seed=2)
    opt = nn.Adam(1e-3)
    train_steps(m, opt, 5)
    path = tmp_path / "trained.bin"
    nn.checkpoint_save(m, opt, path)
    m2, opt2 = nn.checkpoint_load(path)
    assert opt2.t == 5
    assert (opt2.lr, opt2.beta1, opt2.beta2, opt2.epsilon) == (1e-3, 0.9, 0.999, 1e-8)
    for (_, pa), (_, pb) in zip(m.parameters(), m2.parameters()):
        assert pa.tobytes() == pb.tobytes()
    for (ma, va), (mb, vb) in zip(opt.state, opt2.state):
        assert ma.tobytes() == mb.tobytes() and va.tobytes() == vb.tobytes()


def test_double_round_trip_is_byte_identical(tmp_path):
    m = nn.Model(make_specs(), (1, 8, 8), seed=3)
    opt = nn.SGD(0.01, momentum=0.9)
    train_steps(m, opt, 3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    nn.checkpoint_save(m, opt, p1)
    m2, opt2 = nn.checkpoint_load(p1)
    nn.checkpoint_save(m2, opt2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_draws_no_init_streams(tmp_path, monkeypatch):
    m = nn.Model(make_specs(), (1, 8, 8), seed=4)
    opt = nn.Adam(1e-3)
    train_steps(m, opt, 2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    nn.checkpoint_save(m, opt, p1)
    calls = []
    monkeypatch.setattr(nn, "substream", lambda *args: calls.append(args))
    m2, opt2 = nn.checkpoint_load(p1)
    unfilled = nn.Model(make_specs(), (1, 8, 8), seed=None)
    assert calls == []  # every initial weight would be overwritten by the file's
    assert all(not p.any() for _, p in unfilled.parameters())
    nn.checkpoint_save(m2, opt2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_rejected(tmp_path):
    m = nn.Model(make_specs(), (1, 8, 8), seed=4)
    path = tmp_path / "full.bin"
    nn.checkpoint_save(m, nn.Adam(1e-3), path)
    data = path.read_bytes()
    short = tmp_path / "short.bin"
    short.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="offset"):
        nn.checkpoint_load(short)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        nn.checkpoint_load(path)


def test_resume_matches_uninterrupted_run(tmp_path):
    # 37 steps, checkpoint, 1 more step == 38 uninterrupted steps
    m1 = nn.Model(make_specs(), (1, 8, 8), seed=5)
    o1 = nn.Adam(1e-3)
    train_steps(m1, o1, 37)
    path = tmp_path / "step37.bin"
    nn.checkpoint_save(m1, o1, path)
    m2, o2 = nn.checkpoint_load(path)
    assert o2.t == 37
    train_steps(m1, o1, 1)
    train_steps(m2, o2, 1)
    assert o2.t == 38
    for (_, pa), (_, pb) in zip(m1.parameters(), m2.parameters()):
        assert pa.tobytes() == pb.tobytes()


def test_layer_int_count_mismatch_rejected(tmp_path):
    m = nn.Model(make_specs(), (1, 8, 8), seed=6)
    path = tmp_path / "full.bin"
    nn.checkpoint_save(m, None, path)
    data = bytearray(path.read_bytes())
    assert (data[24], data[25]) == (1, 5)  # first layer: conv kind id, 5 ints
    data[25] = 4
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="Conv2dSpec takes 5 ints, got 4"):
        nn.checkpoint_load(path)


def _set_int(path, offset, value, was):
    data = bytearray(path.read_bytes())
    assert struct.unpack_from("<i", data, offset)[0] == was
    struct.pack_into("<i", data, offset, value)
    path.write_bytes(bytes(data))


def test_wide_conv_in_layer_table_rejected_before_building(tmp_path):
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(nn.Model(make_specs(), (1, 8, 8), seed=6), None, path)
    _set_int(path, 30, 300000, was=4)  # layer 0's conv out_channels
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=r"bad layer table: layer 4 \(Dense\)"):
            nn.checkpoint_load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 300000-channel conv was never built


@pytest.mark.parametrize("offset,was", [(30, 4), (34, 3)], ids=["conv_out", "conv_kernel"])
def test_huge_layer_int_rejected(tmp_path, offset, was):
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(nn.Model(make_specs(), (1, 8, 8), seed=6), None, path)
    _set_int(path, offset, 2**31 - 1, was=was)
    with pytest.raises(CheckpointError, match="bad layer table"):
        nn.checkpoint_load(path)


def test_parameters_larger_than_the_file_rejected(tmp_path):
    # a consistent table whose last layer claims 2**31 - 1 logits
    specs = [nn.FlattenSpec(), nn.DenseSpec(64, 3)]
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(nn.Model(specs, (1, 8, 8), seed=6), None, path)
    _set_int(path, 32, 2**31 - 1, was=3)  # the dense layer's out_features
    with pytest.raises(CheckpointError, match=r"layer table implies \d+ parameter values"):
        nn.checkpoint_load(path)


def test_parameter_shape_mismatch_rejected(tmp_path):
    # the dense weight's two dims swapped: the element count stays, the shape does not
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(nn.Model(make_specs(), (1, 8, 8), seed=6), None, path)
    data = path.read_bytes()
    header = struct.pack("<3I", 2, 3, 64)  # rank 2, then dims (3, 64)
    assert data.count(header) == 1
    path.write_bytes(data.replace(header, struct.pack("<3I", 2, 64, 3)))
    with pytest.raises(CheckpointError, match=r"parameter shape mismatch: expected \(3, 64\), got \(64, 3\)"):
        nn.checkpoint_load(path)


@pytest.mark.parametrize("with_optimizer", [False, True])
def test_trailing_bytes_rejected(tmp_path, with_optimizer):
    m = nn.Model(make_specs(), (1, 8, 8), seed=7)
    opt = nn.Adam(1e-3) if with_optimizer else None
    if opt is not None:
        train_steps(m, opt, 2)
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(m, opt, path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x01" * 26)
    with pytest.raises(CheckpointError, match=f"26 trailing bytes after the step counter at offset {size}"):
        nn.checkpoint_load(path)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    m = nn.Model(make_specs(), (1, 8, 8), seed=8)
    opt = nn.Adam(1e-3)
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(m, opt, path)
    before = path.read_bytes()
    train_steps(m, opt, 1)
    real_write = nn._write_tensor

    def write_then_die(f, arr):  # dies after the first tensor, as a kill would
        real_write(f, arr)
        raise KeyboardInterrupt

    monkeypatch.setattr(nn, "_write_tensor", write_then_die)
    with pytest.raises(KeyboardInterrupt):
        nn.checkpoint_save(m, opt, path)
    assert path.read_bytes() == before
    assert nn.checkpoint_load(path)[1].t == 0


# ---------------------------------------------------------------------------
# the layer-kind table and strict decoding
# ---------------------------------------------------------------------------


def test_layer_kind_table_is_pinned():
    # tokens are the config grammar and kind ids the checkpoint layout
    assert [(k.token, k.spec.__name__, k.layer.__name__, k.kind_id) for k in nn.LAYER_KINDS] == [
        ("conv", "Conv2dSpec", "Conv2d", 1),
        ("dense", "DenseSpec", "Dense", 2),
        ("relu", "ReLUSpec", "ReLU", 3),
        ("pool", "MaxPool2dSpec", "MaxPool2d", 4),
        ("flatten", "FlattenSpec", "Flatten", 5),
    ]


def test_every_layer_kind_round_trips(tmp_path):
    # token -> spec -> checkpoint ints -> spec, and Model -> save -> load
    text = "conv:2:3:2:1,relu,pool:2,flatten,dense:3"
    specs = nn.parse_layers(text, 8)
    assert {type(s) for s in specs} == {k.spec for k in nn.LAYER_KINDS}
    tokens = []
    for spec in specs:
        kind = next(k for k in nn.LAYER_KINDS if k.spec is type(spec))
        ints = dataclasses.astuple(spec)
        assert kind.spec(*ints) == spec
        # the leading in_channels/in_features comes from the shape, not the token
        token_ints = ints[1:] if spec.infer_input else ints
        tokens.append(":".join([kind.token, *map(str, token_ints)]))
    assert ",".join(tokens) == text
    m = nn.Model(specs, (1, 8, 8), seed=9)
    for spec, layer in zip(specs, m.layers):
        assert tuple(p.shape for p in layer.params) == spec.param_shapes()
        assert spec.param_count() == sum(p.size for p in layer.params)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    nn.checkpoint_save(m, None, p1)
    m2, _ = nn.checkpoint_load(p1)
    assert m2.specs == specs and m2.input_shape == (1, 8, 8)
    nn.checkpoint_save(m2, None, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("make_opt", [lambda: nn.SGD(0.01, momentum=0.9), lambda: nn.Adam(1e-3)],
                         ids=["sgd", "adam"])
def test_every_corrupt_byte_loads_or_raises_checkpoint_error(tmp_path, make_opt):
    # one of each layer kind, and one optimizer step so the state is saved
    specs = nn.parse_layers("conv:1:3:1:1,relu,pool:2,flatten,dense:2", 2)
    m, opt = nn.Model(specs, (1, 2, 2), seed=0), make_opt()
    x = substream(0, "sweep").standard_normal((2, 1, 2, 2)).astype(np.float32)
    _, g = nn.softmax_cross_entropy(m.forward(x), [0, 1])
    m.backward(g)
    opt.step([p for _, p in m.parameters()], m.gradients())
    path = tmp_path / "ckpt.bin"
    nn.checkpoint_save(m, opt, path)
    good = path.read_bytes()
    escaped = []
    fd = os.open(path, os.O_WRONLY)  # one byte rewritten in place per case
    try:
        for offset in range(len(good)):
            for value in (0, 1, 2, 3, 0x7F, 0xFF):
                if good[offset] == value:
                    continue
                os.pwrite(fd, bytes([value]), offset)
                try:
                    nn.checkpoint_load(path)
                except CheckpointError:
                    pass
                except Exception as e:  # noqa: BLE001 - any other type is the failure
                    escaped.append((offset, value, f"{type(e).__name__}: {e}"))
            os.pwrite(fd, good[offset : offset + 1], offset)
    finally:
        os.close(fd)
    assert path.read_bytes() == good
    assert escaped == []
