import dataclasses
import errno
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from daylearn import config, data, metrics, nn, protocol, schedule
from daylearn.cli import dispatch
from daylearn.config import (
    load_effective_config,
    parse_layers,
    to_detector_config,
    to_experiment_config,
    write_effective_config,
)
from daylearn.errors import ConfigError

GOLDEN = pathlib.Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_defaults_resolve():
    eff = load_effective_config()
    assert eff["optimizer.kind"] == "adam"
    assert eff["schedule.days"] == 10


def test_file_overlays_defaults(tmp_path):
    cfg = tmp_path / "exp1a.cfg"
    cfg.write_text(
        "# experiment 1a shape\n"
        "optimizer.kind = adam\n"
        "optimizer.lr = 1e-6\n"
        "schedule.days = 300\n"
    )
    eff = load_effective_config(cfg)
    assert eff["optimizer.lr"] == 1e-6
    assert eff["schedule.days"] == 300
    assert eff["protocol.batch_size"] == 16  # untouched default


def test_cli_override_beats_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.days = 300\n")
    eff = load_effective_config(cfg, overrides=["schedule.days=500"])
    assert eff["schedule.days"] == 500


def test_env_between_defaults_and_file(tmp_path):
    env = {"DAYLEARN_SCHEDULE__DAYS": "42", "DAYLEARN_OPTIMIZER__LR": "0.5"}
    eff = load_effective_config(env=env)
    assert eff["schedule.days"] == 42 and eff["optimizer.lr"] == 0.5
    cfg = tmp_path / "c.cfg"
    cfg.write_text("schedule.days = 7\n")
    eff = load_effective_config(cfg, env=env)
    assert eff["schedule.days"] == 7  # file wins over env


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("optimizer.learningrate = 1\n")
    with pytest.raises(ConfigError, match="optimizer.learningrate"):
        load_effective_config(cfg)


def test_bad_value_names_key_and_line(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\nschedule.days = soon\n")
    with pytest.raises(ConfigError, match=r"schedule\.days.*:2"):
        load_effective_config(cfg)


def test_effective_config_echo_round_trip(tmp_path):
    eff = load_effective_config(overrides=["schedule.days=17"])
    path = tmp_path / "echo.cfg"
    write_effective_config(eff, path)
    again = load_effective_config(path)
    assert again == eff


def test_parse_layers_infers_shapes():
    specs = parse_layers("conv:16:3:1:1,relu,pool:2,flatten,dense:3", 32)
    assert specs[0].in_channels == 1 and specs[0].out_channels == 16
    assert specs[-1].in_features == 16 * 16 * 16 and specs[-1].out_features == 3


def test_parse_layers_bad_token():
    with pytest.raises(ConfigError, match="token"):
        parse_layers("conv:16:3,relu,swish", 32)
    # a field more than the spec has, or none where it needs one
    for text in ("conv:4:3:1:1:9", "relu:5", "pool:2:7", "flatten,dense:2:9", "relu:", "conv:4"):
        with pytest.raises(ConfigError, match="malformed layer token"):
            parse_layers(text, 8)


def test_parse_layers_checks_each_spec():
    # each spec is checked as it is parsed, before a zero kernel or stride divides
    for text, msg in [("pool:0", "pool kernel must be >=1"),
                      ("conv:4:3:0", "conv kernel/stride must be >=1"),
                      ("flatten,dense:0", "dense feature counts must be >=1")]:
        with pytest.raises(ConfigError, match=msg):
            parse_layers(text, 8)


def test_default_effective_config_bytes_are_pinned(tmp_path):
    # what every run directory's effective_config.cfg holds for the defaults
    path = tmp_path / "effective_config.cfg"
    write_effective_config(load_effective_config(env={}), path)
    assert path.read_bytes() == (GOLDEN / "effective_config.cfg").read_bytes()


def test_every_config_key_is_a_dataclass_field():
    assert set(config.SCHEMA) == set(config.FIELDS) | {"model.layers"}
    for key, (cls, name) in config.FIELDS.items():
        field = {f.name: f for f in dataclasses.fields(cls)}[name]
        parser, default = config.SCHEMA[key]
        assert default == field.default, key
        assert parser(str(default)) == default, key
    assert config.SCHEMA["model.layers"] == (str, config.DEFAULT_LAYERS)


def test_config_keys_build_the_dataclasses():
    eff = load_effective_config(env={}, overrides=[
        "optimizer.momentum=0.5", "data.hflip=0.25", "data.norm_std=0.5",
        "schedule.allow_short_final=yes", "detectors.var_tol=0.125"])
    cfg = to_experiment_config(eff)
    assert cfg.momentum == 0.5 and cfg.allow_short_final is True
    assert cfg.augment == data.AugmentConfig(hflip_probability=0.25)
    assert cfg.norm == data.NormalizationSpec(std=0.5)
    assert cfg.layers == parse_layers(config.DEFAULT_LAYERS, 32)
    assert to_detector_config(eff) == metrics.DetectorConfig(variance_tolerance=0.125)


def test_to_experiment_config_seed_key():
    eff = load_effective_config(overrides=["protocol.seed=99", "data.root=/x"])
    cfg = to_experiment_config(eff)
    assert cfg.seed == 99 and cfg.data_root == "/x"


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_no_subcommand_exits_2():
    assert dispatch([]) == 2


def test_gen_synth_and_split(tmp_path):
    dd = tmp_path / "data"
    assert dispatch(["gen-synth", "--out", str(dd), "--classes", "2",
                     "--per-class", "10", "--size", "16", "--seed", "3"]) == 0
    sd = tmp_path / "splits"
    assert dispatch(["split", "--data", str(dd), "--out", str(sd), "--seed", "3"]) == 0
    train = data.manifest_read(sd / "train.txt")
    assert len(train) == 14  # 7 per class


def test_split_identical_files_same_seed(tmp_path):
    dd = tmp_path / "data"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "10",
              "--size", "16", "--seed", "3"])
    for name in ("s1", "s2"):
        dispatch(["split", "--data", str(dd), "--out", str(tmp_path / name), "--seed", "5"])
    for f in ("train.txt", "val.txt", "test.txt"):
        assert (tmp_path / "s1" / f).read_bytes() == (tmp_path / "s2" / f).read_bytes()


def test_gen_rotated_source_class_filter(tmp_path):
    dd = tmp_path / "data"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "12",
              "--size", "16", "--seed", "1"])
    rd = tmp_path / "rot"
    rc = dispatch(["gen-rotated", "--manifest", str(dd / "manifest.txt"),
                   "--out", str(rd), "--seed", "2", "--source-class", "c0"])
    assert rc == 0
    m = data.manifest_read(rd / "manifest.txt")
    assert len(m) == 12
    assert m.class_names == ["original", "rot_left", "rot_right"]


def test_run_missing_data_root_exits_2(tmp_path, capsys):
    assert dispatch(["run", "--out", str(tmp_path / "r")]) == 2
    assert "CONFIG_ERROR" in capsys.readouterr().err


def test_run_evaluate_assess_plot_end_to_end(tmp_path, capsys):
    dd = tmp_path / "data"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "3", "--per-class", "30",
              "--size", "16", "--seed", "1"])
    out = tmp_path / "run"
    rc = dispatch([
        "run", "--out", str(out), "--seed", "7",
        f"--data.root={dd}", "--data.image_size=16",
        "--model.layers=conv:8:3:1:1,relu,pool:2,flatten,dense:3",
        "--schedule.days=8", "--schedule.n_per_day=6", "--protocol.batch_size=4",
    ])
    assert rc == 0
    assert (out / "effective_config.cfg").exists()
    assert not (out / "lock").exists()

    rc = dispatch(["evaluate", "--checkpoint", str(out / "ckpt_final.bin"),
                   "--manifest", str(out / "test.txt"), "--data-root", str(dd),
                   "--batch-size", "4"])
    assert rc == 0
    assert "accuracy=" in capsys.readouterr().out

    rc = dispatch(["assess", "--run", str(out), "--detectors.window=4"])
    assert rc == 0
    assert "recommendation=" in capsys.readouterr().out

    svg = tmp_path / "acc.svg"
    assert dispatch(["plot", "--run", str(out), "--series", "val_acc,test_acc",
                     "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_run_lock_file_blocks_concurrent_out(tmp_path, capsys):
    dd = tmp_path / "data"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "10",
              "--size", "16", "--seed", "1"])
    out = tmp_path / "r"
    out.mkdir()
    (out / "lock").touch()
    rc = dispatch(["run", "--out", str(out), f"--data.root={dd}"])
    assert rc == 2
    assert "locked" in capsys.readouterr().err


def _small_run_argv(tmp_path, out, days=2):
    dd = tmp_path / "data"
    if not dd.exists():
        dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "20",
                  "--size", "8", "--seed", "1"])
    return ["run", "--out", str(out), f"--data.root={dd}", "--data.image_size=8",
            "--model.layers=conv:2:3:1:1,relu,pool:2,flatten,dense:2",
            f"--schedule.days={days}", "--schedule.n_per_day=4", "--protocol.batch_size=4",
            "--protocol.checkpoint_every=1"]


def test_run_takes_over_lock_of_dead_process(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no live process
    out = tmp_path / "r"
    out.mkdir()
    (out / "lock").write_text(f"{child.pid}\n")
    assert dispatch(_small_run_argv(tmp_path, out)) == 0
    assert (out / "ckpt_final.bin").exists() and not (out / "lock").exists()


def test_run_refuses_lock_of_live_process(tmp_path, capsys):
    out = tmp_path / "r"
    out.mkdir()
    (out / "lock").write_text(f"{os.getpid()}\n")
    assert dispatch(_small_run_argv(tmp_path, out)) == 2
    assert "locked" in capsys.readouterr().err
    assert (out / "lock").read_text() == f"{os.getpid()}\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("killed", ["before_link", "after_link"])
def test_run_after_a_crash_while_taking_the_lock(tmp_path, killed):
    # a process killed while taking the lock leaves either no lock or a lock
    # naming its (now dead) pid; never a lock without a pid
    out = tmp_path / "r"
    out.mkdir()
    link = "os._exit(9)" if killed == "before_link" else "(real(*a), os._exit(9))"
    code = ("import os, sys\n"
            "from daylearn import cli\n"
            "real = os.link\n"
            f"os.link = lambda *a: {link}\n"
            "cli._acquire_lock(sys.argv[1])\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(data.__file__)))
    child = subprocess.run([sys.executable, "-c", code, str(out)], env=env, timeout=60)
    assert child.returncode == 9
    lock = out / "lock"
    if killed == "before_link":
        assert not lock.exists()
    else:
        assert int(lock.read_text()) > 0  # the dead child's pid
    assert dispatch(_small_run_argv(tmp_path, out)) == 0
    assert (out / "ckpt_final.bin").exists() and not lock.exists()


def test_run_lock_without_hard_links(tmp_path, monkeypatch, capsys):
    # a file system that refuses link(2) falls back to an exclusive create
    def no_link(*a):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(os, "link", no_link)
    out = tmp_path / "r"
    assert dispatch(_small_run_argv(tmp_path, out)) == 0
    assert (out / "ckpt_final.bin").exists()
    assert sorted(p.name for p in out.iterdir() if "lock" in p.name) == []
    (out / "lock").write_text(f"{os.getpid()}\n")
    assert dispatch(_small_run_argv(tmp_path, out)) == 2
    assert "locked" in capsys.readouterr().err
    assert (out / "lock").read_text() == f"{os.getpid()}\n"


class _Crash(Exception):
    pass


class _HalfWriter:
    """A file whose first write stores half its data and then raises, as a
    kill in the middle of the write would leave it."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.close()
        raise _Crash("killed mid-write")


def _crash_nth_write(monkeypatch, name, nth, module=data, mode_char="w"):
    """Make the nth opening in `mode_char` mode of a file named `name`*
    (temp files included) through `module` a _HalfWriter. Run files are
    rewritten through daylearn.data and metrics rows appended by
    daylearn.protocol."""
    seen = []

    def fake_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        if mode_char in mode and os.path.basename(str(path)).startswith(name):
            seen.append(path)
            if len(seen) == nth:
                return _HalfWriter(f)
        return f

    monkeypatch.setattr(module, "open", fake_open, raising=False)


def _assert_same_run(a, b):
    for name in ("metrics.csv", "ckpt_final.bin", "state.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_kill_while_writing_state_resumes_byte_identical(tmp_path, monkeypatch):
    full, crashed = tmp_path / "full", tmp_path / "crashed"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    _crash_nth_write(monkeypatch, "state.txt", 3)  # while saving day 3
    with pytest.raises(_Crash):
        dispatch(_small_run_argv(tmp_path, crashed, days=4))
    monkeypatch.undo()
    assert "last_day=2" in (crashed / "state.txt").read_text()
    assert dispatch(_small_run_argv(tmp_path, crashed, days=4) + ["--resume"]) == 0
    _assert_same_run(full, crashed)


def test_kill_while_rewriting_metrics_resumes_byte_identical(tmp_path, monkeypatch):
    full, crashed = tmp_path / "full", tmp_path / "crashed"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    argv = _small_run_argv(tmp_path, crashed, days=4)
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    kept = (crashed / "metrics.csv").read_bytes()
    _crash_nth_write(monkeypatch, "metrics.csv", 1)  # the resume's rewrite
    with pytest.raises(_Crash):
        dispatch(argv + ["--resume"])
    monkeypatch.undo()
    assert (crashed / "metrics.csv").read_bytes() == kept
    assert dispatch(argv + ["--resume"]) == 0
    _assert_same_run(full, crashed)


@pytest.mark.parametrize("name", ["dayplan.txt", "test.txt", "effective_config.cfg", "run_meta.txt"])
def test_kill_while_rewriting_a_run_file_keeps_the_previous_file(tmp_path, monkeypatch, name):
    full, crashed = tmp_path / "full", tmp_path / "crashed"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    argv = _small_run_argv(tmp_path, crashed, days=4)
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    kept = (crashed / name).read_bytes()
    for module in (data, schedule, config, protocol):  # whichever module writes it
        _crash_nth_write(monkeypatch, name, 1, module=module)  # the resume's rewrite
    with pytest.raises(_Crash):
        dispatch(argv + ["--resume"])
    monkeypatch.undo()
    assert (crashed / name).read_bytes() == kept
    assert dispatch(argv + ["--resume"]) == 0
    _assert_same_run(full, crashed)


def test_kill_while_appending_metrics_resumes_byte_identical(tmp_path, monkeypatch):
    full, crashed = tmp_path / "full", tmp_path / "crashed"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    argv = _small_run_argv(tmp_path, crashed, days=4)
    _crash_nth_write(monkeypatch, "metrics.csv", 3, module=protocol, mode_char="a")  # day 3's row
    with pytest.raises(_Crash):
        dispatch(argv)
    monkeypatch.undo()
    assert "last_day=2" in (crashed / "state.txt").read_text()
    assert not (crashed / "metrics.csv").read_bytes().endswith(b"\n")  # a torn row
    assert dispatch(argv + ["--resume"]) == 0
    _assert_same_run(full, crashed)


def test_resume_after_moving_the_data_directory(tmp_path):
    full, moved = tmp_path / "full", tmp_path / "moved"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    assert dispatch(_small_run_argv(tmp_path, moved, days=4) + ["--stop-after-day", "2"]) == 0
    (tmp_path / "data").rename(tmp_path / "data_moved")
    argv = [a.replace(str(tmp_path / "data"), str(tmp_path / "data_moved"))
            for a in _small_run_argv(tmp_path / "none", moved, days=4)]
    assert dispatch(argv + ["--resume"]) == 0
    _assert_same_run(full, moved)


def test_resume_with_foreign_config_hash_exits_2(tmp_path, capsys):
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out, days=4)
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    state = (out / "state.txt").read_text().splitlines()
    state[0] = "config_hash=" + "0" * 64
    (out / "state.txt").write_text("\n".join(state) + "\n")
    assert dispatch(argv + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR: resume refused: config hash does not match")
    assert "may also predate the canonical config hash" in err


def test_exit_code_data_error(tmp_path, capsys):
    root = tmp_path / "ds"
    (root / "emptyclass").mkdir(parents=True)
    rc = dispatch(["split", "--data", str(root), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "DATA_ERROR" in capsys.readouterr().err


def test_exit_code_truncated_checkpoint(tmp_path, capsys):
    model = nn.Model([nn.Conv2dSpec(1, 2, 3, 1, 1), nn.FlattenSpec(), nn.DenseSpec(2 * 8 * 8, 2)],
                     (1, 8, 8))
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(model, None, ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:40])
    rc = dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR: truncated checkpoint")
    assert "Traceback" not in err


def test_exit_code_corrupt_layer_table(tmp_path, capsys):
    model = nn.Model([nn.Conv2dSpec(1, 2, 3, 1, 1), nn.FlattenSpec(), nn.DenseSpec(2 * 8 * 8, 2)],
                     (1, 8, 8))
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(model, None, ckpt)
    data = bytearray(ckpt.read_bytes())
    data[25] = 4  # the first layer's int count: a conv stores 5
    ckpt.write_bytes(bytes(data))
    rc = dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR: layer kind Conv2dSpec takes 5 ints")
    assert "Traceback" not in err


def test_exit_code_layer_table_too_wide(tmp_path, capsys):
    model = nn.Model([nn.Conv2dSpec(1, 2, 3, 1, 1), nn.FlattenSpec(), nn.DenseSpec(2 * 8 * 8, 2)],
                     (1, 8, 8))
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(model, None, ckpt)
    data = bytearray(ckpt.read_bytes())
    assert struct.unpack_from("<i", data, 30)[0] == 2  # the first conv's out_channels
    struct.pack_into("<i", data, 30, 300000)
    ckpt.write_bytes(bytes(data))
    rc = dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR: bad layer table: layer 2 (Dense)")


def test_exit_code_checkpoint_trailing_bytes(tmp_path, capsys):
    model = nn.Model([nn.Conv2dSpec(1, 2, 3, 1, 1), nn.FlattenSpec(), nn.DenseSpec(2 * 8 * 8, 2)],
                     (1, 8, 8))
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(model, None, ckpt)
    ckpt.write_bytes(ckpt.read_bytes() + b"\x00" * 26)
    rc = dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR: 26 trailing bytes after the step counter")
    assert "Traceback" not in err


@pytest.mark.parametrize("offset,value", [
    (1, 2),     # the optimizer kind: Adam, which has 4
    (2, 1),     # the hyperparameter count: SGD has 2
    (10, 0xFF), # the sign and exponent byte of lr: negative
    (18, 0xFF), # the sign and exponent byte of momentum: negative
], ids=["kind", "hp_count", "lr", "momentum"])
def test_exit_code_corrupt_optimizer_block(tmp_path, capsys, offset, value):
    model = nn.Model([nn.FlattenSpec(), nn.DenseSpec(4, 2)], (1, 2, 2))
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(model, nn.SGD(0.01, momentum=0.9), ckpt)
    data = bytearray(ckpt.read_bytes())
    # presence flag, kind id, hyperparameter count, lr, momentum
    start = data.index(struct.pack("<BBB2d", 1, nn.SGD.kind_id, 2, 0.01, 0.9))
    data[start + offset] = value
    ckpt.write_bytes(bytes(data))
    rc = dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR:") and "hyperparameters" in err
    assert "Traceback" not in err


def test_exit_code_checkpoint_nan_learning_rate(tmp_path, capsys):
    model = nn.Model([nn.FlattenSpec(), nn.DenseSpec(4, 2)], (1, 2, 2))
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(model, nn.SGD(0.01, momentum=0.9), ckpt)
    hp = struct.pack("<2d", 0.01, 0.9)
    ckpt.write_bytes(ckpt.read_bytes().replace(hp, struct.pack("<2d", float("nan"), 0.9)))
    rc = dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(tmp_path / "m.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR: bad optimizer hyperparameters (nan, 0.9)")


@pytest.mark.parametrize("override", [
    "optimizer.lr=nan",
    "optimizer.epsilon=nan",
    "optimizer.momentum=nan",
    "data.norm_std=nan",
    "data.rotate_degrees=nan",
])
def test_nan_hyperparameter_override_is_a_config_error(tmp_path, capsys, override):
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out) + [f"--{override}"]
    if override.startswith("optimizer.momentum"):
        argv.append("--optimizer.kind=sgd")  # only SGD reads momentum
    assert dispatch(argv) == 2
    assert capsys.readouterr().err.startswith("CONFIG_ERROR:")
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("state", ["", "config_hash=abc\nlast_day=two\ncheckpoint=x.bin\n", "garbage\n"],
                         ids=["empty", "bad_last_day", "no_keys"])
def test_resume_with_corrupt_state_exits_1(tmp_path, capsys, state):
    dd = tmp_path / "data"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "10",
              "--size", "8", "--seed", "1"])
    argv = ["run", "--out", str(tmp_path / "r"), f"--data.root={dd}", "--data.image_size=8",
            "--model.layers=conv:2:3:1:1,relu,pool:2,flatten,dense:2",
            "--schedule.days=2", "--schedule.n_per_day=4", "--protocol.batch_size=4"]
    assert dispatch(argv + ["--stop-after-day", "1"]) == 0
    (tmp_path / "r" / "state.txt").write_text(state)
    capsys.readouterr()
    assert dispatch(argv + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("CHECKPOINT_ERROR: corrupt run state") and "state.txt" in err


def test_run_determinism_byte_identical(tmp_path):
    dd = tmp_path / "data"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "20",
              "--size", "16", "--seed", "1"])
    argv = ["run", "--seed", "3", f"--data.root={dd}", "--data.image_size=16",
            "--model.layers=conv:8:3:1:1,relu,pool:2,flatten,dense:2",
            "--schedule.days=4", "--schedule.n_per_day=5", "--protocol.batch_size=4"]
    assert dispatch(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert dispatch(argv + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1/metrics.csv").read_bytes() == (tmp_path / "r2/metrics.csv").read_bytes()
    assert (tmp_path / "r1/ckpt_final.bin").read_bytes() == (tmp_path / "r2/ckpt_final.bin").read_bytes()


def test_grad_check_subcommand_small(capsys):
    assert dispatch(["grad-check", "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "OK" in line] == ["grad-check: OK"]
