import ast
import builtins
import dataclasses
import fcntl
import os
import pathlib
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from daylearn import cli, config, data, errors, metrics, nn, protocol
from daylearn.cli import dispatch
from daylearn.config import (
    format_config,
    load_effective_config,
    parse_layers,
    to_experiment_config,
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
    path.write_text(format_config(to_experiment_config(eff)), encoding="utf-8")
    again = load_effective_config(path)
    assert again == eff


def test_parse_layers_infers_shapes():
    specs = parse_layers("conv:16:3:1:1,relu,pool:2,flatten,dense:3", 32)
    assert specs[0].in_channels == 1 and specs[0].out_channels == 16
    assert specs[-1].in_features == 16 * 16 * 16 and specs[-1].out_features == 3


def test_format_layers_writes_every_field_and_parses_back():
    # one token per LAYER_KINDS row; conv's omitted stride and padding are written
    text = "conv:4:3,relu,pool:2,conv:2:3:2:1,flatten,dense:3"
    specs = parse_layers(text, 16)
    assert {type(s) for s in specs} == {k.spec for k in nn.LAYER_KINDS}
    assert nn.format_layers(specs) == "conv:4:3:1:0,relu,pool:2,conv:2:3:2:1,flatten,dense:3"
    assert parse_layers(nn.format_layers(specs), 16) == specs
    assert nn.format_layers(parse_layers("conv:16:3,flatten,dense:2", 8)).startswith("conv:16:3:1:0,")


def test_config_imports_neither_protocol_nor_cli():
    # imports run one way: config, then protocol, then cli
    tree = ast.parse(pathlib.Path(config.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not {name.rpartition(".")[2] for name in imported} & {"protocol", "cli"}


def test_cli_leaves_the_run_directory_to_protocol():
    # protocol alone names a run directory's files and reads them back, the
    # run's config included; cli goes through run_config and read_log
    run_files = {name: value for name, value in vars(protocol).items()
                 if name.startswith("_") and name.endswith(("_FILE", "_CKPT"))}
    assert {"metrics.csv", "effective_config.cfg", "state.txt"} <= set(run_files.values())
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & (set(run_files) | {"load_effective_config", "to_experiment_config", "read_metrics"})
    literals = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in literals for name in [*run_files.values(), "run_meta.txt"] if name in s] == []


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
    text = format_config(to_experiment_config(load_effective_config(env={})))
    assert text.encode("utf-8") == (GOLDEN / "effective_config.cfg").read_bytes()


def test_every_config_key_is_a_dataclass_field():
    assert set(config.SCHEMA) == set(config.FIELDS) | {"model.layers"}
    for key, (cls, name) in config.FIELDS.items():
        field = {f.name: f for f in dataclasses.fields(cls)}[name]
        parser, default = config.SCHEMA[key]
        assert default == field.default, key
        assert type(default).__name__ == field.type, key  # the default's type gives the parser
        assert parser(str(default)) == default, key
    assert config.SCHEMA["model.layers"] == (str, config.DEFAULT_LAYERS)


def test_every_hashed_field_is_set_by_a_config_key():
    # a hashed field that no key sets is left out of a run's record, which then
    # reads back to another config hash; model.layers sets `layers`
    hashed, owners = set(), [to_experiment_config(load_effective_config(env={}))]
    for owner in owners:  # nested dataclasses join the list as they are found
        for f in dataclasses.fields(owner):
            if not f.metadata.get("hashed", True):
                continue
            value = getattr(owner, f.name)
            if dataclasses.is_dataclass(value):
                owners.append(value)
            else:
                hashed.add((type(owner), f.name))
    assert hashed - set(config.FIELDS.values()) == {(config.ExperimentConfig, "layers")}


def test_config_keys_build_the_dataclasses():
    eff = load_effective_config(env={}, overrides=[
        "optimizer.momentum=0.5", "data.hflip=0.25", "data.norm_std=0.5",
        "schedule.allow_short_final=yes", "detectors.var_tol=0.125"])
    cfg = to_experiment_config(eff)
    assert cfg.momentum == 0.5 and cfg.allow_short_final is True
    assert cfg.augment == data.AugmentConfig(hflip_probability=0.25)
    assert cfg.norm == data.NormalizationSpec(std=0.5)
    assert cfg.layers == parse_layers(config.DEFAULT_LAYERS, 32)
    assert cfg.detectors == metrics.DetectorConfig(variance_tolerance=0.125)


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


def test_split_manifests_need_no_data_root(tmp_path, capsys):
    # split into a sibling directory: every image is named relative to the manifest
    dd, sd = tmp_path / "data", tmp_path / "splits"
    dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "10",
              "--size", "8", "--seed", "3"])
    assert dispatch(["split", "--data", str(dd), "--out", str(sd)]) == 0
    assert all(p.startswith("../data/c") for p, _ in data.manifest_read(sd / "train.txt").entries)
    assert dispatch(["split", "--data", str(dd), "--out", str(dd)]) == 0
    assert all(p.startswith("c") for p, _ in data.manifest_read(dd / "train.txt").entries)
    ckpt = tmp_path / "ckpt.bin"
    nn.checkpoint_save(nn.Model([nn.FlattenSpec(), nn.DenseSpec(64, 2)], (1, 8, 8)), None, ckpt)
    assert dispatch(["evaluate", "--checkpoint", str(ckpt), "--manifest", str(sd / "test.txt")]) == 0
    rot = tmp_path / "rot"
    assert dispatch(["gen-rotated", "--manifest", str(sd / "train.txt"), "--out", str(rot)]) == 0
    names = [f for c in ("original", "rot_left", "rot_right") for f in os.listdir(rot / c)]
    assert len(names) == 14 and not any(f.startswith(".") for f in names)
    assert "loss" in capsys.readouterr().out


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
    assert not (tmp_path / "r").exists()


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
    os.close(protocol._acquire_lock(out))  # the run let its lock go

    rc = dispatch(["evaluate", "--checkpoint", str(out / "ckpt_final.bin"),
                   "--manifest", str(out / "test.txt"), "--data-root", str(dd)])
    assert rc == 0
    assert "accuracy=" in capsys.readouterr().out

    rc = dispatch(["assess", "--run", str(out), "--detectors.window=4"])
    assert rc == 0
    assert "recommendation=" in capsys.readouterr().out

    svg = tmp_path / "acc.svg"
    assert dispatch(["plot", "--run", str(out), "--series", "val_acc,test_acc",
                     "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def _small_run_argv(tmp_path, out, days=2):
    dd = tmp_path / "data"
    if not dd.exists():
        dispatch(["gen-synth", "--out", str(dd), "--classes", "2", "--per-class", "20",
                  "--size", "8", "--seed", "1"])
    return ["run", "--out", str(out), f"--data.root={dd}", "--data.image_size=8",
            "--model.layers=conv:2:3:1:1,relu,pool:2,flatten,dense:2",
            f"--schedule.days={days}", "--schedule.n_per_day=4", "--protocol.batch_size=4",
            "--protocol.checkpoint_every=1"]


def test_library_and_cli_runs_write_the_same_config_record(tmp_path):
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    assert dispatch(_small_run_argv(tmp_path, cli_out) + ["--detectors.window=5"]) == 0
    cfg = config.ExperimentConfig(
        layers=parse_layers("conv:2:3:1:1,relu,pool:2,flatten,dense:2", 8), image_size=8,
        total_days=2, n_per_day=4, batch_size=4, checkpoint_every=1,
        momentum=0,  # an int in a float field is written as the CLI reads it, 0.0
        detectors=metrics.DetectorConfig(window=5), data_root=str(tmp_path / "data"),
    )
    protocol.run_experiment(cfg, str(lib_out))
    record = (lib_out / "effective_config.cfg").read_bytes()
    assert record == (cli_out / "effective_config.cfg").read_bytes()
    assert b"detectors.window = 5\n" in record and b"optimizer.momentum = 0.0\n" in record


def test_run_held_lock_blocks_concurrent_out(tmp_path, capsys):
    # flock conflicts between two descriptors even within one process
    out = tmp_path / "r"
    out.mkdir()
    argv = _small_run_argv(tmp_path, out)
    fd = os.open(out / "lock", os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert dispatch(argv) == 2
        assert "locked" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()
    finally:
        os.close(fd)
    assert dispatch(argv) == 0


def test_library_run_takes_the_lock_and_lets_it_go_on_a_raise(tmp_path, monkeypatch):
    out = tmp_path / "r"
    out.mkdir()
    overrides = [tok[2:] for tok in _small_run_argv(tmp_path, out)[3:]]
    cfg = to_experiment_config(load_effective_config(overrides=overrides, env={}))
    fd = protocol._acquire_lock(out)
    try:
        with pytest.raises(errors.UsageError, match="is locked by another invocation"):
            protocol.run_experiment(cfg, out)
        assert not (out / "metrics.csv").exists()
    finally:
        os.close(fd)

    def crash(*args):
        raise _Crash("stopped inside the first day")

    monkeypatch.setattr(protocol, "run_day", crash)
    with pytest.raises(_Crash):
        protocol.run_experiment(cfg, out)
    monkeypatch.undo()
    os.close(protocol._acquire_lock(out))  # the raising run let its lock go


def _lock_child(code, *args):
    """A Python child running `code` with daylearn importable, its stdin
    and stdout piped as text."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(data.__file__)))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def test_run_lock_of_a_killed_process_frees_itself(tmp_path):
    out = tmp_path / "r"
    out.mkdir()
    argv = _small_run_argv(tmp_path, out)
    child = _lock_child("import sys, time\n"
                        "from daylearn import protocol\n"
                        "protocol._acquire_lock(sys.argv[1])\n"
                        "print('held', flush=True)\n"
                        "time.sleep(60)\n", str(out))
    try:
        assert child.stdout.readline() == "held\n"
        assert dispatch(argv) == 2
    finally:
        child.kill()  # SIGKILL: no handler or finally of the child runs
        child.communicate()
    assert dispatch(argv) == 0


def test_run_leftover_lock_file_does_not_block(tmp_path):
    # only a held lock blocks: a lock file alone, even one naming this
    # live process, means nothing, and a run leaves its own behind
    out = tmp_path / "r"
    out.mkdir()
    (out / "lock").write_text(f"{os.getpid()}\n")
    assert dispatch(_small_run_argv(tmp_path, out)) == 0
    assert (out / "lock").exists()
    assert dispatch(_small_run_argv(tmp_path, out)) == 0


def test_run_lock_race_has_exactly_one_winner(tmp_path):
    # 6 processes race for a directory whose lock a dead process left; a
    # winner never closes its descriptor, so it holds the lock until it exits
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()  # reaped: its pid names no live process
    code = ("import sys, time\n"
            "from daylearn import protocol\n"
            "from daylearn.errors import UsageError\n"
            "print('ready', flush=True)\n"
            "for line in sys.stdin:\n"
            "    out, start = line.split()\n"
            "    time.sleep(max(0.0, float(start) - time.time()))\n"
            "    try:\n"
            "        protocol._acquire_lock(out)\n"
            "        print('won', flush=True)\n"
            "    except UsageError:\n"
            "        print('locked', flush=True)\n")
    children = [_lock_child(code) for _ in range(6)]
    try:
        assert [child.stdout.readline() for child in children] == ["ready\n"] * 6
        for trial in range(3):
            out = tmp_path / f"r{trial}"
            out.mkdir()
            (out / "lock").write_text(f"{dead.pid}\n")
            start = time.time() + 0.2  # all 6 try at this instant
            for child in children:
                child.stdin.write(f"{out} {start}\n")
                child.stdin.flush()
            results = sorted(child.stdout.readline() for child in children)
            assert results == ["locked\n"] * 5 + ["won\n"], trial
    finally:
        for child in children:
            child.stdin.close()
        for child in children:
            child.wait(timeout=60)
            child.stdout.close()


def test_run_race_for_a_new_directory_has_exactly_one_writer(tmp_path):
    # 4 runs of different seeds start at one instant on a directory that does
    # not exist yet; the winner holds the lock in its first day until told
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out)
    code = ("import contextlib, sys, time\n"
            "from daylearn import cli, protocol\n"
            "run_day = protocol.run_day\n"
            "def held(*args):\n"
            "    protocol.run_day = run_day\n"
            "    print('won', flush=True)\n"
            "    sys.stdin.readline()\n"
            "    return run_day(*args)\n"
            "protocol.run_day = held\n"
            "print('ready', flush=True)\n"
            "time.sleep(max(0.0, float(sys.stdin.readline()) - time.time()))\n"
            "with contextlib.redirect_stderr(sys.stdout):\n"
            "    sys.exit(cli.dispatch(sys.argv[1:]))\n")
    children = [_lock_child(code, *argv, "--seed", str(seed)) for seed in range(4)]
    try:
        assert [child.stdout.readline() for child in children] == ["ready\n"] * 4
        start = time.time() + 0.2
        for child in children:
            child.stdin.write(f"{start}\n")
            child.stdin.flush()
        lines = [child.stdout.readline() for child in children]
        assert lines.count("won\n") == 1, lines
        winner = lines.index("won\n")
        for seed, child in enumerate(children):
            if seed != winner:
                assert lines[seed].startswith("USAGE_ERROR: run directory"), lines[seed]
                assert child.wait(timeout=60) == 2
        assert dispatch(argv) == 2  # the winner still holds the lock
        children[winner].stdin.write("go\n")
        children[winner].stdin.flush()
        assert children[winner].wait(timeout=120) == 0
    finally:
        for child in children:
            child.kill()
            child.communicate()
    # every file is the winner's: a loser's seed would change the record
    assert f"protocol.seed = {winner}\n" in (out / "effective_config.cfg").read_text()
    assert (out / "ckpt_final.bin").exists()


class _Crash(Exception):
    pass


class _CrashOnClose:
    """An open file whose `with` block closes it and then raises _Crash."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self.f

    def __exit__(self, *exc):
        self.f.close()
        raise _Crash("killed after the write")


def _run_writes(monkeypatch, crash=lambda n, target, after: False):
    """Number the writes of a run: each os.replace (a rewritten file) and
    each append-mode open. `crash(n, target, after)` says whether to raise
    _Crash just before write n to `target` (after=False) or just after it
    (after=True). Returns the targets of the numbered writes and the files
    opened for writing in any other mode."""
    points, others = [], []
    real_replace, real_open = os.replace, open

    def hit(target, after):
        return crash(len(points) - 1, target, after)

    def replace(src, dst, *args, **kwargs):
        points.append(str(dst))
        if hit(dst, False):
            raise _Crash("killed before the write")
        real_replace(src, dst, *args, **kwargs)
        if hit(dst, True):
            raise _Crash("killed after the write")

    def open_(file, mode="r", *args, **kwargs):
        if "a" not in mode:
            if set(mode) & set("wx+"):
                others.append(str(file))
            return real_open(file, mode, *args, **kwargs)
        points.append(str(file))
        if hit(file, False):
            raise _Crash("killed before the write")
        f = real_open(file, mode, *args, **kwargs)
        return _CrashOnClose(f) if hit(file, True) else f

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(builtins, "open", open_)
    return points, others


def _assert_same_run(a, b, where=None):
    for name in ("metrics.csv", "ckpt_final.bin", "state.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), (name, where)


def test_crash_before_or_after_any_write_resumes_byte_identical(tmp_path, monkeypatch):
    # a 4-day run that pre-trains and saves every day; each of its writes
    # is a crash point, and so is the first write of the resume after it.
    # The crashed run starts in a new directory, over a finished run of the
    # same config, whose state.txt must not outlive the restart, or over a
    # finished run of another config, whose record must not outlive it either:
    # a resume reads the record, and the old one would change the config
    def argv(out):
        return _small_run_argv(tmp_path, out, days=4) + [
            "--protocol.pretrain_size=8", "--protocol.pretrain_epochs=2"]

    full = tmp_path / "full"
    full_argv = argv(full)  # makes the data set first
    points, others = _run_writes(monkeypatch)
    assert dispatch(full_argv) == 0
    monkeypatch.undo()
    assert points and all(pathlib.Path(path).parent == full for path in points)
    # every other write goes to a temp file that an os.replace then moves
    # over the old one, so a kill in the middle of it leaves that file whole
    assert others and all(path.endswith(".tmp") for path in others)
    other = tmp_path / "other"
    assert dispatch(argv(other) + ["--protocol.pretrain_size=12", "--optimizer.lr=0.01"]) == 0
    for start in (None, full, other):
        for n in range(len(points)):
            for after in (False, True):
                out = tmp_path / "crashed"
                if start is not None:
                    shutil.copytree(start, out)
                _run_writes(monkeypatch, lambda i, target, a: (i, a) == (n, after))
                with pytest.raises(_Crash):
                    dispatch(argv(out))
                _run_writes(monkeypatch, lambda i, target, a: (i, a) == (0, after))
                with pytest.raises(_Crash):
                    dispatch(argv(out) + ["--resume"])
                monkeypatch.undo()
                where = (start, points[n], after)
                assert dispatch(argv(out) + ["--resume"]) == 0, where
                _assert_same_run(full, out, where)
                shutil.rmtree(out)


@pytest.mark.parametrize("name", ["dayplan.txt", "test.txt", "effective_config.cfg", "run_meta.txt",
                                  "metrics.csv"])
def test_kill_while_rewriting_a_run_file_keeps_the_previous_file(tmp_path, monkeypatch, name):
    # a resume of a stopped run, killed just before it replaces `name`
    full, crashed = tmp_path / "full", tmp_path / "crashed"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    argv = _small_run_argv(tmp_path, crashed, days=4)
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    kept = (crashed / name).read_bytes()
    _run_writes(monkeypatch, lambda n, target, after: not after and os.path.basename(target) == name)
    with pytest.raises(_Crash):
        dispatch(argv + ["--resume"])
    monkeypatch.undo()
    assert (crashed / name).read_bytes() == kept
    assert dispatch(argv + ["--resume"]) == 0
    _assert_same_run(full, crashed)


def test_kill_while_appending_metrics_resumes_byte_identical(tmp_path):
    # a kill in the middle of an append leaves a row without its newline
    full, crashed = tmp_path / "full", tmp_path / "crashed"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    argv = _small_run_argv(tmp_path, crashed, days=4)
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    day3 = (full / "metrics.csv").read_bytes().splitlines(keepends=True)[3]
    with open(crashed / "metrics.csv", "ab") as f:
        f.write(day3[: len(day3) // 2])
    # the readers of a run directory skip the torn row as a resume does
    assert dispatch(["assess", "--run", str(crashed), "--detectors.window=2"]) == 0
    assert dispatch(["plot", "--run", str(crashed), "--out", str(tmp_path / "torn.svg")]) == 0
    assert dispatch(argv + ["--resume"]) == 0
    _assert_same_run(full, crashed)


def test_run_meta_counts_every_optimizer_step(tmp_path):
    # pre-training steps and the steps before a resume count too
    full, resumed = tmp_path / "full", tmp_path / "resumed"
    pretrain = ["--protocol.pretrain_size=8", "--protocol.pretrain_epochs=2"]
    assert dispatch(_small_run_argv(tmp_path, full, days=4) + pretrain) == 0
    argv = _small_run_argv(tmp_path, resumed, days=4) + pretrain
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    assert dispatch(argv + ["--resume"]) == 0
    _, optimizer = nn.checkpoint_load(str(full / "ckpt_final.bin"))
    assert optimizer.t > 4  # more than the 4 day steps
    for out in (full, resumed):
        meta = (out / "run_meta.txt").read_text().splitlines()
        assert f"total_optimizer_steps={optimizer.t}" in meta


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
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert dispatch(argv + ["--resume", "--schedule.n_per_day=5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_ERROR: resume refused: config hash does not match")
    assert "may also predate the canonical config hash" in err
    # a refused resume writes nothing, not even its own effective config
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _files(run_dir):
    return {p.name: p.read_bytes() for p in run_dir.iterdir()}


def test_resume_layers_environment_config_and_overrides_over_the_record(tmp_path, capsys, monkeypatch):
    # precedence: defaults < record < environment < --config < overrides
    full, stopped = tmp_path / "full", tmp_path / "stopped"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    assert dispatch(_small_run_argv(tmp_path, stopped, days=4) + ["--stop-after-day", "2"]) == 0
    kept = _files(stopped)

    def ways(key, value):
        """way -> (argv, environment) that sets `key` to `value` that way."""
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {value}\n")
        env = config.ENV_PREFIX + key.upper().replace(".", "__")
        return {"override": ([f"--{key}={value}"], {}), "environment": ([], {env: value}),
                "config": (["--config", str(path)], {})}

    def resume(out, argv, env):
        capsys.readouterr()
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            code = dispatch(["run", "--out", str(out), "--resume", *argv])
        return code, capsys.readouterr().err

    # a hashed value other than the record's is refused however it is given, and nothing is written
    for way, (argv, env) in ways("schedule.days", "5").items():
        code, err = resume(stopped, argv, env)
        assert code == 2 and err.startswith("CONFIG_ERROR: resume refused: config hash does not match"), way
        assert _files(stopped) == kept, way
    # the recorded data root is gone; each way of naming its new place beats the record
    (tmp_path / "data").rename(tmp_path / "moved")
    assert resume(stopped, [], {})[0] == 1
    assert _files(stopped) == kept
    for way, (argv, env) in ways("data.root", str(tmp_path / "moved")).items():
        shutil.copytree(stopped, tmp_path / way)
        assert resume(tmp_path / way, argv, env) == (0, ""), way
        _assert_same_run(full, tmp_path / way, way)


def test_fresh_run_over_an_old_directory_does_not_read_its_record(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    argv = _small_run_argv(tmp_path, old)
    assert dispatch(argv + ["--optimizer.lr=0.01"]) == 0
    kept = _files(old)
    # the record names a data root, but only a resume reads the record
    capsys.readouterr()
    assert dispatch(["run", "--out", str(old)]) == 2
    assert capsys.readouterr().err == "CONFIG_ERROR: a data root is required (config key 'data.root')\n"
    assert _files(old) == kept
    # a fresh run with its own flags runs them alone, not the old run's lr
    assert dispatch(argv) == 0
    assert dispatch(_small_run_argv(tmp_path, new)) == 0
    _assert_same_run(new, old)
    assert (old / "effective_config.cfg").read_bytes() == (new / "effective_config.cfg").read_bytes()


def test_bare_resume_and_evaluate_take_the_record_from_any_directory(tmp_path, monkeypatch, capsys):
    # the record gives every flag; its data.root is absolute, as a later
    # command on the run may start in another directory
    full = tmp_path / "full"
    argv = _small_run_argv(tmp_path, full, days=4)
    assert dispatch(argv) == 0
    monkeypatch.chdir(tmp_path)
    relative = ["--data.root=data" if a.startswith("--data.root=") else a for a in argv[3:]]
    assert dispatch(["run", "--out", "runs/r", *relative, "--stop-after-day", "2"]) == 0
    assert f"data.root = {tmp_path / 'data'}\n" in (tmp_path / "runs/r/effective_config.cfg").read_text()
    monkeypatch.chdir(tmp_path / "runs")
    assert dispatch(["run", "--out", "r", "--resume"]) == 0
    _assert_same_run(full, tmp_path / "runs/r")
    capsys.readouterr()
    assert dispatch(["evaluate", "--checkpoint", "r/ckpt_final.bin", "--manifest", "r/test.txt"]) == 0
    last = metrics.read_metrics(full / "metrics.csv").records[-1]
    assert capsys.readouterr().out.startswith(f"loss={last.test_loss:.6g} accuracy={last.test_acc:.6g} ")


def test_bad_training_image_ends_the_run_on_its_day_and_a_resume_after_repair_matches(tmp_path, capsys):
    # training images decode on first use, so a bad one is met on its day,
    # after the earlier days are written
    full, broken = tmp_path / "full", tmp_path / "broken"
    assert dispatch(_small_run_argv(tmp_path, full, days=4)) == 0
    plan = (full / "dayplan.txt").read_text().splitlines()
    row = int(plan[3].split("\t")[1].split(",")[0])  # first arrives on day 3
    image = tmp_path / "data" / data.manifest_read(full / "train.txt").entries[row][0]
    good = image.read_bytes()
    image.write_bytes(good[:7])
    capsys.readouterr()
    assert dispatch(_small_run_argv(tmp_path, broken, days=4)) == 3
    assert capsys.readouterr().err == f"DATA_ERROR: {image}: truncated PGM header at offset 7\n"
    assert {r.day for r in metrics.read_metrics(broken / "metrics.csv").records} == {1, 2}
    assert sorted(p.name for p in broken.glob("ckpt_*")) == ["ckpt_day_00001.bin", "ckpt_day_00002.bin"]
    image.write_bytes(good)
    assert dispatch(["run", "--out", str(broken), "--resume"]) == 0
    _assert_same_run(full, broken)


@pytest.mark.parametrize("command,args,prefix", [
    ("evaluate", ["--protocol.batch_size=0"], "CONFIG_ERROR: batch_size"),
    ("evaluate", ["--protocol.batch_size=-4"], "CONFIG_ERROR: batch_size"),
    ("split", ["--fractions", "a,b,c"], "CONFIG_ERROR: --fractions"),
    ("split", ["--fractions", "nan,nan,nan"], "CONFIG_ERROR: split fractions"),
    ("split", ["--fractions", "1.5,-0.25,-0.25"], "CONFIG_ERROR: split fractions"),
    ("gen-synth", ["--size", "-3"], "CONFIG_ERROR: image size"),
    # refused before the pattern's arrays are allocated
    ("gen-synth", ["--size", "100000"], "CONFIG_ERROR: image size must be in 1-4096"),
    ("run", ["--protocol.pretrain_size=-34"], "CONFIG_ERROR: pretrain_size must be >= 0"),
    ("run", ["--data.jitter=inf"], "CONFIG_ERROR: translate_fraction and jitter_fraction"),
    ("run", ["--data.rotate_degrees=inf"], "CONFIG_ERROR: rotation_degrees must be finite"),
    ("run", ["--data.translate=1e300"], "CONFIG_ERROR: translate_fraction and jitter_fraction"),
    ("evaluate", ["--data.norm_mean=nan"], "CONFIG_ERROR: normalization mean must be finite"),
    ("assess", ["--detectors.slope_tol=nan"], "CONFIG_ERROR: tolerances"),
    ("assess", ["--detectors.var_tol=nan"], "CONFIG_ERROR: tolerances"),
    ("run", ["--protocol.pretrain_target=nan", "--protocol.pretrain_size=4"],
     "CONFIG_ERROR: pretrain_target must be a number"),
    ("run", ["--stop-after-day", "0"], "USAGE_ERROR: stop_after_day must be >= 1"),
    ("grad-check", ["--seeds", "0"], "USAGE_ERROR: --seeds must be >= 1"),
    ("grad-check", ["--h", "0"], "USAGE_ERROR: --h must be finite and > 0"),
    ("grad-check", ["--h", "nan"], "USAGE_ERROR: --h must be finite and > 0"),
    ("grad-check", ["--tol", "nan"], "USAGE_ERROR: --tol must be finite and > 0"),
    ("gen-synth", ["--noise", "nan"], "CONFIG_ERROR: noise level must be finite and >= 0"),
    ("gen-synth", ["--noise", "-0.5"], "CONFIG_ERROR: noise level must be finite and >= 0"),
    ("gen-synth", ["--noise", "inf"], "CONFIG_ERROR: noise level must be finite and >= 0"),
    ("plot", ["--phase", "bogus"], "USAGE_ERROR: phase must be one of ('pretrain', 'sequential')"),
    ("run", ["--schedule.strategy=bogus"], "CONFIG_ERROR: strategy must be one of"),
    ("run", ["--protocol.loss=bogus"], "CONFIG_ERROR: loss kind must be one of"),
    ("evaluate", ["--loss", "bogus"], "CONFIG_ERROR: loss kind must be one of"),
    ("run", ["--protocol.epochs_per_day=0"], "CONFIG_ERROR: epoch counts must be >= 1"),
    ("gen-rotated", ["--source-class", "nope"], "DATA_ERROR: no entries with class 'nope'"),
], ids=["batch_0", "batch_negative", "fractions_not_numbers", "fractions_nan",
        "fractions_negative", "size_negative", "size_huge", "pretrain_size_negative", "jitter_inf",
        "rotate_inf", "translate_huge", "norm_mean_nan", "slope_tol_nan", "var_tol_nan",
        "pretrain_target_nan", "stop_after_day_0", "grad_check_seeds_0", "grad_check_h_0",
        "grad_check_h_nan", "grad_check_tol_nan", "noise_nan", "noise_negative", "noise_inf",
        "plot_phase_bogus", "strategy_bogus", "loss_bogus", "evaluate_loss_bogus",
        "epochs_per_day_0", "source_class_missing"])
def test_bad_numeric_argument_is_a_typed_error(tmp_path, capsys, command, args, prefix):
    dd = tmp_path / "data"
    data.gen_synthetic(2, 4, 8, 0.05, 0, str(dd))
    ckpt = tmp_path / "model.bin"
    model = nn.Model(parse_layers("conv:2:3:1:1,relu,pool:2,flatten,dense:2", 8), (1, 8, 8))
    nn.checkpoint_save(model, nn.Adam(1e-3), str(ckpt))
    plotted = tmp_path / "plotted"
    plotted.mkdir()
    record = metrics.MetricsRecord(1, 1, "sequential", val_acc=0.5)
    metrics.write_metrics(metrics.RunLog("r", [record]), plotted / "metrics.csv")
    paths = {
        "evaluate": ["--checkpoint", str(ckpt), "--manifest", str(dd / "manifest.txt")],
        "split": ["--data", str(dd), "--out", str(tmp_path / "split")],
        "gen-synth": ["--out", str(tmp_path / "synth")],
        "run": _small_run_argv(tmp_path, tmp_path / "r")[1:],
        "assess": ["--run", str(tmp_path / "r")],
        "plot": ["--run", str(plotted), "--out", str(tmp_path / "acc.svg")],
        "grad-check": [],
        "gen-rotated": ["--manifest", str(dd / "manifest.txt"), "--out", str(tmp_path / "rot")],
    }
    codes = {e.label: e.exit_code for e in (errors.ConfigError, errors.UsageError, errors.DataError)}
    assert dispatch([command, *paths[command], *args]) == codes[prefix.split(":")[0]]
    assert capsys.readouterr().err.startswith(prefix)
    assert not (tmp_path / "r").exists()  # a rejected run writes nothing


UTF16 = "schedule.days = 3\n".encode("utf-16")  # starts \xff\xfe
HEADER = ",".join(metrics.CSV_COLUMNS)
BAD_CELL = f"{HEADER}\nr,sequential,1,1,0.5,x,,,,\n".encode()
BAD_PHASE = f"{HEADER}\nr,warmup,1,1,0.5,0.5,,,,\n".encode()
ASSESS = ["assess", "--run", "{dir}"]
PLOT = ["plot", "--run", "{dir}", "--out", "{dir}/acc.svg"]


@pytest.mark.parametrize("name,text,argv,err,code", [
    ("metrics.csv", UTF16, ASSESS, "DATA_ERROR: {path}: not UTF-8 text", 3),
    ("metrics.csv", UTF16, PLOT, "DATA_ERROR: {path}: not UTF-8 text", 3),
    ("c.cfg", UTF16, ["run", "--config", "{path}", "--out", "{dir}/r"],
     "CONFIG_ERROR: {path}: not UTF-8 text", 2),
    ("c.cfg", UTF16, ["assess", "--config", "{path}", "--run", "{dir}"],
     "CONFIG_ERROR: {path}: not UTF-8 text", 2),
    ("manifest.txt", UTF16, ["gen-rotated", "--manifest", "{path}", "--out", "{dir}/rot"],
     "DATA_ERROR: {path}: not UTF-8 text", 3),
    # text that decodes, with a bad row
    ("metrics.csv", BAD_CELL, ASSESS, "DATA_ERROR: {path}:2: could not convert string to float: 'x'", 3),
    ("metrics.csv", BAD_CELL, PLOT, "DATA_ERROR: {path}:2: could not convert string to float: 'x'", 3),
    ("metrics.csv", BAD_PHASE, ASSESS, "DATA_ERROR: {path}:2: phase must be one of", 3),
    ("metrics.csv", BAD_PHASE, PLOT, "DATA_ERROR: {path}:2: phase must be one of", 3),
], ids=["assess_metrics", "plot_metrics", "run_config", "assess_config", "gen_rotated_manifest",
        "assess_metrics_cell", "plot_metrics_cell", "assess_metrics_phase", "plot_metrics_phase"])
def test_undecodable_text_file_is_a_typed_error(tmp_path, capsys, name, text, argv, err, code):
    path = tmp_path / name
    path.write_bytes(text)
    argv = [a.format(dir=tmp_path, path=path) for a in argv]
    assert dispatch(argv) == code
    assert capsys.readouterr().err.startswith(err.format(path=path))


def test_python_m_daylearn_runs_the_cli_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(data.__file__)))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "daylearn", "grad-check", "--seeds", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "grad-check: OK" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_exit_code_data_error(tmp_path, capsys):
    root = tmp_path / "ds"
    (root / "emptyclass").mkdir(parents=True)
    rc = dispatch(["split", "--data", str(root), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "DATA_ERROR" in capsys.readouterr().err


def test_exit_code_mixed_image_sizes(tmp_path, capsys):
    # every image of class c1 is 9 wide in an 8x8 data set
    argv = _small_run_argv(tmp_path, tmp_path / "r")
    for path in sorted((tmp_path / "data" / "c1").iterdir()):
        data.pgm_write(data.Image(np.zeros((8, 9), dtype=np.uint8)), path)
    assert dispatch(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("DATA_ERROR: c1/img_") and "image is 9x8, expected 8x8" in err
    # evaluate checks the images against the checkpoint's input shape
    model = nn.Model([nn.FlattenSpec(), nn.DenseSpec(64, 2)], (1, 8, 8))
    nn.checkpoint_save(model, None, tmp_path / "ckpt.bin")
    assert dispatch(["split", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "split")]) == 0
    assert dispatch(["evaluate", "--checkpoint", str(tmp_path / "ckpt.bin"), "--manifest",
                     str(tmp_path / "split" / "test.txt"), "--data-root", str(tmp_path / "data")]) == 3
    assert "image is 9x8, expected 8x8" in capsys.readouterr().err


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


@pytest.mark.parametrize("last_day", [999, -3])
def test_resume_with_last_day_outside_the_plan_exits_1(tmp_path, capsys, last_day):
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out, days=4)
    assert dispatch(argv + ["--stop-after-day", "2"]) == 0
    state = out / "state.txt"
    state.write_text(state.read_text().replace("last_day=2\n", f"last_day={last_day}\n"))
    kept = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert dispatch(argv + ["--resume"]) == 1
    assert capsys.readouterr().err == (
        f"CHECKPOINT_ERROR: corrupt run state {state}: last_day {last_day} outside days 1-4\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == kept


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
    # no finite difference meets a tolerance of 1e-30: every failing tensor gets a line
    assert dispatch(["grad-check", "--seeds", "1", "--tol", "1e-30"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL loss=softmax_ce seed=0 layer0.w rel_err=")
    assert lines[-1] == "grad-check: FAILED" and "grad-check: OK" not in lines


# ---------------------------------------------------------------------------
# command and error tables
# ---------------------------------------------------------------------------


def test_every_subcommand_has_a_handler():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert sorted(sub.choices) == ["assess", "evaluate", "gen-rotated", "gen-synth",
                                   "grad-check", "plot", "run", "split"]
    for name, sp in sub.choices.items():
        assert callable(sp.get_default("handler")), name
        assert sp.get_default("overrides") is (name in ("run", "evaluate", "assess")), name


@pytest.mark.parametrize("error,label,code", [
    (errors.ConfigError, "CONFIG_ERROR", 2),
    (errors.UsageError, "USAGE_ERROR", 2),
    (errors.DataError, "DATA_ERROR", 3),
    (errors.NumericError, "NUMERIC_ERROR", 1),
    (errors.CheckpointError, "CHECKPOINT_ERROR", 1),
    (FileNotFoundError, "IO_ERROR", 1),
])
def test_each_error_class_reaches_its_label_and_exit_code(monkeypatch, capsys, error, label, code):
    def handler(args, overrides):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_grad_check", handler)
    assert dispatch(["grad-check"]) == code
    assert capsys.readouterr().err == f"{label}: boom\n"


def test_overrides_only_for_commands_that_take_them(capsys):
    assert dispatch(["grad-check", "--protocol.seed=1"]) == 2
    assert capsys.readouterr().err == "USAGE_ERROR: overrides not supported for grad-check\n"
    assert dispatch(["grad-check", "stray"]) == 2
    assert capsys.readouterr().err == "USAGE_ERROR: unrecognized argument 'stray'\n"


@pytest.mark.parametrize("loss", ["softmax_ce", "bce_logits"])
def test_evaluate_more_classes_than_logits_is_a_data_error(tmp_path, capsys, loss):
    dd = tmp_path / "data"
    data.gen_synthetic(3, 2, 8, 0.05, 0, str(dd))
    model = nn.Model(parse_layers("flatten,dense:2", 8), (1, 8, 8))
    nn.checkpoint_save(model, None, tmp_path / "ckpt.bin")
    assert dispatch(["evaluate", "--checkpoint", str(tmp_path / "ckpt.bin"),
                     "--manifest", str(dd / "manifest.txt"), "--loss", loss]) == 3
    assert capsys.readouterr().err == "DATA_ERROR: class index out of range [0,2)\n"


@pytest.mark.parametrize("override", ["optimizer.kind=foo", "optimizer.beta1=2"])
def test_bad_optimizer_value_is_refused_before_the_run_directory_exists(tmp_path, capsys, override):
    out = tmp_path / "r"
    assert dispatch(_small_run_argv(tmp_path, out) + [f"--{override}"]) == 2
    assert capsys.readouterr().err.startswith("CONFIG_ERROR:")
    assert not out.exists()


def test_assess_applies_the_detectors_the_run_recorded(tmp_path, capsys, monkeypatch):
    # 3 days give 3 validation points: window 2 or 3 assesses, 4 and up refuse
    out = tmp_path / "r"
    assert dispatch(_small_run_argv(tmp_path, out, days=3) + ["--detectors.window=2"]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("detectors.window = 3\n")

    def assess(*extra):
        capsys.readouterr()
        code = dispatch(["assess", "--run", str(out), *extra])
        return code, capsys.readouterr().err

    assert assess() == (0, "")
    # precedence: defaults < record < environment < --config < overrides
    assert assess("--detectors.window=4") == (2, "USAGE_ERROR: validation series has 3 points, "
                                                 "need >= window 4\n")
    monkeypatch.setenv("DAYLEARN_DETECTORS__WINDOW", "5")
    assert assess()[1].endswith("need >= window 5\n")
    assert assess("--config", str(cfg)) == (0, "")
    assert assess("--config", str(cfg), "--detectors.window=6")[1].endswith("window 6\n")
    monkeypatch.delenv("DAYLEARN_DETECTORS__WINDOW")
    (out / "effective_config.cfg").unlink()  # a run with no record: the defaults
    assert assess()[1].endswith("need >= window 20\n")


def test_evaluate_applies_the_config_the_run_recorded(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r"
    assert dispatch(_small_run_argv(tmp_path, out, days=3) + [
        "--protocol.loss=bce_logits", "--protocol.batch_size=5",
        "--data.norm_mean=0.1", "--data.norm_std=0.9"]) == 0
    last = metrics.read_metrics(out / "metrics.csv").records[-1]

    def evaluate(*extra):
        capsys.readouterr()
        assert dispatch(["evaluate", "--checkpoint", str(out / "ckpt_final.bin"),
                         "--manifest", str(out / "test.txt"), *extra]) == 0
        return capsys.readouterr().out.rsplit(" n=", 1)[0]

    # the record alone gives the loss, batch size, normalization and image root
    recorded = f"loss={last.test_loss:.6g} accuracy={last.test_acc:.6g}"
    assert evaluate() == recorded
    model, _ = nn.checkpoint_load(out / "ckpt_final.bin")
    split = protocol.load_split(str(tmp_path / "data"), data.manifest_read(out / "test.txt"),
                                data.NormalizationSpec(0.1, 0.9), (8, 8))
    loss, acc = protocol.evaluate(model, *split, "softmax_ce", 5)
    softmax = f"loss={loss:.6g} accuracy={acc:.6g}"
    assert softmax != recorded
    # precedence: defaults < record < environment < overrides (--loss among them)
    assert evaluate("--protocol.loss=softmax_ce") == softmax
    monkeypatch.setenv("DAYLEARN_PROTOCOL__LOSS", "softmax_ce")
    assert evaluate() == softmax
    assert evaluate("--loss", "bce_logits") == recorded
    # --data-root wins over data.root
    monkeypatch.delenv("DAYLEARN_PROTOCOL__LOSS")
    shutil.move(tmp_path / "data", tmp_path / "moved")
    assert evaluate("--data-root", str(tmp_path / "moved")) == recorded
    # with no record, a data.root the command line gives is the image root of the run's manifests
    (out / "effective_config.cfg").unlink()
    assert evaluate(f"--data.root={tmp_path / 'moved'}", "--loss", "bce_logits", "--protocol.batch_size=5",
                    "--data.norm_mean=0.1", "--data.norm_std=0.9") == recorded


def test_class_count_mismatch_is_refused_before_manifests_and_day_plan(tmp_path, capsys):
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out) + ["--model.layers=conv:2:3:1:1,relu,pool:2,flatten,dense:4"]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == "CONFIG_ERROR: model emits 4 logits but the dataset has 2 classes\n"
    assert not out.exists()


def test_odd_short_final_day_is_refused_before_the_first_day(tmp_path, capsys):
    # 27 rows after pre-training: six days of 4 and a final day of 3
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out, days=7) + [
        "--schedule.strategy=half_split", "--protocol.pretrain_size=1",
        "--schedule.allow_short_final=true"]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == "CONFIG_ERROR: half-split strategy needs an even day size, got 3\n"
    assert not out.exists()


def _truncate_a_test_image(run_dir, data_root):
    rel = data.manifest_read(run_dir / "test.txt").entries[0][0]
    (data_root / rel).write_bytes(b"P5\n8 8\n255\n")  # no pixel payload


def _truncate_the_final_checkpoint(run_dir, data_root):
    ckpt = run_dir / "ckpt_final.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:40])


def _add_an_image(run_dir, data_root):
    shutil.copy(data_root / "c1" / "img_00000.pgm", data_root / "c1" / "img_00099.pgm")


@pytest.mark.parametrize("damage,extra,code,err", [
    (_truncate_a_test_image, [], 3, "DATA_ERROR: "),
    # a detector key is outside the config hash but inside the record
    (_truncate_the_final_checkpoint, ["--resume", "--detectors.window=5"], 1, "CHECKPOINT_ERROR: "),
    (_add_an_image, ["--resume"], 3, "DATA_ERROR: resume refused: the split of the data root differs"),
], ids=["unreadable_test_image", "corrupt_checkpoint", "changed_data_root"])
def test_refused_run_over_a_finished_run_writes_nothing(tmp_path, capsys, damage, extra, code, err):
    out = tmp_path / "r"
    argv = _small_run_argv(tmp_path, out, days=4)
    assert dispatch(argv) == 0
    damage(out, tmp_path / "data")
    kept = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert dispatch(argv + extra) == code
    assert capsys.readouterr().err.startswith(err)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == kept
    # a refused run in a new directory leaves no directory; a resume there
    # has no state.txt, so it starts from day 1 and is not refused
    if "--resume" not in extra:
        new = tmp_path / "new"
        assert dispatch(_small_run_argv(tmp_path, new, days=4) + extra) == code
        assert not new.exists()
