"""Property test of the CLI error contract: a corrupt run directory, image,
manifest or config file reaches the user as a documented exit code with a
typed message, never as a traceback."""

import contextlib
import io
import os
import shutil
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from daylearn import data  # noqa: E402
from daylearn.cli import dispatch  # noqa: E402

PREFIXES = ("USAGE_ERROR: ", "CONFIG_ERROR: ", "DATA_ERROR: ", "NUMERIC_ERROR: ",
            "CHECKPOINT_ERROR: ", "IO_ERROR: ")
TARGETS = ("metrics.csv", "state.txt", "test.txt", "effective_config.cfg", "ckpt_final.bin", "image",
           "config")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A finished 2-day run over 2 classes of 8x8 images, its config file
    and the first image of its test split."""
    base = tmp_path_factory.mktemp("fuzz")
    root = base / "data"
    data.gen_synthetic(2, 10, 8, 0.05, 0, str(root))
    config = base / "run.cfg"
    config.write_text(
        f"data.root = {root}\ndata.image_size = 8\n"
        "model.layers = conv:2:3:1:1,relu,pool:2,flatten,dense:2\n"
        "schedule.days = 2\nschedule.n_per_day = 4\nprotocol.batch_size = 4\n"
        "detectors.window = 2\n"  # recorded, so `assess` with no config assesses the run
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["run", "--config", str(config), "--out", str(base / "run")]) == 0
    image = root / data.manifest_read(base / "run" / "test.txt").entries[0][0]
    return base, root, image


def _mutate(blob, edits, cut):
    """`blob` with byte edits (position taken modulo its length), then cut
    short when `cut` is given."""
    out = bytearray(blob)
    for pos, value in edits:
        out[pos % len(out)] = value
    if cut is not None:
        del out[cut % (len(out) + 1):]
    return bytes(out)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(
    target=st.sampled_from(TARGETS),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=4),
    cut=st.none() | st.integers(0, 2**16),
)
def test_corrupt_file_gives_a_typed_exit_code(pristine, target, edits, cut):
    base, root, image = pristine
    work = tempfile.mkdtemp(dir=base)
    try:
        run = os.path.join(work, "run")
        shutil.copytree(base / "run", run)
        config = os.path.join(work, "run.cfg")
        shutil.copy(base / "run.cfg", config)
        path = {"image": image, "config": config}.get(target) or os.path.join(run, target)
        with open(path, "rb") as f:
            original = f.read()
        with open(path, "wb") as f:
            f.write(_mutate(original, edits, cut))
        try:
            for argv in (
                ["assess", "--run", run, "--config", config, "--detectors.window=2"],
                ["assess", "--run", run],  # the run's effective_config.cfg is its only config
                ["plot", "--run", run, "--out", os.path.join(work, "acc.svg")],
                ["evaluate", "--checkpoint", os.path.join(run, "ckpt_final.bin"),
                 "--manifest", os.path.join(run, "test.txt"), "--data-root", str(root)],
                # the record gives the image root, loss, batch size and normalization
                ["evaluate", "--checkpoint", os.path.join(run, "ckpt_final.bin"),
                 "--manifest", os.path.join(run, "test.txt")],
                ["run", "--out", run, "--resume"],  # the record is its only config
                ["run", "--config", config, "--out", run, "--resume"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = dispatch(argv)
                assert code in (0, 1, 2, 3), (argv, code)
                if code:
                    assert err.getvalue().startswith(PREFIXES), (argv, err.getvalue())
        finally:
            if target == "image":  # the data directory is shared by every example
                with open(path, "wb") as f:
                    f.write(original)
    finally:
        shutil.rmtree(work)
