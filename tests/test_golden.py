"""Pinned output bytes: sha256 of `metrics.csv`, `ckpt_final.bin` and
`dayplan.txt` for a few tiny runs, one per strategy, one with pre-training,
one stopped and resumed, one with a short final day and one whose second
conv (stride 2) trains through its input gradient, against
`golden/digests.txt`.

A change that moves any of these bytes on the same numpy and BLAS fails
here. When the change is meant to move them, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change which runs moved and why.
"""

import hashlib
import pathlib
import sys

import numpy as np

from daylearn.config import load_effective_config, to_experiment_config
from daylearn.data import gen_synthetic
from daylearn.nn import parse_layers
from daylearn.protocol import ExperimentConfig, run_experiment

DIGESTS = pathlib.Path(__file__).parent / "golden" / "digests.txt"
FILES = ("metrics.csv", "ckpt_final.bin", "dayplan.txt")
LAYERS = "conv:2:3:1:1,relu,pool:2,flatten,dense:3"

# name -> (ExperimentConfig fields over the shared ones, stop_after_day);
# together they cover both losses and both optimizers
RUNS = {
    "global": ({"strategy": "global"}, None),
    "prev_curr": ({"strategy": "prev_curr", "loss_kind": "bce_logits"}, None),
    "half_split": ({"strategy": "half_split", "epochs_per_day": 2}, None),
    "pretrain": ({"strategy": "global", "pretrain_size": 6, "pretrain_epochs": 2,
                  "pretrain_target": 1.0, "loss_kind": "bce_logits",
                  "optimizer_kind": "sgd", "learning_rate": 0.05, "momentum": 0.9}, None),
    "resumed": ({"strategy": "half_split", "checkpoint_every": 2}, 2),
    # 26 rows left after pre-training: six days of 4 and a final day of 2
    "short_final": ({"strategy": "half_split", "pretrain_size": 1, "total_days": 7,
                     "allow_short_final": True}, None),
    # a second conv, so training computes a conv input gradient
    "two_conv": ({"strategy": "half_split", "epochs_per_day": 2,
                  "layers": parse_layers("conv:3:3:1:1,relu,pool:2,conv:4:3:2:1,relu,flatten,dense:3", 8)},
                 None),
}


def _config(data_root, fields):
    return ExperimentConfig(**{
        "layers": parse_layers(LAYERS, 8), "image_size": 8, "batch_size": 4,
        "total_days": 4, "n_per_day": 4, "learning_rate": 0.01, "seed": 5,
        "checkpoint_every": 0, "data_root": str(data_root), **fields,
    })


def run_all(tmp):
    """Make every run of RUNS under `tmp`; yield (name, run directory)."""
    data_root = tmp / "data"
    gen_synthetic(3, 12, 8, 0.05, 2, str(data_root))
    for name, (fields, stop) in RUNS.items():
        config = _config(data_root, fields)
        run_dir = tmp / name
        if stop is not None:
            run_experiment(config, str(run_dir), stop_after_day=stop)
        run_experiment(config, str(run_dir), resume=stop is not None)
        yield name, run_dir


def digests(tmp):
    """{"<run>/<file>": sha256 hex} for every run of RUNS, made under `tmp`."""
    return {f"{name}/{f}": hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
            for name, run_dir in run_all(tmp) for f in FILES}


def test_every_run_records_the_config_it_ran(tmp_path):
    # a library run's effective_config.cfg reads back to the config state.txt names
    for name, run_dir in run_all(tmp_path):
        record = load_effective_config(run_dir / "effective_config.cfg", env={})
        state = dict(line.split("=", 1) for line in (run_dir / "state.txt").read_text().splitlines())
        assert to_experiment_config(record).config_hash() == state["config_hash"], name


def _versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def test_output_bytes_match_the_pinned_digests(tmp_path):
    want = dict(line.split() for line in DIGESTS.read_text().splitlines())
    got = digests(tmp_path)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, (
        f"output bytes differ from {DIGESTS.name} in {moved} on {_versions()}; "
        "the digests were made with numpy 2.4.6 and OpenBLAS 0.3.31"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{k} {v}\n" for k, v in digests(pathlib.Path(tmp)).items()]
    DIGESTS.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {DIGESTS} ({_versions()})", file=sys.stderr)
