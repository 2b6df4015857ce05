"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import report
import run
from spans import Tracer

NAMES = ("pretrain_global", "half_split_epochs", "cli_resume_ckpt")


@pytest.fixture(autouse=True)
def _restore_thread_env(monkeypatch):
    # run.main pins BLAS threads in os.environ; undo that after each test
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, ""))


def _bench(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_matches_the_metric_tables():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_a_unit(capsys, workload):
    spec = _spec()
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, lines, result = _bench(capsys, workload, trace)
        assert code == 0 and result["correct"] and result["failed"] == 0, lines
        assert result["attempted"] >= (run.MIN_REPS if trace == 0 else 2)
        assert {m["name"]: m["unit"] for m in declared} == \
            {name: m["unit"] for name, m in result["metrics"].items()}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace == 0:
            printed = "\n".join(lines)
            for name, unit in report.END_TO_END + report.END_TO_END_PRINTED:
                assert f"  {name} " in printed and f" {unit} (" in printed
            assert "n=" in printed and "digest metrics.csv sha256=" in printed


def test_traced_self_times_add_up_to_the_parent_wall(capsys):
    code, _, _ = _bench(capsys, "cli_resume_ckpt", 1, seed=2)
    assert code == 0
    path = os.path.join(run.WORK, "spans", "cli_resume_ckpt-seed2-trace1-tiny.json")
    with open(path, encoding="utf-8") as f:
        dump = json.load(f)
    tracer = Tracer(dump["run_id"])
    tracer.spans = [[dump["names"][n], a, b, p, info] for n, a, b, p, info in dump["spans"]]
    self_s = tracer.self_times()
    root = next(i for i, s in enumerate(tracer.spans) if s[0] == "bench.rep")
    wall = tracer.spans[root][2] - tracer.spans[root][1]
    assert len(tracer.spans) > 1000
    assert sum(self_s) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert all(s >= -1e-9 for s in self_s)


def test_self_time_subtracts_child_coverage_once():
    tracer = Tracer("t")
    tracer.spans = [["p", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None], ["b", 3.0, 6.0, 0, None]]
    assert tracer.self_times()[0] == pytest.approx(5.0)


def test_gate_catches_an_altered_digest(capsys, monkeypatch):
    real = report.sha256
    calls = []

    def altered(path):
        digest = real(path)
        calls.append(path)
        if path.endswith("metrics.csv") and len([c for c in calls if c.endswith("metrics.csv")]) == 2:
            return "0" * 64
        return digest

    monkeypatch.setattr(report, "sha256", altered)
    code, lines, result = _bench(capsys, "pretrain_global", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("GATE FAIL: rep 1: metrics.csv digest") for line in lines)


def test_gate_requires_resume_to_match_the_uninterrupted_run():
    rep = {"digests": {"metrics.csv": "a", "ckpt_final.bin": "b"}, "days_to_90": 3, "final_test_acc": 1.0}
    assert report.gate("cli_resume_ckpt", [rep, rep], {"metrics.csv": "a", "ckpt_final.bin": "b"}) == ([], [])
    failed, messages = report.gate("cli_resume_ckpt", [rep, rep], {"metrics.csv": "a", "ckpt_final.bin": "c"})
    assert failed == [0, 1] and "differs from the uninterrupted run" in messages[0]
    failed, _ = report.gate("pretrain_global", [rep, dict(rep, days_to_90=None)])
    assert failed == [1]
