import builtins
import math

import numpy as np
import pytest

from daylearn import metrics
from daylearn.errors import DataError, UsageError
from daylearn.metrics import (
    DetectorConfig,
    MetricsRecord,
    RunLog,
    emit_plot,
    plateau_detect,
    read_metrics,
    spike_detect,
    training_assessment,
    window_stats,
    write_metrics,
)
from daylearn.rng import substream


def _log(n_days=5, run_id="abc12345"):
    recs = [
        MetricsRecord(0, e, "pretrain", train_loss=1.0 / e, train_acc=0.2 * e,
                      val_loss=1.1 / e, val_acc=0.15 * e)
        for e in (1, 2)
    ]
    for d in range(1, n_days + 1):
        recs.append(
            MetricsRecord(d, 1, "sequential", train_loss=0.5 / d, train_acc=min(1, 0.3 + 0.1 * d),
                          val_loss=0.6 / d, val_acc=min(1, 0.25 + 0.1 * d),
                          test_loss=0.7 / d, test_acc=min(1, 0.2 + 0.1 * d))
        )
    return RunLog(run_id, recs)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    log = _log(300)
    path = tmp_path / "m.csv"
    write_metrics(log, path)
    again = read_metrics(path)
    assert again.run_id == log.run_id
    assert len(again.records) == len(log.records)
    # second trip is byte-stable at the serialized precision
    write_metrics(again, tmp_path / "m2.csv")
    assert path.read_bytes() == (tmp_path / "m2.csv").read_bytes()
    for a, b in zip(log.records, again.records):
        for f in ("train_loss", "val_acc", "test_acc"):
            va, vb = getattr(a, f), getattr(b, f)
            assert vb == pytest.approx(va, rel=1e-5)


def test_csv_optional_fields(tmp_path):
    log = RunLog("r", [MetricsRecord(1, 1, "sequential", val_loss=0.5, val_acc=0.9)])
    path = tmp_path / "v.csv"
    write_metrics(log, path)
    line = path.read_text().splitlines()[1]
    assert line == "r,sequential,1,1,,,0.5,0.9,,"
    rec = read_metrics(path).records[0]
    assert rec.train_loss is None and rec.test_acc is None and rec.val_acc == 0.9


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("day,epoch\n1,1\n")
    with pytest.raises(DataError, match=":1"):
        read_metrics(path)


def test_csv_bad_row_names_line(tmp_path):
    log = _log(2)
    path = tmp_path / "m.csv"
    write_metrics(log, path)
    path.write_text(path.read_text() + "oops\n")
    with pytest.raises(DataError):
        read_metrics(path)


def test_csv_unterminated_last_row_is_dropped(tmp_path):
    # a kill during an append leaves a row without its newline
    whole, torn = tmp_path / "whole.csv", tmp_path / "torn.csv"
    write_metrics(_log(3), whole)
    torn.write_text(whole.read_text() + "abc12345,sequential,4,1,0.5")
    assert read_metrics(torn) == read_metrics(whole)
    assert len(read_metrics(torn).records) == 5


def test_record_needs_a_metric():
    with pytest.raises(UsageError):
        MetricsRecord(1, 1, "sequential")


# ---------------------------------------------------------------------------
# plateau detection
# ---------------------------------------------------------------------------


def brute_force_plateau(series, cfg):
    for i in range(len(series) - cfg.window + 1):
        w = np.asarray(series[i : i + cfg.window], dtype=np.float64)
        x = np.arange(cfg.window, dtype=np.float64)
        slope = np.polyfit(x, w, 1)[0]
        if abs(slope) <= cfg.slope_tolerance and w.var(ddof=1) <= cfg.variance_tolerance:
            return i
    return None


def test_plateau_constant_series():
    cfg = DetectorConfig(window=5, slope_tolerance=0.01, variance_tolerance=0.01)
    assert plateau_detect([0.5] * 20, cfg) == 0


def test_plateau_linear_series_none():
    cfg = DetectorConfig(window=5, slope_tolerance=0.01, variance_tolerance=1e9)
    assert plateau_detect(list(range(30)), cfg) is None


def test_plateau_too_short():
    with pytest.raises(UsageError):
        plateau_detect([1.0, 2.0], DetectorConfig(window=5))


def test_plateau_saturating_series_vs_brute_force():
    rng = substream(7, "plateau")
    t = np.arange(90)
    series = list(0.5 + 0.45 * (1 - np.exp(-t / 20)) + rng.normal(0, 0.01, size=90))
    cfg = DetectorConfig(window=30, slope_tolerance=0.002, variance_tolerance=0.001)
    idx = plateau_detect(series, cfg)
    assert idx is not None and idx >= 30  # after the initial rise
    assert idx == brute_force_plateau(series, cfg)


def test_plateau_random_series_match_brute_force():
    for s in range(200):
        rng = substream(s, "rand-plateau")
        n = int(rng.integers(10, 120))
        series = list(rng.random(n))
        cfg = DetectorConfig(
            window=int(rng.integers(2, min(n, 20) + 1)),
            slope_tolerance=float(rng.random() * 0.1),
            variance_tolerance=float(rng.random() * 0.1),
        )
        assert plateau_detect(series, cfg) == brute_force_plateau(series, cfg)


def test_window_stats_known_line():
    slope, var = window_stats([1.0, 2.0, 3.0, 4.0])
    assert slope == pytest.approx(1.0)
    assert var == pytest.approx(np.var([1, 2, 3, 4], ddof=1))


# ---------------------------------------------------------------------------
# spike detection
# ---------------------------------------------------------------------------


def test_spike_example():
    assert spike_detect([0.90, 0.92, 0.55, 0.90], 0.2) == [2]


def test_spike_monotone_clean():
    assert spike_detect([0.1, 0.2, 0.2, 0.5, 0.9], 0.1) == []


def test_spike_two_dips():
    series = [0.9, 0.5, 0.9, 0.9, 0.55, 0.9]
    assert spike_detect(series, 0.3) == [1, 4]


def test_spike_short_series():
    with pytest.raises(UsageError):
        spike_detect([0.5], 0.1)


# ---------------------------------------------------------------------------
# assessment
# ---------------------------------------------------------------------------


def _val_log(series, with_test=False):
    recs = []
    for d, v in enumerate(series, start=1):
        kw = dict(val_loss=1 - v, val_acc=v)
        if with_test:
            kw.update(test_loss=1 - v, test_acc=v)
        recs.append(MetricsRecord(d, 1, "sequential", **kw))
    return RunLog("r", recs)


def test_assessment_plateau_no_spikes_stops():
    cfg = DetectorConfig(window=5, slope_tolerance=0.01, variance_tolerance=0.01, spike_drop=0.2)
    report = training_assessment(_val_log([0.5, 0.7, 0.9, 0.95] + [0.95] * 8), cfg)
    assert report["plateaued"] and report["recommendation"] == "stop"


def test_assessment_trailing_spike_continues():
    cfg = DetectorConfig(window=5, slope_tolerance=0.05, variance_tolerance=0.05, spike_drop=0.2)
    series = [0.95] * 10 + [0.6, 0.95]
    report = training_assessment(_val_log(series), cfg)
    assert report["forgetting_events"] == [10]
    assert report["recommendation"] == "continue"


@pytest.mark.parametrize("window,flat", [(20, 20), (5, 5)])
def test_assessment_continues_while_rising_after_an_early_plateau(window, flat):
    # flat at chance, then rising linearly to 1.0: the early plateau is
    # reported, but the trailing window is still climbing
    cfg = DetectorConfig(window=window)
    series = [0.33] * flat + list(np.linspace(0.33, 1.0, 21)[1:])
    report = training_assessment(_val_log(series), cfg)
    assert report["plateaued"] and report["plateau_index"] == 0
    assert report["forgetting_events"] == []
    assert report["recommendation"] == "continue"


def test_assessment_never_reads_test_metrics():
    cfg = DetectorConfig(window=5, slope_tolerance=0.01, variance_tolerance=0.01, spike_drop=0.2)
    series = [0.5, 0.7, 0.9] + [0.95] * 9
    with_test = training_assessment(_val_log(series, with_test=True), cfg)
    without = training_assessment(_val_log(series, with_test=False), cfg)
    assert with_test == without


def test_assessment_requires_val_series():
    log = RunLog("r", [MetricsRecord(1, 1, "sequential", test_acc=0.5, test_loss=1.0)])
    with pytest.raises(UsageError):
        training_assessment(log, DetectorConfig(window=2))


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def test_emit_plot_two_polylines(tmp_path):
    log = _log(300)
    path = tmp_path / "p.svg"
    emit_plot(log, ["train_acc", "test_acc"], path)
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert 'width="900" height="480"' in svg
    assert "day" in svg and "legend" not in svg  # legend drawn as rect+text
    assert svg.count("<rect") >= 3


def test_emit_plot_single_point_marker(tmp_path):
    log = RunLog("r", [MetricsRecord(1, 1, "sequential", val_acc=0.5, val_loss=0.5)])
    path = tmp_path / "one.svg"
    emit_plot(log, ["val_acc"], path)
    svg = path.read_text()
    assert "<circle" in svg and "<polyline" not in svg


def test_emit_plot_deterministic_bytes(tmp_path):
    log = _log(40)
    emit_plot(log, ["val_acc", "val_loss"], tmp_path / "a.svg")
    emit_plot(log, ["val_acc", "val_loss"], tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_emit_plot_killed_mid_write_keeps_the_previous_svg(tmp_path, monkeypatch):
    path = tmp_path / "p.svg"
    emit_plot(_log(5), ["val_acc"], path)
    kept = path.read_bytes()

    class Killed(Exception):
        pass

    class TornFile:
        """A file opened for writing that takes half of its first write, then dies."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            raise Killed

    real_open = open

    def open_(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return TornFile(f) if "w" in mode else f

    monkeypatch.setattr(builtins, "open", open_)
    with pytest.raises(Killed):
        emit_plot(_log(9), ["val_acc", "test_acc"], path)
    monkeypatch.undo()
    assert path.read_bytes() == kept


def test_emit_plot_empty_selection(tmp_path):
    with pytest.raises(UsageError):
        emit_plot(_log(5), [], tmp_path / "x.svg")
    with pytest.raises(UsageError):
        emit_plot(_log(5), ["nope"], tmp_path / "x.svg")
