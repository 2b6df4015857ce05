"""Metrics records, CSV round trip, training-progress heuristics, SVG plots.

The heuristics (plateau and forgetting-spike detection, plus the
stop/continue assessment) operate on day-local validation series only;
test metrics are recorded for offline comparison, never consumed here.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data import read_text, replacing_open
from .errors import ConfigError, DataError, UsageError

PHASES = ("pretrain", "sequential")

CSV_COLUMNS = (
    "run_id", "phase", "day", "epoch",
    "train_loss", "train_acc", "val_loss", "val_acc", "test_loss", "test_acc",
)

_METRIC_FIELDS = CSV_COLUMNS[4:]


@dataclass
class MetricsRecord:
    day: int
    epoch: int
    phase: str
    train_loss: float = None
    train_acc: float = None
    val_loss: float = None
    val_acc: float = None
    test_loss: float = None
    test_acc: float = None

    def __post_init__(self):
        if self.phase not in PHASES:
            raise UsageError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if all(getattr(self, f) is None for f in _METRIC_FIELDS):
            raise UsageError("a metrics record must carry at least one metric")


@dataclass
class RunLog:
    run_id: str
    records: list = field(default_factory=list)

    def series(self, name, phase="sequential"):
        """Present values of one metric, in record order."""
        return [
            getattr(r, name)
            for r in self.records
            if r.phase == phase and getattr(r, name) is not None
        ]


def _fmt(x):
    return "" if x is None else f"{x:.6g}"


def format_record(run_id, rec: MetricsRecord) -> str:
    vals = [run_id, rec.phase, str(rec.day), str(rec.epoch)]
    vals += [_fmt(getattr(rec, f)) for f in _METRIC_FIELDS]
    return ",".join(vals)


def write_metrics(log: RunLog, path):
    """The header and every record of `log`; a crash mid-write leaves the
    previous file whole."""
    with replacing_open(path) as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        f.writelines(format_record(log.run_id, rec) + "\n" for rec in log.records)


def append_metrics(run_id, records, path):
    """Append the records as rows to a file `write_metrics` started."""
    with open(path, "a", encoding="utf-8", newline="\n") as f:
        f.writelines(format_record(run_id, rec) + "\n" for rec in records)


def read_metrics(path) -> RunLog:
    """Parse metrics.csv, skipping a last line with no newline: a kill
    during an append leaves it behind, and it is newer than state.txt."""
    lines = read_text(path).split("\n")[:-1]  # the last piece is "" or torn
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise DataError(f"{path}:1: bad or missing CSV header")
    run_id = None
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise DataError(f"{path}:{ln}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        if run_id is None:
            run_id = cells[0]
        try:
            kwargs = {
                f: (float(c) if c else None) for f, c in zip(_METRIC_FIELDS, cells[4:])
            }
            records.append(
                MetricsRecord(day=int(cells[2]), epoch=int(cells[3]), phase=cells[1], **kwargs)
            )
        except (ValueError, UsageError) as e:
            raise DataError(f"{path}:{ln}: {e}")
    return RunLog(run_id or "", records)


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorConfig:
    window: int = 20
    slope_tolerance: float = 0.002
    variance_tolerance: float = 0.0015
    spike_drop: float = 0.15

    def __post_init__(self):
        if self.window < 2:
            raise ConfigError("detector window must be >= 2")
        if not (self.slope_tolerance >= 0 and self.variance_tolerance >= 0):  # also rejects NaN
            raise ConfigError("tolerances must be >= 0")
        if not 0 < self.spike_drop <= 1:
            raise ConfigError("spike_drop must be in (0,1]")


def window_stats(values):
    """(least-squares slope, sample variance) of one window."""
    y = np.asarray(values, dtype=np.float64)
    n = y.size
    x = np.arange(n, dtype=np.float64)
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    var = float(y.var(ddof=1))
    return slope, var


def _flat(values, config: DetectorConfig):
    """Whether one window's |slope| and variance are within tolerance."""
    slope, var = window_stats(values)
    return abs(slope) <= config.slope_tolerance and var <= config.variance_tolerance


def plateau_detect(series, config: DetectorConfig):
    """Earliest window start where |slope| and variance are within tolerance."""
    n = len(series)
    if n < config.window:
        raise UsageError(f"series of length {n} shorter than window {config.window}")
    for i in range(n - config.window + 1):
        if _flat(series[i : i + config.window], config):
            return i
    return None


def spike_detect(series, spike_drop):
    """Indices where the (accuracy) series drops by >= spike_drop."""
    if len(series) < 2:
        raise UsageError("series must have at least 2 points")
    out = []
    for i in range(1, len(series)):
        if series[i - 1] - series[i] >= spike_drop:
            out.append(i)
    return out


def training_assessment(log: RunLog, config: DetectorConfig):
    """Stop/continue recommendation from day-local validation accuracy only.

    "stop" when the trailing window is flat and holds no forgetting spike;
    a plateau earlier in the series (`plateau_index`) does not stop a run
    that has since moved on. Never reads test metrics. Raises UsageError
    when the log has no sequential-phase validation accuracy series.
    """
    series = log.series("val_acc", phase="sequential")
    if not series:
        raise UsageError("no day-local validation accuracy series in this log")
    if len(series) < config.window:
        raise UsageError(
            f"validation series has {len(series)} points, need >= window {config.window}"
        )
    plateau_index = plateau_detect(series, config)
    forgetting = spike_detect(series, config.spike_drop)
    plateaued = plateau_index is not None
    trailing_start = len(series) - config.window
    recent_forgetting = [i for i in forgetting if i >= trailing_start]
    settled = _flat(series[trailing_start:], config) and not recent_forgetting
    recommendation = "stop" if settled else "continue"
    return {
        "plateaued": plateaued,
        "plateau_index": plateau_index,
        "forgetting_events": forgetting,
        "recommendation": recommendation,
        "series_length": len(series),
    }


# ---------------------------------------------------------------------------
# SVG plotting
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 900, 480
_MARGIN = 60
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(log: RunLog, series_names, path, phase="sequential"):
    """Deterministic standalone SVG line chart of the selected series."""
    if not series_names:
        raise UsageError("no series selected")
    if phase not in PHASES:
        raise UsageError(f"phase must be one of {PHASES}, got {phase!r}")
    picked = {}
    for name in series_names:
        if name not in _METRIC_FIELDS:
            raise UsageError(f"unknown series {name!r}; choose from {_METRIC_FIELDS}")
        vals = log.series(name, phase=phase)
        if vals:
            picked[name] = vals
    if not picked:
        raise UsageError("selected series are empty")

    xmax = max(len(v) for v in picked.values())
    ymin = min(min(v) for v in picked.values())
    ymax = max(max(v) for v in picked.values())
    if ymax == ymin:
        ymax = ymin + 1.0
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN

    def px(i, n):
        frac = 0.0 if n == 1 else i / (n - 1)
        return _MARGIN + frac * plot_w

    def py(v):
        return _SVG_H - _MARGIN - (v - ymin) / (ymax - ymin) * plot_h

    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
    )
    buf.write(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n')
    buf.write(
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>\n'
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>\n'
    )
    buf.write(
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 15}" text-anchor="middle" '
        f'font-size="14">day</text>\n'
        f'<text x="18" y="{_SVG_H // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_SVG_H // 2})">value</text>\n'
    )
    buf.write(
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 20}" font-size="12">1</text>\n'
        f'<text x="{_SVG_W - _MARGIN}" y="{_SVG_H - _MARGIN + 20}" '
        f'text-anchor="end" font-size="12">{xmax}</text>\n'
        f'<text x="{_MARGIN - 6}" y="{_SVG_H - _MARGIN}" text-anchor="end" '
        f'font-size="12">{ymin:.6g}</text>\n'
        f'<text x="{_MARGIN - 6}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-size="12">{ymax:.6g}</text>\n'
    )
    for ci, (name, vals) in enumerate(sorted(picked.items())):
        color = _COLORS[ci % len(_COLORS)]
        if len(vals) == 1:
            buf.write(
                f'<circle cx="{px(0, 1):.2f}" cy="{py(vals[0]):.2f}" r="3" fill="{color}"/>\n'
            )
        else:
            pts = " ".join(f"{px(i, len(vals)):.2f},{py(v):.2f}" for i, v in enumerate(vals))
            buf.write(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>\n')
        ly = _MARGIN + 18 * ci
        buf.write(
            f'<rect x="{_SVG_W - _MARGIN - 110}" y="{ly - 9}" width="12" height="12" fill="{color}"/>\n'
            f'<text x="{_SVG_W - _MARGIN - 93}" y="{ly + 2}" font-size="12">{name}</text>\n'
        )
    buf.write("</svg>\n")
    with replacing_open(path) as f:
        f.write(buf.getvalue())
