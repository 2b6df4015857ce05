"""Day-based data arrival and the two day-local validation strategies.

A DayPlan partitions a seeded shuffle of rows of the training manifest
into consecutive day batches without replacement. day_split implements
the three ways of picking (train, validation) rows for one day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import read_text, replacing_open
from .errors import ConfigError, DataError, UsageError
from .rng import substream

GLOBAL_HOLDOUT = "global"
PREV_TRAIN_CURR_VAL = "prev_curr"  # strategy A
HALF_SPLIT = "half_split"  # strategy B
STRATEGIES = (GLOBAL_HOLDOUT, PREV_TRAIN_CURR_VAL, HALF_SPLIT)


@dataclass
class DayPlan:
    """days[d] is the int array of train-split rows for day d+1; disjoint across days."""

    days: list
    n_per_day: int

    def __len__(self):
        return len(self.days)

    def batch(self, day_index):
        """1-based day index."""
        if not 1 <= day_index <= len(self.days):
            raise UsageError(f"day index {day_index} outside plan of {len(self.days)} days")
        return self.days[day_index - 1]


def plan_days(rows, n_per_day, total_days, seed, allow_short_final=False) -> DayPlan:
    """Seeded shuffle of the int array `rows` cut into blocks of n_per_day."""
    if n_per_day < 1 or total_days < 1:
        raise ConfigError("n_per_day and total_days must be >= 1")
    demand = n_per_day * total_days
    if demand > len(rows):
        if not allow_short_final or (total_days - 1) * n_per_day >= len(rows):
            raise ConfigError(
                f"day plan needs {demand} train-split rows but has {len(rows)} to draw from "
                f"(shortfall {demand - len(rows)})"
            )
    order = rows[substream(seed, "dayplan").permutation(len(rows))]
    days = [order[d * n_per_day : (d + 1) * n_per_day] for d in range(total_days)]
    return DayPlan(days, n_per_day)


def dayplan_write(plan: DayPlan, path):
    with replacing_open(path) as f:
        f.write(f"#n_per_day:\t{plan.n_per_day}\n")
        for d, batch in enumerate(plan.days, start=1):
            f.write(f"{d}\t" + ",".join(map(str, batch.tolist())) + "\n")


def dayplan_read(path) -> DayPlan:
    lines = read_text(path).splitlines()
    if not lines or not lines[0].startswith("#n_per_day:\t"):
        raise DataError(f"{path}: missing '#n_per_day:' header")
    ln = 1
    try:
        n_per_day = int(lines[0].split("\t", 1)[1])
        days = []
        for ln, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            day_str, _, idx_str = line.partition("\t")
            if int(day_str) != len(days) + 1:
                raise DataError(f"{path}:{ln}: days out of order")
            days.append(np.array(idx_str.split(",") if idx_str else [], dtype=np.int64))
    except (ValueError, OverflowError) as e:  # n_per_day, a day number or an index
        raise DataError(f"{path}:{ln}: {e}") from None
    return DayPlan(days, n_per_day)


def _half_perm(batch, seed, day_index):
    """Deterministic halves of a day batch: (train half, held-out half)."""
    shuffled = batch[substream(seed, "half_split", day_index).permutation(len(batch))]
    half = len(batch) // 2
    return shuffled[:half], shuffled[half:]


def day_split(strategy, day_index, prev_batch, curr_batch, seed):
    """(train rows, validation rows) for one day, as int arrays.

    GlobalHoldout returns validation=None; the caller validates on the
    global validation manifest. Strategy A: previous day trains, current
    day validates (day 1 trains nothing). Strategy B: half of the current
    day plus the previous day's held-out half train; the other half of
    the current day validates.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown validation strategy {strategy!r}")
    if strategy == GLOBAL_HOLDOUT:
        return curr_batch, None
    if strategy == PREV_TRAIN_CURR_VAL:
        if day_index == 1:
            return curr_batch[:0], curr_batch
        return prev_batch, curr_batch
    # HALF_SPLIT
    if len(curr_batch) % 2 != 0:
        raise ConfigError(f"half-split strategy needs an even day size, got {len(curr_batch)}")
    train_half, held_half = _half_perm(curr_batch, seed, day_index)
    if day_index == 1:
        return train_half, held_half
    _, prev_held = _half_perm(prev_batch, seed, day_index - 1)
    return np.concatenate([train_half, prev_held]), held_half
