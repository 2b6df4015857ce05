"""Day-based data arrival and the two day-local validation strategies.

A DayPlan partitions a seeded shuffle of the training manifest into
consecutive day batches without replacement. day_split implements the
three ways of picking (train, validation) sets for one day.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import replacing_open
from .errors import ConfigError, DataError, UsageError
from .rng import substream

GLOBAL_HOLDOUT = "global"
PREV_TRAIN_CURR_VAL = "prev_curr"  # strategy A
HALF_SPLIT = "half_split"  # strategy B
STRATEGIES = (GLOBAL_HOLDOUT, PREV_TRAIN_CURR_VAL, HALF_SPLIT)
# the strategies whose every day validates on the global validation split:
# day_split returns validation=None for exactly these
GLOBAL_VAL_STRATEGIES = (GLOBAL_HOLDOUT,)


@dataclass
class DayPlan:
    """days[d] holds manifest entry indices for day d+1; disjoint across days."""

    days: list
    n_per_day: int

    def __len__(self):
        return len(self.days)

    def batch(self, day_index):
        """1-based day index."""
        if not 1 <= day_index <= len(self.days):
            raise UsageError(f"day index {day_index} outside plan of {len(self.days)} days")
        return self.days[day_index - 1]


def plan_days(manifest_size, n_per_day, total_days, seed, allow_short_final=False) -> DayPlan:
    """Seeded shuffle of [0, manifest_size) cut into blocks of n_per_day."""
    if n_per_day < 1 or total_days < 1:
        raise ConfigError("n_per_day and total_days must be >= 1")
    demand = n_per_day * total_days
    if demand > manifest_size:
        if not allow_short_final or (total_days - 1) * n_per_day >= manifest_size:
            raise ConfigError(
                f"day plan needs {demand} entries but manifest has {manifest_size} "
                f"(shortfall {demand - manifest_size})"
            )
    order = substream(seed, "dayplan").permutation(manifest_size)
    days = []
    for d in range(total_days):
        block = order[d * n_per_day : (d + 1) * n_per_day]
        days.append([int(i) for i in block])
    return DayPlan(days, n_per_day)


def dayplan_write(plan: DayPlan, path):
    with replacing_open(path) as f:
        f.write(f"#n_per_day:\t{plan.n_per_day}\n")
        for d, batch in enumerate(plan.days, start=1):
            f.write(f"{d}\t" + ",".join(str(i) for i in batch) + "\n")


def dayplan_read(path) -> DayPlan:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("#n_per_day:\t"):
        raise DataError(f"{path}: missing '#n_per_day:' header")
    n_per_day = int(lines[0].split("\t", 1)[1])
    days = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        day_str, _, idx_str = line.partition("\t")
        if int(day_str) != len(days) + 1:
            raise DataError(f"{path}:{ln}: days out of order")
        days.append([int(t) for t in idx_str.split(",")] if idx_str else [])
    return DayPlan(days, n_per_day)


def _half_perm(batch, seed, day_index):
    """Deterministic halves of a day batch: (train half, held-out half)."""
    perm = substream(seed, "half_split", day_index).permutation(len(batch))
    half = len(batch) // 2
    train_half = [batch[i] for i in perm[:half]]
    held_half = [batch[i] for i in perm[half:]]
    return train_half, held_half


def day_split(strategy, day_index, prev_batch, curr_batch, seed):
    """(train indices, validation indices) for one day.

    GlobalHoldout returns validation=None; the caller validates on the
    global validation manifest. Strategy A: previous day trains, current
    day validates (day 1 trains nothing). Strategy B: half of the current
    day plus the previous day's held-out half train; the other half of
    the current day validates.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown validation strategy {strategy!r}")
    if strategy in GLOBAL_VAL_STRATEGIES:
        return list(curr_batch), None
    if strategy == PREV_TRAIN_CURR_VAL:
        if day_index == 1:
            return [], list(curr_batch)
        return list(prev_batch), list(curr_batch)
    # HALF_SPLIT
    if len(curr_batch) % 2 != 0:
        raise ConfigError(f"half-split strategy needs an even day size, got {len(curr_batch)}")
    train_half, held_half = _half_perm(curr_batch, seed, day_index)
    if day_index == 1:
        return train_half, held_half
    _, prev_held = _half_perm(prev_batch, seed, day_index - 1)
    return train_half + prev_held, held_half
