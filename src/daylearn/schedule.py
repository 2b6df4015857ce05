"""Day-based data arrival and the two day-local validation strategies.

plan_days cuts a seeded shuffle of rows of the training manifest into
consecutive day batches without replacement. day_splits implements the
three ways of picking each day's (train, validation) rows.
"""

from __future__ import annotations

import numpy as np

from .data import replacing_open
from .errors import ConfigError
from .rng import substream

GLOBAL_HOLDOUT = "global"
PREV_TRAIN_CURR_VAL = "prev_curr"  # strategy A
HALF_SPLIT = "half_split"  # strategy B
STRATEGIES = (GLOBAL_HOLDOUT, PREV_TRAIN_CURR_VAL, HALF_SPLIT)


def plan_days(rows, n_per_day, total_days, seed, allow_short_final=False):
    """Seeded shuffle of the int array `rows` cut into blocks of n_per_day:
    a list of total_days int arrays, disjoint; element d is day d+1."""
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
    return [order[d * n_per_day : (d + 1) * n_per_day] for d in range(total_days)]


def dayplan_write(days, n_per_day, path):
    with replacing_open(path) as f:
        f.write(f"#n_per_day:\t{n_per_day}\n")
        for d, batch in enumerate(days, start=1):
            f.write(f"{d}\t" + ",".join(map(str, batch.tolist())) + "\n")


def day_splits(strategy, days, seed):
    """Each day's (train rows, validation rows), as int arrays, in day order.

    Checks the strategy and the size of every day when called, and returns
    an iterator. GlobalHoldout yields validation=None; the caller validates
    on the global validation manifest. Strategy A: previous day trains,
    current day validates (day 1 trains nothing). Strategy B: half of the
    current day plus the previous day's held-out half train; the other
    half of the current day validates.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown validation strategy {strategy!r}")
    if strategy == GLOBAL_HOLDOUT:
        return ((batch, None) for batch in days)
    if strategy == PREV_TRAIN_CURR_VAL:
        return zip([np.zeros(0, dtype=np.int64), *days[:-1]], days)
    odd = [len(batch) for batch in days if len(batch) % 2]
    if odd:
        raise ConfigError(f"half-split strategy needs an even day size, got {odd[0]}")
    return _half_splits(days, seed)


def _half_splits(days, seed):
    """Strategy B, drawing each day's halves once, when its day comes."""
    held = np.zeros(0, dtype=np.int64)  # day 1 has no previous held-out half
    for day, batch in enumerate(days, start=1):
        shuffled = batch[substream(seed, "half_split", day).permutation(len(batch))]
        half = len(batch) // 2
        yield np.concatenate([shuffled[:half], held]), shuffled[half:]
        held = shuffled[half:]
