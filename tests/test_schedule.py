import numpy as np
import pytest

from daylearn import schedule
from daylearn.errors import ConfigError
from daylearn.schedule import (
    GLOBAL_HOLDOUT,
    HALF_SPLIT,
    PREV_TRAIN_CURR_VAL,
    day_splits,
    dayplan_write,
    plan_days,
)


def test_plan_days_experiment_1a_shape():
    days = plan_days(np.arange(21_000), 20, 300, seed=0)
    assert len(days) == 300
    consumed = np.concatenate(days)
    assert len(consumed) == 6000
    assert len(np.unique(consumed)) == 6000  # no replacement


def test_plan_days_experiment_1b_shape():
    days = plan_days(np.arange(21_000), 20, 500, seed=0)
    assert len(days) == 500 and all(len(b) == 20 for b in days)


def test_plan_days_shortfall_error():
    with pytest.raises(ConfigError, match="shortfall"):
        plan_days(np.arange(300), 50, 10, seed=0)


def test_plan_days_short_final_day_flag():
    days = plan_days(np.arange(45), 10, 5, seed=0, allow_short_final=True)
    assert [len(b) for b in days] == [10, 10, 10, 10, 5]
    with pytest.raises(ConfigError):
        plan_days(np.arange(30), 10, 5, seed=0, allow_short_final=True)


def test_plan_days_determinism():
    a = plan_days(np.arange(100), 10, 5, seed=3)
    b = plan_days(np.arange(100), 10, 5, seed=3)
    c = plan_days(np.arange(100), 10, 5, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_plan_days_names_the_rows_it_is_given():
    rows = np.array([3, 7, 8, 20, 41, 42])
    days = plan_days(rows, 2, 3, seed=3)
    # the shuffle of len(rows) positions, read through rows
    order = np.array(plan_days(np.arange(6), 2, 3, seed=3))
    assert np.array_equal(days, rows[order])
    assert np.array_equal(np.sort(np.concatenate(days)), rows)


def test_dayplan_file_round_trip(tmp_path):
    # a header, then one line per day: its number, a tab and its rows
    days = plan_days(np.arange(80), 8, 10, seed=1)
    path = tmp_path / "plan.txt"
    dayplan_write(days, 8, path)
    header, *lines = path.read_text().splitlines()
    assert header == "#n_per_day:\t8"
    assert [line.split("\t")[0] for line in lines] == [str(d) for d in range(1, 11)]
    again = [np.array(line.split("\t")[1].split(","), dtype=np.int64) for line in lines]
    assert np.array_equal(again, days)


def test_strategy_a_day_one_and_later():
    days = plan_days(np.arange(400), 50, 5, seed=2)
    splits = list(day_splits(PREV_TRAIN_CURR_VAL, days, seed=2))
    train, val = splits[0]
    assert len(train) == 0 and np.array_equal(val, days[0])
    train, val = splits[3]
    assert np.array_equal(train, days[2]) and np.array_equal(val, days[3])


def test_strategy_a_conservation():
    # every batch except the last trains exactly once, one day after validating
    days = plan_days(np.arange(200), 20, 10, seed=5)
    trained, validated = [], []
    for tr, va in day_splits(PREV_TRAIN_CURR_VAL, days, seed=5):
        trained.extend(tr)
        validated.extend(va)
    assert np.array_equal(np.sort(trained), np.sort(np.concatenate(days[:-1])))
    assert np.array_equal(np.sort(validated), np.sort(np.concatenate(days)))


def test_strategy_b_day_one_halves():
    batch = np.arange(100, 150)
    train, val = next(day_splits(HALF_SPLIT, [batch], seed=9))
    assert len(train) == len(val) == 25
    assert not set(train) & set(val)
    assert np.array_equal(np.sort(np.concatenate([train, val])), batch)


def test_strategy_b_later_day_composition():
    days = plan_days(np.arange(300), 50, 4, seed=6)
    (tr1, va1), (tr2, va2) = list(day_splits(HALF_SPLIT, days, seed=6))[:2]
    # trains half the current day plus yesterday's held-out half
    assert len(tr2) == 50 and len(va2) == 25
    assert set(va1) < set(tr2)
    assert not set(tr1) & set(tr2)  # nothing trains twice
    assert not set(tr2) & set(va2)
    assert set(tr2) - set(va1) <= set(days[1])


def test_strategy_b_odd_n_rejected():
    with pytest.raises(ConfigError, match="even day size, got 7"):
        day_splits(HALF_SPLIT, [np.arange(7)], seed=0)


def test_strategy_b_odd_short_final_day_rejected_before_any_draw(monkeypatch):
    days = plan_days(np.arange(19), 8, 3, seed=0, allow_short_final=True)
    draws = []
    monkeypatch.setattr(schedule, "substream", lambda *key: draws.append(key))
    with pytest.raises(ConfigError, match="even day size, got 3"):
        day_splits(HALF_SPLIT, days, seed=0)
    assert draws == []


def test_strategy_b_draws_each_day_once(monkeypatch):
    days = plan_days(np.arange(40), 10, 4, seed=2)
    keys = []
    real = schedule.substream

    def spy(*key):
        keys.append(key)
        return real(*key)

    monkeypatch.setattr(schedule, "substream", spy)
    for _ in day_splits(HALF_SPLIT, days, seed=2):
        pass
    assert keys == [(2, "half_split", day) for day in range(1, 5)]


def test_global_holdout_passthrough():
    (train, val), = day_splits(GLOBAL_HOLDOUT, [np.array([3, 4])], seed=0)
    assert np.array_equal(train, [3, 4]) and val is None


def test_day_split_determinism():
    days = [np.arange(20), np.arange(20, 40)]
    a = list(day_splits(HALF_SPLIT, days, seed=11))
    b = list(day_splits(HALF_SPLIT, days, seed=11))
    assert all(np.array_equal(x, y) for day_a, day_b in zip(a, b) for x, y in zip(day_a, day_b))


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError, match="unknown validation strategy 'nope'"):
        day_splits("nope", [np.arange(4)], seed=0)

