import numpy as np
import pytest

from daylearn import schedule
from daylearn.errors import ConfigError, DataError
from daylearn.schedule import (
    GLOBAL_HOLDOUT,
    HALF_SPLIT,
    PREV_TRAIN_CURR_VAL,
    day_split,
    dayplan_read,
    dayplan_write,
    plan_days,
)


def test_plan_days_experiment_1a_shape():
    plan = plan_days(np.arange(21_000), 20, 300, seed=0)
    assert len(plan) == 300
    consumed = np.concatenate(plan.days)
    assert len(consumed) == 6000
    assert len(np.unique(consumed)) == 6000  # no replacement


def test_plan_days_experiment_1b_shape():
    plan = plan_days(np.arange(21_000), 20, 500, seed=0)
    assert len(plan) == 500 and all(len(b) == 20 for b in plan.days)


def test_plan_days_shortfall_error():
    with pytest.raises(ConfigError, match="shortfall"):
        plan_days(np.arange(300), 50, 10, seed=0)


def test_plan_days_short_final_day_flag():
    plan = plan_days(np.arange(45), 10, 5, seed=0, allow_short_final=True)
    assert [len(b) for b in plan.days] == [10, 10, 10, 10, 5]
    with pytest.raises(ConfigError):
        plan_days(np.arange(30), 10, 5, seed=0, allow_short_final=True)


def test_plan_days_determinism():
    a = plan_days(np.arange(100), 10, 5, seed=3)
    b = plan_days(np.arange(100), 10, 5, seed=3)
    c = plan_days(np.arange(100), 10, 5, seed=4)
    assert np.array_equal(a.days, b.days)
    assert not np.array_equal(a.days, c.days)


def test_plan_days_names_the_rows_it_is_given():
    rows = np.array([3, 7, 8, 20, 41, 42])
    plan = plan_days(rows, 2, 3, seed=3)
    # the shuffle of len(rows) positions, read through rows
    order = np.array(plan_days(np.arange(6), 2, 3, seed=3).days)
    assert np.array_equal(plan.days, rows[order])
    assert np.array_equal(np.sort(np.concatenate(plan.days)), rows)


def test_dayplan_file_round_trip(tmp_path):
    plan = plan_days(np.arange(80), 8, 10, seed=1)
    path = tmp_path / "plan.txt"
    dayplan_write(plan, path)
    again = dayplan_read(path)
    assert np.array_equal(again.days, plan.days) and again.n_per_day == plan.n_per_day


def test_strategy_a_day_one_and_later():
    batches = plan_days(np.arange(400), 50, 5, seed=2).days
    train, val = day_split(PREV_TRAIN_CURR_VAL, 1, None, batches[0], seed=2)
    assert len(train) == 0 and np.array_equal(val, batches[0])
    train, val = day_split(PREV_TRAIN_CURR_VAL, 4, batches[2], batches[3], seed=2)
    assert np.array_equal(train, batches[2]) and np.array_equal(val, batches[3])


def test_strategy_a_conservation():
    # every batch except the last trains exactly once, one day after validating
    plan = plan_days(np.arange(200), 20, 10, seed=5)
    trained, validated = [], []
    for d in range(1, 11):
        prev = plan.batch(d - 1) if d > 1 else None
        tr, va = day_split(PREV_TRAIN_CURR_VAL, d, prev, plan.batch(d), seed=5)
        trained.extend(tr)
        validated.extend(va)
    assert np.array_equal(np.sort(trained), np.sort(np.concatenate(plan.days[:-1])))
    assert np.array_equal(np.sort(validated), np.sort(np.concatenate(plan.days)))


def test_strategy_b_day_one_halves():
    batch = np.arange(100, 150)
    train, val = day_split(HALF_SPLIT, 1, None, batch, seed=9)
    assert len(train) == len(val) == 25
    assert not set(train) & set(val)
    assert np.array_equal(np.sort(np.concatenate([train, val])), batch)


def test_strategy_b_later_day_composition():
    plan = plan_days(np.arange(300), 50, 4, seed=6)
    tr1, va1 = day_split(HALF_SPLIT, 1, None, plan.batch(1), seed=6)
    tr2, va2 = day_split(HALF_SPLIT, 2, plan.batch(1), plan.batch(2), seed=6)
    # trains half the current day plus yesterday's held-out half
    assert len(tr2) == 50 and len(va2) == 25
    assert set(va1) < set(tr2)
    assert not set(tr1) & set(tr2)  # nothing trains twice
    assert not set(tr2) & set(va2)
    assert set(tr2) - set(va1) <= set(plan.batch(2))


def test_strategy_b_odd_n_rejected():
    with pytest.raises(ConfigError, match="even"):
        day_split(HALF_SPLIT, 1, None, np.arange(7), seed=0)


def test_global_holdout_passthrough():
    train, val = day_split(GLOBAL_HOLDOUT, 3, np.array([1, 2]), np.array([3, 4]), seed=0)
    assert np.array_equal(train, [3, 4]) and val is None


def test_day_split_determinism():
    batch_prev, batch_curr = np.arange(20), np.arange(20, 40)
    a = day_split(HALF_SPLIT, 2, batch_prev, batch_curr, seed=11)
    b = day_split(HALF_SPLIT, 2, batch_prev, batch_curr, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("text,line,value", [
    ("#n_per_day:\tten\n1\t0,1\n", 1, "ten"),
    ("#n_per_day:\t2\none\t0,1\n", 2, "one"),
    ("#n_per_day:\t2\n1\t0,1\n2\t2,x\n", 3, "x"),
], ids=["n_per_day", "day", "index"])
def test_dayplan_read_non_integer_field_is_a_data_error(tmp_path, text, line, value):
    path = tmp_path / "plan.txt"
    path.write_text(text)
    with pytest.raises(DataError) as e:
        dayplan_read(path)
    assert str(e.value) == f"{path}:{line}: invalid literal for int() with base 10: {value!r}"


def test_dayplan_read_row_beyond_int64_is_a_data_error(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_text("#n_per_day:\t1\n1\t99999999999999999999\n")
    with pytest.raises(DataError, match=r"plan\.txt:2: "):
        dayplan_read(path)
