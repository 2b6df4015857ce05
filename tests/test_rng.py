import numpy as np

from daylearn.rng import substream


def test_trailing_zero_tag_gives_another_stream():
    for tags in [("x",), ("aug", 3, 1), ()]:
        a = substream(5, *tags).random(8)
        b = substream(5, *tags, 0).random(8)
        assert not np.array_equal(a, b), tags


def test_same_tags_same_stream():
    assert np.array_equal(substream(9, "aug", 2, 1).random(8), substream(9, "aug", 2, 1).random(8))
