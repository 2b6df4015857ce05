"""Deterministic RNG substreams.

Every random decision in the harness draws from a stream keyed by the
global seed plus a tuple of tags (strings or ints), so parallel and
serial execution, and interrupted and resumed runs, agree bit for bit.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (seed, tags); stable across runs and platforms.

    The entropy ends with the tag count: `SeedSequence` zero-pads short
    entropy, so without it (s, "x") and (s, "x", 0) would share a stream.
    """
    entropy = [int(seed) & 0xFFFFFFFF] + [_tag_to_int(t) for t in tags] + [len(tags)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
