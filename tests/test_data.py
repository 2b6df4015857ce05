import math
import os

import numpy as np
import pytest

from daylearn import data
from daylearn.errors import ConfigError, DataError
from daylearn.rng import substream


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------


def test_pgm_read_known_bytes(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = data.pgm_read(path)
    assert np.array_equal(img.pixels, [[0, 64], [128, 255]])


def test_pgm_round_trip_random(tmp_path):
    rng = substream(0, "pgm")
    img = data.Image(rng.integers(0, 256, size=(64, 64), dtype=np.uint8))
    path = tmp_path / "r.pgm"
    data.pgm_write(img, path)
    assert data.pgm_read(path) == img
    data.pgm_write(data.pgm_read(path), tmp_path / "r2.pgm")
    assert path.read_bytes() == (tmp_path / "r2.pgm").read_bytes()


def test_pgm_header_comments_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # a comment\n#another\n 2\t1\r\n# x#y\n255\n" + bytes([7, 9]))
    assert np.array_equal(data.pgm_read(path).pixels, [[7, 9]])
    for blob, message in [
        (b"P5\n2 1\n# no newline", "unterminated comment at offset 7"),
        (b"P5\n2 1 \n", "truncated PGM header at offset 8"),
        (b"", "truncated PGM header at offset 0"),
        (b"P5\n2 x#y 255\n\0\0", "non-numeric PGM header field"),
    ]:
        path.write_bytes(blob)
        with pytest.raises(DataError, match=message):
            data.pgm_read(path)


def test_pgm_short_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128]))
    with pytest.raises(DataError, match="offset"):
        data.pgm_read(path)


def test_pgm_bad_maxval_and_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(DataError, match="maxval"):
        data.pgm_read(p)
    p.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(DataError):
        data.pgm_read(p)


# ---------------------------------------------------------------------------
# manifests / ingest / split
# ---------------------------------------------------------------------------


def _tree(tmp_path, counts):
    for cls, n in counts.items():
        d = tmp_path / cls
        d.mkdir()
        for i in range(n):
            data.pgm_write(data.Image(np.zeros((2, 2), np.uint8)), d / f"{i}.pgm")


def test_ingest_sorted_class_indices(tmp_path):
    _tree(tmp_path, {"HeadCT": 2, "CXR": 2, "Hand": 2})
    m = data.ingest_directory(tmp_path)
    assert m.class_names == ["CXR", "Hand", "HeadCT"]
    assert m.class_index("CXR") == 0 and m.class_index("HeadCT") == 2


def test_ingest_single_class_and_empty_class(tmp_path):
    _tree(tmp_path, {"only": 3})
    assert len(data.ingest_directory(tmp_path).class_names) == 1
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError, match="empty"):
        data.ingest_directory(tmp_path)


def _ingest_listdir(root):
    """The listdir/isdir/isfile scan that ingest_directory's scandir replaced."""
    classes = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    entries = []
    for cls in classes:
        files = sorted(
            f for f in os.listdir(os.path.join(root, cls)) if os.path.isfile(os.path.join(root, cls, f))
        )
        entries.extend((f"{cls}/{f}", cls) for f in files)
    return data.Manifest(entries, classes)


def test_ingest_scandir_matches_listdir_scan(tmp_path):
    _tree(tmp_path, {"a": 2, "b": 3, "c": 1})
    (tmp_path / "notes.txt").write_text("a file beside the class directories\n")
    (tmp_path / "a" / "linked.pgm").symlink_to(tmp_path / "b" / "0.pgm")  # followed: listed
    (tmp_path / "a" / "broken.pgm").symlink_to(tmp_path / "missing.pgm")  # dangling: skipped
    (tmp_path / "b" / "nested").mkdir()  # a directory inside a class: skipped
    (tmp_path / "d").symlink_to(tmp_path / "c", target_is_directory=True)  # a linked class
    got = data.ingest_directory(tmp_path)
    assert got == _ingest_listdir(tmp_path)
    assert got.class_names == ["a", "b", "c", "d"]
    assert [p for p, _ in got.entries] == ["a/0.pgm", "a/1.pgm", "a/linked.pgm", "b/0.pgm",
                                           "b/1.pgm", "b/2.pgm", "c/0.pgm", "d/0.pgm"]
    # a class directory holding only a dangling link and a directory is empty
    (tmp_path / "e").mkdir()
    (tmp_path / "e" / "broken.pgm").symlink_to(tmp_path / "missing.pgm")
    (tmp_path / "e" / "nested").mkdir()
    with pytest.raises(DataError, match="class directory 'e' is empty"):
        data.ingest_directory(tmp_path)


def test_duplicate_filenames_across_classes_are_distinct(tmp_path):
    _tree(tmp_path, {"a": 1, "b": 1})
    m = data.ingest_directory(tmp_path)
    assert [p for p, _ in m.entries] == ["a/0.pgm", "b/0.pgm"]


def _fake_manifest(per_class):
    entries = []
    for cls, n in per_class.items():
        entries.extend((f"{cls}/{i}.pgm", cls) for i in range(n))
    return data.Manifest(entries)


def test_split_counts_single_class():
    m = _fake_manifest({"x": 10_000})
    tr, va, te = data.split_manifest(m, seed=1)
    assert (len(tr), len(va), len(te)) == (7000, 1000, 2000)


def test_split_stratified_three_classes():
    m = _fake_manifest({"a": 10_000, "b": 10_000, "c": 10_000})
    tr, va, te = data.split_manifest(m, seed=2)
    assert (len(tr), len(va), len(te)) == (21_000, 3000, 6000)
    for split, n in ((tr, 7000), (va, 1000), (te, 2000)):
        for cls in "abc":
            assert sum(1 for _, lab in split.entries if lab == cls) == n


def test_split_disjoint_union_and_file_round_trip(tmp_path):
    m = _fake_manifest({"a": 37, "b": 53})
    tr, va, te = data.split_manifest(m, seed=3, out_dir=tmp_path)
    paths = [set(p for p, _ in s.entries) for s in (tr, va, te)]
    assert not (paths[0] & paths[1]) and not (paths[0] & paths[2]) and not (paths[1] & paths[2])
    assert paths[0] | paths[1] | paths[2] == set(p for p, _ in m.entries)
    for name, split in (("train.txt", tr), ("val.txt", va), ("test.txt", te)):
        again = data.manifest_read(tmp_path / name)
        assert again.entries == split.entries and again.class_names == split.class_names


def test_split_determinism_and_seed_sensitivity():
    m = _fake_manifest({"a": 100})
    a1 = data.split_manifest(m, seed=7)
    a2 = data.split_manifest(m, seed=7)
    b = data.split_manifest(m, seed=8)
    assert a1[0].entries == a2[0].entries
    assert a1[0].entries != b[0].entries
    assert len(b[0]) == len(a1[0])


def test_split_bad_fractions():
    with pytest.raises(ConfigError):
        data.split_manifest(_fake_manifest({"a": 10}), fractions=(0.5, 0.2, 0.2))


# ---------------------------------------------------------------------------
# rotate90
# ---------------------------------------------------------------------------


def test_rotate90_left_example():
    img = data.Image(np.array([[1, 2], [3, 4]], np.uint8))
    left = data.rotate90(img, "left")
    assert np.array_equal(left.pixels, [[2, 4], [1, 3]])


def test_rotate90_group_laws():
    rng = substream(1, "rot")
    img = data.Image(rng.integers(0, 256, size=(5, 8), dtype=np.uint8))
    assert data.rotate90(data.rotate90(img, "left"), "right") == img
    four = img
    for _ in range(4):
        four = data.rotate90(four, "left")
    assert four == img
    left = data.rotate90(img, "left")
    assert sorted(left.pixels.ravel()) == sorted(img.pixels.ravel())


def test_build_rotated_dataset(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    rng = substream(2, "rotsrc")
    entries = []
    (src / "cxr").mkdir()
    for i in range(60):
        img = data.Image(rng.integers(0, 256, size=(8, 8), dtype=np.uint8))
        data.pgm_write(img, src / "cxr" / f"{i}.pgm")
        entries.append((f"cxr/{i}.pgm", "cxr"))
    m = data.Manifest(entries)
    out = tmp_path / "rot"
    rotated = data.build_rotated_dataset(m, src, out, seed=5)
    assert len(rotated) == 60
    assert rotated.class_names == list(data.ROTATED_CLASSES)
    again = data.build_rotated_dataset(m, src, tmp_path / "rot2", seed=5)
    assert [lab for _, lab in again.entries] == [lab for _, lab in rotated.entries]


# ---------------------------------------------------------------------------
# augment / normalize
# ---------------------------------------------------------------------------


def test_augment_all_off_is_identity():
    rng = substream(3, "aug")
    img = data.Image(substream(4, "img").integers(0, 256, size=(16, 16), dtype=np.uint8))
    out = data.augment(img, data.AUGMENT_OFF, rng)
    assert out == img


def test_augment_hflip():
    img = data.Image(np.array([[1, 2], [3, 4]], np.uint8))
    cfg = data.AugmentConfig(1.0, 0.0, 0.0, 0.0)
    out = data.augment(img, cfg, substream(0, "flip"))
    assert np.array_equal(out.pixels, [[2, 1], [4, 3]])


def test_augment_property_run():
    img = data.Image(substream(5, "img").integers(0, 256, size=(16, 16), dtype=np.uint8))
    cfg = data.AugmentConfig(0.5, 5.0, 0.05, 0.05)
    for i in range(10_000):
        out = data.augment(img, cfg, substream(6, "aug", i))
        assert out.pixels.shape == (16, 16)
        assert out.pixels.dtype == np.uint8  # [0,255] by construction
    # determinism of the per-index stream
    a = data.augment(img, cfg, substream(6, "aug", 42))
    b = data.augment(img, cfg, substream(6, "aug", 42))
    assert a == b


def _reference_augment(pixels, config, row):
    """One image through flip, rotation, translation and jitter in turn,
    reading the flip, angle, dy, dx and jitter draws from row[0..4]."""
    px = pixels
    h, w = px.shape
    if row[0] < config.hflip_probability:
        px = px[:, ::-1]
    if config.rotation_degrees > 0:
        r = config.rotation_degrees
        theta = math.radians(-r + 2 * r * row[1])
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        yy, xx = np.mgrid[0:h, 0:w]
        dy, dx = yy - cy, xx - cx
        sy = np.rint(cy + math.cos(theta) * dy + math.sin(theta) * dx).astype(np.int64)
        sx = np.rint(cx - math.sin(theta) * dy + math.cos(theta) * dx).astype(np.int64)
        ok = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
        rotated = np.zeros_like(px)
        rotated[ok] = px[sy[ok], sx[ok]]
        px = rotated
    if config.translate_fraction > 0:
        t = config.translate_fraction
        dy = int(round((-t + 2 * t * row[2]) * h))
        dx = int(round((-t + 2 * t * row[3]) * w))
        shifted = np.zeros_like(px)
        shifted[max(dy, 0) : min(h + dy, h), max(dx, 0) : min(w + dx, w)] = px[
            max(-dy, 0) : min(h - dy, h), max(-dx, 0) : min(w - dx, w)
        ]
        px = shifted
    if config.jitter_fraction > 0:
        j = config.jitter_fraction
        factor = 1.0 - j + 2 * j * row[4]
        px = np.clip(np.rint(px.astype(np.float64) * factor), 0, 255).astype(np.uint8)
    return px


@pytest.mark.parametrize("config", [
    data.AugmentConfig(),
    data.AUGMENT_OFF,
    data.AugmentConfig(1.0, 0.0, 0.0, 0.0),
    data.AugmentConfig(0.5, 15.0, 0.2, 0.3),
], ids=["default", "off", "hflip", "strong"])
def test_augment_batch_byte_equal_per_image(config):
    for seed in range(50):
        h, w = (32, 32) if seed % 5 else (9, 14)
        stack = substream(seed, "stack").integers(0, 256, size=(6, h, w), dtype=np.uint8)
        draws = substream(seed, "aug").random((len(stack), data.AUG_DRAWS))
        batch = data.augment_batch(stack, config, draws)
        assert batch.dtype == np.uint8 and batch.shape == stack.shape
        ref = np.stack([_reference_augment(px, config, row) for px, row in zip(stack, draws)])
        assert batch.tobytes() == ref.tobytes()
        singles = [data.augment(data.Image(px), config, substream(seed, "aug", i)).pixels for i, px in enumerate(stack)]
        rows = [substream(seed, "aug", i).random(data.AUG_DRAWS) for i in range(len(stack))]
        assert np.stack(singles).tobytes() == np.stack(
            [_reference_augment(px, config, row) for px, row in zip(stack, rows)]).tobytes()


def test_augment_is_row_zero_of_augment_batch():
    cfg = data.AugmentConfig(0.5, 15.0, 0.2, 0.3)
    for seed in range(20):
        stack = substream(seed, "stack").integers(0, 256, size=(5, 12, 12), dtype=np.uint8)
        batch = data.augment_batch(stack, cfg, substream(seed, "aug").random((5, data.AUG_DRAWS)))
        single = data.augment(data.Image(stack[0]), cfg, substream(seed, "aug"))
        assert single.pixels.tobytes() == batch[0].tobytes()


def test_disabled_augmentation_leaves_its_column_unread():
    # rotation off: flip, shift and jitter still read columns 0, 2, 3 and 4
    cfg = data.AugmentConfig(0.5, 0.0, 0.2, 0.3)
    for seed in range(20):
        stack = substream(seed, "stack").integers(0, 256, size=(8, 16, 16), dtype=np.uint8)
        draws = substream(seed, "aug").random((8, data.AUG_DRAWS))
        got = data.augment_batch(stack, cfg, draws)
        ref = np.stack([_reference_augment(px, cfg, row) for px, row in zip(stack, draws)])
        assert got.tobytes() == ref.tobytes()
        scrambled = draws.copy()
        scrambled[:, 1] = substream(seed, "other").random(8)
        assert data.augment_batch(stack, cfg, scrambled).tobytes() == got.tobytes()
        for col in (0, 2, 3, 4):  # each of the read columns does matter
            moved = draws.copy()
            moved[:, col] = 1.0 - moved[:, col]
            assert data.augment_batch(stack, cfg, moved).tobytes() != got.tobytes(), col


def test_normalize_stack_byte_equal_per_image():
    stack = substream(8, "stack").integers(0, 256, size=(5, 7, 9), dtype=np.uint8)
    spec = data.NormalizationSpec(0.3, 0.2)
    for dtype in (np.float32, np.float64):
        got = data.normalize(stack, spec, dtype=dtype)
        assert got.shape == (5, 1, 7, 9) and got.dtype == dtype
        ref = np.stack([data.normalize(data.Image(px), spec, dtype=dtype) for px in stack])
        assert got.tobytes() == ref.tobytes()


def _normalize_formula(px, spec, dtype):
    # (pixel/255 - mean)/std computed per pixel in float64, then cast
    t = px.astype(np.float64)
    t /= 255.0
    t -= spec.mean
    t /= spec.std
    return t[..., None, :, :].astype(dtype)


def test_normalize_table_byte_equal_to_formula_for_every_value():
    # all 256 values, then random images, across several 16-image lookup chunks
    values = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
    stack = np.concatenate([values, substream(9, "table").integers(0, 256, (30, 8, 8), dtype=np.uint8)])
    for spec in (data.NormalizationSpec(), data.NormalizationSpec(0.3, 0.7), data.NormalizationSpec(-1.5, 3e-3)):
        for dtype in (np.float32, np.float64):
            got = data.normalize(stack, spec, dtype=dtype)
            assert got.shape == (34, 1, 8, 8) and got.dtype == dtype and got.flags.c_contiguous
            assert got.tobytes() == _normalize_formula(stack, spec, dtype).tobytes()
            one = data.normalize(data.Image(stack[5]), spec, dtype=dtype)
            assert one.tobytes() == _normalize_formula(stack[5], spec, dtype).tobytes()


def test_normalize_rejects_non_uint8_pixels():
    with pytest.raises(DataError):
        data.normalize(np.zeros((2, 4, 4), dtype=np.int64))


def test_normalize_values():
    img = data.Image(np.array([[114, 255], [0, 128]], np.uint8))
    spec = data.NormalizationSpec(0.449, 0.226)
    t = data.normalize(img, spec, dtype=np.float64)
    assert t.shape == (1, 2, 2)
    # hand arithmetic: (1 - 0.449) / 0.226
    assert t[0, 0, 1] == pytest.approx((1.0 - 0.449) / 0.226, rel=1e-9)
    assert abs(t[0, 0, 0]) < 0.01  # 114/255 ~ 0.447 ~ mean
    ident = data.normalize(img, data.NormalizationSpec(0.0, 1.0), dtype=np.float64)
    assert np.allclose(ident[0], img.pixels / 255.0)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_gen_synthetic_counts_and_balance(tmp_path):
    m = data.gen_synthetic(3, 100, 32, 0.05, 0, tmp_path)
    assert len(m) == 300
    for cls in m.class_names:
        assert sum(1 for _, lab in m.entries if lab == cls) == 100
    assert (tmp_path / m.entries[0][0]).exists()


def test_gen_synthetic_noise_zero_identical(tmp_path):
    m = data.gen_synthetic(2, 5, 16, 0.0, 0, tmp_path)
    first = data.pgm_read(tmp_path / "c0/img_00000.pgm")
    for i in range(1, 5):
        assert data.pgm_read(tmp_path / f"c0/img_{i:05d}.pgm") == first


def test_gen_synthetic_nearest_centroid_oracle(tmp_path):
    m = data.gen_synthetic(3, 40, 32, 0.05, 1, tmp_path)
    labels = m.labels_as_indices()
    imgs = np.stack(
        [data.pgm_read(tmp_path / rel).pixels.astype(np.float64) for rel, _ in m.entries]
    )
    centroids = np.stack([imgs[labels == k].mean(axis=0) for k in range(3)])
    dists = ((imgs[:, None] - centroids[None]) ** 2).sum(axis=(2, 3))
    pred = dists.argmin(axis=1)
    assert (pred == labels).mean() >= 0.99
