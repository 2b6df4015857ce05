"""Image I/O, dataset manifests, splits, rotation, augmentation.

Images are single-channel uint8, stored on disk as binary PGM (P5,
maxval 255). A manifest is a text listing of relative image paths and
class labels; paths are relative to the manifest's directory.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .rng import substream

# ImageNet per-channel constants collapsed to one grayscale channel.
GRAY_MEAN = 0.449
GRAY_STD = 0.226


@dataclass
class Image:
    """Grayscale uint8 image; pixels shaped (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise DataError(f"image pixels must be a non-empty 2-D array, got shape {self.pixels.shape}")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    def __eq__(self, other):
        return isinstance(other, Image) and np.array_equal(self.pixels, other.pixels)


@contextlib.contextmanager
def replacing_open(path, mode="w"):
    """Open a temp file beside `path` for writing; when the block ends
    without an error it replaces `path`. A crash mid-write leaves the
    previous `path` whole. Text mode writes UTF-8 with LF newlines."""
    tmp = f"{path}.tmp"
    text_args = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    with open(tmp, mode, **text_args) as f:
        yield f
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255)
# ---------------------------------------------------------------------------


def pgm_write(image: Image, path):
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(image.pixels.tobytes())


# whitespace and '#' comments, each comment running to the end of its line
_PGM_GAP = rb"(?:\s|#[^\n]*\n)*"
# magic, width, height, maxval: four tokens of non-whitespace bytes, each
# after a gap; a short header matches its leading tokens only
_PGM_HEADER = re.compile((b"(?:" + _PGM_GAP + rb"([^\s#]\S*)") * 4 + b")?" * 4)
_PGM_GAP_RE = re.compile(_PGM_GAP)


def pgm_read(path) -> Image:
    with open(path, "rb") as f:
        data = f.read()

    m = _PGM_HEADER.match(data)
    if m.lastindex != 4:
        # the gap after the last token ends at a '#' with no newline or at the end
        off = _PGM_GAP_RE.match(data, m.end()).end()
        if off < len(data):
            raise DataError(f"{path}: unterminated comment at offset {off}")
        raise DataError(f"{path}: truncated PGM header at offset {off}")
    tokens, off = m.groups(), m.end()

    if tokens[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {tokens[0]!r} at offset 0)")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise DataError(f"{path}: non-numeric PGM header field")
    if maxval != 255:
        raise DataError(f"{path}: maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad dimensions {width}x{height}")

    off += 1  # single whitespace byte after maxval
    need = width * height
    payload = data[off : off + need]
    if len(payload) < need:
        raise DataError(
            f"{path}: short pixel payload at offset {off}: need {need} bytes, have {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return Image(pixels.copy())


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass
class Manifest:
    """Ordered (relative path, class label) pairs plus the sorted class set."""

    entries: list = field(default_factory=list)  # [(path, label)]
    class_names: list = field(default_factory=list)

    def __post_init__(self):
        if not self.class_names and self.entries:
            self.class_names = sorted({label for _, label in self.entries})
        known = set(self.class_names)
        for path, label in self.entries:
            if label not in known:
                raise DataError(f"label {label!r} not in class set {self.class_names}")
        paths = [p for p, _ in self.entries]
        if len(set(paths)) != len(paths):
            raise DataError("duplicate paths in manifest")

    def __len__(self):
        return len(self.entries)

    def class_index(self, label):
        return self.class_names.index(label)

    def labels_as_indices(self):
        lut = {name: i for i, name in enumerate(self.class_names)}
        return np.array([lut[label] for _, label in self.entries], dtype=np.int64)

    def subset(self, indices):
        return Manifest([self.entries[i] for i in indices], list(self.class_names))


def manifest_write(manifest: Manifest, path):
    with replacing_open(path) as f:
        f.write("#classes:\t" + ",".join(manifest.class_names) + "\n")
        for p, label in manifest.entries:
            f.write(f"{p}\t{label}\n")


def manifest_read(path) -> Manifest:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("#classes:\t"):
        raise DataError(f"{path}: missing '#classes:' header line")
    class_names = lines[0].split("\t", 1)[1].split(",")
    entries = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{ln}: expected 'path<TAB>class'")
        p, label = line.split("\t", 1)
        entries.append((p, label))
    return Manifest(entries, class_names)


def _scan(path, keep):
    """Sorted names of the entries of `path` that `keep(entry)` accepts.
    DirEntry.is_dir/is_file follow symlinks as os.path.isdir/isfile do,
    but need no stat call per entry on most file systems."""
    with os.scandir(path) as it:
        return sorted(e.name for e in it if keep(e))


def ingest_directory(root) -> Manifest:
    """One subdirectory per class; entries sorted by (class, filename)."""
    classes = _scan(root, os.DirEntry.is_dir)
    if not classes:
        raise DataError(f"{root}: no class subdirectories found")
    entries = []
    for cls in classes:
        files = _scan(os.path.join(root, cls), os.DirEntry.is_file)
        if not files:
            raise DataError(f"{root}: class directory {cls!r} is empty")
        entries.extend((f"{cls}/{f}", cls) for f in files)
    return Manifest(entries, classes)


def split_manifest(manifest: Manifest, fractions=(0.70, 0.10, 0.20), seed=0, out_dir=None):
    """Stratified train/validation/test split; floor counts, remainder to train.

    If out_dir is given, writes train.txt / val.txt / test.txt there.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    if len(manifest) == 0:
        raise ConfigError("cannot split an empty manifest")
    rng = substream(seed, "split")
    by_class = {cls: [] for cls in manifest.class_names}
    for i, (_, label) in enumerate(manifest.entries):
        by_class[label].append(i)
    buckets = ([], [], [])
    for idx in by_class.values():
        perm = rng.permutation(len(idx))
        idx = [idx[j] for j in perm]
        n = len(idx)
        n_val = int(math.floor(fractions[1] * n))
        n_test = int(math.floor(fractions[2] * n))
        n_train = n - n_val - n_test
        buckets[0].extend(idx[:n_train])
        buckets[1].extend(idx[n_train : n_train + n_val])
        buckets[2].extend(idx[n_train + n_val :])
    splits = tuple(manifest.subset(b) for b in buckets)
    if out_dir is not None:
        for name, m in zip(("train.txt", "val.txt", "test.txt"), splits):
            manifest_write(m, os.path.join(out_dir, name))
    return splits


# ---------------------------------------------------------------------------
# Rotation / rotated-dataset generator
# ---------------------------------------------------------------------------


def rotate90(image: Image, direction) -> Image:
    """90-degree rotation: 'left' = counter-clockwise, 'right' = clockwise."""
    if direction == "left":
        return Image(np.rot90(image.pixels, 1).copy())
    if direction == "right":
        return Image(np.rot90(image.pixels, -1).copy())
    raise ConfigError(f"direction must be 'left' or 'right', got {direction!r}")


ROTATED_CLASSES = ("original", "rot_left", "rot_right")


def build_rotated_dataset(source_manifest: Manifest, source_root, out_root, seed=0) -> Manifest:
    """Assign each source image uniformly to {original, rot_left, rot_right},
    rotate accordingly, and write the result under out_root/<class>/."""
    rng = substream(seed, "rotated")
    for cls in ROTATED_CLASSES:
        os.makedirs(os.path.join(out_root, cls), exist_ok=True)
    entries = []
    assignment = rng.integers(0, 3, size=len(source_manifest))
    for (rel, _), which in zip(source_manifest.entries, assignment):
        try:
            img = pgm_read(os.path.join(source_root, rel))
        except OSError as e:
            raise DataError(f"cannot read {rel}: {e}")
        cls = ROTATED_CLASSES[which]
        if cls == "rot_left":
            img = rotate90(img, "left")
        elif cls == "rot_right":
            img = rotate90(img, "right")
        fname = rel.replace("/", "__")
        out_rel = f"{cls}/{fname}"
        try:
            pgm_write(img, os.path.join(out_root, out_rel))
        except OSError as e:
            raise DataError(f"cannot write {out_rel}: {e}")
        entries.append((out_rel, cls))
    manifest = Manifest(entries, list(ROTATED_CLASSES))
    manifest_write(manifest, os.path.join(out_root, "manifest.txt"))
    return manifest


# ---------------------------------------------------------------------------
# Augmentation and normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig:
    hflip_probability: float = 0.5
    rotation_degrees: float = 5.0
    translate_fraction: float = 0.05
    jitter_fraction: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.hflip_probability <= 1.0:
            raise ConfigError("hflip_probability must be in [0,1]")
        magnitudes = (self.rotation_degrees, self.translate_fraction, self.jitter_fraction)
        if not all(m >= 0 for m in magnitudes):  # also rejects NaN
            raise ConfigError("augmentation magnitudes must be >= 0")


AUGMENT_OFF = AugmentConfig(0.0, 0.0, 0.0, 0.0)


AUG_DRAWS = 5  # one draw-table column each: flip, angle, dy, dx, jitter


def _rint_index(a, b, itype):
    """rint(a + b) as an index array, with one float64 temporary."""
    t = a + b
    np.rint(t, out=t)
    return t.astype(itype)


def _inside(idx, size):
    """0 <= idx < size as one compare: viewed unsigned, negatives are huge."""
    return idx.view(f"u{idx.itemsize}") < size


def _warp(px, flip, cos_t, sin_t, dy, dx, rotate):
    """Flip, rotate (when `rotate`) and shift every image of the stack in
    one gather. Output (y, x) reads the rotated image at (y - dy, x - dx),
    which reads the flipped image at (ys, xs); pixels from outside the
    image are 0. Index arrays are int32 whenever the stack is small enough
    and are updated in place, to keep the transient footprint small."""
    n, h, w = px.shape
    itype = np.int32 if px.size < 2**31 else np.int64
    ys = np.arange(h, dtype=itype)[None, :, None] - dy.astype(itype)
    xs = np.arange(w, dtype=itype)[None, None, :] - dx.astype(itype)
    valid = _inside(ys, h) & _inside(xs, w)
    if rotate:
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        ry, rx = ys - cy, xs - cx
        ys = _rint_index(cy + cos_t * ry, sin_t * rx, itype)
        xs = _rint_index(cx - sin_t * ry, cos_t * rx, itype)
        valid &= _inside(ys, h)
        valid &= _inside(xs, w)
    np.subtract(w - 1, xs, out=xs, where=flip)
    src = ys * w + xs
    src += (np.arange(n, dtype=itype) * (h * w))[:, None, None]
    src *= valid
    out = np.take(px.reshape(-1), src)
    out *= valid
    return out


def augment_batch(pixels, config: AugmentConfig, draws):
    """Augment an (n, h, w) uint8 stack; image i uses row i of the
    (n, AUG_DRAWS) table of uniform [0, 1) draws.

    Each augmentation owns one column, so one set to 0 leaves the others'
    draws where they were: hflip when u0 < p, angle -r + 2r·u1 degrees,
    shift rint((-t + 2t·u) · size) for dy (u2) and dx (u3), rounding half
    to even, and brightness factor 1 - j + 2j·u4. Rotation is inverse-map
    nearest neighbour about the image centre and translation an integer
    shift, both filling 0; together with the flip they make one gather
    index per image. The jitter multiplies by the factor, rounds and
    clips to [0, 255].
    """
    px = np.asarray(pixels, dtype=np.uint8)
    n, h, w = px.shape
    u = np.asarray(draws, dtype=np.float64).reshape(n, AUG_DRAWS)[:, :, None, None]
    r, t, j = config.rotation_degrees, config.translate_fraction, config.jitter_fraction
    flip = u[:, 0] < config.hflip_probability
    dy = np.rint((-t + 2 * t * u[:, 2]) * h)
    dx = np.rint((-t + 2 * t * u[:, 3]) * w)
    out = px
    if flip.any() or r > 0 or dy.any() or dx.any():
        theta = np.radians(-r + 2 * r * u[:, 1])
        out = _warp(px, flip, np.cos(theta), np.sin(theta), dy, dx, r > 0)
    if j > 0:
        out = out.astype(np.float64)
        out *= 1.0 - j + 2 * j * u[:, 4]
        np.rint(out, out=out)
        np.clip(out, 0, 255, out=out)
        out = out.astype(np.uint8)
    return np.ascontiguousarray(out)


def augment(image: Image, config: AugmentConfig, rng) -> Image:
    """Random hflip, small rotation, integer translation, brightness jitter.

    Shape-preserving; output stays in [0,255]; the all-off config is the
    identity. This is `augment_batch` on one image and one draw row
    `rng.random((1, AUG_DRAWS))`.
    """
    return Image(augment_batch(image.pixels[None], config, rng.random((1, AUG_DRAWS)))[0])


@dataclass(frozen=True)
class NormalizationSpec:
    mean: float = GRAY_MEAN
    std: float = GRAY_STD

    def __post_init__(self):
        if not self.std > 0:
            raise ConfigError("normalization std must be > 0")


@functools.lru_cache(maxsize=16)
def _normalize_table(spec, dtype):
    """(v/255 - mean)/std in float64, cast to dtype, for each v in 0..255."""
    t = np.arange(256, dtype=np.float64)
    t /= 255.0
    t -= spec.mean
    t /= spec.std
    return t.astype(dtype)


def normalize(image, spec: NormalizationSpec = NormalizationSpec(), dtype=np.float32):
    """(pixel/255 - mean)/std. An Image gives [1, H, W]; an (n, H, W)
    uint8 stack gives one contiguous [n, 1, H, W] array.

    Each pixel indexes a table of the formula over the 256 values, so each
    result is the formula's exactly. The lookup runs 16 images at a time,
    because `np.take` first casts its indices to intp; so no temporary the
    size of the stack is made.
    """
    px = image.pixels if isinstance(image, Image) else np.asarray(image)
    if px.dtype != np.uint8:
        raise DataError(f"normalize takes uint8 pixels, got {px.dtype}")
    table = _normalize_table(spec, np.dtype(dtype))
    stack = px.reshape((-1,) + px.shape[-2:])
    out = np.empty((len(stack), 1) + px.shape[-2:], dtype=table.dtype)
    for i in range(0, len(stack), 16):
        np.take(table, stack[i : i + 16], out=out[i : i + 16, 0])
    return out.reshape(px.shape[:-2] + out.shape[1:])


# ---------------------------------------------------------------------------
# Synthetic dataset generator
# ---------------------------------------------------------------------------


def synthetic_pattern(class_index, num_classes, height, width):
    """Deterministic class-distinctive base image.

    An oriented sinusoidal grating (orientation varies with class) plus a
    bright corner block so 90-degree rotations stay distinguishable.
    """
    theta = math.pi * class_index / num_classes
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    phase = 2.0 * math.pi * 3.0 * (xx * math.cos(theta) + yy * math.sin(theta)) / width
    base = 110.0 + 70.0 * np.sin(phase)
    bh, bw = max(2, height // 4), max(2, width // 4)
    base[:bh, :bw] = 250.0
    return np.clip(np.rint(base), 0, 255).astype(np.uint8)


def gen_synthetic(num_classes, per_class, size, noise_level, seed, out_root) -> Manifest:
    """Write a balanced PGM dataset of seeded noisy class patterns."""
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    if per_class < 1:
        raise ConfigError("need at least 1 image per class")
    h, w = size if isinstance(size, tuple) else (size, size)
    width_digits = len(str(num_classes - 1))
    entries = []
    class_names = [f"c{k:0{width_digits}d}" for k in range(num_classes)]
    for k, cls in enumerate(class_names):
        os.makedirs(os.path.join(out_root, cls), exist_ok=True)
        base = synthetic_pattern(k, num_classes, h, w).astype(np.float64)
        for i in range(per_class):
            px = base
            if noise_level > 0:
                rng = substream(seed, "synth", k, i)
                px = base + rng.standard_normal((h, w)) * (noise_level * 255.0)
            img = Image(np.clip(np.rint(px), 0, 255).astype(np.uint8))
            rel = f"{cls}/img_{i:05d}.pgm"
            pgm_write(img, os.path.join(out_root, rel))
            entries.append((rel, cls))
    manifest = Manifest(entries, class_names)
    manifest_write(manifest, os.path.join(out_root, "manifest.txt"))
    return manifest
