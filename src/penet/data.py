"""Dataset ingestion, farthest point sampling and training-time augmentation.

Point clouds live in a plain text format (one point per line, 3 or 6
columns) with an optional ``.seg`` sidecar of per-point part labels, tied
together by a manifest file. MNIST comes in via the standard IDX binaries
and is converted to 3D clouds by sampling non-zero pixels.

``farthest_point_sample`` samples one cloud or a whole batch in one call;
``canonical_start`` gives the start that makes the sample independent of
the order of a cloud's rows. ``normalize_batch`` centers and scales a
batch of equal-length clouds as one array. ``augment`` takes a cloud's
(N, 3) coordinates and its seed and returns new float32 coordinates.
``check_coordinates`` is the one check of finite coordinates within
``MAX_COORD``: ``PointCloud`` runs it on its points, ``augment`` on its
result.

Labels are integers >= 0: a negative class id in a manifest, or part
label in a ``.seg`` file, raises FormatError naming the file and line, and
``PointCloud`` rejects a negative label with DataError.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DataError, EmptyCloudError, FormatError, SamplingError,
                     check_int)

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

# largest |coordinate|, a power of two below sqrt(float32 max / 12) ~ 5.3e18:
# a squared distance (dx² + dy²) + dz² with |dx| <= 2 * MAX_COORD is finite
MAX_COORD = 2.0 ** 62


@dataclass
class PointCloud:
    points: np.ndarray                    # (N, 3) float32
    normals: np.ndarray | None = None     # (N, 3) unit vectors
    part_labels: np.ndarray | None = None  # (N,) int
    class_label: int | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise DataError(f"points must be (N, 3), got {self.points.shape}")
        if len(self.points) == 0:
            raise EmptyCloudError("point cloud must contain at least one point")
        check_coordinates(self.points)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float32)
            if self.normals.shape != self.points.shape:
                raise DataError("normals must match points shape")
            if not np.isfinite(self.normals).all():
                raise DataError("normals must be finite (found nan or inf)")
            lengths = np.linalg.norm(self.normals, axis=1)
            if np.any(np.abs(lengths - 1.0) > 1e-3):
                raise DataError("normals must be unit length (within 1e-3)")
        if self.part_labels is not None:
            self.part_labels = np.asarray(self.part_labels, dtype=np.int64)
            if self.part_labels.shape != (len(self.points),):
                raise DataError("part labels must have one entry per point")
            if (self.part_labels < 0).any():
                raise DataError(f"part label {self.part_labels.min()} is "
                                f"negative")
        if self.class_label is not None and self.class_label < 0:
            raise DataError(f"class label {self.class_label} is negative")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def din(self) -> int:
        return 6 if self.normals is not None else 3

    def features(self) -> np.ndarray:
        """(N, din) network input: xyz, or xyz + normal."""
        if self.normals is None:
            return self.points
        return np.concatenate([self.points, self.normals], axis=1)


def check_coordinates(points: np.ndarray) -> np.ndarray:
    """Return ``points``, a non-empty array, if every coordinate is finite
    and at most MAX_COORD in magnitude; raise DataError if not. The bound
    is checked as ``max(points.max(), -points.min())``, which makes no
    temporary array."""
    if not np.isfinite(points).all():
        raise DataError("points must be finite (found nan or inf)")
    if (peak := max(points.max(), -points.min())) > MAX_COORD:
        raise DataError(f"|coordinate| {peak:.4g} > {MAX_COORD:.4g}: "
                        f"squared distances would overflow float32")
    return points


@dataclass
class AugmentConfig:
    """Training augmentation: clipped per-point jitter, one random scale
    and one random shift per cloud. Each sample's seed is an argument of
    ``augment``, not a field."""

    jitter_sigma: float = 0.01
    jitter_clip: float = 0.05
    shift_range: float = 0.1
    scale_range: tuple[float, float] = (0.8, 1.25)

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value).all():
                raise DataError(f"augment.{name} must be finite, got {value}")
        if self.jitter_sigma < 0 or self.jitter_clip < self.jitter_sigma:
            raise DataError("augment.jitter_sigma must be in [0, jitter_clip]")
        # a wider range could shift a cloud past MAX_COORD, and rng.uniform
        # overflows on a range wider than float64 max
        if not 0 <= self.shift_range <= MAX_COORD:
            raise DataError(f"augment.shift_range must be in [0, 2**62], "
                            f"got {self.shift_range}")
        lo, hi = self.scale_range
        if not (0 < lo < hi):
            raise DataError("augment.scale_range must satisfy 0 < low < high")


@dataclass
class DatasetManifest:
    root: Path
    entries: list[tuple[str, int, str | None]]  # (cloud path, class id, seg path)
    class_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)


# --------------------------------------------------------------------------
# IDX / MNIST


def _read_exact(f, path, what: str, *sizes: int) -> bytes:
    """The product of ``sizes`` in bytes from f. The sizes may come from a
    header, so they are checked against the bytes left in the file before
    anything is read."""
    at, n = f.tell(), math.prod(sizes)
    left = os.fstat(f.fileno()).st_size - at
    if min(sizes) < 0 or n > left:
        raise FormatError(
            f"{path}: cannot read {what} of {' x '.join(map(str, sizes))} "
            f"bytes at byte {at}, {left} bytes left")
    return f.read(n)


def load_idx_images(images_path, labels_path) -> list[tuple[np.ndarray, int]]:
    """Parse the big-endian IDX pair into (28x28 uint8 grid, label) tuples."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">iiii", _read_exact(f, images_path, "header", 16))
        if magic != IDX_MAGIC_IMAGES:
            raise FormatError(
                f"{images_path}: bad magic 0x{magic:08x} at byte 0, "
                f"expected 0x{IDX_MAGIC_IMAGES:08x}")
        raw = _read_exact(f, images_path, "pixel data", count, rows, cols)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(
            ">ii", _read_exact(f, labels_path, "header", 8))
        if magic != IDX_MAGIC_LABELS:
            raise FormatError(
                f"{labels_path}: bad magic 0x{magic:08x} at byte 0, "
                f"expected 0x{IDX_MAGIC_LABELS:08x}")
        labels = np.frombuffer(
            _read_exact(f, labels_path, "label data", lcount), dtype=np.uint8)
    if count != lcount:
        raise FormatError(
            f"image count {count} != label count {lcount} "
            f"({images_path} vs {labels_path})")
    return [(images[i], int(labels[i])) for i in range(count)]


def mnist_to_pointcloud(image: np.ndarray, n_points: int = 5000,
                        seed: int = 0) -> PointCloud:
    """Sample non-zero pixels (with replacement) into a thin 3D slab.

    Pixel (r, c) maps to x = (c - 13.5)/13.5, y = (13.5 - r)/13.5 so the
    digit spans [-1, 1]^2; z is a small uniform deviate in (-0.05, 0.05)
    to give the flat image a third dimension.
    """
    rr, cc = np.nonzero(image)
    if len(rr) == 0:
        raise EmptyCloudError("image has no non-zero pixels")
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(rr), size=n_points)
    x = (cc[pick] - 13.5) / 13.5
    y = (13.5 - rr[pick]) / 13.5
    z = rng.uniform(-0.05, 0.05, size=n_points)
    return PointCloud(np.stack([x, y, z], axis=1))


# --------------------------------------------------------------------------
# Sampling and normalization


def check_sample_count(clouds, n: int):
    """Raise SamplingError unless n is an integer >= 1 and every cloud
    holds at least n points."""
    check_int(n, "point count", 1, error=SamplingError)
    for cloud in clouds:
        if n > len(cloud):
            raise SamplingError(
                f"cannot sample {n} points from a cloud of {len(cloud)}")


def farthest_point_sample(clouds, n: int, start=0):
    """Greedy FPS: repeatedly take the point farthest from the chosen set.

    ``clouds`` is one PointCloud, which returns one, or a list, which
    returns a list in the same order. ``start`` is the first index, one
    integer for all clouds or one per cloud. A list is sampled in one pass
    per distinct cloud length, without padding: each length's clouds are
    stacked as planar (3, bs, T) coordinates, and every greedy step takes
    a few in-place passes over the whole stack, with numpy's ufunc buffer
    cut to one cloud row (``_fps_indices``). Every cloud is checked
    against ``n``, and every start against its cloud, before any is
    sampled; a start that is not an integer index into its cloud, or a
    start list of the wrong length, raises SamplingError.

    Ties go to the lowest index (argmax convention), so the result is
    deterministic for a fixed start index. Squared distances are summed
    as (dx² + dy²) + dz², the float32 order of
    ``np.sum((pts - pts[i]) ** 2, axis=1)``, so a cloud sampled in a batch
    picks bit-identical indices to one sampled alone.
    """
    if isinstance(clouds, PointCloud):
        return farthest_point_sample([clouds], n, [start])[0]
    clouds = list(clouds)
    check_sample_count(clouds, n)
    starts = _check_starts(clouds, start)
    by_length: dict[int, list[int]] = {}
    for j, cloud in enumerate(clouds):
        by_length.setdefault(len(cloud), []).append(j)
    out: list = [None] * len(clouds)
    for members in by_length.values():
        planes = np.ascontiguousarray(
            np.stack([clouds[j].points for j in members]).transpose(2, 0, 1))
        for j, idx in zip(members, _fps_indices(planes, n, starts[members])):
            c = clouds[j]
            out[j] = PointCloud(
                c.points[idx],
                normals=None if c.normals is None else c.normals[idx],
                part_labels=None if c.part_labels is None else
                c.part_labels[idx],
                class_label=c.class_label)
    return out


def _check_starts(clouds, start) -> np.ndarray:
    """One int64 start per cloud, or SamplingError naming the first cloud
    whose start is not an integer index into it."""
    starts = list(start) if np.iterable(start) else [start] * len(clouds)
    if len(starts) != len(clouds):
        raise SamplingError(
            f"{len(starts)} start indices for {len(clouds)} clouds")
    for j, (cloud, s) in enumerate(zip(clouds, starts)):
        check_int(s, f"cloud {j}: start {s}", 0, len(cloud) - 1,
                  SamplingError)
    return np.array(starts, dtype=np.int64)


def _fps_indices(planes: np.ndarray, n: int, start: np.ndarray
                 ) -> np.ndarray:
    """(bs, n) greedy FPS indices of a planar (3, bs, T) batch, whose x, y
    and z are each a contiguous (bs, T) plane.

    Each greedy step is a few whole-batch passes over buffers allocated
    once per call: one subtract of the last chosen points from every
    plane, one in-place square, two in-place adds for (dx² + dy²) + dz²,
    then ``np.minimum`` into the (bs, T) table of squared distances to the
    chosen set and one argmax per row. The table starts at +inf, which the
    first minimum replaces with the first distances exactly.

    While the loop runs, numpy's ufunc buffer holds at most one cloud row
    (or numpy's smallest buffer, 16 elements, for shorter clouds). A
    buffer spanning several rows makes numpy copy each row's chosen point,
    a broadcast operand, into it, which slowed the subtract about 2x at
    (3, 32, 1024). The old size is restored on the way out, also on an
    error.
    """
    _, bs, t = planes.shape
    rows = np.arange(bs)
    chosen = np.empty((bs, n), dtype=np.int64)
    chosen[:, 0] = start
    diff = np.empty_like(planes)
    d2, dy2, dz2 = diff
    min_d2 = np.full((bs, t), np.inf, dtype=planes.dtype)
    old = np.setbufsize(max(16, min(t, np.getbufsize()) // 16 * 16))
    try:
        for i in range(1, n):
            np.subtract(planes, planes[:, rows, chosen[:, i - 1], None],
                        out=diff)
            np.multiply(diff, diff, out=diff)
            d2 += dy2
            d2 += dz2
            np.minimum(min_d2, d2, out=min_d2)
            chosen[:, i] = min_d2.argmax(axis=1)
    finally:
        np.setbufsize(old)
    return chosen


def canonical_start(cloud: PointCloud) -> int:
    """Index of the lexicographically smallest feature row (x, y, z, then
    the normal), the lowest index among equal rows.

    Starting FPS here makes the sampled subset, and its order, independent
    of the order of the rows, up to exact distance ties after the first
    step, which still go to the lowest index.
    """
    rows = np.arange(len(cloud))
    for col in cloud.features().T:
        col = col[rows]
        rows = rows[col == col.min()]
    return int(rows[0])


def normalize_batch(points: np.ndarray) -> np.ndarray:
    """Center each cloud of a points-major (N, bs, 3) float32 stack on its
    centroid and scale its farthest point to distance 1, in place; a cloud
    whose points all coincide is only centered. Returns ``points``.

    Points-major keeps numpy's row-by-row sum for each cloud's mean, the
    order of ``(N, 3).mean(axis=0)``, while the inner loop runs over the
    whole batch. A radius is the root of the largest (x² + y²) + z², the
    float32 order of ``np.linalg.norm(pts, axis=1)``; the root is
    monotonic, so this equals the largest norm.
    """
    points -= points.mean(axis=0)
    sq = points * points
    radius = np.sqrt((sq[..., 0] + sq[..., 1] + sq[..., 2]).max(axis=0))
    radius[radius == 0] = 1
    points /= radius[:, None]
    return points


def zero_mean_normalize(cloud: PointCloud) -> PointCloud:
    """Center on the centroid and scale the farthest point to distance 1."""
    pts = normalize_batch(cloud.points[:, None].copy())
    return PointCloud(pts[:, 0], normals=cloud.normals,
                      part_labels=cloud.part_labels,
                      class_label=cloud.class_label)


def augment(points: np.ndarray, cfg: AugmentConfig, seed: int
            ) -> np.ndarray:
    """(points + jitter) * scale + shift of (N, 3) coordinates, as a new
    float32 array: per-point Gaussian jitter clipped to ±cfg.jitter_clip,
    then one scale and one shift per cloud, drawn in float64 from
    ``default_rng(seed)``. The result passes ``check_coordinates``, as a
    PointCloud's coordinates do."""
    rng = np.random.default_rng(seed)
    jitter = np.clip(rng.normal(0.0, cfg.jitter_sigma, size=points.shape)
                     if cfg.jitter_sigma > 0 else np.zeros(points.shape),
                     -cfg.jitter_clip, cfg.jitter_clip)
    shift = rng.uniform(-cfg.shift_range, cfg.shift_range, size=3)
    scale = rng.uniform(cfg.scale_range[0], cfg.scale_range[1])
    return check_coordinates(
        ((points + jitter) * scale + shift).astype(np.float32))


def sample_seed(global_seed: int, epoch: int, sample_index: int) -> int:
    """Per-sample augmentation seed, independent of worker layout."""
    ss = np.random.SeedSequence(entropy=global_seed,
                                spawn_key=(epoch, sample_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# --------------------------------------------------------------------------
# Text cloud format


def _text_lines(path):
    """(line number, line) pairs of a UTF-8 text file; bytes that do not
    decode raise FormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from enumerate(f, start=1)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_part_labels(seg_path, n_points: int) -> np.ndarray:
    """One integer part label per line, one line per point."""
    labels = []
    for lineno, line in _text_lines(seg_path):
        for tok in line.split():
            try:
                labels.append(int(tok))
            except ValueError:
                raise FormatError(
                    f"{seg_path}:{lineno}: part label {tok!r} is not an "
                    f"integer")
            if labels[-1] < 0:
                raise FormatError(
                    f"{seg_path}:{lineno}: part label {tok} is negative")
    if len(labels) != n_points:
        raise FormatError(
            f"{seg_path}: {len(labels)} labels for {n_points} points")
    return np.asarray(labels, dtype=np.int64)


def load_cloud_text(path, seg_path=None) -> PointCloud:
    """One point per line: "x y z" or "x y z nx ny nz"; blank lines are
    skipped. Part labels come from ``seg_path`` if given, else from a
    ``<path>.seg`` sidecar if one exists.

    One pass over the file's lines splits each line at whitespace and
    checks its column count against the first line's. Then every token is
    converted in one ``np.fromiter`` call, which reads a str through
    Python's ``float()``, and the doubles are rounded once to float32: the
    values of a ``float()`` per token. Errors name the file and line, in
    file order: 3 or 6 columns, a ragged row, the first non-numeric token,
    or no points at all."""
    path = Path(path)
    rows, linenos = [], []          # each data line's tokens and number
    ncols = None
    try:
        for lineno, line in _text_lines(path):
            toks = line.split()
            if not toks:
                continue
            if ncols is None:
                ncols = len(toks)
                if ncols not in (3, 6):
                    raise FormatError(
                        f"{path}:{lineno}: expected 3 or 6 columns, got "
                        f"{ncols}")
            elif len(toks) != ncols:
                raise FormatError(
                    f"{path}:{lineno}: ragged row, expected {ncols} columns, "
                    f"got {len(toks)}")
            rows.append(toks)
            linenos.append(lineno)
        if not rows:
            raise EmptyCloudError(f"{path}: no points")
        values = np.fromiter(itertools.chain.from_iterable(rows), np.float64,
                             count=len(rows) * ncols)
    except ValueError:
        # float() finds the bad token, which comes before a later line's
        # column error in file order
        for lineno, toks in zip(linenos, rows):
            try:
                [float(t) for t in toks]
            except ValueError as exc:
                raise FormatError(
                    f"{path}:{lineno}: non-numeric token: {exc}") from None
        raise
    with np.errstate(over="ignore"):   # beyond float32 becomes inf: rejected
        arr = values.reshape(-1, ncols).astype(np.float32)
    normals = arr[:, 3:6] if ncols == 6 else None

    part_labels = None
    if seg_path is None:
        sidecar = path.with_suffix(path.suffix + ".seg")
        seg_path = sidecar if sidecar.exists() else None
    if seg_path is not None:
        part_labels = _read_part_labels(seg_path, len(arr))
    return PointCloud(arr[:, :3], normals=normals, part_labels=part_labels)


def save_cloud_text(cloud: PointCloud, path):
    """Write ``cloud.features()`` as one row per point: each value as
    ``%.6f``, single spaces between values and ``\\n`` after every row,
    the last one included. Part labels go to the ``<path>.seg`` sidecar,
    one ``%d`` per line, each line ending in ``\\n``; a cloud without
    labels removes that sidecar, so a later load cannot attach labels left
    by an earlier save. Each file is built by one format call over the
    values as Python floats or ints (``tolist``), which rounds as
    ``f"{v:.6f}"`` does, and written once."""
    path = Path(path)
    features = cloud.features()
    n, din = features.shape
    row = " ".join(["%.6f"] * din) + "\n"
    path.write_text(row * n % tuple(features.ravel().tolist()),
                    encoding="utf-8")
    seg = path.with_suffix(path.suffix + ".seg")
    if cloud.part_labels is None:
        seg.unlink(missing_ok=True)
    else:
        seg.write_text("%d\n" * n % tuple(cloud.part_labels.tolist()),
                       encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    """Manifest: "#classes: a,b,c" header then "<cloud>\\t<class>[\\t<seg>]"."""
    path = Path(path)
    class_names: list[str] = []
    entries: list[tuple[str, int, str | None]] = []
    for lineno, line in _text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#classes:"):
            class_names = [c.strip() for c in
                           line[len("#classes:"):].split(",") if c.strip()]
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise FormatError(f"{path}:{lineno}: expected 2 or 3 fields")
        try:
            class_id = int(parts[1])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: class id not an integer")
        if class_id < 0:
            raise FormatError(f"{path}:{lineno}: class id {class_id} is "
                              f"negative")
        seg = parts[2] if len(parts) == 3 else None
        for rel in parts[:1] + parts[2:]:
            if not (path.parent / rel).is_file():
                raise FormatError(f"{path}:{lineno}: missing file {rel!r} "
                                  f"(no file at {path.parent / rel})")
        entries.append((parts[0], class_id, seg))
    return DatasetManifest(root=path.parent, entries=entries,
                           class_names=class_names)


def load_dataset(manifest: DatasetManifest) -> list[PointCloud]:
    """Every manifest entry's cloud; part labels come from the entry's seg
    column when it has one, else from the cloud's ``.seg`` sidecar."""
    clouds = []
    for rel, class_id, seg in manifest.entries:
        path = manifest.root / rel
        cloud = load_cloud_text(path) if seg is None else \
            load_cloud_text(path, manifest.root / seg)
        cloud.class_label = class_id
        clouds.append(cloud)
    return clouds


# --------------------------------------------------------------------------
# Synthetic shapes

SYNTH_CLASSES = ["sphere", "cube", "cylinder", "disc"]


def _sphere(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, v.copy()


def _cube(rng, n):
    # side 2 centered at origin; faces picked uniformly (equal areas)
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-1, 1, size=(n, 2))
    pts = np.empty((n, 3))
    nrm = np.zeros((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        sel = axis == a
        others = [d for d in range(3) if d != a]
        pts[sel, a] = sign[sel]
        pts[sel, others[0]] = uv[sel, 0]
        pts[sel, others[1]] = uv[sel, 1]
        nrm[sel, a] = sign[sel]
    return pts, nrm


def _cylinder(rng, n):
    # lateral surface only: radius 1, z in [-1, 1]
    theta = rng.uniform(0, 2 * np.pi, size=n)
    z = rng.uniform(-1, 1, size=n)
    pts = np.stack([np.cos(theta), np.sin(theta), z], axis=1)
    nrm = np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    return pts, nrm


def _disc(rng, n):
    r = np.sqrt(rng.uniform(0, 1, size=n))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), np.zeros(n)], axis=1)
    nrm = np.tile(np.array([0.0, 0.0, 1.0]), (n, 1))
    return pts, nrm


_SYNTH_GEN = {"sphere": _sphere, "cube": _cube, "cylinder": _cylinder,
              "disc": _disc}


def synth_shapes(out_dir, n_per_class: int, n_points: int, seed: int,
                 split: str = "train") -> DatasetManifest:
    """Write a 4-class analytic dataset (with normals) in the text format
    and return its manifest. ``n_per_class`` and ``n_points`` that are
    not integers >= 1, or a ``seed`` that is not an integer >= 0, raise
    ConfigError naming the argument, before ``out_dir`` is made."""
    for name, value, low in (("n_per_class", n_per_class, 1),
                             ("n_points", n_points, 1), ("seed", seed, 0)):
        check_int(value, name, low)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["#classes: " + ",".join(SYNTH_CLASSES)]
    for class_id, name in enumerate(SYNTH_CLASSES):
        for i in range(n_per_class):
            rng = np.random.default_rng(
                sample_seed(seed, class_id, i))
            pts, nrm = _SYNTH_GEN[name](rng, n_points)
            rel = f"{split}_{name}_{i:04d}.txt"
            save_cloud_text(
                PointCloud(pts.astype(np.float32), normals=nrm.astype(np.float32)),
                out_dir / rel)
            lines.append(f"{rel}\t{class_id}")
    manifest_path = out_dir / f"{split}.manifest"
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_manifest(manifest_path)
