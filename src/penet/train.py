"""Training loops, evaluation metrics and checkpoint persistence.

Training, evaluation and the point-count sweep prepare every batch the
same way (``_prepare_batch``): each cloud that needs sampling starts at
its ``canonical_start`` and is taken to the largest requested count below
its size, with one ``farthest_point_sample`` call per distinct target
size; every smaller count is a row prefix of that sample, because greedy
FPS picks its first n points the same whatever it goes on to pick. Each
count's batch is then centered and scaled as one array. The sweep
prepares each batch once and runs the model at every count before it
moves to the next batch. Training samples its validation clouds once per
run, then prepares its training clouds once, into one (clouds, n_points,
din) array whose slices feed every step.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .data import (AugmentConfig, PointCloud, augment, canonical_start,
                   check_sample_count, farthest_point_sample,
                   normalize_batch, sample_seed)
from .errors import ConfigError, DataError, FormatError, check_int
from .heads import predict
from .models import Classifier, Segmenter
from .numcore import Adam, SGD, inference, softmax_cross_entropy

CHECKPOINT_MAGIC = b"PENET1"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    task: str = "classify"            # classify | segment
    epochs: int = 30
    batch_size: int = 16
    n_points: int = 256               # training N, fixed per run via FPS
    k: int = 1024
    encoder_depth: int = 3
    optimizer: str = "adam"           # adam | sgd
    lr: float = 1e-3
    lr_step: int = 0                  # step decay every lr_step epochs; 0 = constant
    lr_gamma: float = 0.5
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.task not in ("classify", "segment"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        for name, low, high in (("epochs", 1, None), ("batch_size", 1, None),
                                ("n_points", 1, None), ("k", 1, None),
                                ("encoder_depth", 1, 5), ("lr_step", 0, None),
                                ("seed", 0, None)):
            value = check_int(getattr(self, name), name, low, high)
            setattr(self, name, value)      # a plain int: the metadata is JSON
        for name in ("lr", "lr_gamma"):
            if not 0 < getattr(self, name) < math.inf:   # nan fails too
                raise ConfigError(f"{name} must be finite and > 0, got "
                                  f"{getattr(self, name)}")


@dataclass
class MetricsReport:
    instance_accuracy: float = 0.0
    class_accuracy: float = 0.0
    per_class_counts: dict[int, int] = field(default_factory=dict)
    per_category_miou: dict[int, float] = field(default_factory=dict)
    mean_miou: float | None = None
    seconds: float = 0.0


# --------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(model, path):
    """Binary container: magic, version u32, JSON metadata, named f32 arrays.

    All integers little-endian u32; array payloads little-endian float32.
    The layout is stable so a written file can be compared byte for byte.
    """
    meta = json.dumps(model.metadata(), sort_keys=True).encode("utf-8")
    arrays = model.named_params()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(struct.pack("<I", len(arrays)))
        for name, value in arrays.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", value.ndim))
            f.write(struct.pack(f"<{value.ndim}I", *value.shape))
            f.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def _reader(data: bytes):
    """take(n, what): a view of the next n bytes of ``data``, checked
    against the bytes left before anything is read or allocated."""
    data = memoryview(data)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(data) - pos:
            raise FormatError(
                f"checkpoint truncated while reading {what}: {n} bytes "
                f"needed, {len(data) - pos} left")
        pos += n
        return data[pos - n:pos]
    return take


def load_checkpoint(path):
    """Rebuild a model purely from the file's metadata and arrays.

    Every length, rank and array size is checked against the bytes left in
    the file before it is read, so a corrupt file raises FormatError.
    """
    take = _reader(Path(path).read_bytes())

    def u32s(count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count, what))

    magic = bytes(take(len(CHECKPOINT_MAGIC), "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    (version,) = u32s(1, "version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (meta_len,) = u32s(1, "metadata length")
    raw_meta = take(meta_len, "metadata")
    try:
        meta = json.loads(str(raw_meta, "utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON
        raise FormatError(f"checkpoint metadata is not UTF-8 JSON: {exc}")
    (count,) = u32s(1, "array count")
    arrays: dict[str, np.ndarray] = {}
    for i in range(count):
        (nlen,) = u32s(1, f"array {i} name length")
        try:
            name = str(take(nlen, f"array {i} name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"checkpoint array {i} name: {exc}")
        (rank,) = u32s(1, f"{name} rank")
        shape = u32s(rank, f"{name} dims")
        if rank > 32:                   # the smallest limit numpy has had
            raise FormatError(f"checkpoint array {name!r} has rank {rank}")
        payload = take(4 * math.prod(shape), f"{name} payload")
        # a read-only view of the file bytes; the model copies it below
        arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape)

    if not isinstance(meta, dict):
        raise FormatError("checkpoint metadata is not a JSON object")
    task = meta.get("task")
    if task not in ("classify", "segment"):
        raise FormatError(f"unknown task {task!r} in checkpoint metadata")
    # Classifier and Segmenter are looked up at each call, here and in
    # train(), so bench/run.py can replace them to time every layer
    classify = task == "classify"
    n_out_key = "num_classes" if classify else "num_parts"
    # din, n_out and k each size an array of a valid file, so none exceeds
    # its value count; corrupt metadata cannot build a model far larger
    # than the file. A missing key reads None, which is no integer.
    n_values = sum(a.size for a in arrays.values())
    din, n_out, k, depth = (
        check_int(meta.get(key), f"checkpoint metadata {key!r}", 1, high,
                  FormatError)
        for key, high in (("din", n_values), (n_out_key, n_values),
                          ("k", n_values), ("encoder_depth", None)))
    if "train_points" in meta:
        check_int(meta["train_points"], "checkpoint metadata 'train_points'",
                  1, error=FormatError)
    try:
        model = (Classifier if classify else Segmenter)(din, n_out, k=k,
                                                        depth=depth)
    except ValueError as exc:
        raise FormatError(f"checkpoint metadata describes no model: {exc}")
    core = {"task", "din", "k", "g", "encoder_depth", "num_classes", "num_parts"}
    model.extra_meta = {key: val for key, val in meta.items() if key not in core}
    params = {p.name: p for p in model.params()}
    missing = set(params) - set(arrays)
    if missing:
        raise FormatError(f"checkpoint missing arrays: {sorted(missing)}")
    for name, value in arrays.items():
        if name not in params:
            raise FormatError(f"checkpoint has unknown array {name!r}")
        if params[name].value.shape != value.shape:
            raise FormatError(
                f"array {name!r} has shape {value.shape}, model expects "
                f"{params[name].value.shape}")
        params[name].value[...] = value
    return model


# --------------------------------------------------------------------------
# Batch assembly


def _sample_to(clouds: list[PointCloud], targets: list[int]
               ) -> list[PointCloud]:
    """Each cloud sampled to its target count, starting at its
    lexicographically smallest feature row, so the subset kept does not
    depend on the order of the rows in its file: one farthest_point_sample
    call per distinct target, for the clouds larger than theirs. A cloud
    whose target is its size is returned as it is."""
    out = list(clouds)
    by_target: dict[int, list[int]] = {}
    for j, (cloud, n) in enumerate(zip(clouds, targets)):
        if n < len(cloud):
            by_target.setdefault(n, []).append(j)
    for n, members in by_target.items():
        group = [clouds[j] for j in members]
        sampled = farthest_point_sample(
            group, n, [canonical_start(c) for c in group])
        for j, cloud in zip(members, sampled):
            out[j] = cloud
    return out


def _prepare_batch(clouds: list[PointCloud], counts: list[int]):
    """For each count in turn, (x, part labels): the (bs, n, din) float32
    model input, centered and scaled to the unit sphere, and each cloud's
    n part labels (None for a cloud without them).

    The caller has checked every count against every cloud
    (``check_sample_count``) and that the clouds share one din. Each cloud
    is sampled once, to the largest count below its size (``_sample_to``).
    Smaller counts take a row prefix of the sample; a count equal to a
    cloud's size takes the cloud's rows as they are.
    """
    sampled = _sample_to(clouds, [
        max((n for n in counts if n < len(c)), default=len(c))
        for c in clouds])
    for n in counts:
        rows = [c if len(c) == n else s for c, s in zip(clouds, sampled)]
        pts = normalize_batch(np.stack([c.points[:n] for c in rows], axis=1))
        x = np.empty((len(rows), n, rows[0].din), dtype=np.float32)
        x[:, :, :3] = pts.transpose(1, 0, 2)
        if rows[0].normals is not None:
            x[:, :, 3:] = np.stack([c.normals[:n] for c in rows])
        yield x, [None if c.part_labels is None else c.part_labels[:n]
                  for c in rows]


# --------------------------------------------------------------------------
# Training


def train(clouds: list[PointCloud], cfg: TrainConfig,
          val_clouds: list[PointCloud] | None = None,
          log_path=None, num_classes: int | None = None):
    """Train a model over in-memory clouds; returns (model, log rows).

    Every training and validation cloud is checked against the first
    training cloud's din and against cfg.n_points before anything is
    sampled. Before the first epoch, the validation clouds are sampled to
    cfg.n_points one batch_size chunk at a time, and every epoch evaluates
    those samples. Then the training clouds are prepared (FPS to
    cfg.n_points, centered and scaled), also one chunk at a time and in
    their order, into one (clouds, n_points, din) float32 array. A step
    takes its clouds' rows of that array and overwrites each one's
    coordinates with
    ``augment(coordinates, cfg.augment, sample_seed(cfg.seed, epoch, i))``
    for cloud index i, so the run is reproducible whatever the order of
    the batches.
    """
    if not clouds:
        raise ConfigError("empty training set")
    din = clouds[0].din

    classify = cfg.task == "classify"
    # a cloud's labels: one class id, or one part id per point
    label_of = attrgetter("class_label" if classify else "part_labels")
    what = "class" if classify else "part"
    evaluate = evaluate_classification if classify else evaluate_segmentation
    val_clouds = val_clouds or []
    for split, group in (("training", clouds), ("validation", val_clouds)):
        if any(label_of(c) is None for c in group):
            raise ConfigError(f"{cfg.task} {split} requires {what} labels")
        if any(c.din != din for c in group):
            raise DataError(f"mixed clouds with and without normals: every "
                            f"{split} cloud needs {din} features per point")
    top = int(max(np.max(label_of(c)) for c in clouds))
    n_out = num_classes if num_classes is not None else top + 1
    if top >= n_out:
        raise ConfigError(f"{what} id {top} >= num_classes {n_out}")
    model = (Classifier if classify else Segmenter)(
        din, n_out, k=cfg.k, depth=cfg.encoder_depth, seed=cfg.seed)
    model.extra_meta["train_points"] = cfg.n_points
    check_sample_count(clouds + val_clouds, cfg.n_points)
    opt = Adam(lr=cfg.lr) if cfg.optimizer == "adam" else SGD(lr=cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(0xB0,)))
    val_samples = []
    for b0 in range(0, len(val_clouds), cfg.batch_size):
        chunk = val_clouds[b0:b0 + cfg.batch_size]
        val_samples += _sample_to(chunk, [cfg.n_points] * len(chunk))
    inputs = np.empty((len(clouds), cfg.n_points, din), dtype=np.float32)
    labels = []
    for b0 in range(0, len(clouds), cfg.batch_size):
        chunk = clouds[b0:b0 + cfg.batch_size]
        x, parts = next(_prepare_batch(chunk, [cfg.n_points]))
        inputs[b0:b0 + len(chunk)] = x
        labels += [c.class_label for c in chunk] if classify else parts
    log_rows = []

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        if cfg.lr_step and epoch > 0 and epoch % cfg.lr_step == 0:
            opt.lr *= cfg.lr_gamma
        order = shuffle_rng.permutation(len(clouds))
        losses = []
        correct = 0
        total = 0
        for b0 in range(0, len(order), cfg.batch_size):
            idxs = order[b0:b0 + cfg.batch_size]
            x = inputs[idxs]
            for j, i in enumerate(idxs):
                x[j, :, :3] = augment(x[j, :, :3], cfg.augment,
                                      sample_seed(cfg.seed, epoch, int(i)))
            logits = model.forward(x)
            y = np.hstack([labels[i] for i in idxs])
            flat = logits.reshape(-1, logits.shape[-1])
            loss, dflat = softmax_cross_entropy(flat, y)
            correct += int((predict(flat) == y).sum())
            total += len(y)
            if not math.isfinite(loss):
                raise ConfigError(
                    f"non-finite loss {loss} at epoch {epoch}, batch "
                    f"{b0 // cfg.batch_size} (lr {opt.lr:g})")
            model.zero_grads()
            model.backward(dflat.reshape(logits.shape))
            opt.step(model.params())
            losses.append(loss)
        train_acc = correct / total
        # instance accuracy: per cloud or, for segmentation, per point
        val_acc = evaluate(model, val_samples, cfg.n_points).instance_accuracy \
            if val_clouds else float("nan")
        seconds = time.perf_counter() - t0
        log_rows.append((epoch, float(np.mean(losses)), train_acc, val_acc,
                         seconds))

    if log_path is not None:
        lines = ["epoch,loss,train_acc,val_acc,seconds"]
        lines += [f"{e},{l:.6f},{ta:.6f},{va:.6f},{s:.3f}"
                  for e, l, ta, va, s in log_rows]
        Path(log_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return model, log_rows


# --------------------------------------------------------------------------
# Evaluation


def _eval_batches(model, clouds: list[PointCloud], counts: list[int],
                  batch_size: int = 32):
    """(count, clouds, part labels, logits) for each batch of up to
    batch_size clouds at each count, batch by batch. Every cloud is
    checked against every count before anything is sampled. Each forward
    runs inside ``inference()``, which is left before the yield."""
    if not clouds:
        raise DataError("no clouds to evaluate")
    if any(c.din != clouds[0].din for c in clouds):
        raise DataError("mixed clouds with and without normals")
    for n in counts:
        check_sample_count(clouds, n)
    for b0 in range(0, len(clouds), batch_size):
        batch = clouds[b0:b0 + batch_size]
        for n, (x, parts) in zip(counts, _prepare_batch(batch, counts)):
            with inference():
                logits = model.forward(x)
            yield n, batch, parts, logits


def _classification_reports(model, clouds: list[PointCloud],
                            counts: list[int]) -> dict[int, MetricsReport]:
    """evaluate_classification's report for each of the distinct counts,
    from one pass over the batches. Every cloud needs a class label."""
    if any(c.class_label is None for c in clouds):
        raise ConfigError("classify evaluation requires class labels")
    t0 = time.perf_counter()
    totals: dict[int, dict[int, int]] = {n: {} for n in counts}
    hits: dict[int, dict[int, int]] = {n: {} for n in counts}
    for n, batch, _, logits in _eval_batches(model, clouds, counts):
        total, hit = totals[n], hits[n]
        for cloud, pred in zip(batch, predict(logits)):
            y = cloud.class_label
            total[y] = total.get(y, 0) + 1
            if pred == y:
                hit[y] = hit.get(y, 0) + 1
    seconds = time.perf_counter() - t0
    return {n: MetricsReport(
        instance_accuracy=sum(hits[n].values()) / len(clouds),
        class_accuracy=float(np.mean([hits[n].get(c, 0) / t
                                      for c, t in totals[n].items()])),
        per_class_counts=totals[n],
        seconds=seconds) for n in counts}


def evaluate_classification(model, clouds: list[PointCloud],
                            n_test_points: int) -> MetricsReport:
    """Instance accuracy plus macro-averaged per-class accuracy."""
    return _classification_reports(model, clouds,
                                   [n_test_points])[n_test_points]


def shape_miou(gt: np.ndarray, pred: np.ndarray, parts) -> float:
    """Mean IoU over the given part ids; a part absent from both the
    ground truth and the prediction counts as IoU 1."""
    ious = []
    for part in parts:
        g = gt == part
        p = pred == part
        union = int(np.logical_or(g, p).sum())
        inter = int(np.logical_and(g, p).sum())
        ious.append(1.0 if union == 0 else inter / union)
    return float(np.mean(ious))


def category_parts(clouds: list[PointCloud]) -> dict[int, list[int]]:
    """Part ids observed per category across the dataset's ground truth."""
    parts: dict[int, set[int]] = {}
    for c in clouds:
        parts.setdefault(c.class_label, set()).update(
            int(l) for l in np.unique(c.part_labels))
    return {k: sorted(v) for k, v in parts.items()}


def evaluate_segmentation(model, clouds: list[PointCloud], n_points: int,
                          parts_by_category: dict[int, list[int]] | None = None
                          ) -> MetricsReport:
    """Shape mIoU averaged per category and (shape-weighted) overall.
    Every cloud needs part labels."""
    if any(c.part_labels is None for c in clouds):
        raise ConfigError("segment evaluation requires part labels")
    t0 = time.perf_counter()
    if parts_by_category is None:
        parts_by_category = category_parts(clouds)
    shape_scores: dict[int, list[float]] = {}
    all_scores = []
    correct = 0
    total = 0
    for _, batch, labels, logits in _eval_batches(model, clouds, [n_points]):
        for cloud, gt, cloud_logits in zip(batch, labels, logits):
            parts = parts_by_category.get(cloud.class_label)
            if parts is None or any(l not in parts for l in np.unique(gt)):
                raise DataError(
                    f"ground-truth part label outside category "
                    f"{cloud.class_label} part set {parts}")
            pred = predict(cloud_logits)
            score = shape_miou(gt, pred, parts)
            shape_scores.setdefault(cloud.class_label, []).append(score)
            all_scores.append(score)
            correct += int((pred == gt).sum())
            total += len(gt)
    return MetricsReport(
        instance_accuracy=correct / total,
        class_accuracy=0.0,
        per_category_miou={c: float(np.mean(s)) for c, s in shape_scores.items()},
        mean_miou=float(np.mean(all_scores)),
        seconds=time.perf_counter() - t0)


def sweep_point_count(model, clouds: list[PointCloud], counts: list[int],
                      out_csv=None) -> list[tuple[int, float, float]]:
    """evaluate_classification at each point count, in the given order;
    returns (n, inst, class) rows. Each batch is sampled once, for every
    count, and a repeated count is evaluated once."""
    reports = _classification_reports(model, clouds,
                                      list(dict.fromkeys(counts)))
    rows = [(n, reports[n].instance_accuracy, reports[n].class_accuracy)
            for n in counts]
    if out_csv is not None:
        lines = ["n_points,instance_acc,class_acc"]
        lines += [f"{n},{i:.6f},{c:.6f}" for n, i, c in rows]
        Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows
