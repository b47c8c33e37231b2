"""Training loops, evaluation metrics and checkpoint persistence.

Training, evaluation and the point-count sweep prepare every batch the
same way (``_prepare_batch``): one ``farthest_point_sample`` call for the
clouds that need sampling, each starting at its ``canonical_start``, then
centering and scaling.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .data import (AugmentConfig, PointCloud, augment, canonical_start,
                   farthest_point_sample, sample_seed, zero_mean_normalize)
from .errors import ConfigError, DataError, FormatError
from .heads import predict
from .models import Classifier, Segmenter
from .numcore import Adam, SGD, softmax_cross_entropy

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
        if not 1 <= self.encoder_depth <= 5:
            raise ConfigError("encoder_depth must be 1..5")


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


def _model_class(task: str):
    """(model class, metadata key of its output count) for a task.

    The class is read from this module's globals at each call, so a caller
    that replaces ``Classifier`` or ``Segmenter`` here (bench/run.py does,
    to time every layer) gets its replacement from train and load_checkpoint.
    """
    if task == "classify":
        return Classifier, "num_classes"
    return Segmenter, "num_parts"


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


def _meta_ints(meta: dict, *keys: str) -> list[int]:
    """The named integer fields of checkpoint metadata, or FormatError."""
    values = []
    for key in keys:
        if key not in meta:
            raise FormatError(f"checkpoint metadata lacks {key!r}")
        value = meta[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise FormatError(
                f"checkpoint metadata {key!r} is {value!r}, not an integer")
        values.append(value)
    return values


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
        arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()

    if not isinstance(meta, dict):
        raise FormatError("checkpoint metadata is not a JSON object")
    task = meta.get("task")
    if task not in ("classify", "segment"):
        raise FormatError(f"unknown task {task!r} in checkpoint metadata")
    model_cls, n_out_key = _model_class(task)
    din, n_out, k, depth = _meta_ints(meta, "din", n_out_key, "k",
                                      "encoder_depth")
    # din, n_out and k each size an array of a valid file, so none exceeds
    # its value count; corrupt metadata cannot build a model far larger
    # than the file
    n_values = sum(a.size for a in arrays.values())
    if not all(1 <= v <= n_values for v in (din, n_out, k)):
        raise FormatError(
            f"checkpoint metadata din={din}, {n_out_key}={n_out}, k={k} "
            f"does not fit the {n_values} values in the file")
    try:
        model = model_cls(din, n_out, k=k, depth=depth)
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


def _prepare_batch(clouds: list[PointCloud], n_points: int,
                   cache: dict | None = None) -> list[PointCloud]:
    """FPS to a fixed size, then center and scale to the unit sphere.

    Every cloud that needs sampling goes through one farthest_point_sample
    call, starting at its lexicographically smallest feature row, so the
    sampled subset does not depend on the order of the rows in its file.
    That is deterministic, so results are cached per (cloud, n) when a
    cache dict is supplied; a batch samples only its cache misses.
    """
    cache = {} if cache is None else cache
    misses = {id(c): c for c in clouds if (id(c), n_points) not in cache}
    to_sample = [c for c in misses.values() if len(c) != n_points]
    if to_sample:
        misses.update(zip(map(id, to_sample), farthest_point_sample(
            to_sample, n_points, [canonical_start(c) for c in to_sample])))
    for key, cloud in misses.items():
        cache[key, n_points] = zero_mean_normalize(cloud)
    return [cache[id(c), n_points] for c in clouds]


def _stack_features(clouds: list[PointCloud]) -> np.ndarray:
    return np.stack([c.features() for c in clouds]).astype(np.float32)


# --------------------------------------------------------------------------
# Training


def train(clouds: list[PointCloud], cfg: TrainConfig,
          val_clouds: list[PointCloud] | None = None,
          log_path=None, num_classes: int | None = None):
    """Train a model over in-memory clouds; returns (model, log rows).

    Each sample per batch: FPS to cfg.n_points, zero-mean normalize, then
    augment with a copy of cfg.augment whose seed is derived from
    (cfg.seed, epoch, sample index) so the run is reproducible regardless
    of iteration order. FPS runs once per batch in the first epoch; later
    epochs reuse the cached samples.
    """
    if not clouds:
        raise ConfigError("empty training set")
    din = clouds[0].din
    if any(c.din != din for c in clouds):
        raise DataError("mixed clouds with and without normals")

    classify = cfg.task == "classify"
    # a cloud's labels: one class id, or one part id per point
    label_of = attrgetter("class_label" if classify else "part_labels")
    what = "class" if classify else "part"
    evaluate = evaluate_classification if classify else evaluate_segmentation
    val_clouds = val_clouds or []
    for split, group in (("training", clouds), ("validation", val_clouds)):
        if any(label_of(c) is None for c in group):
            raise ConfigError(f"{cfg.task} {split} requires {what} labels")
    top = int(max(np.max(label_of(c)) for c in clouds))
    n_out = num_classes if num_classes is not None else top + 1
    if top >= n_out:
        raise ConfigError(f"{what} id {top} >= num_classes {n_out}")
    model_cls, _ = _model_class(cfg.task)
    model = model_cls(din, n_out, k=cfg.k, depth=cfg.encoder_depth,
                      seed=cfg.seed)
    model.extra_meta["train_points"] = cfg.n_points
    opt = Adam(lr=cfg.lr) if cfg.optimizer == "adam" else SGD(lr=cfg.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(0xB0,)))
    fps_cache: dict = {}
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
            prepared = _prepare_batch([clouds[i] for i in idxs],
                                      cfg.n_points, fps_cache)
            batch = [augment(c, replace(cfg.augment, seed=sample_seed(
                cfg.seed, epoch, int(i)))) for c, i in zip(prepared, idxs)]
            x = _stack_features(batch)
            logits = model.forward(x)
            y = np.hstack([label_of(c) for c in batch])
            flat = logits.reshape(-1, logits.shape[-1])
            loss, dflat = softmax_cross_entropy(flat, y)
            correct += int((predict(flat) == y).sum())
            total += len(y)
            if not math.isfinite(loss):
                raise ConfigError(
                    f"non-finite loss {loss} at epoch {epoch}, batch "
                    f"{b0 // cfg.batch_size} (lr {opt.lr:g})")
            model.zero_grads()
            model.backward(dflat.reshape(logits.shape).astype(np.float32))
            opt.step(model.params())
            losses.append(loss)
        train_acc = correct / total
        # instance accuracy: per cloud or, for segmentation, per point
        val_acc = evaluate(model, val_clouds, cfg.n_points).instance_accuracy \
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


def _infer_batches(model, clouds: list[PointCloud], n_points: int,
                   batch_size: int = 32):
    """(prepared clouds, logits) for each batch of up to batch_size."""
    if not clouds:
        raise DataError("no clouds to evaluate")
    for b0 in range(0, len(clouds), batch_size):
        prepared = _prepare_batch(clouds[b0:b0 + batch_size], n_points)
        yield prepared, model.forward(_stack_features(prepared))


def evaluate_classification(model, clouds: list[PointCloud],
                            n_test_points: int) -> MetricsReport:
    """Instance accuracy plus macro-averaged per-class accuracy."""
    t0 = time.perf_counter()
    per_class_total: dict[int, int] = {}
    per_class_correct: dict[int, int] = {}
    correct = 0
    for prepared, logits in _infer_batches(model, clouds, n_test_points):
        for cloud, pred in zip(prepared, predict(logits)):
            y = cloud.class_label
            per_class_total[y] = per_class_total.get(y, 0) + 1
            if pred == y:
                per_class_correct[y] = per_class_correct.get(y, 0) + 1
                correct += 1
    instance = correct / len(clouds)
    class_accs = [per_class_correct.get(c, 0) / t
                  for c, t in per_class_total.items()]
    return MetricsReport(
        instance_accuracy=instance,
        class_accuracy=float(np.mean(class_accs)),
        per_class_counts=per_class_total,
        seconds=time.perf_counter() - t0)


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
    """Shape mIoU averaged per category and (shape-weighted) overall."""
    t0 = time.perf_counter()
    if parts_by_category is None:
        parts_by_category = category_parts(clouds)
    shape_scores: dict[int, list[float]] = {}
    all_scores = []
    correct = 0
    total = 0
    for prepared, logits in _infer_batches(model, clouds, n_points):
        for cloud, cloud_logits in zip(prepared, logits):
            parts = parts_by_category.get(cloud.class_label)
            gt = cloud.part_labels
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
    """evaluate_classification per point count; returns (n, inst, class) rows."""
    rows = []
    for n in counts:
        report = evaluate_classification(model, clouds, n)
        rows.append((n, report.instance_accuracy, report.class_accuracy))
    if out_csv is not None:
        lines = ["n_points,instance_acc,class_acc"]
        lines += [f"{n},{i:.6f},{c:.6f}" for n, i, c in rows]
        Path(out_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows
