"""Training loops, evaluation metrics and checkpoint persistence."""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (AugmentConfig, PointCloud, augment, farthest_point_sample,
                   sample_seed, zero_mean_normalize)
from .errors import ConfigError, DataError, FormatError, SamplingError
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


def _read(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"checkpoint truncated while reading {what}")
    return buf


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
    """Rebuild a model purely from the file's metadata and arrays."""
    with open(path, "rb") as f:
        magic = _read(f, len(CHECKPOINT_MAGIC), "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read(f, 4, "metadata length"))
        meta = json.loads(_read(f, meta_len, "metadata").decode("utf-8"))
        (count,) = struct.unpack("<I", _read(f, 4, "array count"))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read(f, 4, "name length"))
            name = _read(f, nlen, "name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read(f, 4, f"{name} rank"))
            shape = struct.unpack(f"<{rank}I", _read(f, 4 * rank, f"{name} dims"))
            n_bytes = int(np.prod(shape, dtype=np.int64)) * 4
            arrays[name] = np.frombuffer(
                _read(f, n_bytes, f"{name} payload"),
                dtype="<f4").reshape(shape).copy()

    if not isinstance(meta, dict):
        raise FormatError("checkpoint metadata is not a JSON object")
    task = meta.get("task")
    if task == "classify":
        model_cls, n_out_key = Classifier, "num_classes"
    elif task == "segment":
        model_cls, n_out_key = Segmenter, "num_parts"
    else:
        raise FormatError(f"unknown task {task!r} in checkpoint metadata")
    din, n_out, k, depth = _meta_ints(meta, "din", n_out_key, "k",
                                      "encoder_depth")
    model = model_cls(din, n_out, k=k, depth=depth)
    model.loaded_meta = meta
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


def _prepare_cloud(cloud: PointCloud, n_points: int, cache: dict | None = None
                   ) -> PointCloud:
    """FPS to a fixed size, then center and scale to the unit sphere.

    FPS from a fixed start index is deterministic, so results are cached
    per (cloud, n) when a cache dict is supplied.
    """
    key = (id(cloud), n_points)
    if cache is not None and key in cache:
        return cache[key]
    sampled = cloud if len(cloud) == n_points else \
        farthest_point_sample(cloud, n_points)
    prepared = zero_mean_normalize(sampled)
    if cache is not None:
        cache[key] = prepared
    return prepared


def _stack_features(clouds: list[PointCloud]) -> np.ndarray:
    return np.stack([c.features() for c in clouds]).astype(np.float32)


# --------------------------------------------------------------------------
# Training


def train(clouds: list[PointCloud], cfg: TrainConfig,
          val_clouds: list[PointCloud] | None = None,
          log_path=None, num_classes: int | None = None):
    """Train a model over in-memory clouds; returns (model, log rows).

    Each sample per batch: FPS to cfg.n_points, zero-mean normalize, then
    augment with a seed derived from (cfg.seed, epoch, sample index) so the
    run is reproducible regardless of iteration order.
    """
    if not clouds:
        raise ConfigError("empty training set")
    din = clouds[0].din
    if any(c.din != din for c in clouds):
        raise DataError("mixed clouds with and without normals")

    if cfg.task == "classify":
        labels = [c.class_label for c in clouds]
        if any(l is None for l in labels):
            raise ConfigError("classification requires class labels")
        n_out = num_classes if num_classes is not None else max(labels) + 1
        if max(labels) >= n_out:
            raise ConfigError(f"class id {max(labels)} >= num_classes {n_out}")
        model = Classifier(din, n_out, k=cfg.k, depth=cfg.encoder_depth,
                           seed=cfg.seed)
    else:
        if any(c.part_labels is None for c in clouds):
            raise ConfigError("segmentation requires part labels")
        n_out = num_classes if num_classes is not None else \
            int(max(c.part_labels.max() for c in clouds)) + 1
        if val_clouds and any(c.part_labels is None for c in val_clouds):
            raise ConfigError("segmentation validation requires part labels")
        model = Segmenter(din, n_out, k=cfg.k, depth=cfg.encoder_depth,
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
            batch = []
            for i in idxs:
                prepared = _prepare_cloud(clouds[i], cfg.n_points, fps_cache)
                aug = AugmentConfig(
                    jitter_sigma=cfg.augment.jitter_sigma,
                    jitter_clip=cfg.augment.jitter_clip,
                    shift_range=cfg.augment.shift_range,
                    scale_range=cfg.augment.scale_range,
                    seed=sample_seed(cfg.seed, epoch, int(i)))
                batch.append(augment(prepared, aug))
            x = _stack_features(batch)
            logits = model.forward(x)
            if cfg.task == "classify":
                y = np.array([c.class_label for c in batch])
                loss, dlogits = softmax_cross_entropy(logits, y)
                correct += int((predict(logits) == y).sum())
                total += len(y)
            else:
                y = np.concatenate([c.part_labels for c in batch])
                flat = logits.reshape(-1, logits.shape[-1])
                loss, dflat = softmax_cross_entropy(flat, y)
                dlogits = dflat.reshape(logits.shape)
                correct += int((predict(flat) == y).sum())
                total += len(y)
            if not math.isfinite(loss):
                raise ConfigError(
                    f"non-finite loss {loss} at epoch {epoch}, batch "
                    f"{b0 // cfg.batch_size} (lr {opt.lr:g})")
            model.zero_grads()
            model.backward(dlogits.astype(np.float32))
            opt.step(model.params())
            losses.append(loss)
        train_acc = correct / total
        if not val_clouds:
            val_acc = float("nan")
        elif cfg.task == "classify":
            val_acc = evaluate_classification(
                model, val_clouds, cfg.n_points).instance_accuracy
        else:       # per-point accuracy
            val_acc = evaluate_segmentation(
                model, val_clouds, cfg.n_points).instance_accuracy
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
    for b0 in range(0, len(clouds), batch_size):
        batch = clouds[b0:b0 + batch_size]
        for c in batch:
            if n_points > len(c):
                raise SamplingError(
                    f"cannot sample {n_points} points from a cloud of {len(c)}")
        prepared = [_prepare_cloud(c, n_points) for c in batch]
        yield batch, model.forward(_stack_features(prepared))


def evaluate_classification(model, clouds: list[PointCloud],
                            n_test_points: int) -> MetricsReport:
    """Instance accuracy plus macro-averaged per-class accuracy."""
    t0 = time.perf_counter()
    per_class_total: dict[int, int] = {}
    per_class_correct: dict[int, int] = {}
    correct = 0
    for batch, logits in _infer_batches(model, clouds, n_test_points):
        preds = predict(logits)
        for cloud, pred in zip(batch, preds):
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
    for cloud in clouds:
        prepared = _prepare_cloud(cloud, n_points)
        parts = parts_by_category.get(cloud.class_label)
        if parts is None or any(l not in parts for l in
                                np.unique(prepared.part_labels)):
            raise DataError(
                f"ground-truth part label outside category "
                f"{cloud.class_label} part set {parts}")
        logits = model.forward(_stack_features([prepared]))[0]
        pred = predict(logits)
        gt = prepared.part_labels
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
