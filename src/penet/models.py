"""End-to-end models: encoder + global pooling + task head."""

from __future__ import annotations

import numpy as np

from .aggregate import GlobalPool
from .encoder import Encoder
from .errors import DimensionError
from .heads import ClassHead, SegHead, grid_side, reshape_grid
from .numcore import ParamTensor


def _pooled_features(model, points: np.ndarray) -> np.ndarray:
    """(bs, N, din) -> (bs, k) normalized global features.

    The encoder returns each cloud's mean embedding; GlobalPool then sees a
    length-1 point axis, whose mean is exact, and min-max normalizes it.
    """
    if points.ndim != 3 or points.shape[2] != model.din:
        raise DimensionError(
            f"{type(model).__name__.lower()} expects (bs, N, {model.din}), "
            f"got {points.shape}")
    return model.pool.forward(model.encoder.forward(points)[:, None, :])


class Classifier:
    """Point cloud in, class logits out."""

    task = "classify"

    def __init__(self, din: int, num_classes: int, k: int = 1024,
                 depth: int = 3, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.din, self.k, self.depth = din, k, depth
        self.num_classes = num_classes
        self.encoder = Encoder(din, k=k, depth=depth, rng=rng, dtype=dtype)
        self.pool = GlobalPool()
        self.head = ClassHead(k, num_classes, rng, dtype=dtype)
        self.extra_meta: dict = {}

    def params(self) -> list[ParamTensor]:
        return self.encoder.params() + self.head.params()

    def named_params(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def forward(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, num_classes)."""
        return self.head.forward(reshape_grid(self.global_features(points)))

    def global_features(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, k) normalized global features."""
        return _pooled_features(self, points)

    def backward(self, dlogits: np.ndarray):
        dgrid = self.head.backward(dlogits)
        dfeat = self.pool.backward(dgrid.reshape(-1, self.k))
        self.encoder.backward(dfeat[:, 0])

    def metadata(self) -> dict:
        return {
            "task": self.task,
            "din": self.din,
            "k": self.k,
            "g": grid_side(self.k),
            "encoder_depth": self.depth,
            "num_classes": self.num_classes,
            **self.extra_meta,
        }


class Segmenter:
    """Point cloud in, per-point part logits out.

    The per-point local feature is the encoder's 128-wide second hidden
    layer, so the encoder depth must be >= 3 (depth 3 is canonical).
    """

    task = "segment"
    LOCAL_LAYER = 1          # index into encoder hidden activations
    LOCAL_DIM = 128

    def __init__(self, din: int, num_parts: int, k: int = 1024,
                 depth: int = 3, seed: int = 0, dtype=np.float32):
        if depth < 3:
            raise ValueError("segmentation needs the 128-wide hidden layer "
                             "(encoder depth >= 3)")
        rng = np.random.default_rng(seed)
        self.din, self.k, self.depth = din, k, depth
        self.num_parts = num_parts
        self.encoder = Encoder(din, k=k, depth=depth, rng=rng, dtype=dtype)
        self.pool = GlobalPool()
        self.head = SegHead(k, self.LOCAL_DIM, num_parts, rng, dtype=dtype)
        self.extra_meta: dict = {}

    def params(self) -> list[ParamTensor]:
        return self.encoder.params() + self.head.params()

    def named_params(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def forward(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, N, num_parts)."""
        feat = _pooled_features(self, points)
        local = self.encoder.hidden(self.LOCAL_LAYER).reshape(
            *points.shape[:2], self.LOCAL_DIM)
        return self.head.forward(local, feat)

    def backward(self, dlogits: np.ndarray):
        d_local, d_global = self.head.backward(dlogits)
        dfeat = self.pool.backward(d_global)
        self.encoder.backward(
            dfeat[:, 0],
            hidden_grads={self.LOCAL_LAYER: d_local.reshape(-1, self.LOCAL_DIM)})

    def metadata(self) -> dict:
        return {
            "task": self.task,
            "din": self.din,
            "k": self.k,
            "g": grid_side(self.k),
            "encoder_depth": self.depth,
            "num_parts": self.num_parts,
            **self.extra_meta,
        }
