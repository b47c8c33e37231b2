"""End-to-end models: one shared body (encoder + global pooling) and a head.

``PENet`` owns the per-point encoder, the ``GlobalPool`` that min-max
normalizes its (bs, k) per-cloud mean embeddings into the global feature,
the task head, the parameter list and the checkpoint metadata.
``Classifier`` and ``Segmenter`` only wire their head: the classifier
reads the global feature as a g x g grid, the segmenter also taps the
encoder's 128-wide hidden layer per point.

Inside ``numcore.inference()`` no layer keeps a backward cache, and the
classifier and ``global_features`` let the encoder stream its per-point
layers (encoder.py). The segmenter never streams: its head reads every
point's hidden feature in the same forward. After an inference forward,
or after a ``global_features`` call, which leaves the head's caches from
an earlier batch, either model's ``backward`` raises before it touches a
gradient.
"""

from __future__ import annotations

import numpy as np

from .aggregate import GlobalPool
from .encoder import Encoder
from .errors import DimensionError
from .heads import ClassHead, SegHead, grid_side, reshape_grid
from .numcore import ParamTensor, inference_enabled


class PENet:
    """Encoder, GlobalPool and a task head over (bs, N, din) batches.

    ``out_key`` names the output count, both as an attribute and in the
    checkpoint metadata. The feature length k must be a perfect square,
    checked here for both tasks because the metadata records g = sqrt(k).
    """

    task: str
    out_key: str

    def __init__(self, din: int, n_out: int, k: int, depth: int, seed: int,
                 dtype, make_head):
        self.g = grid_side(k)
        rng = np.random.default_rng(seed)
        self.din, self.k, self.depth = din, k, depth
        setattr(self, self.out_key, n_out)
        self.encoder = Encoder(din, k=k, depth=depth, rng=rng, dtype=dtype)
        self.pool = GlobalPool()
        self.head = make_head(rng)
        self.extra_meta: dict = {}
        # the call after which backward cannot run, or None when it can
        self._stale: str | None = None

    def params(self) -> list[ParamTensor]:
        return self.encoder.params() + self.head.params()

    def named_params(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def global_features(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, k) normalized global features; streamed
        inside ``numcore.inference()``. The head's caches stay those of an
        earlier forward, so ``backward`` raises until the next forward."""
        feat = self._features(points, stream=True)
        self._stale = self._stale or "global_features"
        return feat

    def _features(self, points: np.ndarray, stream: bool) -> np.ndarray:
        """The encoder returns each cloud's mean embedding, and GlobalPool
        min-max normalizes it."""
        if points.ndim != 3 or points.shape[2] != self.din:
            raise DimensionError(
                f"{type(self).__name__.lower()} expects (bs, N, {self.din}), "
                f"got {points.shape}")
        # a layer's own check cannot tell stale caches from fresh ones
        self._stale = "an inference forward" if inference_enabled() else None
        return self.pool.forward(self.encoder.forward(points, stream=stream))

    def _check_backward(self):
        if self._stale:
            raise RuntimeError(
                f"{type(self).__name__}.backward after {self._stale}, which "
                f"leaves the model without one forward's caches; run forward "
                f"outside numcore.inference() first")

    def _backward_features(self, dfeat: np.ndarray, hidden_grads=None):
        """Backprop a (bs, k) global-feature gradient to the encoder."""
        self.encoder.backward(self.pool.backward(dfeat),
                              hidden_grads=hidden_grads)

    def metadata(self) -> dict:
        return {
            "task": self.task,
            "din": self.din,
            "k": self.k,
            "g": self.g,
            "encoder_depth": self.depth,
            self.out_key: getattr(self, self.out_key),
            **self.extra_meta,
        }


class Classifier(PENet):
    """Point cloud in, class logits out."""

    task, out_key = "classify", "num_classes"

    def __init__(self, din: int, num_classes: int, k: int = 1024,
                 depth: int = 3, seed: int = 0, dtype=np.float32):
        super().__init__(din, num_classes, k, depth, seed, dtype,
                         lambda rng: ClassHead(k, num_classes, rng, dtype=dtype))

    def forward(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, num_classes)."""
        feat = self._features(points, stream=True)
        return self.head.forward(reshape_grid(feat))

    def backward(self, dlogits: np.ndarray):
        self._check_backward()
        self._backward_features(self.head.backward(dlogits).reshape(-1, self.k))


class Segmenter(PENet):
    """Point cloud in, per-point part logits out.

    The per-point local feature is the encoder's 128-wide second hidden
    layer, so the encoder depth must be >= 3 (depth 3 is canonical).
    """

    task, out_key = "segment", "num_parts"
    LOCAL_LAYER = 1          # index into encoder hidden activations
    LOCAL_DIM = 128

    def __init__(self, din: int, num_parts: int, k: int = 1024,
                 depth: int = 3, seed: int = 0, dtype=np.float32):
        if depth < 3:
            raise ValueError("segmentation needs the 128-wide hidden layer "
                             "(encoder depth >= 3)")
        super().__init__(din, num_parts, k, depth, seed, dtype,
                         lambda rng: SegHead(k, self.LOCAL_DIM, num_parts, rng,
                                             dtype=dtype))

    def forward(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, N, num_parts)."""
        feat = self._features(points, stream=False)
        local = self.encoder.hidden(self.LOCAL_LAYER).reshape(
            *points.shape[:2], self.LOCAL_DIM)
        return self.head.forward(local, feat)

    def backward(self, dlogits: np.ndarray):
        self._check_backward()
        d_local, d_global = self.head.backward(dlogits)
        self._backward_features(d_global, hidden_grads={
            self.LOCAL_LAYER: d_local.reshape(-1, self.LOCAL_DIM)})
