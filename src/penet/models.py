"""End-to-end models: one shared body (encoder + global pooling) and a head.

``PENet`` owns the per-point encoder, the ``GlobalPool`` that min-max
normalizes its (bs, k) per-cloud mean embeddings into the global feature,
the task head, the parameter list and the checkpoint metadata.
``Classifier`` and ``Segmenter`` only wire their head: the classifier
reads the global feature as a g x g grid, the segmenter also reads the
encoder's 128-wide hidden layer per point, as the encoder's tap, and
sends that branch's gradient back to the tap.

Each ``backward`` reads the caches of one forward run outside
``numcore.inference()``. Such a forward sets a flag that ``backward``
checks and clears before it touches a gradient, so ``backward`` raises
before any forward, after an inference forward and when it runs twice
after one forward.
``global_features`` is an inference forward: like the classifier's
forward inside the switch it taps nothing, so the encoder streams its
per-point layers (encoder.py).
"""

from __future__ import annotations

import numpy as np

from .aggregate import GlobalPool
from .encoder import Encoder
from .errors import DimensionError
from .heads import ClassHead, SegHead, grid_side, reshape_grid
from .numcore import ParamTensor, inference, inference_enabled


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
        # set by a forward outside numcore.inference(), cleared by backward
        self._fresh = False

    def params(self) -> list[ParamTensor]:
        return self.encoder.params() + self.head.params()

    def named_params(self) -> dict[str, np.ndarray]:
        return {p.name: p.value for p in self.params()}

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()

    def global_features(self, points: np.ndarray) -> np.ndarray:
        """(bs, N, din) -> (bs, k) normalized global features, from an
        inference forward."""
        with inference():
            return self._features(points)

    def _features(self, points: np.ndarray, tap=None) -> np.ndarray:
        """The encoder returns each cloud's mean embedding, and GlobalPool
        min-max normalizes it; ``tap`` goes to the encoder."""
        if points.ndim != 3 or points.shape[2] != self.din:
            raise DimensionError(
                f"{type(self).__name__.lower()} expects (bs, N, {self.din}), "
                f"got {points.shape}")
        # a layer's own check cannot tell stale caches from fresh ones
        self._fresh = not inference_enabled()
        return self.pool.forward(self.encoder.forward(points, tap=tap))

    def backward(self, dlogits: np.ndarray):
        """Backprop the gradient of forward's output into every parameter's
        grad: the head's, then GlobalPool's and the encoder's, with the
        gradient at the encoder's tap when the head reads one."""
        if not self._fresh:
            raise RuntimeError(
                f"{type(self).__name__}.backward after an inference forward, "
                f"global_features, another backward or no forward; run one "
                f"forward outside numcore.inference() before each backward")
        self._fresh = False
        dfeat, d_tapped = self._head_backward(dlogits)
        self.encoder.backward(self.pool.backward(dfeat), d_tapped=d_tapped)

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
        return self.head.forward(reshape_grid(self._features(points)))

    def _head_backward(self, dlogits: np.ndarray):
        """(the global feature's gradient, None): the classifier taps
        nothing."""
        return self.head.backward(dlogits).reshape(-1, self.k), None


class Segmenter(PENet):
    """Point cloud in, per-point part logits out.

    The per-point local feature is the encoder's 128-wide second hidden
    layer, so the encoder depth must be >= 3 (depth 3 is canonical).
    """

    task, out_key = "segment", "num_parts"
    LOCAL_LAYER = 1          # the encoder tap: its hidden layer 2
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
        feat = self._features(points, tap=self.LOCAL_LAYER)
        local = self.encoder.tapped.reshape(*points.shape[:2], self.LOCAL_DIM)
        return self.head.forward(local, feat)

    def _head_backward(self, dlogits: np.ndarray):
        """(the global feature's gradient, the local feature's at the
        encoder's tap)."""
        d_local, d_global = self.head.backward(dlogits)
        return d_global, d_local.reshape(-1, self.LOCAL_DIM)
