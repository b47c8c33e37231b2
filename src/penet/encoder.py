"""Per-point encoder: maps each point independently to a k-dim embedding.

The canonical encoder is three affine layers (din -> 64 -> 128 -> k) with
ReLU between layers and a linear final output. Because each point is mapped
independently, a whole batch of clouds is flattened to one (bs*N, din)
matrix and embedded in a single fused forward pass.

The models only need each cloud's mean embedding. No ReLU follows the last
layer, so it is affine and mean(h W + b) = mean(h) W + b exactly: given a
(bs, N, din) batch, the encoder averages the last hidden activation over
each cloud's points and applies the last layer to one row per cloud, so the
(bs*N, k) embedding matrix is never built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyCloudError, LayoutError
from .numcore import Linear, ParamTensor, ReLU

# hidden widths per depth; the last layer always maps to k
_DEPTH_WIDTHS = {
    1: [],
    2: [128],
    3: [64, 128],
    4: [64, 128, 256],
    5: [64, 128, 256, 512],
}


@dataclass(frozen=True)
class BatchLayout:
    """How a flat (m, ·) matrix decomposes into bs clouds of N points."""

    bs: int
    n_points: int

    @property
    def m(self) -> int:
        return self.bs * self.n_points

    def check(self, rows: int):
        if rows != self.m:
            raise LayoutError(
                f"flat batch has {rows} rows but layout is "
                f"{self.bs} clouds x {self.n_points} points = {self.m}")


class Encoder:
    """The point embedding network f: R^din -> R^k."""

    def __init__(self, din: int, k: int = 1024, depth: int = 3,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if depth not in _DEPTH_WIDTHS:
            raise ValueError(f"encoder depth must be 1..5, got {depth}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.din, self.k, self.depth = din, k, depth
        widths = [din] + _DEPTH_WIDTHS[depth] + [k]
        self.layers: list[Linear] = [
            Linear(widths[i], widths[i + 1], rng, name=f"encoder.layer{i + 1}",
                   dtype=dtype)
            for i in range(len(widths) - 1)
        ]
        self.relus = [ReLU() for _ in range(len(self.layers) - 1)]
        self._hidden: list[np.ndarray] = []
        self._pooled: tuple[int, int] | None = None

    def params(self) -> list[ParamTensor]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Embed m points, (m, din) -> (m, k), or pool bs clouds,
        (bs, N, din) -> (bs, k) mean embeddings.

        Hidden activations are cached per point as (m, width) or
        (bs*N, width); ``hidden(i)`` exposes the post-ReLU output of layer
        i+1 (the 128-wide layer-2 output feeds the segmentation head).
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.din:
            raise DimensionError(
                f"encoder expects (m, {self.din}) or (bs, N, {self.din}), "
                f"got {x.shape}")
        if x.ndim == 3 and x.shape[1] == 0:
            raise EmptyCloudError("cannot pool an empty point cloud")
        self._pooled = x.shape[:2] if x.ndim == 3 else None
        self._hidden = []
        h = x.reshape(-1, self.din)
        for layer, relu in zip(self.layers, self.relus):
            h = relu.forward(layer.forward(h))
            self._hidden.append(h)
        if self._pooled is not None:
            h = h.reshape(*self._pooled, -1).mean(axis=1)
        return self.layers[-1].forward(h)

    def hidden(self, index: int) -> np.ndarray:
        return self._hidden[index]

    def backward(self, dout: np.ndarray,
                 hidden_grads: dict[int, np.ndarray] | None = None) -> np.ndarray:
        """Backprop through the stack; returns the gradient w.r.t. the input
        flattened to (m, din) or (bs*N, din).

        After a pooled forward, ``dout`` is (bs, k) and the gradient of each
        cloud's mean reaches each of its N points divided by N.
        ``hidden_grads`` injects extra per-point gradient at cached hidden
        outputs (segmentation taps the layer-2 features directly, so that
        branch's gradient joins the main path here).
        """
        g = self.layers[-1].backward(dout)
        if self._pooled is not None:
            g = np.repeat(g / self._pooled[1], self._pooled[1], axis=0)
        for i in range(len(self.relus) - 1, -1, -1):
            if hidden_grads and i in hidden_grads:
                g = g + hidden_grads[i]
            g = self.layers[i].backward(self.relus[i].backward(g))
        return g


def embed_point(p: np.ndarray, encoder: Encoder) -> np.ndarray:
    """Embed a single point: (din,) -> (k,)."""
    p = np.asarray(p)
    if p.shape != (encoder.din,):
        raise DimensionError(f"point has {p.shape}, encoder wants ({encoder.din},)")
    return encoder.forward(p[None, :])[0]


def embed_batch(points: np.ndarray, layout: BatchLayout, encoder: Encoder
                ) -> np.ndarray:
    """Fused embedding of bs clouds: one (m, din) forward instead of m."""
    layout.check(points.shape[0])
    return encoder.forward(points)
