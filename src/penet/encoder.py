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

Training caches every hidden activation for backward. A forward that only
needs the output streams instead: the layers before the last run over
blocks of whole clouds, at most STREAM_ROWS rows or one cloud each, and
only each cloud's mean is kept. A row's products and a cloud's mean are
the same computations in a block as in the whole batch, so the output
bits are too; each block's activations are small enough to stay in cache.
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

# rows per block of whole clouds in a streamed forward
STREAM_ROWS = 2048


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
        self._streamed = False

    def params(self) -> list[ParamTensor]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, stream: bool = False) -> np.ndarray:
        """Embed m points, (m, din) -> (m, k), or pool bs clouds,
        (bs, N, din) -> (bs, k) mean embeddings.

        Hidden activations are cached per point as (m, width) or
        (bs*N, width); ``hidden(i)`` exposes the post-ReLU output of layer
        i+1 (the 128-wide layer-2 output feeds the segmentation head).
        With ``stream``, a pooled batch runs its hidden layers block by
        block and keeps no activations, so ``hidden`` and ``backward``
        raise until the next forward without it.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.din:
            raise DimensionError(
                f"encoder expects (m, {self.din}) or (bs, N, {self.din}), "
                f"got {x.shape}")
        if x.ndim == 3 and x.shape[1] == 0:
            raise EmptyCloudError("cannot pool an empty point cloud")
        self._pooled = x.shape[:2] if x.ndim == 3 else None
        self._streamed = stream and self._pooled is not None
        if self._streamed:
            step = max(1, STREAM_ROWS // x.shape[1])
            h = np.concatenate([self._point_mean(x[c:c + step])
                                for c in range(0, len(x), step)])
        elif self._pooled is not None:
            h = self._point_mean(x)
        else:
            h = self._hidden_layers(x)
        return self.layers[-1].forward(h)

    def _hidden_layers(self, x: np.ndarray) -> np.ndarray:
        """The layers before the last, each with its ReLU, over the points
        of x as (rows, din); every output is kept in ``_hidden``."""
        h = x.reshape(-1, self.din)
        self._hidden = []
        for layer, relu in zip(self.layers, self.relus):
            h = relu.forward(layer.forward(h))
            self._hidden.append(h)
        return h

    def _point_mean(self, x: np.ndarray) -> np.ndarray:
        """(c, N, din) clouds -> (c, width) mean last hidden activation."""
        return self._hidden_layers(x).reshape(*x.shape[:2], -1).mean(axis=1)

    def check_cached(self, what: str):
        """Raise if the last forward streamed and kept no activations."""
        if self._streamed:
            raise RuntimeError(
                f"{what} after an inference forward, which keeps no "
                f"per-point activations; run forward outside "
                f"numcore.inference() first")

    def hidden(self, index: int) -> np.ndarray:
        self.check_cached(f"Encoder.hidden({index})")
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
        self.check_cached("Encoder.backward")
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
