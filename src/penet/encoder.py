"""Per-point encoder: maps each point independently to a k-dim embedding.

The canonical encoder is three affine layers (din -> 64 -> 128 -> k) with
ReLU between layers and a linear final output. No ReLU follows the last
layer, so mean(h W + b) = mean(h) W + b exactly: the layers before the last
run over a block of clouds flattened to one (rows, din) matrix, each
cloud's last hidden activation is averaged, and the last layer maps one
row per cloud, so the (bs*N, k) embedding matrix is never built. A (m, din)
batch is m one-point clouds, whose means are their rows.

Training takes the whole batch as one block and keeps every hidden
activation for backward. A forward that only needs the output streams:
blocks of whole clouds, at most STREAM_ROWS rows or one cloud each, keep
only each cloud's mean. A row's products and a cloud's mean are the same
computations in a block as in the whole batch, so the output bits are too;
each block's activations are small enough to stay in cache. Inside
``numcore.inference()`` the layers keep no backward caches either, streamed
or not, so ``backward`` raises until the next forward outside it, and each
Linear adds its bias in place, one array per layer per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyCloudError, LayoutError
from .numcore import Linear, ParamTensor, ReLU, inference_enabled

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
        self._hidden: list[np.ndarray] | None = []
        self._n_points = 1

    def params(self) -> list[ParamTensor]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, stream: bool = False) -> np.ndarray:
        """Pool bs clouds, (bs, N, din) -> (bs, k) mean embeddings, or embed
        m points, (m, din) -> (m, k), as m one-point clouds.

        The hidden layers run over the whole batch as one block and keep
        their activations per point as (bs*N, width); ``hidden(i)`` is the
        post-ReLU output of layer i+1 (the 128-wide layer-2 output feeds
        the segmentation head). With ``stream``, a forward inside
        ``numcore.inference()`` runs them block by block and keeps nothing,
        so ``hidden`` raises until the next forward that does not stream.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.din:
            raise DimensionError(
                f"encoder expects (m, {self.din}) or (bs, N, {self.din}), "
                f"got {x.shape}")
        if 0 in x.shape[:-1]:
            raise EmptyCloudError("cannot embed an empty batch or cloud")
        x = x.reshape(len(x), -1, self.din)          # (m, din) -> (m, 1, din)
        bs, n = x.shape[:2]
        self._n_points = n
        stream = stream and inference_enabled()
        step = max(1, STREAM_ROWS // n) if stream else bs
        h = np.concatenate([self._point_mean(x[c:c + step], keep=not stream)
                            for c in range(0, bs, step)])
        return self.layers[-1].forward(h)

    def _point_mean(self, x: np.ndarray, keep: bool) -> np.ndarray:
        """(c, N, din) clouds -> (c, width) mean last hidden activation:
        the layers before the last, each with its ReLU, over the points as
        (c*N, din) rows; with ``keep``, every output is kept in
        ``_hidden``."""
        h = x.reshape(-1, self.din)
        # drop the last forward's activations before making new ones
        self._hidden = [] if keep else None
        for layer, relu in zip(self.layers, self.relus):
            h = relu.forward(layer.forward(h))
            if keep:
                self._hidden.append(h)
        return h.reshape(*x.shape[:2], -1).mean(axis=1)

    def hidden(self, index: int) -> np.ndarray:
        if self._hidden is None:
            raise RuntimeError(
                f"Encoder.hidden({index}) after an inference forward, which "
                f"keeps no per-point activations; run forward outside "
                f"numcore.inference() first")
        return self._hidden[index]

    def backward(self, dout: np.ndarray,
                 hidden_grads: dict[int, np.ndarray] | None = None) -> np.ndarray:
        """Backprop through the stack; returns the gradient w.r.t. the input
        flattened to (bs*N, din), or (m, din) after a (m, din) forward.

        ``dout`` is (bs, k), and the gradient of each cloud's mean reaches
        each of its N points divided by N (exactly itself at N = 1).
        ``hidden_grads`` injects extra per-point gradient at cached hidden
        outputs (segmentation taps the layer-2 features directly, so that
        branch's gradient is added in place into the main path's here).
        """
        g = self.layers[-1].backward(dout)
        g = np.repeat(g / self._n_points, self._n_points, axis=0)
        for i in range(len(self.relus) - 1, -1, -1):
            if hidden_grads and i in hidden_grads:
                g += hidden_grads[i]
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
