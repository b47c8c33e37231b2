"""Decoder heads consuming the global feature.

Classification reshapes the k-dim global feature into a g x g grid
(g = sqrt(k), 32 for the default k=1024) and runs a small 2D CNN over it.
Each conv stage pools before its ReLU, so the ReLU sees a quarter of the
cells; relu(max(x)) = max(relu(x)) exactly, and both orders send the
gradient to the same cell, or only zeros when the window's max is <= 0.
The conv stack's activations and gradients are NCHW views of channels-last
memory (numcore.Conv2d). The only copies between the two orders are at
fc1, whose weight rows are in (c, h, w) order: the flatten before it in
forward, and its input gradient back to channels-last in backward.
Segmentation joins the cloud's global feature with each point's 128-wide
intermediate encoder feature and applies a shared per-point MLP. Its first
layer never builds that join: since concat(g, l) W = g W[:k] + l W[k:]
exactly, the weight's global rows are applied once per cloud and the
result is added to every point's local part.

Each head runs its layers, attributes named ``conv1``, ``fc2``, ..., from
run-order lists, which also give ``params()``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, EmptyCloudError
from .numcore import (Conv2d, Linear, MaxPool2d, ParamTensor, ReLU,
                       backward_layers, for_backward, forward_layers,
                       from_forward, glorot_uniform)


def grid_side(k: int) -> int:
    g = math.isqrt(k)
    if g * g != k:
        raise DimensionError(f"k {k} is not a perfect square")
    return g


def reshape_grid(feature: np.ndarray) -> np.ndarray:
    """(k,) -> (1, g, g), row-major; a pure view, so gradients pass through."""
    g = grid_side(feature.shape[-1])
    return feature.reshape(feature.shape[:-1] + (1, g, g))


def predict(logits: np.ndarray) -> np.ndarray:
    """Argmax over the last axis; ties go to the lowest class index."""
    return np.argmax(logits, axis=-1)


class ClassHead:
    """conv(1->16) + pool + ReLU, conv(16->32) + pool + ReLU, fc 256,
    fc num_classes.

    Pooling before the ReLU gives the bits of ReLU before pooling: where a
    window's max is > 0 both pick its first maximal cell, and where it is
    <= 0 both output +0.0 and pass back only zeros. Those zeros may differ
    in sign, which Conv2d.backward drops by adding them to +0.0.
    """

    def __init__(self, k: int, num_classes: int, rng: np.random.Generator,
                 dtype=np.float32):
        g = grid_side(k)
        if g // 4 < 1:
            raise DimensionError(
                f"k {k} gives a {g}x{g} grid, too small for two 2x2 pools")
        self.k = k
        self.num_classes = num_classes
        self.conv1 = Conv2d(1, 16, 3, rng, pad=1, name="head.conv1", dtype=dtype)
        self.relu1 = ReLU()
        self.pool1 = MaxPool2d(2)
        self.conv2 = Conv2d(16, 32, 3, rng, pad=1, name="head.conv2", dtype=dtype)
        self.relu2 = ReLU()
        self.pool2 = MaxPool2d(2)
        self._conv_out = (32, g // 4, g // 4)
        self.fc1 = Linear(math.prod(self._conv_out), 256, rng, name="head.fc1",
                          dtype=dtype)
        self.relu3 = ReLU()
        self.fc2 = Linear(256, num_classes, rng, name="head.fc2", dtype=dtype)
        # run order; set after the attributes, because bench/spans.py names a
        # layer by the first attribute that holds it
        self.convs = [self.conv1, self.pool1, self.relu1,
                      self.conv2, self.pool2, self.relu2]
        self.fcs = [self.fc1, self.relu3, self.fc2]

    def params(self) -> list[ParamTensor]:
        return [p for layer in self.convs + self.fcs for p in layer.params()]

    def forward(self, grid: np.ndarray) -> np.ndarray:
        """(bs, 1, g, g) -> (bs, num_classes)."""
        h = forward_layers(self.convs, grid)
        return forward_layers(self.fcs, h.reshape(len(h), -1))

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        g = backward_layers(self.fcs, dlogits)
        # back to channels-last, the order of the activations it meets
        g = g.reshape(len(g), *self._conv_out).transpose(0, 2, 3, 1)
        return backward_layers(self.convs,
                               np.ascontiguousarray(g).transpose(0, 3, 1, 2))


class SplitLinear:
    """concat(global, local) @ w + b with the global feature repeated to
    every point, computed without the repeat or the concat.

    One (k + local_dim, dout) weight, as for a Linear over the joined
    feature; its first k rows act on the (bs, k) global feature once per
    cloud, the rest on the (bs, N, local_dim) local features. The per-cloud
    rows are added in place into the per-point product.
    """

    def __init__(self, k: int, local_dim: int, dout: int,
                 rng: np.random.Generator, name: str, dtype=np.float32):
        din = k + local_dim
        self.k = k
        self.w = ParamTensor(f"{name}.w",
                             glorot_uniform(rng, din, dout, (din, dout), dtype))
        self.b = ParamTensor(f"{name}.b", np.zeros(dout, dtype=dtype))
        self._local: np.ndarray | None = None
        self._glob: np.ndarray | None = None

    def params(self) -> list[ParamTensor]:
        return [self.w, self.b]

    def forward(self, local: np.ndarray, glob: np.ndarray) -> np.ndarray:
        """(bs, N, local_dim) + (bs, k) -> (bs, N, dout)."""
        bs, n, d = local.shape
        self._local, self._glob = for_backward(local), for_backward(glob)
        w = self.w.value
        per_point = (local.reshape(bs * n, d) @ w[self.k:]).reshape(bs, n, -1)
        per_point += (glob @ w[:self.k] + self.b.value)[:, None, :]
        return per_point

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bs, N, dout) -> (d_local (bs, N, local_dim), d_global (bs, k))."""
        local = from_forward(self._local)
        bs, n, d = local.shape
        w, k = self.w.value, self.k
        flat = dout.reshape(bs * n, -1)
        per_cloud = dout.sum(axis=1)
        self.w.grad[:k] += self._glob.T @ per_cloud
        self.w.grad[k:] += local.reshape(bs * n, d).T @ flat
        self.b.grad += per_cloud.sum(axis=0)
        return (flat @ w[k:].T).reshape(bs, n, d), per_cloud @ w[:k].T


class SegHead:
    """Shared per-point MLP over concat(global feature, local feature);
    the first layer is a SplitLinear, so the concat is never built."""

    def __init__(self, k: int, local_dim: int, num_parts: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.k = k
        self.local_dim = local_dim
        self.num_parts = num_parts
        self.fc1 = SplitLinear(k, local_dim, 256, rng, name="seg.fc1",
                               dtype=dtype)
        self.relu1 = ReLU()
        self.fc2 = Linear(256, 128, rng, name="seg.fc2", dtype=dtype)
        self.relu2 = ReLU()
        self.fc3 = Linear(128, num_parts, rng, name="seg.fc3", dtype=dtype)
        # run order after fc1, which takes two inputs and gives two grads
        self.per_point = [self.relu1, self.fc2, self.relu2, self.fc3]

    def params(self) -> list[ParamTensor]:
        return [p for layer in [self.fc1] + self.per_point
                for p in layer.params()]

    def forward(self, point_feats: np.ndarray, global_feat: np.ndarray
                ) -> np.ndarray:
        """(bs, N, local_dim) + (bs, k) -> (bs, N, num_parts)."""
        bs, n, d = point_feats.shape
        if n == 0:
            raise EmptyCloudError("cannot segment an empty point cloud")
        if d != self.local_dim or global_feat.shape != (bs, self.k):
            raise DimensionError(
                f"seg head wants local ({bs}, N, {self.local_dim}) and global "
                f"({bs}, {self.k}); got {point_feats.shape}, {global_feat.shape}")
        h = self.fc1.forward(point_feats, global_feat).reshape(bs * n, -1)
        return forward_layers(self.per_point, h).reshape(bs, n, -1)

    def backward(self, dlogits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (d_point_feats (bs, N, local_dim), d_global (bs, k))."""
        bs, n = dlogits.shape[:2]
        g = backward_layers(self.per_point, dlogits.reshape(bs * n, -1))
        return self.fc1.backward(g.reshape(bs, n, -1))
