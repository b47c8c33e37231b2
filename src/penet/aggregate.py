"""Pooling per-point embeddings into one fixed-length global feature.

The global feature is the columnwise mean of the point embeddings followed
by min-max normalization to [0, 1]. Because min-max normalization is
invariant to positive scaling, summing and averaging give the same
normalized feature; the mean is canonical here.

The models take each cloud's mean in the encoder; ``GlobalPool`` min-max
normalizes the (bs, k) means. The functional ``sum_pool``, ``mean_pool``
and ``min_max_normalize`` work on one cloud; ``min_max_normalize`` runs
the same row math as ``GlobalPool``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, EmptyCloudError


def sum_pool(embeddings: np.ndarray) -> np.ndarray:
    """Columnwise sum over points, (N, k) -> (k,)."""
    if embeddings.shape[0] == 0:
        raise EmptyCloudError("cannot pool an empty point cloud")
    return np.add.reduce(embeddings, axis=0)


def mean_pool(embeddings: np.ndarray) -> np.ndarray:
    """Columnwise mean over points, (N, k) -> (k,)."""
    return sum_pool(embeddings) / embeddings.shape[0]


def _min_max_rows(m: np.ndarray):
    """Rowwise (m - min) / (max - min) of a (bs, k) array; an all-equal row
    maps to all zeros. Returns (out, argmin, argmax, span, degenerate),
    with span set to 1 on the degenerate rows."""
    imin = m.argmin(axis=1)
    imax = m.argmax(axis=1)
    rows = np.arange(m.shape[0])
    lo = m[rows, imin]
    span = m[rows, imax] - lo
    degenerate = span == 0
    span = np.where(degenerate, 1.0, span)
    out = (m - lo[:, None]) / span[:, None]
    out[degenerate] = 0.0
    return out, imin, imax, span, degenerate


def min_max_normalize(v: np.ndarray) -> np.ndarray:
    """(v - min) / (max - min); an all-equal vector maps to all zeros."""
    return _min_max_rows(v.reshape(1, -1))[0].reshape(v.shape)


class GlobalPool:
    """Differentiable rowwise min-max normalize of (bs, k) mean embeddings.

    forward: (bs, k) -> (bs, k). The min/max are non-smooth; backward
    routes their subgradient to the first argmin/argmax element of each
    row, which keeps training deterministic.
    """

    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, m: np.ndarray) -> np.ndarray:
        if m.ndim != 2:
            raise DimensionError(f"expected (bs, k), got {m.shape}")
        out, imin, imax, span, degenerate = _min_max_rows(m)
        self._cache = (imin, imax, span, degenerate, out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        imin, imax, span, degenerate, out = self._cache
        rows = np.arange(len(dout))
        # y_i = (m_i - lo)/(hi - lo):
        #   dm = dy/span;  dm[argmin] -= sum(dy)/span
        #   dm[argmax] -= sum(dy*y)/span;  dm[argmin] += sum(dy*y)/span
        # each update below touches one element per row: no np.add.at needed
        dm = dout / span[:, None]
        s_span = (dout * out).sum(axis=1) / span
        dm[rows, imin] -= dout.sum(axis=1) / span
        dm[rows, imax] -= s_span
        dm[rows, imin] += s_span
        dm[degenerate] = 0.0
        return dm
