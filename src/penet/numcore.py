"""Dense array layers, losses and optimizers.

Everything here operates on plain numpy arrays. Training runs in float32;
float64 is used only when verifying gradients against finite differences.
All layers follow the same protocol: ``forward(x)`` caches what backward
needs, ``backward(dout)`` returns the gradient w.r.t. the input and
accumulates parameter gradients in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


@dataclass
class ParamTensor:
    """A named weight array paired with its gradient buffer."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)

    def __post_init__(self):
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Linear:
    """Affine map on the last axis: out = x @ w + b."""

    def __init__(self, din: int, dout: int, rng: np.random.Generator,
                 name: str = "linear", dtype=np.float32):
        self.din = din
        self.dout = dout
        self.w = ParamTensor(f"{name}.w", glorot_uniform(rng, din, dout, (din, dout), dtype))
        self.b = ParamTensor(f"{name}.b", np.zeros(dout, dtype=dtype))
        self._x: np.ndarray | None = None

    def params(self) -> list[ParamTensor]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.din:
            raise DimensionError(
                f"linear expects (n, {self.din}), got {x.shape} against weights "
                f"{self.w.value.shape}")
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.w.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T


class ReLU:
    def __init__(self):
        self._mask: np.ndarray | None = None

    def params(self) -> list[ParamTensor]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, x.dtype.type(0))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return dout * self._mask


def _im2col(x_pad: np.ndarray, kh: int, kw: int, oh: int, ow: int
            ) -> np.ndarray:
    # (n, c, hp, wp) -> (n, oh, ow, c*kh*kw)
    win = np.lib.stride_tricks.sliding_window_view(x_pad, (kh, kw), axis=(2, 3))
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(x_pad.shape[0], oh, ow, -1)


class Conv2d:
    """2D cross-correlation with stride 1 and zero padding, NCHW layout."""

    def __init__(self, cin: int, cout: int, ksize: int, rng: np.random.Generator,
                 pad: int = 0, name: str = "conv", dtype=np.float32):
        self.cin, self.cout, self.ksize = cin, cout, ksize
        self.pad = pad
        fan_in = cin * ksize * ksize
        fan_out = cout * ksize * ksize
        self.w = ParamTensor(
            f"{name}.w", glorot_uniform(rng, fan_in, fan_out, (cout, cin, ksize, ksize), dtype))
        self.b = ParamTensor(f"{name}.b", np.zeros(cout, dtype=dtype))
        self._cols: np.ndarray | None = None
        self._xshape: tuple[int, ...] | None = None

    def params(self) -> list[ParamTensor]:
        return [self.w, self.b]

    def _out_hw(self, h: int, w: int) -> tuple[int, int]:
        k, p = self.ksize, self.pad
        oh = h + 2 * p - k + 1
        ow = w + 2 * p - k + 1
        if oh < 1 or ow < 1:
            raise DimensionError(
                f"conv kernel {k}x{k} (pad {p}) exceeds input {h}x{w}")
        return oh, ow

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.cin:
            raise DimensionError(
                f"conv expects (n, {self.cin}, h, w), got {x.shape}")
        n, _, h, w = x.shape
        oh, ow = self._out_hw(h, w)
        p = self.pad
        x_pad = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        cols = _im2col(x_pad, self.ksize, self.ksize, oh, ow)
        self._cols = cols
        self._xshape = x.shape
        wmat = self.w.value.reshape(self.cout, -1)       # (cout, cin*k*k)
        out = cols @ wmat.T + self.b.value               # (n, oh, ow, cout)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cols is None or self._xshape is None:
            raise RuntimeError("backward called before forward")
        n, _, h, w = self._xshape
        k, p = self.ksize, self.pad
        _, _, oh, ow = dout.shape
        d = dout.transpose(0, 2, 3, 1)                   # (n, oh, ow, cout)
        cols_flat = self._cols.reshape(-1, self._cols.shape[-1])
        d_flat = d.reshape(-1, self.cout)
        self.w.grad += (d_flat.T @ cols_flat).reshape(self.w.value.shape)
        self.b.grad += d_flat.sum(axis=0)
        dcols = (d_flat @ self.w.value.reshape(self.cout, -1)).reshape(
            n, oh, ow, self.cin, k, k)
        dx_pad = np.zeros((n, self.cin, h + 2 * p, w + 2 * p), dtype=dout.dtype)
        for u in range(k):
            for v in range(k):
                dx_pad[:, :, u:u + oh, v:v + ow] += \
                    dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
        return dx_pad[:, :, p:p + h, p:p + w] if p else dx_pad


class MaxPool2d:
    """Maximum over non-overlapping window x window tiles; trailing cells
    that do not fill a window are dropped."""

    def __init__(self, window: int):
        self.window = window
        self._argmax: np.ndarray | None = None
        self._xshape: tuple[int, ...] | None = None

    def params(self) -> list[ParamTensor]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise DimensionError(f"maxpool expects (n, c, h, w), got {x.shape}")
        n, c, h, w = x.shape
        k = self.window
        if k > h or k > w:
            raise DimensionError(f"pool window {k} exceeds spatial extent {h}x{w}")
        oh, ow = h // k, w // k
        win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        win = win[:, :, ::k, ::k, :, :].reshape(n, c, oh, ow, k * k)
        # first-index argmax so tie handling is deterministic
        self._argmax = win.argmax(axis=-1)
        self._xshape = x.shape
        return np.take_along_axis(win, self._argmax[..., None], axis=-1)[..., 0]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._xshape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._xshape
        k = self.window
        _, _, oh, ow = dout.shape
        dx = np.zeros(self._xshape, dtype=dout.dtype)
        ii, jj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        rows = ii * k + self._argmax // k                # (n, c, oh, ow)
        cols = jj * k + self._argmax % k
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(dx, (ni, ci, rows, cols), dout)
        return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over rows, with the gradient w.r.t. logits.

    Returns (loss, grad) where grad = (softmax - onehot) / n.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    n, ncls = logits.shape
    if labels.min() < 0 or labels.max() >= ncls:
        raise ValueError(
            f"label out of range: got {int(labels.min())}..{int(labels.max())} "
            f"for {ncls} classes")
    probs = softmax(logits)
    nll = -np.log(np.maximum(probs[np.arange(n), labels], np.finfo(logits.dtype).tiny))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(nll.mean()), grad


class SGD:
    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self.step_count = 0

    def step(self, params: list[ParamTensor]):
        for p in params:
            p.value -= (p.value.dtype.type(self.lr) * p.grad).astype(p.value.dtype)
        self.step_count += 1


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: list[ParamTensor]):
        self.step_count += 1
        t = self.step_count
        for p in params:
            m = self._m.setdefault(p.name, np.zeros_like(p.value))
            v = self._v.setdefault(p.name, np.zeros_like(p.value))
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            mhat = m / (1.0 - self.beta1 ** t)
            vhat = v / (1.0 - self.beta2 ** t)
            p.value -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(p.value.dtype)


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: int
    tolerance: float
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(loss_fn, params: list[ParamTensor], *, tol: float = 1e-6,
               eps: float = 1e-5, samples_per_param: int | None = None,
               rng: np.random.Generator | None = None,
               denom_floor: float = 0.0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn()`` must run forward + backward with the current parameter
    values, leave gradients in ``params`` and return the scalar loss.
    Requires float64 parameters; float32 cannot resolve the tolerance.

    With ``samples_per_param`` set, only that many coordinates per tensor
    are probed (seeded choice), which keeps large models tractable.
    ``denom_floor`` turns the comparison absolute below that gradient
    magnitude, where finite differences are dominated by rounding noise;
    a wrong gradient of that size still fails by orders of magnitude.
    """
    for p in params:
        if p.value.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 params, {p.name} is "
                             f"{p.value.dtype}")
        p.zero_grad()
    loss_fn()
    analytic = {p.name: p.grad.copy() for p in params}

    if rng is None:
        rng = np.random.default_rng(0)
    worst = (0.0, "", -1)
    checked = 0
    for p in params:
        size = p.value.size
        if samples_per_param is not None and size > samples_per_param:
            idxs = rng.choice(size, size=samples_per_param, replace=False)
        else:
            idxs = np.arange(size)
        flat = p.value.reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn()
            flat[i] = orig - eps
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            ana = analytic[p.name].reshape(-1)[i]
            denom = max(abs(numeric), abs(ana))
            # both gradients at noise level: nothing meaningful to compare
            rel = 0.0 if denom < 1e-8 else \
                abs(numeric - ana) / max(denom, denom_floor)
            checked += 1
            if rel > worst[0]:
                worst = (rel, p.name, int(i))
    # restore the analytic gradients the caller may inspect
    for p in params:
        p.grad[...] = analytic[p.name]
    return GradCheckReport(worst[0], worst[1], worst[2], tol, checked)
