"""Dense array layers, losses and optimizers.

Everything here operates on plain numpy arrays. Training runs in float32;
float64 is used only when verifying gradients against finite differences.
All layers follow the same protocol: ``forward(x)`` caches what backward
needs, ``backward(dout)`` returns the gradient w.r.t. the input and
accumulates parameter gradients in place. A stack of them runs from one
run-order list through ``forward_layers`` and ``backward_layers``.

Inside ``inference()`` no backward follows, so every layer stores
``for_backward(cache)``, which is None there: a forward keeps no backward
cache and drops the one a training forward left, and a backward after it
raises. ``Linear`` also adds its bias into its product there instead of
into a second array. The outputs are the same bits either way.

The conv stack's activations are NCHW in shape and channels-last in
memory: ``Conv2d`` returns an NCHW view of its (n, h, w, c) product, and
``MaxPool2d`` and ``ReLU`` keep their input's memory order. So no layer of
the stack transposes an activation or a gradient.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


_inference = False


@contextlib.contextmanager
def inference():
    """Run the enclosed forward passes for their output only: no backward
    follows them. Nested uses and exceptions restore the previous state."""
    global _inference
    saved, _inference = _inference, True
    try:
        yield
    finally:
        _inference = saved


def inference_enabled() -> bool:
    return _inference


def for_backward(cache):
    """What a layer's forward stores for its backward: ``cache``, or None
    inside ``inference()``."""
    return None if _inference else cache


def from_forward(cache):
    """The cache a layer's backward reads; raise if no forward outside
    ``inference()`` stored one."""
    if cache is None:
        raise RuntimeError("backward before a forward, or after an inference "
                           "forward, which keeps no backward caches; run "
                           "forward outside numcore.inference() first")
    return cache


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


def forward_layers(layers, x: np.ndarray) -> np.ndarray:
    """Run x through the layers in list order."""
    for layer in layers:
        x = layer.forward(x)
    return x


def backward_layers(layers, dout: np.ndarray) -> np.ndarray:
    """Backprop dout through the layers in reverse list order."""
    for layer in reversed(layers):
        dout = layer.backward(dout)
    return dout


class Linear:
    """Affine map on the last axis: out = x @ w + b.

    Inside ``inference()`` the bias is added into the product in place,
    which saves one array per call. A training forward keeps
    ``x @ w + b``: other forms, in place or not, left live memory as it
    was but moved the process's peak RSS, through glibc's heap placement,
    by up to 7 MB.
    """

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
        self._x = for_backward(x)
        if not _inference:
            return x @ self.w.value + self.b.value
        out = x @ self.w.value
        out += self.b.value
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.w.grad += from_forward(self._x).T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T


class ReLU:
    """max(x, 0) in one branch-free pass; backward gates on the cached
    output, since out > 0 exactly where x > 0.

    -0.0 maps to +0.0. Inputs are assumed finite: a NaN passes through
    forward instead of becoming 0.
    """

    def __init__(self):
        self._out: np.ndarray | None = None

    def params(self) -> list[ParamTensor]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, x.dtype.type(0))
        self._out = for_backward(out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * (from_forward(self._out) > 0)


# images per block of Conv2d's im2col fill and col2im scatter; 4 read
# fastest of 1, 2 and 4 for ClassHead's conv2
IM2COL_IMAGES = 4


class Conv2d:
    """2D cross-correlation with stride 1 and zero padding, NCHW shapes.

    Lowered to im2col without a strided gather: forward copies x once into
    a zero-padded channels-last (n, hp, wp, c) buffer and fills the
    C-contiguous (n, oh, ow, c, k, k) cols one kernel tap at a time, each
    tap one slice copy, then makes one stacked matmul against the
    (cout, c*k*k) weight. The output is an NCHW view of that
    (n, oh, ow, cout) product, channels-last in memory, so a channels-last
    x copies into the buffer without a transpose and a channels-last dout
    is read in place. Backward multiplies dout by the weight and adds each
    tap's (n, oh, ow, c) block of the product into a channels-last zero
    buffer, in row-major tap order; dx is an NCHW view of its interior.
    Both the fill and the scatter run IM2COL_IMAGES images at a time, all
    taps per block, so a block stays in cache; a cell's taps still add in
    the same order.

    The products keep the operands, layouts and call shapes of the
    gather-based kernel in tests/oracles.py, and every sum its order, so
    the output and all gradients are bit-identical to it: BLAS rounds a
    product differently when its operands' layout or column order change.
    The exceptions are the shapes where the gather kernel's cols is a
    strided view of x, not a copy: a 1x1 kernel, or an output one column
    wide over one channel or one row. There the output and the weight
    gradient agree to rounding. ClassHead has none of these shapes.

    The cache serves one backward, which drops it, so the cols are freed
    before the optimizer step.
    """

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
        n, c, h, w = x.shape
        oh, ow = self._out_hw(h, w)
        k, p = self.ksize, self.pad
        xt = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xt[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
        cols = np.empty((n, oh, ow, c, k, k), dtype=x.dtype)
        for s in range(0, n, IM2COL_IMAGES):
            block, src = cols[s:s + IM2COL_IMAGES], xt[s:s + IM2COL_IMAGES]
            for u, v in itertools.product(range(k), repeat=2):
                block[..., u, v] = src[:, u:u + oh, v:v + ow]
        cols = cols.reshape(n, oh, ow, c * k * k)
        self._cols = for_backward(cols)
        out = cols @ self.w.value.reshape(self.cout, -1).T   # (n, oh, ow, cout)
        out += self.b.value
        return out.transpose(0, 3, 1, 2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cols, self._cols = from_forward(self._cols), None
        n, oh, ow, ckk = cols.shape
        c, k, p = self.cin, self.ksize, self.pad
        h, w = oh + k - 1 - 2 * p, ow + k - 1 - 2 * p
        d_flat = dout.transpose(0, 2, 3, 1).reshape(-1, self.cout)
        if n == 1:
            # an NCHW dout of one image gives a column-major view here, and
            # BLAS and the sum round by layout: take that one for any dout
            d_flat = np.asfortranarray(d_flat)
        self.w.grad += (d_flat.T @ cols.reshape(-1, ckk)).reshape(
            self.w.value.shape)
        self.b.grad += d_flat.sum(axis=0)
        dcols = (d_flat @ self.w.value.reshape(self.cout, -1)).reshape(
            n, oh, ow, c, k, k)
        dxt = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dout.dtype)
        for s in range(0, n, IM2COL_IMAGES):
            block, src = dxt[s:s + IM2COL_IMAGES], dcols[s:s + IM2COL_IMAGES]
            for u, v in itertools.product(range(k), repeat=2):
                block[:, u:u + oh, v:v + ow] += src[..., u, v]
        return dxt[:, p:p + h, p:p + w].transpose(0, 3, 1, 2)


class MaxPool2d:
    """Maximum over non-overlapping window x window tiles; trailing cells
    that do not fill a window are dropped and get a zero gradient.

    Ties go to the window's first cell in row-major order, the cell
    ``argmax`` picks: equal values, -0.0 and +0.0 included, keep the
    earlier cell, whose value is the output. Backward routes each output
    gradient to that cell alone. Inputs and gradients are assumed finite.

    The output, dx and the routing mask take x's memory order, so a
    channels-last x gives channels-last arrays throughout.
    """

    def __init__(self, window: int):
        self.window = window
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def params(self) -> list[ParamTensor]:
        return []

    def _views(self, a: np.ndarray, oh: int, ow: int) -> list[np.ndarray]:
        # one (n, c, oh, ow) view per window cell, in row-major cell order
        k = self.window
        return [a[:, :, u:oh * k:k, v:ow * k:k]
                for u in range(k) for v in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise DimensionError(f"maxpool expects (n, c, h, w), got {x.shape}")
        _, _, h, w = x.shape
        k = self.window
        if k > h or k > w:
            raise DimensionError(f"pool window {k} exceeds spatial extent {h}x{w}")
        views = self._views(x, h // k, w // k)
        out = views[0].copy(order="K")
        for view in views[1:]:
            np.maximum(out, view, out=out)
        zero = out == 0
        if zero.any():
            # np.maximum may return either of -0.0 and +0.0: take the sign
            # of the first zero cell by writing the zero cells last to first
            for view in reversed(views):
                np.copyto(out, view, where=zero & (view == 0))
        self._x, self._out = for_backward(x), for_backward(out)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        # the cache serves one backward; dropping it frees the input before
        # the optimizer step
        x, out = self._x, from_forward(self._out)
        self._x = self._out = None
        oh, ow = out.shape[2:]
        dx = np.zeros_like(x, dtype=dout.dtype)
        unrouted = np.ones_like(out, dtype=bool)
        for xv, dxv in zip(self._views(x, oh, ow), self._views(dx, oh, ow)):
            hit = xv == out
            hit &= unrouted
            unrouted ^= hit
            np.multiply(dout, hit, out=dxv)
        # dout * False is -0.0 where dout < 0, and a hit cell keeps a dout
        # of -0.0; adding 0 makes both +0.0, as a scatter-add into zeros does
        dx += 0
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
            p.value -= (p.value.dtype.type(self.lr) * p.grad).astype(
                p.value.dtype, copy=False)
        self.step_count += 1


class Adam:
    """Adam with bias correction, updated in place.

    The operation order is part of the result: v gains ((1-beta2)*g)*g and
    the value loses (lr*(m/(1-beta1^t))) / (sqrt(v/(1-beta2^t)) + eps),
    every scalar rounded to the parameter dtype. Reordering them changes
    trained checkpoints.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: list[ParamTensor]):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for p in params:
            if p.name not in self._m:
                self._m[p.name] = np.zeros_like(p.value)
                self._v[p.name] = np.zeros_like(p.value)
            m, v = self._m[p.name], self._v[p.name]
            g = p.grad
            s = np.multiply(g, 1.0 - b1)
            m *= b1
            m += s
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v *= b2
            v += s
            np.divide(m, 1.0 - b1 ** t, out=s)           # mhat
            s *= self.lr
            s2 = np.divide(v, 1.0 - b2 ** t)              # vhat
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s /= s2
            p.value -= s


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
