import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from penet.errors import DimensionError
from penet.numcore import (Adam, Conv2d, GradCheckReport, Linear, MaxPool2d,
                           ParamTensor, ReLU, SGD, grad_check,
                           softmax_cross_entropy)

from oracles import (argmax_maxpool2d, gather_conv2d, naive_conv2d,
                     naive_linear, naive_maxpool2d, numeric_grad,
                     reference_adam_step, reference_sgd_step, rel_err,
                     where_relu)


def _linear_with(w, b, dtype=np.float64):
    layer = Linear(w.shape[0], w.shape[1], np.random.default_rng(0), dtype=dtype)
    layer.w.value[...] = w
    layer.b.value[...] = b
    return layer


# -- linear -----------------------------------------------------------------

def test_linear_identity_weights():
    layer = _linear_with(np.eye(2), np.zeros(2))
    out = layer.forward(np.array([[1.0, 2.0]]))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_linear_hand_sum():
    layer = _linear_with(np.array([[2.0], [3.0]]), np.array([1.0]))
    assert layer.forward(np.array([[1.0, 1.0]]))[0, 0] == pytest.approx(6.0)


def test_linear_matches_naive_matmul():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 64))
    b = rng.normal(size=64)
    out = _linear_with(w, b).forward(x)
    np.testing.assert_allclose(out, naive_linear(x, w, b), atol=1e-6)


def test_linear_shape_mismatch_names_shapes():
    layer = Linear(3, 2, np.random.default_rng(0))
    with pytest.raises(DimensionError, match="3"):
        layer.forward(np.zeros((1, 5), dtype=np.float32))


def test_linear_backward_identity_passthrough():
    layer = _linear_with(np.eye(3), np.zeros(3))
    layer.forward(np.ones((2, 3)))
    dout = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(layer.backward(dout), dout)


# -- relu -------------------------------------------------------------------

def test_relu_basic():
    relu = ReLU()
    np.testing.assert_array_equal(
        relu.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_all_negative_and_all_positive():
    relu = ReLU()
    assert not relu.forward(-np.ones(5)).any()
    x = np.array([0.5, 1.0, 3.0])
    np.testing.assert_array_equal(relu.forward(x), x)


def test_relu_backward_gates_upstream():
    relu = ReLU()
    relu.forward(np.array([-1.0, 2.0]))
    np.testing.assert_array_equal(relu.backward(np.array([5.0, 5.0])),
                                  [0.0, 5.0])


def _assert_relu_matches_where(x, dout):
    relu = ReLU()
    out = relu.forward(x)
    ref_out, ref_backward = where_relu(x)
    assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
    dx, ref_dx = relu.backward(dout), ref_backward(dout)
    assert dx.dtype == ref_dx.dtype and dx.tobytes() == ref_dx.tobytes()


def _relu_lattice(dtype, finite=False):
    info = np.finfo(dtype)
    special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
               info.tiny, -info.tiny, info.max, -info.max, 1.0, -1.0]
    if not finite:
        special += [np.inf, -np.inf]
    return st.sampled_from([dtype(v) for v in special])


@st.composite
def _relu_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(0, 70))        # across 4-, 8- and 16-lane widths
    offset = draw(st.integers(0, 3))
    step = draw(st.integers(1, 3))
    elements = _relu_lattice(dtype)
    if draw(st.booleans()):
        elements = elements | st.floats(allow_nan=False,
                                        width=8 * np.dtype(dtype).itemsize)
    base = draw(hnp.arrays(dtype, offset + n * step, elements=elements))
    x = base[offset::step][:n]
    dout = draw(hnp.arrays(dtype, n, elements=_relu_lattice(dtype, True)
                           | st.floats(-3, 3, width=32)))
    return x, dout


@settings(max_examples=400, deadline=None)
@given(_relu_case())
def test_relu_matches_where_oracle_bytewise(case):
    _assert_relu_matches_where(*case)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_negative_zero_becomes_positive_zero(dtype):
    for n in range(1, 200):
        for offset in range(4):
            for step in (1, 2):
                x = np.full(offset + n * step, -0.0, dtype)[offset::step]
                out = ReLU().forward(x)
                assert not np.signbit(out).any(), (n, offset, step)
                _assert_relu_matches_where(x, -np.ones(n, dtype))


def test_relu_2d_matches_where_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(37, 19)).astype(np.float32)
    x[::3, ::2] = -0.0
    _assert_relu_matches_where(x, rng.normal(size=x.shape).astype(np.float32))
    _assert_relu_matches_where(x.T, rng.normal(size=x.T.shape).astype(np.float32))


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        ReLU().backward(np.ones(2))
    with pytest.raises(RuntimeError):
        Linear(2, 2, np.random.default_rng(0)).backward(np.ones((1, 2)))


# -- conv2d -----------------------------------------------------------------

def test_conv_sum_of_ones():
    conv = Conv2d(1, 1, 3, np.random.default_rng(0), dtype=np.float64)
    conv.w.value[...] = 1.0
    conv.b.value[...] = 0.0
    out = conv.forward(np.ones((1, 1, 3, 3)))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == pytest.approx(9.0)


def test_conv_identity_1x1_kernel():
    conv = Conv2d(1, 1, 1, np.random.default_rng(0), dtype=np.float64)
    conv.w.value[...] = 1.0
    conv.b.value[...] = 0.0
    x = np.random.default_rng(1).normal(size=(1, 1, 4, 4))
    np.testing.assert_allclose(conv.forward(x), x)


def test_conv_matches_naive_seven_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
    conv = Conv2d(3, 4, 3, rng, pad=1, dtype=np.float32)
    expected = naive_conv2d(x, conv.w.value, conv.b.value, 1, 1)
    np.testing.assert_allclose(conv.forward(x), expected, atol=1e-5)


def test_conv_kernel_larger_than_input_raises():
    conv = Conv2d(1, 1, 5, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        conv.forward(np.zeros((1, 1, 3, 3), dtype=np.float32))


def _with_zeros(rng, a):
    """a with about a fifth of its entries +0.0 and a fifth -0.0."""
    r = rng.random(a.shape)
    a[r < 0.4] = -0.0
    a[r < 0.2] = 0.0
    return a


@st.composite
def _conv_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k, pad = draw(st.integers(1, 5)), draw(st.integers(0, 2))
    low = max(1, k - 2 * pad)           # the smallest extent with an output
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 16)),
             draw(st.integers(low, low + 6)), draw(st.integers(low, low + 6)))
    return dtype, shape, draw(st.integers(1, 32)), k, pad, \
        draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(_conv_case())
def test_conv_matches_gather_oracle_bytewise(case):
    dtype, shape, cout, k, pad, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv2d(shape[1], cout, k, rng, pad=pad, dtype=dtype)
    conv.b.value[...] = rng.normal(size=cout)
    x = _with_zeros(rng, rng.normal(size=shape).astype(dtype))
    out = conv.forward(x)
    ref_out, ref_backward = gather_conv2d(x, conv.w.value, conv.b.value, pad)
    dout = _with_zeros(rng, rng.normal(size=out.shape).astype(dtype))
    w_grad0 = rng.normal(size=conv.w.grad.shape).astype(dtype)
    b_grad0 = rng.normal(size=cout).astype(dtype)
    conv.w.grad[...], conv.b.grad[...] = w_grad0, b_grad0
    dx = conv.backward(dout)
    ref_dx, ref_dw, ref_db = ref_backward(dout)
    assert out.dtype == dx.dtype == dtype and dx.shape == x.shape
    assert dx.tobytes() == ref_dx.tobytes()
    assert conv.b.grad.tobytes() == (b_grad0 + ref_db).tobytes()
    pairs = [(out, ref_out), (conv.w.grad, w_grad0 + ref_dw)]
    oh, ow = out.shape[2:]
    if k == 1 or (ow == 1 and (shape[1] == 1 or oh == 1)):
        # here the gather kernel's reshape merges the window axes, so its
        # cols is a strided view of x, not a copy, and BLAS may round its
        # products differently
        tol = 1e-4 if dtype == np.float32 else 1e-12
        assert all(rel_err(a, b) < tol for a, b in pairs)
    else:
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)


def test_conv_backward_drops_its_cache():
    rng = np.random.default_rng(2)
    conv = Conv2d(2, 3, 3, rng, pad=1)
    with pytest.raises(RuntimeError):
        conv.backward(np.ones((1, 3, 4, 4), dtype=np.float32))
    out = conv.forward(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
    conv.backward(np.ones_like(out))
    assert conv._cols is None
    with pytest.raises(RuntimeError):
        conv.backward(np.ones_like(out))


# -- maxpool ----------------------------------------------------------------

def test_maxpool_window_two():
    pool = MaxPool2d(2)
    out = pool.forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out[0, 0, 0, 0] == 4.0


def test_maxpool_constant_input():
    pool = MaxPool2d(2)
    out = pool.forward(np.full((1, 1, 4, 4), 3.5))
    assert (out == 3.5).all()


def test_maxpool_matches_naive_oracle():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 3, 7, 7))
    pool = MaxPool2d(2)
    np.testing.assert_array_equal(pool.forward(x), naive_maxpool2d(x, 2, 2))


def test_maxpool_window_exceeds_extent():
    with pytest.raises(DimensionError):
        MaxPool2d(5).forward(np.zeros((1, 1, 3, 3)))


def _assert_pool_matches_argmax(x, window, dout):
    pool = MaxPool2d(window)
    out = pool.forward(x)
    ref_out, ref_backward = argmax_maxpool2d(x, window)
    assert out.dtype == ref_out.dtype
    assert out.tobytes() == ref_out.tobytes()
    dx = pool.backward(dout)
    ref_dx = ref_backward(dout)
    assert dx.dtype == ref_dx.dtype
    assert dx.tobytes() == ref_dx.tobytes()
    return dx


@st.composite
def _pool_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    window = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(window, 9)), draw(st.integers(window, 9)))
    # a small lattice with both zeros makes ties in most windows
    elements = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    if draw(st.booleans()):
        elements = elements | st.floats(-4, 4, width=32)
    x = draw(hnp.arrays(dtype, shape, elements=elements))
    oh, ow = shape[2] // window, shape[3] // window
    dout = draw(hnp.arrays(dtype, (shape[0], shape[1], oh, ow),
                           elements=st.floats(-3, 3, width=32)))
    return x, window, dout


@settings(max_examples=300, deadline=None)
@given(_pool_case())
def test_maxpool_matches_argmax_oracle_bytewise(case):
    _assert_pool_matches_argmax(*case)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,h,w", [(2, 7, 7), (2, 5, 9), (3, 7, 7),
                                        (3, 5, 9), (2, 4, 4), (1, 3, 5)])
def test_maxpool_ties_route_to_first_cell(dtype, window, h, w):
    rng = np.random.default_rng(h * 10 + w + window)
    x = rng.integers(-1, 2, size=(2, 3, h, w)).astype(dtype)
    x[0, 0] = 1.0                       # every window all-equal
    x[0, 1] = -0.0
    x[0, 1, ::2, ::2] = 0.0             # -0.0 and +0.0 in every window
    x[0, 2] = 0.0
    x[0, 2, 1::2, 1::2] = -0.0
    oh, ow = h // window, w // window
    dout = rng.normal(size=(2, 3, oh, ow)).astype(dtype)
    dout[1, 0] = -0.0
    dx = _assert_pool_matches_argmax(x, window, dout)
    # all-equal windows send each gradient to their top-left cell
    np.testing.assert_array_equal(
        dx[0, 0, :oh * window:window, :ow * window:window], dout[0, 0])
    # cells outside every window keep a zero gradient
    assert not dx[:, :, oh * window:].any()
    assert not dx[:, :, :, ow * window:].any()


# -- channels-last layout -----------------------------------------------------
# ClassHead's activations are NCHW views of channels-last memory; each
# layer must give the oracle's bytes for them and keep that memory order.

def _channels_last(a):
    """a's values as an NCHW-shaped view of (n, h, w, c) memory."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _is_channels_last(a):
    """Channels innermost in memory; a padded buffer's interior counts."""
    return a.strides[1] == a.itemsize


LAYOUTS = [(False, True), (True, False), (True, True)]   # (x, dout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_last,dout_last", LAYOUTS)
# 1, 3 and 5 images leave the last im2col block partly full; 16 -> 32 over
# 8 x 8 is ClassHead's conv2
@pytest.mark.parametrize("n,c,cout,hw", [(1, 1, 16, 9), (3, 16, 32, 8),
                                         (5, 3, 4, 5)])
def test_conv_channels_last_matches_gather_oracle_bytewise(
        dtype, x_last, dout_last, n, c, cout, hw):
    rng = np.random.default_rng(n * 100 + c)
    conv = Conv2d(c, cout, 3, rng, pad=1, dtype=dtype)
    conv.b.value[...] = rng.normal(size=cout)
    x = _with_zeros(rng, rng.normal(size=(n, c, hw, hw)).astype(dtype))
    dout = _with_zeros(rng, rng.normal(size=(n, cout, hw, hw)).astype(dtype))
    ref_out, ref_backward = gather_conv2d(x, conv.w.value, conv.b.value, 1)
    ref_dx, ref_dw, ref_db = ref_backward(dout)
    out = conv.forward(_channels_last(x) if x_last else x)
    dx = conv.backward(_channels_last(dout) if dout_last else dout)
    assert _is_channels_last(out) and _is_channels_last(dx)
    assert out.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    assert conv.w.grad.tobytes() == ref_dw.tobytes()
    assert conv.b.grad.tobytes() == ref_db.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_last,dout_last", LAYOUTS)
@pytest.mark.parametrize("n,window,h,w", [(1, 2, 8, 8), (3, 2, 7, 9),
                                          (5, 3, 7, 7)])
def test_maxpool_channels_last_matches_argmax_oracle_bytewise(
        dtype, x_last, dout_last, n, window, h, w):
    rng = np.random.default_rng(n * 10 + window)
    # a lattice with both zeros ties most windows
    x = rng.choice(np.array([-1.0, -0.0, 0.0, 1.0], dtype), size=(n, 4, h, w))
    dout = _with_zeros(rng, rng.normal(
        size=(n, 4, h // window, w // window)).astype(dtype))
    pool = MaxPool2d(window)
    out = pool.forward(_channels_last(x) if x_last else x)
    dx = pool.backward(_channels_last(dout) if dout_last else dout)
    ref_out, ref_backward = argmax_maxpool2d(x, window)
    assert _is_channels_last(out) == _is_channels_last(dx) == x_last
    assert out.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == ref_backward(dout).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_last,dout_last", LAYOUTS)
@pytest.mark.parametrize("n", [1, 3, 5])
def test_relu_channels_last_matches_where_oracle_bytewise(
        dtype, x_last, dout_last, n):
    rng = np.random.default_rng(n)
    x = _with_zeros(rng, rng.normal(size=(n, 16, 8, 8)).astype(dtype))
    dout = _with_zeros(rng, rng.normal(size=x.shape).astype(dtype))
    x = _channels_last(x) if x_last else x
    _assert_relu_matches_where(x, _channels_last(dout) if dout_last else dout)
    assert _is_channels_last(ReLU().forward(x)) == x_last


# -- softmax cross-entropy ----------------------------------------------------

def test_sce_uniform_logits():
    loss, _ = softmax_cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), rel=1e-6)


def test_sce_extreme_logits_stable():
    loss, grad = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert np.isfinite(grad).all()


def test_sce_label_out_of_range():
    with pytest.raises(ValueError, match="label"):
        softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


def test_sce_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    _, grad = softmax_cross_entropy(logits, labels)
    fd = numeric_grad(lambda: softmax_cross_entropy(logits, labels)[0], logits)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_sce_shift_invariance():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    l1, _ = softmax_cross_entropy(logits, labels)
    l2, _ = softmax_cross_entropy(logits + 17.0, labels)
    assert l1 == pytest.approx(l2, abs=1e-6)


# -- per-layer backward vs finite differences --------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_linear_backward_fd(seed):
    rng = np.random.default_rng(seed)
    layer = Linear(5, 4, rng, dtype=np.float64)
    x = rng.normal(size=(3, 5))
    y = rng.integers(0, 4, size=3)

    def loss_fn():
        layer.w.zero_grad()
        layer.b.zero_grad()
        loss, d = softmax_cross_entropy(layer.forward(x), y)
        layer.backward(d)
        return loss

    loss_fn()
    ana_w, ana_b = layer.w.grad.copy(), layer.b.grad.copy()
    fd_w = numeric_grad(loss_fn, layer.w.value)
    fd_b = numeric_grad(loss_fn, layer.b.value)
    np.testing.assert_allclose(ana_w, fd_w, rtol=1e-6, atol=1e-10)
    np.testing.assert_allclose(ana_b, fd_b, rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_conv_and_pool_backward_fd(seed):
    rng = np.random.default_rng(100 + seed)
    conv = Conv2d(2, 3, 3, rng, pad=1, dtype=np.float64)
    pool = MaxPool2d(2)
    x = rng.normal(size=(2, 2, 4, 4))
    y = rng.integers(0, 3, size=2)

    def loss_fn():
        conv.w.zero_grad()
        conv.b.zero_grad()
        h = pool.forward(conv.forward(x))
        logits = h.reshape(2, -1)[:, :3]
        loss, d = softmax_cross_entropy(logits, y)
        dh = np.zeros_like(h.reshape(2, -1))
        dh[:, :3] = d
        conv.backward(pool.backward(dh.reshape(h.shape)))
        return loss

    loss_fn()
    ana = conv.w.grad.copy()
    fd = numeric_grad(loss_fn, conv.w.value)
    np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-9)


def test_input_gradient_through_conv_pool_relu():
    rng = np.random.default_rng(3)
    conv = Conv2d(1, 2, 3, rng, pad=1, dtype=np.float64)
    relu = ReLU()
    pool = MaxPool2d(2)
    x = rng.normal(size=(1, 1, 4, 4))
    y = np.array([1])
    dx_holder = {}

    def loss_fn():
        h = pool.forward(relu.forward(conv.forward(x)))
        loss, d = softmax_cross_entropy(h.reshape(1, -1), y)
        dx_holder["dx"] = conv.backward(
            relu.backward(pool.backward(d.reshape(h.shape))))
        return loss

    loss_fn()
    fd = numeric_grad(loss_fn, x)
    np.testing.assert_allclose(dx_holder["dx"], fd, rtol=1e-6, atol=1e-6)


# -- optimizers ---------------------------------------------------------------

def _param(value):
    return ParamTensor("p", np.array(value, dtype=np.float64))


def test_zero_gradient_is_identity():
    for opt in (SGD(lr=0.1), Adam(lr=0.1)):
        p = _param([1.0, -2.0])
        opt.step([p])
        np.testing.assert_array_equal(p.value, [1.0, -2.0])


def test_sgd_hand_arithmetic():
    p = _param([1.0])
    p.grad[...] = 0.5
    SGD(lr=0.1).step([p])
    assert p.value[0] == pytest.approx(0.95)


def test_adam_single_step_closed_form():
    # p=0, g=1: mhat=1, vhat=1 -> p = -lr / (1 + eps)
    p = _param([0.0])
    p.grad[...] = 1.0
    opt = Adam(lr=1e-3)
    opt.step([p])
    assert p.value[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)


def test_adam_two_steps_match_hand_rollout():
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    p = _param([0.5])
    opt = Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    m = v = 0.0
    ref = 0.5
    for t in (1, 2):
        g = 2.0 * ref            # gradient of ref^2
        p.grad[...] = 2.0 * p.value
        opt.step([p])
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        ref -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    assert p.value[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hyper", [
    {},
    {"lr": 0.037, "beta1": 0.8, "beta2": 0.95, "eps": 1e-4},
    {"lr": 3e-4, "beta1": 0.5, "beta2": 0.9999, "eps": 1e-7},
])
def test_adam_matches_reference_bytewise(dtype, hyper):
    rng = np.random.default_rng(21)
    shapes = {"a": (5, 4), "b": (7,), "c": (2, 3, 3, 3), "zero": (6,)}
    new = {n: ParamTensor(n, rng.normal(size=s).astype(dtype))
           for n, s in shapes.items()}
    ref = {n: ParamTensor(n, p.value.copy()) for n, p in new.items()}
    opt, ref_opt = Adam(**hyper), Adam(**hyper)
    for _ in range(5):
        for name, p in new.items():
            g = (np.zeros(p.value.shape) if name == "zero"
                 else rng.normal(size=p.value.shape)).astype(dtype)
            p.grad[...] = g
            ref[name].grad[...] = g
        opt.step(list(new.values()))
        reference_adam_step(ref_opt, list(ref.values()))
        for name, p in new.items():
            assert p.value.dtype == dtype
            assert p.value.tobytes() == ref[name].value.tobytes(), name
            assert opt._m[name].tobytes() == ref_opt._m[name].tobytes()
            assert opt._v[name].tobytes() == ref_opt._v[name].tobytes()
    assert opt.step_count == ref_opt.step_count == 5


def test_adam_builds_state_once_per_param(monkeypatch):
    params = [ParamTensor(n, np.ones((3, 2), np.float32)) for n in "ab"]
    built = []
    zeros_like = np.zeros_like
    monkeypatch.setattr(np, "zeros_like",
                        lambda a, *args, **kw: built.append(a.shape)
                        or zeros_like(a, *args, **kw))
    opt = Adam()
    for _ in range(3):
        opt.step(params)
    assert built == [(3, 2)] * 4        # one m and one v per parameter


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lr", [0.1, 0.037, 3e-4])
def test_sgd_matches_reference_bytewise(dtype, lr):
    rng = np.random.default_rng(22)
    new = [ParamTensor(n, rng.normal(size=s).astype(dtype))
           for n, s in (("a", (5, 4)), ("b", (7,)), ("c", (2, 3, 3, 3)))]
    ref = [ParamTensor(p.name, p.value.copy()) for p in new]
    opt, ref_opt = SGD(lr=lr), SGD(lr=lr)
    for _ in range(5):
        for p, r in zip(new, ref):
            p.grad[...] = r.grad[...] = rng.normal(size=p.value.shape)
        opt.step(new)
        reference_sgd_step(ref_opt, ref)
        for p, r in zip(new, ref):
            assert p.value.dtype == dtype
            assert p.value.tobytes() == r.value.tobytes(), p.name
    assert opt.step_count == ref_opt.step_count == 5


# -- grad_check harness -------------------------------------------------------

def _linear_fragment(seed=0):
    rng = np.random.default_rng(seed)
    layer = Linear(4, 3, rng, dtype=np.float64)
    x = rng.normal(size=(2, 4))
    y = np.array([0, 2])

    def loss_fn(sign=1.0):
        layer.w.zero_grad()
        layer.b.zero_grad()
        loss, d = softmax_cross_entropy(layer.forward(x), y)
        layer.backward(sign * d)
        return loss

    return layer, loss_fn


def test_grad_check_passes_on_linear():
    layer, loss_fn = _linear_fragment()
    report = grad_check(loss_fn, layer.params(), tol=1e-6)
    assert report.passed
    assert isinstance(report, GradCheckReport)


def test_grad_check_full_encoder():
    from penet.encoder import Encoder
    rng = np.random.default_rng(21)
    enc = Encoder(6, k=1024, depth=3, rng=rng, dtype=np.float64)
    x = rng.normal(size=(3, 6))
    y = np.array([1, 5, 9])

    def loss_fn():
        for p in enc.params():
            p.zero_grad()
        out = enc.forward(x)
        loss, d = softmax_cross_entropy(out[:, :10], y)
        dout = np.zeros_like(out)
        dout[:, :10] = d
        enc.backward(dout)
        return loss

    report = grad_check(loss_fn, enc.params(), tol=1e-5, samples_per_param=10,
                        rng=np.random.default_rng(1))
    assert report.passed, report


def test_grad_check_catches_sign_flip():
    layer, loss_fn = _linear_fragment()
    report = grad_check(lambda: loss_fn(sign=-1.0), layer.params(), tol=1e-6)
    assert not report.passed
    assert report.max_rel_error > 0.1


def test_grad_check_rejects_float32():
    rng = np.random.default_rng(0)
    layer = Linear(2, 2, rng, dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: 0.0, layer.params(), tol=1e-6)
