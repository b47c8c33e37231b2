import numpy as np
import pytest

from penet.errors import DimensionError
from penet.numcore import (Adam, Conv2d, GradCheckReport, Linear, MaxPool2d,
                           ParamTensor, ReLU, SGD, grad_check,
                           softmax_cross_entropy)

from oracles import naive_conv2d, naive_linear, naive_maxpool2d, numeric_grad


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
