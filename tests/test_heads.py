import contextlib

import numpy as np
import pytest

from penet.errors import DimensionError, EmptyCloudError
from penet.heads import ClassHead, SegHead, grid_side, predict, reshape_grid
from penet.models import Classifier, Segmenter
from penet.numcore import inference, softmax_cross_entropy

from oracles import (concat_seg_head, naive_conv2d, naive_linear,
                     naive_maxpool2d)


def test_reshape_grid_row_major():
    feat = np.arange(1024.0)
    grid = reshape_grid(feat)
    assert grid.shape == (1, 32, 32)
    assert grid[0, 0, 0] == 0.0
    assert grid[0, 1, 1] == 33.0


def test_reshape_grid_roundtrip():
    feat = np.random.default_rng(0).normal(size=64)
    assert np.array_equal(reshape_grid(feat).reshape(-1), feat)


def test_reshape_grid_rejects_non_square():
    with pytest.raises(DimensionError):
        reshape_grid(np.zeros(1000))
    assert grid_side(1024) == 32


def test_zero_weights_give_zero_logits():
    head = ClassHead(64, 5, np.random.default_rng(0))
    for p in head.params():
        p.value[...] = 0.0
    logits = head.forward(np.random.default_rng(1).normal(
        size=(2, 1, 8, 8)).astype(np.float32))
    assert not logits.any()


def test_class_head_output_width():
    for n_cls in (10, 40):
        head = ClassHead(64, n_cls, np.random.default_rng(0))
        out = head.forward(np.zeros((3, 1, 8, 8), dtype=np.float32))
        assert out.shape == (3, n_cls)


def test_class_head_matches_naive_layer_by_layer():
    rng = np.random.default_rng(7)
    head = ClassHead(64, 4, rng, dtype=np.float64)
    x = rng.normal(size=(2, 1, 8, 8))
    out = head.forward(x)

    h = naive_conv2d(x, head.conv1.w.value, head.conv1.b.value, 1, 1)
    h = np.maximum(h, 0.0)
    h = naive_maxpool2d(h, 2, 2)
    h = naive_conv2d(h, head.conv2.w.value, head.conv2.b.value, 1, 1)
    h = np.maximum(h, 0.0)
    h = naive_maxpool2d(h, 2, 2)
    h = h.reshape(2, -1)
    h = np.maximum(naive_linear(h, head.fc1.w.value, head.fc1.b.value), 0.0)
    expected = naive_linear(h, head.fc2.w.value, head.fc2.b.value)
    np.testing.assert_allclose(out, expected, atol=1e-5)


@pytest.mark.parametrize("inferred", [False, True])
def test_conv_stack_activations_stay_channels_last(inferred):
    # the head's speed rests on no conv-stack layer copying its activation
    # to NCHW memory: each output is an NCHW view of (n, h, w, c) memory,
    # and each gradient has its channels innermost too
    model = Classifier(din=3, num_classes=4, k=1024, seed=0)
    channels = {"conv1": 16, "pool1": 16, "relu1": 16, "conv2": 32,
                "pool2": 32, "relu2": 32}
    outputs, grads = {}, {}
    for name in channels:
        layer = getattr(model.head, name)

        def record(x, name=name, forward=layer.forward):
            outputs[name] = forward(x)
            return outputs[name]

        def record_grad(dout, name=name, backward=layer.backward):
            grads[name] = dout
            return backward(dout)
        layer.forward, layer.backward = record, record_grad
    x = np.random.default_rng(0).uniform(-1, 1, size=(16, 64, 3)).astype(
        np.float32)
    with inference() if inferred else contextlib.nullcontext():
        logits = model.forward(x)
    assert outputs.keys() == channels.keys()
    for name, out in outputs.items():
        assert out.shape[:2] == (16, channels[name]), name
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous, name
    if not inferred:
        model.backward(np.ones_like(logits))
        assert grads.keys() == channels.keys()
        assert all(g.strides[1] == g.itemsize for g in grads.values())


def test_seg_head_permutation_equivariant():
    rng = np.random.default_rng(3)
    head = SegHead(16, 8, 6, rng, dtype=np.float64)
    local = rng.normal(size=(1, 10, 8))
    g = rng.normal(size=(1, 16))
    out = head.forward(local, g).copy()
    perm = rng.permutation(10)
    out_p = head.forward(local[:, perm], g)
    np.testing.assert_array_equal(out_p[0], out[0][perm])


@pytest.mark.parametrize("k", [16, 1024])
@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("bs", [1, 3])
def test_seg_head_matches_concat_reference(bs, n, k):
    # fc1 applies its global rows once per cloud; the reference repeats
    # the global feature to every point and multiplies the joined matrix
    rng = np.random.default_rng(100 * bs + 10 * n + k)
    head = SegHead(k, 128, 5, rng, dtype=np.float64)
    for p in head.params():
        p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    local = rng.normal(size=(bs, n, 128))
    glob = rng.uniform(0, 1, size=(bs, k))
    dlogits = rng.normal(size=(bs, n, 5))

    ref_logits, ref_dlocal, ref_dglobal, ref_grads = concat_seg_head(
        head, local, glob, dlogits)
    for p in head.params():
        p.zero_grad()
    logits = head.forward(local, glob)
    d_local, d_global = head.backward(dlogits)

    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d_local, ref_dlocal, rtol=0, atol=1e-10)
    np.testing.assert_allclose(d_global, ref_dglobal, rtol=0, atol=1e-10)
    assert d_local.shape == (bs, n, 128) and d_global.shape == (bs, k)
    for p in head.params():
        np.testing.assert_allclose(p.grad, ref_grads[p.name], rtol=0,
                                   atol=1e-10, err_msg=p.name)


def test_seg_head_keeps_joined_fc1_weight():
    # one (k + local_dim, 256) seg.fc1.w, drawn like a Linear over the join
    from penet.numcore import Linear
    head = SegHead(16, 8, 6, np.random.default_rng(4))
    ref = Linear(24, 256, np.random.default_rng(4), name="seg.fc1")
    assert [p.name for p in head.fc1.params()] == ["seg.fc1.w", "seg.fc1.b"]
    np.testing.assert_array_equal(head.fc1.w.value, ref.w.value)
    np.testing.assert_array_equal(head.fc1.b.value, ref.b.value)


def test_seg_head_backward_before_forward_raises():
    head = SegHead(16, 8, 6, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        head.fc1.backward(np.zeros((1, 2, 256)))


def test_seg_head_zero_weights():
    head = SegHead(16, 8, 50, np.random.default_rng(0))
    for p in head.params():
        p.value[...] = 0.0
    out = head.forward(np.ones((1, 4, 8), dtype=np.float32),
                       np.ones((1, 16), dtype=np.float32))
    assert out.shape == (1, 4, 50)
    assert not out.any()


def test_seg_head_empty_cloud():
    head = SegHead(16, 8, 6, np.random.default_rng(0))
    with pytest.raises(EmptyCloudError):
        head.forward(np.zeros((1, 0, 8)), np.zeros((1, 16)))


def test_predict_examples():
    assert predict(np.array([0.1, 0.9])) == 1
    assert predict(np.array([0.5, 0.5])) == 0  # ties to lowest index
    rows = predict(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    np.testing.assert_array_equal(rows, [0, 1, 0])


def test_classifier_pipeline_permutation_invariant():
    model = Classifier(din=3, num_classes=4, k=64, depth=3, seed=1)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(1, 40, 3)).astype(np.float32)
    base = model.forward(pts).copy()
    for trial in range(5):
        perm = rng.permutation(40)
        out = model.forward(pts[:, perm])
        assert predict(out[0]) == predict(base[0])
        np.testing.assert_allclose(out, base, atol=1e-4)


def test_segmenter_pipeline_permutation_equivariant():
    model = Segmenter(din=3, num_parts=5, k=64, depth=3, seed=2,
                      dtype=np.float64)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(1, 20, 3))
    base = predict(model.forward(pts)[0])
    perm = rng.permutation(20)
    labels = predict(model.forward(pts[:, perm])[0])
    np.testing.assert_array_equal(labels, base[perm])


def test_full_pipeline_backward_runs_and_reduces_loss():
    model = Classifier(din=3, num_classes=3, k=64, depth=3, seed=4)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, size=(6, 16, 3)).astype(np.float32)
    y = rng.integers(0, 3, size=6)
    from penet.numcore import Adam
    opt = Adam(lr=1e-3)
    first = None
    for _ in range(20):
        loss, d = softmax_cross_entropy(model.forward(pts), y)
        if first is None:
            first = loss
        model.zero_grads()
        model.backward(d.astype(np.float32))
        opt.step(model.params())
    assert loss < first
