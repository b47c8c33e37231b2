import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penet.encoder import BatchLayout, Encoder, embed_batch, embed_point
from penet.errors import DimensionError, EmptyCloudError, LayoutError
from penet.numcore import softmax_cross_entropy, grad_check

from oracles import numeric_grad, reference_point_encoder


def _encoder(din=6, k=32, depth=3, seed=0, dtype=np.float64):
    return Encoder(din, k=k, depth=depth, rng=np.random.default_rng(seed),
                   dtype=dtype)


def test_zero_weights_map_to_zero():
    enc = _encoder()
    for p in enc.params():
        p.value[...] = 0.0
    out = embed_point(np.array([0.3, -0.2, 0.9, 0.0, 0.0, 1.0]), enc)
    assert not out.any()


def test_default_output_length_is_1024():
    enc = _encoder(k=1024)
    out = embed_point(np.zeros(6), enc)
    assert out.shape == (1024,)


def test_embed_point_matches_matmul_chain():
    enc = _encoder(seed=3)
    p = np.array([0.1, 0.2, 0.3, 0.0, 0.0, 1.0])
    h = p.copy()
    for i, layer in enumerate(enc.layers):
        h = h @ layer.w.value + layer.b.value
        if i < len(enc.layers) - 1:
            h = np.maximum(h, 0.0)
    np.testing.assert_allclose(embed_point(p, enc), h, atol=1e-6)


def test_embed_point_din_mismatch():
    with pytest.raises(DimensionError):
        embed_point(np.zeros(4), _encoder(din=6))


def test_degenerate_batch_equals_embed_point():
    enc = _encoder(seed=5)
    p = np.random.default_rng(1).normal(size=6)
    fused = embed_batch(p[None, :], BatchLayout(1, 1), enc)
    np.testing.assert_array_equal(fused[0], embed_point(p, enc))


def test_batch_matches_per_point_loop():
    enc = _encoder(seed=7)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(6, 6))
    fused = embed_batch(pts, BatchLayout(2, 3), enc).copy()
    for i in range(6):
        np.testing.assert_allclose(fused[i], embed_point(pts[i], enc), atol=1e-6)


def test_row_permutation_permutes_output():
    enc = _encoder(seed=9)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(5, 6))
    perm = rng.permutation(5)
    out = embed_batch(pts, BatchLayout(1, 5), enc).copy()
    out_p = embed_batch(pts[perm], BatchLayout(1, 5), enc)
    np.testing.assert_array_equal(out_p, out[perm])


def test_per_point_independence():
    enc = _encoder(seed=11)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(4, 6))
    base = embed_batch(pts, BatchLayout(2, 2), enc).copy()
    pts2 = pts.copy()
    pts2[3] += 10.0
    out = embed_batch(pts2, BatchLayout(2, 2), enc)
    assert np.array_equal(out[:3], base[:3])  # rows 0..2 bit-identical


def test_layout_mismatch():
    with pytest.raises(LayoutError):
        embed_batch(np.zeros((5, 6)), BatchLayout(2, 3), _encoder())


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_depth_variants_pass_grad_check(depth):
    enc = _encoder(k=16, depth=depth, seed=depth)
    rng = np.random.default_rng(20 + depth)
    x = rng.normal(size=(3, 6))
    y = np.array([0, 4, 9])

    def loss_fn():
        for p in enc.params():
            p.zero_grad()
        out = enc.forward(x)
        loss, d = softmax_cross_entropy(out[:, :10], y)
        dout = np.zeros_like(out)
        dout[:, :10] = d
        enc.backward(dout)
        return loss

    report = grad_check(loss_fn, enc.params(), tol=1e-5, samples_per_param=25,
                        rng=np.random.default_rng(depth))
    assert report.passed, report


@pytest.mark.parametrize("tap", [0, 1])
def test_tapped_grad_injection_matches_fd(tap):
    # gradient arriving at a tapped hidden output (the segmentation tap is
    # 1) must be merged correctly with the main path; these inputs sit
    # 3.8e-3 or more off every ReLU kink, far past the FD step
    enc = _encoder(k=8, depth=3, seed=13)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 6))
    w_mix = rng.normal(size=(enc.layers[tap].dout,))

    def loss_fn():
        for p in enc.params():
            p.zero_grad()
        out = enc.forward(x, tap=tap)
        loss = float(out.sum() + (enc.tapped @ w_mix).sum())
        enc.backward(np.ones_like(out), d_tapped=np.tile(w_mix, (2, 1)))
        return loss

    loss_fn()
    ana = enc.layers[0].w.grad.copy()
    fd = numeric_grad(loss_fn, enc.layers[0].w.value)
    np.testing.assert_allclose(ana, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("depth,tap", [(depth, tap) for depth in (2, 3, 4, 5)
                                       for tap in range(depth - 1)])
def test_d_tapped_after_forward_without_tap_raises(depth, tap):
    enc = _encoder(k=8, depth=depth)
    x = np.random.default_rng(0).normal(size=(3, 5, 6))
    out = enc.forward(x, tap=tap)
    d_tapped = np.ones_like(enc.tapped)
    enc.forward(x)
    assert enc.tapped is None
    with pytest.raises(RuntimeError, match="d_tapped after a forward "
                       "without a tap"):
        enc.backward(np.ones_like(out), d_tapped=d_tapped)
    # nothing was accumulated before the error
    assert not any(p.grad.any() for p in enc.params())


@pytest.mark.parametrize("tap", [-1, 2, 3])
def test_tap_out_of_range_rejected(tap):
    with pytest.raises(ValueError, match="tap must be 0..1"):
        _encoder(depth=3).forward(np.zeros((2, 6)), tap=tap)


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        Encoder(6, depth=6)


@given(dtype=st.sampled_from([np.float32, np.float64]),
       depth=st.integers(1, 5), din=st.sampled_from([3, 6]),
       m=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_per_point_forward_is_byte_equal_to_reference(dtype, depth, din, m,
                                                      seed):
    """A (m, din) batch runs as m one-point clouds through the pooled
    pass; its embeddings, and the hidden activation at every tap, keep the
    bytes of the old per-point path. Inputs include -0.0, which the mean
    over one point turns into +0.0 before the last layer."""
    rng = np.random.default_rng(seed)
    enc = Encoder(din, k=16, depth=depth, rng=rng, dtype=dtype)
    x = rng.uniform(-1, 1, size=(m, din)).astype(dtype)
    x[rng.random((m, din)) < 0.1] = -0.0
    out, hidden = reference_point_encoder(enc, x)
    got = enc.forward(x)
    assert got.dtype == out.dtype and got.tobytes() == out.tobytes()
    assert enc.tapped is None
    assert len(enc.relus) == len(hidden)
    for tap, h in enumerate(hidden):
        assert enc.forward(x, tap=tap).tobytes() == out.tobytes(), tap
        assert enc.tapped.tobytes() == h.tobytes(), tap


def test_empty_batch_rejected():
    for x in (np.zeros((0, 6)), np.zeros((0, 4, 6)), np.zeros((2, 0, 6))):
        with pytest.raises(EmptyCloudError):
            _encoder().forward(x)
