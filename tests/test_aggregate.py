import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from penet.aggregate import GlobalPool, mean_pool, min_max_normalize, sum_pool
from penet.encoder import Encoder
from penet.errors import DimensionError, EmptyCloudError

from oracles import ReferenceGlobalPool, numeric_grad


def test_sum_pool_columnwise():
    np.testing.assert_array_equal(
        sum_pool(np.array([[1.0, 2.0], [3.0, 4.0]])), [4.0, 6.0])


def test_single_point_is_a_cloud():
    row = np.array([[0.5, -1.0, 2.0]])
    np.testing.assert_array_equal(sum_pool(row), row[0])
    np.testing.assert_array_equal(mean_pool(row), row[0])


def test_sum_pool_additivity_over_union():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 16))
    b = rng.normal(size=(5, 16))
    lhs = sum_pool(np.concatenate([a, b]))
    rhs = sum_pool(a) + sum_pool(b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_empty_cloud_rejected():
    for fn in (sum_pool, mean_pool):
        with pytest.raises(EmptyCloudError):
            fn(np.zeros((0, 4)))
    # the models take each cloud's mean in the encoder, before GlobalPool
    with pytest.raises(EmptyCloudError):
        Encoder(4, k=9).forward(np.zeros((2, 0, 4)))
    with pytest.raises(DimensionError):
        GlobalPool().forward(np.zeros((2, 1, 4)))


def test_mean_pool_examples():
    np.testing.assert_array_equal(
        mean_pool(np.array([[1.0, 2.0], [3.0, 4.0]])), [2.0, 3.0])
    rows = np.tile([1.5, -2.0, 0.25], (6, 1))
    np.testing.assert_allclose(mean_pool(rows), rows[0], atol=1e-7)


def test_mean_is_sum_over_n():
    rng = np.random.default_rng(1)
    e = rng.normal(size=(9, 8))
    np.testing.assert_allclose(mean_pool(e), sum_pool(e) / 9, atol=1e-7)


def test_min_max_normalize_examples():
    np.testing.assert_allclose(
        min_max_normalize(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(
        min_max_normalize(np.array([5.0, 5.0, 5.0])), [0.0, 0.0, 0.0])


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=30, deadline=None)
def test_min_max_normalize_affine_invariant(seed, c, d):
    v = np.random.default_rng(seed).normal(size=12)
    np.testing.assert_allclose(min_max_normalize(c * v + d),
                               min_max_normalize(v), atol=1e-6)


def test_global_feature_examples():
    e = np.array([[0.0, 1.0]])
    np.testing.assert_array_equal(min_max_normalize(mean_pool(e)), [0.0, 1.0])
    np.testing.assert_array_equal(GlobalPool().forward(mean_pool(e)[None]),
                                  [[0.0, 1.0]])
    e = np.array([[1.0, 4.0, 2.0], [3.0, 0.0, 2.0]])      # mean [2, 2, 2]
    np.testing.assert_array_equal(min_max_normalize(mean_pool(e)), [0, 0, 0])
    np.testing.assert_array_equal(
        GlobalPool().forward(mean_pool(e)[None]), [[0, 0, 0]])


def test_global_feature_duplication_invariant():
    rng = np.random.default_rng(2)
    e = rng.normal(size=(5, 10))
    doubled = np.concatenate([e, e])
    np.testing.assert_allclose(min_max_normalize(mean_pool(doubled)),
                               min_max_normalize(mean_pool(e)), atol=1e-6)
    np.testing.assert_allclose(GlobalPool().forward(mean_pool(doubled)[None]),
                               GlobalPool().forward(mean_pool(e)[None]),
                               atol=1e-6)


def test_sum_and_mean_reconcile_after_normalization():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(11, 20))
    np.testing.assert_allclose(min_max_normalize(mean_pool(e)),
                               min_max_normalize(sum_pool(e)), atol=1e-6)


def test_global_feature_range():
    rng = np.random.default_rng(4)
    e = rng.normal(size=(3, 30, 50))
    for feat in [min_max_normalize(mean_pool(e[0])),
                 *GlobalPool().forward(e.mean(axis=1))]:
        assert feat.min() == 0.0
        assert feat.max() == 1.0
        assert ((feat >= 0) & (feat <= 1)).all()


def test_global_pool_forward_matches_functional():
    rng = np.random.default_rng(5)
    e = rng.normal(size=(3, 7, 9))
    pool = GlobalPool()
    out = pool.forward(e.mean(axis=1))
    for i in range(3):
        np.testing.assert_allclose(out[i], min_max_normalize(mean_pool(e[i])),
                                   atol=1e-12)


def test_global_pool_degenerate_rows_are_zero():
    pool = GlobalPool()
    out = pool.forward(np.ones((2, 5)))
    assert not out.any()
    assert not pool.backward(np.ones((2, 5))).any()


def test_global_pool_backward_matches_fd():
    rng = np.random.default_rng(6)
    e = rng.normal(size=(2, 6))
    w = rng.normal(size=6)
    pool = GlobalPool()

    def loss_fn():
        return float(pool.forward(e) @ w @ np.ones(2))

    loss_fn()
    ana = pool.backward(np.tile(w, (2, 1)))
    fd = numeric_grad(loss_fn, e)
    np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-8)


def _pool_rows(rng, bs, k, levels, dtype):
    """(bs, k) rows that are either continuous or drawn from ``levels``
    values, so rows tie at their min and max, or are all equal when
    levels is 1. Adding +0.0 turns -0.0 into +0.0: the old pool's mean over
    a length-1 axis did the same, and a Linear output with a +0.0 bias is
    never -0.0."""
    tied = rng.integers(0, levels, size=(bs, k)) * rng.normal(size=(bs, 1))
    m = np.where(rng.random((bs, 1)) < 0.5, tied, rng.normal(size=(bs, k)))
    return (m + 0.0).astype(dtype)


def _assert_pool_matches_reference(m, dout):
    """The (bs, k) pool against the old (bs, N, k) pool at N = 1: forward
    and backward bytes."""
    pool, ref = GlobalPool(), ReferenceGlobalPool()
    out, ref_out = pool.forward(m), ref.forward(m[:, None, :])
    assert out.dtype == ref_out.dtype == m.dtype
    assert out.tobytes() == ref_out.tobytes()
    grad, ref_grad = pool.backward(dout), ref.backward(dout)[:, 0]
    assert grad.dtype == ref_grad.dtype
    assert grad.tobytes() == ref_grad.tobytes()


@given(dtype=st.sampled_from([np.float32, np.float64]),
       bs=st.integers(1, 8), k=st.integers(1, 12), levels=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_global_pool_is_byte_equal_to_reference(dtype, bs, k, levels, seed):
    rng = np.random.default_rng(seed)
    _assert_pool_matches_reference(_pool_rows(rng, bs, k, levels, dtype),
                                   rng.normal(size=(bs, k)).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_global_pool_tied_rows_are_byte_equal_to_reference(dtype):
    # ties at both ends, an all-equal row, ties at the max; then one column
    m = np.array([[1, 3, 1, 3], [2, 2, 2, 2], [0, 5, 5, 0], [-1, 4, 4, 4]],
                 dtype=dtype)
    dout = np.random.default_rng(10).normal(size=m.shape).astype(dtype)
    _assert_pool_matches_reference(m, dout)
    _assert_pool_matches_reference(m[:, :1].copy(), dout[:, :1].copy())
