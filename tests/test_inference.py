"""Forward passes inside numcore.inference(): the classifier's encoder
streams its per-point layers over blocks of whole clouds and keeps nothing
for backward. The outputs must be byte-equal to the cached forward that
training runs, and a use of the missing caches must fail loudly."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from penet import numcore
from penet.data import PointCloud
from penet.encoder import STREAM_ROWS
from penet.errors import DataError, DimensionError
from penet.models import Classifier, Segmenter
from penet.numcore import Adam, inference, softmax_cross_entropy
from penet.train import (_eval_batches, evaluate_classification,
                         evaluate_segmentation)

# rows per example at most: past two blocks, and quick at depth 5
MAX_ROWS = 2 * STREAM_ROWS + 104


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       depth=st.integers(1, 5), din=st.sampled_from([3, 6]),
       n=st.integers(1, STREAM_ROWS + 52), bs=st.integers(1, 40))
# one-cloud blocks; a partial last block (blocks of 2, 2, 1); one block of
# 40 one-point clouds; one cloud larger than a block
@example(dtype=np.float32, depth=3, din=6, n=STREAM_ROWS + 1, bs=2)
@example(dtype=np.float64, depth=5, din=3, n=700, bs=5)
@example(dtype=np.float32, depth=2, din=3, n=1, bs=40)
@example(dtype=np.float32, depth=3, din=6, n=2 * STREAM_ROWS + 4, bs=1)
def test_inference_forward_is_byte_equal_to_cached(dtype, depth, din, n, bs):
    bs = min(bs, max(1, MAX_ROWS // n))
    model = Classifier(din, 3, k=16, depth=depth, seed=depth, dtype=dtype)
    x = np.random.default_rng(n * bs).uniform(
        -1, 1, size=(bs, n, din)).astype(dtype)
    # the feature of a training forward, which does not stream
    logits = model.forward(x)
    feat = model.pool.forward(model.encoder.forward(x))
    with inference():
        streamed_logits = model.forward(x)
        streamed_feat = model.global_features(x)
    assert not numcore.inference_enabled()
    assert streamed_logits.dtype == logits.dtype
    assert streamed_logits.tobytes() == logits.tobytes()
    assert streamed_feat.tobytes() == feat.tobytes()


def _classifier():
    return Classifier(din=6, num_classes=4, k=64, depth=3, seed=0)


def _batch(bs=3, n=900, seed=0):
    # 3 x 900 rows: blocks of 2 clouds and 1
    return np.random.default_rng(seed).uniform(
        -1, 1, size=(bs, n, 6)).astype(np.float32)


def test_backward_after_inference_forward_raises():
    model = _classifier()
    x = _batch()
    with inference():
        logits = model.forward(x)
    with pytest.raises(RuntimeError, match="after an inference forward"):
        model.backward(np.ones_like(logits))
    # nothing was accumulated before the error
    assert not any(p.grad.any() for p in model.params())
    # the streamed forward kept no per-point activation
    assert model.encoder.tapped is None
    # a forward outside the switch caches again
    model.backward(np.ones_like(model.forward(x)))
    for tap, width in enumerate([64, 128]):
        model.encoder.forward(x, tap=tap)
        assert model.encoder.tapped.shape == (3 * 900, width)


def test_segmenter_never_streams():
    model = Segmenter(din=6, num_parts=3, k=64, depth=3, seed=0)
    x = _batch()
    logits = model.forward(x)
    with inference():
        inferred = model.forward(x)
    assert inferred.tobytes() == logits.tobytes()
    assert model.encoder.tapped.shape == (3 * 900, 128)
    with pytest.raises(RuntimeError, match="inference forward"):
        model.backward(np.ones_like(inferred))
    # a tapped forward runs as one block inside the switch too, at any tap
    for tap, width in enumerate([64, 128]):
        out = model.encoder.forward(x, tap=tap)
        tapped = model.encoder.tapped
        with inference():
            assert model.encoder.forward(x, tap=tap).tobytes() == out.tobytes()
        assert model.encoder.tapped.shape == (3 * 900, width)
        assert model.encoder.tapped.tobytes() == tapped.tobytes()


def test_segmenter_global_features_streams():
    # a forward feeds the head its feature; global_features inside the
    # switch streams, keeps no tap and returns the same bytes
    model = Segmenter(din=6, num_parts=3, k=64, depth=3, seed=0)
    x = _batch()
    fed, head_forward = [], model.head.forward

    def recording_head(local, feat):
        fed.append(feat)
        return head_forward(local, feat)
    model.head.forward = recording_head
    model.forward(x)
    with inference():
        model.forward(x)
        feat = model.global_features(x)
    assert model.encoder.tapped is None
    assert feat.tobytes() == fed[0].tobytes() == fed[1].tobytes()


def _train_step(model, x, y):
    """One forward, backward and Adam step; returns the gradient norm."""
    model.zero_grads()
    loss, dlogits = softmax_cross_entropy(model.forward(x), y)
    model.backward(dlogits)
    Adam().step(model.params())
    return sum(float(np.abs(p.grad).sum()) for p in model.params())


def test_switch_restored_when_forward_raises():
    model = _classifier()
    with pytest.raises(DimensionError):
        with inference():
            model.forward(np.zeros((2, 5, 3), dtype=np.float32))
    assert not numcore.inference_enabled()
    with inference():
        with inference():
            pass
        assert numcore.inference_enabled()
    assert not numcore.inference_enabled()

    class Failing:
        def forward(self, x):
            raise DataError("model failed")
    clouds = [PointCloud(np.eye(3), class_label=0)]
    with pytest.raises(DataError, match="model failed"):
        evaluate_classification(Failing(), clouds, 3)
    assert not numcore.inference_enabled()


def test_switch_off_while_eval_batches_suspended():
    # a consumer runs its own code between batches, training included
    clouds = [PointCloud(np.eye(3), class_label=0)] * 3
    model = Classifier(din=3, num_classes=2, k=16, depth=3, seed=0)
    batches = _eval_batches(model, clouds, [3], batch_size=2)
    for _ in range(2):
        next(batches)
        assert not numcore.inference_enabled()


def test_switch_off_after_evaluation_error_then_training_works():
    # the DataError is raised by evaluate_segmentation while the batch
    # generator is suspended after a yield
    rng = np.random.default_rng(0)
    clouds = [PointCloud(rng.normal(size=(16, 3)),
                         part_labels=np.arange(16) % 3, class_label=0)
              for _ in range(4)]
    seg = Segmenter(din=3, num_parts=3, k=16, depth=3, seed=0)
    with pytest.raises(DataError, match="outside category 0"):
        evaluate_segmentation(seg, clouds, 16, parts_by_category={0: [0, 1]})
    assert not numcore.inference_enabled()
    model = _classifier()
    with inference():
        model.forward(_batch())
    assert _train_step(model, _batch(), np.array([0, 1, 2])) > 0
