import numpy as np
import pytest

from penet.errors import DimensionError, EmptyCloudError
from penet.models import Classifier, Segmenter
from penet.numcore import grad_check, softmax_cross_entropy

from oracles import unpooled_pass

CASES = [("classify", d) for d in (1, 2, 3, 4, 5)] + \
        [("segment", d) for d in (3, 4, 5)]


def _model(task, depth, seed=0):
    if task == "classify":
        return Classifier(din=6, num_classes=4, k=64, depth=depth,
                          seed=seed, dtype=np.float64)
    return Segmenter(din=6, num_parts=3, k=64, depth=depth, seed=seed,
                     dtype=np.float64)


@pytest.mark.parametrize("bs", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("task,depth", CASES)
def test_pooled_pass_matches_per_point_reference(task, depth, n, bs):
    # the model pools before the encoder's last Linear; the reference
    # builds every point's k-dim embedding first and pools after it
    model = _model(task, depth, seed=depth)
    rng = np.random.default_rng(1000 * depth + 10 * n + bs)
    x = rng.uniform(-1, 1, size=(bs, n, 6))
    out_shape = (bs, 4) if task == "classify" else (bs, n, 3)
    dlogits = rng.normal(size=out_shape)

    ref_logits, ref_grads = unpooled_pass(model, x, dlogits)
    model.zero_grads()
    logits = model.forward(x)
    model.backward(dlogits)

    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-10)
    for p in model.params():
        np.testing.assert_allclose(p.grad, ref_grads[p.name], rtol=0,
                                   atol=1e-10, err_msg=p.name)


def test_encoder_pooled_output_is_mean_embedding():
    model = _model("classify", 3)
    x = np.random.default_rng(2).uniform(-1, 1, size=(2, 5, 6))
    pooled = model.encoder.forward(x)
    per_point = model.encoder.forward(x.reshape(10, 6)).reshape(2, 5, 64)
    assert pooled.shape == (2, 64)
    np.testing.assert_allclose(pooled, per_point.mean(axis=1), atol=1e-12)


def test_global_features_match_forward_input():
    model = _model("classify", 3)
    x = np.random.default_rng(3).uniform(-1, 1, size=(2, 9, 6))
    feat = model.global_features(x)
    assert feat.shape == (2, 64)
    assert feat.min() == 0.0 and feat.max() == 1.0
    np.testing.assert_array_equal(
        model.head.forward(feat.reshape(2, 1, 8, 8)), model.forward(x))


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_models_reject_bad_shapes(task):
    model = _model(task, 3)
    with pytest.raises(DimensionError, match="expects"):
        model.forward(np.zeros((2, 5, 3)))
    with pytest.raises(DimensionError, match="expects"):
        model.forward(np.zeros((10, 6)))
    with pytest.raises(EmptyCloudError):
        model.forward(np.zeros((2, 0, 6)))


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_segmenter_grad_check(depth):
    # inputs near a tied min/max of the pooled feature are excluded, as in
    # the acceptance gradient check: the normalization has a kink there
    model = _model("segment", depth, seed=depth)
    x = None
    for input_seed in range(100 + depth, 200 + depth):
        cand = np.random.default_rng(input_seed).uniform(-1, 1, size=(2, 5, 6))
        pooled = model.encoder.forward(
            cand.reshape(10, 6)).reshape(2, 5, 64).mean(axis=1)
        srt = np.sort(pooled, axis=1)
        if (srt[:, 1] - srt[:, 0] > 1e-3).all() and \
                (srt[:, -1] - srt[:, -2] > 1e-3).all():
            x = cand
            break
    assert x is not None
    y = np.random.default_rng(depth).integers(0, 3, size=10)

    def loss_fn():
        model.zero_grads()
        logits = model.forward(x)
        loss, d = softmax_cross_entropy(logits.reshape(10, 3), y)
        model.backward(d.reshape(logits.shape))
        return loss

    report = grad_check(loss_fn, model.params(), tol=1e-5, eps=1e-7,
                        samples_per_param=15, denom_floor=1e-3,
                        rng=np.random.default_rng(depth))
    assert report.passed, report
