import hashlib
import itertools

import numpy as np
import pytest

from penet.errors import DimensionError, EmptyCloudError
from penet.models import Classifier, Segmenter
from penet.numcore import grad_check, inference, softmax_cross_entropy
from penet.train import save_checkpoint

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


def _leaf_layers(model):
    """Every layer object below the model that holds no layer itself."""
    found, stack, leaves = set(), [model], []
    while stack:
        obj = stack.pop()
        children = [c for val in vars(obj).values()
                    for c in (val if isinstance(val, list) else [val])
                    if callable(getattr(c, "forward", None))]
        if obj is not model and not children:
            leaves.append(obj)
        for child in children:
            if id(child) not in found:
                found.add(id(child))
                stack.append(child)
    return leaves


def test_layer_calls_go_through_the_runners(monkeypatch):
    """Both models' forward, backward and global_features, in training and
    inside inference(), call every layer through numcore.forward_layers or
    backward_layers, except three: the encoder's last Linear, which maps
    the per-cloud means, GlobalPool, and SplitLinear seg.fc1, which takes
    two inputs."""
    from penet import encoder, heads
    running = []                  # layer lists of the runner calls open

    def runner(run):
        def wrapped(layers, x):
            running.append(layers)
            try:
                return run(layers, x)
            finally:
                running.pop()
        return wrapped
    for module in (encoder, heads):
        for name in ("forward_layers", "backward_layers"):
            monkeypatch.setattr(module, name, runner(getattr(module, name)))

    def record(layer, method, calls):
        call = getattr(layer, method)

        def recorded(*args, **kwargs):
            through = bool(running) and any(f is layer for f in running[-1])
            calls.append((id(layer), through))
            return call(*args, **kwargs)
        setattr(layer, method, recorded)

    for task in ("classify", "segment"):
        model = _model(task, 3)
        leaves, calls = _leaf_layers(model), []
        for layer, method in itertools.product(leaves, ("forward", "backward")):
            record(layer, method, calls)
        x = np.random.default_rng(4).uniform(-1, 1, size=(3, 900, 6))
        model.backward(np.ones_like(model.forward(x)))
        model.global_features(x)
        with inference():
            model.forward(x)
            model.global_features(x)
        direct = [model.encoder.layers[-1], model.pool]
        if task == "segment":
            direct.append(model.head.fc1)
        assert {i for i, _ in calls} == {id(f) for f in leaves}
        assert {i for i, through in calls if not through} == \
            {id(f) for f in direct}


# sha256 of same-seed untrained checkpoints, recorded before Classifier and
# Segmenter shared one model body. They pin the parameter names, the RNG
# draw order and the metadata bytes. Untrained weights are seeded uniform
# draws cast to float32 and involve no BLAS, so the bytes are the same on
# every host.
_PINNED_CHECKPOINTS = [
    (Classifier, dict(din=6, num_classes=4, k=64, depth=1, seed=7),
     "14a1c0cc6e87937f1cf18ec3f9bb88066335ef25c076f59d5f87b2218875d7ee"),
    (Classifier, dict(din=6, num_classes=4, k=64, depth=3, seed=7),
     "83d64f5f897dc7bd1769af9f8997a8041e54a6db8914fdabb99996972db6963a"),
    (Classifier, dict(din=6, num_classes=4, k=64, depth=5, seed=7),
     "eaff71971e4db285833a309746ae149a82838e64cbf8194a6e4f4f9358f5b371"),
    (Segmenter, dict(din=6, num_parts=5, k=64, depth=3, seed=7),
     "27b17272f78dd65d4ab44ea9f31bcc02836daa67259c15962b61ee212cd562c3"),
    (Segmenter, dict(din=6, num_parts=5, k=64, depth=5, seed=7),
     "4a758d5faee0ef50356a6534fd7cd13c5b983588da5f3485303b8c2e178dbdfd"),
    (Classifier, dict(din=3, num_classes=10),
     "7b04619c185c2e704d1f3db006d7d203477beab5a5380248446b9ae6b82cdcbe"),
    (Segmenter, dict(din=3, num_parts=4),
     "90d6eb65a32f27b499b3d33a480bb0affa11d335aab36a61e9c9fd8b03d87a6f"),
]


@pytest.mark.parametrize("cls,kwargs,digest", _PINNED_CHECKPOINTS)
def test_untrained_checkpoint_bytes_pinned(tmp_path, cls, kwargs, digest):
    path = tmp_path / "model.ckpt"
    save_checkpoint(cls(**kwargs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("cls,kwargs", [
    (Classifier, dict(din=3, num_classes=4)),
    (Segmenter, dict(din=3, num_parts=4))])
def test_non_square_k_rejected_at_construction(cls, kwargs):
    with pytest.raises(DimensionError, match="1000 is not a perfect square"):
        cls(k=1000, **kwargs)


@pytest.mark.parametrize("model, depth, match", [
    (Classifier, True, "^encoder depth must be an integer, got True$"),
    (Classifier, 2.0, "^encoder depth must be an integer, got 2.0$"),
    (Classifier, 0, "^encoder depth must be >= 1, got 0$"),
    (Segmenter, 6, "^encoder depth must be <= 5, got 6$")])
def test_encoder_depth_is_checked_as_an_integer(model, depth, match):
    # True once built a depth-1 model whose checkpoint the loader rejected
    with pytest.raises(ValueError, match=match):
        model(3, 2, k=16, depth=depth)
