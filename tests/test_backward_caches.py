"""Inside numcore.inference() no layer keeps a backward cache: a forward
there stores None where a training forward stores its inputs, so a
backward after it raises instead of reading a stale training cache, and
training after it computes the same bits."""

import numpy as np
import pytest

from penet import numcore
from penet.aggregate import GlobalPool
from penet.data import PointCloud
from penet.encoder import Encoder
from penet.heads import ClassHead, SegHead, SplitLinear
from penet.models import Classifier, Segmenter
from penet.numcore import inference, softmax_cross_entropy
from penet.train import TrainConfig, train

# every layer type the models use, with the attributes its backward reads
CACHES = {
    numcore.Linear: ("_x",),
    numcore.ReLU: ("_out",),
    numcore.Conv2d: ("_cols",),
    numcore.MaxPool2d: ("_x", "_out"),
    GlobalPool: ("_cache",),
    SplitLinear: ("_local", "_glob"),
}
# layer stacks that hold the layers above
CONTAINERS = (Encoder, ClassHead, SegHead)

MODELS = {
    "classify": lambda: Classifier(din=6, num_classes=4, k=64, depth=3,
                                   seed=0),
    "segment": lambda: Segmenter(din=6, num_parts=3, k=64, depth=3, seed=0),
}

# the one error of a backward without its own training forward
STALE = ("{}.backward after an inference forward, global_features, another "
         "backward or no forward")


def _layers(model):
    """Every layer object below the model, found through its attributes."""
    found, stack = {}, [model]
    while stack:
        for val in vars(stack.pop()).values():
            for obj in val if isinstance(val, list) else [val]:
                if callable(getattr(obj, "forward", None)) \
                        and id(obj) not in found:
                    found[id(obj)] = obj
                    stack.append(obj)
    return list(found.values())


def _caches(model):
    """(layer type, attribute, value) for every backward cache."""
    caches = []
    for layer in _layers(model):
        if isinstance(layer, CONTAINERS):
            continue
        assert type(layer) in CACHES, f"no cache entry for {type(layer)}"
        caches += [(type(layer).__name__, attr, getattr(layer, attr))
                   for attr in CACHES[type(layer)]]
    return caches


def _batch(seed=0, bs=3, n=900):
    # 3 x 900 rows: the classifier's encoder streams blocks of 2 clouds and 1
    return np.random.default_rng(seed).uniform(
        -1, 1, size=(bs, n, 6)).astype(np.float32)


@pytest.mark.parametrize("task", sorted(MODELS))
def test_inference_forward_keeps_no_backward_cache(task):
    model = MODELS[task]()
    model.forward(_batch())
    caches = _caches(model)
    assert len(caches) >= 10
    assert all(value is not None for _, _, value in caches)
    with inference():
        model.forward(_batch())
    assert [(t, a) for t, a, value in _caches(model) if value is not None] \
        == []
    # only the segmenter's own tap is kept: its head reads it in the forward
    assert (model.encoder.tapped is None) == (task == "classify")
    # so is a tap at any hidden layer, and still no cache
    for tap in range(model.depth - 1):
        with inference():
            model.encoder.forward(_batch(), tap=tap)
        assert model.encoder.tapped is not None
        assert all(value is None for _, _, value in _caches(model))
    for layer in _layers(model):
        if not isinstance(layer, CONTAINERS):
            with pytest.raises(RuntimeError,
                               match="after an inference forward"):
                layer.backward(np.zeros(1, dtype=np.float32))


@pytest.mark.parametrize("task", sorted(MODELS))
@pytest.mark.parametrize("inferred", ["forward", "global_features"])
def test_backward_after_interleaved_inference_forward_raises(task, inferred):
    model = MODELS[task]()
    logits = model.forward(_batch())
    with inference():
        getattr(model, inferred)(_batch(seed=1))
    name = type(model).__name__
    with pytest.raises(RuntimeError,
                       match=f"{name}.backward after an inference forward"):
        model.backward(np.ones_like(logits))
    assert not any(p.grad.any() for p in model.params())


@pytest.mark.parametrize("task", sorted(MODELS))
@pytest.mark.parametrize("bs", [3, 5])
def test_backward_after_global_features_raises(task, bs):
    # global_features is an inference forward: it drops the encoder's and
    # GlobalPool's caches but leaves the head's, which at bs = 3 have the
    # shapes of a fresh forward's
    model = MODELS[task]()
    logits = model.forward(_batch())
    model.global_features(_batch(seed=1, bs=bs))
    name = type(model).__name__
    with pytest.raises(RuntimeError, match=STALE.format(name)):
        model.backward(np.ones_like(logits))
    assert not any(p.grad.any() for p in model.params())
    # the next forward makes backward valid again
    model.backward(np.ones_like(model.forward(_batch())))
    assert any(p.grad.any() for p in model.params())


def _before_any_forward(model):
    pass


def _after_inference_forward(model):
    model.forward(_batch(seed=1))
    with inference():
        model.forward(_batch(seed=2))


def _after_global_features(model):
    model.forward(_batch(seed=1))
    model.global_features(_batch(seed=2))


def _second_backward(model):
    pass                              # the warm-up's backward was the first


@pytest.mark.parametrize("task", sorted(MODELS))
@pytest.mark.parametrize("case", [_before_any_forward,
                                  _after_inference_forward,
                                  _after_global_features, _second_backward])
def test_each_backward_needs_its_own_training_forward(task, case):
    model = MODELS[task]()
    dlogits = np.ones_like(MODELS[task]().forward(_batch()))
    if case is not _before_any_forward:
        # one training step first, so that any gradient it adds to shows
        model.forward(_batch())
        model.backward(dlogits)
    case(model)
    grads = [p.grad.tobytes() for p in model.params()]
    with pytest.raises(RuntimeError, match=STALE.format(type(model).__name__)):
        model.backward(dlogits)
    assert [p.grad.tobytes() for p in model.params()] == grads
    # one forward makes one backward valid again
    model.backward(np.ones_like(model.forward(_batch())))
    assert [p.grad.tobytes() for p in model.params()] != grads


@pytest.mark.parametrize("task", sorted(MODELS))
def test_global_features_is_an_inference_forward(task):
    model = MODELS[task]()
    x = _batch()
    feat = model.global_features(x)
    assert not numcore.inference_enabled()
    assert [(t, a) for t, a, value in _caches(model) if value is not None] \
        == []
    assert model.encoder.tapped is None
    with inference():
        assert model.global_features(x).tobytes() == feat.tobytes()


def _grads(model, x, labels):
    model.zero_grads()
    logits = model.forward(x)
    _, dflat = softmax_cross_entropy(logits.reshape(-1, logits.shape[-1]),
                                     labels)
    model.backward(dflat.reshape(logits.shape))
    return [p.grad.tobytes() for p in model.params()]


@pytest.mark.parametrize("task", sorted(MODELS))
def test_training_after_inference_forward_is_byte_identical(task):
    x = _batch()
    labels = np.arange(x.shape[0] * (x.shape[1] if task == "segment" else 1)
                       ) % 3
    plain = _grads(MODELS[task](), x, labels)
    model = MODELS[task]()
    model.forward(x)
    with inference():
        model.forward(_batch(seed=1))
        model.global_features(_batch(seed=2, bs=5, n=40))
    assert _grads(model, x, labels) == plain


def _clouds(n, seed):
    rng = np.random.default_rng(seed)
    return [PointCloud(rng.normal(size=(32, 3)),
                       part_labels=rng.integers(0, 3, size=32),
                       class_label=i % 2) for i in range(n)]


@pytest.mark.parametrize("task", sorted(MODELS))
def test_validation_does_not_change_training(task):
    # each epoch's validation runs inference forwards between training steps
    clouds = _clouds(12, seed=0)
    cfg = TrainConfig(task=task, epochs=2, batch_size=4, n_points=24, k=64)
    alone, _ = train(clouds, cfg)
    validated, log = train(clouds, cfg, val_clouds=_clouds(5, seed=1))
    assert all(np.isfinite(row[3]) for row in log)
    assert [p.value.tobytes() for p in validated.params()] \
        == [p.value.tobytes() for p in alone.params()]
