"""The benchmark wraps every layer object's forward and backward from
outside the package (bench/spans.py); a layer whose calls its wrappers
cannot record breaks the traced benchmark run. This checks the wrappers
on tiny models, importing bench/spans.py as it is."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import penet.numcore
from penet.models import Classifier, Segmenter

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_wrapped_layers_record_forward_and_backward(spans, task):
    if task == "classify":
        model = Classifier(din=6, num_classes=4, k=64, depth=3, seed=0)
        dlogits_shape = (2, 4)
    else:
        model = Segmenter(din=6, num_parts=3, k=64, depth=3, seed=0)
        dlogits_shape = (2, 5, 3)
    tracer = spans.Tracer()
    spans.wrap_model(model, tracer, penet.numcore)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(2, 5, 6)).astype(np.float32)
    model.forward(x)
    model.backward(rng.normal(size=dlogits_shape).astype(np.float32))

    names = [name for name, _ in spans.layer_objects(model)]
    if task == "segment":
        assert "seg.fc1" in names
    recorded = {span.name for span in tracer.spans}
    for name in names:
        for method in ("forward", "backward"):
            assert f"{name}.{method}" in recorded, (name, method)


def test_classifier_span_names_unchanged(spans):
    """The benchmark declares per-layer metrics under these names, so the
    classifier's layer objects must keep them whatever order they run in."""
    model = Classifier(din=6, num_classes=4, k=64, depth=3, seed=0)
    assert [name for name, _ in spans.layer_objects(model)] == [
        "models", "encoder", "encoder.layer1", "encoder.layer2",
        "encoder.layer3", "encoder.relus.0", "encoder.relus.1",
        "aggregate.GlobalPool", "head", "head.conv1", "head.relu1",
        "head.pool1", "head.conv2", "head.relu2", "head.pool2", "head.fc1",
        "head.relu3", "head.fc2"]
