"""The benchmark wraps every layer object's forward and backward from
outside the package (bench/spans.py); a layer whose calls its wrappers
cannot record breaks the traced benchmark run. This checks the wrappers
on tiny models, importing bench/spans.py as it is."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import penet.numcore
from penet.models import Classifier, Segmenter

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


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


@pytest.fixture(scope="module")
def expected_spans():
    """bench/run.py's EXPECTED_SPANS. Importing run.py sets the BLAS thread
    variables and imports bench/host.py and bench/spans.py as top-level
    modules; all of that is undone."""
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            mp.setenv(var, os.environ.get(var, "1"))
        mp.syspath_prepend(str(BENCH))
        added = [m for m in ("host", "spans") if m not in sys.modules]
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        try:
            spec.loader.exec_module(module)
            yield module.EXPECTED_SPANS
        finally:
            for name in added:
                sys.modules.pop(name, None)


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


def test_segmenter_span_names_unchanged(spans):
    """train-seg's expected spans use these names, as the classifier's
    test above pins the names that train-cls and eval-sweep use."""
    model = Segmenter(din=6, num_parts=3, k=64, depth=3, seed=0)
    assert [name for name, _ in spans.layer_objects(model)] == [
        "models", "encoder", "encoder.layer1", "encoder.layer2",
        "encoder.layer3", "encoder.relus.0", "encoder.relus.1",
        "aggregate.GlobalPool", "seg", "seg.fc1", "seg.relu1", "seg.fc2",
        "seg.relu2", "seg.fc3"]


def test_inference_forward_records_eval_sweep_spans(spans, expected_spans):
    """eval-sweep runs the classifier inside numcore.inference(), where the
    encoder streams its per-point layers block by block; each block must
    still go through the layer objects the benchmark wraps."""
    model = Classifier(din=6, num_classes=4, k=64, depth=3, seed=0)
    tracer = spans.Tracer()
    spans.wrap_model(model, tracer, penet.numcore)
    # 3 clouds of 900 points: blocks of two clouds and one
    x = np.random.default_rng(0).uniform(
        -1, 1, size=(3, 900, 6)).astype(np.float32)
    with penet.numcore.inference():
        model.forward(x)
    recorded = [span.name for span in tracer.spans]
    forward_spans = [name for name in expected_spans["eval-sweep"]
                     if name.endswith(".forward")]
    assert "encoder.relus.1.forward" in forward_spans
    for name in forward_spans:
        assert name in recorded, name
    for name in ("encoder.layer1", "encoder.layer2", "encoder.relus.0",
                 "encoder.relus.1"):
        assert recorded.count(f"{name}.forward") == 2, name
    assert recorded.count("encoder.layer3.forward") == 1
