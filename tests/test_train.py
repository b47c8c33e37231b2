import importlib
import json
import struct
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penet.data import (AugmentConfig, PointCloud, canonical_start,
                        farthest_point_sample, load_dataset, sample_seed,
                        synth_shapes)
from penet.errors import (ConfigError, DataError, DimensionError, FormatError,
                          SamplingError)
from penet.heads import ClassHead
from penet.models import Classifier, Segmenter
from penet.numcore import Adam, Conv2d, MaxPool2d, ReLU
from penet.train import (MetricsReport, TrainConfig, category_parts,
                         evaluate_classification, evaluate_segmentation,
                         load_checkpoint, save_checkpoint, shape_miou,
                         sweep_point_count, train)

from oracles import (argmax_maxpool2d, gather_conv2d, naive_miou,
                     reference_adam_step, reference_augment,
                     reference_classification,
                     reference_prepare_batch, reference_segmentation,
                     reference_sweep, relu_then_pool_backward,
                     relu_then_pool_forward, where_relu)

# the package re-exports train(), which hides the penet.train module
train_module = importlib.import_module("penet.train")


def make_clouds(n, points_each=32, n_classes=2, seed=0, with_parts=False):
    rng = np.random.default_rng(seed)
    clouds = []
    for i in range(n):
        cls = i % n_classes
        pts = rng.normal(size=(points_each, 3)).astype(np.float32)
        pts[:, 2] += cls * 3.0          # classes separated along z
        parts = rng.integers(0, 3, size=points_each) if with_parts else None
        clouds.append(PointCloud(pts, part_labels=parts, class_label=cls))
    return clouds


# -- metrics ------------------------------------------------------------------

class FixedModel:
    """Stand-in model that returns canned logits, ignoring geometry."""

    task = "classify"

    def __init__(self, preds, n_classes):
        self.preds = list(preds)
        self.n_classes = n_classes
        self._cursor = 0

    def forward(self, x):
        bs = x.shape[0]
        out = np.zeros((bs, self.n_classes), dtype=np.float32)
        for i in range(bs):
            out[i, self.preds[self._cursor]] = 1.0
            self._cursor += 1
        return out


def test_classification_metrics_hand_example():
    # 4 class-A samples all correct, 1 class-B sample wrong
    clouds = [PointCloud(np.random.default_rng(i).normal(size=(8, 3)),
                         class_label=0) for i in range(4)]
    clouds.append(PointCloud(np.random.default_rng(9).normal(size=(8, 3)),
                             class_label=1))
    model = FixedModel([0, 0, 0, 0, 0], n_classes=2)
    report = evaluate_classification(model, clouds, 8)
    assert report.instance_accuracy == pytest.approx(0.8)
    assert report.class_accuracy == pytest.approx(0.5)


def test_classification_all_correct():
    clouds = make_clouds(6, n_classes=3)
    model = FixedModel([c.class_label for c in clouds], n_classes=3)
    report = evaluate_classification(model, clouds, 8)
    assert report.instance_accuracy == 1.0
    assert report.class_accuracy == 1.0


def test_classification_rejects_oversampling():
    clouds = make_clouds(2, points_each=16)
    model = FixedModel([0, 0], n_classes=2)
    with pytest.raises(SamplingError):
        evaluate_classification(model, clouds, 64)


def test_classification_order_invariant():
    clouds = make_clouds(40, n_classes=2, seed=3)
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=0)
    a = evaluate_classification(model, clouds, 16)
    b = evaluate_classification(model, clouds[::-1], 16)
    assert a.instance_accuracy == b.instance_accuracy
    assert a.class_accuracy == b.class_accuracy


# -- mIoU ---------------------------------------------------------------------

def test_shape_miou_hand_enumeration():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 1])
    assert shape_miou(gt, pred, [0, 1]) == pytest.approx(7 / 12)


def test_shape_miou_perfect_and_empty_union():
    gt = np.array([0, 1, 1])
    assert shape_miou(gt, gt, [0, 1]) == 1.0
    # part 2 absent from gt and pred: IoU 1 by convention
    assert shape_miou(gt, gt, [0, 1, 2]) == 1.0


@pytest.mark.parametrize("seed", range(100))
def test_shape_miou_matches_set_oracle(seed):
    rng = np.random.default_rng(seed)
    n_parts = int(rng.integers(2, 6))
    n = int(rng.integers(1, 20))
    gt = rng.integers(0, n_parts, size=n)
    pred = rng.integers(0, n_parts, size=n)
    parts = list(range(n_parts))
    assert shape_miou(gt, pred, parts) == pytest.approx(
        naive_miou(gt.tolist(), pred.tolist(), parts))


def test_evaluate_segmentation_end_to_end():
    clouds = make_clouds(6, points_each=24, n_classes=2, with_parts=True)
    model = Segmenter(din=3, num_parts=3, k=64, depth=3, seed=0)
    report = evaluate_segmentation(model, clouds, 24)
    assert report.mean_miou is not None
    assert 0.0 <= report.mean_miou <= 1.0
    assert set(report.per_category_miou) == {0, 1}


def test_category_parts_collects_gt_labels():
    clouds = make_clouds(4, points_each=16, n_classes=2, with_parts=True)
    parts = category_parts(clouds)
    assert set(parts) == {0, 1}
    assert all(p in (0, 1, 2) for v in parts.values() for p in v)


# -- checkpoints ----------------------------------------------------------------

def test_checkpoint_roundtrip_byte_identical(tmp_path):
    model = Classifier(din=3, num_classes=4, k=64, depth=3, seed=1)
    model.extra_meta["train_points"] = 16
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_predictions_bit_identical(tmp_path):
    model = Classifier(din=3, num_classes=4, k=64, depth=3, seed=2)
    x = np.random.default_rng(0).uniform(-1, 1, (3, 16, 3)).astype(np.float32)
    before = model.forward(x).copy()
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert np.array_equal(loaded.forward(x), before)


def test_checkpoint_truncation(tmp_path):
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTMAG" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["din", "k", "encoder_depth", "num_classes"])
def test_checkpoint_missing_metadata_key(tmp_path, key):
    model = Classifier(din=3, num_classes=2, k=64, depth=3)
    meta = {k: v for k, v in model.metadata().items() if k != key}
    model.metadata = lambda: meta
    save_checkpoint(model, tmp_path / "m.ckpt")
    with pytest.raises(FormatError, match=repr(key)):
        load_checkpoint(tmp_path / "m.ckpt")


@pytest.mark.parametrize("meta", [[1, 2], {"task": "segment", "din": 6,
                                           "num_parts": "3", "k": 64,
                                           "encoder_depth": 3}])
def test_checkpoint_malformed_metadata(tmp_path, meta):
    model = Segmenter(din=6, num_parts=3, k=64, depth=3)
    model.metadata = lambda: meta
    save_checkpoint(model, tmp_path / "m.ckpt")
    with pytest.raises(FormatError, match="metadata"):
        load_checkpoint(tmp_path / "m.ckpt")


def test_checkpoint_segmenter_roundtrip(tmp_path):
    model = Segmenter(din=6, num_parts=5, k=64, depth=3, seed=4)
    save_checkpoint(model, tmp_path / "s.ckpt")
    loaded = load_checkpoint(tmp_path / "s.ckpt")
    assert loaded.task == "segment"
    assert loaded.num_parts == 5


def _small_checkpoint(tmp_path) -> bytes:
    save_checkpoint(Classifier(din=3, num_classes=2, k=16, depth=1, seed=0),
                    tmp_path / "small.ckpt")
    return (tmp_path / "small.ckpt").read_bytes()


def _first_array_offset(raw: bytes) -> int:
    """Offset of the first array's name length: past magic, version,
    metadata and the array count."""
    (meta_len,) = struct.unpack("<I", raw[10:14])
    return 14 + meta_len + 4


def _put_u32(raw: bytes, offset: int, value: int) -> bytes:
    return raw[:offset] + struct.pack("<I", value) + raw[offset + 4:]


@pytest.mark.parametrize("field, value", [("name length", 0x7FFFFFFF),
                                          ("rank", 0xFFFFFFF0),
                                          ("dim", 0xFFFFFFF0)])
def test_checkpoint_sizes_checked_before_reading(tmp_path, field, value):
    raw = _small_checkpoint(tmp_path)
    offset = _first_array_offset(raw)
    (name_len,) = struct.unpack("<I", raw[offset:offset + 4])
    offset += {"name length": 0, "rank": 4 + name_len,
               "dim": 8 + name_len}[field]
    (tmp_path / "bad.ckpt").write_bytes(_put_u32(raw, offset, value))
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("meta", [b"\xff\xfe{}", b"{\"task\": ", b"[1, 2"],
                         ids=["not-utf8", "cut-object", "cut-list"])
def test_checkpoint_metadata_not_utf8_json(tmp_path, meta):
    raw = _small_checkpoint(tmp_path)
    rest = raw[_first_array_offset(raw) - 4:]
    (tmp_path / "bad.ckpt").write_bytes(
        raw[:10] + struct.pack("<I", len(meta)) + meta + rest)
    with pytest.raises(FormatError, match="UTF-8 JSON"):
        load_checkpoint(tmp_path / "bad.ckpt")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_ckpt(fuzz_dir):
    return _small_checkpoint(fuzz_dir)


def _load_or_format_error(fuzz_dir, raw: bytes):
    """Loading either succeeds or raises FormatError; anything else
    escapes and fails the test."""
    path = fuzz_dir / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except FormatError:
        pass


_FUZZ = settings(max_examples=150, deadline=None)


@_FUZZ
@given(data=st.data())
def test_checkpoint_fuzz_truncation(small_ckpt, fuzz_dir, data):
    cut = data.draw(st.integers(0, len(small_ckpt) - 1))
    _load_or_format_error(fuzz_dir, small_ckpt[:cut])


@_FUZZ
@given(data=st.data())
def test_checkpoint_fuzz_byte_flips(small_ckpt, fuzz_dir, data):
    raw = bytearray(small_ckpt)
    # the header and the metadata hold every length; flips there matter most
    head = _first_array_offset(small_ckpt) + 64
    for _ in range(data.draw(st.integers(1, 4))):
        where = data.draw(st.integers(0, head) | st.integers(0, len(raw) - 1))
        raw[where] ^= data.draw(st.integers(1, 255))
    _load_or_format_error(fuzz_dir, bytes(raw))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@_FUZZ
@given(data=st.data())
def test_checkpoint_fuzz_metadata_types(small_ckpt, fuzz_dir, data):
    raw = small_ckpt
    offset = _first_array_offset(raw)
    meta = json.loads(raw[14:offset - 4])
    if data.draw(st.booleans()):
        meta = data.draw(_JSON)
    else:
        for key in data.draw(st.lists(st.sampled_from(sorted(meta)),
                                      min_size=1, max_size=3)):
            meta[key] = data.draw(_JSON | st.integers(-2, 5000)
                                  | st.sampled_from(["classify", "segment"]))
    text = json.dumps(meta).encode("utf-8")
    _load_or_format_error(fuzz_dir, raw[:10] + struct.pack("<I", len(text))
                          + text + raw[offset - 4:])


# -- training -------------------------------------------------------------------

def _tiny_cfg(**kw):
    base = dict(epochs=1, batch_size=4, n_points=16, k=64, encoder_depth=3,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", -3), ("batch_size", 0), ("batch_size", -1),
    ("n_points", 0), ("k", 0), ("k", -4), ("lr_step", -1),
    ("encoder_depth", 0), ("seed", -1)])
def test_config_rejects_out_of_range_integers(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be >= "):
        _tiny_cfg(**{field: value})


INT_FIELDS = ["epochs", "batch_size", "n_points", "k", "encoder_depth",
              "lr_step", "seed"]


@pytest.mark.parametrize("field", INT_FIELDS)
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None,
                                   np.float32(2)])
def test_config_rejects_non_integers(field, value):
    # 1.5 used to pass and fail later: epochs in range(), seed in
    # SeedSequence, lr_step by decaying at epoch 3
    with pytest.raises(ConfigError,
                       match=f"^{field} must be an integer, got "):
        _tiny_cfg(**{field: value})


@pytest.mark.parametrize("field", INT_FIELDS)
def test_config_accepts_numpy_integers_as_int(field):
    cfg = _tiny_cfg(**{field: np.int64(3)})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3


@pytest.mark.parametrize("field, value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", float("inf")), ("lr", float("nan")),
    ("lr_gamma", float("nan")), ("lr_gamma", 0.0), ("lr_gamma", -0.5),
    ("lr_gamma", float("inf"))])
def test_config_rejects_bad_learning_rates(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite and > 0"):
        _tiny_cfg(**{field: value})


def test_config_accepts_lowest_in_range_integers():
    cfg = _tiny_cfg(epochs=1, batch_size=1, n_points=1, k=1, lr_step=0)
    assert (cfg.epochs, cfg.batch_size, cfg.n_points, cfg.k, cfg.lr_step) == \
        (1, 1, 1, 1, 0)


def test_train_smoke_finite_loss():
    clouds = make_clouds(8)
    model, log = train(clouds, _tiny_cfg())
    assert len(log) == 1
    assert np.isfinite(log[0][1])


def test_train_determinism_bit_identical(tmp_path):
    clouds = make_clouds(8, seed=7)
    m1, _ = train(clouds, _tiny_cfg(epochs=2))
    m2, _ = train(clouds, _tiny_cfg(epochs=2))
    save_checkpoint(m1, tmp_path / "r1.ckpt")
    save_checkpoint(m2, tmp_path / "r2.ckpt")
    assert (tmp_path / "r1.ckpt").read_bytes() == \
        (tmp_path / "r2.ckpt").read_bytes()


def _argmax_pool_forward(self, x):
    out, self._reference_backward = argmax_maxpool2d(x, self.window)
    return out


def _where_relu_forward(self, x):
    out, self._reference_backward = where_relu(x)
    return out


def _reference_backward(self, dout):
    return self._reference_backward(dout)


def _gather_conv_forward(self, x):
    out, self._reference_backward = gather_conv2d(x, self.w.value,
                                                  self.b.value, self.pad)
    return out


def _gather_conv_backward(self, dout):
    dx, dw, db = self._reference_backward(dout)
    self.w.grad += dw
    self.b.grad += db
    return dx


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_trained_checkpoint_matches_reference_kernels(task, monkeypatch,
                                                      tmp_path):
    """The tap-by-tap Conv2d, the strided-view MaxPool2d, the head's
    pool-before-ReLU order, the np.maximum ReLU and the in-place Adam train
    the same bytes as the gather conv, argmax pool, ReLU-before-pool,
    np.where ReLU and whole-array Adam they replace."""
    segment = task == "segment"
    clouds = make_clouds(12, points_each=40, n_classes=3, seed=4,
                         with_parts=segment)
    val = make_clouds(6, points_each=40, n_classes=3, seed=8,
                      with_parts=segment)
    cfg = _tiny_cfg(task=task, epochs=3, n_points=32, seed=5)
    model, log = train(clouds, cfg, val_clouds=val)
    save_checkpoint(model, tmp_path / "new.ckpt")

    calls = {"conv": 0, "pool": 0, "relu": 0, "adam": 0}

    def counting_adam_step(opt, params):
        calls["adam"] += 1
        reference_adam_step(opt, params)

    def counting_pool_forward(self, x):
        calls["pool"] += 1
        return _argmax_pool_forward(self, x)

    def counting_relu_forward(self, x):
        calls["relu"] += 1
        return _where_relu_forward(self, x)

    def counting_conv_forward(self, x):
        calls["conv"] += 1
        return _gather_conv_forward(self, x)

    monkeypatch.setattr(ClassHead, "forward", relu_then_pool_forward)
    monkeypatch.setattr(ClassHead, "backward", relu_then_pool_backward)
    monkeypatch.setattr(Conv2d, "forward", counting_conv_forward)
    monkeypatch.setattr(Conv2d, "backward", _gather_conv_backward)
    monkeypatch.setattr(MaxPool2d, "forward", counting_pool_forward)
    monkeypatch.setattr(MaxPool2d, "backward", _reference_backward)
    monkeypatch.setattr(ReLU, "forward", counting_relu_forward)
    monkeypatch.setattr(ReLU, "backward", _reference_backward)
    monkeypatch.setattr(Adam, "step", counting_adam_step)
    ref_model, ref_log = train(clouds, cfg, val_clouds=val)
    save_checkpoint(ref_model, tmp_path / "ref.ckpt")

    assert calls["adam"] == 9 and (calls["pool"] > 0) != segment
    assert (calls["conv"] > 0) != segment
    assert calls["relu"] > 0
    assert [row[:4] for row in log] == [row[:4] for row in ref_log]
    assert (tmp_path / "new.ckpt").read_bytes() == \
        (tmp_path / "ref.ckpt").read_bytes()


def test_train_rejects_empty_and_unlabeled():
    with pytest.raises(ConfigError):
        train([], _tiny_cfg())
    clouds = make_clouds(4)
    clouds[0].class_label = None
    with pytest.raises(ConfigError):
        train(clouds, _tiny_cfg())


def test_train_label_exceeds_num_classes():
    clouds = make_clouds(4)
    with pytest.raises(ConfigError, match="num_classes"):
        train(clouds, _tiny_cfg(), num_classes=1)


def test_train_segmentation_smoke():
    clouds = make_clouds(4, points_each=16, with_parts=True)
    cfg = _tiny_cfg(task="segment")
    model, log = train(clouds, cfg)
    assert model.task == "segment"
    assert np.isfinite(log[0][1])


def test_train_stops_at_first_non_finite_loss():
    clouds = make_clouds(8)
    with np.errstate(all="ignore"), \
            pytest.raises(ConfigError, match=r"epoch \d+, batch \d+ \(lr 1e\+12\)"):
        train(clouds, _tiny_cfg(epochs=3, lr=1e12))


def test_train_segmentation_validation_accuracy():
    clouds = make_clouds(4, points_each=16, with_parts=True)
    val = make_clouds(3, points_each=16, seed=1, with_parts=True)
    model, log = train(clouds, _tiny_cfg(task="segment"), val_clouds=val)
    expected = evaluate_segmentation(model, val, 16).instance_accuracy
    assert log[0][3] == expected
    assert 0.0 <= expected <= 1.0


def test_train_segmentation_validation_needs_part_labels():
    clouds = make_clouds(4, points_each=16, with_parts=True)
    val = make_clouds(2, points_each=16, seed=1)
    with pytest.raises(ConfigError, match="validation"):
        train(clouds, _tiny_cfg(task="segment"), val_clouds=val)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_rejects_non_finite_parameters_after_the_last_step(tmp_path):
    # one epoch: the loss before each step stays finite, the last update
    # does not
    with pytest.raises(ConfigError) as info:
        train(make_clouds(4, points_each=16), _tiny_cfg(lr=1e40),
              log_path=tmp_path / "log.csv")
    assert str(info.value) == \
        "training left non-finite values in encoder.layer1.w (lr 1e+40)"
    assert not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_and_rejects_non_finite_arrays(tmp_path, bad):
    model = Classifier(din=3, num_classes=2, k=16, depth=1, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    good = path.read_bytes()
    w = model.named_params()["encoder.layer1.w"]
    w[1, 2] = bad
    with pytest.raises(FormatError, match="^checkpoint array "
                       "'encoder.layer1.w' has non-finite values$"):
        save_checkpoint(model, path)
    assert path.read_bytes() == good              # refused before opening
    # the same array, patched into the valid file's bytes
    payload = np.ascontiguousarray(w, dtype="<f4").tobytes()
    start = good.index(np.ascontiguousarray(
        load_checkpoint(path).named_params()["encoder.layer1.w"],
        dtype="<f4").tobytes())
    path.write_bytes(good[:start] + payload + good[start + len(payload):])
    with pytest.raises(FormatError, match="'encoder.layer1.w' has non-finite"):
        load_checkpoint(path)


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_train_non_square_k_fails_before_first_epoch(task, monkeypatch):
    def no_batches(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(train_module, "_prepare_batch", no_batches)
    clouds = make_clouds(4, points_each=16, with_parts=True)
    with pytest.raises(DimensionError, match="1000 is not a perfect square"):
        train(clouds, _tiny_cfg(task=task, k=1000))


def test_evaluate_empty_split_is_data_error():
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=0)
    with pytest.raises(DataError, match="no clouds"):
        evaluate_classification(model, [], 16)
    with pytest.raises(DataError, match="no clouds"):
        sweep_point_count(model, [], [16])
    segmenter = Segmenter(din=3, num_parts=3, k=64, depth=3, seed=0)
    with pytest.raises(DataError, match="no clouds"):
        evaluate_segmentation(segmenter, [], 16)


def test_train_writes_log_csv(tmp_path):
    clouds = make_clouds(8)
    log_path = tmp_path / "run.csv"
    train(clouds, _tiny_cfg(), log_path=log_path)
    lines = log_path.read_text().splitlines()
    assert lines[0] == "epoch,loss,train_acc,val_acc,seconds"
    assert len(lines) == 2


def test_sweep_matches_single_eval(tmp_path):
    clouds = make_clouds(10, n_classes=2)
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=5)
    rows = sweep_point_count(model, clouds, [16], out_csv=tmp_path / "s.csv")
    single = evaluate_classification(model, clouds, 16)
    assert rows[0][1] == single.instance_accuracy
    csv = (tmp_path / "s.csv").read_text().splitlines()
    assert csv[0] == "n_points,instance_acc,class_acc"
    assert len(csv) == 2


def test_metrics_report_defaults():
    report = MetricsReport()
    assert report.mean_miou is None


def test_train_copies_every_augment_field_per_sample(monkeypatch, tmp_path):
    aug = AugmentConfig(jitter_sigma=0.02, jitter_clip=0.04, shift_range=0.3,
                        scale_range=(0.9, 1.2))
    cfg = _tiny_cfg(epochs=2, augment=aug)
    clouds = make_clouds(8)
    model, _ = train(clouds, cfg)
    save_checkpoint(model, tmp_path / "new.ckpt")

    seen = []

    def by_reference(points, sample_cfg, seed):
        # the PointCloud augment, every field copied by name
        seen.append((sample_cfg, seed))
        return reference_augment(PointCloud(points), SimpleNamespace(
            jitter_sigma=aug.jitter_sigma, jitter_clip=aug.jitter_clip,
            shift_range=aug.shift_range, scale_range=aug.scale_range,
            seed=seed)).points
    monkeypatch.setattr(train_module, "augment", by_reference)
    model, _ = train(clouds, cfg)
    save_checkpoint(model, tmp_path / "ref.ckpt")

    assert (tmp_path / "new.ckpt").read_bytes() == \
        (tmp_path / "ref.ckpt").read_bytes()
    # one call per cloud per step, every one given cfg.augment
    assert len(seen) == 2 * 8
    assert all(c is cfg.augment for c, _ in seen)
    for epoch in range(2):
        assert sorted(seed for _, seed in seen[8 * epoch:8 * epoch + 8]) == \
            sorted(sample_seed(cfg.seed, epoch, i) for i in range(8))


def test_train_augmented_past_the_coordinate_bound_is_data_error():
    cfg = _tiny_cfg(augment=AugmentConfig(scale_range=(1e19, 2e19)))
    with pytest.raises(DataError, match="overflow float32"):
        train(make_clouds(8), cfg)


# -- batched FPS: one farthest_point_sample call per batch ----------------------

@pytest.fixture
def fps_calls(monkeypatch):
    """Every farthest_point_sample call made through the train module's
    name for it, the one the benchmark wraps."""
    calls = []
    real = train_module.farthest_point_sample

    def counting(clouds, n, start=0):
        calls.append({"clouds": list(clouds), "n": n, "start": start})
        calls[-1]["out"] = real(clouds, n, start)
        return calls[-1]["out"]
    monkeypatch.setattr(train_module, "farthest_point_sample", counting)
    return calls


def _assert_canonical_per_cloud(calls):
    for call in calls:
        starts = [canonical_start(c) for c in call["clouds"]]
        assert list(call["start"]) == starts
        for cloud, start, got in zip(call["clouds"], starts, call["out"]):
            alone = farthest_point_sample(cloud, call["n"], start)
            np.testing.assert_array_equal(got.points, alone.points)
            if cloud.part_labels is not None:
                np.testing.assert_array_equal(got.part_labels,
                                              alone.part_labels)


def test_train_samples_each_warm_up_batch_once(fps_calls):
    train(make_clouds(10), _tiny_cfg(epochs=3, batch_size=4))
    # the cache serves every epoch after the first
    assert [len(call["clouds"]) for call in fps_calls] == [4, 4, 2]
    _assert_canonical_per_cloud(fps_calls)


def test_train_samples_validation_clouds_once(fps_calls):
    clouds, val = make_clouds(8, points_each=64), make_clouds(
        6, points_each=64, seed=1)
    cfg = _tiny_cfg(epochs=3, batch_size=4, n_points=32)
    model, log = train(clouds, cfg, val_clouds=val)
    # the validation clouds first, then each warm-up batch, in batch_size
    # chunks
    assert [(len(call["clouds"]), call["n"]) for call in fps_calls] == \
        [(4, 32), (2, 32), (4, 32), (4, 32)]
    assert list(map(id, fps_calls[0]["clouds"] + fps_calls[1]["clouds"])) \
        == list(map(id, val))
    _assert_canonical_per_cloud(fps_calls)
    # the last epoch's val_acc has the bits of evaluating the clouds afresh
    assert log[-1][3] == evaluate_classification(
        model, val, 32).instance_accuracy


def test_validation_chunks_sample_as_one_call(fps_calls):
    # a chunk's samples are the ones a single call over every cloud makes
    clouds, val = make_clouds(4), make_clouds(7, points_each=48, seed=2)
    train(clouds, _tiny_cfg(epochs=1, batch_size=3, n_points=20),
          val_clouds=val)
    chunked = [c for call in fps_calls[:3] for c in call["out"]]
    assert [len(call["clouds"]) for call in fps_calls[:3]] == [3, 3, 1]
    whole = farthest_point_sample(val, 20, [canonical_start(c) for c in val])
    assert [c.points.tobytes() for c in chunked] == \
        [c.points.tobytes() for c in whole]


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_train_checks_validation_din_before_preparing(task, monkeypatch):
    # 6-column training clouds with 3-column validation clouds
    prepared = []
    monkeypatch.setattr(train_module, "_prepare_batch",
                        lambda *args: prepared.append(args))
    normals = np.tile([0.0, 0.0, 1.0], (32, 1))
    clouds = [PointCloud(c.points, normals, part_labels=c.part_labels,
                         class_label=c.class_label)
              for c in make_clouds(4, with_parts=True)]
    val = make_clouds(2, with_parts=True)
    with pytest.raises(DataError, match="every validation cloud needs 6"):
        train(clouds, _tiny_cfg(task=task, n_points=16), val_clouds=val)
    assert prepared == []


def test_evaluation_samples_each_batch_once(fps_calls):
    clouds = make_clouds(40, with_parts=True)
    classifier = Classifier(din=3, num_classes=2, k=64, depth=3, seed=0)
    evaluate_classification(classifier, clouds, 16)
    assert [len(call["clouds"]) for call in fps_calls] == [32, 8]
    segmenter = Segmenter(din=3, num_parts=3, k=64, depth=3, seed=0)
    evaluate_segmentation(segmenter, clouds, 16)
    assert [len(call["clouds"]) for call in fps_calls] == [32, 8, 32, 8]
    evaluate_classification(classifier, clouds, 32)    # full size
    assert len(fps_calls) == 4
    _assert_canonical_per_cloud(fps_calls)


def test_evaluation_checks_every_cloud_before_sampling(fps_calls):
    clouds = make_clouds(3) + make_clouds(1, points_each=8)
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=0)
    with pytest.raises(SamplingError, match="cloud of 8"):
        evaluate_classification(model, clouds, 16)
    assert fps_calls == []


def test_sweep_samples_each_batch_once(fps_calls):
    clouds = make_clouds(40)
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=0)
    sweep_point_count(model, clouds, [16, 8, 32, 8])
    # one call per batch, to the largest count below the clouds' 32 points
    assert [(len(call["clouds"]), call["n"]) for call in fps_calls] == \
        [(32, 16), (8, 16)]
    _assert_canonical_per_cloud(fps_calls)
    sweep_point_count(model, clouds, [32, 32])           # full size only
    assert len(fps_calls) == 2


def test_sweep_checks_every_cloud_before_sampling(fps_calls):
    # the short cloud sits in the second batch
    clouds = make_clouds(40) + make_clouds(1, points_each=8)
    model = Classifier(din=3, num_classes=2, k=64, depth=3, seed=0)
    with pytest.raises(SamplingError,
                       match="cannot sample 16 points from a cloud of 8"):
        sweep_point_count(model, clouds, [8, 16])
    assert fps_calls == []


# -- batch-major evaluation against the per-count reference -------------------

def mixed_clouds(n, sizes, n_classes=3, seed=0):
    """Clouds of the given sizes in turn, with unit normals and part
    labels; every other cloud lies on a coarse lattice, so that FPS meets
    distance ties."""
    rng = np.random.default_rng(seed)
    clouds = []
    for i in range(n):
        size = sizes[i % len(sizes)]
        normals = rng.normal(size=(size, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        pts = rng.normal(size=(size, 3))
        if i % 2:
            pts = np.round(pts * 4) / 4
        pts[:, 2] += i % n_classes
        clouds.append(PointCloud(pts, normals=normals,
                                 part_labels=rng.integers(0, 4, size=size),
                                 class_label=i % n_classes))
    return clouds


def _with_recorded_forward(model, run):
    """run(model)'s result, and each forward call's (input, logits) bytes
    grouped by point count, in call order."""
    calls = {}
    forward = model.forward

    def record(x):
        out = forward(x)
        calls.setdefault(x.shape[1], []).append((x.tobytes(), out.tobytes()))
        return out
    model.forward = record
    try:
        return run(model), calls
    finally:
        del model.forward


def test_sweep_is_byte_equal_to_count_major_reference(tmp_path,
                                                      fps_calls):
    # 70 clouds: batches of 32, 32 and a ragged 6; sizes 40, 56 and 64 in
    # one batch; unsorted counts with a repeat and one equal to a size
    clouds = mixed_clouds(70, [40, 56, 64])
    model = Classifier(din=6, num_classes=3, k=64, depth=3, seed=3)
    counts = [24, 8, 40, 8, 16]
    rows, calls = _with_recorded_forward(model, lambda m: sweep_point_count(
        m, clouds, counts, out_csv=tmp_path / "new.csv"))
    # per batch, the 56- and 64-point clouds are sampled to 40 and the
    # 40-point clouds only to 24
    assert sorted((sorted({len(c) for c in call["clouds"]}), call["n"])
                  for call in fps_calls) == [([40], 24)] * 3 + \
        [([56, 64], 40)] * 3
    ref_rows, ref_calls = _with_recorded_forward(model, lambda m: reference_sweep(
        m, clouds, counts, out_csv=tmp_path / "ref.csv"))
    assert rows == ref_rows
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    assert sorted(calls) == sorted(set(counts))
    for n, batches in calls.items():
        assert len(batches) == 3
        assert ref_calls[n] == batches * counts.count(n)


def test_streamed_sweep_is_byte_equal_to_reference(tmp_path):
    # the sweep's forwards run inside inference(), the reference's outside
    # it; at 160 points a batch of 32 streams in blocks of 12, 12 and 8
    # clouds, at 100 points in blocks of 20 and 12, and the ragged last
    # batch of 2 in one block; half the clouds are sampled at 160
    clouds = mixed_clouds(34, [160, 176])
    model = Classifier(din=6, num_classes=3, k=64, depth=3, seed=5)
    counts = [160, 100, 150]
    rows, calls = _with_recorded_forward(model, lambda m: sweep_point_count(
        m, clouds, counts, out_csv=tmp_path / "new.csv"))
    ref_rows, ref_calls = _with_recorded_forward(model, lambda m: reference_sweep(
        m, clouds, counts, out_csv=tmp_path / "ref.csv"))
    assert rows == ref_rows
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    assert calls == ref_calls
    assert [len(batches) for batches in calls.values()] == [2, 2, 2]


@pytest.mark.parametrize("n", [8, 40])
@pytest.mark.parametrize("task", ["classify", "segment"])
def test_evaluation_reports_match_reference(task, n):
    clouds = mixed_clouds(37, [40, 48])
    if task == "classify":
        model = Classifier(din=6, num_classes=3, k=64, depth=3, seed=1)
        evaluate, reference = evaluate_classification, reference_classification
    else:
        model = Segmenter(din=6, num_parts=4, k=64, depth=3, seed=1)
        evaluate, reference = evaluate_segmentation, reference_segmentation
    report, calls = _with_recorded_forward(
        model, lambda m: evaluate(m, clouds, n))
    ref_report, ref_calls = _with_recorded_forward(
        model, lambda m: reference(m, clouds, n))
    assert calls == ref_calls
    assert asdict(replace(report, seconds=0.0)) == asdict(ref_report)


def _reference_prepare(clouds, counts):
    for n in counts:
        prepared = reference_prepare_batch(clouds, n)
        yield (np.stack([c.features() for c in prepared]),
               [c.part_labels for c in prepared])


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_training_is_byte_equal_with_reference_prep(task, monkeypatch,
                                                    tmp_path):
    clouds = mixed_clouds(10, [40, 48])
    val = mixed_clouds(5, [40], seed=1)
    cfg = _tiny_cfg(task=task, epochs=2, n_points=24, seed=2)
    model, log = train(clouds, cfg, val_clouds=val)
    save_checkpoint(model, tmp_path / "new.ckpt")
    monkeypatch.setattr(train_module, "_prepare_batch", _reference_prepare)
    ref_model, ref_log = train(clouds, cfg, val_clouds=val)
    save_checkpoint(ref_model, tmp_path / "ref.ckpt")
    assert [row[:4] for row in log] == [row[:4] for row in ref_log]
    assert (tmp_path / "new.ckpt").read_bytes() == \
        (tmp_path / "ref.ckpt").read_bytes()


@pytest.mark.parametrize("task", ["classify", "segment"])
def test_training_steps_see_the_reference_pipeline(task, monkeypatch):
    """Each epoch, the steps' input rows are the reference-prepared clouds
    with reference_augment's coordinates for (seed, epoch, cloud), each
    cloud once, and each row's labels are its cloud's."""
    clouds = mixed_clouds(10, [40, 48])
    cfg = _tiny_cfg(task=task, epochs=3, n_points=24, seed=2)
    inputs, targets = [], []
    base = Classifier if task == "classify" else Segmenter

    class Recording(base):
        def forward(self, x):
            inputs.append(x.copy())
            return super().forward(x)
    real_loss = train_module.softmax_cross_entropy

    def recording_loss(flat, y):
        targets.append(y.copy())
        return real_loss(flat, y)
    monkeypatch.setattr(train_module, base.__name__, Recording)
    monkeypatch.setattr(train_module, "softmax_cross_entropy", recording_loss)
    train(clouds, cfg)

    prepared = reference_prepare_batch(clouds, cfg.n_points)
    steps = len(inputs) // cfg.epochs
    assert steps == 3 and len(targets) == len(inputs)
    for epoch in range(cfg.epochs):
        expected = {reference_augment(cloud, SimpleNamespace(
            **asdict(cfg.augment), seed=sample_seed(cfg.seed, epoch, i))
        ).features().tobytes(): i for i, cloud in enumerate(prepared)}
        for x, y in zip(inputs[epoch * steps:(epoch + 1) * steps],
                        targets[epoch * steps:(epoch + 1) * steps]):
            for row, row_y in zip(x, y.reshape(len(x), -1)):
                i = expected.pop(row.tobytes())
                want = prepared[i].class_label if task == "classify" \
                    else prepared[i].part_labels
                assert np.array_equal(row_y, np.atleast_1d(want))
        assert not expected


# -- permutation invariance of the whole evaluation pipeline --------------------

@pytest.fixture(scope="module")
def trained_on_synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("perm")
    train_set = load_dataset(synth_shapes(root, 6, 128, seed=0))
    test_set = load_dataset(synth_shapes(root, 4, 128, seed=1, split="test"))
    model, _ = train(train_set, TrainConfig(epochs=3, batch_size=8,
                                            n_points=64, k=64, seed=0))
    rng = np.random.default_rng(2)
    shuffled = []
    for cloud in test_set:
        order = rng.permutation(len(cloud))
        shuffled.append(PointCloud(cloud.points[order],
                                   normals=cloud.normals[order],
                                   class_label=cloud.class_label))
    return model, test_set, shuffled


def _report_and_logits(model, clouds, n):
    logits = []
    forward = model.forward
    model.forward = lambda x: logits.append(forward(x)) or logits[-1]
    try:
        report = evaluate_classification(model, clouds, n)
    finally:
        del model.forward
    return report, np.concatenate(logits)


def _same_report(a, b):
    assert (a.instance_accuracy, a.class_accuracy, a.per_class_counts) == \
        (b.instance_accuracy, b.class_accuracy, b.per_class_counts)


@pytest.mark.parametrize("n", [8, 64, 127])
def test_evaluation_ignores_row_order_below_full_size(trained_on_synth, n):
    model, clouds, shuffled = trained_on_synth
    report, logits = _report_and_logits(model, clouds, n)
    report_shuffled, logits_shuffled = _report_and_logits(model, shuffled, n)
    np.testing.assert_array_equal(logits, logits_shuffled)
    _same_report(report, report_shuffled)


def test_evaluation_report_ignores_row_order_at_full_size(trained_on_synth):
    model, clouds, shuffled = trained_on_synth
    _same_report(evaluate_classification(model, clouds, 128),
                 evaluate_classification(model, shuffled, 128))


@pytest.mark.parametrize("evaluate", [
    lambda model, clouds: evaluate_classification(model, clouds, 8),
    lambda model, clouds: sweep_point_count(model, clouds, [8, 16])],
    ids=["evaluate_classification", "sweep_point_count"])
def test_classification_requires_class_labels(evaluate):
    # once scored 0.0 with per_class_counts {None: 4}
    clouds = [PointCloud(c.points) for c in make_clouds(4)]
    with pytest.raises(ConfigError,
                       match="^classify evaluation requires class labels$"):
        evaluate(FixedModel([0] * 8, n_classes=2), clouds)


@pytest.mark.parametrize("parts_by_category", [None, {0: [0, 1, 2],
                                                       1: [0, 1, 2]}])
def test_segmentation_requires_part_labels(parts_by_category):
    # once a bare TypeError from category_parts
    clouds = make_clouds(4)
    clouds[2] = make_clouds(4, with_parts=True)[2]
    model = Segmenter(din=3, num_parts=3, k=64, depth=3, seed=0)
    with pytest.raises(ConfigError,
                       match="^segment evaluation requires part labels$"):
        evaluate_segmentation(model, clouds, 16, parts_by_category)


@pytest.mark.parametrize("n, match", [
    (8.5, "^point count must be an integer, got 8.5$"),
    (True, "^point count must be an integer, got True$"),
    (0, "^point count must be >= 1, got 0$")])
def test_evaluation_point_count_must_be_an_integer(n, match, fps_calls):
    # 8.5 and True once failed inside sampling with a bare TypeError
    clouds = make_clouds(2)
    with pytest.raises(SamplingError, match=match):
        evaluate_classification(FixedModel([0, 0], n_classes=2), clouds, n)
    with pytest.raises(SamplingError, match=match):
        sweep_point_count(FixedModel([0, 0], n_classes=2), clouds, [16, n])
    assert fps_calls == []
