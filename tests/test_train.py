import numpy as np
import pytest

from penet.data import PointCloud
from penet.errors import ConfigError, FormatError, SamplingError
from penet.models import Classifier, Segmenter
from penet.train import (MetricsReport, TrainConfig, category_parts,
                         evaluate_classification, evaluate_segmentation,
                         load_checkpoint, save_checkpoint, shape_miou,
                         sweep_point_count, train)

from oracles import naive_miou


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


# -- training -------------------------------------------------------------------

def _tiny_cfg(**kw):
    base = dict(epochs=1, batch_size=4, n_points=16, k=64, encoder_depth=3,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


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
