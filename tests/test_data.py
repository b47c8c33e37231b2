import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from penet.data import (MAX_COORD, AugmentConfig, PointCloud, SYNTH_CLASSES,
                        _fps_indices, augment, canonical_start,
                        farthest_point_sample,
                        load_cloud_text,
                        load_dataset, load_idx_images, load_manifest, mnist_to_pointcloud,
                        normalize_batch, sample_seed, save_cloud_text,
                        synth_shapes, zero_mean_normalize)
from penet.errors import (DataError, EmptyCloudError, FormatError,
                          SamplingError)

from oracles import (naive_fps, reference_fps_indices,
                     reference_zero_mean_normalize)


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, len(images), 28, 28))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, len(labels)))
        f.write(bytes(labels))
    return img_path, lbl_path


# -- IDX --------------------------------------------------------------------

def test_idx_single_image_roundtrip(tmp_path):
    img = np.zeros((28, 28), dtype=np.uint8)
    img[3, 4] = 200
    img[27, 0] = 13
    paths = write_idx_pair(tmp_path, img[None], [7])
    loaded = load_idx_images(*paths)
    assert len(loaded) == 1
    got, label = loaded[0]
    assert label == 7
    np.testing.assert_array_equal(got, img)


def test_idx_count_mismatch(tmp_path):
    img = np.zeros((1, 28, 28), dtype=np.uint8)
    paths = write_idx_pair(tmp_path, img, [1, 2])
    with pytest.raises(FormatError, match="count"):
        load_idx_images(*paths)


def test_idx_bad_magic(tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">iiii", 0xDEAD, 1, 28, 28) + b"\x00" * 784)
    _, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28), dtype=np.uint8), [0])
    with pytest.raises(FormatError, match="magic"):
        load_idx_images(bad, lbl)


def test_idx_truncated_reports_offset(tmp_path):
    img_path, lbl_path = write_idx_pair(
        tmp_path, np.zeros((2, 28, 28), dtype=np.uint8), [0, 1])
    img_path.write_bytes(img_path.read_bytes()[:100])
    with pytest.raises(FormatError, match="byte"):
        load_idx_images(img_path, lbl_path)


# -- MNIST conversion ---------------------------------------------------------

def test_mnist_single_pixel_forced_xy():
    img = np.zeros((28, 28), dtype=np.uint8)
    img[10, 20] = 255
    cloud = mnist_to_pointcloud(img, n_points=5, seed=0)
    assert len(cloud) == 5
    assert np.allclose(cloud.points[:, 0], (20 - 13.5) / 13.5)
    assert np.allclose(cloud.points[:, 1], (13.5 - 10) / 13.5)
    assert len(np.unique(cloud.points[:, 2])) == 5


def test_mnist_coordinate_ranges():
    rng = np.random.default_rng(0)
    img = (rng.uniform(size=(28, 28)) > 0.5).astype(np.uint8) * 100
    cloud = mnist_to_pointcloud(img, n_points=500, seed=1)
    assert (np.abs(cloud.points[:, :2]) <= 1.0).all()
    assert (np.abs(cloud.points[:, 2]) < 0.05).all()
    # x, y land on the pixel lattice map (float32 storage)
    lattice = ((np.arange(28) - 13.5) / 13.5).astype(np.float32)
    gaps = np.abs(cloud.points[:, :2, None] - lattice[None, None, :]).min(axis=2)
    assert (gaps < 1e-6).all()


def test_mnist_default_5000_points():
    img = np.zeros((28, 28), dtype=np.uint8)
    img[5:10, 5:10] = 50
    assert len(mnist_to_pointcloud(img)) == 5000


def test_mnist_all_zero_image():
    with pytest.raises(EmptyCloudError):
        mnist_to_pointcloud(np.zeros((28, 28), dtype=np.uint8))


# -- FPS ----------------------------------------------------------------------

def test_fps_identity_when_n_equals_size():
    cloud = PointCloud(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]))
    out = farthest_point_sample(cloud, 3)
    assert set(map(tuple, out.points.tolist())) == \
        set(map(tuple, cloud.points.tolist()))


def test_fps_picks_farthest_first():
    cloud = PointCloud(np.array([[0, 0, 0], [10, 0, 0], [1, 0, 0.0]]))
    out = farthest_point_sample(cloud, 2, start=0)
    np.testing.assert_array_equal(out.points, [[0, 0, 0], [10, 0, 0]])


def test_fps_rejects_oversampling():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(SamplingError):
        farthest_point_sample(cloud, 4)


def test_fps_carries_normals_and_labels():
    pts = np.array([[0, 0, 0], [5, 0, 0], [0, 5, 0.0]])
    nrm = np.tile([0.0, 0.0, 1.0], (3, 1))
    cloud = PointCloud(pts, normals=nrm, part_labels=[3, 1, 2], class_label=9)
    out = farthest_point_sample(cloud, 2)
    assert out.class_label == 9
    assert out.normals.shape == (2, 3)
    assert out.part_labels.tolist() == [3, 1]


@pytest.mark.parametrize("seed", range(40))
def test_fps_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n_total = int(rng.integers(2, 33))
    n_keep = int(rng.integers(1, n_total + 1))
    pts = rng.normal(size=(n_total, 3)).astype(np.float32)
    cloud = PointCloud(pts)
    out = farthest_point_sample(cloud, n_keep)
    expected = naive_fps(pts.astype(np.float64), n_keep)
    np.testing.assert_array_equal(out.points, pts[expected])


def _loop_fps(pts, n, start):
    """The per-cloud greedy loop that farthest_point_sample batches."""
    chosen = [start]
    min_d2 = np.sum((pts - pts[start]) ** 2, axis=1)
    for _ in range(1, n):
        chosen.append(int(np.argmax(min_d2)))
        np.minimum(min_d2, np.sum((pts - pts[chosen[-1]]) ** 2, axis=1),
                   out=min_d2)
    return chosen


def _fps_cases(seed):
    """Ragged clouds: gaussian at scales 1e-3..1e3, integer lattices full
    of duplicate points and exact distance ties, and a single point."""
    rng = np.random.default_rng(seed)
    clouds = [PointCloud(np.zeros((1, 3)))]
    for i in range(24):
        total = int(rng.choice([2, 7, 7, 40, 40, 40, 300]))
        if i % 3 == 0:
            pts = rng.integers(0, 3, size=(total, 3)).astype(np.float32)
        else:
            pts = rng.normal(size=(total, 3)) * 10.0 ** rng.uniform(-3, 3)
        clouds.append(PointCloud(pts))
    return clouds


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 2, 7])
def test_fps_batch_matches_per_cloud_loop(seed, n):
    clouds = [c for c in _fps_cases(seed) if len(c) >= n]
    starts = [int(np.random.default_rng(i).integers(len(c)))
              for i, c in enumerate(clouds)]
    out = farthest_point_sample(clouds, n, starts)
    assert isinstance(out, list) and len(out) == len(clouds)
    for cloud, got, start in zip(clouds, out, starts):
        np.testing.assert_array_equal(
            got.points, cloud.points[_loop_fps(cloud.points, n, start)])


def test_fps_batch_keeps_the_float32_sum_order():
    # b is a with x and z swapped, so a and b lie at the same distance from
    # the origin in exact arithmetic; which one FPS takes second depends
    # only on the order in which float32 adds the squared coordinates
    rng = np.random.default_rng(0)
    clouds = []
    while len(clouds) < 64:
        a = rng.uniform(0.5, 2.0, size=3).astype(np.float32)
        pts = np.stack([np.zeros(3, np.float32), a, a[::-1]])
        d2 = np.sum(pts ** 2, axis=1)
        if d2[1] != d2[2]:
            clouds.append(PointCloud(pts))
    for cloud, got in zip(clouds, farthest_point_sample(clouds, 2)):
        np.testing.assert_array_equal(
            got.points, cloud.points[_loop_fps(cloud.points, 2, 0)])


def test_fps_batch_n_equals_total():
    clouds = [c for c in _fps_cases(7) if len(c) == 40]
    out = farthest_point_sample(clouds, 40)
    for cloud, got in zip(clouds, out):
        np.testing.assert_array_equal(
            got.points, cloud.points[_loop_fps(cloud.points, 40, 0)])


def test_fps_batch_carries_normals_labels_and_one_start():
    rng = np.random.default_rng(3)
    clouds = []
    for label, total in enumerate([9, 12, 9]):
        nrm = rng.normal(size=(total, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        clouds.append(PointCloud(rng.normal(size=(total, 3)), normals=nrm,
                                 part_labels=np.arange(total),
                                 class_label=label))
    for got, cloud in zip(farthest_point_sample(clouds, 5, start=2), clouds):
        idx = _loop_fps(cloud.points, 5, 2)
        assert got.part_labels.tolist() == idx
        np.testing.assert_array_equal(got.normals, cloud.normals[idx])
        assert got.class_label == cloud.class_label


def test_fps_batch_checks_every_cloud_first():
    clouds = [PointCloud(np.zeros((5, 3))), PointCloud(np.zeros((3, 3)))]
    with pytest.raises(SamplingError, match="cloud of 3"):
        farthest_point_sample(clouds, 4)
    with pytest.raises(SamplingError):
        farthest_point_sample(clouds, 0)
    assert farthest_point_sample([], 4) == []


def test_canonical_start_is_lexicographic_minimum():
    pts = np.array([[1, 0, 0], [0, 2, 1], [0, 2, 0], [0, 3, -1], [0, 2, 0.0]])
    assert canonical_start(PointCloud(pts)) == 2     # lowest of equal rows
    nrm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]])
    same_xyz = PointCloud(np.zeros((3, 3)), normals=nrm)
    assert canonical_start(same_xyz) == 1            # normals break the tie


@pytest.mark.parametrize("seed", range(5))
def test_fps_from_canonical_start_ignores_row_order(seed):
    rng = np.random.default_rng(seed)
    cloud = PointCloud(rng.normal(size=(50, 3)))
    shuffled = PointCloud(cloud.points[rng.permutation(50)])
    a, b = (farthest_point_sample(c, 10, canonical_start(c))
            for c in (cloud, shuffled))
    np.testing.assert_array_equal(a.points, b.points)


@st.composite
def lattice_clouds(draw):
    """A cloud on a small integer lattice, so points repeat and distances
    tie, with unit normals and part labels; two counts n < m <= its size;
    and a start row."""
    size = draw(st.integers(2, 40))
    grid = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normals = rng.normal(size=(size, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(rng.integers(-grid, grid + 1, size=(size, 3)),
                       normals=normals,
                       part_labels=rng.integers(0, 5, size=size))
    m = draw(st.integers(2, size))
    n = draw(st.integers(1, m - 1))
    start = draw(st.one_of(st.just(canonical_start(cloud)),
                           st.integers(0, size - 1)))
    return cloud, n, m, start


@settings(max_examples=100, deadline=None)
@given(lattice_clouds())
def test_fps_larger_sample_starts_with_smaller_one(case):
    # greedy FPS picks each point from the ones before it, ties included,
    # so a larger sample from the same start extends a smaller one
    cloud, n, m, start = case
    small = farthest_point_sample(cloud, n, start)
    large = farthest_point_sample(cloud, m, start)
    np.testing.assert_array_equal(large.points[:n], small.points)
    np.testing.assert_array_equal(large.normals[:n], small.normals)
    np.testing.assert_array_equal(large.part_labels[:n], small.part_labels)


@st.composite
def fps_batches(draw):
    """A planar (3, bs, T) float32 batch, a count and one start per cloud.
    The points are gaussian at a drawn scale, or on a small lattice whose
    coordinates include -0.0, so that distances tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bs = draw(st.integers(1, 40))
    t = {"short": int(rng.integers(1, 16)), "long": int(rng.integers(16, 1101)),
         "1024": 1024}[draw(st.sampled_from(["short", "long", "1024"]))]
    if draw(st.booleans()):
        planes = rng.integers(-2, 3, size=(3, bs, t)).astype(np.float32)
        planes[rng.random(planes.shape) < 0.3] *= -1   # 0.0 -> -0.0
    else:
        planes = rng.normal(size=(3, bs, t)).astype(np.float32) \
            * np.float32(10.0 ** draw(st.integers(-3, 3)))
    n = draw(st.integers(1, min(t, 64)))
    return planes, n, rng.integers(0, t, size=bs)


@settings(max_examples=60, deadline=None)
@given(fps_batches())
def test_fps_indices_are_byte_equal_to_reference(case):
    planes, n, start = case
    got = _fps_indices(planes, n, start)
    assert got.dtype == np.int64
    assert got.tobytes() == reference_fps_indices(planes, n, start).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e19])
def test_fps_indices_at_full_size_are_byte_equal_to_reference(scale):
    # at 1e19 most squared distances overflow float32 to inf
    rng = np.random.default_rng(4)
    for t in (1, 7, 16, 100, 1024):
        planes = (rng.normal(size=(3, 5, t)) * scale).astype(np.float32)
        start = rng.integers(0, t, size=5)
        with np.errstate(over="ignore"):
            assert _fps_indices(planes, t, start).tobytes() == \
                reference_fps_indices(planes, t, start).tobytes()


def test_fps_restores_the_ufunc_buffer_size():
    planes = np.random.default_rng(0).normal(size=(3, 4, 100)).astype(
        np.float32)
    old = np.setbufsize(4096)
    try:
        _fps_indices(planes, 10, np.zeros(4, dtype=np.int64))
        assert np.getbufsize() == 4096
        # a start past the end fails inside the greedy loop
        with pytest.raises(IndexError):
            _fps_indices(planes, 10, np.array([0, 0, 0, 100]))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("start, match", [
    (-1, "cloud 0: start -1 "),
    (2.5, "cloud 0: start 2.5 "),
    (5, "cloud 0: start 5 "),
    (True, "cloud 0: start True "),
    ([0, 7], "cloud 1: start 7 "),
    ([0, np.int64(-2)], "cloud 1: start -2 "),
    ([0, 1.0], "cloud 1: start 1.0 "),
    ([[0], 1], r"cloud 0: start \[0\] "),
    (np.array([0, 6]), "cloud 1: start 6 "),
    ([0], "1 start indices for 2 clouds"),
    ([0, 1, 2], "3 start indices for 2 clouds"),
])
def test_fps_rejects_a_bad_start(start, match, monkeypatch):
    def never(*args):
        raise AssertionError("sampled before the starts were checked")
    monkeypatch.setattr("penet.data._fps_indices", never)
    clouds = [PointCloud(np.zeros((5, 3))), PointCloud(np.ones((6, 3)))]
    with pytest.raises(SamplingError, match=match):
        farthest_point_sample(clouds, 2, start)


def test_fps_rejects_a_bad_start_for_one_cloud():
    cloud = PointCloud(np.arange(12.0).reshape(4, 3))
    for start in (-1, 4, 1.5, [1]):
        with pytest.raises(SamplingError, match="cloud 0: start"):
            farthest_point_sample(cloud, 2, start)
    np.testing.assert_array_equal(
        farthest_point_sample(cloud, 2, np.int32(3)).points,
        cloud.points[[3, 0]])


# -- normalization / augmentation ----------------------------------------------

def test_zero_mean_normalize_hand_example():
    cloud = PointCloud(np.array([[0, 0, 0], [2, 0, 0.0]]))
    out = zero_mean_normalize(cloud)
    np.testing.assert_allclose(out.points, [[-1, 0, 0], [1, 0, 0]], atol=1e-6)


def test_zero_mean_normalize_idempotent():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    pts -= pts.mean(axis=0)
    pts /= np.linalg.norm(pts, axis=1).max()
    out = zero_mean_normalize(PointCloud(pts.astype(np.float32)))
    np.testing.assert_allclose(out.points, pts, atol=1e-6)


def test_zero_mean_normalize_centroid_zero():
    rng = np.random.default_rng(2)
    out = zero_mean_normalize(PointCloud(rng.normal(size=(50, 3)) * 7 + 3))
    np.testing.assert_allclose(out.points.mean(axis=0), 0, atol=1e-6)
    assert np.linalg.norm(out.points, axis=1).max() == pytest.approx(1.0,
                                                                     abs=1e-6)


def test_zero_mean_normalize_degenerate_point():
    cloud = PointCloud(np.tile([3.0, 3.0, 3.0], (4, 1)))
    out = zero_mean_normalize(cloud)
    assert not out.points.any()


@st.composite
def point_stacks(draw):
    """(bs, N, 3) float32 clouds, some with every point equal."""
    bs = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    pts = draw(arrays(np.float32, (bs, n, 3), elements=st.floats(
        -1, 1, width=32))) * np.float32(scale)
    for j in draw(st.lists(st.integers(0, bs - 1), max_size=bs)):
        pts[j] = pts[j, 0]
    return pts


@settings(max_examples=100, deadline=None)
@given(point_stacks())
def test_normalize_batch_matches_per_cloud_reference(pts):
    expected = [reference_zero_mean_normalize(PointCloud(c)).points
                for c in pts]
    stacked = normalize_batch(pts.transpose(1, 0, 2).copy())
    for j, want in enumerate(expected):
        assert np.ascontiguousarray(stacked[:, j]).tobytes() == \
            want.tobytes()
        assert zero_mean_normalize(PointCloud(pts[j])).points.tobytes() == \
            want.tobytes()


def test_augment_identity_config():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.normal(size=(10, 3)).astype(np.float32))
    cfg = AugmentConfig(jitter_sigma=0.0, jitter_clip=0.0, shift_range=0.0,
                        scale_range=(1.0 - 1e-12, 1.0), seed=0)
    out = augment(cloud, cfg)
    np.testing.assert_allclose(out.points, cloud.points, atol=1e-6)


def test_augment_jitter_clipped():
    cloud = PointCloud(np.zeros((2000, 3)) + 1.0)
    cfg = AugmentConfig(jitter_sigma=0.5, jitter_clip=0.6, shift_range=0.0,
                        scale_range=(1.0 - 1e-12, 1.0), seed=4)
    out = augment(cloud, cfg)
    assert (np.abs(out.points - 1.0) <= 0.6 + 1e-6).all()


def test_augment_deterministic():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(30, 3)).astype(np.float32),
                       part_labels=rng.integers(0, 4, size=30))
    cfg = AugmentConfig(seed=99)
    a = augment(cloud, cfg)
    b = augment(cloud, cfg)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.part_labels, cloud.part_labels)


def test_sample_seed_independent_of_call_order():
    s1 = sample_seed(7, 2, 5)
    s2 = sample_seed(7, 2, 6)
    assert s1 != s2
    assert s1 == sample_seed(7, 2, 5)


def test_bad_augment_config():
    with pytest.raises(DataError):
        AugmentConfig(jitter_sigma=0.1, jitter_clip=0.05)
    with pytest.raises(DataError):
        AugmentConfig(scale_range=(1.5, 0.5))


# -- text format ----------------------------------------------------------------

def test_load_cloud_text_plain(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("0 0 0\n1 0 0\n")
    cloud = load_cloud_text(path)
    assert len(cloud) == 2
    assert cloud.normals is None


def test_load_cloud_text_with_normals(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("0 0 0 0 0 1\n1 0 0 1 0 0\n")
    cloud = load_cloud_text(path)
    assert cloud.normals is not None
    assert cloud.din == 6


def test_load_cloud_text_ragged(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("0 0 0\n1 0\n")
    with pytest.raises(FormatError, match=":2"):
        load_cloud_text(path)


def test_load_cloud_text_non_numeric(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("0 0 zero\n")
    with pytest.raises(FormatError, match=":1"):
        load_cloud_text(path)


@pytest.mark.parametrize("text", [
    "0 0 0\nnan 1 0\n",
    "0 0 0\n1 -inf 0\n",
    "0 0 0\n1 0 1e39\n",                    # overflows float32
    "0 0 0 0 0 1\n1 0 0 nan 0 0\n",         # passes the unit-length test
])
def test_load_cloud_text_rejects_non_finite(tmp_path, text):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="finite"):
        load_cloud_text(path)


def test_coordinates_at_the_bound_sample_and_normalize_cleanly():
    # corners at +-MAX_COORD give |dx| = 2 * MAX_COORD on every axis; one
    # corner against 63 at the opposite one centers to nearly that
    rng = np.random.default_rng(8)
    bound = np.float32(MAX_COORD)
    skewed = np.full((64, 3), -bound)
    skewed[17] = bound
    for pts in (rng.choice([-bound, bound], size=(64, 3)), skewed):
        cloud = PointCloud(pts)
        with np.errstate(over="raise", invalid="raise"):
            sample = farthest_point_sample(cloud, 8, start=0)
            unit = normalize_batch(cloud.points[:, None].copy())
        assert np.abs(sample.points[1] - cloud.points[0]).min() == 2 * bound
        assert np.abs(np.linalg.norm(unit, axis=2).max() - 1) < 1e-6


@pytest.mark.parametrize("scale", [
    np.nextafter(np.float32(MAX_COORD), np.float32(np.inf)), 1e19, -1e30])
def test_coordinates_past_the_bound_are_rejected(scale):
    pts = np.random.default_rng(9).normal(size=(64, 3))
    pts[5] = [0.0, 1.0, 0.0]
    with pytest.raises(DataError, match="overflow float32"):
        PointCloud(pts * np.float64(scale))


def test_seg_sidecar_roundtrip(tmp_path):
    cloud = PointCloud(np.random.default_rng(0).normal(size=(5, 3)),
                       part_labels=[0, 1, 2, 1, 0])
    save_cloud_text(cloud, tmp_path / "c.txt")
    loaded = load_cloud_text(tmp_path / "c.txt")
    assert loaded.part_labels.tolist() == [0, 1, 2, 1, 0]


def test_seg_sidecar_wrong_count(tmp_path):
    (tmp_path / "c.txt").write_text("0 0 0\n1 1 1\n")
    (tmp_path / "c.txt.seg").write_text("1\n")
    with pytest.raises(FormatError, match="labels"):
        load_cloud_text(tmp_path / "c.txt")


def test_seg_sidecar_non_integer_names_file_and_line(tmp_path):
    (tmp_path / "c.txt").write_text("0 0 0\n1 1 1\n")
    (tmp_path / "c.txt.seg").write_text("1\nx\n")
    with pytest.raises(FormatError, match=r"c\.txt\.seg:2: .*'x'"):
        load_cloud_text(tmp_path / "c.txt")


def _labelled_manifest(tmp_path, seg_text):
    (tmp_path / "b.txt").write_text("0 0 0\n1 1 1\n2 2 2\n")
    (tmp_path / "b_labels.seg").write_text(seg_text)
    m = tmp_path / "train.manifest"
    m.write_text("#classes: a\nb.txt\t0\tb_labels.seg\n")
    return load_manifest(m)


def test_manifest_seg_column_supplies_labels(tmp_path):
    # the column wins over a sidecar next to the cloud
    manifest = _labelled_manifest(tmp_path, "2\n0\n1\n")
    (tmp_path / "b.txt.seg").write_text("0\n0\n0\n")
    (cloud,) = load_dataset(manifest)
    assert cloud.part_labels.tolist() == [2, 0, 1]
    assert cloud.class_label == 0


def test_manifest_without_seg_column_uses_sidecar(tmp_path):
    (tmp_path / "b.txt").write_text("0 0 0\n1 1 1\n")
    (tmp_path / "b.txt.seg").write_text("1\n0\n")
    m = tmp_path / "train.manifest"
    m.write_text("b.txt\t0\n")
    (cloud,) = load_dataset(load_manifest(m))
    assert cloud.part_labels.tolist() == [1, 0]


@pytest.mark.parametrize("seg_text,message", [
    ("0\n1\n", "2 labels for 3 points"),
    ("0\n1.5\n2\n", r"b_labels\.seg:2: .*'1\.5'"),
])
def test_manifest_seg_column_checked(tmp_path, seg_text, message):
    manifest = _labelled_manifest(tmp_path, seg_text)
    with pytest.raises(FormatError, match=message):
        load_dataset(manifest)


def test_manifest_missing_file(tmp_path):
    m = tmp_path / "train.manifest"
    m.write_text("#classes: a,b\nmissing.txt\t0\n")
    with pytest.raises(FormatError, match="missing"):
        load_manifest(m)


def test_manifest_bad_class_id(tmp_path):
    (tmp_path / "c.txt").write_text("0 0 0\n")
    m = tmp_path / "train.manifest"
    m.write_text("c.txt\tnotanumber\n")
    with pytest.raises(FormatError, match="class id"):
        load_manifest(m)


@pytest.mark.parametrize("bad", ["cloud", "seg", "manifest"])
def test_non_utf8_text_is_format_error_naming_file(tmp_path, bad):
    texts = {"cloud": (tmp_path / "c.txt", b"0 0 0\n1 1 1\n"),
             "seg": (tmp_path / "c.txt.seg", b"0\n1\n"),
             "manifest": (tmp_path / "train.manifest", b"c.txt\t0\n")}
    for name, (path, raw) in texts.items():
        path.write_bytes(raw + b"\xff\n" if name == bad else raw)
    bad_path = texts[bad][0]
    with pytest.raises(FormatError, match=rf"{bad_path.name}: not UTF-8 text"):
        load_dataset(load_manifest(texts["manifest"][0]))


# -- synthetic shapes --------------------------------------------------------------

def test_synth_sphere_and_normals(tmp_path):
    manifest = synth_shapes(tmp_path, n_per_class=2, n_points=64, seed=0)
    assert len(manifest) == 8
    assert manifest.class_names == SYNTH_CLASSES
    sphere = load_cloud_text(tmp_path / manifest.entries[0][0])
    np.testing.assert_allclose(np.linalg.norm(sphere.points, axis=1), 1.0,
                               atol=1e-5)
    np.testing.assert_allclose(np.linalg.norm(sphere.normals, axis=1), 1.0,
                               atol=1e-3)


def test_synth_deterministic(tmp_path):
    m1 = synth_shapes(tmp_path / "a", n_per_class=2, n_points=32, seed=5)
    m2 = synth_shapes(tmp_path / "b", n_per_class=2, n_points=32, seed=5)
    for (rel1, _, _), (rel2, _, _) in zip(m1.entries, m2.entries):
        assert (m1.root / rel1).read_bytes() == (m2.root / rel2).read_bytes()


def test_pointcloud_invariants():
    with pytest.raises(EmptyCloudError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(DataError):
        PointCloud(np.zeros((2, 3)), normals=np.zeros((2, 3)))  # not unit
    with pytest.raises(DataError):
        PointCloud(np.zeros((2, 3)), part_labels=[1])
