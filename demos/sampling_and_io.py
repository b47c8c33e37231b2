"""Tour of the data pipeline: farthest point sampling, normalization,
augmentation, the text cloud format, and the binary checkpoint container.
"""

import tempfile
from pathlib import Path

import numpy as np

from penet import (AugmentConfig, Classifier, PointCloud, augment,
                   farthest_point_sample, load_checkpoint, load_cloud_text,
                   save_checkpoint, zero_mean_normalize)
from penet.data import save_cloud_text

rng = np.random.default_rng(0)
cloud = PointCloud(rng.standard_normal((2000, 3)).astype(np.float32))

sub = farthest_point_sample(cloud, 64)
dists = np.linalg.norm(sub.points[:, None] - sub.points[None, :], axis=-1)
np.fill_diagonal(dists, np.inf)
print(f"FPS kept 64 of 2000 points; min pairwise distance "
      f"{dists.min():.3f} (dense subsets would be far smaller)")

norm = zero_mean_normalize(sub)
radii = np.linalg.norm(norm.points, axis=1)
print(f"after normalization: centroid {np.abs(norm.points.mean(0)).max():.1e},"
      f" max radius {radii.max():.3f}")

# augment takes (N, 3) coordinates and a seed, and returns new coordinates;
# training seeds each cloud from (run seed, epoch, cloud index)
jittered = augment(norm.points, AugmentConfig(), seed=42)
print(f"augmentation is seed-deterministic: "
      f"{np.array_equal(jittered, augment(norm.points, AugmentConfig(), 42))}")
aug = PointCloud(jittered)

with tempfile.TemporaryDirectory(prefix="penet_demo_") as tmp:
    workdir = Path(tmp)
    path = workdir / "cloud.txt"
    save_cloud_text(aug, path)
    back = load_cloud_text(path)
    print(f"text roundtrip max error: "
          f"{np.abs(back.points - aug.points).max():.1e}")

    model = Classifier(din=3, num_classes=4, k=64, seed=0)
    ckpt = workdir / "model.ckpt"
    save_checkpoint(model, ckpt)
    restored = load_checkpoint(ckpt)
    same = all(np.array_equal(a.value, b.value)
               for a, b in zip(model.params(), restored.params()))
    print(f"checkpoint roundtrip bit-identical weights: {same}")
