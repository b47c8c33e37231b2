"""Train a small classifier on the built-in 4-class synthetic dataset.

Generates sphere/cube/cylinder/disc clouds, trains for a few epochs,
reports test accuracy, then sweeps the number of test points to show the
model holds up when clouds are resampled at different densities.

Takes about a minute on one core.
"""

import tempfile
from pathlib import Path

from penet import (TrainConfig, evaluate_classification, sweep_point_count,
                   synth_shapes, train)
from penet.data import load_dataset

# the clouds are read into memory, so the files go when the block ends
with tempfile.TemporaryDirectory(prefix="penet_demo_") as tmp:
    workdir = Path(tmp)
    print(f"writing dataset under {workdir}")
    train_clouds = load_dataset(
        synth_shapes(workdir, n_per_class=30, n_points=1024, seed=0))
    test_clouds = load_dataset(
        synth_shapes(workdir, n_per_class=10, n_points=1024, seed=1,
                     split="test"))

cfg = TrainConfig(task="classify", epochs=10, batch_size=16, n_points=256,
                  k=1024, seed=0)
model, log = train(train_clouds, cfg)
for epoch, loss, train_acc, _val_acc, seconds in log:
    print(f"epoch {epoch:2d}  loss {loss:.4f}  train_acc {train_acc:.3f}  "
          f"({seconds:.1f}s)")

report = evaluate_classification(model, test_clouds, cfg.n_points)
print(f"test instance accuracy {report.instance_accuracy:.3f}, "
      f"class accuracy {report.class_accuracy:.3f}")

print("point-count sweep:")
for n, i_acc, c_acc in sweep_point_count(model, test_clouds, [128, 256, 512]):
    print(f"  n={n:4d}  instance {i_acc:.3f}  class {c_acc:.3f}")
