"""Point-embedding network: permutation-invariant point cloud encoder with
2D-CNN classification and per-point segmentation heads, built on a
self-contained numpy numerics core."""

from .aggregate import GlobalPool, mean_pool, min_max_normalize, sum_pool
from .data import (AugmentConfig, DatasetManifest, PointCloud, augment,
                   farthest_point_sample, load_cloud_text, load_idx_images,
                   load_manifest, mnist_to_pointcloud, synth_shapes,
                   zero_mean_normalize)
from .encoder import BatchLayout, Encoder, embed_batch, embed_point
from .heads import ClassHead, SegHead, predict, reshape_grid
from .models import Classifier, Segmenter
from .numcore import (Adam, Conv2d, Linear, MaxPool2d, ParamTensor, ReLU, SGD,
                      grad_check, softmax_cross_entropy)
from .train import (MetricsReport, TrainConfig, evaluate_classification,
                    evaluate_segmentation, load_checkpoint, save_checkpoint,
                    shape_miou, sweep_point_count, train)

__version__ = "0.1.0"
