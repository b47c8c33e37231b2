"""Command-line entry point: train, eval, sweep, embed, gradcheck, synth.

Configuration is a flat key=value UTF-8 file; every TrainConfig and
AugmentConfig field is addressable by dotted key (augment.jitter_sigma).
Unknown keys are rejected. Flags override file values.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import (AugmentConfig, load_cloud_text, load_dataset,
                   load_manifest, synth_shapes)
from .errors import ConfigError, FormatError, check_int
from .models import Classifier
from .numcore import grad_check, softmax_cross_entropy
from .train import (TrainConfig, _prepare_batch, evaluate_classification,
                    evaluate_segmentation, load_checkpoint, save_checkpoint,
                    sweep_point_count, train)


def _field_casts(cls, prefix: str = "") -> dict:
    """Dotted config key -> type, for every field of a config dataclass and
    of the configs nested in it (augment.jitter_sigma)."""
    hints = get_type_hints(cls)
    casts = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            casts.update(_field_casts(hints[f.name], f"{prefix}{f.name}."))
        else:
            casts[prefix + f.name] = hints[f.name]
    return casts


def _parse_range(raw: str) -> tuple[float, float]:
    lo, _, hi = raw.partition(",")
    return (float(lo), float(hi))


_CASTS = {**_field_casts(TrainConfig), "augment.scale_range": _parse_range}


def _parse_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw: str):
    if key not in _CASTS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _CASTS[key](raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r}")


def build_train_config(config_path: str | None, overrides: list[str],
                       seed: int | None) -> TrainConfig:
    values: dict[str, str] = {}
    if config_path:
        values.update(_parse_config_file(Path(config_path)))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        values[key.strip()] = value.strip()

    cfg_kwargs: dict = {}
    aug_kwargs: dict = {}
    for key, raw in values.items():
        parsed = _coerce(key, raw)
        if key.startswith("augment."):
            aug_kwargs[key[len("augment."):]] = parsed
        else:
            cfg_kwargs[key] = parsed
    if seed is not None:
        cfg_kwargs["seed"] = seed
    return TrainConfig(augment=AugmentConfig(**aug_kwargs), **cfg_kwargs)


def _find_manifest(data_dir: Path, split: str) -> Path:
    path = data_dir / f"{split}.manifest"
    if not path.exists():
        raise ConfigError(f"no {split}.manifest in {data_dir}")
    return path


def cmd_train(args) -> int:
    cfg = build_train_config(args.config, args.set or [], args.seed)
    data_dir = Path(args.data)
    manifest = load_manifest(_find_manifest(data_dir, "train"))
    clouds = load_dataset(manifest)
    val = None
    val_path = data_dir / "val.manifest"
    if val_path.exists():
        val = load_dataset(load_manifest(val_path))
    out = Path(args.out)
    model, _ = train(clouds, cfg, val_clouds=val,
                     log_path=out.with_suffix(".log.csv"))
    if manifest.class_names:
        model.extra_meta["class_names"] = manifest.class_names
    save_checkpoint(model, out)
    print(f"wrote {out}")
    return 0


def _point_count(token: str) -> int:
    """One --points value, checked before anything is loaded."""
    try:
        n = int(token)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(
            f"--points: {token.strip()!r} is not a point count (an integer "
            f">= 1)")
    return n


def cmd_eval(args) -> int:
    n = None if args.points is None else _point_count(args.points)
    model = load_checkpoint(args.ckpt)
    clouds = load_dataset(load_manifest(_find_manifest(Path(args.data), args.split)))
    if n is None:
        n = model.extra_meta.get("train_points")
    if n is None:
        raise ConfigError("checkpoint lacks train_points; pass --points")
    if model.task == "classify":
        report = evaluate_classification(model, clouds, n)
        print(f"instance accuracy: {report.instance_accuracy:.4f}")
        print(f"class accuracy:    {report.class_accuracy:.4f}")
        print(f"METRICS instance={report.instance_accuracy:.6f} "
              f"class={report.class_accuracy:.6f}")
    else:
        report = evaluate_segmentation(model, clouds, n)
        print(f"point accuracy: {report.instance_accuracy:.4f}")
        print(f"mean mIoU:      {report.mean_miou:.4f}")
        for cat, miou in sorted(report.per_category_miou.items()):
            print(f"  category {cat}: mIoU {miou:.4f}")
        print(f"METRICS instance={report.instance_accuracy:.6f} "
              f"class={report.class_accuracy:.6f} miou={report.mean_miou:.6f}")
    return 0


def cmd_sweep(args) -> int:
    counts = [_point_count(t) for t in args.points.split(",") if t.strip()]
    if not counts:
        print("usage error: --points list is empty", file=sys.stderr)
        return 2
    model = load_checkpoint(args.ckpt)
    if model.task != "classify":
        raise ConfigError("sweep requires a classification checkpoint")
    clouds = load_dataset(load_manifest(_find_manifest(Path(args.data), args.split)))
    rows = sweep_point_count(model, clouds, counts, out_csv=args.out)
    for n, inst, cls in rows:
        print(f"n_points={n} instance={inst:.4f} class={cls:.4f}")
    return 0


def cmd_embed(args) -> int:
    model = load_checkpoint(args.ckpt)
    cloud = load_cloud_text(args.cloud)
    if cloud.din != model.din:
        raise ConfigError(
            f"cloud has {cloud.din} features per point, checkpoint expects "
            f"{model.din}")
    # centered and scaled as eval prepares it
    x, _ = next(_prepare_batch([cloud], [len(cloud)]))
    feat = model.global_features(x)[0]
    print(" ".join(f"{v:.6f}" for v in feat))
    return 0


def cmd_gradcheck(args) -> int:
    check_int(args.k, "--k", 1)
    check_int(args.depth, "--depth", 1, 5)
    model = Classifier(din=6, num_classes=4, k=args.k, depth=args.depth,
                       seed=7, dtype=np.float64)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(2, 5, 6))
    y = np.array([1, 3])

    def loss_fn():
        model.zero_grads()
        loss, dlogits = softmax_cross_entropy(model.forward(x), y)
        if args.inject_bug:
            dlogits = -dlogits
        model.backward(dlogits)
        return loss

    report = grad_check(loss_fn, model.params(), tol=1e-5, eps=1e-7,
                        denom_floor=1e-3, samples_per_param=20,
                        rng=np.random.default_rng(3))
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} max relative error {report.max_rel_error:.3e} "
          f"(worst: {report.worst_param}[{report.worst_index}], "
          f"{report.checked} coordinates)")
    return 0 if report.passed else 1


def cmd_synth(args) -> int:
    # synth_shapes checks these too, under its argument names
    for flag, value, low in (("--per-class", args.per_class, 1),
                             ("--points", args.points, 1),
                             ("--seed", args.seed, 0)):
        check_int(value, flag, low)
    out = Path(args.out)
    synth_shapes(out, args.per_class, args.points, args.seed,
                 split=args.split)
    print(f"wrote {args.split} split to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penet", description="point-embedding network toolkit")
    parser.add_argument("--threads", type=int, default=None,
                        help="ignored, as is PENET_THREADS: penet computes "
                             "on one thread, and BLAS threads follow "
                             "OPENBLAS_NUM_THREADS")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a manifest dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--points", default=None,
                   help="test point count (default: the training count)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy across test point counts")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--points", required=True, help="comma-separated counts")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("embed", help="print a cloud's global feature")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--cloud", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--k", type=int, default=64)
    p.add_argument("--inject-bug", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="generate the 4-class synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--points", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
