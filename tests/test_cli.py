import argparse
import importlib
from dataclasses import fields

import numpy as np
import pytest

from penet.cli import build_parser, build_train_config, main
from penet.data import AugmentConfig
from penet.errors import ConfigError
from penet.train import TrainConfig


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    assert main(["synth", "--out", str(out), "--per-class", "6",
                 "--points", "128", "--seed", "0"]) == 0
    assert main(["synth", "--out", str(out), "--per-class", "2",
                 "--points", "128", "--seed", "1", "--split", "test"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_ckpt(synth_dir, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("run") / "model.ckpt"
    rc = main(["train", "--data", str(synth_dir), "--out", str(ckpt),
               "--seed", "1",
               "--set", "epochs=1", "--set", "k=64", "--set", "n_points=32",
               "--set", "batch_size=8"])
    assert rc == 0
    return ckpt


def test_synth_writes_dataset(synth_dir):
    assert (synth_dir / "train.manifest").exists()
    assert (synth_dir / "test.manifest").exists()
    clouds = [p for p in synth_dir.iterdir() if p.suffix == ".txt"]
    assert len(clouds) == 4 * 6 + 4 * 2  # train + test split


def test_synth_same_seed_identical(tmp_path):
    for sub in ("a", "b"):
        main(["synth", "--out", str(tmp_path / sub), "--per-class", "2",
              "--points", "32", "--seed", "9"])
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


@pytest.mark.parametrize("flag,value", [("--per-class", "0"),
                                        ("--per-class", "-3"),
                                        ("--points", "0")])
def test_synth_rejects_sizes_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    argv = ["synth", "--out", str(out), "--per-class", "2", "--points", "16"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: {flag} must be >= 1, got {value}\n"
    assert not out.exists()


def test_train_missing_data_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", "x.ckpt"])
    assert exc.value.code == 2


def test_train_writes_checkpoint_and_log(trained_ckpt):
    assert trained_ckpt.exists()
    assert trained_ckpt.with_suffix(".log.csv").exists()
    from penet.train import load_checkpoint
    model = load_checkpoint(trained_ckpt)
    assert model.task == "classify"
    assert model.extra_meta["train_points"] == 32
    assert model.extra_meta["class_names"] == ["sphere", "cube", "cylinder",
                                               "disc"]


def test_train_seed_repeat_identical(synth_dir, tmp_path):
    outs = []
    for name in ("r1.ckpt", "r2.ckpt"):
        path = tmp_path / name
        main(["train", "--data", str(synth_dir), "--out", str(path),
              "--seed", "5", "--set", "epochs=1", "--set", "k=64",
              "--set", "n_points=32", "--set", "batch_size=8"])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_eval_prints_metrics_line(trained_ckpt, synth_dir, capsys):
    assert main(["eval", "--ckpt", str(trained_ckpt),
                 "--data", str(synth_dir)]) == 0
    out = capsys.readouterr().out
    metrics = [l for l in out.splitlines() if l.startswith("METRICS ")]
    assert len(metrics) == 1
    assert "instance=" in metrics[0] and "class=" in metrics[0]


def test_eval_points_override(trained_ckpt, synth_dir, capsys):
    assert main(["eval", "--ckpt", str(trained_ckpt), "--data", str(synth_dir),
                 "--points", "64"]) == 0
    assert "METRICS" in capsys.readouterr().out


def test_eval_corrupt_checkpoint(tmp_path, synth_dir, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert main(["eval", "--ckpt", str(bad), "--data", str(synth_dir)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_csv(trained_ckpt, synth_dir, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--ckpt", str(trained_ckpt), "--data", str(synth_dir),
                 "--points", "16,32,64", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n_points,instance_acc,class_acc"
    assert len(lines) == 4


def test_sweep_empty_points(trained_ckpt, synth_dir, tmp_path, capsys):
    assert main(["sweep", "--ckpt", str(trained_ckpt), "--data", str(synth_dir),
                 "--points", ",", "--out", str(tmp_path / "s.csv")]) == 2


@pytest.mark.parametrize("command, points, token", [
    (command, token, token) for command in ("eval", "sweep")
    for token in ("abc", "0", "-4")] + [("sweep", "16, x1", "x1")])
def test_bad_points_named_before_loading(tmp_path, capsys, command, points,
                                         token):
    # nothing exists at --ckpt or --data, so any loading would fail first
    argv = [command, "--ckpt", str(tmp_path / "missing.ckpt"),
            "--data", str(tmp_path), "--points", points]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "s.csv")]
    assert main(argv) == 1
    assert f"--points: {token!r} is not a point count" in \
        _one_line_error(capsys)


def test_embed_output_shape_and_range(trained_ckpt, synth_dir, capsys):
    cloud = next(p for p in synth_dir.iterdir() if p.suffix == ".txt")
    assert main(["embed", "--ckpt", str(trained_ckpt),
                 "--cloud", str(cloud)]) == 0
    tokens = capsys.readouterr().out.split()
    assert len(tokens) == 64
    vals = np.array([float(t) for t in tokens])
    assert ((vals >= 0.0) & (vals <= 1.0)).all()


def test_embed_permuted_cloud_same_feature(trained_ckpt, synth_dir, tmp_path,
                                           capsys):
    cloud = next(p for p in synth_dir.iterdir() if p.suffix == ".txt")
    lines = cloud.read_text().splitlines()
    rng = np.random.default_rng(0)
    permuted = tmp_path / "perm.txt"
    permuted.write_text("\n".join(lines[i] for i in rng.permutation(len(lines)))
                        + "\n")
    main(["embed", "--ckpt", str(trained_ckpt), "--cloud", str(cloud)])
    a = np.array([float(t) for t in capsys.readouterr().out.split()])
    main(["embed", "--ckpt", str(trained_ckpt), "--cloud", str(permuted)])
    b = np.array([float(t) for t in capsys.readouterr().out.split()])
    np.testing.assert_allclose(a, b, atol=1e-4)


def test_embed_streams_and_prints_cached_feature(trained_ckpt, synth_dir,
                                                 monkeypatch, capsys):
    from penet import cli
    from penet.data import load_cloud_text
    from penet.train import _prepare_batch, load_checkpoint
    loaded = []

    def load(path):
        loaded.append(load_checkpoint(path))
        return loaded[-1]
    monkeypatch.setattr(cli, "load_checkpoint", load)
    cloud = next(p for p in synth_dir.iterdir() if p.suffix == ".txt")
    assert main(["embed", "--ckpt", str(trained_ckpt),
                 "--cloud", str(cloud)]) == 0
    # the forward streamed inside numcore.inference(): no tap, and no
    # backward cache
    assert loaded[0].encoder.tapped is None
    with pytest.raises(RuntimeError, match="inference forward"):
        loaded[0].encoder.backward(np.zeros((1, loaded[0].k)))
    # the cloud prepared as eval prepares it
    loaded_cloud = load_cloud_text(cloud)
    x, _ = next(_prepare_batch([loaded_cloud], [len(loaded_cloud)]))
    feat = load_checkpoint(trained_ckpt).global_features(x)[0]
    assert capsys.readouterr().out == \
        " ".join(f"{v:.6f}" for v in feat) + "\n"


def test_embed_ignores_scale_and_offset(trained_ckpt, synth_dir, tmp_path,
                                        capsys):
    # the raw file rows gave features up to 0.26 apart here
    cloud = next(p for p in synth_dir.iterdir() if p.suffix == ".txt")
    rows = np.loadtxt(cloud)
    rows[:, :3] = rows[:, :3] * 10 + 5
    moved = tmp_path / "moved.txt"
    np.savetxt(moved, rows)
    feats = []
    for path in (cloud, moved):
        assert main(["embed", "--ckpt", str(trained_ckpt),
                     "--cloud", str(path)]) == 0
        feats.append(np.array(capsys.readouterr().out.split(), dtype=float))
    np.testing.assert_allclose(feats[0], feats[1], rtol=0, atol=1e-5)


def test_embed_din_mismatch(trained_ckpt, tmp_path, capsys):
    xyz_only = tmp_path / "c.txt"
    xyz_only.write_text("0 0 0\n1 0 0\n")
    assert main(["embed", "--ckpt", str(trained_ckpt),
                 "--cloud", str(xyz_only)]) == 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_embed_checkpoint_missing_metadata_key(trained_ckpt, synth_dir,
                                              tmp_path, capsys):
    from penet.train import load_checkpoint, save_checkpoint
    model = load_checkpoint(trained_ckpt)
    meta = {k: v for k, v in model.metadata().items() if k != "din"}
    model.metadata = lambda: meta
    bad = tmp_path / "nodin.ckpt"
    save_checkpoint(model, bad)
    cloud = next(p for p in synth_dir.iterdir() if p.suffix == ".txt")
    assert main(["embed", "--ckpt", str(bad), "--cloud", str(cloud)]) == 1
    assert "'din'" in _one_line_error(capsys)


@pytest.mark.parametrize("value", [[32], 31.7, True, 0, -3, None, "32"])
def test_eval_checkpoint_bad_train_points(trained_ckpt, synth_dir, tmp_path,
                                          capsys, value):
    # once crashed (a list), or evaluated at 31 (31.7) or 1 point (true)
    from penet.train import load_checkpoint, save_checkpoint
    model = load_checkpoint(trained_ckpt)
    model.extra_meta["train_points"] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(model, bad)
    assert main(["eval", "--ckpt", str(bad), "--data", str(synth_dir)]) == 1
    assert "'train_points'" in _one_line_error(capsys)


def test_embed_non_finite_cloud(trained_ckpt, tmp_path, capsys):
    cloud = tmp_path / "nan.txt"
    cloud.write_text("0 0 0 0 0 1\n1 0 0 nan 0 0\n")
    assert main(["embed", "--ckpt", str(trained_ckpt),
                 "--cloud", str(cloud)]) == 1
    assert "finite" in _one_line_error(capsys)


def test_embed_cloud_past_the_coordinate_bound(trained_ckpt, tmp_path, capsys):
    # squared distances of a 1e19 cloud overflow float32
    cloud = tmp_path / "far.txt"
    cloud.write_text("0 0 0 0 0 1\n1e19 0 0 0 0 1\n")
    assert main(["embed", "--ckpt", str(trained_ckpt),
                 "--cloud", str(cloud)]) == 1
    assert "overflow float32" in _one_line_error(capsys)


def test_eval_bad_seg_sidecar(trained_ckpt, tmp_path, capsys):
    (tmp_path / "c.txt").write_text("0 0 0 0 0 1\n1 0 0 0 0 1\n")
    (tmp_path / "c.txt.seg").write_text("1\nx\n")
    (tmp_path / "test.manifest").write_text("c.txt\t0\n")
    assert main(["eval", "--ckpt", str(trained_ckpt),
                 "--data", str(tmp_path)]) == 1
    assert "c.txt.seg:2:" in _one_line_error(capsys)


def test_eval_non_utf8_cloud_names_file(trained_ckpt, tmp_path, capsys):
    (tmp_path / "c.txt").write_bytes(b"0 0 0 0 0 1\n1 0 0 0 0 \xff\n")
    (tmp_path / "test.manifest").write_text("c.txt\t0\n")
    assert main(["eval", "--ckpt", str(trained_ckpt),
                 "--data", str(tmp_path)]) == 1
    assert "c.txt: not UTF-8 text" in _one_line_error(capsys)


@pytest.mark.parametrize("command", [["eval"], ["sweep", "--points", "16,32"]])
def test_empty_split_is_one_line_error(trained_ckpt, tmp_path, capsys,
                                       command):
    (tmp_path / "test.manifest").write_text("#classes: a,b\n")
    out = tmp_path / "sweep.csv"
    argv = command + ["--ckpt", str(trained_ckpt), "--data", str(tmp_path)]
    if command[0] == "sweep":
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert "no clouds to evaluate" in _one_line_error(capsys)
    assert not out.exists()


def test_train_segment_non_square_k_fails_before_training(tmp_path, capsys,
                                                          monkeypatch):
    def no_batches(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(importlib.import_module("penet.train"),
                        "_prepare_batch", no_batches)
    (tmp_path / "c.txt").write_text("0 0 0 0 0 1\n1 0 0 0 0 1\n")
    (tmp_path / "c.txt.seg").write_text("0\n1\n")
    (tmp_path / "train.manifest").write_text("c.txt\t0\n")
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(tmp_path), "--out", str(ckpt),
                 "--set", "task=segment", "--set", "k=1000"]) == 1
    assert "perfect square" in _one_line_error(capsys)
    assert not ckpt.exists() and not ckpt.with_suffix(".log.csv").exists()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--depth", "3", "--k", "16"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_depth_5(capsys):
    assert main(["gradcheck", "--depth", "5", "--k", "16"]) == 0


def test_gradcheck_injected_bug_fails(capsys):
    assert main(["gradcheck", "--k", "16", "--inject-bug"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_file_and_overrides(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("epochs=3\nlr=0.01\naugment.jitter_sigma=0.02\n")
    cfg = build_train_config(str(cfile), ["epochs=5"], seed=42)
    assert cfg.epochs == 5          # flag override wins
    assert cfg.lr == 0.01
    assert cfg.augment.jitter_sigma == 0.02
    assert cfg.seed == 42


def test_config_unknown_key_rejected(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("epocs=3\n")
    with pytest.raises(ConfigError, match="unknown"):
        build_train_config(str(cfile), [], None)


def test_config_file_not_utf8_names_file(synth_dir, tmp_path, capsys):
    cfile = tmp_path / "run.cfg"
    cfile.write_bytes(b"epochs=1\nlr=\xff\n")
    with pytest.raises(ConfigError, match="run.cfg: not UTF-8 text"):
        build_train_config(str(cfile), [], None)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(cfile), "--data", str(synth_dir),
                 "--out", str(ckpt)]) == 1
    assert "run.cfg: not UTF-8 text" in _one_line_error(capsys)
    assert not ckpt.exists()


def test_train_out_of_range_integers_are_one_line_errors(synth_dir, tmp_path,
                                                         capsys):
    ckpt = tmp_path / "m.ckpt"
    for item in ("batch_size=0", "lr_step=-1", "epochs=0", "k=-4"):
        assert main(["train", "--data", str(synth_dir), "--out", str(ckpt),
                     "--set", item]) == 1
        field, _, value = item.partition("=")
        err = _one_line_error(capsys)
        assert err.startswith(f"error: {field} must be >= ")
        assert err.endswith(f"got {value}\n")
        assert not ckpt.exists() and not ckpt.with_suffix(".log.csv").exists()


def test_train_negative_seed_flag_is_checked_by_the_config(capsys):
    # --seed once skipped TrainConfig's checks and failed in SeedSequence,
    # after the data was loaded, with a message naming no key
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1"):
        build_train_config(None, [], seed=-1)
    assert build_train_config(None, ["seed=3"], seed=4).seed == 4


def test_train_bad_float_values_are_one_line_errors(synth_dir, tmp_path,
                                                    capsys):
    ckpt = tmp_path / "m.ckpt"
    for item in ("augment.shift_range=inf", "augment.shift_range=nan",
                 "augment.scale_range=1,inf", "augment.shift_range=-0.1",
                 "augment.jitter_sigma=nan", "augment.jitter_clip=inf",
                 "augment.jitter_sigma=-0.1",
                 "lr=-1", "lr_gamma=nan"):
        assert main(["train", "--data", str(synth_dir), "--out", str(ckpt),
                     "--set", item]) == 1
        assert _one_line_error(capsys).startswith(
            f"error: {item.partition('=')[0]} must ")
        assert not ckpt.exists() and not ckpt.with_suffix(".log.csv").exists()


def test_augment_seed_is_not_a_key():
    # each sample's seed comes from the run seed, the epoch and the cloud
    with pytest.raises(ConfigError, match="unknown config key 'augment.seed'"):
        build_train_config(None, ["augment.seed=5"], None)


def test_negative_class_id_is_one_line_error(trained_ckpt, tmp_path, capsys):
    (tmp_path / "c.txt").write_text("0 0 0 0 0 1\n1 0 0 0 0 1\n")
    (tmp_path / "test.manifest").write_text("c.txt\t1\nc.txt\t-1\n")
    assert main(["eval", "--ckpt", str(trained_ckpt),
                 "--data", str(tmp_path)]) == 1
    assert "test.manifest:2: class id -1 is negative" in \
        _one_line_error(capsys)


def test_config_scale_range_parse():
    cfg = build_train_config(None, ["augment.scale_range=0.9,1.1"], None)
    assert cfg.augment.scale_range == (0.9, 1.1)


_STR_VALUES = {"task": "segment", "optimizer": "sgd"}


def _every_config_key():
    """(dotted key, annotation) of every TrainConfig and AugmentConfig field."""
    keys = [(f.name, f.type) for f in fields(TrainConfig) if f.name != "augment"]
    keys += [(f"augment.{f.name}", f.type) for f in fields(AugmentConfig)]
    return keys


@pytest.mark.parametrize("key, annotation", _every_config_key())
def test_config_every_field_accepted_by_set(key, annotation):
    raw = {"int": "3", "float": "0.04", "tuple[float, float]": "0.7,1.3",
           "str": _STR_VALUES.get(key)}[annotation]
    cfg = build_train_config(None, [f"{key}={raw}"], None)
    owner, _, name = key.rpartition(".")
    value = getattr(cfg.augment if owner else cfg, name)
    expected = {"int": 3, "float": 0.04, "tuple[float, float]": (0.7, 1.3),
                "str": raw}[annotation]
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("key", ["epocs", "augment.jitter", "augment",
                                 "augment.scale"])
def test_config_unknown_set_key_rejected(key):
    with pytest.raises(ConfigError, match="unknown config key"):
        build_train_config(None, [f"{key}=1"], None)


@pytest.mark.parametrize("item", ["epochs=1.5", "lr=fast",
                                  "augment.scale_range=0.9",
                                  "augment.scale_range=low,high"])
def test_config_unparsable_value_names_its_key(item):
    key = item.partition("=")[0]
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        build_train_config(None, [item], None)


# (subcommand, flag) -> (the name its error uses, floor, ceiling or None).
# train's --seed is checked by TrainConfig, as the config key seed.
_INT_OPTION_BOUNDS = {
    ("train", "--seed"): ("seed", 0, None),
    ("gradcheck", "--depth"): ("--depth", 1, 5),
    ("gradcheck", "--k"): ("--k", 1, None),
    ("synth", "--per-class"): ("--per-class", 1, None),
    ("synth", "--points"): ("--points", 1, None),
    ("synth", "--seed"): ("--seed", 0, None),
}


def _subcommand_parsers():
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _int_options():
    """(subcommand, option action) of every type=int option of every
    subcommand."""
    return [(name, action) for name, sub in _subcommand_parsers().items()
            for action in sub._actions if action.type is int]


@pytest.mark.parametrize("command, action", _int_options(),
                         ids=lambda v: getattr(v, "dest", v))
def test_integer_option_out_of_bounds_is_one_line_error(
        tmp_path, monkeypatch, capsys, command, action):
    flag = action.option_strings[0]
    assert (command, flag) in _INT_OPTION_BOUNDS, \
        f"record the bounds of {command} {flag}"
    name, low, high = _INT_OPTION_BOUNDS[command, flag]
    monkeypatch.chdir(tmp_path)
    required = [arg for a in _subcommand_parsers()[command]._actions
                if a.required for arg in (a.option_strings[0],
                                          str(tmp_path / a.dest))]
    cases = [(low - 1, f">= {low}")]
    if high is not None:
        cases.append((high + 1, f"<= {high}"))
    for value, bound in cases:
        assert main([command, *required, flag, str(value)]) == 1
        assert _one_line_error(capsys) == \
            f"error: {name} must be {bound}, got {value}\n"
        assert list(tmp_path.iterdir()) == []


def test_eval_segmentation_checkpoint_on_unlabeled_parts(synth_dir, tmp_path,
                                                          capsys):
    from penet.models import Segmenter
    from penet.train import save_checkpoint
    model = Segmenter(din=6, num_parts=3, k=64, depth=3)
    model.extra_meta["train_points"] = 32
    ckpt = tmp_path / "seg.ckpt"
    save_checkpoint(model, ckpt)
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(synth_dir)]) == 1
    assert _one_line_error(capsys) == \
        "error: segment evaluation requires part labels\n"
