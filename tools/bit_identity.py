"""Run the bit-identity recipe and print what it wrote, for comparing two
trees of penet byte for byte.

    python3 tools/bit_identity.py

The recipe, run through ``penet.cli.main`` in a temporary directory:
``synth --per-class 8 --points 512 --seed 3``; a ``val.manifest`` that
lists every training cloud again, more than one batch_size chunk, so
each log's ``val_acc`` is compared too; ``train --seed 3 --set epochs=3
--set n_points=128`` for a classifier and, with ``.seg`` sidecars whose
part is (z > 0) + 2·(x > 0) of the loaded points, with ``--set
task=segment`` for a segmenter; ``sweep --split train --points
512,64,128,64`` with the classifier; ``eval --split train --points 200``
with each checkpoint; and ``embed`` of the first cloud with each.

It prints the sha256 of the files ``synth`` wrote (each file's name, its
length and its bytes, in name order, before the recipe adds its own
``.seg`` sidecars and ``val.manifest``), of both checkpoints, the sweep
CSV and each eval and embed output, then each training log without its
seconds column. Run it in both trees on the same host and compare the
outputs; the hashes depend on the BLAS build and thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from penet.cli import main as penet  # noqa: E402
from penet.data import load_cloud_text, load_manifest  # noqa: E402


def _run(*argv: str) -> bytes:
    """stdout of one penet command, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = penet(list(argv))
    if code != 0:
        raise SystemExit(f"penet {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_sha(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _log_without_seconds(path: Path) -> list[str]:
    return [line.rpartition(",")[0]
            for line in path.read_text(encoding="utf-8").splitlines()]


def recipe(work: Path, per_class: int, points: int, epochs: int,
           n_points: int, sweep: str, eval_points: int) -> list[str]:
    """The recipe's output lines, run in ``work``."""
    data = work / "data"
    _run("synth", "--out", str(data), "--per-class", str(per_class),
         "--points", str(points), "--seed", "3")
    lines, logs = [f"synth data {_files_sha(data)}"], []
    manifest = load_manifest(data / "train.manifest")
    for rel, _, _ in manifest.entries:
        p = load_cloud_text(data / rel).points
        parts = (p[:, 2] > 0).astype(int) + 2 * (p[:, 0] > 0)
        (data / f"{rel}.seg").write_text(
            "".join(f"{part}\n" for part in parts), encoding="utf-8")
    (data / "val.manifest").write_bytes(
        (data / "train.manifest").read_bytes())
    first = str(data / manifest.entries[0][0])
    for task in ("classify", "segment"):
        ckpt = work / f"{task}.ckpt"
        _run("train", "--data", str(data), "--out", str(ckpt), "--seed", "3",
             "--set", f"epochs={epochs}", "--set", f"n_points={n_points}",
             "--set", f"task={task}")
        lines.append(f"{task} checkpoint {_sha(ckpt.read_bytes())}")
        if task == "classify":
            csv = work / "sweep.csv"
            _run("sweep", "--ckpt", str(ckpt), "--data", str(data),
                 "--split", "train", "--points", sweep, "--out", str(csv))
            lines.append(f"sweep csv {_sha(csv.read_bytes())}")
        evaluated = _run("eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--split", "train", "--points", str(eval_points))
        embedded = _run("embed", "--ckpt", str(ckpt), "--cloud", first)
        lines.append(f"{task} eval {_sha(evaluated)}")
        lines.append(f"{task} embed {_sha(embedded)}")
        log = _log_without_seconds(ckpt.with_suffix(".log.csv"))
        logs += [f"{task} log: {line}" for line in log]
    return lines + logs


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="penet_bits_") as work:
        for line in recipe(Path(work), 8, 512, 3, 128, "512,64,128,64", 200):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
