"""tools/bit_identity.py runs the synth/train/sweep/eval/embed recipe and
prints the same lines on every run."""

import importlib.util
import re
import tempfile
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bit_identity.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bit_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipe_prints_the_same_lines_twice():
    tool = _tool()
    outputs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            outputs.append(tool.recipe(Path(tmp), 2, 64, 2, 32,
                                       "64,16,32,16", 48))
    assert outputs[0] == outputs[1]
    hashes = [line.rsplit(" ", 1) for line in outputs[0][:8]]
    assert [name for name, _ in hashes] == [
        "synth data", "classify checkpoint", "sweep csv", "classify eval",
        "classify embed", "segment checkpoint", "segment eval",
        "segment embed"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in hashes)
    # each log: the header, then one row per epoch without the seconds
    logs = outputs[0][8:]
    assert logs == [line for task in ("classify", "segment")
                    for line in logs if line.startswith(f"{task} log: ")]
    assert logs[0] == "classify log: epoch,loss,train_acc,val_acc"
    assert logs[3] == "segment log: epoch,loss,train_acc,val_acc"
    assert [line.split(": ")[1].count(",") for line in logs] == [3] * 6
    # the recipe validates on the training clouds
    assert all(not line.endswith("nan") for line in logs)
