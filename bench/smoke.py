"""Smoke test: a tiny run of every workload in both modes.

    python3 bench/smoke.py

Each run must exit 0 and end with a result that names every metric of
BENCHMARK.json with its unit and has no failed operation. A copy of the
benchmark without the penet sources must exit non-zero and print no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "3", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-3000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}, (workload, trace)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
    print(f"ok {workload} trace={trace}: {result['attempted']} attempted, "
          f"error rate 0")


def check_bare_copy():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "train-cls", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok without penet sources: exit code", proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_copy()


if __name__ == "__main__":
    main()
