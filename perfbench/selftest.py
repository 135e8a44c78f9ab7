"""Self-test of the benchmark at tiny input sizes.

Usage, from the root of a checkout: python3 perfbench/selftest.py

* BENCHMARK.json names the metrics and workloads of spec.py, with their units.
* Every workload, untraced and traced, prints a result line with every metric
  and its unit, and no operation fails.
* In a traced run the layer self times plus the unattributed time add up to
  the traced pass time.
* A deliberately corrupted metric value is counted as a failed operation.
* In a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with a nonzero code and prints no result.

Exits with code 0 when every check holds.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS  # noqa: E402

# One corruption per workload: (asymdep.metrics function, added to its value).
CORRUPTIONS = {
    "exact-rectangles": ("alpha_coefficient", Fraction(1, 1000)),
    "weak-geometry": ("bl_distance", 1e-3),
    "file-roundtrip": ("variation_norm", Fraction(1, 1000)),
}


def check_benchmark_json() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS), bench["workloads"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result_line(workload: str, trace: int) -> None:
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    want = PER_LAYER if trace else END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: {got}"
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["unattributed.self_s"]
        assert abs(total - values["trace.wall_s"]) < 1e-6, (total, values["trace.wall_s"])


def check_corruption_fails(workload: str) -> None:
    import worker
    from tracing import rebind, restore
    from asymdep import metrics

    name, delta = CORRUPTIONS[workload]
    original = getattr(metrics, name)

    def corrupted(*args, **kwargs):
        mv = original(*args, **kwargs)
        return dataclasses.replace(mv, value=mv.value + delta)

    undo = rebind(original, corrupted)
    try:
        result = worker.run_workload(workload, 1, 0, False, "tiny")
    finally:
        restore(undo)
    fail_ratio = result["failed"] / result["attempted"]
    assert fail_ratio > 0, f"{workload}: corrupted {name} went unnoticed"
    print(f"{workload}: corrupted {name} gives fail_ratio "
          f"{result['failed']}/{result['attempted']}")


def check_bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = run_benchmark(Path(bare), WORKLOADS[0], 0)
    assert proc.returncode != 0, "benchmark ran without the program's sources"
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    check_benchmark_json()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result_line(workload, trace)
        check_corruption_fails(workload)
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
