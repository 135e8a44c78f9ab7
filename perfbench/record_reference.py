"""Rewrites reference.json from the asymdep in this checkout's src/.

Usage: python3 perfbench/record_reference.py

Runs one pass of every workload at full size with the reference seed and
records each operation's output values. Run it only on a commit whose
outputs are known to be right: the benchmark counts every later difference
as a failed operation.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src/ on sys.path)


def main() -> int:
    reference = {}
    for name, build in workloads.WORKLOADS.items():
        ops = build(workloads.REFERENCE_SEED, "full")
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
            pass_dir = Path(work)
            outs = {op.key: op.run(pass_dir) for op in ops}
            failures = workloads.check_pass(ops, outs, pass_dir, None, workloads.REFERENCE_SEED)
            if failures:
                print(json.dumps(failures, indent=2), file=sys.stderr)
                return 1
            reference[name] = {op.key: op.values(outs[op.key], pass_dir) for op in ops}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
