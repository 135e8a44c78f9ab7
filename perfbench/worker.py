"""Runs one workload in a fresh interpreter and prints its result as JSON.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts it with the checkout's ``src`` first on PYTHONPATH. A pass
runs every operation of the workload once; passes repeat until the next one
would end after ``--seconds``, and at least one runs. With ``--trace 1``
untraced and traced passes alternate, starting untraced, at least three in
all. The result then carries the per-layer breakdown of the median traced
pass, the tracing overhead (median traced minus median untraced pass time,
leaving out the first pass) and the extra time of the first pass over the
later untraced ones. Outputs are checked after the last pass, outside the
timed region.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Timed passes of one workload, then their checks.

    Returns pass times, operation counts, the first error messages, peak RSS
    and, when traced, the per-layer metrics.
    """
    import workloads
    from spec import PER_LAYER
    from tracing import Tracer

    ops = workloads.WORKLOADS[name](seed, size)
    reference = workloads.load_reference(name) if size == "full" else None
    tracer = Tracer()
    passes = []  # (traced, wall, outputs by op key, pass directory, layer summary)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        start = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_dir = Path(work) / f"pass-{len(passes)}"
            pass_dir.mkdir()
            if traced:
                tracer.reset()
                tracer.install()
            outs, wall = {}, 0.0
            for op in ops:
                # each operation starts from a collected heap, as a CLI call
                # in a fresh process does; the collection is not timed
                gc.collect()
                t0 = perf_counter()
                try:
                    outs[op.key] = op.run(pass_dir)
                except Exception as exc:  # a failed operation, reported by the checks
                    outs[op.key] = exc
                wall += perf_counter() - t0
            summary = None
            if traced:
                tracer.uninstall()
                summary = tracer.summary(wall)
            passes.append((traced, wall, outs, pass_dir, summary))
            if trace and len(passes) < 3:
                continue
            if perf_counter() - start + wall > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, errors = 0, []
        for _, _, outs, pass_dir, _ in passes:
            failures = workloads.check_pass(ops, outs, pass_dir, reference, seed)
            failed += len(failures)
            errors.extend(e for errs in failures.values() for e in errs)

    result = {
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "errors": errors[:20],
        "walls": [wall for traced, wall, *_ in passes if not traced],
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        traced = sorted((p for p in passes if p[0]), key=lambda p: p[1])
        median_pass = traced[(len(traced) - 1) // 2]
        measured = median_pass[4]
        layers = {name: (measured.get(name, 0.0) if unit == "s" else int(measured.get(name, 0)))
                  for name, unit in PER_LAYER.items()}
        layers["trace.wall_s"] = median_pass[1]
        # the first pass is left out: it also does the once-per-process work
        # of first calls, such as scipy setting up its LP solver
        warm = statistics.median(result["walls"][1:])
        layers["trace.overhead_s"] = statistics.median(p[1] for p in traced) - warm
        layers["cold.extra_s"] = result["walls"][0] - warm
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import asymdep
    if Path(asymdep.__file__).resolve().parent != HERE.parent / "src" / "asymdep":
        print(f"worker: imported asymdep from {asymdep.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
