"""The asymdep benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is single-process and closed-loop: one client issues operations
back to back, with no threads. Each run starts a fresh interpreter for the
workload (perfbench/worker.py), because a large live Fraction heap from one
workload slows the next. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Metric
names and units are in spec.py; workloads and what each metric should move
are described in perfbench/README.md.

The program runs from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_s is the median of this many fresh imports, after one untimed import
# that writes the bytecode cache: a single import varies by a factor of two.
SETUP_IMPORTS = 5
# Every run ends within 180 s: the worker gets what set-up leaves of this.
RUN_LIMIT_S = 170.0

IMPORT_PROBE = "import asymdep; print(asymdep.__file__, flush=True)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def time_import(env: dict) -> float:
    """Seconds from starting a fresh interpreter to ``import asymdep`` done."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or Path(line.strip()).resolve() != SRC / "asymdep" / "__init__.py":
        raise RuntimeError(f"import asymdep from {SRC} failed: {line.strip()} {err.strip()}")
    return elapsed


def run_worker(args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.terminate()  # the worker removes its work directory on SIGTERM
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="asymdep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for selftest.py only")
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so that the worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "asymdep" / "__init__.py").is_file():
        print(f"error: no asymdep sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = child_env()
    try:
        setup = []
        if not args.trace:
            time_import(env)
            setup = [time_import(env) for _ in range(SETUP_IMPORTS)]
        result = run_worker(args, env, RUN_LIMIT_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        values = result["layers"]
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": 1 - result["failed"] / result["attempted"],
        }
        units = END_TO_END
    print(f"untraced pass times (s): {result['walls']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
