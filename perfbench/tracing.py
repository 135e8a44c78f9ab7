"""Per-layer tracing of asymdep from outside the package.

Every public function of a layer module is wrapped in a span, and the wrapper
is bound under every name in every asymdep module that refers to the original.
Modules call what they imported by name: ``metrics`` imports ``max_flow``
itself, so wrapping only ``asymdep.engines.max_flow`` would capture nothing.
Constructors are wrapped on the class (its ``__init__``), so ``isinstance``
checks keep working.

Spans are kept in memory while a pass runs and are folded into self times and
counts after it: a span's self time is its duration minus the durations of
its child spans.
"""
from __future__ import annotations

import enum
import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

from spec import LAYERS

# Helpers called once per matrix entry: a span on each would cost far more
# than the work it measures. Their time counts toward the calling span.
PER_ENTRY_HELPERS = frozenset({
    "as_fraction", "chi", "sign_fn", "tent", "h_eval", "binary_coding_weight",
    "rational_to_str", "value_to_str", "parse_value",
})


def _asymdep_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "asymdep" or name.startswith("asymdep."))]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` under every asymdep module name bound to ``original``.

    Returns undo records for ``restore``.
    """
    undo = []
    for module in _asymdep_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                undo.append((module, name, original))
                setattr(module, name, replacement)
    return undo


def restore(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


# Count hooks: (bound arguments, counters) -> None, keyed by span name.

def _hypercube(a, counts):
    if a["mode"] == "exact":
        m, k = sorted((len(a["j"].space1), len(a["j"].space2)))
        counts["metrics.hypercube.subsets"] += 2 ** m
        counts["metrics.hypercube.ops"] += 2 ** m * k


def _max_flow(a, counts):
    counts["engines.max_flow.edges"] += len(a["net"].edges)


def _solve_lp(a, counts):
    rows, cols = len(a["lp"].constraints), len(a["lp"].objective)
    counts["engines.solve_lp.rows"] += rows
    counts["engines.solve_lp.bytes"] += 8 * rows * cols


def _space(a, counts):
    if a["validate"]:
        n = len(a["self"].labels)
        counts["spaces.points_validated"] += n
        counts["spaces.triangle_ops"] += n ** 3


def _entries(field):
    def hook(a, counts):
        value = getattr(a["self"], field)
        counts["measures.entries"] += sum(
            len(row) if isinstance(row, tuple) else 1 for row in value
        )
    return hook


def _file(counter):
    def hook(a, counts):
        counts[counter] += os.path.getsize(a["path"])
    return hook


HOOKS = {
    "metrics.alpha_coefficient": _hypercube,
    "metrics.cov_sup_pm1": _hypercube,
    "engines.max_flow": _max_flow,
    "engines.solve_lp": _solve_lp,
    "spaces.FiniteMetricSpace": _space,
    "measures.DiscreteMeasure": _entries("weights"),
    "measures.JointMeasure": _entries("weights"),
    "measures.DependenceMatrix": _entries("entries"),
    "io.save_measure": _file("io.bytes_written"),
    "io.write_report_csv": _file("io.bytes_written"),
    "io.load_measure": _file("io.bytes_read"),
}


class Tracer:
    """Spans and counts for the layer functions of asymdep while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, counts)
            return result

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"asymdep.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in PER_ENTRY_HELPERS
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    init = vars(obj).get("__init__")
                    if init is None or issubclass(obj, (enum.Enum, BaseException)):
                        continue
                    self._undo.append((obj, "__init__", init))
                    obj.__init__ = self._wrap(name, init)
                elif inspect.isfunction(obj):
                    self._undo.extend(rebind(obj, self._wrap(name, obj)))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self, wall: float) -> dict[str, float]:
        """Self time and calls per layer and per span name, the counts, and
        ``unattributed.self_s``: pass time outside every span.

        The layer self times plus the unattributed time add up to ``wall``.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        top = 0.0
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent < 0:
                top += durations[i]
            else:
                child[parent] += durations[i]
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            own = durations[i] - child[i]
            out[f"{layer}.self_s"] += own
            out[f"{name}.self_s"] += own
            out[f"{layer}.calls"] += 1
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        out["unattributed.self_s"] = wall - top
        return out
