"""n-sweeps over families and decay classification per AI condition.

A sweep computes a set of dependence metrics for each n in a family, then
classifies each metric series as CONVERGES / STALLS / INCONCLUSIVE. Which
metric serves which AI condition, and how it is computed, is the table
``metrics.METRICS``; every row keeps its certified MetricValue. The
thresholds below are artifact policy: limits in the source definitions are
asymptotic, so a finite-sample decision rule is required; they are chosen so
the packaged families classify according to their known behavior with as few
as 4 sweep points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapabilityError, InputError
from .families import (
    FamilyInstance,
    bernoulli_perturbation_family,
    binary_coding_family,
    markov_shift_family,
    two_state_chain,
)
from .metrics import METRICS, JointCase, MetricValue
from .spaces import ProductMetricKind

VERDICT_CONVERGES = "CONVERGES"
VERDICT_STALLS = "STALLS"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

# classify_decay thresholds, as fractions of the series' peak value
CONVERGE_FRAC = 0.5  # the last value must fall below this
STALL_FRAC = 0.75  # the whole second half holding at this stalls
MIN_FIT_QUALITY = 0.8  # r^2 a decreasing fit needs for CONVERGES


# AI condition -> the metrics that operationalize it, in priority order
AI_CONDITION_METRICS = {
    c: tuple(name for name, m in METRICS.items() if m.condition == c)
    for c in dict.fromkeys(m.condition for m in METRICS.values())
}


def _markov_shift(n: int, params: dict) -> FamilyInstance:
    transition, stationary = two_state_chain(params.get("p", Fraction(1, 4)))
    return markov_shift_family(transition, stationary, n)


# family name -> (builder(n, params), the parameter keys it takes); the
# lambdas look the builders up when called
FAMILIES = {
    "binary_coding": (lambda n, params: binary_coding_family(n), ()),
    "bernoulli_perturbation": (lambda n, params: bernoulli_perturbation_family(n), ()),
    "markov_shift": (_markov_shift, ("p",)),
}

FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class DecayVerdict:
    verdict: str
    rate: float | None = None
    fit_quality: float | None = None
    model: str | None = None


@dataclass(frozen=True)
class SweepSpec:
    family: str
    n_values: tuple[int, ...]
    metrics: tuple[str, ...]
    product_metric: ProductMetricKind = ProductMetricKind.SUM
    family_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.n_values)
        object.__setattr__(self, "n_values", ns)
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise InputError("n values must be nonempty and strictly increasing")
        mets = tuple(self.metrics)
        unknown = [m for m in mets if m not in METRICS]
        if unknown:
            raise InputError(f"unknown metrics requested: {unknown}")
        repeated = sorted({m for m in mets if mets.count(m) > 1})
        if repeated:
            raise InputError(f"metrics requested more than once: {repeated}")
        object.__setattr__(self, "metrics", mets)


@dataclass(frozen=True)
class SweepRow:
    """One metric at one n; a gap row has no result and says why in note."""

    family: str
    n: int
    metric: str
    result: MetricValue | None
    note: str = ""

    @property
    def value(self) -> Fraction | float | None:
        return None if self.result is None else self.result.value

    @property
    def exact(self) -> bool:
        return self.result is not None and self.result.exact

    @property
    def mode(self) -> str:
        return METRICS[self.metric].mode


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[SweepRow, ...]
    verdicts: dict  # "AI-k" -> DecayVerdict

    def series(self, metric: str) -> list[tuple[int, float]]:
        return [
            (r.n, float(r.value)) for r in self.rows if r.metric == metric and r.value is not None
        ]


def _fit_loglog(xs, ys):
    """Least-squares fit of y against x; returns (slope, r_squared)."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0:
        return 0.0, 0.0
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return slope, r2


def classify_decay(series) -> DecayVerdict:
    """Classify a (n, value) series as CONVERGES / STALLS / INCONCLUSIVE.

    CONVERGES: the last value dropped below CONVERGE_FRAC of the peak and a
    power-law or exponential fit shows a decreasing trend with r^2 at least
    MIN_FIT_QUALITY (or the tail is exactly zero). STALLS: the whole second
    half of the series holds at STALL_FRAC of the peak. Otherwise
    INCONCLUSIVE. The thresholds classify slow 1/sqrt(n)-type decay as
    convergent from as few as 4 points while keeping flat series stalled.
    Each fit needs 3 positive points: the power law takes those with n >= 1,
    the exponential all of them. A non-finite value, a repeated n and fewer
    than 4 points are InputErrors.
    """
    pts = sorted((int(n), float(v)) for n, v in series)
    for n, v in pts:
        if not math.isfinite(v):
            raise InputError(f"classify_decay needs finite values, got {v} at n = {n}")
    for (n, _), (m, _) in zip(pts, pts[1:]):
        if n == m:
            raise InputError(f"classify_decay needs distinct n, got n = {n} twice")
    if len(pts) < 4:
        raise InputError("classify_decay needs at least 4 points")
    pts = [(n, max(v, 0.0)) for n, v in pts]
    values = [v for _, v in pts]
    if values[-1] == 0.0:
        return DecayVerdict(VERDICT_CONVERGES, rate=None, fit_quality=1.0, model="zero-tail")
    peak = max(values)
    tail = values[len(values) // 2 :]
    if min(tail) >= STALL_FRAC * peak:
        return DecayVerdict(VERDICT_STALLS)
    positive = [(n, math.log(v)) for n, v in pts if v > 0]
    best = None
    for model, fit in (
        ("power", [(math.log(n), y) for n, y in positive if n >= 1]),
        ("exponential", [(float(n), y) for n, y in positive]),
    ):
        if len(fit) >= 3:
            slope, r2 = _fit_loglog(*zip(*fit))
            if best is None or r2 > best[2]:
                best = (model, slope, r2)
    if (
        best is not None
        and values[-1] < CONVERGE_FRAC * peak
        and best[1] < 0
        and best[2] >= MIN_FIT_QUALITY
    ):
        return DecayVerdict(VERDICT_CONVERGES, rate=best[1], fit_quality=best[2], model=best[0])
    return DecayVerdict(VERDICT_INCONCLUSIVE)


def build_family(name: str, n: int, params: dict | None = None) -> FamilyInstance:
    """The family's instance at n; a parameter key the family does not take is an InputError."""
    if name not in FAMILIES:
        raise InputError(f"unknown family {name!r}")
    builder, keys = FAMILIES[name]
    params = dict(params or {})
    for key in params:
        if key not in keys:
            takes = ", ".join(map(repr, keys)) or "no parameters"
            raise InputError(f"family {name!r} takes no parameter {key!r}; it takes {takes}")
    return builder(n, params)


def metric_row(family: str, n: int, case: JointCase, metric: str) -> SweepRow:
    """The table cell for one metric on one joint."""
    entry = METRICS.get(metric)
    if entry is None:
        raise InputError(f"unknown metric {metric!r}")
    return SweepRow(family, n, metric, entry.compute(case))


def sweep(spec: SweepSpec) -> DecayReport:
    """Compute every requested metric at every n and classify each AI condition.

    The metrics at one n share one JointCase. A CapabilityError leaves gap
    rows (no value, the message in ``note``): one for a metric that refuses
    at some n, one per requested metric at an n where the family cannot be
    built.
    """
    rows = []
    for n in spec.n_values:
        try:
            inst = build_family(spec.family, n, spec.family_params)
        except CapabilityError as exc:
            rows.extend(SweepRow(spec.family, n, m, None, str(exc)) for m in spec.metrics)
            continue
        case = JointCase(inst.joint, spec.product_metric, inst.params.get("rectangle"))
        for metric in spec.metrics:
            try:
                rows.append(metric_row(spec.family, n, case, metric))
            except CapabilityError as exc:
                rows.append(SweepRow(spec.family, n, metric, None, str(exc)))
    rows.sort(key=lambda r: (r.n, r.metric))
    report = DecayReport(tuple(rows), {})
    for condition, candidates in AI_CONDITION_METRICS.items():
        for metric in candidates:
            series = report.series(metric)
            if len(series) >= 4:
                report.verdicts[condition] = classify_decay(series)
                break
    return report


def report_markdown(report: DecayReport) -> str:
    lines = ["| family | n | metric | value | exact | mode |", "|---|---|---|---|---|---|"]
    for r in report.rows:
        val = "-" if r.value is None else (str(r.value) if r.exact else f"{float(r.value):.9g}")
        lines.append(f"| {r.family} | {r.n} | {r.metric} | {val} | {r.exact} | {r.mode} |")
    lines.append("")
    for condition in sorted(report.verdicts):
        v = report.verdicts[condition]
        extra = ""
        if v.rate is not None:
            extra = f" (model={v.model}, rate={v.rate:.3f}, fit={v.fit_quality:.3f})"
        lines.append(f"- {condition}: {v.verdict}{extra}")
    return "\n".join(lines)
