"""The benchmark's workloads: seeded inputs, one pass of operations, and checks.

An operation is one in-process ``asymdep.cli.main(argv)`` call or one public
library call. Operations look functions up on their modules when they run,
so the layer tracer sees every call. Checks run after the timed passes and
never call the function they check:

* every MetricValue re-evaluates through ``evaluate_certificate``, against a
  dependence matrix the benchmark computes itself: exactly for exact
  metrics, within FLOAT_TOL for flow and LP metrics;
* closed forms and identities hold: cov_sup = 4 alpha, bernoulli alpha = 1/4
  and rectangle gap = 1/8, Prokhorov <= 1/n, BL <= 3 Prokhorov, and more;
* a file written by ``gen`` holds exactly the family's weights;
* at full size, outputs equal reference.json, recorded from an earlier
  commit: always for seed-independent operations, and for seeded ones when
  the seed is REFERENCE_SEED.
"""
from __future__ import annotations

import contextlib
import csv
import io as textio
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from asymdep import analysis, cli, measures, metrics, spaces

FLOAT_TOL = 1e-9
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``run(pass_dir)`` performs it. ``check(out, outs, pass_dir)`` returns
    error messages; ``outs`` holds every output of the same pass by key.
    ``values(out, pass_dir)`` gives the output values recorded in
    reference.json, as strings.
    """

    key: str
    run: Callable
    check: Callable
    values: Callable
    seeded: bool


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_errors(res: CliResult) -> list[str]:
    return [] if res.code == 0 else [f"exit code {res.code}: {res.stderr.strip()}"]


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def value_str(value, exact: bool) -> str:
    return str(Fraction(value)) if exact else repr(float(value))


def same_value(got: str, want: str) -> bool:
    """Exact values compare exactly, float values within FLOAT_TOL."""
    if "." in want or "e" in want:
        return abs(float(got) - float(want)) <= FLOAT_TOL
    return Fraction(got) == Fraction(want)


def compare(key: str, values: dict[str, str], reference: dict[str, str] | None) -> list[str]:
    if reference is None:
        return [f"{key}: no reference values recorded"]
    errors = []
    for name, want in reference.items():
        got = values.get(name)
        if got is None or not same_value(got, want):
            errors.append(f"{key} {name}: got {got}, reference {want}")
    extra = sorted(set(values) - set(reference))
    if extra:
        errors.append(f"{key}: values missing from the reference: {extra}")
    return errors


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def joint_from_raw(space1, space2, raw: list[list[int]]) -> measures.JointMeasure:
    """Joint law with weights proportional to the positive integers ``raw``."""
    total = sum(map(sum, raw))
    weights = tuple(tuple(Fraction(x, total) for x in row) for row in raw)
    return measures.JointMeasure(space1, space2, weights)


def random_square_joint(rng: random.Random, n: int, max_raw: int) -> measures.JointMeasure:
    space = spaces.line_space(range(n))
    raw = [[rng.randint(1, max_raw) for _ in range(n)] for _ in range(n)]
    return joint_from_raw(space, space, raw)


def grid_joint(rng: random.Random, g: int) -> measures.JointMeasure:
    """Random joint law on the g x g grid {0, 1/g, ..., (g-1)/g}^2 of [0,1)^2.

    Every product-space distance is below 2, so no BL Lipschitz constraint
    is pruned and the LP is fully dense.
    """
    space = spaces.line_space([Fraction(i, g) for i in range(g)])
    raw = [[rng.randint(1, 64) for _ in range(g)] for _ in range(g)]
    return joint_from_raw(space, space, raw)


def own_dependence_matrix(j: measures.JointMeasure) -> measures.DependenceMatrix:
    """joint - product of marginals, computed here rather than by asymdep."""
    rows = [sum(row) for row in j.weights]
    cols = [sum(col) for col in zip(*j.weights)]
    entries = tuple(
        tuple(w - r * c for w, c in zip(row, cols)) for row, r in zip(j.weights, rows)
    )
    return measures.DependenceMatrix(j.space1, j.space2, entries)


# ---------------------------------------------------------------------------
# Sweeps through the CLI
# ---------------------------------------------------------------------------

def _bernoulli_forms(n, row):
    yield "alpha", lambda v: v == Fraction(1, 4), "alpha = 1/4"
    yield "rectangle", lambda v: v == Fraction(1, 8), "rectangle gap = 1/8"
    yield "variation", lambda v: v == 1, "variation = 1"
    yield "prokhorov", lambda v: v <= 1 / n + FLOAT_TOL, "Prokhorov <= 1/n"


def _binary_coding_forms(n, row):
    yield "variation", lambda v: v == 1, "variation = 1"
    yield "alpha", lambda v: v * v * n <= 1, "alpha <= 1/sqrt(n)"


def _markov_forms(p):
    def forms(n, row):
        yield "rectangle", lambda v: v == (1 - 2 * p) ** n / 4, "rectangle gap = (1-2p)^n/4"
        yield "variation", lambda v: v == abs(1 - 2 * p) ** n, "variation = |1-2p|^n"
    return forms


def _identities(n, row):
    if "alpha" in row and "cov_sup" in row:
        if row["cov_sup"] != 4 * row["alpha"]:
            yield f"n={n}: cov_sup {row['cov_sup']} != 4 alpha {row['alpha']}"
    if "bl" in row and "prokhorov" in row:
        if row["bl"] > 3 * row["prokhorov"] + FLOAT_TOL:
            yield f"n={n}: bl {row['bl']} > 3 prokhorov {row['prokhorov']}"


def sweep_op(family: str, n_from: int, n_to: int, select: tuple[str, ...],
             forms, param: str | None = None) -> Op:
    """``asymdep sweep`` with a CSV report, checked cell by cell.

    Exact cells are rationals and float cells round-trip through repr, so
    every cell is compared at full precision.
    """
    key = f"sweep {family}" + (f" {param}" if param else "")
    csv_name = key.replace(" ", "_").replace("/", "_") + ".csv"
    argv = ["sweep", "--family", family, "--n-from", str(n_from), "--n-to", str(n_to),
            "--select", ",".join(select)]
    if param:
        argv += ["--param", param]

    def run(pass_dir: Path) -> CliResult:
        return run_cli(argv + ["--out", str(pass_dir / csv_name)])

    def cells(pass_dir: Path) -> dict[tuple[int, str], tuple[str, bool]]:
        with open(pass_dir / csv_name, newline="", encoding="utf-8") as fh:
            return {(int(r["n"]), r["metric"]): (r["value"], r["exact"] == "true")
                    for r in csv.DictReader(fh)}

    def check(res: CliResult, outs, pass_dir: Path) -> list[str]:
        if res.code != 0:
            return cli_errors(res)
        got = cells(pass_dir)
        errors = []
        for n in range(n_from, n_to + 1):
            row = {}
            for metric in select:
                text, exact = got.get((n, metric), ("-", False))
                if text == "-":
                    errors.append(f"{key} n={n} {metric}: no value")
                    continue
                row[metric] = Fraction(text) if exact else float(text)
            for metric, holds, what in forms(n, row):
                if metric in row and not holds(row[metric]):
                    errors.append(f"{key} n={n}: {metric} = {row[metric]} breaks {what}")
            errors.extend(f"{key} {e}" for e in _identities(n, row))
        return errors

    def values(res: CliResult, pass_dir: Path) -> dict[str, str]:
        return {f"{n}|{metric}": text for (n, metric), (text, _) in cells(pass_dir).items()}

    return Op(key, run, check, values, seeded=False)


# ---------------------------------------------------------------------------
# Library calls
# ---------------------------------------------------------------------------

def exact_metric_op(key: str, fn_name: str, joint: measures.JointMeasure,
                    alpha_key: str | None = None) -> Op:
    """``alpha_coefficient`` or ``cov_sup_pm1`` in exact mode.

    With ``alpha_key`` (for cov_sup) the value must be 4 times that alpha.
    """
    dep = own_dependence_matrix(joint)

    def run(pass_dir):
        return getattr(metrics, fn_name)(joint)

    def check(mv, outs, pass_dir):
        errors = []
        if not mv.exact or not isinstance(mv.value, Fraction):
            errors.append(f"{key}: value {mv.value!r} is not an exact rational")
        elif metrics.evaluate_certificate(mv, dep=dep) != mv.value:
            errors.append(f"{key}: certificate does not re-evaluate to {mv.value}")
        alpha = outs.get(alpha_key)
        if alpha_key and not isinstance(alpha, Exception) and mv.value != 4 * alpha.value:
            errors.append(f"{key}: {mv.value} != 4 * alpha {alpha.value}")
        return errors

    def values(mv, pass_dir):
        return {"value": value_str(mv.value, True)}

    return Op(key, run, check, values, seeded=True)


def geometric_op(key: str, fn_name: str, joint: measures.JointMeasure,
                 kind: spaces.ProductMetricKind, prokhorov_key: str | None = None) -> Op:
    """``prokhorov_to_product_upper`` or ``bl_to_product`` on one product metric.

    With ``prokhorov_key`` (for BL) the value must be at most 3 times that
    Prokhorov distance: a coupling that moves mass eps at most eps away
    changes a 1-bounded 1-Lipschitz integral by at most eps + 2 eps.
    """
    mu, nu = measures.joint_and_product_on_product(joint, kind)

    def run(pass_dir):
        return getattr(metrics, fn_name)(joint, kind)

    def check(mv, outs, pass_dir):
        errors = []
        again = float(metrics.evaluate_certificate(mv, m1=mu, m2=nu))
        if abs(again - mv.value) > FLOAT_TOL:
            errors.append(f"{key}: certificate gives {again}, value is {mv.value}")
        prok = outs.get(prokhorov_key)
        if prokhorov_key and not isinstance(prok, Exception) and mv.value > 3 * prok.value + FLOAT_TOL:
            errors.append(f"{key}: {mv.value} > 3 * prokhorov {prok.value}")
        return errors

    def values(mv, pass_dir):
        return {"value": value_str(mv.value, False)}

    return Op(key, run, check, values, seeded=True)


# ---------------------------------------------------------------------------
# gen and metrics through the CLI
# ---------------------------------------------------------------------------

def gen_op(family: str, n: int, file_name: str, p: Fraction | None = None) -> Op:
    """``asymdep gen``; the written file must hold exactly the family's weights."""
    params = {} if p is None else {"p": p}
    argv = ["gen", "--family", family, "--n", str(n)]
    argv += [] if p is None else ["--param", f"p={p}"]
    expected = []  # built at the first check: its Fraction heap would slow the passes

    def run(pass_dir):
        return run_cli(argv + ["--out", str(pass_dir / file_name)])

    def check(res, outs, pass_dir):
        if res.code != 0:
            return cli_errors(res)
        if not expected:
            expected.append(analysis.build_family(family, n, params).joint.weights)
        with open(pass_dir / file_name, encoding="utf-8") as fh:
            rows = json.load(fh)["weights"]
        loaded = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if loaded != expected[0]:
            return [f"gen {family} n={n}: file weights differ from the family"]
        return []

    def values(res, pass_dir):
        return {}

    return Op(f"gen {family}", run, check, values, seeded=p is not None)


VARIATION_LINE = re.compile(r"^variation: (\S+) \(exact=True\)$", re.M)


def variation_file_op(key: str, file_name: str, want: Fraction, seeded: bool) -> Op:
    """``asymdep metrics --select variation`` on a file; must print ``want``."""

    def run(pass_dir):
        return run_cli(["metrics", "--joint", str(pass_dir / file_name), "--select", "variation"])

    def printed(res):
        match = VARIATION_LINE.search(res.stdout)
        return match.group(1) if match else None

    def check(res, outs, pass_dir):
        if res.code != 0:
            return cli_errors(res)
        got = printed(res)
        if got is None or Fraction(got) != want:
            return [f"{key}: printed variation {got}, closed form {want}"]
        return []

    def values(res, pass_dir):
        return {"variation": printed(res)}

    return Op(key, run, check, values, seeded=seeded)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def exact_rectangles(seed: int, size: str) -> list[Op]:
    """Exact enumeration behind alpha and cov_sup, with some max_flow."""
    rng = random.Random(f"exact-rectangles:{seed}")
    full = size == "full"
    side = 13 if full else 6
    small = random_square_joint(rng, side, 16)
    # raw weights up to 2^40 put the dependence matrix's common denominator
    # above 2^53, so a float or int64 fast path must take its fallback
    large = random_square_joint(rng, side, 2 ** 40)
    return [
        sweep_op("binary_coding", 1, 6 if full else 3,
                 ("variation", "alpha", "cov_sup", "prokhorov"), _binary_coding_forms),
        sweep_op("bernoulli_perturbation", 2, 9 if full else 4,
                 ("variation", "alpha", "beta", "cov_sup", "rectangle"), _bernoulli_forms),
        exact_metric_op("alpha small-denominator", "alpha_coefficient", small),
        exact_metric_op("cov_sup small-denominator", "cov_sup_pm1", small,
                        alpha_key="alpha small-denominator"),
        exact_metric_op("alpha large-denominator", "alpha_coefficient", large),
        exact_metric_op("cov_sup large-denominator", "cov_sup_pm1", large,
                        alpha_key="alpha large-denominator"),
    ]


def weak_geometry(seed: int, size: str) -> list[Op]:
    """Prokhorov (max_flow) and bounded-Lipschitz (dense LP) distances."""
    rng = random.Random(f"weak-geometry:{seed}")
    full = size == "full"
    ops = []
    for g in (range(9, 13) if full else range(3, 5)):
        joint = grid_joint(rng, g)
        for kind in spaces.ProductMetricKind:
            prok = f"prokhorov {g}x{g} {kind.value}"
            ops.append(geometric_op(prok, "prokhorov_to_product_upper", joint, kind))
            ops.append(geometric_op(f"bl {g}x{g} {kind.value}", "bl_to_product", joint, kind,
                                    prokhorov_key=prok))
    select = ("prokhorov", "bl", "rectangle", "cf")
    ops.append(sweep_op("bernoulli_perturbation", 2, 9 if full else 4, select, _bernoulli_forms))
    ops.append(sweep_op("markov_shift", 1, 8 if full else 4, select,
                        _markov_forms(Fraction(1, 3)), param="p=1/3"))
    return ops


def file_roundtrip(seed: int, size: str) -> list[Op]:
    """``gen`` writes a joint law to JSON and ``metrics`` reads it back."""
    rng = random.Random(f"file-roundtrip:{seed}")
    n = 10 if size == "full" else 4
    q = rng.randint(3, 50)
    p = Fraction(rng.randint(1, q - 1), q)
    steps = rng.randint(1, 12)
    return [
        gen_op("binary_coding", n, "binary_coding.json"),
        variation_file_op("metrics binary_coding", "binary_coding.json", Fraction(1),
                          seeded=False),
        gen_op("markov_shift", steps, "markov_shift.json", p=p),
        variation_file_op("metrics markov_shift", "markov_shift.json",
                          abs(1 - 2 * p) ** steps, seeded=True),
    ]


WORKLOADS = {
    "exact-rectangles": exact_rectangles,
    "weak-geometry": weak_geometry,
    "file-roundtrip": file_roundtrip,
}


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_pass(ops: list[Op], outs: dict, pass_dir: Path, reference: dict | None,
               seed: int) -> dict[str, list[str]]:
    """Error messages per failed operation of one pass."""
    failures = {}
    for op in ops:
        out = outs[op.key]
        if isinstance(out, Exception):
            failures[op.key] = [f"{op.key}: raised {out!r}"]
            continue
        try:
            errors = op.check(out, outs, pass_dir)
            if not errors and reference is not None and (not op.seeded or seed == REFERENCE_SEED):
                errors = compare(op.key, op.values(out, pass_dir), reference.get(op.key))
        except Exception as exc:  # a malformed output is a wrong one
            errors = [f"{op.key}: check raised {exc!r}"]
        if errors:
            failures[op.key] = errors
    return failures
