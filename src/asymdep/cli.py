"""Command-line interface.

Subcommands:
  gen       write a family's joint measure to JSON
  metrics   compute selected metrics for a joint measure file
  sweep     n-sweep over a family with decay verdicts
  verify    run the full verification suite
  classify  classify a (n, value) series from CSV

Exit codes: 0 success, 1 input error (a usage error included), 2 capability
error, 3 verification failure, 4 solver error.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import analysis, io, verify
from .analysis import SweepSpec, classify_decay, report_markdown, sweep
from .analysis import FAMILY_NAMES
from .errors import CapabilityError, InputError, SolverError
from .measures import JointMeasure
from .metrics import JointCase
from .spaces import ProductMetricKind


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            params[key] = value
    return params


def cmd_gen(args) -> int:
    params = _parse_params(args.param)
    inst = analysis.build_family(args.family, args.n, params)
    io.save_measure(inst.joint, args.out)
    print(f"wrote {args.family}(n={args.n}) joint measure to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    j = io.load_measure(args.joint)
    if not isinstance(j, JointMeasure):
        raise InputError("metrics requires a joint-measure JSON file (two spaces)")
    selected = [m.strip() for m in args.select.split(",") if m.strip()]
    case = JointCase(j, ProductMetricKind(args.product_metric), None)
    rows = [analysis.metric_row("file", 0, case, metric) for metric in selected]
    for r in rows:
        print(f"{r.metric}: {io.value_to_str(r.value, r.exact)} (exact={r.exact})")
    if args.out:
        io.write_report_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args) -> int:
    selected = tuple(m.strip() for m in args.select.split(",") if m.strip())
    spec = SweepSpec(
        family=args.family,
        n_values=tuple(range(args.n_from, args.n_to + 1)),
        metrics=selected,
        product_metric=ProductMetricKind(args.product_metric),
        family_params=_parse_params(args.param),
    )
    report = sweep(spec)
    print(report_markdown(report))
    if args.out:
        io.write_report_csv(report.rows, args.out)
        print(f"wrote {args.out}")
    if args.emit_plot_data:
        io.write_plot_data(report, args.emit_plot_data)
        print(f"wrote {args.emit_plot_data}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.filter)
    failures = 0
    for res in results:
        print(verify.format_result(res))
        failures += not res.passed
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 3 if failures else 0


def cmd_classify(args) -> int:
    series = io.read_series_csv(args.infile)
    verdict = classify_decay(series)
    extra = ""
    if verdict.rate is not None:
        extra = f" (model={verdict.model}, rate={verdict.rate:.4f}, fit={verdict.fit_quality:.4f})"
    print(f"{verdict.verdict}{extra}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, an input error, not argparse's 2 (a capability
    error here); subparsers are built from this class, so theirs do too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asymdep",
        description="Dependence functionals and counterexample families for "
        "asymptotic independence of finite discrete measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family joint measure as JSON")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", action="append", metavar="k=v")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("metrics", help="compute metrics for a joint-measure file")
    p.add_argument("--joint", required=True)
    p.add_argument("--select", default="variation,alpha")
    p.add_argument("--product-metric", default="sum", choices=("sum", "max"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="n-sweep over a family with decay verdicts")
    p.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--select", default="variation,alpha")
    p.add_argument("--product-metric", default="sum", choices=("sum", "max"))
    p.add_argument("--param", action="append", metavar="k=v")
    p.add_argument("--out")
    p.add_argument("--emit-plot-data")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify a (n, value) decay series")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
