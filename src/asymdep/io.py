"""JSON and CSV serialization.

Rationals serialize as "p/q" strings to preserve exactness; floats as
shortest round-trip decimals. JSON-loaded float weights are accepted when
they sum to within 1e-9 of 1 and are then exactly renormalized to rationals.
A measure file is one ``json.dumps`` of its mapping, without indentation,
and a newline; indented files load all the same.

A space is written as its labels, its distance matrix "dist" and its
coordinates "coords", if any; "dist" is left out of every coordinate line
(see ``spaces``), whose 1-D coordinates give it back bit for bit. Loading
turns "dist" and "coords" into arrays, an absent "dist" into None, and
leaves every other rule to ``FiniteMetricSpace``: a space without "dist"
needs 1-D coords, is refused above LINE_SPACE_MAX_POINTS and loads as
their coordinate line. A file of an earlier version, which carries
"dist", loads as before; a line among them is written back without it.
Earlier versions, which require "dist", cannot read a file without it.
"""
from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .analysis import DecayReport, SweepRow
from .errors import InputError
from .measures import DiscreteMeasure, JointMeasure, Numerators
from .spaces import FiniteMetricSpace

WEIGHT_SUM_TOL = Fraction(1, 10 ** 9)


def value_to_str(value, exact: bool) -> str:
    if value is None:
        return "-"
    if exact:
        return str(Fraction(value))
    return repr(float(value))


def parse_value(s: str):
    if s == "-":
        return None
    if "/" in s:
        return Fraction(s)
    try:
        return Fraction(int(s))
    except ValueError:
        return float(s)


def space_to_dict(space: FiniteMetricSpace) -> dict:
    out = {"labels": list(space.labels)}
    if not space._line:
        out["dist"] = space.dist.tolist()
    if space.coords is not None:
        out["coords"] = space.coords.tolist()
    return out


def _float_array(x, key: str) -> np.ndarray:
    """x as a fresh float64 array, handed to the space read-only, which holds it without a copy."""
    try:
        a = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"space {key!r} is not a numeric array: {exc}") from exc
    a.setflags(write=False)
    return a


def space_from_dict(d: dict) -> FiniteMetricSpace:
    """The space of a dictionary, as ``FiniteMetricSpace`` checks it.

    Without "dist", the space is the coordinate line of its 1-D coords.
    """
    if not isinstance(d, dict):
        raise InputError(f"a space must be a JSON object, got {type(d).__name__}")
    if not isinstance(d.get("labels"), list):
        raise InputError("a space needs a 'labels' list")
    coords = d.get("coords")
    coords = None if coords is None else _float_array(coords, "coords")
    dist = _float_array(d["dist"], "dist") if "dist" in d else None
    return FiniteMetricSpace(d["labels"], dist, coords=coords)


def _parse_weight(x) -> Fraction:
    # JSON true/false load as bools, which are ints to Python
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise InputError(f"weight entry {x!r} is not a number or 'p/q' string")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"weight entry {x!r} is not a finite rational: {exc}") from exc


def _exact_weights(flat: list) -> tuple[list[int], int]:
    """Integer numerators over one denominator of string/number entries; floats renormalized.

    Each distinct entry is parsed once, in order of first appearance, so the
    first entry that fails to parse is the one reported. Entries that
    compare equal (1 and 1.0) parse to equal Fractions.
    """
    types = set(map(type, flat))
    if any(issubclass(t, bool) or not issubclass(t, (str, int, float)) for t in types):
        for x in flat:  # report the first bad entry, be it of a bad type or unparsable
            _parse_weight(x)
    values = {x: _parse_weight(x) for x in dict.fromkeys(flat)}
    den = math.lcm(*(v.denominator for v in values.values()))
    of = {x: v.numerator * (den // v.denominator) for x, v in values.items()}
    num = list(map(of.__getitem__, flat))
    total = sum(num)
    if total != den:
        off = Fraction(total, den)
        if not any(issubclass(t, float) for t in types) or abs(off - 1) > WEIGHT_SUM_TOL:
            raise InputError(f"weights sum to {off}, not 1")
        den = total  # (num / den) / (total / den)
    return num, den


def _weight_strings(num, den: int) -> list[list[str]]:
    """Rows of "p/q" strings (str of each weight's Fraction), one per distinct numerator."""
    of = {x: str(Fraction(x, den)) for x in set(chain.from_iterable(num))}
    return [list(map(of.__getitem__, row)) for row in num]


def measure_to_dict(m: DiscreteMeasure) -> dict:
    return {
        "space1": space_to_dict(m.space),
        "weights": _weight_strings((m.num,), m.den)[0],
    }


def joint_to_dict(j: JointMeasure) -> dict:
    return {
        "space1": space_to_dict(j.space1),
        "space2": space_to_dict(j.space2),
        "weights": _weight_strings(j.num, j.den),
    }


def measure_from_dict(d: dict):
    """Load a JointMeasure (space1 + space2) or a DiscreteMeasure (space1 only)."""
    if not isinstance(d, dict):
        raise InputError(f"a measure must be a JSON object, got {type(d).__name__}")
    if "space1" not in d or "weights" not in d:
        raise InputError("measure JSON needs 'space1' and 'weights'")
    s1 = space_from_dict(d["space1"])
    if "space2" in d:
        s2 = space_from_dict(d["space2"])
        rows = d["weights"]
        if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
            raise InputError("joint measure weights must be a matrix")
        ncols = len(rows[0])
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != ncols:
                raise InputError(f"joint measure weights row {r} is not a list of {ncols} entries")
        num, den = _exact_weights([x for row in rows for x in row])
        num = [num[r * ncols:(r + 1) * ncols] for r in range(len(rows))]
        return JointMeasure(s1, s2, Numerators(num, den))
    if not isinstance(d["weights"], list):
        raise InputError("measure weights must be a list")
    return DiscreteMeasure(s1, Numerators(*_exact_weights(d["weights"])))


def load_measure(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return measure_from_dict(payload)


def save_measure(obj, path: str) -> None:
    d = joint_to_dict(obj) if isinstance(obj, JointMeasure) else measure_to_dict(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(d) + "\n")


REPORT_COLUMNS = ("family", "n", "metric", "value", "exact", "mode", "certificate_ref")


def write_report_csv(rows: Iterable[SweepRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.family,
                    r.n,
                    r.metric,
                    value_to_str(r.value, r.exact),
                    str(r.exact).lower(),
                    r.mode,
                    r.note or "-",
                ]
            )


def read_report_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            row = dict(row)
            row["n"] = int(row["n"])
            row["value"] = parse_value(row["value"])
            row["exact"] = row["exact"] == "true"
            out.append(row)
        return out


def write_plot_data(report: DecayReport, path: str) -> None:
    """(n, value) columns per metric for external plotting."""
    metrics = sorted({r.metric for r in report.rows})
    ns = sorted({r.n for r in report.rows})
    lookup = {(r.n, r.metric): r.value for r in report.rows}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + metrics)
        for n in ns:
            row = [n]
            for m in metrics:
                v = lookup.get((n, m))
                row.append("" if v is None else float(v))
            writer.writerow(row)


def read_series_csv(path: str) -> list[tuple[int, float]]:
    """A two-column (n, value) series; header row optional, more columns an
    InputError. Rows whose value is missing (`-` or empty) are skipped."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if len(row) > 2:
                raise InputError(f"{path} line {line} has {len(row)} columns, not (n, value)")
            if not row or row[0].strip().lower() in ("n", ""):
                continue
            try:
                n, value = int(row[0]), row[1].strip()
                if value not in ("-", ""):
                    out.append((n, float(parse_value(value))))
            except (IndexError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise InputError(f"{path} line {line} is not an (n, value) row: {exc}") from exc
    return out
