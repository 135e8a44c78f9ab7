"""Discrete and joint probability measures with exact rational weights.

All measure algebra (marginals, products, dependence matrices, pushforwards)
is exact: weights are fractions.Fraction, sums are checked for exact equality
with 1 (or 0 for the centered dependence matrix). Geometry stays in the
attached FiniteMetricSpace.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .spaces import FiniteMetricSpace, ProductMetricKind, product_space

ONE = Fraction(1)
ZERO = Fraction(0)


def exact_sum(xs: Iterable[Fraction]) -> Fraction:
    """``sum(xs, Fraction(0))`` exactly, with one Fraction addition per denominator.

    The numerators of each distinct denominator add as Python ints; only the
    per-denominator totals pay for Fraction addition and its gcd. Weights
    and dependence entries share a few denominators, so a sum over n entries
    costs n int additions instead of n Fraction additions.
    """
    by_den: dict[int, int] = {}
    for x in xs:
        by_den[x.denominator] = by_den.get(x.denominator, 0) + x.numerator
    return sum((Fraction(num, den) for den, num in by_den.items()), ZERO)


def as_fraction(x) -> Fraction:
    """Exact coercion: Fraction, int, and 'p/q' strings; floats are converted exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (str, float)):
        # a float converts to its exact binary value; callers renormalize if needed
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"{x!r} is not a finite rational: {exc}") from exc
    raise InputError(f"cannot coerce {x!r} to an exact rational")


@dataclass(frozen=True)
class DiscreteMeasure:
    space: FiniteMetricSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        w = tuple(as_fraction(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != len(self.space):
            raise InputError("weight count does not match point count")
        # a Fraction's denominator is positive, so its sign is its numerator's
        if any(x.numerator < 0 for x in w):
            raise InputError("weights must be nonnegative")
        total = exact_sum(w)
        if total != ONE:
            raise InputError(f"weights must sum to exactly 1 (got {total})")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)


@dataclass(frozen=True)
class JointMeasure:
    space1: FiniteMetricSpace
    space2: FiniteMetricSpace
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        w = tuple(tuple(as_fraction(x) for x in row) for row in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != len(self.space1) or any(len(r) != len(self.space2) for r in w):
            raise InputError("weight matrix shape does not match the two spaces")
        if any(x.numerator < 0 for row in w for x in row):
            raise InputError("weights must be nonnegative")
        total = exact_sum(x for row in w for x in row)
        if total != ONE:
            raise InputError(f"weights must sum to exactly 1 (got {total})")


@dataclass(frozen=True)
class DependenceMatrix:
    """Signed matrix joint - product(marginals); rows and columns sum to zero."""

    space1: FiniteMetricSpace
    space2: FiniteMetricSpace
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        e = tuple(tuple(as_fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", e)
        if len(e) != len(self.space1) or any(len(r) != len(self.space2) for r in e):
            raise InputError("entry matrix shape does not match the two spaces")
        if any(exact_sum(row) != ZERO for row in e):
            raise InputError("every row of a dependence matrix must sum to 0")
        if any(exact_sum(col) != ZERO for col in zip(*e)):
            raise InputError("every column of a dependence matrix must sum to 0")


def uniform(space: FiniteMetricSpace) -> DiscreteMeasure:
    n = len(space)
    return DiscreteMeasure(space, tuple(Fraction(1, n) for _ in range(n)))


def delta(space: FiniteMetricSpace, index: int) -> DiscreteMeasure:
    if not 0 <= index < len(space):
        raise InputError("delta index out of range")
    return DiscreteMeasure(
        space, tuple(ONE if i == index else ZERO for i in range(len(space)))
    )


def marginals(j: JointMeasure) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Row sums and column sums as DiscreteMeasures on the factor spaces."""
    rows = tuple(exact_sum(row) for row in j.weights)
    cols = tuple(exact_sum(col) for col in zip(*j.weights))
    return DiscreteMeasure(j.space1, rows), DiscreteMeasure(j.space2, cols)


def product_measure(m1: DiscreteMeasure, m2: DiscreteMeasure) -> JointMeasure:
    w = tuple(tuple(a * b for b in m2.weights) for a in m1.weights)
    return JointMeasure(m1.space, m2.space, w)


def dependence_matrix(j: JointMeasure) -> DependenceMatrix:
    m1, m2 = marginals(j)
    entries = tuple(
        tuple(j.weights[i][k] - m1.weights[i] * m2.weights[k] for k in range(len(j.space2)))
        for i in range(len(j.space1))
    )
    return DependenceMatrix(j.space1, j.space2, entries)


def _check_map(f: Sequence[int], n_from: int, n_to: int, what: str) -> tuple[int, ...]:
    fm = tuple(int(x) for x in f)
    if len(fm) != n_from:
        raise InputError(f"{what} must be defined on every source point")
    if any(not 0 <= x < n_to for x in fm):
        raise InputError(f"{what} maps outside the target index range")
    return fm


def pushforward(
    m: DiscreteMeasure, f: Sequence[int], target: FiniteMetricSpace
) -> DiscreteMeasure:
    """Image measure under an index map into ``target``. Mass is preserved exactly."""
    fm = _check_map(f, len(m.space), len(target), "pushforward map")
    out = [ZERO] * len(target)
    for i, w in enumerate(m.weights):
        out[fm[i]] += w
    return DiscreteMeasure(target, tuple(out))


def pushforward_joint(
    j: JointMeasure,
    u: Sequence[int],
    v: Sequence[int],
    target1: FiniteMetricSpace,
    target2: FiniteMetricSpace,
) -> JointMeasure:
    """Coordinatewise image (x,y) -> (u(x), v(y)); commutes with marginals."""
    um = _check_map(u, len(j.space1), len(target1), "first coordinate map")
    vm = _check_map(v, len(j.space2), len(target2), "second coordinate map")
    out = [[ZERO] * len(target2) for _ in range(len(target1))]
    for i, row in enumerate(j.weights):
        for k, w in enumerate(row):
            if w:
                out[um[i]][vm[k]] += w
    return JointMeasure(target1, target2, tuple(tuple(r) for r in out))


def joint_and_product_on_product(
    j: JointMeasure, kind: ProductMetricKind
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """The joint law and the product of its marginals on one shared product space."""
    space = product_space(j.space1, j.space2, kind)
    m1, m2 = marginals(j)
    flat_joint = tuple(w for row in j.weights for w in row)
    flat_prod = tuple(a * b for a in m1.weights for b in m2.weights)
    return DiscreteMeasure(space, flat_joint), DiscreteMeasure(space, flat_prod)
