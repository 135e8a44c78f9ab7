"""Discrete and joint probability measures with exact rational weights.

A measure stores its weights as Python-int numerators ``num`` over one
positive denominator ``den``, the least common one (the numerators and
``den`` share no factor): the weight of point i is num[i] / den, and
num[i][k] / den for a joint law or a dependence matrix. Python ints are
exact at any size, so there is one code path. Every check runs on the ints:
the shape, nonnegative numerators, numerators summing to den (to 0 in every
row and column of a dependence matrix).

The constructors take Fractions, ints or "p/q" strings, or a
``Numerators(num, den)`` pair, which they reduce to lowest terms.
``weights`` (``entries`` of a dependence matrix) is the tuple of Fractions:
the caller's own when it passed Fractions, otherwise built on first access.
Marginals, products, dependence matrices and pushforwards run on the
numerators. Geometry stays in the attached FiniteMetricSpace.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import InputError
from .spaces import FiniteMetricSpace, ProductMetricKind, product_space


class Numerators(NamedTuple):
    """Exact weights as integer numerators over one positive denominator.

    ``num`` holds ints for a DiscreteMeasure, and rows of ints for a
    JointMeasure or a DependenceMatrix.
    """

    num: Sequence
    den: int


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


def _exact_rows(rows):
    """(numerator rows, least common denominator, Fraction rows or None) of
    rows of weights or of a Numerators of rows."""
    if isinstance(rows, Numerators):
        num, den = rows
        if not isinstance(den, int) or den <= 0:
            raise InputError(f"the denominator must be a positive integer, got {den!r}")
        if not all(issubclass(t, int) for t in set(map(type, chain.from_iterable(num)))):
            raise InputError("numerators must be integers")
        g = math.gcd(den, *(math.gcd(*row) for row in num))
        if g > 1:
            return tuple(tuple(x // g for x in row) for row in num), den // g, None
        return tuple(map(tuple, num)), den, None
    view = tuple(tuple(map(as_fraction, row)) for row in rows)
    # the lcm of reduced denominators leaves the numerators and den coprime
    dens = {x.denominator for row in view for x in row}
    den = math.lcm(*dens)
    scale = {d: den // d for d in dens}
    num = tuple(tuple(x.numerator * scale[x.denominator] for x in row) for row in view)
    return num, den, view


def _fraction_rows(num, den: int) -> tuple[tuple[Fraction, ...], ...]:
    """Fraction rows of numerator rows over den, one Fraction per distinct numerator."""
    of = {x: Fraction(x, den) for x in set(chain.from_iterable(num))}
    return tuple(tuple(map(of.__getitem__, row)) for row in num)


class _Exact:
    """Numerator rows over one denominator, immutable, with a lazy Fraction view."""

    __slots__ = ("num", "den", "_view")

    def _store(self, rows, **spaces) -> None:
        num, den, view = _exact_rows(rows)
        for name, value in dict(spaces, num=num, den=den, _view=view).items():
            object.__setattr__(self, name, value)

    def _fractions(self, rows) -> tuple[tuple[Fraction, ...], ...]:
        if self._view is None:
            object.__setattr__(self, "_view", _fraction_rows(rows, self.den))
        return self._view

    def _check_shape(self, what: str) -> None:
        if len(self.num) != len(self.space1) or any(len(r) != len(self.space2) for r in self.num):
            raise InputError(f"{what} shape does not match the two spaces")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setting slots
        spaces = (getattr(self, name) for name in type(self).__slots__)
        return type(self), (*spaces, Numerators(self.num, self.den))


class DiscreteMeasure(_Exact):
    """A probability measure on ``space``: weight num[i] / den at point i."""

    __slots__ = ("space",)

    def __init__(self, space: FiniteMetricSpace, weights) -> None:
        if isinstance(weights, Numerators):
            self._store(Numerators((weights.num,), weights.den), space=space)
        else:
            self._store((weights,), space=space)
        object.__setattr__(self, "num", self.num[0])
        if len(self.num) != len(space):
            raise InputError("weight count does not match point count")
        if min(self.num, default=0) < 0:
            raise InputError("weights must be nonnegative")
        if sum(self.num) != self.den:
            raise InputError(f"weights must sum to exactly 1 (got {Fraction(sum(self.num), self.den)})")

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self._fractions((self.num,))[0]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.num) if x)


class JointMeasure(_Exact):
    """A probability measure on space1 x space2: weight num[i][k] / den at (i, k)."""

    __slots__ = ("space1", "space2")

    def __init__(self, space1: FiniteMetricSpace, space2: FiniteMetricSpace, weights) -> None:
        self._store(weights, space1=space1, space2=space2)
        self._check_shape("weight matrix")
        if min(chain.from_iterable(self.num), default=0) < 0:
            raise InputError("weights must be nonnegative")
        total = sum(map(sum, self.num))
        if total != self.den:
            raise InputError(f"weights must sum to exactly 1 (got {Fraction(total, self.den)})")

    @property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._fractions(self.num)


class DependenceMatrix(_Exact):
    """Signed matrix joint - product(marginals); rows and columns sum to zero."""

    __slots__ = ("space1", "space2")

    def __init__(self, space1: FiniteMetricSpace, space2: FiniteMetricSpace, entries) -> None:
        self._store(entries, space1=space1, space2=space2)
        self._check_shape("entry matrix")
        if any(map(sum, self.num)):
            raise InputError("every row of a dependence matrix must sum to 0")
        if any(map(sum, zip(*self.num))):
            raise InputError("every column of a dependence matrix must sum to 0")

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._fractions(self.num)


def uniform(space: FiniteMetricSpace) -> DiscreteMeasure:
    n = len(space)
    return DiscreteMeasure(space, Numerators((1,) * n, n))


def delta(space: FiniteMetricSpace, index: int) -> DiscreteMeasure:
    if not 0 <= index < len(space):
        raise InputError("delta index out of range")
    return DiscreteMeasure(space, Numerators(tuple(int(i == index) for i in range(len(space))), 1))


def _row_and_column_sums(j: JointMeasure) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(map(sum, j.num)), tuple(map(sum, zip(*j.num)))


def marginals(j: JointMeasure) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Row sums and column sums as DiscreteMeasures on the factor spaces."""
    rows, cols = _row_and_column_sums(j)
    return (
        DiscreteMeasure(j.space1, Numerators(rows, j.den)),
        DiscreteMeasure(j.space2, Numerators(cols, j.den)),
    )


def product_measure(m1: DiscreteMeasure, m2: DiscreteMeasure) -> JointMeasure:
    num = tuple(tuple(a * b for b in m2.num) for a in m1.num)
    return JointMeasure(m1.space, m2.space, Numerators(num, m1.den * m2.den))


def dependence_matrix(j: JointMeasure) -> DependenceMatrix:
    """Entries w_ik - r_i c_k for the joint weights w = num / L and its row and
    column sums r and c: (L num_ik - R_i C_k) / L^2 with R, C the numerator sums."""
    big_l = j.den
    rows, cols = _row_and_column_sums(j)
    num = [[big_l * w - r * c for w, c in zip(row, cols)] for row, r in zip(j.num, rows)]
    return DependenceMatrix(j.space1, j.space2, Numerators(num, big_l * big_l))


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
    out = [0] * len(target)
    for i, x in enumerate(m.num):
        out[fm[i]] += x
    return DiscreteMeasure(target, Numerators(out, m.den))


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
    out = [[0] * len(target2) for _ in range(len(target1))]
    for i, row in enumerate(j.num):
        for k, x in enumerate(row):
            if x:
                out[um[i]][vm[k]] += x
    return JointMeasure(target1, target2, Numerators(out, j.den))


def joint_and_product_on_product(
    j: JointMeasure, kind: ProductMetricKind
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """The joint law and the product of its marginals on one shared product space."""
    space = product_space(j.space1, j.space2, kind)
    rows, cols = _row_and_column_sums(j)
    flat_joint = tuple(chain.from_iterable(j.num))
    flat_prod = tuple(r * c for r in rows for c in cols)
    return (
        DiscreteMeasure(space, Numerators(flat_joint, j.den)),
        DiscreteMeasure(space, Numerators(flat_prod, j.den * j.den)),
    )
