"""Finite metric spaces and product constructions.

A FiniteMetricSpace is a labeled point set with a full pairwise distance
matrix; optional Euclidean coordinates enable characteristic-function
operations. Distances are float64; probability weights elsewhere in the
package are exact rationals.

Validation checks that the distances are finite, symmetric, zero on the
diagonal and positive off it, that they satisfy the triangle inequality up
to 1e-12, and that coordinates, if given, are finite and reproduce them.
The triangle check is an O(n^3 / 2) scan, except on an exact line metric:
1-D coordinates whose differences are all exact floats and a distance
matrix equal to their absolute values. There the scan provably passes, so
an O(n^2) test of that form replaces it; every other input runs the scan.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, InitVar
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import CapabilityError, InputError

COORD_DIST_TOL = 1e-12

# A line space holds n x n float64 distances and a temporary of the same size,
# 2 x 128 MB at 4096 points, the binary_coding n = 12 space: building that
# family takes about 0.11 s and 286 MB peak RSS (2-vCPU VM, Python 3.11,
# two runs). Larger line spaces, from line_space or rebuilt by the loader from
# coords, are refused before anything n x n is allocated.
LINE_SPACE_MAX_POINTS = 4096


class ProductMetricKind(enum.Enum):
    """Which product metric to put on E1 x E2: d1+d2 (SUM) or max(d1,d2) (MAX)."""

    SUM = "sum"
    MAX = "max"


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with a full pairwise distance matrix.

    When given, ``coords`` must reproduce ``dist`` as Euclidean distances.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    coords: np.ndarray | None = None
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        labels = tuple(str(x) for x in self.labels)
        dist = np.asarray(self.dist, dtype=float)
        coords = None if self.coords is None else np.asarray(self.coords, dtype=float)
        if coords is not None and coords.ndim == 1:
            coords = coords[:, None]
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "coords", coords)
        n = len(labels)
        if dist.shape != (n, n):
            raise InputError(f"distance matrix shape {dist.shape} does not match {n} labels")
        if coords is not None and coords.ndim != 2:
            raise InputError("coords must be a vector or a matrix with one row per point")
        if coords is not None and coords.shape[0] != n:
            raise InputError("coords length must match label count")
        if validate:
            self._check(dist, coords)
        dist.setflags(write=False)
        if coords is not None:
            coords.setflags(write=False)

    def _check(self, dist: np.ndarray, coords: np.ndarray | None) -> None:
        n = len(self.labels)
        # first: NaN slips through the coordinate check, as NaN > tol is False
        if coords is not None and not np.all(np.isfinite(coords)):
            raise InputError("coords must be finite")
        if not np.all(np.isfinite(dist)):
            raise InputError("distances must be finite")
        if np.any(np.diag(dist) != 0.0):
            raise InputError("distance matrix must have zero diagonal")
        # 64 rows against 64 columns at a time: a strided read of all of dist.T is slower
        for s in range(0, n, 64):
            if not np.array_equal(dist[s:s + 64, s:], dist[s:, s:s + 64].T):
                raise InputError("distance matrix must be symmetric")
        # the n diagonal zeros are the only entries allowed to be <= 0
        if np.count_nonzero(dist <= 0.0) != n:
            raise InputError("off-diagonal distances must be strictly positive")
        if not _is_exact_line(dist, coords):
            _check_triangles(dist)
        if coords is not None:
            # per block of 64 rows, so no n x n temporary is built, in two buffers
            # reused across blocks: fresh per-block arrays made loads ~10% slower
            diffs = np.empty((min(n, 64), n, coords.shape[1]))
            gap = np.empty((min(n, 64), n))
            for s in range(0, n, 64):
                d, g = diffs[:n - s], gap[:n - s]
                np.subtract(coords[s:s + 64, None, :], coords[None, :, :], out=d)
                np.square(d, out=d)
                np.sum(d, axis=-1, out=g)
                np.sqrt(g, out=g)
                np.subtract(g, dist[s:s + 64], out=g)
                if np.max(np.abs(g, out=g)) > COORD_DIST_TOL:
                    raise InputError("coords do not reproduce the distance matrix")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int | None:
        return None if self.coords is None else self.coords.shape[1]


def _check_triangles(dist: np.ndarray) -> None:
    # Triangle inequality d[i,j] <= d[i,k] + d[k,j] + 1e-12 for all k, in
    # blocks of 64 rows. dist is exactly symmetric and float addition
    # commutes, so pairs i <= j suffice; fl(x + 1e-12) is monotone in x,
    # so comparing against the tightest path min_k fl(d[i,k] + d[k,j])
    # gives the same verdict as testing every k.
    n = len(dist)
    for s in range(0, n, 64):
        rows = dist[s:s + 64]
        tight = np.full((len(rows), n - s), np.inf)
        buf = np.empty_like(tight)
        for k in range(n):
            np.add(rows[:, k, None], dist[k, s:], out=buf)
            np.minimum(tight, buf, out=tight)
        if np.any(rows[:, s:] > tight + 1e-12):
            raise InputError("distance matrix violates the triangle inequality")


def _is_exact_line(dist: np.ndarray, coords: np.ndarray | None) -> bool:
    """Whether the triangle scan provably passes: dist is an exact line metric.

    True when the coords are 1-D, every difference fl(x_i - x_j) is exact
    (the error term of Knuth's TwoSum is 0) and dist[i,j] == |fl(x_i - x_j)|.
    Then dist[i,j] = |x_i - x_j| over the reals, so d[i,k] + d[k,j] >= d[i,j]
    for every k. Round-to-nearest is monotone and d[i,j] is a float, so
    fl(d[i,k] + d[k,j]) >= d[i,j], and likewise fl(fl(d[i,k] + d[k,j]) +
    1e-12) >= d[i,j]: the scan cannot fail. NaN or inf in coords, or a
    difference that overflows, makes the error term NaN, so such inputs, like
    any inexact difference or any mismatched entry, return False and take
    the scan.

    The test runs over pairs i <= j (fl(x_j - x_i) = -fl(x_i - x_j) and dist
    is already known to be symmetric) in blocks of 64 rows, in three buffers
    reused across blocks: O(n^2) time and O(64 n) memory.
    """
    if coords is None or coords.shape[1] != 1:
        return False
    x = coords[:, 0]
    n = len(x)
    diff, back, err = (np.empty((min(n, 64), n)) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, 64):
            a, b = x[s:s + 64, None], x[None, s:]
            d, bb, e = (buf[:len(a), :n - s] for buf in (diff, back, err))
            # TwoSum(a, -b): d = fl(a - b), bb = fl(d - a), and the error
            # (a - (d - bb)) + (-b - bb), computed as (a - (d - bb)) - (b + bb)
            np.subtract(a, b, out=d)
            np.subtract(d, a, out=bb)
            np.subtract(d, bb, out=e)
            np.subtract(a, e, out=e)
            np.add(b, bb, out=bb)
            np.subtract(e, bb, out=e)
            if np.any(e != 0.0):
                return False
            if not np.array_equal(np.abs(d, out=d), dist[s:s + 64, s:]):
                return False
    return True


def line_space(points: Sequence[Real], labels: Sequence[str] | None = None) -> FiniteMetricSpace:
    """Points on the real line with |x - y| distance; always a valid metric."""
    check_line_space_size(len(points))
    pts = [float(p) for p in points]
    if len(set(pts)) != len(pts):
        raise InputError("line_space points must be distinct")
    if labels is None:
        elabels = tuple(str(p) for p in points)
    else:
        elabels = tuple(labels)
    arr = np.array(pts, dtype=float)
    dist = np.abs(arr[:, None] - arr[None, :])
    return FiniteMetricSpace(elabels, dist, coords=arr[:, None], validate=False)


def check_line_space_size(n: int) -> None:
    """CapabilityError if an n-point line space exceeds LINE_SPACE_MAX_POINTS."""
    if n > LINE_SPACE_MAX_POINTS:
        raise CapabilityError(
            f"a line space of {n} points is above LINE_SPACE_MAX_POINTS = {LINE_SPACE_MAX_POINTS}"
        )


def product_space(
    s1: FiniteMetricSpace, s2: FiniteMetricSpace, kind: ProductMetricKind
) -> FiniteMetricSpace:
    """Product of two spaces, row-major point order ((x0,y0),(x0,y1),...).

    SUM gives the metric d1+d2, MAX gives max(d1,d2); both metrize the
    product topology and satisfy r <= d <= 2r entrywise. The product carries
    no coordinates: neither metric is the Euclidean one of the concatenated
    coordinates, and the cf gap reads the factor spaces' coordinates.
    """
    n1, n2 = len(s1), len(s2)
    d1 = s1.dist[:, None, :, None]
    d2 = s2.dist[None, :, None, :]
    if kind is ProductMetricKind.SUM:
        dist = (d1 + d2).reshape(n1 * n2, n1 * n2)
    elif kind is ProductMetricKind.MAX:
        dist = np.maximum(d1, d2).reshape(n1 * n2, n1 * n2)
    else:
        raise InputError(f"unknown product metric kind: {kind!r}")
    labels = tuple(f"({a},{b})" for a in s1.labels for b in s2.labels)
    # triangle inequality is inherited from the factors; skip the O(N^3) check
    return FiniteMetricSpace(labels, dist, validate=False)
