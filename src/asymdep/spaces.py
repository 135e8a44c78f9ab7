"""Finite metric spaces and product constructions.

A FiniteMetricSpace is a labeled point set with a full pairwise distance
matrix; optional Euclidean coordinates enable characteristic-function
operations. Distances are float64; probability weights elsewhere in the
package are exact rationals. A space holds read-only arrays: it copies an
array its caller could still write and holds a read-only one as given.

A space with 1-D coordinates x is a coordinate line when its distance
matrix is |fl(x_i - x_j)|: when it is given none (``line_space``, a file
that stores coords without "dist"), or when the matrix it is given equals
that one bit for bit. The constructor owns every rule about a missing
matrix: a space given none needs 1-D coords and is refused above
LINE_SPACE_MAX_POINTS before anything n x n is built. A line keeps x; a
line given no matrix builds |fl(x_i - x_j)| on the first read of
``dist``, read-only, and keeps it. Commands that never read a distance
(``gen``, the variation metric) never allocate anything n x n for it.

A product space (``product_space``) keeps its two factors and its kind and
builds its N x N matrix, read-only, on the first read of ``dist``. Copies
and pickles send a product as its factors and kind and a line as its
coords, so neither builds a matrix. Every space has a ``separation``, the
least distance between two distinct points, which a line takes from its
sorted coords and a product from its factors, again without a matrix:
``prokhorov_distance`` stops at eps = 0 when the separation shows that no
later breakpoint can win. ``pair_distances`` reads the distances of given
pairs the same way, so a Prokhorov certificate is re-checked without a
matrix.

Validation checks that the distances are finite, symmetric, zero on the
diagonal and positive off it, that they satisfy the triangle inequality up
to 1e-12 (an O(n^3 / 2) scan), and that coordinates, if given, are finite
and reproduce them. A coordinate line is checked in O(n) with no n x n
array whenever one of two certificates holds (see ``_check_line``);
otherwise its matrix is built and checked like any other.
"""
from __future__ import annotations

import enum
import math
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import CapabilityError, InputError

COORD_DIST_TOL = 1e-12

# The cutoff bounds the distance matrix a line space builds on its first read:
# n x n float64 and a temporary of the same size. At 4096 points, the
# binary_coding n = 12 space, line_space takes 2 ms and 31 MB peak RSS and the
# first read of dist 0.08-0.28 s and 287 MB (2-vCPU VM, Python 3.11, two runs).
# The constructor refuses a larger space given no matrix, from line_space or
# loaded from coords, before anything n x n could be allocated.
LINE_SPACE_MAX_POINTS = 4096


class ProductMetricKind(enum.Enum):
    """Which product metric to put on E1 x E2: d1+d2 (SUM) or max(d1,d2) (MAX)."""

    SUM = "sum"
    MAX = "max"


class FiniteMetricSpace:
    """Labeled points with a full pairwise distance matrix ``dist``.

    When given, ``coords`` must reproduce ``dist`` as Euclidean distances.
    With 1-D ``coords`` x and ``dist`` None or equal to |fl(x_i - x_j)| bit
    for bit, the space is the coordinate line of x; with ``dist=None`` that
    matrix is built on its first read. ``dist=None`` without 1-D coords is
    an InputError, and above LINE_SPACE_MAX_POINTS points a CapabilityError.
    """

    __slots__ = ("labels", "coords", "_dist", "_line", "_factors", "_separation")

    def __init__(self, labels, dist, coords=None, validate: bool = True) -> None:
        coords = None if coords is None else _held(coords)
        if coords is not None and coords.ndim == 1:
            coords = coords[:, None]
        if dist is None:
            if coords is None or coords.ndim != 2 or coords.shape[1] != 1:
                raise InputError("a space without a distance matrix needs 1-D coords")
            # before the labels and anything n x n: the matrix is built from coords
            check_line_space_size(len(coords))
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        dist = None if dist is None else _held(dist)
        # a coordinate line's matrix would be len(coords) x len(coords)
        shape = (len(coords),) * 2 if dist is None else dist.shape
        if shape != (n, n):
            raise InputError(f"distance matrix shape {shape} does not match {n} labels")
        if coords is not None and coords.ndim != 2:
            raise InputError("coords must be a vector or a matrix with one row per point")
        if coords is not None and coords.shape[0] != n:
            raise InputError("coords length must match label count")
        line = coords is not None and coords.shape[1] == 1 and (
            dist is None or _is_line_dist(dist, coords[:, 0]))
        object.__setattr__(self, "labels", labels)
        if validate and not (line and _check_line(coords[:, 0])):
            if dist is None:
                dist = _line_dist(coords[:, 0])
            self._check(dist, coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_dist", dist)
        object.__setattr__(self, "_line", line)
        object.__setattr__(self, "_factors", None)
        object.__setattr__(self, "_separation", None)

    def _check(self, dist: np.ndarray, coords: np.ndarray | None) -> None:
        n = len(self.labels)
        # first: NaN slips through the coordinate check, as NaN > tol is False
        if coords is not None and not np.all(np.isfinite(coords)):
            raise InputError("coords must be finite")
        if not np.all(np.isfinite(dist)):
            raise InputError("distances must be finite")
        if np.any(np.diag(dist) != 0.0):
            raise InputError("distance matrix must have zero diagonal")
        if not np.array_equal(dist, dist.T):
            raise InputError("distance matrix must be symmetric")
        # the n diagonal zeros are the only entries allowed to be <= 0
        if np.count_nonzero(dist <= 0.0) != n:
            raise InputError("off-diagonal distances must be strictly positive")
        _check_triangles(dist)
        if coords is not None:
            # per block of 64 rows, so no n x n temporary is built
            for s in range(0, n, 64):
                diffs = coords[s:s + 64, None, :] - coords[None, :, :]
                gap = np.sqrt(np.sum(np.square(diffs), axis=-1))
                if np.max(np.abs(gap - dist[s:s + 64])) > COORD_DIST_TOL:
                    raise InputError("coords do not reproduce the distance matrix")

    @property
    def dist(self) -> np.ndarray:
        if self._dist is None:
            if self._factors is None:
                dist = _line_dist(self.coords[:, 0])
            else:
                dist = _product_dist(*self._factors)
            object.__setattr__(self, "_dist", dist)
        return self._dist

    @property
    def separation(self) -> float:
        """The least distance between two distinct points: inf below two
        points, and 0.0 when that distance is not positive (NaN included)
        or some point is not at distance 0 from itself, neither of which a
        checked space allows. Computed once, without building a line's or a
        product's matrix: a line from its sorted coords, a product from its
        factors (see ``_separation_of``)."""
        if self._separation is None:
            object.__setattr__(self, "_separation", _separation_of(self))
        return self._separation

    def pair_distances(self, i: np.ndarray, k: np.ndarray) -> np.ndarray:
        """dist[i, k] for index arrays i and k, bit for bit, without building a
        matrix that is not built yet: a built matrix is indexed, a line
        computes |fl(x_i - x_k)|, and a product combines its factors' pair
        distances (d1 + d2 or max(d1, d2)) as its matrix does."""
        if self._dist is not None:
            return self._dist[i, k]
        if self._factors is not None:
            s1, s2, kind = self._factors
            combine = np.add if kind is ProductMetricKind.SUM else np.maximum
            n2 = len(s2)
            return combine(s1.pair_distances(i // n2, k // n2), s2.pair_distances(i % n2, k % n2))
        x = self.coords[:, 0]
        with np.errstate(invalid="ignore", over="ignore"):
            return np.abs(x[i] - x[k])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # a product travels as its factors and kind, and a coordinate line as
        # its coords, so neither builds its matrix; the others carry theirs
        if self._factors is not None:
            return product_space, self._factors
        return _rebuilt, (self.labels, None if self._line else self._dist, self.coords)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int | None:
        return None if self.coords is None else self.coords.shape[1]


def _rebuilt(labels, dist, coords) -> FiniteMetricSpace:
    """The space of a copy or an unpickling, unchecked. Its arrays are fresh
    ones that no one else holds, so they are marked read-only first and
    ``_held`` keeps them without a copy."""
    for a in (dist, coords):
        if a is not None:
            a.setflags(write=False)
    return FiniteMetricSpace(labels, dist, coords, validate=False)


def _separation_of(space: FiniteMetricSpace) -> float:
    """The separation of ``space`` (see ``FiniteMetricSpace.separation``).

    A line's distances are |fl(x_i - x_j)|; rounding is monotone, so for
    sorted coords s every distance is at least the gap fl(s_k+1 - s_k) of
    two neighbours between its endpoints, and the least gap is the least
    distance. A SUM or MAX product of factors with zero diagonals takes the
    smaller separation of its factors exactly: two distinct points differ
    in some factor, where their distance is at least that factor's
    separation, and fl(a + b) >= max(a, b) for a, b >= 0; a pair differing
    in one factor only attains it. Other spaces read their matrix once.
    """
    if space._factors is not None:
        s1, s2, _ = space._factors
        return min(s1.separation, s2.separation)
    if space._line:
        x = np.sort(space.coords[:, 0])
        if not np.all(np.isfinite(x)):
            return 0.0
        sep = float(np.min(x[1:] - x[:-1], initial=math.inf))
    else:
        dist = space.dist
        if np.any(np.diagonal(dist) != 0.0):
            return 0.0
        sep = float(np.min(dist, where=~np.eye(len(dist), dtype=bool), initial=math.inf))
    return sep if sep > 0.0 else 0.0


def _held(a) -> np.ndarray:
    """a as a read-only float64 array that no caller can write through: a
    itself when it and every array it views are read-only, else a read-only
    copy. The package hands its own fresh arrays over read-only, so they are
    held without a copy; a caller's writeable array is copied, and stays
    writeable."""
    a = np.asarray(a, dtype=float)
    base = a
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            a = a.copy()
            break
        base = base.base
    a.setflags(write=False)
    return a


def _line_dist(x: np.ndarray) -> np.ndarray:
    """|fl(x_i - x_j)|, read-only."""
    with np.errstate(invalid="ignore", over="ignore"):
        dist = np.abs(x[:, None] - x[None, :])
    dist.setflags(write=False)
    return dist


def _is_line_dist(dist: np.ndarray, x: np.ndarray) -> bool:
    """Whether dist is |fl(x_i - x_j)| bit for bit, in blocks of 64 rows into
    one reused buffer, so no n x n temporary is built."""
    n = len(x)
    buf = np.empty((min(n, 64), n))
    with np.errstate(invalid="ignore", over="ignore"):
        for s in range(0, n, 64):
            b = buf[:min(64, n - s)]
            np.subtract(x[s:s + 64, None], x[None, :], out=b)
            np.abs(b, out=b)
            # as integers: -0.0 == 0.0, but a -0.0 in dist would not load back
            if not np.array_equal(b.view(np.int64), dist[s:s + 64].view(np.int64)):
                return False
    return True


def _check_line(x: np.ndarray) -> bool:
    """Check the coordinate line |fl(x_i - x_j)| of x in O(n), without its matrix.

    Raises the InputError that ``FiniteMetricSpace._check`` raises on the
    built matrix for non-finite coords, a spread fl(max - min) that
    overflows (so does some distance) and repeated points (a zero distance).
    Then returns True when one of two certificates shows that the rest of
    that check passes, and False when neither holds and the caller must
    build the matrix and run it.

    (a) Exact differences (``_unit_certificate``): every fl(x_i - x_j) is
        exact, so d_ij = |x_i - x_j| over the reals and d_ik + d_kj >= d_ij.
        Rounding is monotone and d_ij is a float, so fl(d_ik + d_kj) >= d_ij,
        and so is fl(fl(d_ik + d_kj) + 1e-12): the scan passes. The coordinate
        check compares d = |fl(x_i - x_j)| with sqrt(fl(d * d)). In binary
        floating point the two are equal while d * d is finite and normal;
        below that both are under 2^-510, so the check fails exactly when
        fl(spread * spread) overflows, spread being the largest d.
    (b) Small diameter: fl(max - min) <= 2^11. With u = 2^-53 and r the real
        distances, d_ij = |fl(x_i - x_j)| = r_ij (1 + e), |e| <= u, so
        fl(d_ik + d_kj) >= (r_ik + r_kj)(1 - u)^2 >= r_ij (1 - u)^2
        >= d_ij (1 - u)^2 / (1 + u) >= d_ij (1 - 3u). The scan rejects
        d_ij > fl(fl(d_ik + d_kj) + 1e-12), which cannot hold while
        3u d_ij < 1e-12, i.e. d_ij < 3002 (rounding is monotone and d_ij is
        a float). Every d_ij <= fl(max - min) <= 2^11, and sqrt(fl(d * d))
        is within an ulp of d <= 2^11, under 1e-12: the coordinate check
        passes.
    """
    if not np.all(np.isfinite(x)):
        raise InputError("coords must be finite")
    if len(x) < 2:
        return True
    s = np.sort(x)
    spread = float(s[-1]) - float(s[0])
    if not math.isfinite(spread):
        raise InputError("distances must be finite")
    if np.any(s[1:] == s[:-1]):
        raise InputError("off-diagonal distances must be strictly positive")
    if spread <= 2.0 ** 11:
        return True
    if not _unit_certificate(x):
        return False
    if math.isinf(spread * spread):
        raise InputError("coords do not reproduce the distance matrix")
    return True


def _unit_certificate(x: np.ndarray) -> bool:
    """Whether every x_i is an integer multiple of one power of two 2^e with
    (max - min) / 2^e < 2^53. Then every difference is (k_i - k_j) 2^e with
    |k_i - k_j| < 2^53, an exact float. O(n).

    2^e is the smallest lowest set bit of a nonzero x_i. fl(max - min) is
    fl(K) 2^e for the integer K = (max - min) / 2^e, and fl(K) < 2^53
    implies K < 2^53 (rounding is monotone and 2^53 is a float). A division
    that overflows fails the test, as do non-finite coords.
    """
    if len(x) < 2:
        return True
    spread = float(x.max()) - float(x.min())
    if not math.isfinite(spread):
        return False
    mant, exp = np.frexp(x)
    mant = np.ldexp(mant, 53).astype(np.int64)  # x = mant 2^(exp - 53), |mant| < 2^53
    low = np.ldexp((mant & -mant).astype(float), exp - 53)  # lowest set bit of each x_i
    with np.errstate(over="ignore"):
        return spread / low[low > 0].min(initial=np.inf) < 2.0 ** 53


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


def line_space(points: Sequence[Real], labels: Sequence[str] | None = None) -> FiniteMetricSpace:
    """The coordinate line of the points, with distances |fl(x - y)|.

    Checked like a loaded one: points whose rounded distances break the
    triangle inequality (an InputError) give no space, so every space built
    here can be saved and loaded back. The cap is checked on len(points)
    before any point is read, so range(2 ** 40) is refused at once.
    """
    check_line_space_size(len(points))
    pts = [float(p) for p in points]
    if len(set(pts)) != len(pts):
        raise InputError("line_space points must be distinct")
    if labels is None:
        elabels = tuple(str(p) for p in points)
    else:
        elabels = tuple(labels)
    return FiniteMetricSpace(elabels, None, coords=np.array(pts, dtype=float))


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
    product topology and satisfy r <= d <= 2r entrywise. The product keeps
    its factors and kind: its N x N matrix is built on the first read of
    ``dist``, and its separation and its copies need none. It carries no
    coordinates: neither metric is the Euclidean one of the concatenated
    coordinates, and the cf gap reads the factor spaces' coordinates.
    """
    if not isinstance(kind, ProductMetricKind):
        raise InputError(f"unknown product metric kind: {kind!r}")
    space = object.__new__(FiniteMetricSpace)
    labels = tuple(f"({a},{b})" for a in s1.labels for b in s2.labels)
    # the triangle inequality is inherited from the factors: no check
    for name, value in (("labels", labels), ("coords", None), ("_dist", None), ("_line", False),
                        ("_factors", (s1, s2, kind)), ("_separation", None)):
        object.__setattr__(space, name, value)
    return space


def _product_dist(s1: FiniteMetricSpace, s2: FiniteMetricSpace, kind: ProductMetricKind):
    """d1 + d2 (SUM) or max(d1, d2) (MAX) on the product, read-only."""
    combine = np.add if kind is ProductMetricKind.SUM else np.maximum
    n1, n2 = len(s1), len(s2)
    dist = np.empty((n1 * n2, n1 * n2))
    combine(s1.dist[:, None, :, None], s2.dist[None, :, None, :], out=dist.reshape(n1, n2, n1, n2))
    dist.setflags(write=False)
    return dist
