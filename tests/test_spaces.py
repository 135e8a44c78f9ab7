import copy
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymdep import (
    CapabilityError, InputError, ProductMetricKind, FiniteMetricSpace, line_space, product_space,
)
from asymdep import spaces
from asymdep.spaces import COORD_DIST_TOL, LINE_SPACE_MAX_POINTS


def test_line_space_distances_are_absolute_differences():
    s = line_space([0.0, 0.5, 2.0])
    assert s.dist[0][1] == pytest.approx(0.5)
    assert s.dist[0][2] == pytest.approx(2.0)
    assert s.dist[2][1] == pytest.approx(1.5)
    assert list(s.labels) == ["0.0", "0.5", "2.0"]


@pytest.mark.parametrize("n", [LINE_SPACE_MAX_POINTS + 1, 2 ** 16, 2 ** 40])
def test_line_space_above_the_cap_fails_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="LINE_SPACE_MAX_POINTS"):
            line_space(range(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_line_space_cap_admits_its_own_size():
    spaces.check_line_space_size(LINE_SPACE_MAX_POINTS)
    with pytest.raises(CapabilityError):
        spaces.check_line_space_size(LINE_SPACE_MAX_POINTS + 1)


def test_product_space_sum_and_max_values():
    s1 = line_space([0.0, 1.0])
    s2 = line_space([0.0, 3.0])
    ps = product_space(s1, s2, ProductMetricKind.SUM)
    pm = product_space(s1, s2, ProductMetricKind.MAX)
    # row-major point order: (0,0), (0,3), (1,0), (1,3)
    assert ps.dist[0][3] == pytest.approx(4.0)
    assert pm.dist[0][3] == pytest.approx(3.0)
    assert ps.dist[1][2] == pytest.approx(4.0)
    assert pm.dist[1][2] == pytest.approx(3.0)
    assert ps.labels[3] == "(1.0,3.0)"


def test_sum_and_max_metrics_are_equivalent_within_factor_two():
    s1 = line_space([0.0, 0.7, 2.0])
    s2 = line_space([-1.0, 0.0, 0.4])
    ps = product_space(s1, s2, ProductMetricKind.SUM)
    pm = product_space(s1, s2, ProductMetricKind.MAX)
    assert np.all(pm.dist <= ps.dist + 1e-12)
    assert np.all(ps.dist <= 2 * pm.dist + 1e-12)


@pytest.mark.parametrize("kind", list(ProductMetricKind))
def test_product_space_satisfies_metric_axioms(kind):
    s1 = line_space([0.0, 1.0, 2.5])
    s2 = line_space([0.0, 0.3])
    p = product_space(s1, s2, kind)
    d = p.dist
    n = len(p.labels)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0)
    off = d + np.eye(n)
    assert np.all(off > 0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i][j] <= d[i][k] + d[k][j] + 1e-12


def test_the_callers_arrays_stay_writeable_and_the_space_keeps_its_own():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    s = FiniteMetricSpace(("a", "b"), d, coords=x)
    assert d.flags.writeable and x.flags.writeable
    d[0, 1] = d[1, 0] = 2.0
    x[1, 0] = 2.0
    assert s.dist[0, 1] == 1.0 and s.coords[1, 0] == 1.0
    assert not s.dist.flags.writeable and not s.coords.flags.writeable


def test_a_read_only_array_is_held_as_is_and_a_read_only_view_is_copied():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    view = d.view()
    view.setflags(write=False)
    s = FiniteMetricSpace(("a", "b"), view)
    d[0, 1] = d[1, 0] = 2.0  # through the writeable array the view shows
    assert s.dist[0, 1] == 1.0
    d.setflags(write=False)
    assert FiniteMetricSpace(("a", "b"), d).dist is d


@pytest.mark.parametrize("kind", list(ProductMetricKind))
def test_product_space_holds_the_matrix_it_built(monkeypatch, kind):
    s1, s2 = line_space([0.0, 1.0, 3.0]), line_space([0.5, 2.0])
    built = []
    build = spaces._product_dist
    monkeypatch.setattr(spaces, "_product_dist", lambda *a: built.append(build(*a)) or built[-1])
    p = product_space(s1, s2, kind)
    assert built == [] and p._dist is None  # nothing is built before the first read
    d = p.dist
    assert len(built) == 1 and d is built[0] and not d.flags.writeable
    assert p.dist is d and len(built) == 1


def test_a_space_without_a_distance_matrix_is_refused_above_the_line_cap():
    n = LINE_SPACE_MAX_POINTS + 1
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError) as exc:
            FiniteMetricSpace(map(str, range(n)), None, coords=np.arange(n, dtype=float))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "a line space of 4097 points is above LINE_SPACE_MAX_POINTS = 4096"
    assert peak < 2 ** 20  # the matrix would take 134 MB


def test_product_space_carries_no_coords():
    p = product_space(line_space([0.0, 1.0]), line_space([5.0, 7.0]), ProductMetricKind.SUM)
    assert p.coords is None and p.dim is None


@pytest.mark.parametrize(
    "dist",
    [
        [[0.0, 1.0], [2.0, 0.0]],          # asymmetric
        [[0.5, 1.0], [1.0, 0.0]],          # nonzero diagonal
        [[0.0, -1.0], [-1.0, 0.0]],        # negative
        [[0.0, 0.0], [0.0, 0.0]],          # distinct points at distance 0
    ],
)
def test_invalid_distance_matrices_are_rejected(dist):
    with pytest.raises(InputError):
        FiniteMetricSpace(("a", "b"), np.array(dist))


def test_triangle_violation_is_rejected():
    dist = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(InputError):
        FiniteMetricSpace(("a", "b", "c"), dist)


def test_coords_must_match_distances_when_euclidean():
    dist = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(InputError):
        FiniteMetricSpace(("a", "b"), dist, coords=np.array([0.0, 1.0]))
    ok = FiniteMetricSpace(("a", "b"), dist, coords=np.array([0.0, 2.0]))
    assert ok.dim == 1


# ---------------------------------------------------------------------------
# Triangle check against the per-k loop
# ---------------------------------------------------------------------------

TRIANGLE_MESSAGE = "distance matrix violates the triangle inequality"
ORACLE_SIZES = [1, 2, 63, 64, 65, 130]


def _triangle_witnesses(d):
    """Every k with d[i,j] > d[i,k] + d[k,j] + 1e-12 for some (i, j)."""
    return [k for k in range(len(d)) if np.any(d > d[:, [k]] + d[[k], :] + 1e-12)]


def _agrees_with_oracle(d):
    """Whether FiniteMetricSpace accepts d; asserts it agrees with the oracle."""
    try:
        FiniteMetricSpace(tuple(str(i) for i in range(len(d))), d.copy())
        accepted = True
    except InputError as exc:
        assert str(exc) == TRIANGLE_MESSAGE
        accepted = False
    assert accepted == (not _triangle_witnesses(d))
    return accepted


def _valid_metric(kind, n, rng):
    if kind == "line":
        x = rng.permutation(n) + rng.uniform(0.0, 0.5, n)
        return np.abs(x[:, None] - x[None, :])
    if kind == "euclidean":
        x = rng.normal(size=(n, 3))
        return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    # shortest-path closure of random symmetric edge lengths
    w = rng.uniform(0.1, 3.0, (n, n))
    d = np.triu(w, 1) + np.triu(w, 1).T
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


@pytest.mark.parametrize("kind", ["line", "euclidean", "closure"])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_triangle_check_matches_per_k_oracle(kind, n):
    rng = np.random.default_rng(n)
    d = _valid_metric(kind, n, rng)
    assert _agrees_with_oracle(d)
    if n < 3:
        return
    # tolerance edge across the block boundary: d[i,j] = fl(min_k d[i,k] + d[k,j]) + 1e-12
    i, j = 0, n - 1
    others = np.arange(1, n - 1)
    edge = (d[i, others] + d[others, j]).min() + 1e-12
    d[i, j] = d[j, i] = edge
    assert _agrees_with_oracle(d)
    d[i, j] = d[j, i] = np.nextafter(edge, np.inf)
    assert not _agrees_with_oracle(d)
    # a planted violation inside the last block
    d = _valid_metric(kind, n, rng)
    i, j = n - 2, n - 1
    d[i, j] = d[j, i] = (d[i, :i] + d[:i, j]).min() + 1e-6
    assert not _agrees_with_oracle(d)


@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 3])
def test_triangle_violation_with_witness_in_an_earlier_block(n):
    # all distances 2 but a path of length 2 from i through k to j, with
    # d[i,j] just above it: k is the only witness, in block 0 when n > 64
    i, j, k = n - 2, n - 1, 0
    d = np.full((n, n), 2.0) - 2.0 * np.eye(n)
    d[i, k] = d[k, i] = d[k, j] = d[j, k] = 1.0
    assert _agrees_with_oracle(d)
    d[i, j] = d[j, i] = 2.0 + 1e-9
    assert _triangle_witnesses(d) == [k]
    assert not _agrees_with_oracle(d)


# ---------------------------------------------------------------------------
# Coordinate check against the full-matrix formula
# ---------------------------------------------------------------------------

COORD_MESSAGE = "coords do not reproduce the distance matrix"


def _coords_match(coords, d):
    """The full-matrix formula: max |euclid - d| <= COORD_DIST_TOL."""
    diffs = coords[:, None, :] - coords[None, :, :]
    return np.max(np.abs(np.sqrt((diffs ** 2).sum(axis=-1)) - d)) <= COORD_DIST_TOL


def _coords_agree_with_oracle(coords, d):
    """Whether FiniteMetricSpace accepts coords for d; asserts it agrees with the oracle."""
    labels = tuple(str(i) for i in range(len(d)))
    FiniteMetricSpace(labels, d.copy())  # the planted entries keep d a metric
    try:
        FiniteMetricSpace(labels, d.copy(), coords=coords)
        accepted = True
    except InputError as exc:
        assert str(exc) == COORD_MESSAGE
        accepted = False
    assert accepted == _coords_match(coords, d)
    return accepted


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_coord_check_matches_full_matrix_formula(n):
    rng = np.random.default_rng(n)
    coords = rng.normal(size=(n, 2))
    diffs = coords[:, None, :] - coords[None, :, :]
    euclid = np.sqrt((diffs ** 2).sum(axis=-1))
    assert _coords_agree_with_oracle(coords, euclid)
    if n < 2:
        return
    # both entries of the pair lie in the last block of 64 rows when it has two rows
    i, j = n - 1, n - 2
    d = euclid.copy()
    d[i, j] = d[j, i] = euclid[i, j] + 1e-9
    assert not _coords_agree_with_oracle(coords, d)
    # the tolerance edge: the largest entry with |euclid - d| <= COORD_DIST_TOL
    x = euclid[i, j] + COORD_DIST_TOL
    while x - euclid[i, j] > COORD_DIST_TOL:
        x = np.nextafter(x, -np.inf)
    while np.nextafter(x, np.inf) - euclid[i, j] <= COORD_DIST_TOL:
        x = np.nextafter(x, np.inf)
    d[i, j] = d[j, i] = x
    assert _coords_agree_with_oracle(coords, d)
    d[i, j] = d[j, i] = np.nextafter(x, np.inf)
    assert not _coords_agree_with_oracle(coords, d)


def test_coord_check_accepts_a_gap_of_exactly_the_tolerance():
    # sqrt(fl(t * t)) == t, so the coords give the distance t exactly and the
    # gap |t - 2t| is exactly COORD_DIST_TOL
    t = COORD_DIST_TOL
    coords = np.array([[0.0], [t]])
    d = np.array([[0.0, 2 * t], [2 * t, 0.0]])
    assert _coords_agree_with_oracle(coords, d)
    d[0, 1] = d[1, 0] = np.nextafter(2 * t, np.inf)
    assert not _coords_agree_with_oracle(coords, d)


# ---------------------------------------------------------------------------
# Line metrics are checked by certificate; every other matrix takes the scan
# ---------------------------------------------------------------------------

def _line_agrees_with_oracle(x, d):
    """Whether FiniteMetricSpace accepts d with 1-D coords x; asserts it agrees
    with the per-k oracle and the full-matrix coordinate formula."""
    witnesses = _triangle_witnesses(d)
    try:
        FiniteMetricSpace(tuple(str(i) for i in range(len(d))), d.copy(), coords=x.copy())
        accepted = True
    except InputError as exc:
        assert str(exc) == (TRIANGLE_MESSAGE if witnesses else COORD_MESSAGE)
        accepted = False
    assert accepted == (not witnesses and _coords_match(x[:, None], d))
    return accepted


def _scan_calls(monkeypatch):
    """A list that records one entry per run of the triangle scan."""
    calls = []
    scan = spaces._check_triangles

    def counted(dist):
        calls.append(len(dist))
        scan(dist)

    monkeypatch.setattr(spaces, "_check_triangles", counted)
    return calls


def _line(x):
    return np.abs(x[:, None] - x[None, :])


def _exact_line(d, coords):
    """Whether coords are 1-D, every difference fl(x_i - x_j) is exact (as
    Fractions, x_i - x_j == fl(x_i - x_j)) and d is |fl(x_i - x_j)|."""
    coords = np.asarray(coords, dtype=float).reshape(len(coords), -1)
    if coords.shape[1] != 1 or not np.all(np.isfinite(coords)):
        return False
    x = coords[:, 0].tolist()
    for i, a in enumerate(x):
        for b in x[i + 1:]:
            fl = a - b
            if not math.isfinite(fl) or Fraction(a) - Fraction(b) != Fraction(fl):
                return False
    return np.array_equal(d, _line(coords[:, 0]))


@pytest.mark.parametrize("scale", [1.0, 1 / 8])
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_exact_line_skips_the_scan_and_matches_the_oracle(monkeypatch, n, scale):
    # integer and dyadic (k/8) points: every difference is an exact float
    x = np.random.default_rng(n).permutation(3 * n)[:n] * scale
    d = _line(x)
    assert _exact_line(d, x)
    calls = _scan_calls(monkeypatch)
    assert _line_agrees_with_oracle(x, d)
    assert calls == []


@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 3])
def test_inexact_line_takes_the_scan(monkeypatch, n):
    x = 0.1 * np.arange(n)  # 0.1 k - 0.1 l rounds for some pairs
    d = _line(x)
    assert not _exact_line(d, x)
    calls = _scan_calls(monkeypatch)
    assert _line_agrees_with_oracle(x, d)
    # d is still |fl(x_i - x_j)|: the space is the line of x, and certificate
    # (b) of a spread under 2^11 checks it without the scan
    assert FiniteMetricSpace(tuple(map(str, range(n))), d, coords=x)._line
    assert calls == []


def test_a_given_matrix_equal_to_the_line_metric_is_that_line(monkeypatch):
    x = 0.1 * np.arange(130)  # 130 rows cross two block edges
    calls = _scan_calls(monkeypatch)
    for d in (_line(x), np.asfortranarray(_line(x)), _line(x).T):
        s = FiniteMetricSpace(tuple(map(str, range(130))), d, coords=x)
        assert s._line and s.dist.tobytes() == _line(x).tobytes()
    assert calls == []


def test_a_negative_zero_on_the_diagonal_keeps_a_matrix_space():
    # -0.0 == 0.0, but the line metric would give +0.0 back
    x = np.array([0.0, 1.0, 2.5])
    d = _line(x)
    d[1, 1] = -0.0
    s = FiniteMetricSpace(("a", "b", "c"), d, coords=x)
    assert not s._line and np.signbit(s.dist[1, 1])


@pytest.mark.parametrize("step", ["up", "down", "+1e-12", "-1e-12", "+0.9e-12", "-0.9e-12"])
@pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n >= 2])
def test_moved_entry_takes_the_scan_and_matches_the_oracle(monkeypatch, n, step):
    x = np.arange(n, dtype=float)
    d = _line(x)
    i, j = n // 2, n - 1 if n // 2 != n - 1 else 0
    if step in ("up", "down"):
        moved = np.nextafter(d[i, j], np.inf if step == "up" else -np.inf)
    else:
        moved = d[i, j] + float(step)
    d[i, j] = d[j, i] = moved
    assert not _exact_line(d, x)
    calls = _scan_calls(monkeypatch)
    _line_agrees_with_oracle(x, d)
    assert calls == [n]


def test_near_line_violation_is_still_rejected_with_the_triangle_message(monkeypatch):
    # Within COORD_DIST_TOL of the line metric of (0, 1, 2), so the coordinate
    # check passes, but d02 > d01 + d12 + 1e-12: only the scan can reject it.
    x = np.array([0.0, 1.0, 2.0])
    d = _line(x)
    d[0, 1] = d[1, 0] = 1 - 0.9e-12
    d[0, 2] = d[2, 0] = 2 + 0.9e-12
    assert _coords_match(x[:, None], d)
    calls = _scan_calls(monkeypatch)
    with pytest.raises(InputError, match=TRIANGLE_MESSAGE):
        FiniteMetricSpace(("a", "b", "c"), d, coords=x)
    assert calls == [3]


def test_two_dimensional_coords_take_the_scan(monkeypatch):
    coords = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [0.0, 4.0]])
    diffs = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diffs ** 2).sum(axis=-1))
    assert not _exact_line(d, coords)
    calls = _scan_calls(monkeypatch)
    FiniteMetricSpace(tuple("abcd"), d, coords=coords)
    assert calls == [4]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coords_are_not_an_exact_line(bad):
    x = np.array([0.0, 1.0, 2.0])
    d = _line(x)
    x[1] = bad
    assert not _exact_line(d, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coords_are_rejected(bad):
    with pytest.raises(InputError, match="coords must be finite"):
        FiniteMetricSpace(("a", "b", "c"), _line(np.array([0.0, 1.0, 2.0])),
                          coords=[0.0, bad, 2.0])


def test_huge_coords_whose_difference_overflows_are_not_an_exact_line():
    x = np.array([-1e308, 1e308])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not _exact_line(d, x)


def test_coords_of_more_than_two_axes_are_rejected():
    with pytest.raises(InputError, match="coords must be"):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                          coords=np.zeros((2, 1, 1)))


# ---------------------------------------------------------------------------
# Symmetry check in blocks of 64 rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "i, j",
    [
        (3, 7), (7, 3),          # inside the first block
        (140, 145), (145, 140),  # inside the last block, a partial one
        (63, 64), (64, 63),      # on either side of a block edge
        (10, 100), (100, 10),    # rows of one block, columns of another
        (0, 149), (149, 0),      # the far corners
    ],
)
def test_asymmetric_entry_is_rejected_in_every_block(i, j):
    n = 150
    d = np.full((n, n), 1.0) - np.eye(n)
    FiniteMetricSpace(tuple(range(n)), d.copy())
    d[i, j] = 1.5
    with pytest.raises(InputError, match="must be symmetric"):
        FiniteMetricSpace(tuple(range(n)), d)


# ---------------------------------------------------------------------------
# Coordinate lines: dist built on the first read, checked by certificate
# ---------------------------------------------------------------------------

def _eager(x):
    """The full-matrix formula |x_i - x_j| of the coordinates."""
    x = np.asarray(x, dtype=float)
    return np.abs(x[:, None] - x[None, :])


@pytest.mark.parametrize("points", [
    range(70), [0.1 * k for k in range(70)], [-3.5, 0.0, 0.75, 2.0 ** 40],
    [-3.5, 0.0, 1e-300, 1e3], [7.25],
])
def test_lazy_dist_is_the_eager_matrix_read_only_and_built_once(monkeypatch, points):
    built = []
    build = spaces._line_dist
    monkeypatch.setattr(spaces, "_line_dist", lambda x: built.append(len(x)) or build(x))
    s = line_space(points)
    assert built == [] and s._dist is None
    d = s.dist
    assert d.dtype == np.float64 and d.tobytes() == _eager(list(points)).tobytes()
    assert not d.flags.writeable
    with pytest.raises(ValueError):
        d[0, 0] = 1.0
    assert s.dist is d and built == [len(d)]


def test_coordinate_line_is_immutable():
    s = line_space([0.0, 1.0])
    with pytest.raises(AttributeError):
        s.dist = np.zeros((2, 2))
    with pytest.raises(AttributeError):
        s.labels = ("a", "b")


@pytest.mark.parametrize("read_first", [False, True])
def test_coordinate_line_copies_and_pickles(read_first):
    s = line_space([0.0, 0.1, 0.25, 3.0], labels="abcd")
    if read_first:
        s.dist
    for again in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(again) is FiniteMetricSpace
        assert again.labels == s.labels and again.coords.tobytes() == s.coords.tobytes()
        assert again._line and again._dist is None  # travels as coords; rebuilt on a read
        assert again.dist.tobytes() == s.dist.tobytes() and not again.dist.flags.writeable


@pytest.mark.parametrize("read_first", [False, True])
def test_matrix_space_copies_and_pickles(read_first):
    d = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    s = FiniteMetricSpace(("a", "b", "c"), d)
    if read_first:
        s.dist
    for again in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert not again._line and again.coords is None
        assert again.labels == s.labels and again.dist.tobytes() == s.dist.tobytes()


def _copied_spaces():
    d = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    d.setflags(write=False)
    line = line_space([0.0, 0.1, 0.25, 3.0], labels="abcd")
    return {
        "matrix": FiniteMetricSpace(("a", "b", "c"), d),
        "line": line,
        "sum": product_space(line, line_space([1.0, 2.5]), ProductMetricKind.SUM),
        "max": product_space(line, line_space([1.0, 2.5]), ProductMetricKind.MAX),
    }


@pytest.mark.parametrize("name", ["matrix", "line", "sum", "max"])
def test_copies_and_unpickled_spaces_hold_their_arrays_without_a_copy(monkeypatch, name):
    s = _copied_spaces()[name]
    given = []
    held = spaces._held
    monkeypatch.setattr(spaces, "_held", lambda a: given.append((a, held(a))) or given[-1][1])
    for again in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(again) is FiniteMetricSpace and again.labels == s.labels
        if name in ("sum", "max"):
            # a product travels as its factors: the copy builds no matrix
            assert again._dist is None and again._factors[2] is s._factors[2]
        assert again.dist.tobytes() == s.dist.tobytes() and not again.dist.flags.writeable
    # an unpickled array's dtype may not be float64's own object: asarray views it
    assert given and all(np.shares_memory(a, out) for a, out in given)


def _brute_separation(s):
    d = s.dist
    off = [d[i, k] for i in range(len(d)) for k in range(len(d)) if i != k]
    return min(off, default=math.inf)


SPACES = [
    pytest.param(lambda: line_space([3.0, 0.1, 0.25, 0.0, -7.5]), id="line"),
    pytest.param(lambda: line_space([5.0]), id="one_point_line"),
    pytest.param(lambda: line_space([0.1 * k for k in range(40)]), id="tenths_line"),
    pytest.param(lambda: FiniteMetricSpace("abc", [[0, 2.0, 1.5], [2.0, 0, 1.0], [1.5, 1.0, 0]]),
                 id="matrix"),
    pytest.param(lambda: product_space(line_space([0.0, 0.7, 2.0]), line_space([-1.0, 0.4]),
                                       ProductMetricKind.SUM), id="sum"),
    pytest.param(lambda: product_space(line_space([0.0, 0.7, 2.0]), line_space([-1.0, 0.4]),
                                       ProductMetricKind.MAX), id="max"),
    pytest.param(lambda: product_space(line_space([0.0, 0.3, 1.0]), line_space([4.0]),
                                       ProductMetricKind.SUM), id="sum_one_point_factor"),
    pytest.param(lambda: product_space(line_space([4.0]), line_space([0.1, 0.3, 1.0]),
                                       ProductMetricKind.MAX), id="max_one_point_factor"),
    pytest.param(lambda: product_space(line_space([4.0]), line_space([1.0]),
                                       ProductMetricKind.SUM), id="one_point_product"),
    pytest.param(lambda: product_space(
        product_space(line_space([0.0, 0.5]), line_space([1.0, 1.2]), ProductMetricKind.MAX),
        line_space([0.0, 0.05]), ProductMetricKind.SUM), id="product_of_a_product"),
]


@pytest.mark.parametrize("space", SPACES)
def test_separation_is_the_least_distance_between_distinct_points(space):
    s = space()
    sep = s.separation
    if s._factors is not None or s._line:
        assert s._dist is None  # computed without the matrix
    assert sep == _brute_separation(s)


@pytest.mark.parametrize("space", SPACES)
def test_pair_distances_equal_the_matrix_bit_for_bit(space):
    s = space()
    n = len(s)
    i, k = np.divmod(np.arange(n * n), n)
    i, k = i[::-1], k[::-1]  # any order, not only row-major
    got = s.pair_distances(i, k)
    if s._factors is not None or s._line:
        assert s._dist is None  # computed without the matrix
    want = space().dist[i, k]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # once the matrix is built, it is indexed
    assert s.dist[i, k].tobytes() == s.pair_distances(i, k).tobytes()


def test_a_zero_distance_between_distinct_points_gives_separation_zero():
    s = FiniteMetricSpace("abc", [[0, 0.0, 1.0], [0.0, 0, 1.0], [1.0, 1.0, 0]], validate=False)
    assert s.separation == 0.0
    p = product_space(s, line_space([0.0, 1.0]), ProductMetricKind.MAX)
    assert p.separation == 0.0 and p._dist is None
    # a point not at distance 0 from itself: no metric, so no positive separation
    assert FiniteMetricSpace("ab", [[0.5, 1.0], [1.0, 0.0]], validate=False).separation == 0.0


def test_a_4096_point_line_allocates_nothing_n_by_n_until_dist_is_read():
    tracemalloc.start()
    try:
        s = line_space(range(4096))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20  # the matrix takes 128 MB
    assert s._dist is None and s.dist.shape == (4096, 4096)


@pytest.mark.parametrize("points", [
    [-0.8122808264515302, 303.18594544552593, 786634.0851152702],
    list(np.random.default_rng(0).uniform(0.0, 1e6, 256)),
])
def test_line_space_refuses_points_whose_rounded_distances_break_the_triangle(points):
    assert _triangle_witnesses(_eager(points))
    with pytest.raises(InputError, match=TRIANGLE_MESSAGE):
        line_space(points)


def test_line_space_refuses_non_finite_points():
    with pytest.raises(InputError, match="coords must be finite"):
        line_space([0.0, float("inf")])


def test_a_coordinate_line_needs_one_dimensional_coords():
    for coords in (None, np.zeros((2, 2))):
        with pytest.raises(InputError) as exc:
            FiniteMetricSpace(("a", "b"), None, coords=coords)
        assert str(exc.value) == "a space without a distance matrix needs 1-D coords"


def _full_check(x, d):
    """Run the full check of matrix d with 1-D coords x, scan included, even
    where d is their line metric and the constructor would take a certificate."""
    s = FiniteMetricSpace(tuple(map(str, range(len(x)))), d, coords=x, validate=False)
    s._check(s.dist, s.coords)


# Coordinates drawn as integers k times one power of two 2^e, so that
# certificate (a) mostly holds (|k| <= 2^52) or is near its edge (|k| up to
# 2^60, rounded to floats), or as floats of a bounded spread, so that (b) holds.
_unit_lines = st.builds(
    lambda ks, e: np.unique(np.ldexp(np.array(ks, dtype=float), e)),
    st.one_of(st.lists(st.integers(-2 ** 52, 2 ** 52), min_size=2, max_size=40),
              st.lists(st.integers(-2 ** 60, 2 ** 60), min_size=2, max_size=40)),
    st.integers(-1074, 960),
)
_small_lines = st.lists(
    st.floats(-1024.0, 1024.0, allow_nan=False, allow_subnormal=True),
    min_size=2, max_size=40, unique=True,
).map(np.array)


_any_lines = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40, unique=True,
).map(np.array)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_unit_lines, _any_lines))
def test_unit_certificate_implies_exact_differences(x):
    assume(math.isfinite(float(x.max()) - float(x.min())))
    assume(spaces._unit_certificate(x))
    assert _exact_line(_eager(x), x)


@settings(max_examples=300, deadline=None)
@given(_unit_lines)
def test_unit_certified_lines_pass_the_full_check_unless_the_spread_squared_overflows(x):
    assume(len(x) > 1 and spaces._unit_certificate(x))
    spread = float(x[-1]) - float(x[0])
    overflows = math.isinf(spread * spread)
    if overflows:
        with pytest.raises(InputError, match=COORD_MESSAGE):
            spaces._check_line(x)
    else:
        assert spaces._check_line(x)
    try:
        with np.errstate(over="ignore"):
            _full_check(x, _eager(x))
        assert not overflows
    except InputError as exc:
        assert str(exc) == COORD_MESSAGE and overflows


@settings(max_examples=300, deadline=None)
@given(_small_lines)
def test_small_diameter_lines_pass_the_triangle_scan(x):
    assert x.max() - x.min() <= 2.0 ** 11 and spaces._check_line(x)
    d = _eager(x)
    spaces._check_triangles(d)
    _full_check(x, d)  # the coordinate check passes as well


def test_sqrt_of_a_rounded_square_gives_the_float_back():
    # the fact behind certificate (a)'s coordinate check, on every binade
    rng = np.random.default_rng(0)
    d = np.ldexp(rng.uniform(1.0, 2.0, (2 ** 12, 1)), np.arange(-511, 511)).ravel()
    assert np.array_equal(np.sqrt(d * d), d)


def test_an_exact_line_without_the_unit_certificate_loads_through_the_full_check(monkeypatch):
    # +-(2^53 - 1): the difference 2^54 - 2 is exact, but K = 2^54 - 2 >= 2^53
    x = np.array([1.0 - 2.0 ** 53, 2.0 ** 53 - 1.0])
    assert not spaces._unit_certificate(x) and _exact_line(_eager(x), x)
    calls = _scan_calls(monkeypatch)
    s = FiniteMetricSpace(("a", "b"), None, coords=x)
    assert s._dist is not None and calls == [2]  # built to be checked, scan included
    assert s._line


def test_zero_and_two_to_the_hundred_hold_the_unit_certificate():
    # 0 is a multiple of every power of two, so 2^e = 2^100 and K = 1
    x = np.array([0.0, 2.0 ** 100])
    assert spaces._unit_certificate(x) and spaces._check_line(x)
    assert FiniteMetricSpace(("a", "b"), None, coords=x).dist[0, 1] == 2.0 ** 100
