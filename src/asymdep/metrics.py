"""Dependence functionals, distribution distances, and the metric table.

The graded independence functionals live here:

* variation_norm        -- total variation of the dependence signed measure
* alpha_coefficient     -- sup over measurable rectangles of the signed mass
* beta_partition        -- sup over finite partition pairs (complete regularity)
* cov_sup_pm1 / cov_gap -- covariance gaps for +-1-valued and general functions
* rectangle_gap         -- the signed mass of one fixed rectangle
* prokhorov_distance / bl_distance / cf_gap -- weak-convergence distances

Rational-mode metrics (variation, alpha, beta, cov) are exact; the geometric
metrics (Prokhorov, bounded-Lipschitz) are float-valued with stated
tolerances. Each MetricValue carries a certificate that re-evaluates to the
reported value.

METRICS is the one table from a metric name to its AI condition, its mode,
the step that computes its MetricValue on a JointCase, and the evaluator
that evaluate_certificate dispatches to; a MetricValue is exact exactly when
its entry's mode is "exact". The metrics asked of one JointCase
share its dependence matrix, and alpha and cov_sup its sign enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .engines import (
    BilinearInstance,
    FlowNetwork,
    hub_transshipment,
    hypercube_bilinear_max,
    max_flow,
)
from .errors import CapabilityError, InputError
from .measures import (
    DependenceMatrix,
    DiscreteMeasure,
    JointMeasure,
    Numerators,
    dependence_matrix,
    joint_and_product_on_product,
    marginals,
)
from .spaces import ProductMetricKind

# one bl_distance at 600 support points in a fresh process, Python 3.11, 2
# vCPUs: the worst case is 600 random points of the Euclidean unit square (no
# triangle tight, all 179,700 pairs kept, distance numerators near 2^62):
# ~0.9-1.0 s and ~72 MB peak RSS; the uniform metric (every distance 1, all
# pairs kept) ~0.4 s and ~53 MB; a line keeps its 599 neighbour pairs:
# ~0.04-0.05 s, 42 MB. The process holds 36-45 MB before the call (imports,
# the space); the rest is mostly the kernel's edge lists, which grow with the
# pairs.
BL_SUPPORT_CUTOFF = 600
# one prokhorov_to_product_upper at 4096 product points, Python 3.11, 2 vCPUs:
# binary_coding n=8 stops at eps = 0 by the separation (~0.01 s, 32 MB peak
# RSS, no product matrix). A scan that must read distances binds: on a 64 x 64
# grid joint on [0, 1)^2 ~1.0 s and ~170 MB peak RSS, the product matrix
# 134 MB of it (~690 MB at 9216 points)
PROKHOROV_SUPPORT_CUTOFF = 4096
# rows of dist[np.ix_(s1, s2)] per block of Prokhorov's pair scan
SUPPORT_BLOCK_ROWS = 64
# elements per step of the BL essential-pair pruning (a block of rows times
# the screen's witnesses, or a chunk of pairs times every witness) and of the
# BL certificate check (a block of rows). 2^15 keeps each float buffer at
# 256 KB: the 12 x 12 grid joint's BL op peaks at ~1.2 MB (tracemalloc; 5.6 MB
# with 2^20), and at 600 points the pruning is at least as fast as with larger
# steps
ESSENTIAL_CHUNK = 1 << 15
# witnesses per pair (a, b) that the essential-pair screen tries: a's nearest points
ESSENTIAL_NEAREST = 8
LP_TOL = 1e-9

ZERO = Fraction(0)


@dataclass(frozen=True)
class MetricValue:
    name: str  # its key in METRICS
    value: Fraction | float
    certificate: dict | None = None

    def __post_init__(self) -> None:
        if self.name not in METRICS:
            raise InputError(f"unknown metric {self.name!r}")
        if self.value < 0:
            raise InputError("metric values are nonnegative")
        if self.exact and not isinstance(self.value, (Fraction, int)):
            raise InputError("exact metric values must be rational")

    @property
    def exact(self) -> bool:
        """Whether the metric's table entry computes it exactly (as a rational)."""
        return METRICS[self.name].mode == "exact"

    def as_float(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# Rational-mode functionals
# ---------------------------------------------------------------------------

def variation_norm(d: DependenceMatrix) -> MetricValue:
    """Total variation: sum of absolute entries (the AI-4 functional)."""
    total = Fraction(sum(map(abs, itertools.chain.from_iterable(d.num))), d.den)
    signs = tuple(tuple(1 if x >= 0 else -1 for x in row) for row in d.num)
    return MetricValue("variation", total, {"signs": signs})


def _best_signs(d: DependenceMatrix):
    """The hypercube kernel's best row signs f for the dependence matrix D.

    D is N / L for its integer numerators N over its least common
    denominator L (the lcm of the entries' reduced denominators), so the
    kernel runs exactly. Returns (f, f^T N, L).
    """
    n = np.array(d.num, dtype=object)
    _, a, _ = hypercube_bilinear_max(BilinearInstance(n))
    f = tuple(int(x) for x in a)
    return f, [sum(s * x for s, x in zip(f, col)) for col in zip(*n)], d.den


def alpha_coefficient(j: JointMeasure, mode: str = "exact") -> MetricValue:
    """sup over rectangles A x B of |mu(A x B)| for mu the dependence matrix D.

    With f = 2 1_A - 1, the zero column sums of D give f^T D = 2 1_A^T D, and
    the zero row sums make its entries sum to 0, so the best B (the positive
    columns) carries mass ||f^T D||_1 / 4: alpha = max_f ||f^T D||_1 / 4,
    solved by the hypercube kernel. The value is re-derived exactly from the
    certificate. mode accepts only "exact"; there is no other path.
    """
    _require_exact(mode)
    return _alpha(_best_signs(dependence_matrix(j)))


def _require_exact(mode: str) -> None:
    # the kernel has one path, exact on integer matrices, so `mode` selects
    # nothing; it stays only because the benchmark's trace hook binds it by name
    if mode != "exact":
        raise InputError(f"mode must be 'exact', got {mode!r}")


def _alpha(signs) -> MetricValue:
    f, agg, scale = signs
    a = tuple(i for i, s in enumerate(f) if s > 0)
    b = tuple(k for k, x in enumerate(agg) if x > 0)
    value = Fraction(sum(x for x in agg if x > 0), 2 * scale)
    return MetricValue("alpha", value, {"A": a, "B": b})


def beta_partition(j: JointMeasure) -> MetricValue:
    """sup over partition pairs of half the summed absolute rectangle masses.

    Refining a partition never lowers the sum (triangle inequality), so the
    singleton partitions attain the supremum: beta = variation / 2.
    """
    return _beta(dependence_matrix(j))


def _beta(d: DependenceMatrix) -> MetricValue:
    cert = {
        "partition1": tuple((i,) for i in range(len(d.space1))),
        "partition2": tuple((k,) for k in range(len(d.space2))),
    }
    return MetricValue("beta", variation_norm(d).value / 2, cert)


def cov_sup_pm1(j: JointMeasure, mode: str = "exact") -> MetricValue:
    """max over f,g with values in {-1,1} of |sum f(i) g(j) mu(i,j)|.

    |psi| is convex in each coordinate, so the maximum over [-1,1]-valued
    functions is attained at sign vectors; for a fixed f the optimal g is the
    sign of f^T D, so cov_sup = max_f ||f^T D||_1 = 4 alpha, with the same
    kernel and sign vector as alpha_coefficient. mode accepts only "exact".
    """
    _require_exact(mode)
    return _cov_sup(_best_signs(dependence_matrix(j)))


def _cov_sup(signs) -> MetricValue:
    f, agg, scale = signs
    g = tuple(1 if x >= 0 else -1 for x in agg)
    value = Fraction(sum(abs(x) for x in agg), scale)
    return MetricValue("cov_sup", value, {"f": f, "g": g})


def rectangle_gap(j: JointMeasure, a_indices, b_indices) -> Fraction:
    """|mu(A x B)| for the dependence matrix mu, exact."""
    return _rectangle_mass(dependence_matrix(j), a_indices, b_indices)


def _rectangle_mass(d: DependenceMatrix, a_indices, b_indices) -> Fraction:
    return Fraction(abs(sum(d.num[i][k] for i in a_indices for k in b_indices)), d.den)


def cov_gap(j: JointMeasure, f, g):
    """sum f(i) g(j) mu(i,j): the AI-0 gap for a fixed pair of test functions.

    Exact (Fraction) when f and g are rational, float otherwise.
    """
    if len(f) != len(j.space1) or len(g) != len(j.space2):
        raise InputError("test function length mismatch")
    return _integral(dependence_matrix(j), [[a * b for b in g] for a in f])


def integral_gap(j: JointMeasure, h):
    """sum h(i,j) mu(i,j): the AI-1 gap for a fixed bounded test function h.

    Dividing by max(sup|h|, Lip(h)) turns this into a bounded-Lipschitz
    lower bound.
    """
    n1, n2 = len(j.space1), len(j.space2)
    if len(h) != n1 or any(len(row) != n2 for row in h):
        raise InputError("h is not indexed consistently with the joint measure")
    return _integral(dependence_matrix(j), h)


def _integral(d: DependenceMatrix, h):
    """sum h(i,k) D_ik over the nonzero entries of D."""
    return sum(h[i][k] * x for i, row in enumerate(d.entries) for k, x in enumerate(row) if x)


# ---------------------------------------------------------------------------
# Geometric metrics
# ---------------------------------------------------------------------------

def _require_same_space(m1: DiscreteMeasure, m2: DiscreteMeasure) -> None:
    s1, s2 = m1.space, m2.space
    if s1 is s2:
        return
    if s1.labels == s2.labels:
        # bit-equal coords of two coordinate lines give bit-equal matrices
        if s1._line and s2._line and s1.coords.tobytes() == s2.coords.tobytes():
            return
        if np.array_equal(s1.dist, s2.dist):
            return
    raise InputError("both measures must live on the same metric space")


def _near_pairs(dist, s1, s2, eps: float):
    """The pairs of the supports at distance <= eps, and the next breakpoint.

    Returns positions a into s1 and b into s2 in row-major order, and the
    least distance above eps (inf if there is none). They come from blocks
    of SUPPORT_BLOCK_ROWS rows of dist[np.ix_(s1, s2)], never the whole
    matrix.
    """
    rows, cols, next_eps = [], [], math.inf
    for start in range(0, len(s1), SUPPORT_BLOCK_ROWS):
        block = dist[np.ix_(s1[start:start + SUPPORT_BLOCK_ROWS], s2)]
        near = block <= eps
        a, b = np.nonzero(near)
        rows.append(a + start)
        cols.append(b)
        next_eps = min(next_eps, float(np.min(block, where=~near, initial=math.inf)))
    return np.concatenate(rows), np.concatenate(cols), next_eps


def _overlap_flow(a, b, cap1, cap2, scale: int):
    """Max coupling mass on the pairs (a[k], b[k]), in row-major order, via
    exact max flow.

    Returns the mass and the pair flows, both scaled by `scale`: the pair k
    carries flows[k] / scale.

    The capacities are the weights scaled to ints by `scale` (cap1 on the
    positions of s1, cap2 on those of s2) and `scale` on every pair edge.
    Dinic's min, add, subtract and compare steps commute with that scaling
    (its unscaled start bound, total source capacity + 1, exceeds every
    source edge either way), so the flows divided by `scale` are the ones
    Fraction capacities give, bit for bit. Pairs that form a matching take
    the flows Dinic finds in closed form (see _matching_flow).
    """
    # a is nondecreasing (row-major pairs), so it repeats iff two neighbours do;
    # b goes through a set, as np.unique loads numpy.ma (~1 MB) on first use
    if np.all(a[1:] != a[:-1]) and len(set(b.tolist())) == len(b):
        return _matching_flow(a, b, cap1, cap2)
    n1, n2 = len(cap1), len(cap2)
    source, sink = 0, 1 + n1 + n2
    edges = [(source, 1 + x, c) for x, c in enumerate(cap1)]
    edges += zip((1 + a).tolist(), (1 + n1 + b).tolist(), itertools.repeat(scale))
    edges += [(1 + n1 + y, sink, c) for y, c in enumerate(cap2)]
    value, flows = max_flow(FlowNetwork(2 + n1 + n2, tuple(edges), source, sink))
    return value, flows[n1 : n1 + len(a)]


def _matching_flow(a, b, cap1, cap2):
    """The max flow and pair flows of _overlap_flow when no position repeats
    in a or in b, without a flow solve.

    The network is then disjoint paths source -> a[k] -> b[k] -> sink plus
    dead ends. Dinic's first blocking flow pushes the least capacity on
    each path, min(cap1[a[k]], cap2[b[k]]), as the pair capacity `scale`
    is at least every weight times `scale`; that saturates each path, no
    augmenting path is left, and its flows are these ints.
    """
    flows = [min(cap1[x], cap2[y]) for x, y in zip(a.tolist(), b.tolist())]
    return sum(flows), flows


class Coupling(NamedTuple):
    """The pairs (tails[k], heads[k]) of a Prokhorov certificate, indices
    into the space in the scan's row-major order, each carrying mass
    flows.num[k] / flows.den > 0."""

    tails: tuple[int, ...]
    heads: tuple[int, ...]
    flows: Numerators


def prokhorov_distance(m1: DiscreteMeasure, m2: DiscreteMeasure) -> MetricValue:
    """Levy-Prokhorov distance via Strassen's coupling characterization.

    pi <= eps iff some coupling puts mass <= eps on pairs farther than eps
    apart (closed condition dist <= eps). The overlap F(eps) is piecewise
    constant with breakpoints at 0 and the observed distances, so the
    distance is min over breakpoints of max(eps, 1 - F(eps)); the scan runs
    up the breakpoints and stops once eps reaches the best value. The flows
    run on integer capacities: the weights times the lcm of their
    denominators. A union support above PROKHOROV_SUPPORT_CUTOFF is refused
    before any flow is solved.

    When the space's separation is positive, the eps = 0 step reads no
    distance: its pairs are the points of both supports, a matching whose
    flows _overlap_flow writes in closed form, and its next breakpoint is
    the separation, a lower bound on every distance between distinct
    points (a step there that is no breakpoint has the eps = 0 pairs and
    cannot win). When the separation is at least the eps = 0 candidate, the
    loop's own stop ends the scan there: no distance is read and a product
    space builds no matrix. A breakpoint that adds no pair solves no flow.
    The value, epsilon, outside mass and coupling are those of the scan
    over every breakpoint, bit for bit.

    The certificate holds ``epsilon``, ``outside_mass`` (a Fraction) and a
    ``coupling``: the pairs within epsilon that carry positive flow, with
    their flows as ints over the flow scale (the lcm above), which are the
    recursive search's flows times that scale.
    """
    _require_same_space(m1, m2)
    s1, s2 = m1.support(), m2.support()
    union = len(set(s1) | set(s2))
    _require_support(union, PROKHOROV_SUPPORT_CUTOFF, "prokhorov_distance max-flow")
    # zero weights have denominator 1, so this is the lcm over the supports
    scale = math.lcm(m1.den, m2.den)
    cap1 = [m1.num[i] * (scale // m1.den) for i in s1]
    cap2 = [m2.num[k] * (scale // m2.den) for k in s2]
    s1, s2 = np.array(s1, dtype=np.intp), np.array(s2, dtype=np.intp)
    best, eps, n_pairs = None, 0.0, -1
    separation = m1.space.separation
    while best is None or eps < best[0]:
        if eps == 0.0 and separation > 0.0:
            # the supports are sorted, so a and b come in row-major order
            _, a, b = np.intersect1d(s1, s2, assume_unique=True, return_indices=True)
            next_eps = separation
        else:
            a, b, next_eps = _near_pairs(m1.space.dist, s1, s2, eps)
        # the pairs only grow with eps: as many as before are the same pairs,
        # whose overlap at a larger eps cannot beat the candidate kept
        if len(a) > n_pairs:
            n_pairs = len(a)
            overlap, flows = _overlap_flow(a, b, cap1, cap2, scale)
            # int true division rounds correctly, as float() of the Fraction does
            candidate = max(eps, (scale - overlap) / scale)
            if best is None or candidate < best[0]:
                best = (candidate, eps, overlap, (s1[a], s2[b], flows))
        eps = next_eps
    value, eps, overlap, (tails, heads, flows) = best
    keep = [k for k, w in enumerate(flows) if w > 0]
    coupling = Coupling(
        tuple(tails[keep].tolist()), tuple(heads[keep].tolist()),
        Numerators(tuple(flows[k] for k in keep), scale),
    )
    cert = {"epsilon": eps, "outside_mass": Fraction(scale - overlap, scale), "coupling": coupling}
    return MetricValue("prokhorov", value, cert)


def _require_support(n: int, cutoff: int, what: str) -> None:
    if n > cutoff:
        raise CapabilityError(f"{what} cutoff is {cutoff} support points")


def _product_support(j: JointMeasure) -> int:
    """|supp(row marginal)| x |supp(column marginal)|, the union support of
    the joint law and its product of marginals on the product space."""
    m1, m2 = marginals(j)
    return len(m1.support()) * len(m2.support())


def _mass_gaps(m1: DiscreteMeasure, m2: DiscreteMeasure, support):
    """The common scale lcm(den1, den2) and the ints scale (mu - nu)(i) for i
    in support."""
    scale = math.lcm(m1.den, m2.den)
    f1, f2 = scale // m1.den, scale // m2.den
    return scale, [m1.num[i] * f1 - m2.num[i] * f2 for i in support]


def _essential_pairs(d: np.ndarray):
    """The pairs a < b of the distance matrix d that keep a Lipschitz row.

    A pair is essential when d(a, b) < 2 and no witness c has
    fl(d(a, c) + d(c, b)) <= d(a, b) with both legs d(a, c) and d(c, b)
    strictly shorter than d(a, b); in a metric the legs condition rules out
    c = a and c = b, where one leg is d(a, b) itself. d(a, c) is read from
    row a of d and d(c, b) from row b, which matters only for a matrix that
    is not symmetric (a validate=False space). Returns the essential a, b
    and d(a, b) in np.triu_indices order.

    One pass over blocks of rows a. In each block a screen first tries as
    witnesses only the ESSENTIAL_NEAREST points nearest to a (see
    _nearest_witness), and only the pairs a < b it leaves open take the full
    test against every c, a chunk of pairs at a time. Each step works on
    about ESSENTIAL_CHUNK elements of d, so apart from the kept pairs the
    working memory does not grow with the number of pairs.
    """
    n = len(d)
    rows = max(1, ESSENTIAL_CHUNK // (ESSENTIAL_NEAREST * n))
    step = max(1, min(ESSENTIAL_CHUNK // n, n * (n - 1) // 2))  # pairs per chunk
    leg_ac, leg_cb = np.empty((step, n)), np.empty((step, n))
    witness, test = np.empty((step, n), dtype=bool), np.empty((step, n), dtype=bool)
    cols = np.arange(n)
    kept_a, kept_b = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for s in range(0, n, rows):
        e = min(s + rows, n)
        open_ = d[s:e] < 2.0
        open_ &= cols > np.arange(s, e)[:, None]
        open_ &= ~_nearest_witness(d, s, e)
        a_open, b_open = np.nonzero(open_)
        a_open += s
        for t in range(0, len(a_open), step):
            a, b = a_open[t:t + step], b_open[t:t + step]
            ac, cb, w, u = leg_ac[:len(a)], leg_cb[:len(a)], witness[:len(a)], test[:len(a)]
            dab = d[a, b][:, None]
            # the indices are in range; mode="clip" avoids the buffered out= path
            np.take(d, a, axis=0, out=ac, mode="clip")
            np.take(d, b, axis=0, out=cb, mode="clip")  # d(c, b), read from row b
            np.less(ac, dab, out=w)
            np.less(cb, dab, out=u)
            w &= u
            np.less_equal(np.add(ac, cb, out=ac), dab, out=u)
            w &= u
            keep = ~w.any(axis=1)
            kept_a.append(a[keep])
            kept_b.append(b[keep])
    a, b = np.concatenate(kept_a), np.concatenate(kept_b)
    return a, b, d[a, b]


def _nearest_witness(d: np.ndarray, s: int, e: int) -> np.ndarray:
    """found[a - s, b] for the rows s <= a < e of d: one of the
    ESSENTIAL_NEAREST points c nearest to a (by an argsort of row a, a itself
    among them) is a witness for the pair (a, b).

    The test is the full scan's, in the same float operations, with d(c, b)
    read from row b of d, so every witness found here is one the full scan
    finds.
    """
    nearest = np.argsort(d[s:e], axis=1)[:, :ESSENTIAL_NEAREST]
    ac = np.take_along_axis(d[s:e], nearest, axis=1)[:, :, None]
    cb = d.T[nearest]  # cb[a, j, b] = d(b, c_j), gathered from the columns c_j
    dab = d[s:e, None, :]
    w = np.less(ac, dab)
    w &= np.less(cb, dab)
    w &= np.less_equal(np.add(ac, cb, out=cb), dab)
    return w.any(axis=1)


def _essential_arcs(d: np.ndarray):
    """bl_distance's edges on the distance matrix d of the support: each
    essential pair (see _essential_pairs) once, at cost d(a, b) 2^K, with
    2^K the largest denominator of those distances (floats num / 2^k), so
    every cost is an int. Returns the ends a and b and the costs as object
    arrays, with one int object per node and one per distinct cost, and
    2^K. A NaN distance, or a negative essential one, is an InputError."""
    if math.isnan(d.min()):  # min propagates a NaN
        raise InputError("bl_distance needs distances that are not NaN")
    a_idx, b_idx, d_ab = _essential_pairs(d)
    if np.any(d_ab < 0):
        raise InputError("bl_distance needs nonnegative distances")
    dists, pair_dist = np.unique(d_ab, return_inverse=True)
    two_k = max((x.as_integer_ratio()[1] for x in dists.tolist()), default=1)
    ints = [num * (two_k // den) for num, den in map(float.as_integer_ratio, dists.tolist())]
    node = np.arange(len(d)).astype(object)
    return node[a_idx], node[b_idx], np.array(ints, dtype=object)[pair_dist], two_k


def bl_distance(m1: DiscreteMeasure, m2: DiscreteMeasure) -> MetricValue:
    """Bounded-Lipschitz distance: max of integral gaps over |h|<=1, Lip(h)<=1.

    The LP in the values h of the witness on the union support has the box
    |h| <= 1 and one two-sided row -d(a, b) <= h(a) - h(b) <= d(a, b) for
    each essential pair (see _essential_pairs). It is solved through its
    dual (Kantorovich-Rubinstein): a hub node with h(hub) = 0 turns the box
    into |h(a) - h(hub)| <= 1, so every row bounds a difference of two
    potentials, and the dual is the min-cost transshipment of mu - nu over
    the essential pairs, each one edge usable both ways at cost d(a, b),
    and to or from the hub at cost 1 (the route a -> hub -> b costs 2, the
    bound of the box). hub_transshipment solves it exactly in ints: the
    distances, floats num / 2^k, are scaled by 2^K, the largest of their
    denominators, and the masses by the lcm of the two denominators. Its
    final tree and potentials certify each other; the value is the LP's
    optimum correctly rounded, and h the optimal potentials over 2^K.

    The rows of the other pairs are implied, so the feasible set is the one
    with a row for every pair. At d(a, b) >= 2 the box gives
    |h(a) - h(b)| <= 2. Below 2, induct on d(a, b): a pair that is not
    essential has a witness c with both legs strictly shorter, so
    |h(a) - h(b)| <= |h(a) - h(c)| + |h(c) - h(b)| <= d(a, c) + d(c, b),
    and d(a, c) + d(c, b) <= d(a, b) up to the one rounding of the witness
    sum, a factor of at most 1 + u with u = 2^-53. Each level of the
    induction loosens an implied bound by that factor, and the depth is
    below the number of distinct distances under 2, at most n^2 / 2. So the
    implied bounds are within n^2 u of d(a, b) relative: 4e-11 at n = 600,
    and about 1e-13 on a line or grid, where the depth is below n. Bounds
    loosened by a factor 1 + delta raise the value, at most 2, by at most
    2 delta. evaluate_certificate still checks every pair. A NaN distance
    on the support would be read as implied, and a negative one breaks the
    induction, so each is an InputError (a NaN anywhere on the support, a
    negative one on an essential pair); an infinite distance is implied by
    the box, as any at least 2 is.

    Working memory grows with the kept pairs, not with all n^2 / 2: the
    support's distances are the space's own matrix when the support is the
    whole space, the pruning works in blocks (see _essential_pairs), and
    each pair reaches the kernel once, as arrays of shared ints (see
    _essential_arcs), so its own edge lists are the largest transient.
    """
    _require_same_space(m1, m2)
    support = sorted(set(m1.support()) | set(m2.support()))
    n = len(support)
    _require_support(n, BL_SUPPORT_CUTOFF, "bl_distance LP")
    scale, supply = _mass_gaps(m1, m2, support)
    dist = m1.space.dist
    ends_a, ends_b, costs, two_k = _essential_arcs(
        dist if n == len(dist) else dist[np.ix_(support, support)]
    )
    flow = hub_transshipment(supply, ends_a, ends_b, costs, two_k)
    # int true division rounds correctly, as float() of the Fraction does
    value = flow.cost / (scale * two_k)
    cert = {"support": tuple(support), "h": tuple(p / two_k for p in flow.potentials)}
    return MetricValue("bl", value, cert)


def prokhorov_to_product_upper(
    j: JointMeasure, kind: ProductMetricKind = ProductMetricKind.SUM
) -> MetricValue:
    """pi(joint, product of marginals) on the metric product space.

    Upper bound for the Prokhorov distance from the joint law to the whole
    set of product measures. The union support of the two is supp(row
    marginal) x supp(column marginal), so the max-flow cutoff is checked
    before the product space is built.
    """
    _require_support(_product_support(j), PROKHOROV_SUPPORT_CUTOFF, "prokhorov_distance max-flow")
    mu, nu = joint_and_product_on_product(j, kind)
    mv = prokhorov_distance(mu, nu)
    cert = dict(mv.certificate or {})
    cert["upper_bound_for"] = "distance to the set of product measures"
    return MetricValue("prokhorov", mv.value, cert)


def bl_to_product(
    j: JointMeasure, kind: ProductMetricKind = ProductMetricKind.SUM
) -> MetricValue:
    """Bounded-Lipschitz distance between the joint law and its product of marginals.

    The union support of the two is supp(row marginal) x supp(column
    marginal), so the LP cutoff is checked before the product space is built.
    """
    _require_support(_product_support(j), BL_SUPPORT_CUTOFF, "bl_distance LP")
    mu, nu = joint_and_product_on_product(j, kind)
    return bl_distance(mu, nu)


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------

def _cf_gaps(j: JointMeasure, ts: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """|phi_joint(t, s) - phi_X(t) phi_Y(s)| for every row t of ts and s of ss.

    With U[t, i] = e^{i t.x_i}, V[s, k] = e^{i s.y_k} and the joint weights
    W, phi_joint = U W V^T, phi_X = U w_X and phi_Y = V w_Y. The weights
    are the exact numerators over the denominator, each rounded once by
    Python's int / int division, as float() of its Fraction is; the
    marginals come from the exact row and column sums.
    """
    den = j.den
    w = np.array([[x / den for x in row] for row in j.num])
    w_x = np.array([sum(row) / den for row in j.num])
    w_y = np.array([sum(col) / den for col in zip(*j.num)])
    u = np.exp(1j * (ts @ j.space1.coords.T))
    v = np.exp(1j * (ss @ j.space2.coords.T))
    return np.abs(u @ w @ v.T - np.outer(u @ w_x, v @ w_y))


def _require_coords(j: JointMeasure) -> None:
    if j.space1.coords is None or j.space2.coords is None:
        raise CapabilityError("cf_gap needs coordinate-embedded spaces")


def cf_gap(j: JointMeasure, t, s) -> float:
    """|phi_joint(t,s) - phi_X(t) phi_Y(s)| at one point (t, s)."""
    _require_coords(j)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if t.shape != (j.space1.dim,) or s.shape != (j.space2.dim,):
        raise InputError("t and s must match the coordinate dimensions")
    return float(_cf_gaps(j, t[None, :], s[None, :])[0, 0])


DEFAULT_CF_LATTICE = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)


def cf_gap_lattice(j: JointMeasure) -> MetricValue:
    """Max cf_gap over the test points DEFAULT_CF_LATTICE, the argmax (t, s)
    as its certificate: the first largest in itertools.product order.

    gap(t, s) = gap(-t, -s) in exact arithmetic (the characteristic
    functions are conjugated) and the lattice is symmetric, so the maximum
    is attained at a mirror pair at least. Under rounding the argmax may
    land on either point of it, or on another point of an exact tie.
    """
    _require_coords(j)
    ts = list(itertools.product(DEFAULT_CF_LATTICE, repeat=j.space1.dim))
    ss = list(itertools.product(DEFAULT_CF_LATTICE, repeat=j.space2.dim))
    gaps = _cf_gaps(j, np.array(ts), np.array(ss))
    a, b = np.unravel_index(np.argmax(gaps), gaps.shape)
    return MetricValue("cf", float(gaps[a, b]), {"t": ts[a], "s": ss[b]})


def gaussian_cf_gap(mean1, mean2, cov11, cov22, cov12, t, s) -> float:
    """Closed-form cf gap for a jointly Gaussian pair:

    |phi_joint - phi_X phi_Y| = |phi_X(t)| |phi_Y(s)| |exp(-t' C12 s) - 1|.
    """
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mean2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    cov11 = np.atleast_2d(np.asarray(cov11, dtype=float))
    cov22 = np.atleast_2d(np.asarray(cov22, dtype=float))
    cov12 = np.asarray(cov12, dtype=float).reshape(cov11.shape[0], cov22.shape[0])
    block = np.block([[cov11, cov12], [cov12.T, cov22]])
    eig = np.linalg.eigvalsh((block + block.T) / 2)
    if eig.min() < -1e-9:
        raise InputError("joint covariance block matrix is not positive semidefinite")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    mod_x = math.exp(-0.5 * float(t @ cov11 @ t))
    mod_y = math.exp(-0.5 * float(s @ cov22 @ s))
    return mod_x * mod_y * abs(math.exp(-float(t @ cov12 @ s)) - 1.0)


# ---------------------------------------------------------------------------
# Certificate evaluators: (certificate, dep, m1, m2) -> value
# ---------------------------------------------------------------------------

def _variation_from(cert, dep, m1, m2):
    return _integral(dep, cert["signs"])


def _rectangle_from(cert, dep, m1, m2):
    return _rectangle_mass(dep, cert["A"], cert["B"])


def _beta_from(cert, dep, m1, m2):
    blocks = itertools.product(cert["partition1"], cert["partition2"])
    return sum((_rectangle_mass(dep, a, b) for a, b in blocks), ZERO) / 2


def _cov_sup_from(cert, dep, m1, m2):
    return abs(_integral(dep, [[a * b for b in cert["g"]] for a in cert["f"]]))


def _prokhorov_from(cert, dep, m1, m2):
    """max(eps, 1 - the coupling's mass within eps), after checking that the
    coupling is one (positive int flows over a positive int scale, no point
    sending more than its m1 weight or receiving more than its m2 weight)
    and that 1 minus that mass is the certificate's outside_mass. Only the
    coupling's own pair distances are read, so no matrix is built."""
    eps = cert["epsilon"]
    tails, heads, (flows, scale) = cert["coupling"]
    if not len(tails) == len(heads) == len(flows):
        raise InputError("Prokhorov coupling has pair and flow tuples of different lengths")
    if type(scale) is not int or scale <= 0:
        raise InputError("Prokhorov coupling scale must be a positive int")
    if any(type(w) is not int or w <= 0 for w in flows):
        raise InputError("Prokhorov coupling flows must be positive ints")
    for m, ends, role in ((m1, tails, "sends"), (m2, heads, "receives")):
        n = len(m.space)
        if any(type(x) is not int or not 0 <= x < n for x in ends):
            raise InputError("Prokhorov coupling pairs must be point indices of the space")
        total = [0] * n
        for x, w in zip(ends, flows):
            total[x] += w
        if any(t * m.den > p * scale for t, p in zip(total, m.num)):
            raise InputError(f"Prokhorov coupling {role} more than a point's weight")
    near = m1.space.pair_distances(np.array(tails, dtype=np.intp), np.array(heads, dtype=np.intp))
    outside = Fraction(scale - sum(w for w, d in zip(flows, near.tolist()) if d <= eps), scale)
    if outside != cert["outside_mass"]:
        raise InputError(f"Prokhorov coupling leaves {outside} outside epsilon, not the "
                         f"certificate's outside_mass {cert['outside_mass']}")
    return max(eps, float(outside))


def _bl_from(cert, dep, m1, m2):
    """The integral gap of h, after checking |h| <= 1 and |h(a) - h(b)| <=
    d(a, b) for every pair a < b of the support, both within LP_TOL. The
    pairs are read a block of rows at a time (about ESSENTIAL_CHUNK
    distances), and a NaN fails either check."""
    support, h = cert["support"], cert["h"]
    hv = np.asarray(h, dtype=float)
    if not np.all(np.abs(hv) <= 1 + LP_TOL):
        raise InputError("BL certificate violates the bound |h| <= 1")
    idx = np.asarray(support, dtype=np.intp)
    n = len(idx)
    rows = max(1, ESSENTIAL_CHUNK // max(n, 1))
    for s in range(0, n, rows):
        e = min(s + rows, n)
        d = m1.space.dist[np.ix_(idx[s:e], idx)]
        ok = np.abs(hv[s:e, None] - hv) <= d + LP_TOL
        ok |= np.arange(n) <= np.arange(s, e)[:, None]  # only the pairs a < b
        if not ok.all():
            raise InputError("BL certificate violates the Lipschitz constraint")
    scale, gaps = _mass_gaps(m1, m2, support)
    # int true division rounds correctly, as float() of the Fraction does
    return sum(h[a] * (gap / scale) for a, gap in enumerate(gaps))


def _cf_from(cert, dep, m1, m2):
    """phi_joint(t, s) - phi_X(t) phi_Y(s) = sum D_ik e^{i (t.x_i + s.y_k)}."""
    u = np.exp(1j * (dep.space1.coords @ np.asarray(cert["t"], dtype=float)))
    v = np.exp(1j * (dep.space2.coords @ np.asarray(cert["s"], dtype=float)))
    d = np.array([[float(x) for x in row] for row in dep.entries])
    return float(abs(u @ d @ v))


def evaluate_certificate(
    mv: MetricValue,
    *,
    dep: DependenceMatrix | None = None,
    m1: DiscreteMeasure | None = None,
    m2: DiscreteMeasure | None = None,
):
    """Recompute a metric value from its certificate alone.

    Exact metrics re-evaluate to the identical rational; LP/flow metrics and
    cf to within 1e-9. prokhorov and bl need m1 and m2, the others dep; a
    missing one is an InputError.
    """
    if mv.certificate is None:
        raise InputError("metric value carries no certificate")
    entry = METRICS[mv.name]
    # the numeric metrics compare two measures; the others read the dependence matrix
    given = {"m1": m1, "m2": m2} if entry.mode == "numeric" else {"dep": dep}
    missing = [name for name, arg in given.items() if arg is None]
    if missing:
        raise InputError(f"the {mv.name} certificate needs {' and '.join(missing)}")
    return entry.evaluate(mv.certificate, dep, m1, m2)


# ---------------------------------------------------------------------------
# The metric table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointCase:
    """A joint law, the product metric of its AI-1 distances and its declared
    AI-2 rectangle (A, B) or None. The metrics asked of one case share its
    dependence matrix and its sign enumeration, each built on first use."""

    joint: JointMeasure
    kind: ProductMetricKind
    rectangle: tuple | None

    @cached_property
    def dep(self) -> DependenceMatrix:
        return dependence_matrix(self.joint)

    @cached_property
    def signs(self):
        return _best_signs(self.dep)


def _declared_rectangle(c: JointCase) -> MetricValue:
    if c.rectangle is None:
        raise CapabilityError("the joint declares no AI-2 rectangle")
    a, b = c.rectangle
    return MetricValue("rectangle", _rectangle_mass(c.dep, a, b), {"A": a, "B": b})


class MetricEntry(NamedTuple):
    condition: str  # the AI condition the metric serves
    mode: str  # "exact" (rational), "numeric" (max-flow or LP), "lattice" (cf test points)
    compute: Callable[[JointCase], MetricValue]
    evaluate: Callable  # (certificate, dep, m1, m2) -> the value again


# Ordered by AI condition, strongest first; within a condition, the first
# metric with a full series gives a sweep its verdict. The compute steps look
# the metric functions up when called, so a rebound module-level name takes
# effect.
METRICS = {
    "variation": MetricEntry("AI-4", "exact", lambda c: variation_norm(c.dep), _variation_from),
    "beta": MetricEntry("AI-4", "exact", lambda c: _beta(c.dep), _beta_from),
    "alpha": MetricEntry("AI-3", "exact", lambda c: _alpha(c.signs), _rectangle_from),
    "cov_sup": MetricEntry("AI-3", "exact", lambda c: _cov_sup(c.signs), _cov_sup_from),
    "rectangle": MetricEntry("AI-2", "exact", _declared_rectangle, _rectangle_from),
    "prokhorov": MetricEntry(
        "AI-1", "numeric", lambda c: prokhorov_to_product_upper(c.joint, c.kind), _prokhorov_from
    ),
    "bl": MetricEntry("AI-1", "numeric", lambda c: bl_to_product(c.joint, c.kind), _bl_from),
    "cf": MetricEntry("AI-0", "lattice", lambda c: cf_gap_lattice(c.joint), _cf_from),
}
