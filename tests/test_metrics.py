import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymdep import (
    CapabilityError,
    DiscreteMeasure,
    FiniteMetricSpace,
    InputError,
    JointMeasure,
    MetricValue,
    Numerators,
    ProductMetricKind,
    alpha_coefficient,
    bernoulli_perturbation_family,
    beta_partition,
    binary_coding_family,
    binary_coding_h_matrix,
    bl_distance,
    bl_to_product,
    cf_gap,
    cf_gap_lattice,
    cov_gap,
    cov_sup_pm1,
    delta,
    dependence_matrix,
    evaluate_certificate,
    gaussian_cf_gap,
    integral_gap,
    line_space,
    marginals,
    product_measure,
    product_space,
    prokhorov_distance,
    prokhorov_to_product_upper,
    uniform,
    variation_norm,
)
from asymdep import metrics, spaces
from asymdep.families import random_joint
from asymdep.measures import joint_and_product_on_product
from asymdep.verify import _beta_oracle, _random_measure_pair
from flow_oracle import max_flow as oracle_max_flow
from fraction_oracle import marginals as oracle_marginals

F = Fraction


def brute_force_alpha(j):
    d = dependence_matrix(j).entries
    n1, n2 = len(d), len(d[0])
    best = F(0)
    for a_mask in range(2 ** n1):
        for b_mask in range(2 ** n2):
            s = sum(
                d[i][k]
                for i in range(n1)
                for k in range(n2)
                if a_mask >> i & 1 and b_mask >> k & 1
            )
            best = max(best, abs(s))
    return best


def brute_force_cov_sup(j):
    d = dependence_matrix(j).entries
    n1, n2 = len(d), len(d[0])
    best = F(0)
    for f in itertools.product((-1, 1), repeat=n1):
        for g in itertools.product((-1, 1), repeat=n2):
            s = sum(f[i] * g[k] * d[i][k] for i in range(n1) for k in range(n2))
            best = max(best, abs(s))
    return best


def kernel_case_joint(case, seed_offset=0):
    """An integer case is the 4 x 3 random joint of that seed; named cases
    cover the other paths of the hypercube kernel."""
    if case == "wide":  # fewer rows than columns: no transpose
        return random_joint(7 + seed_offset, 2, 5)
    if case == "tall":  # more rows than columns: the kernel transposes
        return random_joint(8 + seed_offset, 6, 2)
    if case == "large-denominator":
        # raw weights up to 2^40 put the common denominator above 2^53, so the
        # scaled integer matrix takes the Python-int path
        rng = np.random.default_rng(40 + seed_offset)
        raw = [[int(x) for x in rng.integers(1, 2 ** 40, size=3)] for _ in range(4)]
        total = sum(map(sum, raw))
        weights = tuple(tuple(F(x, total) for x in row) for row in raw)
        return JointMeasure(line_space(range(4)), line_space(range(3)), weights)
    return random_joint(case + seed_offset, 4, 3)


KERNEL_CASES = ("wide", "tall", "large-denominator")


# ---------------------------------------------------------------------------
# Dependence functionals
# ---------------------------------------------------------------------------

def test_variation_norm_of_counterexample_families():
    for n in range(2, 6):
        j = bernoulli_perturbation_family(n).joint
        assert variation_norm(dependence_matrix(j)).value == 1
    for n in range(1, 6):
        j = binary_coding_family(n).joint
        assert variation_norm(dependence_matrix(j)).value == 1


def test_variation_norm_zero_for_product_measures():
    s1, s2 = line_space([0.0, 1.0]), line_space([0.0, 1.0, 2.0])
    p = product_measure(uniform(s1), uniform(s2))
    mv = variation_norm(dependence_matrix(p))
    assert mv.value == 0 and mv.exact


@pytest.mark.parametrize("seed", (*range(6), *KERNEL_CASES))
def test_alpha_matches_brute_force_on_random_joints(seed):
    j = kernel_case_joint(seed)
    mv = alpha_coefficient(j)
    assert mv.exact
    assert mv.value == brute_force_alpha(j)
    assert evaluate_certificate(mv, dep=dependence_matrix(j)) == mv.value


def test_alpha_of_bernoulli_perturbation():
    # the optimal rectangle pools both x-atoms with the same y-value: gap 1/4,
    # strictly larger than the 1/8 single-atom rectangle
    j = bernoulli_perturbation_family(4).joint
    mv = alpha_coefficient(j)
    assert mv.value == F(1, 4)
    assert mv.value == brute_force_alpha(j)
    assert evaluate_certificate(mv, dep=dependence_matrix(j)) == F(1, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_of_binary_coding_decays_like_inverse_sqrt(n):
    j = binary_coding_family(n).joint
    mv = alpha_coefficient(j)
    assert mv.value == brute_force_alpha(j)
    assert mv.value ** 2 <= F(1, n)  # alpha <= 1/sqrt(n), squared to stay rational


@pytest.mark.parametrize("seed", range(5))
def test_beta_is_half_variation(seed):
    j = random_joint(seed, 4, 3)
    dep = dependence_matrix(j)
    assert beta_partition(j).value == variation_norm(dep).value / 2
    assert beta_partition(j).value == _beta_oracle(dep.entries)


def test_beta_certificate_reevaluates():
    j = random_joint(3, 3, 4)
    mv = beta_partition(j)
    assert evaluate_certificate(mv, dep=dependence_matrix(j)) == mv.value


@pytest.mark.parametrize("seed", (*range(5), *KERNEL_CASES))
def test_cov_sup_is_four_alpha_and_matches_enumeration(seed):
    j = kernel_case_joint(seed, seed_offset=20)
    mv = cov_sup_pm1(j)
    assert mv.value == brute_force_cov_sup(j)
    assert mv.value == 4 * alpha_coefficient(j).value
    assert evaluate_certificate(mv, dep=dependence_matrix(j)) == mv.value


def test_cov_gap_and_integral_gap_examples():
    j = bernoulli_perturbation_family(3).joint
    # f = indicator-style +/-1 split on x, g on y
    gap = cov_gap(j, (F(-1), F(1), F(-1), F(1)), (F(-1), F(1)))
    assert gap == 1  # equals cov_sup for this family
    h = binary_coding_h_matrix(4)
    assert integral_gap(binary_coding_family(4).joint, h) == F(1, 4)


def test_integral_gap_rejects_misshaped_h():
    j = bernoulli_perturbation_family(2).joint
    with pytest.raises(InputError):
        integral_gap(j, ((F(1),),))


# ---------------------------------------------------------------------------
# Prokhorov and bounded-Lipschitz distances
# ---------------------------------------------------------------------------

def test_prokhorov_of_point_masses_is_their_distance():
    s = line_space([0.0, 0.3, 5.0])
    assert prokhorov_distance(delta(s, 0), delta(s, 1)).value == pytest.approx(0.3)
    assert prokhorov_distance(delta(s, 0), delta(s, 0)).value == pytest.approx(0.0)
    # far-apart point masses: distance capped by the outside-mass term at 1
    assert prokhorov_distance(delta(s, 0), delta(s, 2)).value == pytest.approx(1.0)


def test_prokhorov_identity_symmetry_triangle():
    s = line_space([0.0, 0.5, 1.0, 2.0])
    import random

    rng = random.Random(9)
    ms = [_random_measure_pair(rng, s)[0] for _ in range(6)]
    for m1, m2 in itertools.combinations(ms, 2):
        a = prokhorov_distance(m1, m2).value
        assert a == pytest.approx(prokhorov_distance(m2, m1).value, abs=1e-12)
    for m1, m2, m3 in itertools.combinations(ms, 3):
        d12 = prokhorov_distance(m1, m2).value
        d23 = prokhorov_distance(m2, m3).value
        d13 = prokhorov_distance(m1, m3).value
        assert d13 <= d12 + d23 + 1e-12


def test_prokhorov_bounded_by_half_total_variation():
    s = line_space([0.0, 1.0, 3.0])
    m1 = DiscreteMeasure(s, (F(1, 2), F(1, 4), F(1, 4)))
    m2 = DiscreteMeasure(s, (F(1, 8), F(3, 8), F(1, 2)))
    tv = sum(abs(a - b) for a, b in zip(m1.weights, m2.weights))
    assert prokhorov_distance(m1, m2).value <= float(tv) / 2 + 1e-12


def _half_shift():
    """pi = 1/2, with eps = 0 and the coupling (1, 1) of mass 1/2 over the scale 2."""
    s = line_space([0.0, 0.5, 1.0])
    m1 = DiscreteMeasure(s, (F(1, 2), F(1, 2), F(0)))
    m2 = DiscreteMeasure(s, (F(0), F(1, 2), F(1, 2)))
    return m1, m2, prokhorov_distance(m1, m2)


def test_prokhorov_certificate_reevaluates():
    m1, m2, mv = _half_shift()
    assert mv.value == 0.5 and mv.certificate["epsilon"] == 0.0
    assert mv.certificate["coupling"] == ((1,), (1,), Numerators((1,), 2))
    assert evaluate_certificate(mv, m1=m1, m2=m2) == mv.value


def dense_grid_joint():
    """A joint law with every weight positive on the 5 x 5 grid of [0, 1)^2."""
    g = 5
    s = line_space([F(i, g) for i in range(g)])
    raw = [[(7 * i + 3 * k) % 11 + 1 for k in range(g)] for i in range(g)]
    total = sum(map(sum, raw))
    return JointMeasure(s, s, tuple(tuple(F(x, total) for x in row) for row in raw))


def fraction_scan_prokhorov(m1, m2):
    """Reference Prokhorov scan: Python pair loops, Fraction capacities and
    the recursive Dinic oracle.

    Scans every breakpoint (0 and the distances between the supports) in
    ascending order until eps reaches the best max(eps, 1 - F(eps)), with
    F(eps) the max flow over the pairs at distance <= eps. Returns the value
    and the certificate prokhorov_distance should report, bit for bit.
    """
    s1, s2 = m1.support(), m2.support()
    dist = m1.space.dist
    n1, n2 = len(s1), len(s2)
    source, sink = 0, 1 + n1 + n2
    best = None
    for eps in sorted({0.0} | {float(dist[i, k]) for i in s1 for k in s2}):
        if best is not None and eps >= best[0]:
            break
        edges = [(source, 1 + a, m1.weights[i]) for a, i in enumerate(s1)]
        pairs = []
        for a, i in enumerate(s1):
            for b, k in enumerate(s2):
                if dist[i, k] <= eps:
                    pairs.append((i, k))
                    edges.append((1 + a, 1 + n1 + b, F(1)))
        edges += [(1 + n1 + b, sink, m2.weights[k]) for b, k in enumerate(s2)]
        overlap, flows = oracle_max_flow(2 + n1 + n2, edges, source, sink)
        coupling = {p: f for p, f in zip(pairs, flows[n1:]) if f > 0}
        candidate = max(eps, float(1 - overlap))
        if best is None or candidate < best[0]:
            best = (candidate, eps, overlap, coupling)
    value, eps, overlap, coupling = best
    return value, {
        "epsilon": eps,
        "outside_mass": 1 - overlap,
        "coupling": tuple(coupling.items()),
    }


def assert_same_as_fraction_scan(m1, m2):
    mv = prokhorov_distance(m1, m2)
    value, cert = fraction_scan_prokhorov(m1, m2)
    assert mv.value.hex() == value.hex()
    assert mv.certificate["epsilon"].hex() == cert["epsilon"].hex()
    assert mv.certificate["outside_mass"] == cert["outside_mass"]
    # the pairs as two flat tuples, the flows as ints over the flow scale
    tails, heads, (num, den) = mv.certificate["coupling"]
    assert den == math.lcm(m1.den, m2.den)
    assert tuple(zip(tails, heads)) == tuple(p for p, _ in cert["coupling"])  # same order
    assert tuple(F(w, den) for w in num) == tuple(f for _, f in cert["coupling"])
    assert all(w > 0 for w in num)  # zero flows are omitted
    assert all(type(x) is int for x in tails + heads + num + (den,))


def random_weights(rng, n, max_raw):
    raw = [rng.randint(0, max_raw) for _ in range(n)]
    raw[rng.randrange(n)] += 1
    total = sum(raw)
    return tuple(F(x, total) for x in raw)


def _random_line_pair(n, max_raw):
    import random

    rng = random.Random(n)
    s = line_space([x / 100 for x in rng.sample(range(300), n)])
    return tuple(DiscreteMeasure(s, random_weights(rng, n, max_raw)) for _ in range(2))


@pytest.mark.parametrize("max_raw", [1, 9, 2 ** 70])
@pytest.mark.parametrize("n", [2, 17, 66, 80])  # the pair scan takes 64 rows at a time
def test_prokhorov_equals_the_fraction_capacity_scan(n, max_raw):
    m1, m2 = _random_line_pair(n, max_raw)
    if max_raw > 2 ** 64:  # the lcm of the denominators takes the big-int path
        assert max(w.denominator for w in m1.weights + m2.weights) > 2 ** 64
    assert_same_as_fraction_scan(m1, m2)


@pytest.mark.parametrize("kind", list(ProductMetricKind))
def test_prokhorov_equals_the_fraction_capacity_scan_on_a_grid_joint(kind):
    j = dense_grid_joint()
    assert_same_as_fraction_scan(*joint_and_product_on_product(j, kind))


def _counted_max_flow(monkeypatch):
    calls = []
    solve = metrics.max_flow
    monkeypatch.setattr(metrics, "max_flow", lambda net: calls.append(net) or solve(net))
    return calls


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_coding_prokhorov_to_product_needs_no_flow_and_no_product_matrix(monkeypatch, n):
    def unbuilt(*factors):
        raise AssertionError("the product matrix was built")

    calls = _counted_max_flow(monkeypatch)
    monkeypatch.setattr(spaces, "_product_dist", unbuilt)
    j = binary_coding_family(n).joint
    for kind in ProductMetricKind:
        mv = prokhorov_to_product_upper(j, kind)
        assert mv.value == 0.5 and mv.certificate["epsilon"] == 0.0
    assert calls == []


@pytest.mark.parametrize("kind", list(ProductMetricKind))
@pytest.mark.parametrize("n", range(1, 6))
def test_binary_coding_prokhorov_to_product_equals_the_fraction_capacity_scan(n, kind):
    assert_same_as_fraction_scan(*joint_and_product_on_product(binary_coding_family(n).joint, kind))


@pytest.mark.parametrize("kind", list(ProductMetricKind))
def test_a_positive_separation_settles_eps_zero_without_a_pair_scan(monkeypatch, kind):
    g = 9
    line = line_space([F(i, g) for i in range(g)])
    raw = [[g if i == k else 1 for k in range(g)] for i in range(g)]
    total = sum(map(sum, raw))
    j = JointMeasure(line, line, tuple(tuple(F(x, total) for x in row) for row in raw))
    mu, nu = joint_and_product_on_product(j, kind)
    assert mu.space.separation == pytest.approx(1 / g)
    seen = []
    near = metrics._near_pairs
    monkeypatch.setattr(
        metrics, "_near_pairs", lambda dist, s1, s2, eps: seen.append(eps) or near(dist, s1, s2, eps)
    )
    mv = prokhorov_distance(mu, nu)
    # the scan goes past eps = 0, and reads distances only above it
    assert mv.certificate["epsilon"] > 0.0
    assert seen and min(seen) > 0.0
    assert_same_as_fraction_scan(mu, nu)


def test_a_zero_distance_between_distinct_points_takes_the_flow_at_eps_zero(monkeypatch):
    d = [[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.5], [2.0, 1.0, 0.5, 0.0]]
    s = FiniteMetricSpace("abcd", d, validate=False)
    assert s.separation == 0.0
    m1 = DiscreteMeasure(s, (F(1, 2), F(0), F(1, 4), F(1, 4)))
    m2 = DiscreteMeasure(s, (F(1, 4), F(1, 4), F(1, 2), F(0)))
    calls = _counted_max_flow(monkeypatch)
    assert_same_as_fraction_scan(m1, m2)
    # the first flow is eps = 0, whose 3 pairs (a, a), (a, b), (c, c) are no matching
    assert calls and len(calls[0].edges) == 3 + 3 + 3


def test_a_point_not_at_distance_zero_from_itself_takes_the_scan():
    s = FiniteMetricSpace("ab", [[0.5, 1.0], [1.0, 0.0]], validate=False)
    assert s.separation == 0.0
    m1, m2 = DiscreteMeasure(s, (F(1), F(0))), DiscreteMeasure(s, (F(1, 2), F(1, 2)))
    assert_same_as_fraction_scan(m1, m2)
    assert prokhorov_distance(m1, m2).certificate["epsilon"] == 0.5


def test_a_breakpoint_that_adds_no_pair_solves_no_flow(monkeypatch):
    # the separation 0.1 is no support pair's distance: its pairs are those of eps = 0
    s = line_space([0, 0.1, 1, 1.1])
    m1 = DiscreteMeasure(s, (F(1, 2), F(0), F(1, 2), F(0)))
    m2 = DiscreteMeasure(s, (F(0), F(0), F(1, 2), F(1, 2)))
    steps = []
    flow = metrics._overlap_flow
    monkeypatch.setattr(
        metrics, "_overlap_flow", lambda a, b, *rest: steps.append(len(a)) or flow(a, b, *rest)
    )
    assert_same_as_fraction_scan(m1, m2)
    assert steps == [1, 2]


def _with_coupling(mv, tails, heads, flows):
    cert = dict(mv.certificate, coupling=metrics.Coupling(tails, heads, flows))
    return MetricValue("prokhorov", mv.value, cert)


@pytest.mark.parametrize("tails, heads, flows, message", [
    ((1,), (1,), Numerators((0,), 2), "flows must be positive ints"),
    ((1,), (1,), Numerators((-1,), 2), "flows must be positive ints"),
    ((1,), (1,), Numerators((1.0,), 2), "flows must be positive ints"),
    ((1,), (1,), Numerators((True,), 2), "flows must be positive ints"),
    ((1,), (1,), Numerators((F(1),), 2), "flows must be positive ints"),
    ((1,), (1,), Numerators((1,), 0), "scale must be a positive int"),
    ((1,), (1,), Numerators((1,), 2.0), "scale must be a positive int"),
    ((1,), (1, 2), Numerators((1,), 2), "different lengths"),
    ((3,), (1,), Numerators((1,), 2), "point indices"),
    ((-1,), (1,), Numerators((1,), 2), "point indices"),
    ((1,), (1.0,), Numerators((1,), 2), "point indices"),
    # 3/4 out of a point of weight 1/2, over a scale other than the weights' 2
    ((1,), (1,), Numerators((3,), 4), "sends more than a point's weight"),
    # twice 1/2 out of the points 0 and 1 into the point 1, of weight 1/2
    ((0, 1), (1, 1), Numerators((1, 1), 2), "receives more than a point's weight"),
    # a coupling that is one, but leaves 3/4 outside, not the stated 1/2
    ((1,), (1,), Numerators((1,), 4), "leaves 3/4 outside epsilon"),
])
def test_a_tampered_prokhorov_coupling_is_an_input_error(tails, heads, flows, message):
    m1, m2, mv = _half_shift()
    with pytest.raises(InputError, match=message):
        evaluate_certificate(_with_coupling(mv, tails, heads, flows), m1=m1, m2=m2)


def _mutants(coupling):
    """Every coupling with one flow numerator one up or one down, or one pair dropped."""
    tails, heads, (num, den) = coupling
    for k in range(len(num)):
        for step in (-1, 1):
            yield tails, heads, Numerators(num[:k] + (num[k] + step,) + num[k + 1:], den)
        kept_tails, kept_heads, kept_num = (t[:k] + t[k + 1:] for t in (tails, heads, num))
        yield kept_tails, kept_heads, Numerators(kept_num, den)


@pytest.mark.parametrize("pair", [
    pytest.param(lambda: _half_shift()[:2], id="half_shift"),
    pytest.param(lambda: _random_line_pair(17, 9), id="random_line"),
    pytest.param(lambda: joint_and_product_on_product(dense_grid_joint(), ProductMetricKind.SUM),
                 id="grid_sum"),
    pytest.param(lambda: joint_and_product_on_product(dense_grid_joint(), ProductMetricKind.MAX),
                 id="grid_max"),
    pytest.param(lambda: joint_and_product_on_product(binary_coding_family(3).joint,
                                                      ProductMetricKind.SUM), id="binary_coding"),
])
def test_a_mutated_prokhorov_coupling_disagrees_or_raises(pair):
    m1, m2 = pair()
    mv = prokhorov_distance(m1, m2)
    assert evaluate_certificate(mv, m1=m1, m2=m2) == mv.value
    mutants = list(_mutants(mv.certificate["coupling"]))
    assert len(mutants) == 3 * len(mv.certificate["coupling"].tails) > 0
    for tails, heads, flows in mutants:
        try:
            again = evaluate_certificate(_with_coupling(mv, tails, heads, flows), m1=m1, m2=m2)
        except InputError:
            continue
        assert again != mv.value


@pytest.mark.parametrize("kind", list(ProductMetricKind))
def test_a_product_certificate_rechecks_without_the_product_matrix(monkeypatch, kind):
    def unbuilt(*factors):
        raise AssertionError("the product matrix was built")

    # the grid's scan reads the product matrix, so the re-check gets fresh measures
    mv = prokhorov_distance(*joint_and_product_on_product(dense_grid_joint(), kind))
    assert mv.certificate["epsilon"] > 0.0
    mu, nu = joint_and_product_on_product(dense_grid_joint(), kind)
    bc = prokhorov_to_product_upper(binary_coding_family(8).joint, kind)
    bc_mu, bc_nu = joint_and_product_on_product(binary_coding_family(8).joint, kind)
    monkeypatch.setattr(spaces, "_product_dist", unbuilt)
    assert evaluate_certificate(mv, m1=mu, m2=nu) == mv.value
    assert evaluate_certificate(bc, m1=bc_mu, m2=bc_nu) == bc.value == 0.5
    assert mu.space._dist is None and bc_mu.space._dist is None


def test_bl_of_point_masses():
    s = line_space([0.0, 0.3, 5.0])
    assert bl_distance(delta(s, 0), delta(s, 1)).value == pytest.approx(0.3, abs=1e-9)
    # at distance >= 2 the Lipschitz constraint is void: bl = 2
    assert bl_distance(delta(s, 0), delta(s, 2)).value == pytest.approx(2.0, abs=1e-9)


def test_bl_and_prokhorov_comparison_inequalities():
    import random

    s = line_space([0.0, 0.4, 1.1, 2.5])
    rng = random.Random(17)
    for _ in range(8):
        m1, m2 = _random_measure_pair(rng, s)
        pi = prokhorov_distance(m1, m2).value
        bl = bl_distance(m1, m2).value
        assert pi ** 2 <= bl + 1e-9
        assert bl <= 3 * pi + 1e-9


def test_bl_certificate_reevaluates():
    s = line_space([0.0, 0.7, 1.5])
    m1 = DiscreteMeasure(s, (F(1, 3), F(1, 3), F(1, 3)))
    m2 = DiscreteMeasure(s, (F(1, 2), F(0), F(1, 2)))
    mv = bl_distance(m1, m2)
    assert evaluate_certificate(mv, m1=m1, m2=m2) == pytest.approx(mv.value, abs=1e-9)


@pytest.mark.parametrize("h, message", [
    # h(1.5) leaves the box by 1e-6; every pair keeps its Lipschitz bound
    ((1.0, 0.5, 1.000001), "the bound"),
    # |h(0) - h(0.7)| = 0.8 > 0.7 inside the box
    ((1.0, 0.2, 1.0), "the Lipschitz constraint"),
    # a NaN is not within the box
    ((math.nan, 0.5, 1.0), "the bound"),
])
def test_a_tampered_bl_certificate_is_refused_with_its_own_message(h, message):
    s = line_space([0.0, 0.7, 1.5])
    m1 = DiscreteMeasure(s, (F(1, 3), F(1, 3), F(1, 3)))
    m2 = DiscreteMeasure(s, (F(1, 2), F(0), F(1, 2)))
    mv = MetricValue("bl", 0.0, {"support": (0, 1, 2), "h": h})
    with pytest.raises(InputError, match=f"BL certificate violates {message}"):
        evaluate_certificate(mv, m1=m1, m2=m2)
    # within LP_TOL of both bounds the certificate is accepted
    tol = metrics.LP_TOL / 4
    ok = MetricValue("bl", 0.0, {"support": (0, 1, 2), "h": (1 + tol, 0.3 - tol, 1.0)})
    want = -(1 + tol) / 6 + (0.3 - tol) / 3 - 1 / 6
    assert evaluate_certificate(ok, m1=m1, m2=m2) == pytest.approx(want)


def test_the_bl_certificate_check_reads_every_row_block(monkeypatch):
    monkeypatch.setattr(metrics, "ESSENTIAL_CHUNK", 1)  # one row of pairs per block
    s = line_space([0.0, 0.7, 1.5])
    m1 = DiscreteMeasure(s, (F(1, 3), F(1, 3), F(1, 3)))
    m2 = DiscreteMeasure(s, (F(1, 2), F(0), F(1, 2)))
    # only the pair (1, 2), in the second row, breaks its bound: 1 > 0.8
    mv = MetricValue("bl", 0.0, {"support": (0, 1, 2), "h": (1.0, 0.5, -0.5)})
    with pytest.raises(InputError, match="the Lipschitz constraint"):
        evaluate_certificate(mv, m1=m1, m2=m2)


def transport_bl(m1, m2):
    """BL as min-cost transport under the cost min(d, 2) (Kantorovich-Rubinstein).

    For probability measures, sup over |h| <= 1, Lip(h) <= 1 of the integral
    gap equals W1 for the truncated metric min(d, 2): the plan pi >= 0 has
    row sums m1 and column sums m2.
    """
    from scipy.optimize import linprog

    n = len(m1.space)
    cost = np.minimum(m1.space.dist, 2.0).ravel()
    rows = np.kron(np.eye(n), np.ones(n))  # sum over k of pi[i, k]
    cols = np.kron(np.ones(n), np.eye(n))  # sum over i of pi[i, k]
    res = linprog(
        cost,
        A_eq=np.vstack([rows, cols]),
        b_eq=np.array([float(w) for w in m1.weights + m2.weights]),
        bounds=(0.0, None),
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("seed", range(12))
def test_bl_matches_transport_oracle_on_random_pairs(seed):
    import random

    # distances up to 5: the pairs at distance >= 2 are pruned from the LP
    s = line_space([0.0, 0.4, 1.1, 2.5, 3.3, 5.0])
    m1, m2 = _random_measure_pair(random.Random(seed), s)
    assert bl_distance(m1, m2).value == pytest.approx(transport_bl(m1, m2), abs=1e-9)


@pytest.mark.parametrize("kind", list(ProductMetricKind))
def test_bl_matches_transport_oracle_on_dense_grid(kind):
    j = dense_grid_joint()
    mu, nu = joint_and_product_on_product(j, kind)
    assert np.all(mu.space.dist < 2.0)  # no pair reaches the d >= 2 box bound
    assert bl_to_product(j, kind).value == pytest.approx(transport_bl(mu, nu), abs=1e-9)


def positive_pair(seed, space):
    """Two measures on every point of the space, with random positive weights."""
    rng = np.random.default_rng(seed)
    n = len(space)
    pair = []
    for raw in rng.integers(1, 50, size=(2, n)).tolist():
        total = sum(raw)
        pair.append(DiscreteMeasure(space, tuple(F(x, total) for x in raw)))
    return pair


def bl_with_pairs(monkeypatch, m1, m2):
    """bl_distance and the essential pairs (a, b, cost) it handed to
    hub_transshipment, each pair once. The edges come as iterables that the
    kernel reads once, with one int object per node."""
    seen = []
    solve = metrics.hub_transshipment

    def spy(supplies, ends_a, ends_b, costs, hub_cost):
        ends_a, ends_b, costs = list(ends_a), list(ends_b), list(costs)
        assert len({id(x) for x in ends_a + ends_b}) == len(set(ends_a + ends_b))
        seen.append((ends_a, ends_b, costs, hub_cost))
        return solve(supplies, ends_a, ends_b, costs, hub_cost)

    monkeypatch.setattr(metrics, "hub_transshipment", spy)
    mv = bl_distance(m1, m2)
    ((ends_a, ends_b, costs, hub_cost),) = seen
    assert len({frozenset(pair) for pair in zip(ends_a, ends_b)}) == len(costs)
    pairs = [(a, b, Fraction(c, hub_cost)) for a, b, c in zip(ends_a, ends_b, costs)]
    return mv, pairs


def uniform_metric_space(n):
    """n points, every distance 1: no triangle is tight, so no row is pruned."""
    return FiniteMetricSpace(tuple(map(str, range(n))), np.ones((n, n)) - np.eye(n))


def shortest_path_space(seed, n):
    """Shortest-path closure of a random weighted complete graph.

    Every closed-up distance is a float sum of two others, so many triangles
    are tight and most pairs closer than 2 have a witness.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.5, (n, n))
    d = np.triu(w, 1) + np.triu(w, 1).T
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return FiniteMetricSpace(tuple(map(str, range(n))), d)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_bl_on_integer_grid_keeps_only_the_neighbour_rows(monkeypatch, g):
    line = line_space(range(g))
    grid = product_space(line, line, ProductMetricKind.SUM)
    m1, m2 = positive_pair(g, grid)
    mv, pairs = bl_with_pairs(monkeypatch, m1, m2)
    # one pair per 4-neighbour edge, at distance 1; the diagonal pairs sit at d = 2
    assert len(pairs) == 2 * g * (g - 1)
    assert {d for _, _, d in pairs} == {1}
    assert mv.value == pytest.approx(transport_bl(m1, m2), abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_bl_on_uniform_metric_keeps_every_row(monkeypatch, n):
    m1, m2 = positive_pair(n, uniform_metric_space(n))
    mv, pairs = bl_with_pairs(monkeypatch, m1, m2)
    # every pair a < b, at distance 1
    assert sorted(pairs) == [(a, b, 1) for a, b in itertools.combinations(range(n), 2)]
    assert mv.value == pytest.approx(transport_bl(m1, m2), abs=1e-9)
    assert evaluate_certificate(mv, m1=m1, m2=m2) == pytest.approx(mv.value, abs=1e-9)


def test_bl_hands_the_kernel_one_int_object_per_node(monkeypatch):
    # node ids above 256 are not cached by CPython, so a per-pair int would
    # show as a second object with the same value in the spy's check
    m1, m2 = positive_pair(0, line_space(range(300)))
    mv, pairs = bl_with_pairs(monkeypatch, m1, m2)
    assert pairs == [(a, a + 1, 1) for a in range(299)]
    assert evaluate_certificate(mv, m1=m1, m2=m2) == pytest.approx(mv.value, abs=1e-9)


@pytest.mark.parametrize("chunk", [1 << 20, metrics.ESSENTIAL_CHUNK, 1, 50])
@pytest.mark.parametrize("seed", range(8))
def test_bl_matches_transport_oracle_on_shortest_path_metrics(monkeypatch, seed, chunk):
    # chunk 2^20 takes all 9 rows in one block; 1 takes one row and one pair
    # at a time; 50 elements are one row and 5 pairs of 9 points
    monkeypatch.setattr(metrics, "ESSENTIAL_CHUNK", chunk)
    space = shortest_path_space(seed, 9)
    m1, m2 = positive_pair(seed, space)
    mv, pairs = bl_with_pairs(monkeypatch, m1, m2)
    near = int(np.count_nonzero(np.triu(space.dist < 2.0, 1)))
    assert len(pairs) < near  # tight triangles pruned some pairs
    # each cost is the pair's distance, read exactly
    assert all(d == Fraction(space.dist[a, b]) for a, b, d in pairs)
    assert mv.value == pytest.approx(transport_bl(m1, m2), abs=1e-9)
    # the certificate is checked against every pair, pruned or not
    assert evaluate_certificate(mv, m1=m1, m2=m2) == pytest.approx(mv.value, abs=1e-9)


def test_bl_keeps_rows_whose_float_witness_has_a_leg_as_long_as_the_pair():
    # d(0, 1) = d(0, 2) = 1 and d(1, 2) = 1e-17: fl(1 + 1e-17) = 1, so each
    # of the pairs (0, 1) and (0, 2) has the other's far end as a witness in
    # floating point; dropping both would leave h(0) free and report 2
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1e-17], [1.0, 1e-17, 0.0]])
    s = FiniteMetricSpace(("a", "b", "c"), d)
    far = DiscreteMeasure(s, (F(0), F(1, 2), F(1, 2)))
    assert bl_distance(delta(s, 0), far).value == pytest.approx(1.0, abs=1e-9)


def test_a_negative_distance_is_an_input_error_before_solving(monkeypatch):
    # validate=False keeps the negative entry; no transshipment is solved
    d = [[0.0, -0.5, 1.0], [-0.5, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = FiniteMetricSpace("abc", d, validate=False)
    monkeypatch.setattr(metrics, "hub_transshipment", lambda *args: pytest.fail("solved"))
    with pytest.raises(InputError, match="nonnegative distances"):
        bl_distance(delta(s, 0), delta(s, 1))


def test_a_nan_distance_is_an_input_error_before_solving(monkeypatch):
    # validate=False keeps the NaN; read as implied, the pair would give 2.0
    d = [[0.0, math.nan, 1.0], [math.nan, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = FiniteMetricSpace("abc", d, validate=False)
    # a NaN outside the union support is never read
    assert bl_distance(delta(s, 0), delta(s, 2)).value == 1.0
    monkeypatch.setattr(metrics, "hub_transshipment", lambda *args: pytest.fail("solved"))
    with pytest.raises(InputError, match="not NaN"):
        bl_distance(delta(s, 0), delta(s, 1))
    # nor does the certificate check accept a NaN distance between two support points
    forged = MetricValue("bl", 2.0, {"support": (0, 1), "h": (1.0, -1.0)})
    with pytest.raises(InputError, match="the Lipschitz constraint"):
        evaluate_certificate(forged, m1=delta(s, 0), m2=delta(s, 1))


def test_an_infinite_distance_bounds_nothing():
    d = [[0.0, math.inf, 1.0], [math.inf, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = FiniteMetricSpace("abc", d, validate=False)
    mv = bl_distance(delta(s, 0), delta(s, 1))
    assert mv.value == 2.0
    assert evaluate_certificate(mv, m1=delta(s, 0), m2=delta(s, 1)) == 2.0


def test_a_zero_distance_between_distinct_points_costs_nothing():
    d = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    s = FiniteMetricSpace("abc", d, validate=False)
    assert bl_distance(delta(s, 0), delta(s, 1)).value == 0.0
    assert bl_distance(delta(s, 0), delta(s, 2)).value == 1.0


def essential_pairs_oracle(d):
    """The essential pairs by a triple loop over Python floats: a < b with
    d(a, b) < 2 and no c with both legs shorter and d(a, c) + d(c, b) <= d(a, b).
    Returns (a, b, d(a, b)) lists in np.triu_indices order."""
    d = d.tolist()
    n = len(d)
    kept = []
    for a in range(n):
        for b in range(a + 1, n):
            dab = d[a][b]
            if dab < 2.0 and not any(
                d[a][c] < dab and d[b][c] < dab and d[a][c] + d[b][c] <= dab for c in range(n)
            ):
                kept.append((a, b, dab))
    return [list(col) for col in zip(*kept)] if kept else [[], [], []]


def screen_miss_space():
    """A metric whose only witness for the pair (0, 1) is not among the
    ESSENTIAL_NEAREST points nearest to 0.

    d(0, 1) = 1 and point 2 sits halfway: d(0, 2) = d(2, 1) = 0.5. The
    decoys, ESSENTIAL_NEAREST of them, sit at 0.1 from 0, 0.2 from each
    other, 0.5 from 2 and 1 from 1, so their leg to 1 is as long as the pair.
    """
    k = metrics.ESSENTIAL_NEAREST
    n = 3 + k
    d = np.full((n, n), 0.2)
    d[0, 1], d[0, 2], d[1, 2] = 1.0, 0.5, 0.5
    d[0, 3:], d[1, 3:], d[2, 3:] = 0.1, 1.0, 0.5
    d = np.triu(d, 1) + np.triu(d, 1).T
    return FiniteMetricSpace(tuple(map(str, range(n))), d)


def asymmetric_space():
    """validate=False keeps a matrix that is no metric: a shortest-path
    closure with its lower triangle scaled by up to 30% either way and a
    nonzero diagonal. d(a, c) is read from row a and d(c, b) from row b."""
    rng = np.random.default_rng(11)
    d = shortest_path_space(11, 9).dist.copy()
    lower = np.tril_indices(9, -1)
    d[lower] *= rng.uniform(0.7, 1.3, len(lower[0]))
    d[np.diag_indices(9)] = rng.uniform(0.05, 0.4, 9)
    return FiniteMetricSpace(tuple(map(str, range(9))), d, validate=False)


def grid_space(kind):
    line = line_space([F(i, 9) for i in range(9)])
    return product_space(line, line, kind)


ESSENTIAL_CASES = {
    **{f"shortest-path-{seed}": lambda seed=seed: shortest_path_space(seed, 9) for seed in range(8)},
    "grid-sum": lambda: grid_space(ProductMetricKind.SUM),
    "grid-max": lambda: grid_space(ProductMetricKind.MAX),
    "uniform": lambda: uniform_metric_space(7),
    "tiny-leg": lambda: FiniteMetricSpace(
        ("a", "b", "c"), np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1e-17], [1.0, 1e-17, 0.0]])
    ),
    "screen-miss": screen_miss_space,
    "asymmetric": asymmetric_space,
}


@pytest.mark.parametrize("chunk", [1 << 20, metrics.ESSENTIAL_CHUNK, 1, 50])
@pytest.mark.parametrize("case", ESSENTIAL_CASES)
def test_essential_pairs_match_the_triple_loop_oracle(monkeypatch, case, chunk):
    monkeypatch.setattr(metrics, "ESSENTIAL_CHUNK", chunk)
    d = ESSENTIAL_CASES[case]().dist
    a, b, dab = metrics._essential_pairs(d)
    want_a, want_b, want_d = essential_pairs_oracle(d)
    assert a.tolist() == want_a and b.tolist() == want_b
    assert [x.hex() for x in dab.tolist()] == [x.hex() for x in want_d]


def plane_space(n):
    """n random points of the Euclidean unit square: no triangle is tight."""
    p = np.random.default_rng(0).random((n, 2))
    d = np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=-1))
    return FiniteMetricSpace(tuple(map(str, range(n))), d, validate=False)


@pytest.mark.parametrize("space", [uniform_metric_space, plane_space])
def test_essential_pairs_work_in_bounded_memory(space):
    # all 179,700 pairs are kept: their a, b and d(a, b) take 4.3 MB, a, b
    # once more while their chunks are joined, and the scratch buffers a few
    # ESSENTIAL_CHUNK elements each (~8 MB in all; ~28 MB with one n x n
    # screen result and 2^20-element buffers)
    d = space(600).dist
    tracemalloc.start()
    try:
        a, _, _ = metrics._essential_pairs(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(a) == 600 * 599 // 2
    assert peak < 12 * 2 ** 20


def test_the_screen_misses_a_far_witness_and_the_full_scan_finds_it():
    d = screen_miss_space().dist
    assert 2 not in np.argsort(d[0])[: metrics.ESSENTIAL_NEAREST]
    assert not metrics._nearest_witness(d, 0, 1)[0, 1]
    a, b, _ = metrics._essential_pairs(d)
    assert (0, 1) not in set(zip(a.tolist(), b.tolist()))


def test_bl_to_product_cutoff_fires_before_the_product_space_is_built(monkeypatch):
    def unreachable(j, kind):
        raise AssertionError("product space built above the BL cutoff")

    monkeypatch.setattr(metrics, "joint_and_product_on_product", unreachable)
    # 12 x 64 = 768 points in the product of the marginal supports
    with pytest.raises(CapabilityError):
        bl_to_product(binary_coding_family(6).joint)


def test_prokhorov_to_product_cutoff_fires_before_the_product_space_is_built(monkeypatch):
    def unreachable(j, kind):
        raise AssertionError("product space built above the Prokhorov cutoff")

    monkeypatch.setattr(metrics, "joint_and_product_on_product", unreachable)
    # 18 x 512 = 9216 points in the product of the marginal supports
    with pytest.raises(CapabilityError):
        prokhorov_to_product_upper(binary_coding_family(9).joint)


def test_prokhorov_distance_checks_its_union_support(monkeypatch):
    monkeypatch.setattr(metrics, "PROKHOROV_SUPPORT_CUTOFF", 2)
    s = line_space([0.0, 1.0, 2.0])
    assert prokhorov_distance(delta(s, 0), delta(s, 2)).value == pytest.approx(1.0)
    mixed = DiscreteMeasure(s, (F(1, 2), F(1, 2), F(0)))
    with pytest.raises(CapabilityError):
        prokhorov_distance(mixed, delta(s, 2))


def test_two_copies_of_a_coordinate_line_are_one_space_without_their_matrices():
    s, t = line_space(range(50)), line_space(range(50))
    metrics._require_same_space(uniform(s), uniform(t))
    assert s._dist is None and t._dist is None


@pytest.mark.parametrize("points, same", [
    ([5.0, 6.0, 7.0], True),    # other coords, the same distances
    ([-0.0, 1.0, 2.0], True),   # coords equal but not bit for bit
    ([0.0, 1.0, 3.0], False),
])
def test_other_coordinate_lines_are_compared_by_their_matrices(points, same):
    s, t = line_space([0.0, 1.0, 2.0], labels="abc"), line_space(points, labels="abc")
    if same:
        metrics._require_same_space(uniform(s), uniform(t))
    else:
        with pytest.raises(InputError, match="same metric space"):
            metrics._require_same_space(uniform(s), uniform(t))
    assert s._dist is not None and t._dist is not None


def test_a_coordinate_line_and_its_matrix_are_one_space():
    s = line_space([0.0, 0.5, 2.0], labels="abc")
    held = FiniteMetricSpace(s.labels, s.dist.copy(), coords=s.coords)
    metrics._require_same_space(uniform(s), uniform(held))
    with pytest.raises(InputError, match="same metric space"):
        metrics._require_same_space(uniform(s), uniform(line_space([0.0, 0.5, 2.0], labels="abd")))


def test_product_form_distances_vanish_for_independent_joints():
    s1, s2 = line_space([0.0, 1.0]), line_space([0.0, 2.0])
    p = product_measure(uniform(s1), uniform(s2))
    assert prokhorov_to_product_upper(p).value == pytest.approx(0.0, abs=1e-12)
    assert bl_to_product(p).value == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_bernoulli_perturbation_prokhorov_upper_bound(n):
    j = bernoulli_perturbation_family(n).joint
    for kind in ProductMetricKind:
        assert prokhorov_to_product_upper(j, kind).value <= 1 / n + 1e-12


# ---------------------------------------------------------------------------
# Characteristic-function gaps
# ---------------------------------------------------------------------------

def test_cf_gap_vanishes_for_product_measures():
    s1, s2 = line_space([0.0, 1.0]), line_space([0.0, 1.0, 2.0])
    p = product_measure(uniform(s1), uniform(s2))
    assert cf_gap(p, 1.3, -0.7) == pytest.approx(0.0, abs=1e-12)
    assert cf_gap_lattice(p).value == pytest.approx(0.0, abs=1e-12)


def test_cf_gap_against_direct_numpy_evaluation():
    j = bernoulli_perturbation_family(3).joint
    t, s = 2.0, -1.0
    x = j.space1.coords[:, 0]
    y = j.space2.coords[:, 0]
    w = np.array([[float(v) for v in row] for row in j.weights])
    phi_joint = np.sum(w * np.exp(1j * (t * x[:, None] + s * y[None, :])))
    phi_x = np.sum(w.sum(axis=1) * np.exp(1j * t * x))
    phi_y = np.sum(w.sum(axis=0) * np.exp(1j * s * y))
    assert cf_gap(j, t, s) == pytest.approx(abs(phi_joint - phi_x * phi_y), abs=1e-12)


def test_cf_gap_of_bernoulli_family_shrinks_with_n():
    gaps = [cf_gap_lattice(bernoulli_perturbation_family(n).joint).value for n in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 4


def oracle_cf_gap(j, t, s):
    """cf gap by direct summation: one cmath.exp per atom of positive weight,
    Fraction weights and Fraction marginals converted to float one by one."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    x, y = j.space1.coords, j.space2.coords
    rows, cols = oracle_marginals(j.weights)
    phi_x = sum(float(w) * cmath.exp(1j * float(np.dot(t, x[i]))) for i, w in enumerate(rows) if w)
    phi_y = sum(float(w) * cmath.exp(1j * float(np.dot(s, y[k]))) for k, w in enumerate(cols) if w)
    phi_joint = sum(
        float(w) * cmath.exp(1j * (float(np.dot(t, x[i])) + float(np.dot(s, y[k]))))
        for i, row in enumerate(j.weights)
        for k, w in enumerate(row)
        if w
    )
    return abs(phi_joint - phi_x * phi_y)


def oracle_cf_lattice(j):
    """The largest oracle gap over the test lattice."""
    lattice = metrics.DEFAULT_CF_LATTICE
    return max(
        oracle_cf_gap(j, t, s)
        for t in itertools.product(lattice, repeat=j.space1.dim)
        for s in itertools.product(lattice, repeat=j.space2.dim)
    )


@st.composite
def coordinate_spaces(draw):
    """1 to 4 distinct points with 1-D or 2-D coordinates, Euclidean distances."""
    dim = draw(st.integers(1, 2))
    point = st.tuples(*[st.integers(-6, 6).map(lambda v: v / 4)] * dim)
    coords = np.array(draw(st.lists(point, min_size=1, max_size=4, unique=True)))
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    return FiniteMetricSpace(tuple(map(str, range(len(coords)))), dist, coords)


@st.composite
def coordinate_joints(draw):
    """A joint law on two coordinate spaces: raw weights up to 2^70, some zero."""
    s1, s2 = draw(coordinate_spaces()), draw(coordinate_spaces())
    raw_weight = st.one_of(st.just(0), st.integers(1, 9), st.integers(1, 2 ** 70))
    raw = [[draw(raw_weight) for _ in range(len(s2))] for _ in range(len(s1))]
    raw[draw(st.integers(0, len(s1) - 1))][draw(st.integers(0, len(s2) - 1))] += 1
    total = sum(map(sum, raw))
    return JointMeasure(s1, s2, tuple(tuple(F(x, total) for x in row) for row in raw))


@settings(max_examples=150, deadline=None)
@given(coordinate_joints(), st.data())
def test_cf_gap_matches_the_per_atom_oracle(j, data):
    test_point = st.floats(-5, 5, allow_nan=False)
    t = [data.draw(test_point) for _ in range(j.space1.dim)]
    s = [data.draw(test_point) for _ in range(j.space2.dim)]
    assert abs(cf_gap(j, t, s) - oracle_cf_gap(j, t, s)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(coordinate_joints())
def test_cf_gap_lattice_matches_the_per_atom_oracle(j):
    mv = cf_gap_lattice(j)
    assert abs(mv.value - oracle_cf_lattice(j)) <= 1e-12
    # ties may put the argmax on another lattice point, but one as large
    assert abs(oracle_cf_gap(j, mv.certificate["t"], mv.certificate["s"]) - mv.value) <= 1e-12
    assert abs(evaluate_certificate(mv, dep=dependence_matrix(j)) - mv.value) <= 1e-9


def test_gaussian_cf_gap_closed_form_value():
    # scalar case: e^{-1} * |e^{-1/2} - 1| for unit variances, correlation 1/2
    expected = math.exp(-1.0) * abs(math.exp(-0.5) - 1.0)
    assert gaussian_cf_gap(0.0, 0.0, 1.0, 1.0, 0.5, 1.0, 1.0) == pytest.approx(expected)
    # zero cross-covariance: the gap vanishes identically
    assert gaussian_cf_gap(0.0, 0.0, 1.0, 1.0, 0.0, 1.7, -2.3) == 0.0


def test_gaussian_cf_gap_rejects_invalid_covariance():
    with pytest.raises(InputError):
        gaussian_cf_gap(0.0, 0.0, 1.0, 1.0, 2.0, 1.0, 1.0)  # |corr| > 1


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_variation_certificate_reevaluates_exactly():
    j = random_joint(1, 4, 4)
    d = dependence_matrix(j)
    mv = variation_norm(d)
    assert mv.name == "variation"
    assert evaluate_certificate(mv, dep=d) == mv.value


def test_certificate_required():
    mv = variation_norm(dependence_matrix(random_joint(2, 2, 2)))
    stripped = type(mv)(mv.name, mv.value, None)
    with pytest.raises(InputError):
        evaluate_certificate(stripped, dep=None)
