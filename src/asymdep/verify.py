"""The paper-verification suite: every acceptance criterion as a programmatic check.

Each criterion returns a CriterionResult with the expected value, computed
value, tolerance, and status; run_all() executes the whole battery. Exact
criteria compare rationals for equality (tolerance 0); geometric criteria
carry their stated float tolerances. Oracles used here (brute-force LP for
flows and transshipments, full sign enumeration for the bilinear
engine, row-subset enumeration and a closed form for alpha and cov_sup,
partition enumeration for beta) are independent of the code paths they
check.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engines import (
    BilinearInstance,
    FlowNetwork,
    hub_transshipment,
    hypercube_bilinear_max,
    max_flow,
)
from .families import (
    _random_prob_vector,
    bernoulli_perturbation_family,
    binary_coding_family,
    binary_coding_h_matrix,
    binary_coding_sign_matrix,
    conditional_independence_bound_check,
    coupling_tv_bound_check,
    markov_shift_family,
    random_conditional_indep_instance,
    random_coupling_instance,
    random_joint,
    two_state_chain,
)
from .measures import (
    DiscreteMeasure,
    dependence_matrix,
    marginals,
    pushforward_joint,
)
from .metrics import (
    alpha_coefficient,
    beta_partition,
    bl_distance,
    bl_to_product,
    cov_sup_pm1,
    integral_gap,
    prokhorov_distance,
    prokhorov_to_product_upper,
    rectangle_gap,
    variation_norm,
)
from .spaces import ProductMetricKind, line_space

F = Fraction

# the 8x6 weight display for level n = 3: rows are j = 7 .. 0 (top to bottom),
# columns are i = 0 .. 5; q marks an atom of mass 1/24
_Q = F(1, 24)
_DISPLAY_N3 = [
    [_Q, _Q, _Q, 0, 0, 0],  # j = 7
    [0, _Q, _Q, _Q, 0, 0],  # j = 6
    [_Q, 0, _Q, 0, _Q, 0],  # j = 5
    [0, 0, _Q, _Q, _Q, 0],  # j = 4
    [_Q, _Q, 0, 0, 0, _Q],  # j = 3
    [0, _Q, 0, _Q, 0, _Q],  # j = 2
    [_Q, 0, 0, 0, _Q, _Q],  # j = 1
    [0, 0, 0, _Q, _Q, _Q],  # j = 0
]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool


def _result(name, expected, computed, tolerance, passed) -> CriterionResult:
    return CriterionResult(name, str(expected), str(computed), str(tolerance), bool(passed))


def criterion_01_matrix_reproduction() -> CriterionResult:
    inst = binary_coding_family(3)
    got = inst.joint.weights
    mismatches = sum(
        1
        for i in range(6)
        for j in range(8)
        if got[i][j] != _DISPLAY_N3[7 - j][i]
    )
    return _result(
        "1 matrix reproduction (binary coding n=3 vs printed display)",
        "0 mismatching entries",
        f"{mismatches} mismatching entries",
        "exact",
        mismatches == 0,
    )


def criterion_02_marginals() -> CriterionResult:
    bad = []
    for n in range(1, 11):
        m1, m2 = marginals(binary_coding_family(n).joint)
        if any(w != F(1, 2 * n) for w in m1.weights):
            bad.append((n, "first"))
        if any(w != F(1, 2 ** n) for w in m2.weights):
            bad.append((n, "second"))
    return _result(
        "2 marginals uniform 1/(2n) and 1/2^n (n=1..10)",
        "uniform for all n",
        "uniform for all n" if not bad else f"failures: {bad}",
        "exact",
        not bad,
    )


def criterion_03_integral_gap() -> CriterionResult:
    gaps = [integral_gap(binary_coding_family(n).joint, binary_coding_h_matrix(n)) for n in range(1, 11)]
    ok = all(g == F(1, 4) for g in gaps)
    return _result(
        "3 AI-1 witness: integral gap of the tent-sum test function (n=1..10)",
        "1/4 for all n",
        "1/4 for all n" if ok else f"gaps = {gaps}",
        "exact",
        ok,
    )


def criterion_04_variation() -> CriterionResult:
    vals = [
        variation_norm(dependence_matrix(binary_coding_family(n).joint)).value
        for n in range(1, 9)
    ]
    ok = all(v == 1 for v in vals)
    return _result(
        "4 AI-4 failure: variation norm pinned at 1 (n=1..8)",
        "1 for all n",
        "1 for all n" if ok else f"values = {vals}",
        "exact",
        ok,
    )


def _rectangle_oracle(d):
    """(alpha, cov_sup) of the dependence entries d by plain Fraction enumeration.

    Every row subset A is tried, with the best column set for it: the
    columns where the A-aggregated row is positive (or negative) for alpha,
    and the signs of the f-aggregated row, f = 2 1_A - 1, for cov_sup.
    """
    rows, ncols = range(len(d)), range(len(d[0]))
    alpha = cov = F(0)
    for r in range(len(d) + 1):
        for subset in itertools.combinations(rows, r):
            agg = [sum((d[i][k] for i in subset), F(0)) for k in ncols]
            alpha = max(alpha, sum(x for x in agg if x > 0), -sum(x for x in agg if x < 0))
            signed = [sum(d[i][k] if i in subset else -d[i][k] for i in rows) for k in ncols]
            cov = max(cov, sum(abs(x) for x in signed))
    return alpha, cov


def _partitions(n: int):
    """All set partitions of range(n)."""
    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()
    yield from rec(0, [])


def _beta_oracle(d):
    """beta of the dependence entries d by enumerating every partition pair."""
    best = F(0)
    for p1 in _partitions(len(d)):
        rows = [[sum(d[i][k] for i in block) for k in range(len(d[0]))] for block in p1]
        for p2 in _partitions(len(d[0])):
            total = sum(abs(sum(r[k] for k in block)) for r in rows for block in p2)
            best = max(best, total / 2)
    return best


def _rectangle_failures(j, tag) -> list:
    alpha_oracle, cov_oracle = _rectangle_oracle(dependence_matrix(j).entries)
    bad = []
    if alpha_coefficient(j).value != alpha_oracle:
        bad.append((tag, "alpha = enumeration"))
    if cov_sup_pm1(j).value != cov_oracle:
        bad.append((tag, "cov_sup = enumeration"))
    if cov_oracle != 4 * alpha_oracle:
        bad.append((tag, "cov_sup = 4 alpha"))
    return bad


def criterion_05_alpha_bound() -> CriterionResult:
    bad = []
    for n in range(1, 5):
        j = binary_coding_family(n).joint
        alpha = alpha_coefficient(j).value
        if alpha * alpha > F(1, n):  # alpha <= 1/sqrt(n), compared exactly
            bad.append((n, "alpha bound"))
        bad.extend(_rectangle_failures(j, n))
    return _result(
        "5 AI-3 success: alpha <= 1/sqrt(n), and alpha, cov_sup = 4 alpha match "
        "enumeration (n=1..4)",
        "all hold for all n",
        "all hold for all n" if not bad else f"failures: {bad}",
        "exact",
        not bad,
    )


def criterion_06_psi_lemma() -> CriterionResult:
    bad = []
    val3 = None
    for n in range(1, 5):
        v, _, _ = hypercube_bilinear_max(BilinearInstance(binary_coding_sign_matrix(n)))
        if v * v > (4 ** n) * n:  # v <= 2^n sqrt(n), compared in integers
            bad.append(n)
        if n == 3:
            val3 = v
    ok = not bad and val3 == 12
    return _result(
        "6 psi lemma: bilinear max <= 2^n sqrt(n) (n=1..4), value 12 at n=3",
        "bound holds; value 12 at n=3",
        f"bound failures: {bad}; value at n=3: {val3}",
        "exact",
        ok,
    )


def criterion_07_bernoulli_separation() -> CriterionResult:
    bad = []
    for n in range(2, 51):
        inst = bernoulli_perturbation_family(n)
        gap = rectangle_gap(inst.joint, *inst.params["rectangle"])
        if gap != F(1, 8):
            bad.append((n, "rectangle"))
        pk = prokhorov_to_product_upper(inst.joint, ProductMetricKind.SUM).as_float()
        if pk > 1 / n + 1e-9:
            bad.append((n, "prokhorov"))
    for n in range(2, 21):
        inst = bernoulli_perturbation_family(n)
        bl = bl_to_product(inst.joint, ProductMetricKind.SUM).as_float()
        if bl > 3 / n + 1e-9:
            bad.append((n, "bl"))
    return _result(
        "7 Bernoulli family: rectangle gap 1/8 (n=2..50), pi <= 1/n, bl <= 3/n",
        "all bounds hold",
        "all bounds hold" if not bad else f"failures: {bad}",
        "exact / 1e-9",
        not bad,
    )


def criterion_08_bl_witness() -> CriterionResult:
    bad = []
    for n in range(1, 5):
        val = bl_to_product(binary_coding_family(n).joint, ProductMetricKind.SUM).as_float()
        if val < 1 / 16 - 1e-9:
            bad.append((n, "lp", val))
    for n in range(1, 11):
        gap = integral_gap(binary_coding_family(n).joint, binary_coding_h_matrix(n))
        if gap / 4 != F(1, 16):  # h/4 lies in BL_1 under the SUM metric
            bad.append((n, "witness"))
    return _result(
        "8 AI-1 failure: bl >= 1/16 via LP (n=1..4) and via exact witness (n=1..10)",
        "bl >= 1/16 everywhere",
        "holds" if not bad else f"failures: {bad}",
        "1e-9 / exact",
        not bad,
    )


def _random_measure_pair(rng: random.Random, space):
    n = len(space)
    return (
        DiscreteMeasure(space, _random_prob_vector(rng, n, 60)),
        DiscreteMeasure(space, _random_prob_vector(rng, n, 60)),
    )


def criterion_09_identity_suite() -> CriterionResult:
    bad = []
    rng = random.Random(20260826)
    # exact identities on 200 random joints (supports <= 6x6)
    for t in range(200):
        n1, n2 = rng.randint(2, 6), rng.randint(2, 6)
        j = random_joint(1000 + t, n1, n2)
        dep = dependence_matrix(j)
        var = variation_norm(dep).value
        if alpha_coefficient(j).value > var / 2:
            bad.append((t, "alpha <= var/2"))
        bad.extend(_rectangle_failures(j, t))
    # beta = var/2 against partition enumeration on 200 random joints
    for t in range(200):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        j = random_joint(3000 + t, n1, n2)
        dep = dependence_matrix(j)
        oracle = _beta_oracle(dep.entries)
        if beta_partition(j).value != oracle or oracle != variation_norm(dep).value / 2:
            bad.append((t, "beta = var/2"))
    # metric-space axioms and cross-metric inequalities for prokhorov / bl
    for t in range(60):
        space = line_space(sorted(rng.sample(range(40), rng.randint(3, 7))))
        a, b = _random_measure_pair(rng, space)
        c, _ = _random_measure_pair(rng, space)
        pab = prokhorov_distance(a, b).as_float()
        pba = prokhorov_distance(b, a).as_float()
        if abs(pab - pba) > 1e-9:
            bad.append((t, "symmetry"))
        if prokhorov_distance(a, a).as_float() > 1e-9:
            bad.append((t, "identity"))
        pac = prokhorov_distance(a, c).as_float()
        pcb = prokhorov_distance(c, b).as_float()
        if pab > pac + pcb + 1e-9:
            bad.append((t, "triangle"))
        half_tv = float(sum(abs(x - y) for x, y in zip(a.weights, b.weights))) / 2
        if pab > half_tv + 1e-9:
            bad.append((t, "pi <= tv/2"))
        blv = bl_distance(a, b).as_float()
        if pab * pab > blv + 1e-9:
            bad.append((t, "pi^2 <= bl"))
        if blv > 3 * pab + 1e-9:
            bad.append((t, "bl <= 3 pi"))
    return _result(
        "9 identity suite on random joints and random measure pairs",
        "all identities and inequalities hold",
        "all hold" if not bad else f"failures: {bad[:5]} ({len(bad)} total)",
        "exact / 1e-9",
        not bad,
    )


def criterion_10_markov_decay() -> CriterionResult:
    bad = []
    for p in (F(1, 10), F(1, 4)):
        transition, stationary = two_state_chain(p)
        lam = 1 - 2 * p
        for n in range(1, 21):
            inst = markov_shift_family(transition, stationary, n)
            alpha = alpha_coefficient(inst.joint).value
            if alpha != lam ** n / 4:
                bad.append((float(p), n))
    return _result(
        "10 Markov decay: alpha = (1-2p)^n / 4 exactly (p in {0.1, 0.25}, n=1..20)",
        "closed form matches",
        "matches" if not bad else f"failures: {bad}",
        "exact",
        not bad,
    )


def criterion_11_conditional_independence_bound() -> CriterionResult:
    failures = 0
    for seed in range(500):
        _, _, holds = conditional_independence_bound_check(
            random_conditional_indep_instance(seed)
        )
        failures += not holds
    return _result(
        "11 conditional-independence bound alpha <= 2d(1 + 1/(1-d)) on 500 instances",
        "0 violations",
        f"{failures} violations",
        "exact",
        failures == 0,
    )


def criterion_12_coupling_bound() -> CriterionResult:
    failures = 0
    for seed in range(500):
        _, _, holds = coupling_tv_bound_check(random_coupling_instance(seed))
        failures += not holds
    return _result(
        "12 coupling bound tv <= 2P{pair differs} + 2P{X!=X'} + 2P{Y!=Y'} on 500 instances",
        "0 violations",
        f"{failures} violations",
        "exact",
        failures == 0,
    )


def criterion_13_pushforward_stability() -> CriterionResult:
    bad = []
    rng = random.Random(13)
    for t in range(200):
        n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
        j = random_joint(5000 + t, n1, n2)
        t1 = line_space(range(rng.randint(1, n1)))
        t2 = line_space(range(rng.randint(1, n2)))
        u = [rng.randrange(len(t1)) for _ in range(n1)]
        v = [rng.randrange(len(t2)) for _ in range(n2)]
        pj = pushforward_joint(j, u, v, t1, t2)
        if variation_norm(dependence_matrix(pj)).value > variation_norm(
            dependence_matrix(j)
        ).value:
            bad.append((t, "variation"))
        if alpha_coefficient(pj).value > alpha_coefficient(j).value:
            bad.append((t, "alpha"))
    return _result(
        "13 pushforward stability: alpha and variation never increase (200 instances)",
        "0 violations",
        "0 violations" if not bad else f"failures: {bad}",
        "exact",
        not bad,
    )


def _bipartite_flow_oracle(supplies, demands, edges, caps) -> float:
    """Brute-force LP value of the bipartite max-flow instance."""
    from scipy.optimize import linprog

    # one row per supply node and per demand node, over the edges at it
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    rows = [ends[:, 0] == i for i in range(len(supplies))]
    rows += [ends[:, 1] == k for k in range(len(demands))]
    res = linprog(
        -np.ones(len(edges)),
        A_ub=np.array(rows, dtype=float),
        b_ub=np.array([float(x) for x in (*supplies, *demands)]),
        bounds=[(0.0, float(cap)) for cap in caps],
        method="highs",
    )
    return float(-res.fun)


def _transshipment_oracle(supplies, edges, hub_cost) -> float:
    """Brute-force LP value of the hub transshipment: min cost . x over x >= 0
    with node-arc incidence x = supplies, every edge and hub edge written
    out both ways."""
    from scipy.optimize import linprog

    n = len(supplies)
    arcs = [*edges, *((i, n, hub_cost) for i in range(n))]
    arcs += [(h, t, c) for t, h, c in arcs]
    incidence = np.zeros((n + 1, len(arcs)))
    for e, (t, h, _) in enumerate(arcs):
        incidence[t, e] += 1.0
        incidence[h, e] -= 1.0
    res = linprog(
        [float(c) for _, _, c in arcs],
        A_eq=incidence,
        b_eq=[*map(float, supplies), -float(sum(supplies))],
        bounds=(0.0, None),
        method="highs",
    )
    return float(res.fun)


def _transshipment_is_optimal(supplies, edges, hub_cost, sol) -> bool:
    """In ints: |pi(a) - pi(b)| <= c on every edge, hub edges included; the
    tree's flows are nonnegative, run along edges and conserve the supplies;
    and their cost, each arc at its cheapest edge, equals the dual objective
    and the kernel's cost."""
    n = len(supplies)
    pi = (*sol.potentials, 0)
    cost = {}  # the cheapest edge joining each pair, both ways
    for a, b, c in [*edges, *((i, n, hub_cost) for i in range(n))]:
        cost[a, b] = cost[b, a] = min(c, cost.get((a, b), c))
    arcs = list(zip(*sol.tree))
    out = [0] * (n + 1)
    for t, h, f in arcs:
        out[t] += f
        out[h] -= f
    return (
        all(abs(pi[a] - pi[b]) <= c for (a, b), c in cost.items())
        and all(f >= 0 and (t, h) in cost for t, h, f in arcs)
        and out[:n] == list(supplies)
        and sol.cost == sum(cost[t, h] * f for t, h, f in arcs)
        == sum(b * p for b, p in zip(supplies, pi))
    )


def criterion_14_engine_oracles() -> CriterionResult:
    bad = []
    rng = random.Random(14)
    # max-flow vs LP on random bipartite instances
    for t in range(20):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        supplies = [F(rng.randint(1, 16), 16) for _ in range(n1)]
        demands = [F(rng.randint(1, 16), 16) for _ in range(n2)]
        edges, caps = [], []
        for i in range(n1):
            for k in range(n2):
                if rng.random() < 0.7:
                    edges.append((i, k))
                    caps.append(F(rng.randint(1, 16), 16))
        net_edges = [(0, 1 + i, s) for i, s in enumerate(supplies)]
        net_edges += [(1 + i, 1 + n1 + k, cap) for (i, k), cap in zip(edges, caps)]
        net_edges += [(1 + n1 + k, 1 + n1 + n2, d) for k, d in enumerate(demands)]
        net = FlowNetwork(2 + n1 + n2, tuple(net_edges), 0, 1 + n1 + n2)
        value, _ = max_flow(net)
        oracle = _bipartite_flow_oracle(supplies, demands, edges, caps)
        if abs(float(value) - oracle) > 1e-10:
            bad.append((t, "flow", float(value), oracle))
    # hub_transshipment vs LP on random transshipments, and exact primal = dual
    for t in range(50):
        n = rng.randint(1, 7)
        supplies = [rng.randint(-8, 8) for _ in range(n)]
        edges = [(rng.randrange(n), rng.randrange(n), rng.randint(0, 12))
                 for _ in range(rng.randint(0, 3 * n))]
        hub_cost = rng.randint(0, 12)
        ends_a, ends_b, costs = zip(*edges) if edges else ((), (), ())
        sol = hub_transshipment(supplies, ends_a, ends_b, costs, hub_cost)
        oracle = _transshipment_oracle(supplies, edges, hub_cost)
        if abs(sol.cost - oracle) > 1e-8 or not _transshipment_is_optimal(
            supplies, edges, hub_cost, sol
        ):
            bad.append((t, "transshipment", sol.cost, oracle))
    # exact bilinear max vs Python-int enumeration over both sign vectors; entries
    # up to 2^70 take the float screen that is not exact, and the int re-rank
    for t in range(10):
        m, k, bound = rng.randint(1, 8), rng.randint(1, 8), 2 ** 70 if t % 2 else 8
        mat = np.array([[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)], object)
        val, a, b = hypercube_bilinear_max(BilinearInstance(mat))
        signs_m = np.array(list(itertools.product((-1, 1), repeat=m)), dtype=object)
        signs_k = np.array(list(itertools.product((-1, 1), repeat=k)), dtype=object)
        oracle = max(map(abs, (signs_m @ mat @ signs_k.T).flat))
        attained = a.astype(int).astype(object) @ mat @ b.astype(int).astype(object)
        if not val == oracle == attained:
            bad.append((t, "bilinear", val, oracle))
    return _result(
        "14 engine oracles: max-flow vs LP, transshipment vs LP and primal = dual, "
        "bilinear vs enumeration",
        "all engines match their oracles",
        "all match" if not bad else f"failures: {bad}",
        "1e-10 / 1e-8 and exact / exact",
        not bad,
    )


def criterion_15_alpha_closed_form() -> CriterionResult:
    # alpha(n) = C(2h, h) / 2^(2h+2) with h = floor(n/2) is E|S_2h| / (8h) for a
    # sum S_2h of 2h Rademacher signs (1/4 at h = 0): a closed form, not the kernel
    bad = []
    for n in range(1, 13):
        h = n // 2
        want = F(math.comb(2 * h, h), 2 ** (2 * h + 2))
        j = binary_coding_family(n).joint
        alpha, cov = alpha_coefficient(j).value, cov_sup_pm1(j).value
        if alpha != want or cov != 4 * want:
            bad.append((n, str(alpha), str(cov)))
    return _result(
        "15 AI-3 closed form on binary_coding: alpha = C(2h, h)/2^(2h+2) with h = floor(n/2), "
        "and cov_sup = 4 alpha (n=1..12)",
        "all hold for all n",
        "all hold for all n" if not bad else f"failures: {bad}",
        "exact",
        not bad,
    )


ALL_CRITERIA = (
    criterion_01_matrix_reproduction,
    criterion_02_marginals,
    criterion_03_integral_gap,
    criterion_04_variation,
    criterion_05_alpha_bound,
    criterion_06_psi_lemma,
    criterion_07_bernoulli_separation,
    criterion_08_bl_witness,
    criterion_09_identity_suite,
    criterion_10_markov_decay,
    criterion_11_conditional_independence_bound,
    criterion_12_coupling_bound,
    criterion_13_pushforward_stability,
    criterion_14_engine_oracles,
    criterion_15_alpha_closed_form,
)


def run_all(name_filter: str | None = None) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        if name_filter is not None and name_filter not in fn.__name__:
            continue
        results.append(fn())
    return results


def format_result(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return (
        f"[{status}] {res.name}: expected {res.expected}; "
        f"computed {res.computed}; tolerance {res.tolerance}"
    )
