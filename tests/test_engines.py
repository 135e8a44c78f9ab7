import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymdep
from asymdep import (
    BilinearInstance,
    CapabilityError,
    FlowNetwork,
    HubFlow,
    InputError,
    hub_transshipment,
    hypercube_bilinear_max,
    max_flow,
)
from asymdep.families import binary_coding_sign_matrix
from flow_oracle import max_flow as oracle_max_flow

F = Fraction


# ---------------------------------------------------------------------------
# Max flow
# ---------------------------------------------------------------------------

def test_max_flow_textbook_network():
    # s=0, t=5; classic network with max flow 23
    edges = [
        (0, 1, F(16)),
        (0, 2, F(13)),
        (1, 3, F(12)),
        (2, 1, F(4)),
        (2, 4, F(14)),
        (3, 2, F(9)),
        (3, 5, F(20)),
        (4, 3, F(7)),
        (4, 5, F(4)),
    ]
    value, flows = max_flow(FlowNetwork(6, tuple(edges), 0, 5))
    assert value == 23
    # flow conservation at interior nodes
    for node in (1, 2, 3, 4):
        inflow = sum(f for (u, v, _), f in zip(edges, flows) if v == node)
        outflow = sum(f for (u, v, _), f in zip(edges, flows) if u == node)
        assert inflow == outflow
    assert all(0 <= f <= c for (_, _, c), f in zip(edges, flows))


@pytest.mark.parametrize(
    "n, edges, source, sink, message",
    [
        (3, ((0, 1, 1),), 1, 1, "source and sink must differ"),
        (3, ((0, 1, 1), (1, 1, 1)), 0, 2, "self-loops are not allowed"),
        (3, ((0, 1, 1), (1, 3, 1)), 0, 2, "edge endpoint out of range"),
        (3, ((0, 1, 1), (-1, 2, 1)), 0, 2, "edge endpoint out of range"),
        (3, ((0, 1, 1), (1, 2, F(-1, 2))), 0, 2, "capacities must be nonnegative"),
    ],
    ids=["source-is-sink", "self-loop", "endpoint-past-the-end", "negative-endpoint",
         "negative-capacity"],
)
def test_invalid_flow_network_raises(n, edges, source, sink, message):
    with pytest.raises(InputError, match=message):
        FlowNetwork(n, edges, source, sink)


def test_numpy_int_endpoints_become_python_ints():
    edges = [(np.int64(0), np.intp(1), F(1, 2)), (1, np.int32(2), 3)]
    net = FlowNetwork(3, edges, 0, 2)
    assert net.edges == ((0, 1, F(1, 2)), (1, 2, 3))
    assert {type(x) for a, b, _ in net.edges for x in (a, b)} == {int}
    assert max_flow(net) == (F(1, 2), [F(1, 2), F(1, 2)])


def brute_force_min_cut(n, source, sink, edges):
    best = None
    interior = [v for v in range(n) if v not in (source, sink)]
    for mask in range(2 ** len(interior)):
        side = {source}
        for bit, v in enumerate(interior):
            if mask >> bit & 1:
                side.add(v)
        cut = sum(c for u, v, c in edges if u in side and v not in side)
        best = cut if best is None else min(best, cut)
    return best


@pytest.mark.parametrize("seed", range(8))
def test_max_flow_equals_min_cut_on_random_networks(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.5:
                edges.append((u, v, F(rng.randint(0, 10), rng.randint(1, 4))))
    value, _ = max_flow(FlowNetwork(n, tuple(edges), 0, n - 1))
    assert value == brute_force_min_cut(n, 0, n - 1, edges)


def test_max_flow_exact_fractions():
    edges = [(0, 1, F(1, 3)), (1, 2, F(1, 7)), (0, 2, F(2, 5))]
    value, _ = max_flow(FlowNetwork(3, tuple(edges), 0, 2))
    assert value == F(1, 7) + F(2, 5)


def test_max_flow_on_a_5000_node_path():
    # a level graph 5000 deep: a recursive DFS runs out of stack here
    n = 5000
    value, flows = max_flow(FlowNetwork(n, tuple((i, i + 1, 1) for i in range(n - 1)), 0, n - 1))
    assert value == 1 and flows == [1] * (n - 1)


def test_max_flow_on_a_5000_layer_chain_of_parallel_edges():
    # layer i -> i + 1 has two parallel edges of capacities 1 and 2
    n = 5001
    edges = tuple(e for i in range(n - 1) for e in ((i, i + 1, 1), (i, i + 1, 2)))
    value, flows = max_flow(FlowNetwork(n, edges, 0, n - 1))
    assert value == 3 and flows == [1, 2] * (n - 1)


def typed(values):
    """Values with their types, so that 2 and Fraction(2) differ."""
    return [(type(x), x) for x in values]


CAPACITIES = st.one_of(
    st.integers(0, 9),
    st.fractions(min_value=0, max_value=9, max_denominator=12),
    st.integers(2 ** 64, 2 ** 66),
)


@st.composite
def flow_networks(draw):
    """(n, edges, source, sink): coupling, layered or general, with parallel
    edges and edges into the source. A coupling network has the shape of
    Prokhorov's: source -> every row, some row -> column pairs, every
    column -> sink."""
    shape = draw(st.sampled_from(("coupling", "layered", "general")))
    if shape == "coupling":
        rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        n, source, sink = 2 + rows + cols, 0, 1 + rows + cols
        middle = [(1 + a, 1 + rows + b) for a in range(rows) for b in range(cols)]
        pairs = [(source, 1 + a) for a in range(rows)]
        pairs += draw(st.lists(st.sampled_from(middle), min_size=1, max_size=20))
        pairs += [(1 + rows + b, sink) for b in range(cols)]
    elif shape == "layered":  # source, layers of 1..4 nodes, sink
        widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        layers, n = [[0]], 1
        for w in widths:
            layers.append(list(range(n, n + w)))
            n += w
        layers.append([n])
        n += 1
        pairs = [(u, v) for here, there in zip(layers, layers[1:]) for u in here for v in there]
        pairs = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30))
        source, sink = 0, n - 1
    else:
        n = draw(st.integers(2, 7))
        node = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=30))
        source, sink = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    back = draw(st.lists(st.integers(1, n - 1), max_size=3))  # edges into the source
    pairs += [(u, source) for u in back if u != source]
    edges = [(u, v, draw(CAPACITIES)) for u, v in pairs]
    return n, edges, source, sink


@settings(max_examples=400, deadline=None)
@given(flow_networks())
def test_max_flow_matches_the_recursive_dinic_oracle(network):
    n, edges, source, sink = network
    value, flows = max_flow(FlowNetwork(n, tuple(edges), source, sink))
    want_value, want_flows = oracle_max_flow(n, edges, source, sink)
    assert typed([value]) == typed([want_value])
    assert typed(flows) == typed(want_flows)


# ---------------------------------------------------------------------------
# Hub transshipment (network simplex)
# ---------------------------------------------------------------------------

def optimality_failures(supplies, ends_a, ends_b, costs, hub_cost, sol):
    """The conditions of an exact check of sol's certificate that it breaks,
    in ints. The tree joins each node i to a parent by an arc tails[i] ->
    heads[i] along a given edge or the hub edge, and following parents from
    any node reaches the hub. Its flows are nonnegative and conserve the
    supplies, and every zero flow points away from the hub (the tree is
    strongly feasible). The potentials have |pi(a) - pi(b)| <= c on every
    edge and |pi(i)| <= hub_cost, and reduced cost 0 on every tree arc.
    The cost sum c * flow over the tree, each arc at its cheapest edge,
    equals sum supply * potential and sol.cost."""
    n = len(supplies)
    edges = [*zip(ends_a, ends_b, costs), *((i, n, hub_cost) for i in range(n))]
    cheapest = {}  # the cheapest edge joining each pair, both ways
    for a, b, c in edges:
        cheapest[a, b] = cheapest[b, a] = min(c, cheapest.get((a, b), c))
    pi = (*sol.potentials, 0)
    tails, heads, flows = sol.tree
    parent = [h if t == i else t for i, (t, h) in enumerate(zip(tails, heads))]
    arcs = list(zip(tails, heads, flows))

    def reaches_hub(i):
        for _ in range(n + 1):
            if i == n:
                return True
            i = parent[i]
        return False

    out = [0] * (n + 1)
    for t, h, f in arcs:
        out[t] += f
        out[h] -= f
    primal = sum(cheapest.get((t, h), 0) * f for t, h, f in arcs)
    dual = sum(b * p for b, p in zip(supplies, pi))
    checks = {
        "lengths": (len(tails), len(heads), len(flows), len(pi)) == (n, n, n, n + 1),
        "spanning tree": all(i in (t, h) and (t, h) in cheapest and reaches_hub(i)
                             for i, (t, h, _) in enumerate(arcs)),
        "nonnegative": min(flows, default=0) >= 0,
        "conservation": out[:n] == list(supplies),
        "strongly feasible": all(f or h == i for i, (t, h, f) in enumerate(arcs)),
        "dual feasible": all(abs(pi[a] - pi[b]) <= c for a, b, c in edges),
        "tree reduced costs": all(cheapest.get((t, h)) == pi[t] - pi[h] for t, h, _ in arcs),
        "primal = dual": primal == dual == sol.cost,
    }
    return [name for name, ok in checks.items() if not ok]


@st.composite
def transshipments(draw):
    """Supplies (zero ones included), edges (zero costs, parallel edges and
    loops included) and a hub cost."""
    n = draw(st.integers(1, 7))
    supply = st.one_of(st.just(0), st.integers(-20, 20))
    supplies = draw(st.lists(supply, min_size=n, max_size=n))
    if draw(st.booleans()):  # balanced: the hub carries no net flow
        supplies[-1] -= sum(supplies)
    node = st.integers(0, n - 1)
    cost = st.one_of(st.integers(0, 3), st.integers(0, 2 ** 70))
    edges = draw(st.lists(st.tuples(node, node, cost), max_size=25))
    ends_a, ends_b, costs = (list(x) for x in zip(*edges)) if edges else ([], [], [])
    return supplies, ends_a, ends_b, costs, draw(st.integers(0, 2 ** 70))


@settings(max_examples=400, deadline=None)
@given(transshipments())
def test_transshipment_passes_the_exact_optimality_check(instance):
    sol = hub_transshipment(*instance)
    assert optimality_failures(*instance, sol) == []


@pytest.mark.parametrize(
    "instance",
    [
        ([0, 0, 0], [0, 1], [1, 2], [5, 5], 3),  # zero supplies
        ([3, -1, -2, 0], [0, 0, 1, 2, 3], [1, 2, 3, 3, 0], [4, 4, 4, 4, 4], 4),  # equal costs
        ([2, -2, 1, -1], [0, 1, 2, 3], [1, 2, 3, 0], [0, 0, 0, 0], 5),  # zero-cost cycle
        ([7], [], [], [], 2),  # one node: its supply goes to the hub
        ([7], [0], [0], [0], 2),  # one node with a zero-cost loop
        ([], [], [], [], 1),  # no node
        # 0 - 1 enters with both star arcs blocking at flow 1: the first one
        # leaves; the last would leave 0 -> hub at zero flow, pointing up
        ([1, -1], [0], [1], [0], 1),
        # 29 zero-cost loops fill the first pricing block, so 0 - 1 enters
        # before 1 - 3; node 0 reaches potential 2 > hub_cost, and only its
        # hub edge, entering again, brings it back
        ([0, 0, -1, 1, 1], [0] * 29 + [0, 1, 1, 0], [0] * 29 + [4, 2, 3, 1], [0] * 32 + [1], 1),
    ],
    ids=["zero-supplies", "equal-costs", "zero-cost-cycle", "one-node", "one-node-loop",
         "empty", "tied-blocking-arcs", "hub-edge-enters-again"],
)
def test_transshipment_corner_cases(instance):
    sol = hub_transshipment(*instance)
    assert optimality_failures(*instance, sol) == []


def test_transshipment_one_node_sends_its_supply_to_the_hub():
    sol = hub_transshipment([7], [], [], [], 2)
    assert sol == HubFlow(14, (2,), ((0,), (1,), (7,)))


def test_transshipment_routes_through_the_hub_only_when_cheaper():
    # 0 - 1 costs 5, through the hub 2 + 2: the flow goes through the hub
    sol = hub_transshipment([1, -1], [0], [1], [5], 2)
    assert (sol.cost, sol.tree) == (4, ((0, 2), (2, 1), (1, 1)))
    # at cost 3 it goes 0 -> 1, and 1's zero-flow arc points away from the hub
    sol = hub_transshipment([1, -1], [0], [1], [3], 2)
    assert (sol.cost, sol.tree) == (3, ((0, 2), (1, 1), (1, 0)))


@pytest.mark.parametrize("seed", range(5))
def test_moving_one_potential_or_one_flow_fails_the_optimality_check(seed):
    rng = random.Random(seed)
    n = 6
    supplies = [rng.randint(-9, 9) for _ in range(n)]
    supplies[0] = 0  # a zero supply: its tree arc still pins its potential
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.5]
    costs = [rng.randint(0, 9) for _ in pairs]
    instance = (supplies, [a for a, _ in pairs], [b for _, b in pairs], costs, 5)
    sol = hub_transshipment(*instance)
    assert optimality_failures(*instance, sol) == []
    tails, heads, flows = sol.tree
    for i in range(n):
        for s in (1, -1):
            moved = tuple(p + s * (j == i) for j, p in enumerate(sol.potentials))
            assert optimality_failures(*instance, sol._replace(potentials=moved))
            moved = tuple(f + s * (j == i) for j, f in enumerate(flows))
            assert optimality_failures(*instance, sol._replace(tree=(tails, heads, moved)))


@pytest.mark.parametrize(
    "instance",
    [
        ([1, -1], [0], [1], [-1], 5),  # an edge of cost -1
        ([0], [0], [0], [-1], 5),  # a loop of cost -1
        ([1, -1], [], [], [], -1),  # the hub edges cost -1
    ],
    ids=["edge", "loop", "hub"],
)
def test_a_negative_cost_is_an_input_error(instance):
    with pytest.raises(InputError, match="nonnegative"):
        hub_transshipment(*instance)


@pytest.mark.parametrize("seed", range(25))
def test_two_sided_rows_match_vertex_enumeration(seed):
    # the dual of the transshipment is an LP in the potentials with one
    # two-sided row -d <= h(a) - h(b) <= d per edge and the box
    # |h| <= hub cost; the oracle enumerates that polytope's vertices
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.7]
    d = rng.integers(1, 9, len(pairs)).tolist()
    supplies = rng.integers(-9, 10, n).tolist()
    hub_cost = int(rng.integers(1, 9))
    sol = hub_transshipment(supplies, [a for a, _ in pairs], [b for _, b in pairs], d, hub_cost)
    rows, upper = [], []
    for (a, b), dab in zip(pairs, d):
        row = np.zeros(n)
        row[a], row[b] = 1.0, -1.0
        rows += [row, -row]
        upper += [dab, dab]
    eye = np.eye(n)
    a = np.vstack([*rows, eye, -eye]) if rows else np.vstack([eye, -eye])
    oracle = _vertex_enumeration_oracle(supplies, a, np.array(upper + [hub_cost] * 2 * n, float))
    assert sol.cost == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("col", [2, -1, 1.0])
def test_constraint_column_outside_range_raises(col):
    # an edge joins two of the nodes: an end outside them has no row in the
    # node-edge incidence matrix
    with pytest.raises(InputError, match="integers|range"):
        hub_transshipment([1, -1], [0], [col], [1], 1)


@pytest.mark.parametrize(
    "instance, message",
    [
        (([1, -1], [0, 1], [1], [1, 1], 1), "lengths differ"),
        (([1, -1], [0], [1], [1, 1], 1), "lengths differ"),
        (([1, -1], [0], [1], [1.5], 1), "costs must be integers"),
        (([0.5, -0.5], [0], [1], [1], 1), "supplies must be integers"),
        (([1, -1], [0], [1], [1], 1.0), "hub_cost must be integers"),
    ],
    ids=["heads-short", "costs-long", "float-cost", "float-supply", "float-hub-cost"],
)
def test_transshipment_arrays_that_do_not_fit_raise(instance, message):
    with pytest.raises(InputError, match=message):
        hub_transshipment(*instance)


def test_transshipment_takes_numpy_integers():
    sol = hub_transshipment(np.array([2, -2]), np.array([0]), np.array([1]), np.array([3]),
                            np.int64(2))
    assert sol.cost == 6 and type(sol.cost) is int and type(sol.potentials[0]) is int


def _vertex_enumeration_oracle(objective, a: np.ndarray, b: np.ndarray) -> float:
    """Max objective . x over the vertices of the bounded polytope a x <= b."""
    combos = np.array(list(itertools.combinations(range(len(a)), len(objective))))
    combos = combos[np.abs(np.linalg.det(a[combos])) >= 1e-10]
    xs = np.linalg.solve(a[combos], b[combos][..., None])[..., 0]
    feasible = np.all(xs @ a.T <= b + 1e-9, axis=1)
    return max((float(np.dot(objective, x)) for x in xs[feasible]), default=-math.inf)


def test_import_does_not_load_scipy_solvers():
    # no runtime path loads scipy.optimize or scipy.sparse; only the
    # verify oracles and the tests import them
    src = str(Path(asymdep.__file__).resolve().parents[1])
    code = (
        "import sys, asymdep; "
        "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


BL_ON_A_GRID_JOINT = """
from fractions import Fraction
from asymdep import JointMeasure, ProductMetricKind, bl_to_product, line_space
s = line_space([Fraction(i, 3) for i in range(3)])
raw = [[1, 5, 2], [4, 1, 3], [2, 2, 7]]
joint = JointMeasure(s, s, tuple(tuple(Fraction(x, 27) for x in row) for row in raw))
for kind in ProductMetricKind:
    assert 0 < bl_to_product(joint, kind).value < 2
"""

BL_THROUGH_THE_CLI = """
import os, tempfile
from asymdep.cli import main
path = os.path.join(tempfile.mkdtemp(), "joint.json")
assert main(["gen", "--family", "bernoulli_perturbation", "--n", "3", "--out", path]) == 0
assert main(["metrics", "--joint", path, "--select", "bl"]) == 0
"""


@pytest.mark.parametrize("code", [BL_ON_A_GRID_JOINT, BL_THROUGH_THE_CLI], ids=["api", "cli"])
def test_bl_leaves_scipy_unloaded(code):
    src = str(Path(asymdep.__file__).resolve().parents[1])
    check = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code + check],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# Hypercube bilinear maximization
# ---------------------------------------------------------------------------

def full_enumeration_max(mat):
    m, k = mat.shape
    best = 0
    for a in itertools.product((-1, 1), repeat=m):
        row = np.asarray(a) @ mat
        best = max(best, int(np.abs(row).sum()))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_exact_bilinear_matches_full_enumeration(seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(-1000, 1000, size=(rng.integers(2, 6), rng.integers(2, 6)))
    inst = BilinearInstance(mat)
    value, a, b = hypercube_bilinear_max(inst)
    assert type(value) is int and value == full_enumeration_max(mat)
    assert a @ mat @ b == value
    assert set(np.unique(a)) <= {-1.0, 1.0} and set(np.unique(b)) <= {-1.0, 1.0}


@pytest.mark.parametrize(
    "mat",
    [
        np.ones((2, 2)),
        np.ones((2, 2), dtype=bool),
        np.ones((2, 2), dtype=complex),
        np.array([[1, 2.0]], dtype=object),
        np.array([[True, False], [False, True]], dtype=object),
    ],
)
def test_bilinear_instance_refuses_non_integer_matrices(mat):
    with pytest.raises(InputError, match=f"got dtype {mat.dtype}"):
        BilinearInstance(mat)


def test_bilinear_instance_holds_python_ints():
    inst = BilinearInstance(np.array([[1, -2], [3, 4]], dtype=np.int8))
    assert inst.matrix.dtype == object and not inst.matrix.flags.writeable
    assert {type(x) for x in inst.matrix.flat} == {int}


def test_the_bilinear_kernel_has_one_exact_path():
    assert list(inspect.signature(hypercube_bilinear_max).parameters) == ["inst"]
    assert not hasattr(asymdep.engines, "HEURISTIC_RESTARTS")


def test_sign_matrix_bilinear_value_and_bound():
    # the 8x3 matrix of signed binary digits attains exactly 12 at level 3, and
    # the squared maximum never exceeds 4^n * n at any level
    mat = binary_coding_sign_matrix(3)
    assert mat.dtype.kind == "i"
    value, _, _ = hypercube_bilinear_max(BilinearInstance(mat))
    assert value == 12
    for n in range(1, 9):
        v, _, _ = hypercube_bilinear_max(BilinearInstance(binary_coding_sign_matrix(n)))
        assert v ** 2 <= 4 ** n * n


def lowest_mask_maximiser(rows):
    """Python-int oracle: (value, a, b) at the first largest ||a^T N||_1.

    Enumerates the smaller side like the kernel: last sign -1, a_i = +1
    where bit i of the mask is set, masks in increasing order.
    """
    mat = [list(r) for r in rows]
    transposed = len(mat[0]) < len(mat)
    if transposed:
        mat = [list(c) for c in zip(*mat)]
    best = None
    for tail in itertools.product((-1, 1), repeat=len(mat) - 1):
        a = tail[::-1] + (-1,)
        row = [sum(s * x for s, x in zip(a, col)) for col in zip(*mat)]
        value = sum(map(abs, row))
        if best is None or value > best[0]:
            best = (value, a, tuple(1 if x >= 0 else -1 for x in row))
    value, a, b = best
    return (value, b, a) if transposed else (value, a, b)


def kernel_result(rows):
    value, a, b = hypercube_bilinear_max(BilinearInstance(np.array(rows, dtype=object)))
    return value, tuple(int(x) for x in a), tuple(int(x) for x in b)


@st.composite
def signed_copies(draw, base):
    """Rows and columns of base drawn with repeats and sign flips."""
    m, k = len(base), len(base[0])
    pick = st.tuples(st.integers(0, m - 1), st.sampled_from((1, -1)))
    rows = draw(st.lists(pick, min_size=1, max_size=6))
    pick = st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1)))
    cols = draw(st.lists(pick, min_size=1, max_size=6))
    return [[r * c * base[i][j] for j, c in cols] for i, r in rows]


@st.composite
def integer_matrices(draw):
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-8, 8), st.integers(-(2 ** 1100), 2 ** 1100))
    base = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    mat = draw(st.one_of(st.just(base), signed_copies(base)))
    if draw(st.booleans()):
        # planted near-ties: the float scores of 2^70 B + P tie wherever B's
        # do, and the small P decides which tied sign vector wins exactly
        small = st.integers(-2, 2)
        mat = [[2 ** 70 * x + draw(small) for x in row] for row in mat]
    return mat


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_exact_bilinear_matches_python_int_enumeration(rows):
    assert kernel_result(rows) == lowest_mask_maximiser(rows)


def test_planted_tie_moves_the_exact_winner_past_the_float_argmax():
    # B's zero row 0 makes masks 2t and 2t + 1 tie, and at scale 2^70 the
    # float scores of N = 2^70 B + P tie too, so the float argmax is the even
    # mask; P's row 0 makes the odd one (a_0 = +1) the exact winner
    B = [[0, 0, 0, 0], [1, 2, -1, 3], [2, -1, 1, 1]]
    _, a, _ = lowest_mask_maximiser(B)
    agg = [sum(s * x for s, x in zip(a, col)) for col in zip(*B)]
    P = [[1 if x >= 0 else -1 for x in agg], [0] * 4, [0] * 4]
    N = [[2 ** 70 * x + y for x, y in zip(rb, rp)] for rb, rp in zip(B, P)]
    want = lowest_mask_maximiser(N)
    assert a[0] == -1 and want[1][0] == 1
    assert kernel_result(N) == want


@st.composite
def planted_matrices(draw):
    """Up to 10 x 10, each row and column a signed copy of a small base's, or zero."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 70), 2 ** 70))
    base = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    # sign 0 plants a zero row or column
    rows = draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from((1, -1, 0))),
                         min_size=1, max_size=10))
    cols = draw(st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1, 0))),
                         min_size=1, max_size=10))
    return [[r * c * base[i][j] for j, c in cols] for i, r in rows]


@settings(max_examples=300, deadline=None)
@given(planted_matrices(), st.sampled_from((1, 2, 16, 256, asymdep.engines.SCREEN_BLOCK)))
def test_sign_classes_and_blocked_screen_keep_the_lowest_mask_maximiser(rows, block):
    # duplicate, negated and zero rows and columns make the reduction merge
    # and drop; a small SCREEN_BLOCK splits the half tables and the blocks
    with mock.patch.object(asymdep.engines, "SCREEN_BLOCK", block):
        assert kernel_result(rows) == lowest_mask_maximiser(rows)


@pytest.mark.parametrize("block", [8, 32, 128])
@pytest.mark.parametrize("seed", range(4))
def test_the_half_tables_split_anywhere_keep_the_lowest_mask_maximiser(seed, block):
    # over 8 columns, SCREEN_BLOCK = 8, 32 and 128 floats put 0, 2 and 4 of the
    # 6 free signs in the low half table, and the rest in the high one
    rows = np.random.default_rng(seed).integers(-50, 50, size=(7, 8)).tolist()
    with mock.patch.object(asymdep.engines, "SCREEN_BLOCK", block):
        assert kernel_result(rows) == lowest_mask_maximiser(rows)


def test_lowest_mask_maximiser_can_mix_signs_inside_a_sign_class():
    # rows 0 and 2 form one sign class (row 2 = -row 0 is its top), whose lift
    # a_0 = -a_2 = +1 attains the maximum 4; a_0 = a_2 = -1 cancels the class
    # and attains 4 too, at a lower mask
    rows = [[-1, 0, 1], [-2, 0, -2], [1, 0, -1]]
    assert kernel_result(rows) == lowest_mask_maximiser(rows) == (4, (-1, -1, -1), (1, 1, 1))


def test_the_cutoff_counts_sign_classes():
    # 24 rows in one sign class enumerate as one; the maximiser aligns them all
    signs = [1 if (i * 7) % 5 < 2 else -1 for i in range(24)]
    x = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9, -7, 9, 3, 2, -3, 8, 4, -6, 2, 6, 4]
    mat = np.array([[s * v for v in x] for s in signs])
    value, a, _ = hypercube_bilinear_max(BilinearInstance(mat))
    assert value == 24 * sum(map(abs, x))
    assert a.tolist() == [-signs[-1] * s for s in signs]
    with pytest.raises(CapabilityError, match="sign classes of rows on the smaller side, got 23"):
        hypercube_bilinear_max(BilinearInstance(np.eye(23, dtype=int)))


@pytest.mark.parametrize("shape", [(16, 128), (20, 64)])
def test_one_kernel_call_works_in_a_bounded_working_set(shape):
    inst = BilinearInstance(np.random.default_rng(0).integers(-1000, 1000, size=shape))
    tracemalloc.start()
    try:
        hypercube_bilinear_max(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
