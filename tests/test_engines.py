import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymdep
from asymdep import (
    BilinearInstance,
    FlowNetwork,
    InputError,
    LinearProgram,
    LPStatus,
    SparseRows,
    hypercube_bilinear_max,
    max_flow,
    solve_lp,
)
from asymdep.families import binary_coding_sign_matrix
from asymdep.verify import _vertex_enumeration_oracle
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
# Linear programming
# ---------------------------------------------------------------------------

def sparse_rows(a, lower=None, upper=None):
    """Every entry of the dense matrix a, zeros included, as SparseRows."""
    a = np.asarray(a, dtype=float)
    i, j = np.indices(a.shape)
    free = np.full(len(a), np.inf)
    lower = -free if lower is None else np.asarray(lower, dtype=float)
    upper = free if upper is None else np.asarray(upper, dtype=float)
    return SparseRows(i.ravel(), j.ravel(), a.ravel(), lower, upper)


def test_solve_lp_known_optimum():
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x, y >= 0  ->  (8/5, 6/5)
    lp = LinearProgram(
        objective=(1.0, 1.0),
        constraints=sparse_rows([[1.0, 2.0], [3.0, 1.0]], upper=[4.0, 6.0]),
        var_lower=(0.0, 0.0),
    )
    res = solve_lp(lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == pytest.approx(2.8, abs=1e-9)
    assert res.solution[0] == pytest.approx(1.6, abs=1e-9)
    assert res.solution[1] == pytest.approx(1.2, abs=1e-9)


def test_solve_lp_infeasible():
    lp = LinearProgram(
        objective=(1.0,),
        constraints=sparse_rows([[1.0]], upper=[-1.0]),
        var_lower=(0.0,),
    )
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


def test_solve_lp_infeasible_two_sided_row():
    # 1 <= x - y <= 2 cannot hold inside the box 0 <= x, y <= 1/2
    rows = sparse_rows([[1.0, -1.0]], lower=[1.0], upper=[2.0])
    lp = LinearProgram((1.0, 1.0), rows, (0.0, 0.0), (0.5, 0.5))
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


def test_solve_lp_unbounded():
    # no rows at all
    lp = LinearProgram(objective=(1.0,), var_lower=(0.0,))
    assert len(lp.constraints) == 0 and len(lp.objective) == 1
    assert solve_lp(lp).status is LPStatus.UNBOUNDED


def test_solve_lp_without_rows_is_the_corner_of_the_box():
    lp = LinearProgram((1.0, -2.0, 0.5), var_lower=(-1.0, -1.0, 0.0), var_upper=(1.0, 1.0, 4.0))
    res = solve_lp(lp)
    assert len(lp.constraints) == 0
    assert res.status is LPStatus.OPTIMAL
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.solution == pytest.approx((1.0, -1.0, 4.0), abs=1e-9)


def test_solve_lp_unbounded_despite_a_constraint():
    # x - y <= 1 leaves x = y -> infinity open
    lp = LinearProgram(
        objective=(1.0, 1.0),
        constraints=sparse_rows([[1.0, -1.0]], upper=[1.0]),
        var_lower=(0.0, 0.0),
    )
    assert solve_lp(lp).status is LPStatus.UNBOUNDED


def test_solve_lp_zero_coefficients_change_nothing():
    # max x + 2y - z  s.t.  x + y + z <= 3, x - z <= 1, y <= 1: the optimum is 3
    a = [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
    upper = [3.0, 1.0, 1.0]
    bounds = (0.0,) * 3, (2.0,) * 3
    rows = sparse_rows(a, upper=upper)
    res = solve_lp(LinearProgram((1.0, 2.0, -1.0), rows, *bounds))
    assert res.status is LPStatus.OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)
    keep = rows.coeff != 0
    nonzero = SparseRows(rows.row[keep], rows.col[keep], rows.coeff[keep], rows.lower, rows.upper)
    assert solve_lp(LinearProgram((1.0, 2.0, -1.0), nonzero, *bounds)) == res


def test_repeated_coordinates_add_up():
    # (0, 0) is given as 0.25 + 0.75 and (0, 1) as 3 - 4: the row x - y <= 1/2
    rows = SparseRows((0, 0, 0, 0), (0, 1, 0, 1), (0.25, 3.0, 0.75, -4.0), (-np.inf,), (0.5,))
    res = solve_lp(LinearProgram((1.0, 0.0), rows, (0.0, 0.0), (1.0, 0.25)))
    assert res.status is LPStatus.OPTIMAL
    assert res.value == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_two_sided_rows_match_vertex_enumeration(seed):
    # finite lower and upper bounds around a point x0 inside the box; the
    # oracle reads each row lower <= a x <= upper as a x <= upper, -a x <= -lower
    rng = np.random.default_rng(seed)
    nvar = int(rng.integers(2, 5))
    nrow = int(rng.integers(1, nvar + 3))
    x0 = rng.uniform(-0.5, 0.5, nvar)
    a = rng.uniform(-1, 1, (nrow, nvar))
    lower = a @ x0 - rng.uniform(0.05, 0.5, nrow)
    upper = a @ x0 + rng.uniform(0.05, 0.5, nrow)
    objective = rng.uniform(-1, 1, nvar)
    box = np.ones(nvar)
    res = solve_lp(LinearProgram(objective, sparse_rows(a, lower, upper), -box, box))
    eye = np.eye(nvar)
    oracle = _vertex_enumeration_oracle(
        objective, np.vstack((a, -a, eye, -eye)), np.concatenate((upper, -lower, box, box))
    )
    assert res.status is LPStatus.OPTIMAL
    assert res.value == pytest.approx(oracle, abs=1e-8)
    x = np.array(res.solution)
    assert np.all(a @ x <= upper + 1e-8) and np.all(a @ x >= lower - 1e-8)


@pytest.mark.parametrize("col", [2, -1, 1.0])
def test_constraint_column_outside_range_raises(col):
    with pytest.raises(InputError, match="integer arrays|range"):
        LinearProgram((1.0, 1.0), SparseRows((0,), (col,), (1.0,), (-np.inf,), (1.0,)))


ROW = {"row": (0,), "col": (0,), "coeff": (1.0,), "lower": (0.0,), "upper": (1.0,)}


@pytest.mark.parametrize(
    "rows, bounds, message",
    [
        ({**ROW, "row": (1,)}, {}, "range"),
        ({**ROW, "row": (-1,)}, {}, "range"),
        ({**ROW, "row": (0.0,)}, {}, "integer arrays"),
        ({**ROW, "coeff": (1.0, 2.0)}, {}, "lengths differ"),
        ({**ROW, "col": (0, 1)}, {}, "lengths differ"),
        ({**ROW, "upper": (1.0, 2.0)}, {}, "lengths differ"),
        ({**ROW, "lower": (2.0,)}, {}, "lower bound exceeds"),
        ({**ROW, "lower": (np.nan,)}, {}, "lower bound exceeds"),
        (ROW, {"var_lower": (0.0,)}, "bounds dimension mismatch"),
        (ROW, {"var_upper": (1.0, 1.0, 1.0)}, "bounds dimension mismatch"),
        (ROW, {"var_lower": (0.0, 2.0), "var_upper": (1.0, 1.0)}, "lower bound exceeds"),
        ({**ROW, "coeff": ((1.0,),)}, {}, "1-D"),
    ],
    ids=["row-past-the-end", "negative-row", "float-row", "coeff-length", "col-length",
         "upper-length", "lower-above-upper", "nan-bound", "short-var-lower",
         "long-var-upper", "var-lower-above-var-upper", "2-d-coeff"],
)
def test_lp_arrays_that_do_not_fit_raise(rows, bounds, message):
    with pytest.raises(InputError, match=message):
        LinearProgram(objective=(1.0, 1.0), constraints=SparseRows(**rows), **bounds)


def test_import_does_not_load_scipy_solvers():
    # scipy.optimize and scipy.sparse load on the first solve_lp call
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


# ---------------------------------------------------------------------------
# Hypercube bilinear maximization
# ---------------------------------------------------------------------------

def full_enumeration_max(mat):
    m, k = mat.shape
    best = -np.inf
    for a in itertools.product((-1.0, 1.0), repeat=m):
        row = np.asarray(a) @ mat
        best = max(best, np.abs(row).sum())
    return best


@pytest.mark.parametrize("seed", range(6))
def test_exact_bilinear_matches_full_enumeration(seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((rng.integers(2, 6), rng.integers(2, 6)))
    inst = BilinearInstance(mat)
    value, a, b = hypercube_bilinear_max(inst)
    assert value == pytest.approx(full_enumeration_max(mat), abs=1e-9)
    assert float(a @ mat @ b) == pytest.approx(value, abs=1e-9)
    assert set(np.unique(a)) <= {-1.0, 1.0} and set(np.unique(b)) <= {-1.0, 1.0}


def test_the_bilinear_kernel_has_one_exact_path():
    assert list(inspect.signature(hypercube_bilinear_max).parameters) == ["inst"]
    assert not hasattr(asymdep.engines, "HEURISTIC_RESTARTS")


def test_sign_matrix_bilinear_value_and_bound():
    # the 8x3 matrix of signed binary digits attains exactly 12 at level 3, and
    # the squared maximum never exceeds 4^n * n at any level
    mat = binary_coding_sign_matrix(3)
    value, _, _ = hypercube_bilinear_max(BilinearInstance(mat))
    assert value == pytest.approx(12.0, abs=1e-9)
    for n in range(1, 9):
        v, _, _ = hypercube_bilinear_max(BilinearInstance(binary_coding_sign_matrix(n)))
        assert round(v) ** 2 <= 4 ** n * n


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

