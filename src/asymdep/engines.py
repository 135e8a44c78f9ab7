"""Reusable optimization kernels: max-flow, sparse LP, hypercube bilinear max.

The max-flow solver is a Dinic-style layered augmenting-path implementation
that works over any exact numeric type (Fraction capacities stay exact).
Linear programs are delegated to scipy's HiGHS backend behind a small
maximize-form wrapper that hands it one sparse constraint matrix; scipy is
imported on the first solve, so importing the package does not load it.
"""
from __future__ import annotations

import enum
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError, SolverError

# largest smaller side that exact enumeration accepts (alpha and cov_sup too)
BILINEAR_EXACT_CUTOFF = 22
HEURISTIC_RESTARTS = 32


@dataclass(frozen=True)
class FlowNetwork:
    node_count: int
    edges: tuple[tuple[int, int, object], ...]  # (from, to, capacity)
    source: int
    sink: int

    def __post_init__(self) -> None:
        edges = tuple((int(a), int(b), c) for a, b, c in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.source == self.sink:
            raise InputError("source and sink must differ")
        for a, b, c in edges:
            if a == b:
                raise InputError("self-loops are not allowed")
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise InputError("edge endpoint out of range")
            if c < 0:
                raise InputError("capacities must be nonnegative")


def max_flow(net: FlowNetwork) -> tuple[object, list[object]]:
    """Maximum flow value and per-edge flows (same order as net.edges).

    Dinic's algorithm: BFS level graph + DFS blocking flows. Arithmetic is
    whatever the capacities use; with Fraction capacities the result is exact.
    """
    n = net.node_count
    # adjacency of edge ids; residual graph stores forward and backward arcs
    head: list[int] = []
    cap: list = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b, c in net.edges:
        adj[a].append(len(head))
        head.append(b)
        cap.append(c)
        adj[b].append(len(head))
        head.append(a)
        cap.append(c * 0)  # zero of the same numeric type

    def bfs() -> list[int] | None:
        level = [-1] * n
        level[net.source] = 0
        q = deque([net.source])
        while q:
            u = q.popleft()
            for eid in adj[u]:
                v = head[eid]
                if level[v] < 0 and cap[eid] > 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[net.sink] >= 0 else None

    def dfs(u: int, pushed, level: list[int], it: list[int]):
        if u == net.sink:
            return pushed
        while it[u] < len(adj[u]):
            eid = adj[u][it[u]]
            v = head[eid]
            if cap[eid] > 0 and level[v] == level[u] + 1:
                d = dfs(v, min(pushed, cap[eid]), level, it)
                if d > 0:
                    cap[eid] -= d
                    cap[eid ^ 1] += d
                    return d
            it[u] += 1
        return pushed * 0

    # sentinel "infinite" capacity: total source capacity + 1
    inf = sum(c for a, _, c in net.edges if a == net.source) + 1
    total = None
    while True:
        level = bfs()
        if level is None:
            break
        it = [0] * n
        while True:
            pushed = dfs(net.source, inf, level, it)
            if pushed == 0:
                break
            total = pushed if total is None else total + pushed
    if total is None:
        total = net.edges[0][2] * 0 if net.edges else 0
    flows = [net.edges[i][2] - cap[2 * i] for i in range(len(net.edges))]
    return total, flows


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize objective . x subject to rows coeffs . x <= bound and box bounds.

    Each constraint is a pair (coeffs, bound) with coeffs a sparse
    {column: coefficient} mapping.
    """

    objective: tuple[float, ...]
    constraints: tuple[tuple[Mapping[int, float], float], ...] = ()
    variable_bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self) -> None:
        nvar = len(self.objective)
        for row in self.constraints:
            if not (isinstance(row, tuple) and len(row) == 2):
                raise InputError("a constraint is a (coefficients, bound) pair")
            if not isinstance(row[0], Mapping):
                raise InputError("constraint coefficients must be a {column: coefficient} mapping")
            if not all(isinstance(j, int) and 0 <= j < nvar for j in row[0]):
                raise InputError(f"constraint columns must be ints in range({nvar})")
        if self.variable_bounds is not None:
            if len(self.variable_bounds) != nvar:
                raise InputError("bounds dimension mismatch")
            for lo, hi in self.variable_bounds:
                if lo is not None and hi is not None and lo > hi:
                    raise InputError("variable bound lo > hi")


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: float | None
    solution: tuple[float, ...] | None


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve the (maximization) LP with HiGHS; 1e-9 feasibility/optimality target.

    The rows become one sparse A_ub; zero coefficients are dropped.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    nvar = len(lp.objective)
    cols, vals, counts, b_ub = [], [], [], []
    for coeffs, bound in lp.constraints:
        cols.extend(coeffs)
        vals.extend(coeffs.values())
        counts.append(len(coeffs))
        b_ub.append(bound)
    rows = np.repeat(np.arange(len(b_ub)), np.array(counts, int))
    vals = np.array(vals, float)
    keep = vals != 0
    a_ub = csr_matrix((vals[keep], (rows[keep], np.array(cols, int)[keep])), shape=(len(b_ub), nvar))
    bounds = lp.variable_bounds if lp.variable_bounds is not None else [(None, None)] * nvar
    res = linprog(
        -np.asarray(lp.objective, dtype=float),
        A_ub=a_ub,
        b_ub=np.array(b_ub, float),
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return LPResult(LPStatus.OPTIMAL, float(-res.fun), tuple(float(x) for x in res.x))
    if res.status == 2:
        return LPResult(LPStatus.INFEASIBLE, None, None)
    if res.status == 3:
        return LPResult(LPStatus.UNBOUNDED, None, None)
    raise SolverError(f"LP solver failed: {res.message}")


@dataclass(frozen=True)
class BilinearInstance:
    """Matrix of a bilinear form on the hypercube.

    Integer matrices (any integer dtype, or Python ints of any size) are kept
    exactly, as Python ints in an object array; anything else becomes float64.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise InputError("bilinear instance needs a 2-D matrix")
        if m.dtype.kind in "iu" or (
            m.dtype == object and all(isinstance(x, int) for x in m.flat)
        ):
            m = m.astype(object)
        else:
            m = m.astype(float)
            if not np.all(np.isfinite(m)):
                raise InputError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def is_integer(self) -> bool:
        return self.matrix.dtype == object


def hypercube_bilinear_max(
    inst: BilinearInstance, mode: str = "exact"
) -> tuple[int | float, np.ndarray, np.ndarray]:
    """max over a in {-1,1}^m, b in {-1,1}^k of |a^T M b|; returns (value, a, b).

    The maximum of the convex function |a^T M b| over the cube is attained at
    sign vectors; for fixed a the optimal b is sign(a^T M), and a and -a give
    the same value, so exact mode enumerates the smaller side with its last
    sign fixed. Heuristic mode runs alternating ascent from seeded random
    starts and reports a lower bound.

    Integer instances are exact in both modes: the enumeration runs in
    float64 while sum |M| < 2^53, which keeps every partial sum an exactly
    represented integer, and in Python ints above that; the value is a
    Python int re-derived from the sign vectors. a and b are float arrays.
    """
    M = inst.matrix
    m, k = M.shape
    transposed = k < m
    if transposed:
        M = M.T
        m, k = k, m
    fm = M.astype(float)
    if mode == "exact":
        if m > BILINEAR_EXACT_CUTOFF:
            raise CapabilityError(
                f"exact hypercube enumeration needs the smaller side "
                f"<= {BILINEAR_EXACT_CUTOFF}, got {m}"
            )
        work = fm
        if inst.is_integer and sum(abs(x) for x in M.flat) >= 2 ** 53:
            work = M
        best_val, a = -1, None
        total = 1 << max(m - 1, 0)
        chunk = 1 << 14
        for start in range(0, total, chunk):
            masks = np.arange(start, min(start + chunk, total), dtype=np.int64)[:, None]
            A = (2 * ((masks >> np.arange(m)) & 1) - 1).astype(work.dtype)
            vals = np.abs(A @ work).sum(axis=1)
            i = int(np.argmax(vals))
            if vals[i] > best_val:
                best_val, a = vals[i], A[i].astype(float)
    elif mode == "heuristic":
        rngs = [np.random.default_rng(seed) for seed in range(HEURISTIC_RESTARTS)]
        best_val, a = -1.0, None
        for rng in rngs:
            cur = rng.choice([-1.0, 1.0], size=m)
            prev = -1.0
            for _ in range(200):
                b = np.where(cur @ fm >= 0, 1.0, -1.0)
                cur = np.where(fm @ b >= 0, 1.0, -1.0)
                val = float(np.abs(cur @ fm).sum())
                if val <= prev:
                    break
                prev = val
            val = float(np.abs(cur @ fm).sum())
            if val > best_val:
                best_val, a = val, cur
    else:
        raise InputError(f"unknown mode {mode!r}")
    if inst.is_integer:
        row = a.astype(int).astype(object) @ M
        b = np.array([1.0 if x >= 0 else -1.0 for x in row])
        value = int(sum(abs(x) for x in row))
    else:
        b = np.where(a @ M >= 0, 1.0, -1.0)
        value = float(abs(a @ M @ b))
    if transposed:
        a, b = b, a
    return value, a, b
