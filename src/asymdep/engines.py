"""Reusable optimization kernels: max-flow, sparse LP, hypercube bilinear max.

The max-flow solver is a Dinic-style layered augmenting-path implementation
that works over any exact numeric type (Fraction capacities stay exact).
Its DFS keeps the path on an explicit stack, so the depth of the level
graph is not bounded by Python's recursion limit.
Linear programs are held as arrays in HiGHS's own form, two-sided rows
lower <= A x <= upper, and go to HiGHS as one sparse matrix; scipy is
imported on the first solve, so importing the package does not load it.
The hypercube kernel enumerates sign vectors exactly for integer matrices of
any size: a float64 screen with a proven rounding bound keeps every sign
vector that may be optimal, and the survivors are re-ranked in Python ints.
"""
from __future__ import annotations

import enum
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError, SolverError

# largest smaller side that exact enumeration accepts (alpha and cov_sup too)
BILINEAR_EXACT_CUTOFF = 22


@dataclass(frozen=True)
class FlowNetwork:
    node_count: int
    edges: tuple[tuple[int, int, object], ...]  # (from, to, capacity)
    source: int
    sink: int

    def __post_init__(self) -> None:
        """Check the edges column by column; endpoints become Python ints."""
        if self.source == self.sink:
            raise InputError("source and sink must differ")
        edges = tuple(self.edges)
        tails, heads, caps = tuple(zip(*edges)) or ((), (), ())
        if set(map(type, tails + heads)) - {int}:
            tails, heads = tuple(map(int, tails)), tuple(map(int, heads))
            edges = tuple(zip(tails, heads, caps))
        object.__setattr__(self, "edges", edges)
        if any(map(operator.eq, tails, heads)):
            raise InputError("self-loops are not allowed")
        if edges and not (0 <= min(tails + heads) and max(tails + heads) < self.node_count):
            raise InputError("edge endpoint out of range")
        if caps and min(caps) < 0:
            raise InputError("capacities must be nonnegative")


def max_flow(net: FlowNetwork) -> tuple[object, list[object]]:
    """Maximum flow value and per-edge flows (same order as net.edges).

    Dinic's algorithm: BFS level graph + DFS blocking flows. Arithmetic is
    whatever the capacities use; with Fraction capacities the result is exact.

    The DFS keeps its path from the source on an explicit stack, so a level
    graph of any depth needs no recursion. At node u it scans the arcs from
    the pointer it[u] on and takes the first with residual capacity into the
    next level. A dead end pops back to the arc's tail and moves that
    pointer past it; a path to the sink is augmented by the least residual
    capacity along it (min taken from the source down, starting at the
    sentinel bound) and then cut back to the tail of its first saturated
    arc, where a search restarted from the source would arrive again, as
    the pointers above that arc still name the path's own arcs.
    """
    n = net.node_count
    source, sink = net.source, net.sink
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
        level[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            for eid in adj[u]:
                v = head[eid]
                if level[v] < 0 and cap[eid] > 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[sink] >= 0 else None

    # sentinel "infinite" capacity: total source capacity + 1
    inf = sum(c for a, _, c in net.edges if a == source) + 1
    total = None
    while True:
        level = bfs()
        if level is None:
            break
        it = [0] * n
        path: list[int] = []  # arc ids from the source to u
        u = source
        while True:
            if u == sink:
                # the least residual capacity, as min(pushed, cap) from the source down
                pushed = inf
                for eid in path:
                    if cap[eid] < pushed:
                        pushed = cap[eid]
                cut = -1
                for k, eid in enumerate(path):
                    cap[eid] -= pushed
                    cap[eid ^ 1] += pushed
                    if cut < 0 and not cap[eid] > 0:
                        cut = k
                total = pushed if total is None else total + pushed
                del path[cut:]
                u = head[path[-1]] if path else source
                continue
            arcs = adj[u]
            i, end, nxt = it[u], len(arcs), level[u] + 1
            while i < end:
                eid = arcs[i]
                if cap[eid] > 0 and level[head[eid]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(eid)
                u = head[eid]
            elif path:  # dead end: back to the tail, past the arc that led here
                u = head[path.pop() ^ 1]
                it[u] += 1
            else:  # the source is exhausted: the blocking flow is complete
                break
    if total is None:
        total = net.edges[0][2] * 0 if net.edges else 0
    flows = [net.edges[i][2] - cap[2 * i] for i in range(len(net.edges))]
    return total, flows


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _hold_vectors(obj, **dtypes) -> list[np.ndarray]:
    """Hold the named fields of a frozen dataclass as 1-D arrays of the given dtypes."""
    out = []
    for name, dtype in dtypes.items():
        x = np.asarray(getattr(obj, name), dtype=dtype)
        if x.ndim != 1:
            raise InputError(f"{name} must be a 1-D array")
        object.__setattr__(obj, name, x)
        out.append(x)
    return out


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Rows lower <= A x <= upper, A in coordinate form: entry k adds coeff[k]
    to A[row[k], col[k]]. A bound may be infinite, for a one-sided row.
    len() is the number of rows."""

    row: np.ndarray
    col: np.ndarray
    coeff: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if any(np.size(x) and np.asarray(x).dtype.kind not in "iu" for x in (self.row, self.col)):
            raise InputError("constraint rows and columns must be integer arrays")
        row, col, coeff, lower, upper = _hold_vectors(
            self, row=np.intp, col=np.intp, coeff=float, lower=float, upper=float
        )
        if not (len(row) == len(col) == len(coeff) and len(lower) == len(upper)):
            raise InputError("constraint array lengths differ")
        if not (np.all((0 <= row) & (row < len(lower))) and np.all(col >= 0)):
            raise InputError(f"constraint rows must lie in range({len(lower)}), columns >= 0")
        if not np.all(lower <= upper):
            raise InputError("a lower bound exceeds its upper bound")

    def __len__(self) -> int:
        return len(self.lower)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Maximize objective . x subject to the rows and var_lower <= x <= var_upper.

    The objective and the variable bounds are held as float arrays; bounds
    left out are infinite.
    """

    objective: np.ndarray
    constraints: SparseRows = SparseRows((), (), (), (), ())
    var_lower: np.ndarray | None = None
    var_upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        (obj,) = _hold_vectors(self, objective=float)
        for name, inf in (("var_lower", -np.inf), ("var_upper", np.inf)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.full(len(obj), inf))
        lower, upper = _hold_vectors(self, var_lower=float, var_upper=float)
        if not len(lower) == len(upper) == len(obj):
            raise InputError("bounds dimension mismatch")
        if not np.all(self.constraints.col < len(obj)):
            raise InputError(f"constraint columns must lie in range({len(obj)})")
        if not np.all(lower <= upper):
            raise InputError("a lower bound exceeds its upper bound")


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: float | None
    solution: tuple[float, ...] | None


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve the (maximization) LP with HiGHS's default tolerances: scipy's
    milp without integer variables, the rows as one sparse matrix."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    c = lp.constraints
    a = csc_array((c.coeff, (c.row, c.col)), shape=(len(c), len(lp.objective)))
    res = milp(
        -lp.objective,
        constraints=LinearConstraint(a, c.lower, c.upper),
        bounds=Bounds(lp.var_lower, lp.var_upper),
    )
    if res.status == 0:
        return LPResult(LPStatus.OPTIMAL, float(-res.fun), tuple(res.x.tolist()))
    if res.status == 2:
        return LPResult(LPStatus.INFEASIBLE, None, None)
    if res.status == 3:
        return LPResult(LPStatus.UNBOUNDED, None, None)
    raise SolverError(f"LP solver failed: {res.message}")


@dataclass(frozen=True)
class BilinearInstance:
    """Integer matrix of a bilinear form on the hypercube.

    Takes any integer dtype, or Python ints of any size in an object array,
    and keeps the entries exactly, as Python ints in an object array. Any
    other dtype (float, bool, complex) is an InputError.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise InputError("bilinear instance needs a 2-D matrix")
        held = m.astype(object)
        if m.dtype.kind not in "iuO" or not all(isinstance(x, int) for x in held.flat):
            raise InputError(f"bilinear instance needs an integer matrix, got dtype {m.dtype}")
        held.setflags(write=False)
        object.__setattr__(self, "matrix", held)


def hypercube_bilinear_max(inst: BilinearInstance) -> tuple[int, np.ndarray, np.ndarray]:
    """max over a in {-1,1}^m, b in {-1,1}^k of |a^T M b|; returns (value, a, b).

    The maximum of the convex function |a^T M b| over the cube is attained at
    sign vectors; for fixed a the optimal b is sign(a^T M), and a and -a give
    the same value, so the kernel enumerates the smaller side with its last
    sign fixed (sign vector a of mask t has a_i = +1 where bit i of t is set)
    and returns the lowest mask of largest value.

    The value is exact, a Python int re-derived from the sign vectors, and
    a and b are float arrays. The kernel screens every sign vector in
    float64 and re-ranks the survivors in Python ints. With
    S = sum |M| and s = max(0, bitlength(S) - 1000), the screen scores
    v^(a) = sum_j |fl(a^T F)_j| for F = fl(M / 2^s) (Python's int / int
    division rounds correctly), and every score satisfies

        |v^(a) - v(a) / 2^s| <= E = (m + k + 4) 2^-52 S' + m k 2^-1074,

    v(a) = ||a^T M||_1 and S' = fl(S / 2^s). Proof, with u = 2^-53,
    T = S / 2^s and gamma_n = n u / (1 - n u):
    (1) fl(M_ij / 2^s) = (M_ij / 2^s)(1 + d) + e with |d| <= u and
        |e| <= 2^-1075, so sum |F| <= (1 + u) T + m k 2^-1075.
    (2) The products a_i F_ij are exact. Each addition rounds once with
        relative error <= u: a sum in the subnormal range is exact, and an
        FMA a_i F_ij + t is one rounded sum. No partial sum overflows, as
        all stay below 2 T < 2^1001. In any summation order (Higham,
        Accuracy and Stability of Numerical Algorithms, ch. 4) the computed
        entries c^_j of a^T F are within gamma_{m-1} sum_i |F_ij| of the
        exact ones, and v^ is within gamma_{k-1} sum_j |c^_j| of their sum.
    (3) Adding (1) and (2), for (m + k) u <= 2^-10 (k < 2^40 columns),
        |v^(a) - v(a) / 2^s| <= E0 = (1 + 2^-9)(m + k) u T + m k 2^-1074.
    The computed E is at least 1.99 E0 (twice E0's first term, up to three
    roundings; the second term is negligible, as T >= 2^53), so the spare
    2 (E - E0) >= 2^-52 T covers the rounding of fl(max v^ - 2 E), at most
    u max v^ <= 1.01 u T. Every maximiser a* then survives the screen
    v^(a) >= max v^ - 2 E: v^(a*) >= v(a*) / 2^s - E0 >= v(a^) / 2^s - E0
    >= v^(a^) - 2 E0 for the float argmax a^. The survivors, in mask order,
    are re-scored in Python ints, so the lowest-mask maximiser is found
    exactly. When S < 2^53, s = 0 and every partial sum is an exactly
    represented integer, so E = 0, v^ = v and the screen alone decides.
    """
    M = inst.matrix
    m, k = M.shape
    transposed = k < m
    if transposed:
        M = M.T
        m, k = k, m
    if m > BILINEAR_EXACT_CUTOFF:
        raise CapabilityError(
            f"exact hypercube enumeration needs the smaller side "
            f"<= {BILINEAR_EXACT_CUTOFF}, got {m}"
        )
    fm, err = _float_screen(M)
    masks = _screen(fm, err)
    if err:
        masks = _exact_best(M, masks)
    a = _sign_vectors(masks, m)[0]
    row = a.astype(int).astype(object) @ M
    b = np.array([1.0 if x >= 0 else -1.0 for x in row])
    value = sum(map(abs, row))
    if transposed:
        a, b = b, a
    return value, a, b


def _float_screen(M: np.ndarray) -> tuple[np.ndarray, float]:
    """F = fl(M / 2^s) of an integer matrix and the screen's error bound E.

    See hypercube_bilinear_max for s, E and the proof; E = 0 when
    sum |M| < 2^53, where F = M exactly and the float scores are exact.
    """
    m, k = M.shape
    total = sum(abs(x) for x in M.flat)
    scale = 1 << max(0, total.bit_length() - 1000)
    fm = (M / scale).astype(float)
    if total < 2 ** 53:
        return fm, 0.0
    return fm, (m + k + 4) * 2.0 ** -52 * (total / scale) + m * k * 2.0 ** -1074


def _chunk_rows(k: int) -> int:
    """Sign vectors per chunk: at most 2^14, and at most 2^20 floats (8 MB) of a^T M."""
    return min(1 << 14, max(1, (1 << 20) // max(k, 1)))


def _sign_vectors(masks: np.ndarray, m: int) -> np.ndarray:
    """Rows a with a_i = +1 where bit i of the mask is set, -1 elsewhere."""
    return (2 * ((masks[:, None] >> np.arange(m)) & 1) - 1).astype(float)


def _screen(fm: np.ndarray, err: float) -> np.ndarray:
    """Masks, ascending, whose float score is within 2 err of the largest.

    With err = 0 (exact integer scores) only the lowest mask of largest
    score is returned.
    """
    m, k = fm.shape
    total = 1 << max(m - 1, 0)
    rows = _chunk_rows(k)
    best, first, kept = -1.0, None, []
    for start in range(0, total, rows):
        masks = np.arange(start, min(start + rows, total), dtype=np.int64)
        prod = _sign_vectors(masks, m) @ fm
        vals = np.abs(prod, out=prod).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, first = vals[i], masks[i : i + 1]
        if err:
            near = vals >= best - 2 * err
            kept.append((masks[near], vals[near]))
    if not err:
        return first
    masks = np.concatenate([t for t, _ in kept])
    vals = np.concatenate([v for _, v in kept])
    return masks[vals >= best - 2 * err]


def _exact_best(M: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The lowest of the ascending masks whose Python-int ||a^T M||_1 is largest."""
    m, k = M.shape
    rows = _chunk_rows(k)
    best, winner = -1, None
    for start in range(0, len(masks), rows):
        chunk = masks[start : start + rows]
        vals = np.abs(_sign_vectors(chunk, m).astype(int).astype(object) @ M).sum(axis=1)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, winner = vals[i], chunk[i : i + 1]
    return winner
