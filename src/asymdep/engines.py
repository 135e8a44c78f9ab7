"""Reusable optimization kernels: max-flow, hub transshipment, hypercube bilinear max.

The max-flow solver is a Dinic-style layered augmenting-path implementation
that works over any exact numeric type (Fraction capacities stay exact).
Its DFS keeps the path on an explicit stack, so the depth of the level
graph is not bounded by Python's recursion limit.
The transshipment kernel is a primal network simplex in Python ints for an
uncapacitated network in which every node is joined to a hub both ways at
one cost; it returns the optimal flow and the optimal potentials, so the
optimum is exact and certified by both sides. No kernel loads scipy.
The hypercube kernel enumerates sign vectors exactly for integer matrices of
any size: a float64 screen with a proven rounding bound keeps every sign
vector that may be optimal, and the survivors are re-ranked in Python ints.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

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


# smallest block of arcs that the network simplex prices at a time
PRICING_BLOCK_MIN = 32


class HubFlow(NamedTuple):
    """An optimal flow of hub_transshipment and its dual, in Python ints."""

    cost: int  # sum of cost * flow over every arc, the hub's included
    flows: tuple[int, ...]  # on the given arcs, in their order
    to_hub: tuple[int, ...]  # on i -> hub
    from_hub: tuple[int, ...]  # on hub -> i
    potentials: tuple[int, ...]  # pi(i); pi(hub) = 0


def _ints(name: str, values) -> list[int]:
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise InputError(f"{name} must be integers") from None


def hub_transshipment(supplies, tails, heads, costs, hub_cost) -> HubFlow:
    """Min-cost flow from the supplies over uncapacitated arcs and a hub.

    Node i < n = len(supplies) sends out supplies[i] more than it receives;
    the hub, node n, takes up the balance -sum(supplies). Arc k runs from
    tails[k] to heads[k] at costs[k] per unit; the three may be any
    iterables of ints, and each is read once. Every node is also joined to
    the hub both ways at hub_cost, so a flow always exists. Flows are
    nonnegative with no upper bound. Returns the least cost, the flows, and
    potentials pi with pi(hub) = 0 and every reduced cost
    c(i, j) - pi(i) + pi(j) >= 0, hub arcs included: the dual optimum
    sum_i supplies[i] pi(i) equals the cost.

    Primal network simplex in Python ints, so the optimum is exact. The
    first tree is the star at the hub: i -> hub where supplies[i] > 0,
    hub -> i otherwise, each carrying |supplies[i]|. That tree is strongly
    feasible: every tree arc with zero flow points away from the hub.
    Pricing takes blocks of about sqrt(arcs) arcs in turn and enters the
    most negative reduced cost of the first block that has one. The leaving
    arc is the first blocking arc met going round the cycle from its apex
    (where the two tree paths of the entering arc's ends meet) in the
    entering arc's direction. That keeps the tree strongly feasible, so
    degenerate pivots cannot cycle (Cunningham's rule; Ahuja, Magnanti and
    Orlin, Network Flows, 1993, section 11.5). A cycle with no arc to
    block it has negative cost, and is a SolverError.
    """
    supply = _ints("supplies", supplies)
    tail, head, cost = _ints("tails", tails), _ints("heads", heads), _ints("costs", costs)
    (hub_cost,) = _ints("hub_cost", (hub_cost,))
    n, m = len(supply), len(cost)
    if not len(tail) == len(head) == m:
        raise InputError("arc array lengths differ")
    if m and not (0 <= min(min(tail), min(head)) and max(max(tail), max(head)) < n):
        raise InputError(f"arc endpoints must lie in range({n})")
    hub, nodes = n, range(n)
    tail += [*nodes, *[hub] * n]
    head += [*[hub] * n, *nodes]
    cost += [hub_cost] * (2 * n)
    flow = [0] * m + [max(b, 0) for b in supply] + [max(-b, 0) for b in supply]
    # the tree: each node's parent, the arc joining them, and its children
    parent = [hub] * n + [-1]
    parc = [m + i if b > 0 else m + n + i for i, b in enumerate(supply)] + [-1]
    children = [set() for _ in nodes] + [set(nodes)]
    pi = [hub_cost if b > 0 else -hub_cost for b in supply] + [0]
    mark, kmark = [0] * (n + 1), 0  # the nodes each pivot's climbs have reached
    arcs = len(cost)
    block = max(PRICING_BLOCK_MIN, math.isqrt(arcs))
    start = 0
    while True:
        best, enter, scanned = 0, -1, 0
        while enter < 0 and scanned < arcs:
            stop = min(start + block, arcs)
            for a in range(start, stop):
                r = cost[a] - pi[tail[a]] + pi[head[a]]
                if r < best:
                    best, enter = r, a
            scanned += stop - start
            start = stop % arcs
        if enter < 0:
            break
        k, l = tail[enter], head[enter]
        # the tree paths from k and from l up to the apex, bottom first: climb
        # from both ends in turn, marking the nodes each side reaches, until
        # one side steps on the other's mark, at the apex
        kmark += 2
        lmark = kmark + 1
        kpath, lpath, u, v = [], [], k, l
        mark[u], mark[v] = kmark, lmark
        while u != v:
            if u != hub:
                kpath.append(u)
                u = parent[u]
                if mark[u] == lmark:
                    if u in lpath:
                        del lpath[lpath.index(u):]
                    break
                mark[u] = kmark
            if v != hub:
                lpath.append(v)
                v = parent[v]
                if mark[v] == kmark:
                    if v in kpath:
                        del kpath[kpath.index(v):]
                    break
                mark[v] = lmark
        # going round from the apex: down to k (where arcs pointing up are
        # backward), then k -> l, then up from l (where arcs pointing down are)
        delta, leave, k_side = 0, -1, False
        for x in reversed(kpath):
            a = parc[x]
            if tail[a] == x and (leave < 0 or flow[a] < delta):
                delta, leave, k_side = flow[a], x, True
        for x in lpath:
            a = parc[x]
            if head[a] == x and (leave < 0 or flow[a] < delta):
                delta, leave, k_side = flow[a], x, False
        if leave < 0:
            raise SolverError("transshipment is unbounded: a cycle has negative cost")
        if delta:
            for x in kpath:
                a = parc[x]
                flow[a] += -delta if tail[a] == x else delta
            for x in lpath:
                a = parc[x]
                flow[a] += delta if tail[a] == x else -delta
        flow[enter] = delta
        # hang the subtree cut off by the leaving arc from the entering one:
        # reverse its tree path from the entering arc's end up to the cut
        x, y, shift = (k, l, best) if k_side else (l, k, -best)
        v, up, arc = x, y, enter
        while True:
            old_up, old_arc = parent[v], parc[v]
            children[old_up].remove(v)
            parent[v], parc[v] = up, arc
            children[up].add(v)
            if v == leave:
                break
            v, up, arc = old_up, v, old_arc
        # one shift of the subtree's potentials makes the entering arc's
        # reduced cost 0 and keeps every other tree arc's
        sub = [x]
        for v in sub:
            sub.extend(children[v])
        for v in sub:
            pi[v] += shift
    total = sum(map(operator.mul, cost, flow))
    del tail, head, cost  # the arc lists go before the flows are copied out
    flows = tuple(itertools.islice(flow, m))
    to_hub, from_hub = tuple(flow[m:m + n]), tuple(flow[m + n:])
    return HubFlow(total, flows, to_hub, from_hub, tuple(pi[:n]))


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
