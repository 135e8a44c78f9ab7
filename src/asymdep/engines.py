"""Reusable optimization kernels: max-flow, hub transshipment, hypercube bilinear max.

The max-flow solver is a Dinic-style layered augmenting-path implementation
that works over any exact numeric type (Fraction capacities stay exact).
Its DFS keeps the path on an explicit stack, so the depth of the level
graph is not bounded by Python's recursion limit.
The transshipment kernel is a primal network simplex in Python ints over
undirected edges of nonnegative cost and a hub joined to every node; it
returns the optimal potentials and its final tree with its flows, so the
optimum is exact and certified by both sides. No kernel loads scipy.
The hypercube kernel enumerates sign vectors exactly for integer matrices of
any size: a float64 screen with a proven rounding bound keeps every sign
vector that may be optimal, and the survivors are re-ranked in Python ints.
"""
from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, InputError

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


# smallest block of edges that the network simplex prices at a time
PRICING_BLOCK_MIN = 32


class HubFlow(NamedTuple):
    """An optimal flow of hub_transshipment and its dual, in Python ints."""

    cost: int
    potentials: tuple[int, ...]  # pi(i); pi(hub) = 0
    # the final basis: node i's tree arc tails[i] -> heads[i] with flows[i]
    tree: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _ints(name: str, values) -> list[int]:
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise InputError(f"{name} must be integers") from None


def hub_transshipment(supplies, ends_a, ends_b, costs, hub_cost) -> HubFlow:
    """Min-cost flow from the supplies over uncapacitated edges and a hub.

    Node i < n = len(supplies) sends out supplies[i] more than it receives;
    the hub, node n, takes up the balance -sum(supplies). Edge k joins
    ends_a[k] and ends_b[k] at costs[k] per unit either way; the three may
    be any iterables of ints, each read once. Every node is also joined to
    the hub at hub_cost. A negative cost or hub cost is an InputError.
    Returns the least cost, potentials pi with pi(hub) = 0 and
    |pi(a) - pi(b)| <= c on every edge, hub edges included, and the final
    tree: node i's arc tails[i] -> heads[i] to its parent, with its flow
    (zero flows kept). Each tree arc has reduced cost c - pi(tail) +
    pi(head) = 0, so the tree's cost equals sum_i supplies[i] pi(i).

    Primal network simplex in Python ints, so the optimum is exact. An edge
    is priced once, as c - |pi(a) - pi(b)|, and enters from its end of
    larger potential. The first tree is the star at the hub: i -> hub where
    supplies[i] > 0, hub -> i otherwise, each carrying |supplies[i]|. That
    tree is strongly feasible: every tree arc with zero flow points away
    from the hub. Pricing takes blocks of about sqrt(edges) edges in turn
    and enters the most negative reduced cost of the first block that has
    one. The leaving arc is the first blocking arc met going round the
    cycle from its apex (where the two tree paths of the entering arc's
    ends meet) in the entering arc's direction. That keeps the tree
    strongly feasible, so degenerate pivots cannot cycle (Cunningham's
    rule; Ahuja, Magnanti and Orlin, Network Flows, 1993, section 11.5).
    The cycle costs the entering arc's reduced cost, < 0, and no cost is
    negative, so some arc on it runs against its direction and blocks it.
    """
    supply = _ints("supplies", supplies)
    ea, eb, cost = _ints("ends_a", ends_a), _ints("ends_b", ends_b), _ints("costs", costs)
    (hub_cost,) = _ints("hub_cost", (hub_cost,))
    n, m = len(supply), len(cost)
    if not len(ea) == len(eb) == m:
        raise InputError("edge array lengths differ")
    if m and not (0 <= min(min(ea), min(eb)) and max(max(ea), max(eb)) < n):
        raise InputError(f"edge ends must lie in range({n})")
    if min(cost, default=0) < 0 or hub_cost < 0:
        raise InputError("costs and hub_cost must be nonnegative")
    hub, nodes = n, range(n)
    ea += nodes
    eb += [hub] * n
    cost += [hub_cost] * n
    # the tree: each node's parent, whether the arc joining them points up
    # (node -> parent), the arc's flow, each node's children and its depth
    parent = [hub] * n + [-1]
    up = [b > 0 for b in supply]
    flow = list(map(abs, supply))
    children = [set() for _ in nodes] + [set(nodes)]
    pi = [hub_cost if b > 0 else -hub_cost for b in supply] + [0]
    depth = [1] * n + [0]
    edges = len(cost)
    block = max(PRICING_BLOCK_MIN, math.isqrt(edges))
    start = 0
    while True:
        best, enter, scanned = 0, -1, 0
        while enter < 0 and scanned < edges:
            stop = min(start + block, edges)
            for e in range(start, stop):
                r = cost[e] - abs(pi[ea[e]] - pi[eb[e]])
                if r < best:
                    best, enter = r, e
            scanned += stop - start
            start = stop % edges
        if enter < 0:
            break
        k, l = ea[enter], eb[enter]
        if pi[k] < pi[l]:  # the arc k -> l has reduced cost best
            k, l = l, k
        # the tree paths from k and from l up to the apex, bottom first
        kpath, lpath, u, v = [], [], k, l
        while u != v:
            if depth[u] >= depth[v]:
                kpath.append(u)
                u = parent[u]
            else:
                lpath.append(v)
                v = parent[v]
        # going round from the apex: down to k (where arcs pointing up are
        # backward), then k -> l, then up from l (where arcs pointing down are)
        delta, leave, k_side = 0, -1, False
        for x in reversed(kpath):
            if up[x] and (leave < 0 or flow[x] < delta):
                delta, leave, k_side = flow[x], x, True
        for x in lpath:
            if not up[x] and (leave < 0 or flow[x] < delta):
                delta, leave, k_side = flow[x], x, False
        if delta:
            for x in kpath:
                flow[x] += -delta if up[x] else delta
            for x in lpath:
                flow[x] += delta if up[x] else -delta
        # hang the subtree cut off by the leaving arc from the entering one:
        # reverse its tree path from the entering arc's end up to the cut, each
        # arc moving to the node below it and turning round relative to it
        x, y, shift = (k, l, best) if k_side else (l, k, -best)
        v, to, v_up, f = x, y, k_side, delta
        while True:
            p, p_up, p_flow = parent[v], up[v], flow[v]
            children[p].remove(v)
            parent[v], up[v], flow[v] = to, v_up, f
            children[to].add(v)
            if v == leave:
                break
            to, v, v_up, f = v, p, not p_up, p_flow
        # one shift of the subtree's potentials makes the entering arc's
        # reduced cost 0 and keeps every other tree arc's; its parents come
        # first in sub, so their depths are set before their children's
        sub = [x]
        for v in sub:
            sub.extend(children[v])
        for v in sub:
            pi[v] += shift
            depth[v] = depth[parent[v]] + 1
    # every tree arc has reduced cost 0, so the tree's cost is the dual's
    total = sum(map(operator.mul, supply, pi))
    tails = tuple(v if up[v] else parent[v] for v in nodes)
    heads = tuple(parent[v] if up[v] else v for v in nodes)
    return HubFlow(total, tuple(pi[:n]), (tails, heads, tuple(flow)))


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
