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
any size, over the sign classes of rows and columns equal up to sign: a
float64 screen with a proven rounding bound, summed from two half tables in
blocks, keeps every sign vector that may be optimal, and the survivors are
re-ranked in Python ints.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, InputError

# most sign classes of rows on the smaller side that exact enumeration
# accepts (alpha and cov_sup too). At the cutoff one call in a fresh process
# (Python 3.11, 2 vCPUs) takes 0.08-0.11 s and 36 MB peak RSS on a random
# 22 x 22 integer matrix; binary_coding n = 12 (24 x 4096, 12 row classes,
# 2048 column classes) takes 0.04-0.05 s. The cost is 2^(classes - 1) float
# additions per merged column: a random 22 x 256 matrix takes 0.8 s.
BILINEAR_EXACT_CUTOFF = 22
# most floats in one block of the hypercube screen's scores, and in a half table
SCREEN_BLOCK = 1 << 15


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
    other dtype (float, bool, complex), and a bool in an object array, is an
    InputError.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise InputError("bilinear instance needs a 2-D matrix")
        held = m.astype(object)
        if m.dtype.kind not in "iuO" or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in held.flat
        ):
            raise InputError(f"bilinear instance needs an integer matrix, got dtype {m.dtype}")
        held.setflags(write=False)
        object.__setattr__(self, "matrix", held)


def hypercube_bilinear_max(inst: BilinearInstance) -> tuple[int, np.ndarray, np.ndarray]:
    """max over a in {-1,1}^m, b in {-1,1}^k of |a^T M b|; returns (value, a, b).

    The maximum of the convex function |a^T M b| over the cube is attained at
    sign vectors; for fixed a the optimal b is sign(a^T M), and a and -a give
    the same value, so the kernel ranges over the smaller side's sign vectors
    with the last sign fixed (sign vector a of mask t has a_i = +1 where bit
    i of t is set) and returns the lowest mask of largest value
    v(a) = ||a^T M||_1. The value is exact, a Python int re-derived from the
    sign vectors, and a and b are float arrays.

    Reduction. Zero columns drop, and the columns equal up to sign merge into
    one column (its first nonzero entry positive) times their count, which
    leaves v(a) unchanged for every a. On the enumerated side the rows equal
    up to sign form a sign class c (zero rows form none); s_i is the sign of
    row i's first nonzero entry. Class c's row is its top (highest-index)
    member's row times the class size p_c, and the classes are ordered by
    their top rows. One enumeration over the classes' signs tau, the last
    class fixed at -1, finds the lowest mask tau* of largest value V. Its lift
    a_i = s_i s_top tau_c (zero rows -1) has v(a) = V. The highest row at
    which two lifts differ is the top of the highest class at which their
    taus differ, and takes tau's sign there, so lifts are ordered as their
    taus: the lift a* of tau* is the lowest-mask maximiser among the lifts.
    BILINEAR_EXACT_CUTOFF bounds the number of classes.

    Lift. For any a, a^T M = sum_c y_c p_c M_top(c) with y in the box
    [-1, 1]^classes, so v(a) = f(y) for a convex f whose maximum over the box
    is V. Let a maximiser a have a lower mask than a*: going down from the
    highest row, it first differs from a* at a row r with a_r = -1 < a*_r.
    A zero row lifts to -1, so r is none. Nor is r the top of a class c:
    y(a) lies in the relative interior of a face of the box, on which f,
    convex, is constant at its maximum V, and that face has a vertex with
    tau_c = -1 that agrees with tau* on the classes above c (where a and a*
    agree on the top rows); that vertex's mask is lower than tau*'s. So r is
    a non-top member of a merged class. That face has two vertices that are
    not each other's sign flip (with one class, f = |y_c| p_c ||M_top||_1 is
    constant on no edge), so when one mask alone attains V in the
    enumeration, a* is the answer. Otherwise the kernel tries those rows r where
    a*_r = +1 from the highest down, re-solving with the rows above r fixed as
    in a* and a_r = -1. The first re-solve that reaches V gives the answer's
    rows from r up, and its own lift is refined below r the same way, on its
    own classes of the rows below r. A re-solve is the same enumeration over
    the classes of the free rows, with the fixed rows' sum as a last row of
    fixed sign, and all of the free classes' signs ranging.

    Screen. An enumeration scores every mask in float64 and re-ranks the
    survivors in Python ints. With S = sum |Q| for its integer matrix Q
    (C class rows by G merged columns; the reduction keeps the input's S, and
    a re-solve's is no larger) and s = max(0, bitlength(S) - 1000), the screen scores
    v^(tau) = sum_j |fl(tau^T F)_j| for F = fl(Q / 2^s) (Python's int / int
    division rounds correctly), and every score satisfies

        |v^(tau) - v(tau) / 2^s| <= E = (C + G + 4) 2^-52 S' + C G 2^-1074,

    v(tau) = ||tau^T Q||_1 and S' = fl(S / 2^s). A score is the sum of a row
    of a low half table (the signed sums of the low classes' rows of F) and
    a row of a high half table (the other classes'). Each table is built by
    doubling, each entry one float addition of +-F_c to an entry of the
    table before. The halves are added in blocks of at most SCREEN_BLOCK
    floats (one row if G is larger), each block one high row plus the whole
    low table, and the high table is built per chunk of at most SCREEN_BLOCK
    floats from that chunk's base, so the screen's working set is a few
    blocks whatever C.
    Proof, with u = 2^-53, T = S / 2^s and gamma_n = n u / (1 - n u):
    (1) fl(Q_ij / 2^s) = (Q_ij / 2^s)(1 + d) + e with |d| <= u and
        |e| <= 2^-1075, so sum |F| <= (1 + u) T + C G 2^-1075.
    (2) The products tau_i F_ij are exact, and each computed entry of
        tau^T F sums them in some order: either table adds its terms one at
        a time, and a score adds the two partial sums. Each addition rounds
        once with relative error <= u: a sum in the subnormal range is
        exact. No partial sum overflows, as all stay below 2 T < 2^1001. In
        any summation order (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 4) the computed entries c^_j of tau^T F are within
        gamma_{C-1} sum_i |F_ij| of the exact ones, and v^ is within
        gamma_{G-1} sum_j |c^_j| of their sum.
    (3) Adding (1) and (2), for (C + G) u <= 2^-10 (G < 2^40 columns),
        |v^(tau) - v(tau) / 2^s| <= E0 = (1 + 2^-9)(C + G) u T + C G 2^-1074.
    The computed E is at least 1.99 E0 (twice E0's first term, up to three
    roundings; the second term is negligible, as T >= 2^53), so the spare
    2 (E - E0) >= 2^-52 T covers the rounding of fl(max v^ - 2 E), at most
    u max v^ <= 1.01 u T. Every maximiser tau* then survives the screen
    v^(tau) >= max v^ - 2 E: v^(tau*) >= v(tau*) / 2^s - E0 >= v(tau^) / 2^s
    - E0 >= v^(tau^) - 2 E0 for the float argmax tau^. The survivors, in mask
    order, are re-scored in Python ints, so the lowest-mask maximiser is
    found exactly. When S < 2^53, s = 0 and every partial sum is an exactly
    represented integer, so E = 0, v^ = v and the screen alone decides.
    """
    M = inst.matrix
    transposed = M.shape[1] < M.shape[0]
    if transposed:
        M = M.T
    m = M.shape[0]
    rows = _merged_rows(M)
    keys, signs = zip(*map(_sign_class, rows)) if rows else ((), ())
    ids: dict[tuple[int, ...], int] = {}
    labels = [None if key is None else ids.setdefault(key, len(ids)) for key in keys]
    if len(ids) > BILINEAR_EXACT_CUTOFF:
        raise CapabilityError(
            f"exact hypercube enumeration needs at most {BILINEAR_EXACT_CUTOFF} "
            f"sign classes of rows on the smaller side, got {len(ids)}"
        )
    value, a, tries = _lowest_lift(rows, labels, signs, m, None)
    # above sums a_i rows_i over the rows done..m-1
    above, done = ([0] * len(rows[0]) if rows else []), m
    while tries:
        r = tries.pop()
        for i in range(done - 1, r, -1):
            above = [s + a[i] * x for s, x in zip(above, rows[i])]
        fixed, done = [s - x for s, x in zip(above, rows[r])], r + 1
        w, head, sub_tries = _lowest_lift(rows, labels, signs, r, fixed)
        if w == value:
            a[: r + 1] = head + [-1]
            above, done, tries = fixed, r, sub_tries
    row = np.array(a, dtype=object) @ M
    b = np.array([1.0 if x >= 0 else -1.0 for x in row])
    value = sum(map(abs, row))
    a = np.array(a, dtype=float)
    if transposed:
        a, b = b, a
    return value, a, b


def _merged_rows(M: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of M over its nonzero columns merged by sign class.

    Each class of columns equal up to sign becomes one column, its first
    nonzero entry made positive, times the class size.
    """
    sizes: dict[tuple[int, ...], int] = {}
    for col in zip(*M.tolist()):
        key = _sign_class(col)[0]
        if key is not None:
            sizes[key] = sizes.get(key, 0) + 1
    cols = [[size * x for x in key] for key, size in sizes.items()]
    return list(zip(*cols)) if cols else [()] * M.shape[0]


def _sign_class(vec) -> tuple[tuple[int, ...] | None, int]:
    """vec times the sign of its first nonzero entry, and that sign; (None, 0) if vec is 0."""
    for x in vec:
        if x:
            return (tuple(vec), 1) if x > 0 else (tuple(map(operator.neg, vec)), -1)
    return None, 0


def _lowest_lift(rows, labels, signs, r: int, fixed: list[int] | None):
    """The lowest-mask maximiser among the lifts, over the sign classes of rows[:r].

    labels names each row's class (None for a zero row). fixed is the sum of
    the fixed rows times their signs, or None for the whole problem, where
    the last class is fixed at -1 instead. Returns the value, a[:r] as a
    list, and the rows, ascending, at which a maximiser of lower mask may
    first differ from a: the non-top members of merged classes where a is
    +1, and none if one mask alone attains the value.
    """
    members: dict[int, list[int]] = {}
    for i in range(r):
        if labels[i] is not None:
            members.setdefault(labels[i], []).append(i)
    classes = sorted(members.values(), key=operator.itemgetter(-1))
    q = [[len(c) * x for x in rows[c[-1]]] for c in classes]
    if fixed is not None:
        q.append([-x for x in fixed])
    value, masks = _best_masks(q) if q else (0, [0])
    a = [-1] * r
    for bit, c in enumerate(classes):
        tau = signs[c[-1]] * (1 if masks[0] >> bit & 1 else -1)
        for i in c:
            a[i] = signs[i] * tau
    tries = sorted(i for c in classes for i in c[:-1] if a[i] > 0) if len(masks) > 1 else []
    return value, a, tries


def _best_masks(q: list[list[int]]) -> tuple[int, list[int]]:
    """The largest ||tau^T Q||_1 over tau in {-1,1}^C with tau_{C-1} = -1, and its two lowest masks.

    Q has the rows q. One mask is returned if only one attains the largest
    value. See hypercube_bilinear_max for the screen, s and E.
    """
    c, g = len(q), len(q[0])
    total = sum(map(abs, itertools.chain.from_iterable(q)))
    if total < 2 ** 53:  # F = Q and the float scores are exact integers
        best, masks = _screen(np.array(q, dtype=float), 0.0)
        return int(best), masks
    Q = np.array(q, dtype=object)
    scale = 1 << max(0, total.bit_length() - 1000)
    err = (c + g + 4) * 2.0 ** -52 * (total / scale) + c * g * 2.0 ** -1074
    _, masks = _screen((Q / scale).astype(float), err)
    return _exact_best(Q, masks)


def _signed_sums(f: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Rows base + sum_c tau_c f_c, with tau_c = +1 where bit c of the row index is set.

    Built in place by doubling: each entry is one addition of +-f_c to an
    entry of the table over the rows before f_c.
    """
    table = np.empty((1 << len(f), len(base)))
    table[0] = base
    for c, row in enumerate(f):
        half = table[: 1 << c]
        np.add(half, row, out=table[1 << c : 2 << c])
        half -= row
    return table


def _screen(fm: np.ndarray, err: float):
    """The largest float score, and the masks, ascending, within 2 err of it.

    With err = 0 (exact integer scores) only the two lowest masks of the
    largest score are returned, as a list of ints.
    """
    c, g = fm.shape
    free = c - 1  # the last class's sign is fixed at -1
    fit = max(0, (SCREEN_BLOCK // max(g, 1)).bit_length() - 1)  # 2^fit rows fill a block
    low = min(free, fit)
    high = min(free - low, fit)
    lo = _signed_sums(fm[:low], np.zeros(g))
    buf = np.empty_like(lo)
    best, lowest, kept = -1.0, [], []
    for chunk in range(1 << (free - low - high)):
        # the chunk's base carries its signs on the classes above both tables
        base = -fm[free]
        for i in range(low + high, free):
            base = base + fm[i] if chunk >> (i - low - high) & 1 else base - fm[i]
        for j, row in enumerate(_signed_sums(fm[low : low + high], base)):
            # einsum sums each row in one pass, where sum(axis=1) is slow on short rows
            vals = np.einsum("ij->i", np.abs(np.add(lo, row, out=buf), out=buf))
            start = (chunk << high | j) << low
            i = int(vals.argmax())
            if vals[i] >= best:
                hits = [start + int(t) for t in np.flatnonzero(vals == vals[i])[:2]]
                lowest = hits if vals[i] > best else (lowest + hits)[:2]
                best = vals[i]
            if err:
                near = np.flatnonzero(vals >= best - 2 * err)
                kept.append((near + start, vals[near]))
    if not err:
        return best, lowest
    masks = np.concatenate([t for t, _ in kept])
    vals = np.concatenate([v for _, v in kept])
    return best, masks[vals >= best - 2 * err]


def _exact_best(Q: np.ndarray, masks: np.ndarray) -> tuple[int, list[int]]:
    """The largest Python-int ||tau^T Q||_1 over the ascending masks, and its two lowest masks."""
    c, g = Q.shape
    rows = max(1, SCREEN_BLOCK // max(g, 1))
    best, winners = -1, []
    for start in range(0, len(masks), rows):
        chunk = masks[start : start + rows]
        signs = (2 * ((chunk[:, None] >> np.arange(c)) & 1) - 1).astype(object)
        vals = np.abs(signs @ Q).sum(axis=1)
        top = max(vals)
        if top >= best:
            hits = [int(t) for t, v in zip(chunk, vals) if v == top][:2]
            winners = hits if top > best else (winners + hits)[:2]
            best = top
    return best, winners
