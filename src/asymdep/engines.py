"""Reusable optimization kernels: max-flow, hub transshipment, hypercube bilinear max.

The max-flow solver is one Dinic loop over a residual graph held in flat
int lists, in Python ints, so the flow is exact. It starts from any feasible
flow: max_flow runs it from zero on a checked FlowNetwork, and the Prokhorov
scan from the closed-form first phase of its coupling networks. Its DFS
keeps the path on an explicit stack, so the depth of the level graph is not
bounded by Python's recursion limit.
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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, InputError

# most float additions, 2^(C - 1) x G, that exact enumeration accepts (alpha
# and cov_sup too): C sign classes of rows on the smaller side, G merged
# columns. One call in a fresh process (Python 3.11, 2 vCPUs) at the budget
# on random integer matrices: 22 x 256 takes 0.76-0.88 s and 37 MB peak RSS
# (43 MB with entries near 2^80), 20 x 1024 0.56-0.74 s, 18 x 4096 0.8-1.3 s,
# and the widest rows measured cost most, 15 x 32768 taking 1.8-2.0 s and
# 105 MB (one score per block, the chunk's base scored as it is, each base
# costing fewer than two more additions on average). Below it, a random
# 22 x 22 takes 0.07-0.11 s and binary_coding n = 12 (12 classes, 2048
# merged columns, 2^22 additions) 0.02-0.03 s.
BILINEAR_EXACT_BUDGET = 1 << 29
# most floats in one block of the hypercube screen's scores, and in a half table
SCREEN_BLOCK = 1 << 15


def _ints(name: str, values) -> list[int]:
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise InputError(f"{name} must be integers") from None


@dataclass(frozen=True)
class FlowNetwork:
    node_count: int
    edges: tuple[tuple[int, int, int], ...]  # (from, to, capacity)
    source: int
    sink: int

    def __post_init__(self) -> None:
        """Check the edges column by column; endpoints and capacities become Python ints.

        A capacity that is not an integer (a float or a Fraction) is an InputError.
        """
        if self.source == self.sink:
            raise InputError("source and sink must differ")
        edges = tuple(self.edges)
        tails, heads, caps = tuple(zip(*edges)) or ((), (), ())
        if set(map(type, tails + heads + caps)) - {int}:
            tails, heads = tuple(map(int, tails)), tuple(map(int, heads))
            caps = tuple(_ints("capacities", caps))
            edges = tuple(zip(tails, heads, caps))
        object.__setattr__(self, "edges", edges)
        if any(map(operator.eq, tails, heads)):
            raise InputError("self-loops are not allowed")
        if edges and not (0 <= min(tails + heads) and max(tails + heads) < self.node_count):
            raise InputError("edge endpoint out of range")
        if caps and min(caps) < 0:
            raise InputError("capacities must be nonnegative")


def max_flow(net: FlowNetwork) -> tuple[int, list[int]]:
    """Maximum flow value and per-edge flows (same order as net.edges).

    Dinic's algorithm from the zero flow: augment_flow on the checked
    network. The flows are those of the recursive search in
    tests/flow_oracle.py, bit for bit.

    On a coupling network (source -> x for each row x, then the pairs
    x -> y in row-major order, then y -> sink for each column y, every pair's
    capacity at least each row's and column's) the first phase has a closed
    form. At zero flow the level graph holds every forward arc, and the DFS
    takes the rows in order and each row's pairs in order, pushing along
    pair (x, y) the least of what is left of x's and y's capacities: the
    pair's own capacity never binds. The push saturates x's arc (the DFS
    returns to the source and goes on to x + 1) or y's (y dead-ends from
    then on), so no pair is pushed twice, and the phase is the greedy
    that fills the pairs in row-major order. The Prokhorov scan writes it
    down and hands only the later phases to augment_flow.
    """
    tails, heads, caps = (list(col) for col in zip(*net.edges)) if net.edges else ([], [], [])
    return augment_flow(net.node_count, tails, heads, caps, [0] * len(caps), net.source, net.sink)


def augment_flow(node_count, tails, heads, caps, flows, source, sink) -> tuple[int, list[int]]:
    """Dinic's algorithm from a feasible flow: the value it adds and the final per-edge flows.

    Edge i runs tails[i] -> heads[i] with capacity caps[i] and starts with
    flows[i], all Python ints; the flows must be feasible (within the
    capacities, conserved at every node but the source and sink). Nothing
    is checked here: max_flow checks a FlowNetwork, and the Prokhorov scan
    builds its coupling networks itself. From the zero flow the result is
    max_flow's; from the flow that Dinic's first phases leave, it is the
    rest of that run.

    The residual graph is flat int lists: arc 2i is edge i forward, of
    residual capacity caps[i] - flows[i], and arc 2i + 1 backward, of
    flows[i]; out[first[u]:first[u + 1]] are u's arcs in edge order. Each
    phase labels the nodes by BFS from the source and stops once it labels
    the sink: a node labelled later has at least the sink's level, so no
    path of increasing levels leads from it to the sink, and the DFS would
    only dead-end there.

    The DFS keeps its path from the source on an explicit stack, so a level
    graph of any depth needs no recursion. At node u it scans the arcs from
    the pointer it[u] on and takes the first with residual capacity into the
    next level. A dead end pops back to the arc's tail and moves that
    pointer past it; a path to the sink is augmented by the least residual
    capacity along it and then cut back to the tail of its first saturated
    arc, where a search restarted from the source would arrive again, as
    the pointers above that arc still name the path's own arcs.
    """
    arcs = 2 * len(caps)
    head, cap = [0] * arcs, [0] * arcs
    head[0::2], head[1::2] = heads, tails
    cap[0::2], cap[1::2] = map(operator.sub, caps, flows), flows
    tail = np.array([tails, heads], dtype=np.intp).T.ravel()  # tail[e] = head[e ^ 1]
    # the arcs grouped by tail, each group in arc order
    out = np.argsort(tail, kind="stable").tolist()
    first = [0] + np.cumsum(np.bincount(tail, minlength=node_count)).tolist()
    total = 0
    while (level := _levels(out, first, head, cap, source, sink)) is not None:
        it = first[:-1]  # u's next arc to try is out[it[u]]
        path: list[int] = []  # arc ids from the source to u
        u = source
        while True:
            if u == sink:
                pushed = min(map(cap.__getitem__, path))
                cut = -1
                for k, eid in enumerate(path):
                    cap[eid] -= pushed
                    cap[eid ^ 1] += pushed
                    if cut < 0 and not cap[eid]:
                        cut = k
                total += pushed
                del path[cut:]
                u = head[path[-1]] if path else source
                continue
            i, end, nxt = it[u], first[u + 1], level[u] + 1
            while i < end:
                eid = out[i]
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
    return total, cap[1::2]


def _levels(out, first, head, cap, source, sink) -> list[int] | None:
    """BFS levels over the arcs of positive residual capacity, up to the
    sink's; None if the sink is unreachable."""
    level = [-1] * (len(first) - 1)
    level[source] = 0
    queue = [source]
    for u in queue:  # the list grows while it is read: a FIFO queue
        nxt = level[u] + 1
        for eid in out[first[u] : first[u + 1]]:
            v = head[eid]
            if level[v] < 0 and cap[eid] > 0:
                level[v] = nxt
                if v == sink:
                    return level
                queue.append(v)
    return None


# smallest block of edges that the network simplex prices at a time
PRICING_BLOCK_MIN = 32


class HubFlow(NamedTuple):
    """An optimal flow of hub_transshipment and its dual, in Python ints."""

    cost: int
    potentials: tuple[int, ...]  # pi(i); pi(hub) = 0
    # the final basis: node i's tree arc tails[i] -> heads[i] with flows[i]
    tree: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


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
    a, of value v(a) = ||a^T M||_1. It returns the lift a* (below) of the
    lowest-mask maximiser over the sign classes, and b = sign(a*^T M), +1 at
    0. The value is exact, a Python int re-derived from the sign vectors, and
    a and b are float arrays. One enumeration is the whole call.

    Reduction. Zero columns drop, and the columns equal up to sign merge into
    one column (its first nonzero entry positive) times their count, which
    leaves v(a) unchanged for every a. On the enumerated side the rows equal
    up to sign form a sign class c (zero rows form none); s_i is the sign of
    row i's first nonzero entry. Class c's row is its top (highest-index)
    member's row times the class size p_c, and the classes are ordered by
    their top rows. One enumeration over the classes' signs tau, the last
    class fixed at -1 (tau_c = +1 where bit c of the mask is set), finds the
    lowest mask tau* of largest value V. Its lift a* has a*_i = s_i s_top
    tau*_c (zero rows -1). For any a, a^T M = sum_c y_c p_c M_top(c) with y
    in the box [-1, 1]^classes, so v(a) = f(y) for a convex f whose maximum
    over the box, attained at a vertex, is V: V is the largest v(a), and
    v(a*) = V. With a_i = +1 where bit i of a's mask is set, the highest row
    at which two lifts differ is the top of the highest class at which their
    taus differ, and takes tau's sign there, so lifts are ordered as their
    taus: a* is the lowest-mask maximiser among the lifts. Where V is tied, a
    sign vector of lower mask that mixes signs inside a merged class may
    attain V too; the kernel does not search for it.

    Budget. The screen below costs 2^(C - 1) G float additions for C classes
    and G merged columns, plus fewer than two per chunk's base. A call whose
    2^(C - 1) G exceeds BILINEAR_EXACT_BUDGET raises CapabilityError before
    the screen starts.

    Screen. An enumeration scores every mask in float64 and re-ranks the
    survivors in Python ints. With S = sum |Q| for its integer matrix Q
    (C class rows by G merged columns; the reduction keeps the input's S) and
    s = max(0, bitlength(S) - 1000), the screen scores
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
    floats from that chunk's base, the signed sum of the rows of the classes
    above both tables, added from the highest down; consecutive chunks share
    the partial sums over their common high bits. The screen's working set is a few blocks
    and at most C rows of G floats, whatever C.
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
    order, are re-scored in Python ints, so the lowest maximising mask tau*
    is found exactly. When S < 2^53, s = 0 and every partial sum is an exactly
    represented integer, so E = 0, v^ = v and the screen alone decides.
    """
    M = inst.matrix
    transposed = M.shape[1] < M.shape[0]
    if transposed:
        M = M.T
    rows = _merged_rows(M)
    keys, signs = zip(*map(_sign_class, rows)) if rows else ((), ())
    ids: dict[tuple[int, ...], int] = {}
    labels = [None if key is None else ids.setdefault(key, len(ids)) for key in keys]
    free, columns = len(ids) - 1, len(rows[0]) if rows else 0
    if ids and columns << free > BILINEAR_EXACT_BUDGET:
        raise CapabilityError(
            f"exact hypercube enumeration needs at most {BILINEAR_EXACT_BUDGET} float "
            f"additions (2^(sign classes of rows on the smaller side - 1) x merged "
            f"columns), got 2^{free} x {columns}"
        )
    a = _lowest_lift(rows, labels, signs)
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


def _lowest_lift(rows, labels, signs) -> list[int]:
    """The lift of the lowest class mask of largest value, over the sign classes of rows.

    labels names each row's class (None for a zero row) and signs its sign
    s_i; the last class is fixed at -1.
    """
    members: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        if label is not None:
            members.setdefault(label, []).append(i)
    classes = sorted(members.values(), key=operator.itemgetter(-1))
    a = [-1] * len(rows)
    if classes:
        mask = _best_mask([[len(c) * x for x in rows[c[-1]]] for c in classes])
        for bit, c in enumerate(classes):
            tau = signs[c[-1]] * (1 if mask >> bit & 1 else -1)
            for i in c:
                a[i] = signs[i] * tau
    return a


def _best_mask(q: list[list[int]]) -> int:
    """The lowest mask of largest ||tau^T Q||_1 over tau in {-1,1}^C with tau_{C-1} = -1.

    Q has the rows q. See hypercube_bilinear_max for the screen, s and E.
    """
    c, g = len(q), len(q[0])
    total = sum(map(abs, itertools.chain.from_iterable(q)))
    if total < 2 ** 53:  # F = Q and the float scores are exact integers
        return _screen(np.array(q, dtype=float), 0.0)
    Q = np.array(q, dtype=object)
    scale = 1 << max(0, total.bit_length() - 1000)
    err = (c + g + 4) * 2.0 ** -52 * (total / scale) + c * g * 2.0 ** -1074
    return _exact_best(Q, _screen((Q / scale).astype(float), err))


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
    """The masks, ascending, whose float scores are within 2 err of the largest.

    With err = 0 (exact integer scores) only the lowest mask of the largest
    score is returned, as an int.
    """
    c, g = fm.shape
    free = c - 1  # the last class's sign is fixed at -1
    fit = max(0, (SCREEN_BLOCK // max(g, 1)).bit_length() - 1)  # 2^fit rows fill a block
    low = min(free, fit)
    high = min(free - low, fit)
    lo = _signed_sums(fm[:low], np.zeros(g))
    buf = np.empty_like(lo)
    best, lowest, kept = -1.0, 0, []
    top = free - low - high
    # the chunk's base carries its signs on the classes above both tables;
    # bases[d] adds the top d of them to -fm[free], from the highest class down,
    # and a chunk keeps the sums over the bits above its lowest set bit, which
    # it shares with the chunk before
    bases = [-fm[free]]
    for chunk in range(1 << top):
        del bases[top + 1 - (chunk & -chunk).bit_length() :]
        for i in range(free - len(bases), low + high - 1, -1):
            bases.append(bases[-1] + fm[i] if chunk >> (i - low - high) & 1 else bases[-1] - fm[i])
        # with no high table the base is the one row, and with no low table
        # (one row fills a block) that row is the score's whole sum
        table = _signed_sums(fm[low : low + high], bases[-1]) if high else bases[-1][None]
        for j, row in enumerate(table):
            # einsum sums each row in one pass, where sum(axis=1) is slow on short rows
            summed = np.add(lo, row, out=buf) if low else row[None]
            vals = np.einsum("ij->i", np.abs(summed, out=buf))
            start = (chunk << high | j) << low
            # the blocks come in mask order and argmax takes a block's first
            i = int(vals.argmax())
            if vals[i] > best:
                best, lowest = vals[i], start + i
            if err:
                near = np.flatnonzero(vals >= best - 2 * err)
                kept.append((near + start, vals[near]))
    if not err:
        return lowest
    masks = np.concatenate([t for t, _ in kept])
    vals = np.concatenate([v for _, v in kept])
    return masks[vals >= best - 2 * err]


def _exact_best(Q: np.ndarray, masks: np.ndarray) -> int:
    """The lowest of the ascending masks of largest Python-int ||tau^T Q||_1."""
    c, g = Q.shape
    rows = max(1, SCREEN_BLOCK // max(g, 1))
    best, winner = -1, 0
    for start in range(0, len(masks), rows):
        chunk = masks[start : start + rows]
        signs = (2 * ((chunk[:, None] >> np.arange(c)) & 1) - 1).astype(object)
        vals = np.abs(signs @ Q).sum(axis=1).tolist()
        top = max(vals)
        if top > best:
            best, winner = top, int(chunk[vals.index(top)])
    return winner
