"""Dinic's max flow with a recursive DFS: the oracle for engines.max_flow.

This is the solver as asymdep had it before its DFS kept an explicit path
stack, on plain (from, to, capacity) triples, so it shares no code with
what it checks. The recursion is as deep as the level graph, so it is for
small networks only.
"""
from collections import deque


def max_flow(node_count, edges, source, sink):
    """(flow value, per-edge flows in the order of edges)."""
    n = node_count
    head, cap = [], []
    adj = [[] for _ in range(n)]
    for a, b, c in edges:
        adj[a].append(len(head))
        head.append(b)
        cap.append(c)
        adj[b].append(len(head))
        head.append(a)
        cap.append(c * 0)

    def bfs():
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

    def dfs(u, pushed, level, it):
        if u == sink:
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

    inf = sum(c for a, _, c in edges if a == source) + 1
    total = None
    while True:
        level = bfs()
        if level is None:
            break
        it = [0] * n
        while True:
            pushed = dfs(source, inf, level, it)
            if pushed == 0:
                break
            total = pushed if total is None else total + pushed
    if total is None:
        total = edges[0][2] * 0 if edges else 0
    return total, [c - cap[2 * i] for i, (_, _, c) in enumerate(edges)]
