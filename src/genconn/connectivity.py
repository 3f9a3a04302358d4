"""Classical connectivity machinery via unit-vertex-capacity maximum flow.

Everything is built on one flow routine over the standard vertex-split
network: vertex v becomes v_in -> v_out with capacity 1 (overridable per
vertex), and each graph edge uv becomes the two arcs u_out -> v_in and
v_out -> u_in with capacity 1.  Augmenting paths are found by BFS in
ascending-id arc order, so path systems and connectivity values are
deterministic for a given input graph.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, is_complete, is_connected

_BIG = 1 << 30


class _SplitFlowNet:
    """The s-t flow of at most `limit` units, augmented on construction.

    s and t default to unbounded capacity.  Arcs are stored as parallel
    lists; arcs[i] and arcs[i^1] are a residual pair, and arc 2v is the
    split arc of vertex v.  The arcs are the same for every flow on a graph,
    so they are built once and kept in the graph's `_net` slot; a flow
    copies only the base capacities and sets the split arcs it caps."""

    def __init__(self, G: Graph, s: int, t: int, caps=None, limit=None):
        if G._net is None:
            pairs = [(2 * v, 2 * v + 1) for v in range(G.n)]
            pairs += [(2 * v + 1, 2 * w) for v in range(G.n) for w in G.neighbors(v)]
            head = [[] for _ in range(2 * G.n)]
            to = []
            for i, (a, b) in enumerate(pairs):
                head[a].append(2 * i)
                head[b].append(2 * i + 1)
                to += (b, a)
            G._net = head, to, [1, 0] * len(pairs)
        self.head, self.to, base = G._net
        self.cap = cap = list(base)
        caps = caps or {}
        for v, c in caps.items():
            if 0 <= v < G.n:
                cap[2 * v] = c
        for v in (s, t):
            if v not in caps:
                cap[2 * v] = _BIG
        self.s, self.t = s, t
        self.value = 0
        while (limit is None or self.value < limit) and self._augment():
            self.value += 1

    def _augment(self):
        """One BFS augmenting path from s_out to t_in; returns False if none.
        A node's parent arc is fixed when BFS first reaches it, so the search
        stops there for t_in."""
        src, dst = 2 * self.s + 1, 2 * self.t
        head, to, cap = self.head, self.to, self.cap
        prev = [-2] * len(head)     # parent arc; -2 unreached, -1 the source
        prev[src] = -1
        queue = deque([src])
        while queue and prev[dst] == -2:
            for i in head[queue.popleft()]:
                b = to[i]
                if cap[i] > 0 and prev[b] == -2:
                    prev[b] = i
                    if b == dst:
                        break
                    queue.append(b)
        i = prev[dst]
        while i >= 0:
            cap[i] -= 1
            cap[i ^ 1] += 1
            i = prev[to[i ^ 1]]
        return i == -1

    def paths(self):
        """Split the flow into `value` vertex-id paths s..t: from s_out,
        follow the first forward arc that carries flow until t_in."""
        # net flow on the even arc 2j is the residual on its partner 2j+1
        flow = self.cap[1::2]
        paths = []
        for _ in range(self.value):
            node = 2 * self.s + 1
            path = [self.s]
            while node != 2 * self.t:
                i = next((i for i in self.head[node] if i % 2 == 0 and flow[i // 2] > 0), None)
                if i is None:
                    raise AssertionError("flow decomposition failed at node %d" % node)
                flow[i // 2] -= 1
                node = self.to[i]
                if node % 2:
                    path.append(node // 2)      # left v_in by its split arc
            path.append(self.t)
            paths.append(path)
        return paths


def capped_flow_value(G: Graph, s: int, t: int, caps=None, limit=None) -> int:
    """Max s-t flow value with per-vertex capacities (default 1 internal)."""
    return _SplitFlowNet(G, s, t, caps, limit).value


def disjoint_paths(G: Graph, x: int, y: int, want=None) -> list:
    """Maximum-cardinality (capped at `want`) internally disjoint x-y paths.

    A direct edge counts as one path.  Returns [] for a disconnected pair.
    Paths are sorted by (length, sequence) so the direct edge, if any, comes
    first.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    paths = _SplitFlowNet(G, x, y, limit=want).paths()
    return sorted(paths, key=lambda p: (len(p), p))


def vertex_connectivity(G: Graph) -> int:
    """kappa(G): n-1 for complete graphs, 0 if disconnected, else the minimum
    over the standard candidate pairs of vertex-disjoint-path counts."""
    if G.n == 0:
        raise ValueError("empty graph")
    if G.n == 1:
        return 0
    if not is_connected(G):
        return 0
    if is_complete(G):
        return G.n - 1
    # fix a minimum-degree root; a minimum cut either avoids it (then it
    # separates it from some non-neighbor) or contains it (then it separates
    # two of its neighbors, which are non-adjacent across the cut)
    x0 = min(range(G.n), key=lambda u: (G.degree(u), u))
    best = G.degree(x0)
    nbrs = set(G.neighbors(x0))
    for v in range(G.n):
        if v != x0 and v not in nbrs:
            val = capped_flow_value(G, x0, v, limit=best)
            if val < best:
                best = val
    ns = sorted(nbrs)
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            u, w = ns[i], ns[j]
            if not G.has_edge(u, w):
                val = capped_flow_value(G, u, w, limit=best)
                if val < best:
                    best = val
    return best
