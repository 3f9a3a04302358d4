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
    lists; arcs[i] and arcs[i^1] are a residual pair."""

    def __init__(self, G: Graph, s: int, t: int, caps=None, limit=None):
        caps = dict(caps or {})
        caps.setdefault(s, _BIG)
        caps.setdefault(t, _BIG)
        self.head = [[] for _ in range(2 * G.n)]
        self.to = []
        self.cap = []
        for v in range(G.n):
            self._arc(2 * v, 2 * v + 1, caps.get(v, 1))
        for v in range(G.n):
            for w in G.neighbors(v):
                self._arc(2 * v + 1, 2 * w, 1)
        self.s, self.t = s, t
        self.value = 0
        while (limit is None or self.value < limit) and self._augment():
            self.value += 1

    def _arc(self, a, b, c):
        self.head[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(c)
        self.head[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)

    def _augment(self):
        """One BFS augmenting path from s_out to t_in; returns False if none."""
        src, dst = 2 * self.s + 1, 2 * self.t
        prev = {src: None}
        queue = deque([src])
        while queue:
            a = queue.popleft()
            if a == dst:
                break
            for i in self.head[a]:
                b = self.to[i]
                if self.cap[i] > 0 and b not in prev:
                    prev[b] = i
                    queue.append(b)
        if dst not in prev:
            return False
        b = dst
        while prev[b] is not None:
            i = prev[b]
            self.cap[i] -= 1
            self.cap[i ^ 1] += 1
            b = self.to[i ^ 1]
        return True

    def paths(self):
        """Split the flow into `value` vertex-id paths s..t."""
        s, t = self.s, self.t
        # net forward flow on an even arc equals the residual on its partner
        flow = {}
        for i in range(0, len(self.to), 2):
            if self.cap[i ^ 1] > 0:
                flow[i] = self.cap[i ^ 1]
        paths = []
        for _ in range(self.value):
            node = 2 * s + 1
            path = [s]
            while node != 2 * t:
                picked = None
                for i in self.head[node]:
                    if i % 2 == 0 and flow.get(i, 0) > 0:
                        picked = i
                        break
                if picked is None:
                    raise AssertionError("flow decomposition failed")
                flow[picked] -= 1
                node = self.to[picked]
                if node % 2 == 0 and node != 2 * t:
                    # entering v_in; traverse the split arc next
                    v = node // 2
                    for i in self.head[node]:
                        if i % 2 == 0 and flow.get(i, 0) > 0 and self.to[i] == 2 * v + 1:
                            flow[i] -= 1
                            node = 2 * v + 1
                            break
                    else:
                        raise AssertionError("flow decomposition failed at vertex %d" % v)
                    path.append(v)
            path.append(t)
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
