"""Finite simple undirected graphs, product constructions, and tree utilities.

Conventions used across the package:

- Vertices are dense integer ids 0..n-1.
- Graphs are immutable after construction; every operation here is a pure
  function, so concurrent reads need no locking.
- A graph's `_net` slot, None until the first max-flow on it, holds the
  arc layout of its vertex-split flow network (see `connectivity`).  It is
  derived data, filled lazily and never changed after, so the graph stays
  immutable; two threads that fill it at once build equal layouts.
- A product vertex (g, h) is stored flat as g*m + h where m is the order of
  the right factor, so factor coordinates are recoverable by divmod and fiber
  membership tests are O(1).
- Edge-list text format: first line is the vertex count n, each following
  non-empty line is "u v" with 0-indexed endpoints.
"""

from __future__ import annotations

from collections import deque


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Duplicate edges in the input collapse silently; loops and out-of-range
    ids are rejected.  Adjacency is kept both as sets (membership tests) and
    as sorted tuples (deterministic iteration).
    """

    __slots__ = ("n", "_adj", "_nbrs", "_net")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise ValueError("vertex id out of range in edge (%s, %s)" % (u, v))
            if u == v:
                raise ValueError("loop edge at vertex %s" % u)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = adj
        self._nbrs = tuple(tuple(sorted(s)) for s in adj)
        self._net = None

    def neighbors(self, u: int) -> tuple:
        return self._nbrs[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list:
        out = []
        for u in range(self.n):
            for v in self._nbrs[u]:
                if u < v:
                    out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError("edge (%s, %s) not present" % (u, v))
        drop = (min(u, v), max(u, v))
        return Graph(self.n, [e for e in self.edges() if e != drop])

    def __repr__(self):
        return "Graph(n=%d, edges=%d)" % (self.n, self.edge_count)


class ProductGraph(Graph):
    """A graph product; remembers its factors and the flat-index layout."""

    __slots__ = ("left", "right", "kind")

    def __init__(self, left: Graph, right: Graph, kind: str, edges):
        super().__init__(left.n * right.n, edges)
        self.left = left
        self.right = right
        self.kind = kind

    def flatten(self, g: int, h: int) -> int:
        m = self.right.n
        if not (0 <= g < self.left.n) or not (0 <= h < m):
            raise ValueError("coordinate (%s, %s) out of range" % (g, h))
        return g * m + h

    def unflatten(self, p: int) -> tuple:
        if not (0 <= p < self.n):
            raise ValueError("flat index %s out of range" % p)
        return divmod(p, self.right.n)

    def __repr__(self):
        return "ProductGraph(kind=%s, %d x %d)" % (self.kind, self.left.n, self.right.n)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format (first line n, then "u v" lines).

    Errors name the offending 1-based line.
    """
    lines = text.splitlines()
    idx = 0
    n = None
    edges = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise ValueError("line %d: expected vertex count, got %r" % (idx, raw))
            try:
                n = int(parts[0])
            except ValueError:
                raise ValueError("line %d: bad vertex count %r" % (idx, raw))
            continue
        if len(parts) != 2:
            raise ValueError("line %d: expected 'u v', got %r" % (idx, raw))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError("line %d: bad edge %r" % (idx, raw))
        if n is not None and (not 0 <= u < n or not 0 <= v < n or u == v):
            raise ValueError("line %d: invalid edge (%d, %d) for order %d" % (idx, u, v, n))
        edges.append((u, v))
    if n is None:
        raise ValueError("empty edge-list input")
    return Graph(n, edges)


def format_edge_list(G: Graph) -> str:
    lines = [str(G.n)]
    lines.extend("%d %d" % e for e in G.edges())
    return "\n".join(lines) + "\n"


_FAMILY_MIN = {"path": 1, "complete": 1, "cycle": 3, "star": 2}


def family(kind: str, size: int) -> Graph:
    """Canonical labeled family: path (i ~ i+1), cycle, complete, star (center 0)."""
    if kind not in _FAMILY_MIN:
        raise ValueError("unknown family kind %r" % kind)
    if size < _FAMILY_MIN[kind]:
        raise ValueError("family %s needs size >= %d" % (kind, _FAMILY_MIN[kind]))
    if kind == "path":
        return Graph(size, [(i, i + 1) for i in range(size - 1)])
    if kind == "cycle":
        return Graph(size, [(i, (i + 1) % size) for i in range(size)])
    if kind == "complete":
        return Graph(size, [(i, j) for i in range(size) for j in range(i + 1, size)])
    return Graph(size, [(0, i) for i in range(1, size)])


def lexicographic_product(G: Graph, H: Graph) -> ProductGraph:
    """G o H: (u,v) ~ (u',v') iff uu' in E(G), or u = u' and vv' in E(H)."""
    if G.n == 0 or H.n == 0:
        raise ValueError("product factors must be nonempty")
    m = H.n
    edges = []
    for (u, u2) in G.edges():
        for v in range(m):
            for v2 in range(m):
                edges.append((u * m + v, u2 * m + v2))
    for u in range(G.n):
        for (v, v2) in H.edges():
            edges.append((u * m + v, u * m + v2))
    return ProductGraph(G, H, "lexicographic", edges)


def cartesian_product(G: Graph, H: Graph) -> ProductGraph:
    """G box H: (u,v) ~ (u',v') iff u = u' and vv' in E(H), or v = v' and uu' in E(G)."""
    if G.n == 0 or H.n == 0:
        raise ValueError("product factors must be nonempty")
    m = H.n
    edges = []
    for (u, u2) in G.edges():
        for v in range(m):
            edges.append((u * m + v, u2 * m + v))
    for u in range(G.n):
        for (v, v2) in H.edges():
            edges.append((u * m + v, u * m + v2))
    return ProductGraph(G, H, "cartesian", edges)


def min_degree(G: Graph) -> int:
    if G.n == 0:
        raise ValueError("empty graph has no minimum degree")
    return min(G.degree(u) for u in range(G.n))


def is_connected(G: Graph) -> bool:
    return G.n <= 1 or len(connected_component(G, 0)) == G.n


def connected_component(G: Graph, start: int) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in G.neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def is_tree(G: Graph) -> bool:
    return G.n >= 1 and G.edge_count == G.n - 1 and is_connected(G)


def is_complete(G: Graph) -> bool:
    return G.edge_count == G.n * (G.n - 1) // 2


def is_path_graph(G: Graph) -> bool:
    if not is_tree(G):
        return False
    return all(G.degree(u) <= 2 for u in range(G.n))


def tree_path(T: Graph, a: int, b: int) -> list:
    """The unique a-b path of a tree, as a vertex list including endpoints."""
    parent = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for v in T.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if b not in parent:
        raise ValueError("vertices %s and %s are not connected" % (a, b))
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def tree_median(T: Graph, a: int, b: int, c: int) -> int:
    """The unique vertex lying on all three pairwise paths of a tree.

    Equals one of the terminals exactly when some path of T contains all
    three; otherwise it is the branch vertex of the minimal subtree spanning
    {a, b, c}.  T may carry isolated vertices besides the tree, as a base
    S-tree laid on all the vertices of its host does.
    """
    if len({a, b, c}) != 3:
        raise ValueError("terminals must be distinct")
    # the component of a is a tree and holds every edge exactly when it
    # has one vertex more than T has edges
    if len(connected_component(T, a)) != T.edge_count + 1:
        raise ValueError("graph is not a tree plus isolated vertices")
    pab = set(tree_path(T, a, b))
    pbc = set(tree_path(T, b, c))
    pac = set(tree_path(T, a, c))
    # the three paths of a tree meet in exactly one vertex
    return (pab & pbc & pac).pop()
