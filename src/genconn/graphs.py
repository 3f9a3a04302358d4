"""Finite simple undirected graphs, product constructions, and tree predicates.

Conventions used across the package:

- Vertices are dense integer ids 0..n-1.
- Graphs are immutable after construction; every operation here is a pure
  function, so concurrent reads need no locking.
- A graph's `_net` slot, None until the first max-flow on it, holds the
  arc layout of its vertex-split flow network (see `connectivity`).  It is
  derived data, filled lazily and never changed after, so the graph stays
  immutable; two threads that fill it at once build equal layouts.
  The `_pair_kappa` slot beside it, None until the first
  `connectivity.local_connectivity` on the graph, maps a vertex pair x < y
  to its local connectivity.  It is derived the same way: each entry is
  written once, and two threads that write one write the same value.
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

    __slots__ = ("n", "_adj", "_nbrs", "_net", "_pair_kappa")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_size("graph", n)
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
        self._pair_kappa = None

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


# the largest vertex count of any graph the package builds: an edge-list
# header, a certificate factor, a family or a product above it fails before
# anything of that size is allocated.  A graph keeps about 240 bytes per
# vertex before any edge (2.3 MiB at this order, 23 GiB at 10^8), and the
# exact oracle settles hosts of tens of vertices, far below this order
MAX_ORDER = 10_000

# the largest edge count of an edge list, a family or a product, checked
# before its edge list is built.  A built graph keeps about 140 bytes per
# edge (200 at the peak of its build), and its first max flow adds a
# network of about 340 more (500 at its peak): about 0.7 GB at this limit,
# where complete:10000 would ask for 5 * 10^7 edges and about 35 GB
MAX_EDGES = 1_000_000


def _check_size(what: str, n: int, edges: int = 0):
    if n > MAX_ORDER:
        raise ValueError("%s of %d vertices is above the limit of %d" % (what, n, MAX_ORDER))
    if edges > MAX_EDGES:
        raise ValueError("%s of %d edges is above the limit of %d" % (what, edges, MAX_EDGES))


def check_product_size(kind: str, G: Graph, H: Graph):
    """Fail before the product of G and H of this kind outgrows `MAX_ORDER`
    or `MAX_EDGES`: |E(G)| m^2 + n |E(H)| edges on a lexicographic product,
    |E(G)| m + n |E(H)| on a cartesian one, for n = |G| and m = |H|."""
    if G.n == 0 or H.n == 0:
        raise ValueError("product factors must be nonempty")
    m = H.n
    per_edge = m * m if kind == "lexicographic" else m
    _check_size("%s product" % kind, G.n * m, G.edge_count * per_edge + G.n * H.edge_count)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format (first line n, then "u v" lines).

    Errors name the offending 1-based line.  A vertex count above
    `MAX_ORDER`, or an edge past `MAX_EDGES`, fails at its line.
    """
    n = None
    edges = []
    for idx, raw in enumerate(text.splitlines(), start=1):
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
            if n > MAX_ORDER:
                raise ValueError("line %d: vertex count %d is above the limit of %d"
                                 % (idx, n, MAX_ORDER))
            continue
        if len(parts) != 2:
            raise ValueError("line %d: expected 'u v', got %r" % (idx, raw))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError("line %d: bad edge %r" % (idx, raw))
        if not 0 <= u < n or not 0 <= v < n or u == v:
            raise ValueError("line %d: invalid edge (%d, %d) for order %d" % (idx, u, v, n))
        if len(edges) == MAX_EDGES:
            raise ValueError("line %d: more than %d edges" % (idx, MAX_EDGES))
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
    edges = {"path": size - 1, "cycle": size, "complete": size * (size - 1) // 2,
             "star": size - 1}[kind]
    _check_size("family %s" % kind, size, edges)
    if kind == "path":
        return Graph(size, [(i, i + 1) for i in range(size - 1)])
    if kind == "cycle":
        return Graph(size, [(i, (i + 1) % size) for i in range(size)])
    if kind == "complete":
        return Graph(size, [(i, j) for i in range(size) for j in range(i + 1, size)])
    return Graph(size, [(0, i) for i in range(1, size)])


def lexicographic_product(G: Graph, H: Graph) -> ProductGraph:
    """G o H: (u,v) ~ (u',v') iff uu' in E(G), or u = u' and vv' in E(H)."""
    check_product_size("lexicographic", G, H)
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
    check_product_size("cartesian", G, H)
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


def root_paths(parent: dict, root: int, S) -> tuple | None:
    """The union of the paths from each vertex of S to `root` in a tree
    given by `parent` (root's entry None): its sorted edges (u, v), u < v,
    and its vertex set; None when a vertex of S is not in the tree.  Its
    leaves lie in S."""
    edges = []
    verts = {root}
    for v in S:
        if v not in parent:
            return None
        while v not in verts:
            u = parent[v]
            edges.append((u, v) if u < v else (v, u))
            verts.add(v)
            v = u
    return tuple(sorted(edges)), verts


def is_tree(G: Graph) -> bool:
    return G.n >= 1 and G.edge_count == G.n - 1 and is_connected(G)


def is_complete(G: Graph) -> bool:
    return G.edge_count == G.n * (G.n - 1) // 2


def is_path_graph(G: Graph) -> bool:
    if not is_tree(G):
        return False
    return all(G.degree(u) <= 2 for u in range(G.n))
