"""Exhaustive reference implementations, independent of the package.

Everything here recomputes from first principles on explicit edge lists:
candidate trees are enumerated as frozen edge sets and packings found by
plain backtracking over them: paths for two terminals, tripods for three,
and for four or more every spanning tree of every vertex set containing
the terminals (hosts of at most 7 vertices).  Nothing in this file is
clever on purpose, and nothing imports from genconn; keep inputs tiny.
"""

from itertools import combinations


def _neighbors(edges, v):
    out = []
    for a, b in edges:
        if a == v:
            out.append(b)
        elif b == v:
            out.append(a)
    return sorted(out)


def _connected(n, edges, verts):
    verts = set(verts)
    if not verts:
        return True
    stack = [min(verts)]
    seen = {stack[0]}
    while stack:
        v = stack.pop()
        for w in _neighbors(edges, v):
            if w in verts and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def simple_paths(edges, a, b):
    """All simple a-b paths as vertex tuples."""
    out = []

    def walk(path, seen):
        v = path[-1]
        if v == b:
            out.append(tuple(path))
            return
        for w in _neighbors(edges, v):
            if w not in seen:
                path.append(w)
                seen.add(w)
                walk(path, seen)
                seen.remove(w)
                path.pop()

    walk([a], {a})
    return out


def path_edge_set(path):
    return frozenset((min(u, v), max(u, v)) for u, v in zip(path, path[1:]))


def candidate_pair_trees(edges, S):
    a, b = sorted(S)
    return sorted({path_edge_set(p) for p in simple_paths(edges, a, b)},
                  key=lambda t: (len(t), sorted(t)))


def candidate_triple_trees(n, edges, S):
    """S-trees built as a center joined to the terminals by legs sharing
    only the center (center inside S collapses one leg).

    The list contains every minimal S-tree, possibly plus some non-minimal
    ones; that is enough, because a maximum packing can always be rebuilt
    from minimal trees and extra candidates never shrink the optimum.
    """
    x, y, z = sorted(S)
    found = set()
    for c in range(n):
        targets = [t for t in (x, y, z) if t != c]
        legs = [simple_paths(edges, c, t) for t in targets]
        if c in (x, y, z):
            for p in legs[0]:
                pv = set(p)
                for q in legs[1]:
                    if pv & set(q) == {c}:
                        found.add(path_edge_set(p) | path_edge_set(q))
        else:
            for p in legs[0]:
                pv = set(p) - {c}
                for q in legs[1]:
                    qv = set(q) - {c}
                    if pv & qv:
                        continue
                    pq = pv | qv
                    for r in legs[2]:
                        if pq & (set(r) - {c}):
                            continue
                        found.add(path_edge_set(p) | path_edge_set(q)
                                  | path_edge_set(r))
    return sorted(found, key=lambda t: (len(t), sorted(t)))


def _is_tree_on(verts, edges):
    """Whether `edges` form a spanning tree of `verts`: one fewer edge than
    vertices and no cycle, checked by merging labels."""
    if len(edges) != len(verts) - 1:
        return False
    label = {v: v for v in verts}
    for u, v in edges:
        a, b = label[u], label[v]
        if a == b:
            return False
        for w in verts:
            if label[w] == a:
                label[w] = b
    return True


MINIMAL_TREES_MAX_ORDER = 7


def minimal_trees(n, edges, S):
    """Every minimal S-tree (a tree containing S whose leaves all lie in S).

    Tries every vertex set W containing S and every |W| - 1 edges that W
    induces; keeps the spanning trees of W in which no vertex outside S is
    a leaf.  The subset loops are exponential, so hosts are limited to
    MINIMAL_TREES_MAX_ORDER vertices.
    """
    if n > MINIMAL_TREES_MAX_ORDER:
        raise ValueError("minimal_trees takes hosts of at most %d vertices"
                         % MINIMAL_TREES_MAX_ORDER)
    S = sorted(set(S))
    rest = [v for v in range(n) if v not in S]
    norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
    found = []
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            W = set(S) | set(extra)
            inner = [e for e in norm if e[0] in W and e[1] in W]
            for T in combinations(inner, len(W) - 1):
                if not _is_tree_on(W, T):
                    continue
                degree = {v: 0 for v in W}
                for u, v in T:
                    degree[u] += 1
                    degree[v] += 1
                if all(degree[v] >= 2 for v in extra):
                    found.append(frozenset(T))
    return sorted(found, key=lambda t: (len(t), sorted(t)))


def tree_packing_number(n, edges, S, dangerous_limit=None):
    """kappa(S): maximum set of candidate trees that pairwise share no
    edge and no vertex outside S.  With `dangerous_limit`, at most that
    many of them may have an edge joining two terminals."""
    S = sorted(set(S))
    if len(S) == 2:
        trees = candidate_pair_trees(edges, S)
    elif len(S) == 3:
        trees = candidate_triple_trees(n, edges, S)
    else:
        trees = minimal_trees(n, edges, S)
    term = set(S)
    internals = [frozenset(v for e in t for v in e) - term for t in trees]
    dangerous = [any(u in term and v in term for u, v in t) for t in trees]
    limit = len(trees) if dangerous_limit is None else dangerous_limit
    best = 0

    def go(start, used_v, used_e, count, ndangerous):
        nonlocal best
        if count > best:
            best = count
        for j in range(start, len(trees)):
            if count + len(trees) - j <= best:
                break
            if used_e & trees[j] or used_v & internals[j]:
                continue
            if dangerous[j] and ndangerous == limit:
                continue
            go(j + 1, used_v | internals[j], used_e | trees[j], count + 1,
               ndangerous + dangerous[j])

    go(0, frozenset(), frozenset(), 0, 0)
    return best


def generalized_connectivity(n, edges, k):
    """min over |S| = k of kappa(S), with the small-graph conventions."""
    if not _connected(n, edges, range(n)):
        return 0
    if n < k:
        return 1
    return min(tree_packing_number(n, edges, S)
               for S in combinations(range(n), k))


def vertex_connectivity(n, edges):
    """Smallest separating set, by trying every subset size."""
    if n <= 1:
        return 0
    for size in range(n - 1):
        for W in combinations(range(n), size):
            rest = set(range(n)) - set(W)
            if not _connected(n, edges, rest):
                return size
    return n - 1


def verify_packing(G, S, trees):
    """Reference packing checker: a DFS over a per-tree adjacency dict for
    connectivity, the same checks in the same order as the package's
    `verify_packing`, and the same verdicts and reasons.  Reads G through
    `G.n` and `G.has_edge` only; returns (ok, reason).  Every edge is
    read as a sorted pair, from a tree's `edges` or an id pair list alike,
    so a reversed edge is the same edge.  It trusts vertex
    ids: `has_edge` indexes a list, so a negative id aliases a real
    vertex, and an id of n or more raises IndexError; `int` truncates a
    non-integer id of an id pair onto a vertex."""
    term = set(S)
    for s in term:
        if not 0 <= s < G.n:
            return False, "terminal %s not a vertex of the host" % s
    edge_sets = []
    vert_sets = []
    for idx, t in enumerate(trees):
        if hasattr(t, "edges"):
            edges = [tuple(sorted(e)) for e in t.edges]
        else:
            edges = [tuple(sorted((int(u), int(v)))) for (u, v) in t]
        eset = set()
        verts = set()
        adj = {}
        for u, v in edges:
            if u == v or not G.has_edge(u, v):
                return False, "tree %d uses a non-edge %s-%s of the host" % (idx, u, v)
            if (u, v) in eset:
                return False, "tree %d repeats edge %s-%s" % (idx, u, v)
            eset.add((u, v))
            verts.add(u)
            verts.add(v)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        missing = term - verts
        if missing:
            return False, "tree %d misses terminal %s" % (idx, min(missing))
        if len(eset) != len(verts) - 1:
            return False, ("tree %d is not a tree (%d edges on %d vertices)"
                           % (idx, len(eset), len(verts)))
        stack = [next(iter(verts))]
        seen = {stack[0]}
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(verts):
            return False, "tree %d is disconnected" % idx
        edge_sets.append(eset)
        vert_sets.append(verts)
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            shared_e = edge_sets[i] & edge_sets[j]
            if shared_e:
                u, v = min(shared_e)
                return False, "trees %d and %d share edge %s-%s" % (i, j, u, v)
            extra = (vert_sets[i] & vert_sets[j]) - term
            if extra:
                return False, ("trees %d and %d share internal vertex %s"
                               % (i, j, min(extra)))
    return True, ""


def bfs_root_paths(n, edges, S, avail, allowed, root):
    """The S-tree a full BFS from `root` yields: BFS over the vertices of
    `avail` and the terminals, stepping from one terminal to another only
    along an edge of `allowed`, run until the queue is empty; then the
    union of the terminals' paths to `root` in the BFS tree, as sorted
    edges, or None when a terminal is not reached.  Neighbors are visited
    in ascending order."""
    term = set(S)
    parent = {root: None}
    queue = [root]
    while queue:
        nxt = []
        for u in queue:
            for v in _neighbors(edges, u):
                if v in parent or not (v in avail or v in term):
                    continue
                if u in term and v in term and (min(u, v), max(u, v)) not in allowed:
                    continue
                parent[v] = u
                nxt.append(v)
        queue = nxt
    out = set()
    for s in term:
        if s not in parent:
            return None
        while parent[s] is not None:
            out.add((min(s, parent[s]), max(s, parent[s])))
            s = parent[s]
    return tuple(sorted(out))
