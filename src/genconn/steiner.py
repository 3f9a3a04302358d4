"""Exact Steiner tree packing: kappa(S) and the generalized k-connectivity.

kappa(S) is the maximum number of pairwise internally disjoint S-trees:
edge-disjoint trees whose vertex sets pairwise intersect exactly in S.
The oracle computes it by exhaustive branch and bound.

Search design
-------------
Only *minimal* S-trees are enumerated (every leaf a terminal): pruning a
non-terminal leaf from any S-tree keeps it an S-tree and cannot create a new
conflict, so some maximum packing consists of minimal trees.

For |S| = 3 the minimal trees are exactly tripods: a center c joined to the
three terminals by internally disjoint legs, the center possibly a terminal
(then the tree degenerates to a path and the center's own leg is empty).
Candidates are keyed (center, leg interiors in terminal order) and explored
in ascending lexicographic key order.

For |S| >= 4 candidates are keyed (extra internal vertex set, edge tuple):
for each extras choice the search enumerates forests over S + extras that
form a spanning tree in which every extra vertex has degree >= 2.

A packing is enumerated once by requiring strictly increasing tree keys.
Prunes, all sound:
- residual terminal degree: every remaining tree consumes an edge at each
  terminal;
- internal-vertex supply: at most one tree in a 3-terminal packing can avoid
  internal vertices entirely (any two terminal-only trees would share a
  terminal-terminal edge), so remaining <= 1 + |available internals|;
- edge supply: remaining trees need |S|-1 edges each from the active part;
- pair flow: for terminals x, y the x-y paths inside the remaining trees are
  edge-disjoint, internally disjoint outside S, and each passage through a
  third terminal z burns two of z's edges; so a max flow with unit caps on
  non-terminals and floor(deg(z)/2) caps on other terminals bounds the
  remaining packing size.  The search applies `pair_flow_bound`, the same
  bound it uses on the whole host, to the residual graph of unused vertices
  and free terminal edges.

The budget counts search steps; exhaustion returns the incumbent flagged
non-exact instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random

from .connectivity import capped_flow_value, disjoint_paths
from .graphs import Graph, connected_component, is_connected

DEFAULT_BUDGET = 10_000_000

_BIG = 1 << 30

# seeded restarts of the greedy before the full search takes over
_GREEDY_ROUNDS = 48


@dataclass(frozen=True)
class SteinerTree:
    """A tree subgraph containing the terminal set, stored as sorted edges."""

    terminals: tuple
    edges: tuple
    provenance: str = "search"


@dataclass
class Verdict:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


@dataclass
class TreePacking:
    host: Graph
    terminals: tuple
    trees: list
    verified: bool
    exact: bool
    nodes: int
    hit_cap: bool = False

    @property
    def size(self) -> int:
        return len(self.trees)


@dataclass(eq=False)
class GCResult:
    """Value of kappa_k plus the witnessing terminal set and packing."""

    value: int
    exact: bool
    witness: tuple
    packing: TreePacking
    nodes: int

    def __int__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other
        if isinstance(other, GCResult):
            return self.value == other.value and self.exact == other.exact
        return NotImplemented

    def __repr__(self):
        tag = "exact" if self.exact else "budget-limited"
        return "GCResult(value=%d, %s, nodes=%d)" % (self.value, tag, self.nodes)


class _OutOfBudget(Exception):
    pass


def _tree_edges(t):
    if isinstance(t, SteinerTree):
        return list(t.edges)
    return [tuple(sorted((int(u), int(v)))) for (u, v) in t]


def verify_packing(G: Graph, S, trees) -> Verdict:
    """Independent checker: every tree a valid S-tree of G, pairwise edge
    sets disjoint and vertex intersections exactly S.  Names the first
    violation found."""
    term = set(S)
    for s in term:
        if not 0 <= s < G.n:
            return Verdict(False, "terminal %s not a vertex of the host" % s)
    edge_sets = []
    vert_sets = []
    for idx, t in enumerate(trees):
        edges = _tree_edges(t)
        eset = set()
        verts = set()
        adj = {}
        for u, v in edges:
            if u == v or not G.has_edge(u, v):
                return Verdict(False, "tree %d uses a non-edge %s-%s of the host" % (idx, u, v))
            if (u, v) in eset:
                return Verdict(False, "tree %d repeats edge %s-%s" % (idx, u, v))
            eset.add((u, v))
            verts.add(u)
            verts.add(v)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        missing = term - verts
        if missing:
            return Verdict(False, "tree %d misses terminal %s" % (idx, min(missing)))
        if len(eset) != len(verts) - 1:
            return Verdict(False, "tree %d is not a tree (%d edges on %d vertices)"
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
            return Verdict(False, "tree %d is disconnected" % idx)
        edge_sets.append(eset)
        vert_sets.append(verts)
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            shared_e = edge_sets[i] & edge_sets[j]
            if shared_e:
                u, v = min(shared_e)
                return Verdict(False, "trees %d and %d share edge %s-%s" % (i, j, u, v))
            extra = (vert_sets[i] & vert_sets[j]) - term
            if extra:
                return Verdict(False, "trees %d and %d share internal vertex %s"
                               % (i, j, min(extra)))
    return Verdict(True)


def pair_flow_bound(G: Graph, S, cutoff: int = 1) -> int:
    """Sound upper bound on the packing size; see the module docstring.

    Returns as soon as the bound drops below `cutoff`; the default stops
    only at 0."""
    S = sorted(S)
    best = _BIG
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            x, y = S[i], S[j]
            caps = {z: G.degree(z) // 2 for z in S if z != x and z != y}
            best = min(best, capped_flow_value(G, x, y, caps, limit=best))
            if best < cutoff:
                return best
    return best


def _count_bound(G: Graph, S, component) -> int:
    """Degree-counting cap on the packing size, for three or more terminals.

    Each tree spends at least one edge slot per terminal, and a tree that
    spends exactly one per terminal keeps all terminals as leaves, so it
    owns a branch vertex outside S.  Only len(component) - len(S) vertices
    can serve as branch points, so t trees need
    k*t + max(0, t - spare) slots out of sum of terminal degrees.
    Not valid for pairs (a bare edge has no branch vertex).
    """
    k = len(S)
    spare = len(component) - k
    degsum = sum(G.degree(s) for s in S)
    best = min(spare, degsum // k)
    with_branch_shortage = (degsum + spare) // (k + 1)
    if with_branch_shortage > spare:
        best = max(best, with_branch_shortage)
    return best


class _Candidate:
    """One minimal S-tree as sorted edges, with what applying it consumes:
    its internal vertices, its terminal-terminal edges, and the edge slots
    it takes at each terminal.  A tree with a terminal-terminal edge is
    dangerous."""

    __slots__ = ("key", "internals", "edges", "s_edges", "term_counts", "dangerous")

    def __init__(self, key, edges, term_set):
        internals = set()
        s_edges = []
        term_counts = {}
        for u, v in edges:
            if u in term_set:
                term_counts[u] = term_counts.get(u, 0) + 1
                if v in term_set:
                    s_edges.append((u, v))
            else:
                internals.add(u)
            if v in term_set:
                term_counts[v] = term_counts.get(v, 0) + 1
            else:
                internals.add(v)
        self.key = key
        self.internals = frozenset(internals)
        self.edges = edges
        self.s_edges = frozenset(s_edges)
        self.term_counts = term_counts
        self.dangerous = bool(s_edges)


class _Search:
    def __init__(self, G, S, budget, dangerous_limit, component):
        self.G = G
        self.S = tuple(sorted(S))
        self.term_set = frozenset(S)
        self.budget = budget
        self.nodes = 0
        self.dangerous_limit = dangerous_limit
        self.component = component
        self.s_edges_all = frozenset(
            (u, v) for u, v in combinations(self.S, 2) if G.has_edge(u, v))
        self._reset()

    def _reset(self):
        """Every vertex and terminal edge unused again."""
        self.avail = set(self.component) - self.term_set
        self.consumed = {s: 0 for s in self.S}
        self.used_s_edges = set()
        self.dangerous_used = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise _OutOfBudget()

    # ---- packing DFS ----

    def find(self, target):
        self._reset()
        return self._extend([], None, target)

    def greedy(self, target):
        """Repeated residual BFS: each round takes the tree BFS yields and
        removes it.  Sound whenever it succeeds; no completeness claim, the
        caller falls back to the full search when it returns None.

        Extra rounds retry with seeded shuffles of the BFS vertex order and
        a rotated root, so results stay deterministic.  Each tree is sought
        without terminal-terminal edges first: those edges are scarce and a
        tight packing usually needs them for the closing trees, after the
        plain vertices run out.  A near miss is handed to the full search
        to finish: the trees BFS gets wrong are the closing ones, and the
        residual left for the search is small."""
        for attempt in range(_GREEDY_ROUNDS):
            rng = Random(0x51ED * (attempt + target)) if attempt else None
            root = self.S[attempt % len(self.S)]
            self._reset()
            chosen = []
            for _ in range(target):
                tree = self._common_star(rng)
                if tree is None:
                    tree = self._last_tree(rng=rng, root=root, plain=True)
                if tree is None:
                    tree = self._last_tree(rng=rng, root=root)
                if tree is None:
                    break
                self._apply(tree)
                chosen.append(tree)
            if len(chosen) == target:
                return chosen
            if target - len(chosen) <= 2:
                for back in range(1, min(3, len(chosen)) + 1):
                    if target - (len(chosen) - back) > 3:
                        break
                    self._undo(chosen[len(chosen) - back])
                    done = self._extend(chosen[:len(chosen) - back], None, target)
                    if done is not None:
                        return done
        return None

    def _extend(self, chosen, last_key, target):
        if len(chosen) == target:
            return list(chosen)
        self.tick()
        remaining = target - len(chosen)
        if remaining == 1:
            # exact: one more tree exists iff the terminals are connected in
            # the unused part, and BFS hands us that tree directly
            tree = self._last_tree()
            if tree is None:
                return None
            return list(chosen) + [tree]
        G = self.G
        for s in self.S:
            if G.degree(s) - self.consumed[s] < remaining:
                return None
        if len(self.S) == 3:
            zero_ok = 0
            if self.dangerous_limit is None or self.dangerous_used < self.dangerous_limit:
                if len(self.s_edges_all - self.used_s_edges) >= 2:
                    zero_ok = 1
            if remaining > zero_ok + len(self.avail):
                return None
        else:
            spare = len(self.s_edges_all - self.used_s_edges) // (len(self.S) - 1)
            if remaining > len(self.avail) + spare:
                return None
        if remaining * (len(self.S) - 1) > self._active_edge_count():
            return None
        if remaining >= 2 and chosen and self._residual_flow_bound(remaining) < remaining:
            return None
        gen = self._tripods(last_key) if len(self.S) == 3 else self._forests(last_key)
        for cand in gen:
            self._apply(cand)
            result = self._extend(chosen + [cand], cand.key, target)
            if result is not None:
                return result
            self._undo(cand)
        return None

    def _common_star(self, rng=None):
        """Cheapest tree there is: one unused common neighbor of all the
        terminals.  Consumes a single vertex and one edge per terminal, so
        the greedy loop prefers it over anything BFS can produce."""
        self.tick()
        order = sorted(self.avail)
        if rng is not None:
            rng.shuffle(order)
        for v in order:
            if all(self.G.has_edge(v, s) for s in self.S):
                edges = tuple(sorted((v, s) if v < s else (s, v) for s in self.S))
                return _Candidate(None, edges, self.term_set)
        return None

    def _last_tree(self, rng=None, root=None, plain=False):
        """BFS the unused vertices and free terminal edges for one more
        S-tree.  Union of root paths; its leaves are all terminals.
        `plain` forbids terminal-terminal edges outright."""
        self.tick()
        if plain or (self.dangerous_limit is not None
                     and self.dangerous_used >= self.dangerous_limit):
            allowed_s = frozenset()
        else:
            allowed_s = self.s_edges_all - self.used_s_edges
        live = self.avail | self.term_set
        if root is None:
            root = self.S[0]
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                u_term = u in self.term_set
                nbrs = self.G.neighbors(u)
                if rng is not None:
                    nbrs = list(nbrs)
                    rng.shuffle(nbrs)
                for v in nbrs:
                    if v in parent or v not in live:
                        continue
                    if u_term and v in self.term_set:
                        e = (u, v) if u < v else (v, u)
                        if e not in allowed_s:
                            continue
                    parent[v] = u
                    nxt.append(v)
            queue = nxt
        edges = set()
        verts = {root}
        for t in self.S:
            if t not in parent:
                return None
            v = t
            while v not in verts:
                u = parent[v]
                edges.add((u, v) if u < v else (v, u))
                verts.add(v)
                v = u
        return _Candidate(None, tuple(sorted(edges)), self.term_set)

    def _admissible(self, c):
        """A terminal-terminal edge serves one tree, and at most
        `dangerous_limit` trees may use such edges at all."""
        if not c.s_edges:
            return True
        if c.s_edges & self.used_s_edges:
            return False
        return self.dangerous_limit is None or self.dangerous_used < self.dangerous_limit

    def _apply(self, c):
        self.avail.difference_update(c.internals)
        for s, k in c.term_counts.items():
            self.consumed[s] += k
        self.used_s_edges.update(c.s_edges)
        self.dangerous_used += c.dangerous

    def _undo(self, c):
        self.avail.update(c.internals)
        for s, k in c.term_counts.items():
            self.consumed[s] -= k
        self.used_s_edges.difference_update(c.s_edges)
        self.dangerous_used -= c.dangerous

    def _active_edge_count(self):
        active = self.avail | self.term_set
        count = 0
        for u in active:
            for v in self.G.neighbors(u):
                if v in active:
                    count += 1
        return count // 2 - len(self.used_s_edges)

    def _residual_flow_bound(self, cutoff):
        """`pair_flow_bound` on the unused vertices and free terminal edges."""
        active = sorted(self.avail | self.term_set)
        index = {v: i for i, v in enumerate(active)}
        edges = []
        for u in active:
            for v in self.G.neighbors(u):
                if u < v and v in index:
                    e = (u, v)
                    if e not in self.used_s_edges:
                        edges.append((index[u], index[v]))
        R = Graph(len(active), edges)
        return pair_flow_bound(R, [index[s] for s in self.S], cutoff)

    # ---- tripod candidates, |S| = 3 ----

    def _tripods(self, min_key):
        lo = min_key[0] if min_key is not None else 0
        for w in range(lo, self.G.n):
            if w in self.term_set:
                targets = tuple(t for t in self.S if t != w)
            elif w in self.avail:
                targets = self.S
            else:
                continue
            for cand in self._tripods_at(w, targets):
                if (min_key is None or cand.key > min_key) and self._admissible(cand):
                    yield cand

    def _tripods_at(self, w, targets):
        G = self.G
        blocked = {w}
        legs = []

        def leg_iter(cur, t, interior):
            self.tick()
            if G.has_edge(cur, t):
                yield tuple(interior)
            for v in G.neighbors(cur):
                if v in self.avail and v not in blocked:
                    blocked.add(v)
                    interior.append(v)
                    yield from leg_iter(v, t, interior)
                    interior.pop()
                    blocked.discard(v)

        def build(i):
            if i == len(targets):
                yield self._tripod_candidate(w, targets, tuple(legs))
                return
            for leg in leg_iter(w, targets[i], []):
                legs.append(leg)
                yield from build(i + 1)
                legs.pop()

        yield from build(0)

    def _tripod_candidate(self, w, targets, legs):
        edges = []
        for t, interior in zip(targets, legs):
            prev = w
            for v in interior:
                edges.append((min(prev, v), max(prev, v)))
                prev = v
            edges.append((min(prev, t), max(prev, t)))
        slots = tuple(() if t == w else legs[targets.index(t)] for t in self.S)
        key = (w, slots)
        return _Candidate(key, tuple(sorted(edges)), self.term_set)

    # ---- general candidates, |S| >= 4 ----

    def _forests(self, min_key):
        avail_sorted = sorted(self.avail)
        for size in range(0, len(avail_sorted) + 1):
            if min_key is not None and size < min_key[0]:
                continue
            for extras in combinations(avail_sorted, size):
                if min_key is not None and size == min_key[0] and extras < min_key[1]:
                    continue
                min_edges = None
                if min_key is not None and size == min_key[0] and extras == min_key[1]:
                    min_edges = min_key[2]
                yield from self._forest_dfs(extras, min_edges)

    def _forest_dfs(self, extras, min_edges):
        W = list(self.S) + list(extras)
        wset = set(W)
        pool = []
        for u in W:
            for v in self.G.neighbors(u):
                if u < v and v in wset:
                    e = (u, v)
                    if e not in self.used_s_edges:
                        pool.append(e)
        pool.sort()
        need_total = len(W) - 1
        if len(pool) < need_total:
            return
        # rollback union-find: no path compression, union by size
        parent = {v: v for v in W}
        size = {v: 1 for v in W}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        chosen = []
        deg = {v: 0 for v in W}
        state = {"comps": len(W)}

        def rec(start):
            self.tick()
            if len(chosen) == need_total:
                if state["comps"] == 1 and all(deg[x] >= 2 for x in extras):
                    edges = tuple(chosen)
                    cand = _Candidate((len(extras), tuple(extras), edges), edges,
                                      self.term_set)
                    if (min_edges is None or edges > min_edges) and self._admissible(cand):
                        yield cand
                return
            need = need_total - len(chosen)
            if len(pool) - start < need or state["comps"] - 1 > need:
                return
            deficit = sum(2 - deg[x] for x in extras if deg[x] < 2)
            if deficit > 2 * need:
                return
            for idx in range(start, len(pool)):
                u, v = pool[idx]
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                if size[ru] > size[rv]:
                    ru, rv = rv, ru
                parent[ru] = rv
                size[rv] += size[ru]
                chosen.append(pool[idx])
                deg[u] += 1
                deg[v] += 1
                state["comps"] -= 1
                yield from rec(idx + 1)
                state["comps"] += 1
                deg[u] -= 1
                deg[v] -= 1
                chosen.pop()
                size[rv] -= size[ru]
                parent[ru] = ru

        yield from rec(0)


def max_tree_packing(G: Graph, S, budget: int = DEFAULT_BUDGET,
                     cap=None, dangerous_limit=None) -> TreePacking:
    """Maximum packing of internally disjoint S-trees.

    Exact unless the budget runs out (then the incumbent is returned flagged).
    `cap` stops the search as soon as a packing of that size is found, for
    callers that only need a witness.  `dangerous_limit` restricts how many
    trees may use an edge joining two terminals.
    """
    S = tuple(sorted(set(S)))
    if len(S) < 2:
        raise ValueError("need at least two distinct terminals")
    for s in S:
        if not 0 <= s < G.n:
            raise ValueError("terminal %s out of range" % s)
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    component = connected_component(G, S[0])
    if any(s not in component for s in S[1:]):
        return TreePacking(G, S, [], verified=True, exact=True, nodes=0)

    if len(S) == 2:
        x, y = S
        host = G
        if dangerous_limit == 0 and G.has_edge(x, y):
            host = G.without_edge(x, y)
        paths = disjoint_paths(host, x, y, want=cap)
        trees = [SteinerTree(S, tuple(sorted((min(p[i], p[i + 1]), max(p[i], p[i + 1]))
                                             for i in range(len(p) - 1))))
                 for p in paths]
        hit = cap is not None and len(trees) == cap
        verdict = verify_packing(G, S, trees)
        if not verdict.ok:
            raise AssertionError("internal error: flow paths failed verification: %s"
                                 % verdict.reason)
        return TreePacking(G, S, trees, verified=True, exact=not hit, nodes=0, hit_cap=hit)

    search = _Search(G, S, budget, dangerous_limit, component)
    ub = min(min(G.degree(s) for s in S), pair_flow_bound(G, S),
             _count_bound(G, S, component))
    best = []
    exact = False
    exhausted = False
    hit_cap = False
    t = 1
    while True:
        if t > ub:
            exact = True
            break
        try:
            found = search.greedy(t)
            if found is None:
                found = search.find(t)
        except _OutOfBudget:
            exhausted = True
            break
        if found is None:
            exact = True
            break
        best = found
        if cap is not None and t >= cap:
            hit_cap = True
            exact = t >= ub
            break
        t += 1

    trees = [SteinerTree(S, c.edges) for c in best]
    verdict = verify_packing(G, S, trees)
    if not verdict.ok:
        raise AssertionError("internal error: search output failed verification: %s"
                             % verdict.reason)
    return TreePacking(G, S, trees, verified=True, exact=exact and not exhausted,
                       nodes=search.nodes, hit_cap=hit_cap)


def generalized_connectivity(G: Graph, k: int, budget: int = DEFAULT_BUDGET) -> GCResult:
    """kappa_k(G): minimum of kappa(S) over all k-element terminal sets.

    Returns 1 for a connected graph with fewer than k vertices and 0 for a
    disconnected graph.  Terminal sets are visited in ascending order of
    their flow upper bound, then degree sum, so sets whose value can be
    certified by matching the bound come first; each later set is searched
    only up to the current minimum (a packing that large proves the set
    cannot improve the minimum, which is all the minimum needs).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if budget < 1:
        raise ValueError("budget must be positive")
    if G.n == 0:
        raise ValueError("empty graph")
    if not is_connected(G):
        return GCResult(0, True, None, None, 0)
    if G.n < k:
        return GCResult(1, True, None, None, 0)
    order = sorted(combinations(range(G.n), k),
                   key=lambda S: (pair_flow_bound(G, S),
                                  sum(G.degree(s) for s in S), S))
    cur = None
    wit = None
    wpack = None
    total = 0
    exact = True
    for S in order:
        left = budget - total
        if left <= 0:
            exact = False
            break
        pack = max_tree_packing(G, S, budget=left, cap=cur)
        total += pack.nodes
        if not pack.exact and not pack.hit_cap:
            exact = False
            if cur is None or pack.size < cur:
                cur, wit, wpack = pack.size, S, pack
            break
        if pack.hit_cap:
            continue
        if cur is None or pack.size < cur:
            cur, wit, wpack = pack.size, S, pack
            if cur == 1:
                break
    return GCResult(cur, exact, wit, wpack, total)


def kappa3(G: Graph, budget: int = DEFAULT_BUDGET) -> GCResult:
    """kappa_3(G), the case the product constructions target."""
    return generalized_connectivity(G, 3, budget)
