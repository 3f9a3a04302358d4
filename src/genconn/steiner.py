"""Exact Steiner tree packing: kappa(S) and the generalized k-connectivity.

kappa(S) is the maximum number of pairwise internally disjoint S-trees:
edge-disjoint trees whose vertex sets pairwise intersect exactly in S.
The oracle computes it by exhaustive branch and bound.

Search design
-------------
Only *minimal* S-trees are enumerated (every leaf a terminal): pruning a
non-terminal leaf from any S-tree keeps it an S-tree and cannot create a new
conflict, so some maximum packing consists of minimal trees.

One generator, `_Search._trees`, yields them for every |S| >= 3: a tree
grows from the lowest terminal, and a depth-first leg search joins each
terminal not yet in it by one leg, so each minimal tree is built exactly
once.  A tree's key is its sorted edge tuple.  Pairs go to max-flow.

A packing is enumerated once by requiring strictly increasing tree keys.
A new tree may use the unused vertices and the free terminal edges: the
unused terminal-terminal edges, or none once `dangerous_limit` trees use
such an edge (`_Search._free_s_edges`).  Prunes, all sound:
- residual terminal degree: every remaining tree consumes an edge at each
  terminal;
- internal-vertex supply: a remaining tree either owns an unused internal
  vertex, which no other tree shares, or has no internal vertex at all; then
  it spans S with |S|-1 terminal-terminal edges, each free and owned by it
  alone.  So remaining <= |unused internals| + free // (|S|-1), for any |S|
  and any limit;
- edge supply: remaining trees need |S|-1 edges each from the residual
  edges, those among unused vertices and terminals less the terminal edges
  that are not free;
- pair flow: for terminals x, y the x-y paths inside the remaining trees are
  edge-disjoint, internally disjoint outside S, and each passage through a
  third terminal z burns two of z's edges; so a max flow with unit caps on
  non-terminals and floor(deg(z)/2) caps on other terminals bounds the
  remaining packing size.  The search applies `pair_flow_bound`, the same
  bound it uses on the whole host, to the graph of the residual edges.

The budget counts search steps, each step of the leg DFS among them; running
out returns the incumbent flagged non-exact instead of raising.
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

    __slots__ = ("internals", "edges", "s_edges", "term_counts", "dangerous")

    def __init__(self, edges, term_set):
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
        spare = len(self._free_s_edges()) // (len(self.S) - 1)
        if remaining > len(self.avail) + spare:
            return None
        edges = self._residual_edges()
        if remaining * (len(self.S) - 1) > len(edges):
            return None
        if remaining >= 2 and chosen and self._residual_flow_bound(edges, remaining) < remaining:
            return None
        for cand in self._trees(last_key):
            self._apply(cand)
            result = self._extend(chosen + [cand], cand.edges, target)
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
                return _Candidate(edges, self.term_set)
        return None

    def _last_tree(self, rng=None, root=None, plain=False):
        """BFS the unused vertices and free terminal edges for one more
        S-tree.  Union of root paths; its leaves are all terminals.
        `plain` forbids terminal-terminal edges outright."""
        self.tick()
        allowed_s = frozenset() if plain else self._free_s_edges()
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
        return _Candidate(tuple(sorted(edges)), self.term_set)

    def _free_s_edges(self):
        """The terminal-terminal edges a new tree may take: a terminal edge
        serves one tree, and at most `dangerous_limit` trees may use such
        edges at all."""
        if self.dangerous_limit is not None and self.dangerous_used >= self.dangerous_limit:
            return frozenset()
        return self.s_edges_all - self.used_s_edges

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

    def _residual_edges(self):
        """The edges a new tree may take, sorted: those among unused vertices
        and terminals, less the terminal edges that are not free."""
        live = self.avail | self.term_set
        blocked = self.s_edges_all - self._free_s_edges()
        return [(u, v) for u in sorted(live) for v in self.G.neighbors(u)
                if u < v and v in live and (u, v) not in blocked]

    def _residual_flow_bound(self, edges, cutoff):
        """`pair_flow_bound` on the graph of the residual `edges`."""
        index = {v: i for i, v in enumerate(sorted(self.avail | self.term_set))}
        R = Graph(len(index), [(index[u], index[v]) for u, v in edges])
        return pair_flow_bound(R, [index[s] for s in self.S], cutoff)

    # ---- candidate trees ----

    def _trees(self, last_key):
        """Every minimal S-tree of the unused vertices and free terminal
        edges whose key, its sorted edge tuple, exceeds `last_key`; each
        exactly once.

        A tree grows from t1 = min(S).  Each terminal ti not yet in it, in
        ascending order, is joined by one leg from a tree vertex through
        unused vertices and later terminals, so only a leg's far end, a
        terminal, can be a leaf.  Conversely, let T be a minimal S-tree and
        T_i the union of its paths between t1..ti.  If ti lies outside
        T_(i-1), the leg that joins it can only be the path in T from ti to
        T_(i-1): it meets T_(i-1) only at its start, and its interior holds
        no earlier terminal.  So T is built once, leg by leg.

        `last_key` belongs to the tree applied last, whose edges are used
        now: a new tree sorts above it exactly when its least edge does, so
        the leg DFS drops every edge below the least edge of `last_key`.
        """
        G, S, avail, term_set = self.G, self.S, self.avail, self.term_set
        blocked = self.s_edges_all - self._free_s_edges()
        floor = last_key[0] if last_key else ()
        tree = {S[0]: None}     # the tree's vertices, in the order they joined
        edges = []

        def legs(cur, t):
            # the leg DFS: yields once per leg from `cur` to t, with the
            # leg's vertices and edges on the tree while it is yielded
            self.tick()
            for v in G.neighbors(cur):
                if v in tree or not (v == t or v in avail or v in term_set):
                    continue
                e = (cur, v) if cur < v else (v, cur)
                if e < floor or e in blocked:
                    continue
                tree[v] = None
                edges.append(e)
                if v == t:
                    yield
                else:
                    yield from legs(v, t)
                del tree[v]
                edges.pop()

        def join(i):
            while i < len(S) and S[i] in tree:
                i += 1
            if i == len(S):
                yield _Candidate(tuple(sorted(edges)), term_set)
                return
            for u in list(tree):
                for _ in legs(u, S[i]):
                    yield from join(i + 1)

        yield from join(1)


def max_tree_packing(G: Graph, S, budget: int = DEFAULT_BUDGET,
                     cap=None, dangerous_limit=None, *, _pair_bound=None) -> TreePacking:
    """Maximum packing of internally disjoint S-trees.

    Exact unless the budget runs out (then the incumbent is returned flagged).
    `cap` stops the search as soon as a packing of that size is found, for
    callers that only need a witness.  `dangerous_limit` restricts how many
    trees may use an edge joining two terminals.  `_pair_bound`, private to
    `generalized_connectivity`, is `pair_flow_bound(G, S)` when the caller
    has it already.
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
        edge_sets = [tuple(sorted((min(p[i], p[i + 1]), max(p[i], p[i + 1]))
                                  for i in range(len(p) - 1))) for p in paths]
        hit_cap = cap is not None and len(edge_sets) == cap
        exact = not hit_cap
        nodes = 0
    else:
        search = _Search(G, S, budget, dangerous_limit, component)
        if _pair_bound is None:
            _pair_bound = pair_flow_bound(G, S)
        ub = min(_pair_bound, _count_bound(G, S, component))
        # try packings of size 1, 2, ... up to the bound: the first size that
        # fails settles the value; running out of budget leaves it open
        best = []
        exact = True
        hit_cap = False
        for t in range(1, ub + 1):
            try:
                found = search.greedy(t)
                if found is None:
                    found = search.find(t)
            except _OutOfBudget:
                exact = False
                break
            if found is None:
                break
            best = found
            if cap is not None and t >= cap:
                hit_cap = True
                exact = t >= ub
                break
        edge_sets = [c.edges for c in best]
        nodes = search.nodes

    trees = [SteinerTree(S, edges) for edges in edge_sets]
    verdict = verify_packing(G, S, trees)
    if not verdict.ok:
        raise AssertionError("internal error: packing failed verification: %s"
                             % verdict.reason)
    return TreePacking(G, S, trees, verified=True, exact=exact,
                       nodes=nodes, hit_cap=hit_cap)


def generalized_connectivity(G: Graph, k: int, budget: int = DEFAULT_BUDGET) -> GCResult:
    """kappa_k(G): minimum of kappa(S) over all k-element terminal sets.

    Returns 1 for a connected graph with fewer than k vertices and 0 for a
    disconnected graph.  Terminal sets are visited in ascending order of
    their flow upper bound, then degree sum, so sets whose value can be
    certified by matching the bound come first; each later set is searched
    only up to the current minimum (a packing that large proves the set
    cannot improve the minimum, which is all the minimum needs).  Each
    set's flow bound is computed once, for the sort, and handed to its
    packing search.
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
    order = sorted((pair_flow_bound(G, S), sum(G.degree(s) for s in S), S)
                   for S in combinations(range(G.n), k))
    cur = None
    wit = None
    wpack = None
    total = 0
    exact = True
    for bound, _, S in order:
        left = budget - total
        if left <= 0:
            exact = False
            break
        pack = max_tree_packing(G, S, budget=left, cap=cur, _pair_bound=bound)
        total += pack.nodes
        if pack.hit_cap:
            continue
        if cur is None or pack.size < cur:
            cur, wit, wpack = pack.size, S, pack
        if not pack.exact:
            exact = False
            break
        if cur == 1:
            break
    return GCResult(cur, exact, wit, wpack, total)


def kappa3(G: Graph, budget: int = DEFAULT_BUDGET) -> GCResult:
    """kappa_3(G), the case the product constructions target."""
    return generalized_connectivity(G, 3, budget)
