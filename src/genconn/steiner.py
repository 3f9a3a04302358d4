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
A new tree may use the unused vertices and the free terminal edges, the
terminal-terminal edges that no tree uses yet.  Prunes, all sound:
- internal-vertex supply: a remaining tree either owns an unused internal
  vertex, which no other tree shares, or has no internal vertex at all; then
  it spans S with |S|-1 terminal-terminal edges, each free and owned by it
  alone.  So remaining <= |unused internals| + free // (|S|-1), any |S|;
- edge supply: remaining trees need |S|-1 edges each from the residual
  edges, those among unused vertices and terminals less the terminal edges
  that are not free;
- pair flow: for terminals x, y the x-y paths inside the remaining trees are
  edge-disjoint, internally disjoint outside S, and each passage through a
  third terminal z burns two of z's edges; so a max flow with unit caps on
  non-terminals and floor(deg(z)/2) caps on other terminals bounds the
  remaining packing size.  Once a tree is chosen, the search applies
  `pair_flow_bound`, as on the whole host, to the residual edges on the
  host's vertex ids (a used vertex is isolated).  It implies the residual
  terminal degree prune: a pair's bound is at most min(deg_R x, deg_R y),
  and each edge a chosen tree takes at s leaves the residual graph R.
  With no tree chosen, the target is at most the host's pair flow bound,
  itself at most the least terminal degree.  A pair whose local
  connectivity reaches min(deg x, deg y) needs no capped flow of its own
  (see `pair_flow_bound`);
- last-tree look-ahead: when one tree is to follow the candidate, the leg
  DFS drops a partial candidate as soon as the terminals are cut apart in
  the residual it leaves, the unused vertices outside it and the free
  terminal edges it does not take.  The last tree exists exactly when the
  terminals are connected in the residual of the whole candidate, and that
  residual only shrinks as the candidate grows, so every completion of a
  dropped candidate would fail `_last_tree`.  The candidates kept come in
  the same order, so every search returns the same packing.  It runs at
  the last-but-one tree only, where connectivity is exact: run at every
  level it prunes too, but K4 box K4 at a 200k budget took 2.6 s that way
  against 0.7 s (2-vCPU Xeon VM, Python 3.11).

One more prune settles a whole set, the fractional packing bound of Jain,
Mahdian and Salavatipour: for weights w >= 0 on the non-terminal vertices
and the edges, with W(w) the least weight of an S-tree, the trees of a
packing are disjoint in both, so p of them weigh at least p * W(w) and at
most sum(w), and kappa(S) <= floor(sum(w) / W(w)) (weak duality).  A
least-weight tree is minimal, because w >= 0.  `fractional.fractional_bound`
picks w by column generation and prices it exactly, with a Dreyfus-Wagner
DP in integers.

One `_Search.find` call settles each size t, in this order: greedy
passes, one per terminal, each near miss with its back-offs; the bound,
computed at most once per set, for sets of up to `_LP_MAX_TERMINALS`
terminals, when a pass misses (on a capped call once that pass's back-off
fails too), and failing t at once when below it; then the exhaustive
search from the empty packing, at most once: a back-off that undoes a
whole pass is that search, and its None ends t.  A pass is kept across
sizes: its i-th tree depends on the trees before it alone, never on t, so
the pass for t + 1 extends the pass for t and no tree is built twice.

A greedy tree, and the last tree of a search, is a BFS tree of the unused
vertices and free terminal edges, cut down to the terminals' root paths
(`_Search._last_tree`).  Its BFS, `_Search._reach`, is the look-ahead's
too, and stops once every terminal has a parent: a parent is fixed when
BFS first reaches a vertex, and the terminals' ancestors were all reached
before them, so going on would give the same tree.  Every candidate tree
takes its vertex set from what built it, the leg DFS, the BFS or the
common star, so none is scanned again.

The budget counts search steps, each step of the leg DFS among them, and
the fractional bound's rounds, pivots and subset merges.  A look-ahead
BFS counts none of its own: it belongs to the leg step that ticked, which
runs at most one per neighbour it extends the leg to.  Running out returns
the incumbent flagged non-exact instead of raising.  A set that runs out
before its first tree still gets one BFS tree: on connected terminals one
exists, so a budget-limited value is never below 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import index

from .connectivity import capped_flow_value, disjoint_paths, local_connectivity
from .graphs import Graph, connected_component, is_connected, root_paths

DEFAULT_BUDGET = 10_000_000

_BIG = 1 << 30


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


def verify_packing(G: Graph, S, trees) -> Verdict:
    """Independent checker: every tree a valid S-tree of G, pairwise edge
    sets disjoint and vertex intersections exactly S.  Names the first
    violation found.

    Every edge is read one way, as a (min, max) pair, in a `SteinerTree`
    as in an id pair list, so no edge passes twice by being stored
    reversed.  Every endpoint is checked to be a vertex 0..n-1 of the host
    before its edge is looked up, and no id is truncated to one, so no id
    outside the host can pass for one inside it.  Connectivity is read off a union-find over the tree's edges:
    once the tree has |V| - 1 edges it is connected exactly when no edge
    closes a cycle, that is, joins two vertices already linked."""
    n, adj = G.n, G._adj
    term = set(S)
    for s in term:
        if not 0 <= s < n:
            return Verdict(False, "terminal %s not a vertex of the host" % s)
    edge_sets = []
    vert_sets = []
    for idx, t in enumerate(trees):
        eset = set()
        verts = set()
        link = {}
        cyclic = False
        if isinstance(t, SteinerTree):
            edges = t.edges
        else:
            try:
                edges = [(index(u), index(v)) for u, v in t]
            except (TypeError, ValueError):     # not a list of id pairs
                return Verdict(False, _malformed(idx, t))
        for u, v in edges:
            if u > v:
                u, v = v, u
            if not (0 <= u < n and 0 <= v < n):
                return Verdict(False, "tree %d uses %s, not a vertex of the host"
                               % (idx, v if 0 <= u < n else u))
            e = (u, v)
            if u == v or v not in adj[u]:
                return Verdict(False, "tree %d uses a non-edge %s-%s of the host" % (idx, u, v))
            if e in eset:
                return Verdict(False, "tree %d repeats edge %s-%s" % (idx, u, v))
            eset.add(e)
            verts.add(u)
            verts.add(v)
            # union-find with path halving: u and v become their roots
            while u in link:
                w = link[u]
                link[u] = u = link.get(w, w)
            while v in link:
                w = link[v]
                link[v] = v = link.get(w, w)
            if u == v:
                cyclic = True
            else:
                link[u] = v
        missing = term - verts
        if missing:
            return Verdict(False, "tree %d misses terminal %s" % (idx, min(missing)))
        if len(eset) != len(verts) - 1:
            return Verdict(False, "tree %d is not a tree (%d edges on %d vertices)"
                           % (idx, len(eset), len(verts)))
        if cyclic:
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


def _malformed(idx, t) -> str:
    """Why tree `idx` of a packing, which is not a list of vertex id pairs,
    fails `verify_packing`: it is no list, an item is no pair, or an id is
    one that `operator.index` refuses."""
    if not hasattr(t, "__iter__"):
        return "tree %d is %r, not a list of edges" % (idx, t)
    for e in t:
        if not (hasattr(e, "__len__") and len(e) == 2):
            return "tree %d has %r, not a vertex pair" % (idx, e)
        for x in e:
            if not hasattr(x, "__index__"):
                return "tree %d uses %r, not a vertex of the host" % (idx, x)
    return "tree %d is not a list of vertex id pairs" % idx


def pair_flow_bound(G: Graph, S, cutoff: int = 1) -> int:
    """Sound upper bound on the packing size; see the module docstring.

    Returns as soon as the bound drops below `cutoff`; the default stops
    only at 0.

    A pair's capped flow is read off the local connectivity kappa(x, y),
    kept per graph, when kappa(x, y) = min(deg x, deg y); then the capped
    flow equals that minimum.  A max flow of kappa(x, y) splits into that
    many paths, and a path passes only vertices of degree 2 or more, each
    at most once; as floor(deg z / 2) >= 1 on those, the paths fit the caps
    of the other terminals too, so the capped flow is at least kappa(x, y).
    Each of its units leaves x and enters y by its own edge, so it is at
    most min(deg x, deg y).  Any other pair runs the capped flow itself.
    The search's residual graph is new at every node and keeps nothing."""
    S = sorted(S)
    best = _BIG
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            x, y = S[i], S[j]
            most = min(G.degree(x), G.degree(y))
            if local_connectivity(G, x, y) == most:
                best = min(best, most)
            else:
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


# the largest terminal set the fractional bound is computed for: one
# pricing takes about 3^(k-1)/2 subset merges, 966 at k = 8; from about 9
# terminals on the pricing rounds cost more nodes than the search they save
# (12 evenly spaced terminals of C24: 13 nodes without the bound,
# 1,038,341 with it)
_LP_MAX_TERMINALS = 8


class _Candidate:
    """One minimal S-tree as sorted edges, with what applying it consumes:
    its internal vertices and its terminal-terminal edges.

    Whatever builds the tree hands over its vertex set, a set or a dict's
    keys: the leg DFS its `tree`, `_last_tree` the vertices `root_paths`
    collects, the common star its centre.  The internals are those
    vertices less S; the terminal-terminal edges are the tree's edges among
    `s_edges_all`, the host's edges within S."""

    __slots__ = ("internals", "edges", "s_edges")

    def __init__(self, edges, verts, term_set, s_edges_all):
        self.internals = verts - term_set
        self.edges = edges
        self.s_edges = s_edges_all.intersection(edges) if s_edges_all else s_edges_all


class _Search:
    def __init__(self, G, S, budget, component):
        self.G = G
        self.S = tuple(sorted(S))
        self.term_set = frozenset(S)
        self.budget = budget
        self.nodes = 0
        self.free = frozenset(component) - self.term_set
        self.s_edges_all = frozenset(
            (u, v) for u, v in combinations(self.S, 2) if G.has_edge(u, v))
        self.common = sorted(set.intersection(
            *(G._adj[s] for s in self.S)) - self.term_set)
        self.passes = {s: [] for s in self.S}
        self.missed = set()
        self._reset()

    def _reset(self):
        """Every vertex and terminal edge unused again."""
        self.avail = set(self.free)
        self.used_s_edges = set()

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise _OutOfBudget()

    # ---- packing DFS ----

    def find(self, target, settled, backoff_first):
        """A packing of `target` trees, or None only when none exists.

        In order: residual BFS passes, one per terminal as the BFS root,
        each taking the tree BFS yields until it has `target`, a near miss
        followed by its back-offs; the fractional bound; then at most one
        exhaustive search from the empty packing.  A pass is kept across
        calls and only extended, its trees re-applied at no step: tree i
        depends on trees 1..i-1 alone, not on `target`, and a pass that
        missed would miss again.  A pass seeks each tree
        without terminal-terminal edges first: those are scarce, and a
        tight packing needs them for the closing trees.  A back-off hands
        the trees BFS got right to the search, which finishes the closing
        ones in a small residual.  A back-off that undoes the whole pass is
        the search from the empty packing, so its None ends the size.

        `settled(target)` asks the fractional bound; True means no packing
        of that size exists.  It runs after a pass misses, before its
        back-off, or with `backoff_first` (capped calls, most of which a
        back-off settles more cheaply) after the pass's back-off fails, and
        before the search from the empty packing.  Either place changes
        no result, only the nodes spent and where a budget runs out: when
        the bound is below target, every later pass and back-off would fail
        too, and when it is not, the passes go on exactly as without it."""
        for root in self.S:
            self._reset()
            chosen = self.passes[root]
            for tree in chosen:
                self._apply(tree)
            while len(chosen) < target and root not in self.missed:
                tree = self._common_star()
                if tree is None:
                    tree = self._last_tree(root=root, plain=True)
                if tree is None:
                    tree = self._last_tree(root=root)
                if tree is None:
                    self.missed.add(root)
                    break
                self._apply(tree)
                chosen.append(tree)
            if len(chosen) == target:
                return list(chosen)
            if not backoff_first and settled(target):
                return None
            if target - len(chosen) <= 2:
                for back in range(1, min(3 - (target - len(chosen)), len(chosen)) + 1):
                    self._undo(chosen[len(chosen) - back])
                    done = self._extend(chosen[:len(chosen) - back], None, target)
                    if done is not None or back == len(chosen):
                        return done
                if settled(target):
                    return None
        if settled(target):
            return None
        self._reset()
        return self._extend([], None, target)

    def _extend(self, chosen, last_key, target):
        self.tick()
        remaining = target - len(chosen)
        if remaining == 1:
            # exact: one more tree exists iff the terminals are connected in
            # the unused part, and BFS hands us that tree directly
            tree = self._last_tree()
            if tree is None:
                return None
            return list(chosen) + [tree]
        spare = (len(self.s_edges_all) - len(self.used_s_edges)) // (len(self.S) - 1)
        if remaining > len(self.avail) + spare:
            return None
        edges = self._residual_edges()
        if remaining * (len(self.S) - 1) > len(edges):
            return None
        if chosen and pair_flow_bound(Graph(self.G.n, edges), self.S, remaining) < remaining:
            return None
        for cand in self._trees(last_key, remaining == 2):
            self._apply(cand)
            result = self._extend(chosen + [cand], cand.edges, target)
            if result is not None:
                return result
            self._undo(cand)
        return None

    def _common_star(self):
        """Cheapest tree there is: the least unused vertex of `common`, the
        terminals' common neighbors.  Consumes a single vertex and one edge
        per terminal, so the greedy loop prefers it over anything BFS can make."""
        self.tick()
        for v in self.common:
            if v in self.avail:
                edges = tuple(sorted((v, s) if v < s else (s, v) for s in self.S))
                return _Candidate(edges, {v}, self.term_set, self.s_edges_all)
        return None

    def _last_tree(self, root=None, plain=False):
        """One more S-tree of the unused vertices and free terminal edges:
        the union of the terminals' root paths in the BFS tree of `_reach`,
        so its leaves are all terminals.  `plain` forbids terminal-terminal
        edges outright."""
        self.tick()
        if root is None:
            root = self.S[0]
        parent = self._reach(root, (), self.s_edges_all if plain else self.used_s_edges)
        if parent is None:
            return None
        edges, verts = root_paths(parent, root, self.S)
        return _Candidate(edges, verts, self.term_set, self.s_edges_all)

    def _reach(self, root, taken, blocked):
        """BFS from `root` over the terminals and the unused vertices outside
        `taken`, stepping from one terminal to another only along an edge
        outside `blocked`: its parent map once every terminal has a parent,
        or None when some terminal is cut off.  Shared by `_last_tree` and
        the look-ahead of `_trees`.

        The BFS stops as soon as every terminal has a parent.  A vertex's
        parent is fixed when BFS first reaches it, and a tree read off the
        terminals' ancestors needs only those, which were all reached
        before them, so the vertices a full BFS would go on to reach change
        nothing."""
        avail, term_set, nbrs = self.avail, self.term_set, self.G._nbrs
        parent = {root: None}
        left = len(term_set) - 1
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                u_term = u in term_set
                for v in nbrs[u]:
                    if v in parent:
                        continue
                    if v in term_set:
                        if u_term and ((u, v) if u < v else (v, u)) in blocked:
                            continue
                        left -= 1
                        if not left:
                            parent[v] = u
                            return parent
                    elif v not in avail or v in taken:
                        continue
                    parent[v] = u
                    nxt.append(v)
            queue = nxt
        return None

    def _apply(self, c):
        self.avail.difference_update(c.internals)
        self.used_s_edges.update(c.s_edges)

    def _undo(self, c):
        self.avail.update(c.internals)
        self.used_s_edges.difference_update(c.s_edges)

    def _residual_edges(self):
        """The edges a new tree may take, sorted: those among unused vertices
        and terminals, less the terminal edges that are not free."""
        live = self.avail | self.term_set
        blocked = self.used_s_edges
        return [(u, v) for u in sorted(live) for v in self.G.neighbors(u)
                if u < v and v in live and (u, v) not in blocked]

    # ---- candidate trees ----

    def _trees(self, last_key, look_ahead):
        """Every minimal S-tree of the unused vertices and free terminal
        edges whose key, its sorted edge tuple, exceeds `last_key`; each
        exactly once.  With `look_ahead`, when one tree is to follow, only
        those that leave room for it.

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

        The look-ahead (see the module docstring) drops a partial tree at
        the first leg step after which `_reach` finds the terminals cut
        apart in the residual the tree leaves: the unused vertices outside
        it and the free terminal edges it does not take.  `_reach` runs
        after each step that shrinks that residual, one to a non-terminal
        or along a terminal edge; any other step reaches a terminal from a
        non-terminal and leaves the residual as it was.
        """
        S, avail, term_set, tick = self.S, self.avail, self.term_set, self.tick
        nbrs, s_edges_all, reach = self.G._nbrs, self.s_edges_all, self._reach
        blocked = set(self.used_s_edges)    # and, as it grows, the tree's own
        floor = last_key[0] if last_key else ()
        tree = {S[0]: None}     # the tree's vertices, in the order they joined
        edges = []

        def legs(cur, t):
            # the leg DFS: yields once per leg from `cur` to t, with the
            # leg's vertices and edges on the tree while it is yielded
            tick()
            cur_term = cur in term_set
            for v in nbrs[cur]:
                if v in tree:
                    continue
                if v in avail:
                    tie = False
                elif v in term_set:
                    tie = cur_term      # a terminal edge
                else:
                    continue
                e = (cur, v) if cur < v else (v, cur)
                if e < floor or e in blocked:
                    continue
                tree[v] = None
                edges.append(e)
                if tie:
                    blocked.add(e)
                if (look_ahead and (tie or v not in term_set)
                        and reach(S[0], tree, blocked) is None):
                    pass    # no room left for the last tree
                elif v == t:
                    yield
                else:
                    yield from legs(v, t)
                if tie:
                    blocked.discard(e)
                del tree[v]
                edges.pop()

        def join(i):
            while i < len(S) and S[i] in tree:
                i += 1
            if i == len(S):
                yield _Candidate(tuple(sorted(edges)), tree.keys(), term_set, s_edges_all)
                return
            for u in list(tree):
                for _ in legs(u, S[i]):
                    yield from join(i + 1)

        yield from join(1)


def max_tree_packing(G: Graph, S, budget: int = DEFAULT_BUDGET,
                     cap=None, *, _pair_bound=None,
                     _component=None) -> TreePacking:
    """Maximum packing of internally disjoint S-trees.

    Each size makes one `_Search.find` call, which returns None only when
    no packing of that size exists (see the module docstring).  The result
    is exact iff the last size tried has no packing or the packing meets
    the upper bound: the pair flow, count or, if computed, fractional bound.
    `cap` stops the search as soon as a packing of that size is found, for
    callers that only need a witness.  `_pair_bound` and `_component`,
    private to `generalized_connectivity`, are `pair_flow_bound(G, S)` and
    the vertices of S's component when the caller has them already.
    """
    S = tuple(sorted(set(S)))
    if len(S) < 2:
        raise ValueError("need at least two distinct terminals")
    for s in S:
        if not 0 <= s < G.n:
            raise ValueError("terminal %s out of range" % s)
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    component = connected_component(G, S[0]) if _component is None else _component
    if any(s not in component for s in S[1:]):
        return TreePacking(G, S, [], verified=True, exact=True, nodes=0)

    if len(S) == 2:
        x, y = S
        paths = disjoint_paths(G, x, y, want=cap)
        edge_sets = [tuple(sorted((min(p[i], p[i + 1]), max(p[i], p[i + 1]))
                                  for i in range(len(p) - 1))) for p in paths]
        hit_cap = cap is not None and len(edge_sets) == cap
        exact = not hit_cap
        nodes = 0
    else:
        search = _Search(G, S, budget, component)
        if _pair_bound is None:
            _pair_bound = pair_flow_bound(G, S)
        ub = min(_pair_bound, _count_bound(G, S, component))
        lp_done = len(S) > _LP_MAX_TERMINALS

        def settled(t):
            # does the fractional bound, computed at most once per set, rule
            # out t trees?
            nonlocal ub, lp_done
            if not lp_done:
                from .fractional import fractional_bound
                lp_done = True
                ub = min(ub, fractional_bound(G, S, t, best, search.tick))
            return t > ub

        # try packings of size 1, 2, ... up to the bound: the first size that
        # fails settles the value; running out of budget leaves it open.  The
        # fractional bound can only lower `ub`, so a packing that stops at
        # its cap or the budget is flagged exact more often
        best = []
        found = best
        hit_cap = False
        for t in range(1, ub + 1):
            try:
                found = search.find(t, settled, cap is not None)
            except _OutOfBudget:
                if t == 1:
                    # one BFS, one step past the budget, settles size 1
                    search.budget = _BIG
                    search._reset()
                    tree = search._last_tree()
                    best = [] if tree is None else [tree]
                break
            if found is None:
                break
            best = found
            if cap is not None and t >= cap:
                hit_cap = True
                break
        exact = found is None or len(best) >= ub
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
    packing search, with the host's vertex set as S's component.

    Only one set per automorphism orbit is scanned: the lexicographically
    least k-set of each orbit of the group that the permutations inside
    the twin classes and, on a product, its factors' automorphisms
    generate (`symmetry.orbit_representatives`).  An automorphism maps
    S-trees onto trees of the image set, so kappa(S), the flow bound and
    the degree sum are equal on all sets of an orbit, and its least member
    sorts first in it.  Once that set is scanned the running minimum is at
    most its kappa(S), so every later member would only stop at that cap.
    Dropping them changes no value, exact flag or witness, only the nodes
    spent and with them where a budget runs out.
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
    from .symmetry import orbit_representatives
    order = sorted((pair_flow_bound(G, S), sum(G.degree(s) for s in S), S)
                   for S in orbit_representatives(G, k))
    vertices = range(G.n)     # G is connected
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
        pack = max_tree_packing(G, S, budget=left, cap=cur, _pair_bound=bound,
                                _component=vertices)
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


@lru_cache(maxsize=8)
def factor_kappa3(G: Graph, budget: int) -> GCResult:
    """kappa3(G, budget) once per factor graph, shared read-only by a bound
    report, its bounds and every triple of a construction on one base.
    Graphs hash by identity and the cache holds its keys, so no id is reused
    while its entry lives.  Call it positionally: lru_cache keys keywords apart."""
    return kappa3(G, budget)
