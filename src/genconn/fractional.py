"""The fractional Steiner-tree packing bound on kappa(S).

Internally disjoint S-trees share no edge and no non-terminal vertex, so
kappa(S) is at most the value of the fractional packing LP of Jain, Mahdian
and Salavatipour ("Packing Steiner trees", SODA 2003): maximise the sum of
x_T over the S-trees T subject to at most one unit of each such element.
`fractional_bound` turns weak duality for that LP into an integer bound,
and `min_weight_tree`, the Dreyfus-Wagner dynamic program (Networks 1,
1971), prices it exactly.

The inner loops touch only what they change, and each yields bit for bit
the floats of the plain loop over every entry:
- a pivot subtracts f * b from a row, and from the reduced costs, only
  where the pivot row's entry b is nonzero; elsewhere a - f * 0.0 is a up
  to the sign of a zero, which no comparison, sum or rounding here reads;
- a new column's entries are `sum(map(...))` over its resources' slack
  columns: the same floats added in the same order;
- a subset merge forms a[v] + b[v] - vw[v] for every v with `map` and
  visits only the v where that is strictly below c[v], the only v a loop
  over every vertex would change.

`steiner.max_tree_packing` imports this module the first time it asks
for the bound, so `import genconn` does not compile it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, lt, sub as subtract

from .graphs import Graph, root_paths

# the fractional bound's fixed point: duals are rounded to multiples of
# 1/_SCALE before the exact pricing; _EPS is the simplex's float tolerance
_SCALE = 1 << 20
_EPS = 1e-9
# returned when no weighting gave a bound
_NO_BOUND = 1 << 30


def min_weight_tree(G: Graph, S, vw, ew, tick):
    """Least weight of an S-tree of G, and one minimal tree of that weight:
    Dreyfus-Wagner in integers.

    `vw[v] >= 0` weighs vertex v and is 0 on terminals; `ew` maps every edge
    (u, v), u < v, to its weight >= 0.  cost[D][v] is the least weight of a
    tree holding the terminals of D and v, v's own weight included: a step
    from v to u adds w(vu) + w(u), and a merge of two trees at v counts w(v)
    once.  The traced structure may reuse a vertex or an edge, which with
    weights >= 0 only overcounts, so the minimal S-tree inside its union
    weighs no more and the value is exact.  `tick` runs once per subset
    merge."""
    inf = float("inf")
    root, rest = S[0], S[1:]
    n = G.n
    steps = [[(u, ew[(v, u) if v < u else (u, v)] + vw[u]) for u in G.neighbors(v)]
             for v in range(n)]
    full = (1 << len(rest)) - 1
    # dicts, filled as far as the budget lets the merges go
    cost = {}
    how = {}        # None: a lone terminal; ~u: a step from u; D1: a merge
    for D in range(1, full + 1):
        c = [inf] * n
        h = [None] * n
        if D & (D - 1) == 0:
            c[rest[D.bit_length() - 1]] = 0
        else:
            low = D & -D
            sub = (D - 1) & D
            while sub:
                if sub & low:
                    tick()
                    xs = list(map(subtract, map(add, cost[sub], cost[D ^ sub]), vw))
                    for v in compress(range(n), map(lt, xs, c)):
                        c[v] = xs[v]
                        h[v] = sub
                sub = (sub - 1) & D
        heap = [(x, v) for v, x in enumerate(c) if x < inf]
        heapify(heap)
        while heap:
            x, v = heappop(heap)
            if x > c[v]:
                continue
            for u, step in steps[v]:
                if x + step < c[u]:
                    c[u] = x + step
                    h[u] = ~v
                    heappush(heap, (x + step, u))
        cost[D] = c
        how[D] = h
    union = {}
    todo = [(full, root)]
    while todo:
        D, v = todo.pop()
        while how[D][v] is not None:
            x = how[D][v]
            if x < 0:
                union.setdefault(v, set()).add(~x)
                union.setdefault(~x, set()).add(v)
                v = ~x
            else:
                todo.append((x, v))
                D ^= x
    # the root paths of a BFS tree of the union reach every terminal
    parent = {root: None}
    queue = [root]
    for u in queue:
        for v in sorted(union.get(u, ())):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return cost[full][root], root_paths(parent, root, S)[0]


def fractional_bound(G: Graph, S, target, trees, tick) -> int:
    """An upper bound on kappa(S) from the fractional packing LP, returned
    as soon as it is below `target`.

    Weak duality: for weights w >= 0 on the non-terminal vertices and the
    edges, let W(w) be the least weight of an S-tree.  The trees of a
    packing are disjoint in both, so a packing of p trees weighs at least
    p * W(w) and at most sum(w): kappa(S) <= floor(sum(w) / W(w)).  Any w
    gives a sound bound once W(w) is exact, which `min_weight_tree`
    computes in integers.

    Column generation picks w.  The restricted master LP, maximise the sum
    of x_T over the trees T found so far subject to at most one unit of
    each vertex and edge, starts from the disjoint `trees` and is solved by
    a tableau simplex in floats with Bland's rule, its rows kept in full
    and each pivot applied at the pivot row's nonzeros; x = 0 is feasible,
    so no phase 1 is needed.  Its duals, clipped at 0 and rounded to
    integers, are the next w, priced exactly.  The float work only proposes
    w: error can loosen the bound but not break it.  It stops once no tree
    is cheaper than one unit (the LP is solved), once the cheapest tree is
    already a column, or once the bound falls below `target`.  `tick` runs
    once per round and per pivot, and in the pricing's subset merges.
    """
    term = frozenset(S)
    all_edges = G.edges()
    rows = {}       # resource (a vertex or an edge) -> its row
    slack = []      # row -> its slack variable
    tab = []        # tableau rows, one entry per variable
    rhs = []
    basis = []
    d = []          # reduced costs z_j - c_j; on a slack, its row's dual
    columns = set()

    def add_column(edges):
        columns.add(edges)
        res = list(edges) + sorted({v for e in edges for v in e} - term)
        for r in res:
            if r not in rows:
                # no column uses r yet: a new row with its slack basic
                rows[r] = len(tab)
                for row in tab:
                    row.append(0.0)
                tab.append([0.0] * len(d) + [1.0])
                slack.append(len(d))
                basis.append(len(d))
                rhs.append(1.0)
                d.append(0.0)
        cols = [slack[rows[r]] for r in res]
        for row in tab:
            row.append(sum(map(row.__getitem__, cols)))
        d.append(sum(map(d.__getitem__, cols)) - 1.0)

    def solve():
        while True:
            enter = next((j for j, dj in enumerate(d) if dj < -_EPS), None)
            if enter is None:
                return
            tick()
            out = None
            for i, row in enumerate(tab):
                if row[enter] > _EPS:
                    ratio = rhs[i] / row[enter]
                    if (out is None or ratio < least - _EPS
                            or (ratio <= least + _EPS and basis[i] < basis[out])):
                        out, least = i, ratio
            if out is None:
                # only float error can leave the bounded LP without a pivot
                # row; the duals reached so far are still a fair proposal
                return
            prow = tab[out]
            p = prow[enter]
            prow = tab[out] = [a / p for a in prow]
            rhs[out] /= p
            nonzeros = [(j, b) for j, b in enumerate(prow) if b]
            for i, row in enumerate(tab):
                f = row[enter]
                if i != out and f:
                    for j, b in nonzeros:
                        row[j] -= f * b
                    rhs[i] -= f * rhs[out]
            f = d[enter]
            for j, b in nonzeros:
                d[j] -= f * b
            basis[out] = enter

    for t in trees:
        add_column(t.edges)
    best = _NO_BOUND
    while True:
        tick()
        solve()
        vw = [0] * G.n
        ew = dict.fromkeys(all_edges, 0)
        total = 0
        for r, i in rows.items():
            w = round(max(d[slack[i]], 0.0) * _SCALE)
            if isinstance(r, tuple):
                ew[r] = w
            else:
                vw[r] = w
            total += w
        W, edges = min_weight_tree(G, S, vw, ew, tick)
        if W:
            best = min(best, total // W)
        if best < target or W >= _SCALE or edges in columns:
            return best
        add_column(edges)
