"""Steiner tree families in lexicographic products, laid on base trees.

Vertices of G o H are flat ids g*m + h ("lanes" share the h coordinate).
Every constructor returns trees whose pairwise vertex intersections are
exactly the terminal set.  One builder, `construct_general_lex`, serves
every base graph; the path and tree names check their base and call it.
It verifies each pattern family once; a family that fails, or that the
patterns cannot build, comes from the product oracle instead, whose trees
were checked inside `max_tree_packing`.

The builder works in two steps.  `_base_trees` picks the base trees, as
G-edge lists joining the fibers of the three terminals:
- one fiber u: the edges u-w to the first ell neighbors w;
- two fibers: the ell `disjoint_paths` corridors between them;
- three fibers: on a tree base, the least subtree joining the fibers;
  otherwise the trees of an exact base packing as they come, already
  minimal (every leaf a fiber).
`_family` then lays m trees on each base tree.  A base tree is *dangerous*
when it has an edge between two terminal fibers.  A safe base tree gets
its m lane lifts (`_lift`): lift j keeps the terminals and puts every
other base vertex g at (g, j); by shape these are the same-fiber stars,
far-pair fans, tripods and spread families.  A dangerous base tree gets
the pattern of its shape (adjacent pair, consecutive or near-far), whose
trees also route internal vertices through lanes of terminal fibers.

The composition is collision-free by construction.  The lifts of one base
tree use distinct lanes, so they share no internal vertex.  Safe families
keep their internal vertices out of terminal fibers, inside the interior
of their own base tree, and the interiors of internally disjoint base
trees never overlap.  Only dangerous families use terminal-fiber lanes, so
two of them could collide there; hence at most one dangerous tree: the
corridors have at most one direct edge, and the three-fiber base packing
is cut before its second dangerous tree.  Where fewer than ell base trees
are left, or the family fails `verify_packing`, the product oracle's family
replaces it, so the cut never gives a wrong family (`_base_trees` says
where it was measured).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .connectivity import disjoint_paths
from .graphs import ProductGraph, is_path_graph, is_tree
from .steiner import (DEFAULT_BUDGET, SteinerTree, factor_kappa3,
                      max_tree_packing, verify_packing)


class ConstructionError(ValueError):
    pass


@dataclass
class ConstructionResult:
    product: ProductGraph
    terminals: tuple
    trees: list
    fallbacks: int = 0
    notes: list = field(default_factory=list)
    exact: bool = True  # False when a budget ran out: base kappa_3 or product oracle

    @property
    def size(self) -> int:
        return len(self.trees)


def _edge(a, b):
    return (a, b) if a < b else (b, a)


def _h_neighbor(H, h):
    nbrs = H.neighbors(h)
    if not nbrs:
        raise ConstructionError("no adjacency available in the inner graph at %d" % h)
    return nbrs[0]


def _as_tree(terminals, edges, provenance):
    return SteinerTree(tuple(sorted(terminals)), tuple(sorted(edges)), provenance)


def _lift(P, T, ends, j):
    """Lane j of the base edges T: the fiber of each terminal in `ends`
    becomes those terminals, any other base vertex g becomes (g, j)."""
    image = {}
    for s in ends:
        image.setdefault(P.unflatten(s)[0], []).append(s)
    return [_edge(a, b) for g, h in T
            for a in image.get(g, [P.flatten(g, j)]) for b in image.get(h, [P.flatten(h, j)])]


def _fill_lanes(m, S, name, specials, used, generic):
    """The special trees, given as (edges, tag), then generic(j) for every
    lane j outside `used`, in lane order: exactly m trees tagged name[tag]."""
    trees = [_as_tree(S, edges, "%s[%s]" % (name, tag)) for edges, tag in specials]
    trees += [_as_tree(S, generic(j), "%s[generic]" % name) for j in range(m) if j not in used]
    if len(trees) != m:
        raise ConstructionError("%s family produced %d trees, wanted %d"
                                % (name, len(trees), m))
    return trees


# ---------------------------------------------------------------- dangerous patterns

def _adjacent_pair_family(P, x, y, z):
    """Pair x, y in fiber a; z in adjacent fiber b.  m trees, at most one
    intra-fiber edge, split by the coincidence pattern of the h-coordinates."""
    H = P.right
    m = H.n
    a, p = P.unflatten(x)
    b, r = P.unflatten(z)
    q = P.unflatten(y)[1]

    def fa(h):
        return P.flatten(a, h)

    def fb(h):
        return P.flatten(b, h)

    used = {p, q, r}

    def generic(j):
        return [_edge(x, fb(j)), _edge(y, fb(j)), _edge(fb(j), fa(j)), _edge(fa(j), z)]

    if r != p and r != q:
        adj_rq = H.has_edge(r, q)
        adj_rp = H.has_edge(r, p)
        if adj_rp and not adj_rq:
            x, y = y, x
            p, q = q, p
            adj_rq, adj_rp = adj_rp, adj_rq
        if adj_rq:
            specials = [
                ([_edge(x, z), _edge(y, z)], "direct"),
                ([_edge(x, fb(p)), _edge(fb(p), y), _edge(fb(p), fa(r)), _edge(fa(r), z)],
                 "via_pair_lane"),
                ([_edge(x, fb(q)), _edge(fb(q), y), _edge(fb(q), z)], "intra_far")]
        elif H.has_edge(p, q):
            specials = [
                ([_edge(x, fb(p)), _edge(fb(p), y), _edge(y, z)], "pair_lane_direct"),
                ([_edge(x, z), _edge(x, y)], "intra_pair"),
                ([_edge(x, fb(q)), _edge(y, fb(q)), _edge(fb(q), fa(r)), _edge(fa(r), z)],
                 "far_lane")]
        else:
            if m < 4:
                raise ConstructionError("no adjacency available for the adjacent-pair family")
            w = _h_neighbor(H, r)
            used.add(w)
            specials = [
                ([_edge(x, z), _edge(y, z)], "direct"),
                ([_edge(x, fb(p)), _edge(fb(p), y), _edge(fb(p), fa(r)), _edge(fa(r), z)],
                 "via_pair_lane"),
                ([_edge(x, fb(q)), _edge(fb(q), y), _edge(fb(q), fa(w)), _edge(fa(w), z)],
                 "via_far_lane"),
                ([_edge(x, fb(w)), _edge(y, fb(w)), _edge(fb(w), z)], "intra_far")]
    else:
        if r == p:
            x, y = y, x
            p, q = q, p
        # now r == q: z sits directly above y's lane
        if H.has_edge(p, q):
            specials = [
                ([_edge(x, z), _edge(x, fb(p)), _edge(fb(p), y)], "pair_lane"),
                ([_edge(y, z), _edge(x, y)], "intra_pair")]
        else:
            w = _h_neighbor(H, q)
            used.add(w)
            specials = [
                ([_edge(x, z), _edge(y, z)], "direct"),
                ([_edge(x, fb(p)), _edge(fb(p), y), _edge(fb(p), fa(w)), _edge(fa(w), z)],
                 "via_pair_lane"),
                ([_edge(x, fb(w)), _edge(y, fb(w)), _edge(fb(w), z)], "intra_far")]
    return _fill_lanes(m, (x, y, z), "pair_adjacent", specials, used, generic)


def _consecutive_family(P, x, y, z):
    """Projections u1 ~ u2 ~ u3 consecutive in G, y in the middle fiber.
    Generic lane v: star at (u2, v) reaching x and z, plus (u1, v) to y.
    Special trees split by the h-coordinate coincidence pattern."""
    m = P.right.n
    u1, p = P.unflatten(x)
    u2, q = P.unflatten(y)
    u3, r = P.unflatten(z)

    def f1(h):
        return P.flatten(u1, h)

    def f2(h):
        return P.flatten(u2, h)

    def f3(h):
        return P.flatten(u3, h)

    def generic(v):
        return [_edge(x, f2(v)), _edge(f2(v), f1(v)), _edge(f1(v), y), _edge(z, f2(v))]

    specials = [([_edge(x, y), _edge(y, z)], "direct")]
    if p != q and q != r and p != r:
        specials += [
            ([_edge(x, f2(p)), _edge(f2(p), f1(r)), _edge(f2(p), z), _edge(f1(r), y)],
             "lane_p"),
            ([_edge(x, f2(r)), _edge(z, f2(r)), _edge(f1(q), f2(r)), _edge(y, f1(q))],
             "lane_r")]
    elif q == r and p != q:
        specials.append(
            ([_edge(x, f2(p)), _edge(f2(p), f3(p)), _edge(y, f3(p)), _edge(f2(p), z)],
             "lane_p"))
    elif p == q and q != r:
        specials.append(
            ([_edge(x, f2(r)), _edge(z, f2(r)), _edge(f1(r), f2(r)), _edge(y, f1(r))],
             "lane_r"))
    elif p == r and p != q:
        specials.append(
            ([_edge(x, f2(p)), _edge(f2(p), z), _edge(f2(p), f1(q)), _edge(f1(q), y)],
             "lane_p"))
    return _fill_lanes(m, (x, y, z), "consecutive", specials, {p, q, r}, generic)


def _near_far_family(P, x, y, z, corridor):
    """Collinear with gaps 1 and >= 2: x one fiber from y, z far.
    corridor holds the base edges from z's fiber to y's fiber u2; its lift
    to lane v ends at (u2, v), which for lane q is y itself.  Generic lane
    v bridges x-(u2,v)-(u1,v)-y."""
    m = P.right.n
    u1, p = P.unflatten(x)
    u2, q = P.unflatten(y)
    r = P.unflatten(z)[1]

    def f1(h):
        return P.flatten(u1, h)

    def f2(h):
        return P.flatten(u2, h)

    def fan_edges(v):
        return _lift(P, corridor, (z,), v)

    def generic(v):
        return [_edge(x, f2(v)), _edge(f2(v), f1(v)), _edge(f1(v), y)] + fan_edges(v)

    lane_p = ([_edge(x, f2(p)), _edge(f2(p), f1(q)), _edge(f1(q), y)] + fan_edges(p),
              "lane_p")
    lane_q = ([_edge(x, y)] + fan_edges(q), "lane_q")
    lane_r = ([_edge(x, f2(r)), _edge(f2(r), f1(r)), _edge(f1(r), y)] + fan_edges(r),
              "lane_r")
    if p != q and q != r and p != r:
        specials = [lane_p, lane_q, lane_r]
    elif p == q and q != r:
        specials = [lane_q, lane_r]
    else:
        # q == r, p == r, or all equal: the q lane carries the direct tree;
        # f1(p) is x itself, so the p lane bridges through f1(q) instead
        specials = [lane_q] if p == q else [lane_q, lane_p]
    return _fill_lanes(m, (x, y, z), "near_far", specials, {p, q, r}, generic)


# ---------------------------------------------------------------- composer

def _base_trees(P, S, ell, budget):
    """The base trees for the fibers of S, as G-edge lists: ell of them for
    one or two fibers; for three, the least subtree of a tree base joining
    the fibers, otherwise the trees of an exact base packing of at most ell
    trees, cut before its second dangerous tree.  `max_tree_packing` emits
    only minimal trees, whose every leaf is a terminal, here a fiber.

    Where the cut leaves fewer than ell trees the caller notes it and takes
    the product oracle's family.  Over every triple of the 29 connected
    bases of order 3 to 5 with H in {P2, P3, K3}, budgets 4 to 200,000, it
    gives the certificates of a search for at most one dangerous tree,
    1,116 fallbacks included; on 160 seeded random bases of order 6 and 7
    it falls back on 7 of 4,385 fiber sets where that search would not."""
    G = P.left
    m = P.right.n
    fibers = [P.unflatten(s)[0] for s in S]
    proj = sorted(set(fibers))
    if len(proj) == 1:
        edges = [(proj[0], w) for w in G.neighbors(proj[0])]
        if len(edges) < ell:
            raise ConstructionError("fiber degree supports only %d trees of %d wanted"
                                    % (len(edges) * m, ell * m))
        return [[e] for e in edges[:ell]]
    if len(proj) == 2:
        pair_fiber = max(proj, key=fibers.count)
        far_fiber = min(proj, key=fibers.count)
        corridors = disjoint_paths(G, pair_fiber, far_fiber, want=ell)
        if len(corridors) < ell:
            raise ConstructionError("base graph has only %d disjoint corridors of %d wanted"
                                    % (len(corridors), ell))
        return [list(zip(c, c[1:])) for c in corridors]
    if not is_tree(G):
        trees = [list(t.edges) for t in max_tree_packing(
            G, tuple(proj), budget=budget, cap=ell).trees]
        dangerous = accumulate(any(u in proj and v in proj for u, v in T) for T in trees)
        return [T for T, d in zip(trees, dangerous) if d < 2]
    # on a tree the least subtree joining fibers a < b < c is the union of
    # its a-b and b-c paths, the one path `disjoint_paths` finds for each pair
    a, b, c = proj
    return [sorted({_edge(*e) for u, v in ((a, b), (b, c))
                    for path in disjoint_paths(G, u, v) for e in zip(path, path[1:])})]


def _family(P, T, S):
    """The m trees laid on the base tree T, a G-edge list whose leaves are
    terminal fibers: the lane lifts of a safe T, tagged by its shape, or
    the pattern family of a dangerous one."""
    at = {}
    for s in S:
        at.setdefault(P.unflatten(s)[0], []).append(s)
    joined = [e for e in T if e[0] in at and e[1] in at]
    degree = Counter(g for e in T for g in e)
    if not joined:
        tag = "tripod" if 3 in degree.values() else (
            "same_fiber_star", "pair_far_fan", "spread")[len(at) - 1]
        return [_as_tree(S, _lift(P, T, S, j), tag) for j in range(P.right.n)]
    if len(at) == 2:
        (x, y), (z,) = sorted(at.values(), key=len, reverse=True)
        return _adjacent_pair_family(P, x, y, z)
    # three fibers on a path through the middle terminal y; x, z the ends in fiber order
    y = next(s for s in S if degree[P.unflatten(s)[0]] == 2)
    x, z = (s for s in S if s != y)
    if len(joined) == 2:
        return _consecutive_family(P, x, y, z)
    if P.unflatten(x)[0] not in joined[0]:
        x, z = z, x
    return _near_far_family(P, x, y, z, [e for e in T if e != joined[0]])


# ---------------------------------------------------------------- dispatchers

def _check_product(P):
    if not isinstance(P, ProductGraph) or P.kind != "lexicographic":
        raise ConstructionError("constructions need a lexicographic product graph")


def _check_terminals(P, S):
    S = tuple(sorted(set(S)))
    if len(S) != 3:
        raise ConstructionError("exactly three distinct terminals required")
    for s in S:
        if not 0 <= s < P.n:
            raise ConstructionError("terminal %d out of range" % s)
    return S


def construct_path_lex(P: ProductGraph, S) -> ConstructionResult:
    """Tree family for a path base graph: exactly m verified trees."""
    _check_product(P)
    if not is_path_graph(P.left):
        raise ConstructionError("base graph is not a path")
    return construct_tree_lex(P, S)


def construct_tree_lex(P: ProductGraph, S) -> ConstructionResult:
    """Tree family for a tree base graph: exactly m verified trees, or the
    product oracle's family for one base vertex or an isolated vertex in H."""
    _check_product(P)
    if not is_tree(P.left):
        raise ConstructionError("base graph is not a tree")
    return construct_general_lex(P, S)


def construct_general_lex(P: ProductGraph, S,
                          budget: int = DEFAULT_BUDGET) -> ConstructionResult:
    """At least ell * m verified trees for a connected base graph, ell
    being the base oracle's kappa_3(G), or 1 on a tree; a disconnected
    base (ell = 0) is rejected.

    One family of m trees laid on each base tree that `_base_trees` picks;
    for three fibers these come from an exact base packing cut before its
    second terminal-edge ("dangerous") tree, and a tree base is its own
    packing.  Where that cut leaves fewer than ell base trees, or the
    patterns fail, the whole family comes from the exact oracle on the
    product instead, tagged oracle_fallback.
    """
    _check_product(P)
    S = _check_terminals(P, S)
    G = P.left
    notes = []
    exact = True

    if is_tree(G):
        ell = 1
    else:
        base = factor_kappa3(G, budget)
        ell, exact = base.value, base.exact
        if not exact:
            notes.append("base kappa_3 budget exhausted; using lower bound %d" % ell)
    if ell < 1:
        raise ConstructionError("tree count target must be at least 1")
    want = ell * P.right.n

    try:
        bases = _base_trees(P, S, ell, budget)
        if len(bases) < ell:
            notes.append("base packing with one dangerous tree reaches only %d of %d families"
                         % (len(bases), ell))
            trees = []
        else:
            trees = [t for T in bases for t in _family(P, T, S)]
            verdict = verify_packing(P, S, trees)
            if not verdict.ok:
                raise ConstructionError("constructed family fails verification: "
                                        + verdict.reason)
    except ConstructionError as exc:
        notes.append("pattern construction failed: %s" % exc)
        trees = []

    fallbacks = 0
    if len(trees) < want:
        prod_pack = max_tree_packing(P, S, budget=budget, cap=want)
        if prod_pack.size < want and not prod_pack.exact:
            notes.append("product oracle budget exhausted at %d trees" % prod_pack.size)
            exact = False
        trees = [SteinerTree(t.terminals, t.edges, "oracle_fallback")
                 for t in prod_pack.trees]
        fallbacks = len(trees)
        notes.append("oracle fallback supplied the family")
    return ConstructionResult(P, S, trees, fallbacks, notes, exact)
