"""Steiner tree families in lexicographic products, built by explicit pattern.

Vertices of G o H are flat ids g*m + h ("lanes" share the h coordinate).
Every constructor returns trees whose pairwise vertex intersections are
exactly the terminal set.  One builder, `construct_general_lex`, serves
every base graph; the path and tree names check their base and call it.
It verifies each pattern family once; a family that fails, or that the
patterns cannot build, comes from the product oracle instead, whose trees
were checked inside `max_tree_packing`.

Pattern inventory, keyed by where the three terminals project in G:
- one fiber: a star through each neighboring fiber vertex (up to
  deg_G(u) * m trees);
- two fibers: per G-corridor between the projections, either the adjacent-pair
  or the far-pair family (m trees each);
- three fibers: per base S-tree (a tree base is its own base packing), the
  collinear cases split by the gap structure (consecutive, near-far, spread)
  and the branching case is a tripod of lane fans.

A family is *dangerous* when its G-tree joins two terminal projections by an
edge: only those patterns route internal vertices through terminal fibers.
Two dangerous families would collide inside a terminal fiber, so the builder
asks the base oracle for a packing with at most one dangerous tree;
safe families keep to corridor fibers of their own (corridor interiors of
internally disjoint base trees never overlap), which makes the composition
collision-free by construction.  The verifier still checks the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .connectivity import disjoint_paths
from .graphs import (Graph, ProductGraph, is_path_graph, is_tree, tree_median,
                     tree_path)
from .steiner import (DEFAULT_BUDGET, SteinerTree, kappa3, max_tree_packing,
                      verify_packing)


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


def lane_fan(P: ProductGraph, corridor, z: int):
    """m paths from z = (corridor[0], r) pairwise sharing only z.

    Path j leaves z into lane j of the next fiber and runs straight down
    that lane to (corridor[-1], j).  Needs consecutive corridor fibers
    adjacent in G and no repeated fiber.
    """
    G, H = P.left, P.right
    m = H.n
    zg, _ = P.unflatten(z)
    if len(corridor) < 2:
        raise ConstructionError("corridor must contain at least two fiber indices")
    if zg != corridor[0]:
        raise ConstructionError("fan apex %d is not in fiber %d" % (z, corridor[0]))
    if len(set(corridor)) != len(corridor):
        raise ConstructionError("corridor revisits a fiber")
    for a, b in zip(corridor, corridor[1:]):
        if not G.has_edge(a, b):
            raise ConstructionError("corridor step %d-%d is not an edge of the base graph"
                                    % (a, b))
    paths = []
    for j in range(m):
        path = [z]
        for g in corridor[1:]:
            path.append(P.flatten(g, j))
        paths.append(path)
    return paths


def _path_edges(path):
    return [_edge(path[i], path[i + 1]) for i in range(len(path) - 1)]


def _fill_lanes(m, S, name, specials, used, generic):
    """The special trees, given as (edges, tag), then generic(j) for every
    lane j outside `used`, in lane order: exactly m trees tagged name[tag]."""
    trees = [_as_tree(S, edges, "%s[%s]" % (name, tag)) for edges, tag in specials]
    trees += [_as_tree(S, generic(j), "%s[generic]" % name) for j in range(m) if j not in used]
    if len(trees) != m:
        raise ConstructionError("%s family produced %d trees, wanted %d"
                                % (name, len(trees), m))
    return trees


# ---------------------------------------------------------------- one or two fibers

def _hub_family(P, legs, tag):
    """m trees from (terminal, corridor) legs whose corridors all end in one
    hub fiber: tree j is lane j of each leg's lane fan, glued at the lane
    copy (hub, j)."""
    S = tuple(s for s, _ in legs)
    fans = [lane_fan(P, corridor, s) for s, corridor in legs]
    return [_as_tree(S, [e for fan in fans for e in _path_edges(fan[j])], tag)
            for j in range(P.right.n)]


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


def _fiber_patterns(P, S, ell):
    """The ell * m trees for terminals in one or two fibers, None for three
    fibers.

    One fiber u: the star joining S through (w, j) for each G-neighbor w of
    u and each lane j, in that order, the first ell * m of them.  Two
    fibers: one family per G-corridor from the pair's fiber to the far
    terminal's, ell internally disjoint corridors (on a tree, the one tree
    path).  An adjacent pair gets the adjacent-pair family; a far pair the
    hub family at corridor[1], where x and y meet (w, j) and lane j of a
    fan carries the corridor to z.  Safe: internals stay in corridor
    fibers."""
    G = P.left
    m = P.right.n
    fibers = [P.unflatten(s)[0] for s in S]
    proj = sorted(set(fibers))
    if len(proj) == 3:
        return None
    want = ell * m
    if len(proj) == 1:
        trees = [_as_tree(S, [_edge(s, P.flatten(w, j)) for s in S], "same_fiber_star")
                 for w in G.neighbors(proj[0]) for j in range(m)]
        if len(trees) < want:
            raise ConstructionError("fiber degree supports only %d trees of %d wanted"
                                    % (len(trees), want))
        return trees[:want]
    pair_fiber = max(proj, key=fibers.count)
    far_fiber = min(proj, key=fibers.count)
    x, y = sorted(s for s, g in zip(S, fibers) if g == pair_fiber)
    z = S[fibers.index(far_fiber)]
    corridors = disjoint_paths(G, pair_fiber, far_fiber, want=ell)
    if len(corridors) < ell:
        raise ConstructionError("base graph has only %d disjoint corridors of %d wanted"
                                % (len(corridors), ell))
    trees = []
    for corridor in corridors:
        if len(corridor) == 2:
            trees += _adjacent_pair_family(P, x, y, z)
        else:
            trees += _hub_family(P, [(x, corridor[:2]), (y, corridor[:2]),
                                     (z, corridor[:0:-1])], "pair_far_fan")
    return trees


# ---------------------------------------------------------------- three fibers

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
    corridor runs from z's fiber to y's fiber u2; fan lane v ends at (u2, v),
    lane q ends at y itself.  Generic lane v bridges x-(u2,v)-(u1,v)-y."""
    m = P.right.n
    u1, p = P.unflatten(x)
    u2, q = P.unflatten(y)
    r = P.unflatten(z)[1]

    def f1(h):
        return P.flatten(u1, h)

    def f2(h):
        return P.flatten(u2, h)

    fan = lane_fan(P, corridor, z)

    def fan_edges(v):
        return _path_edges(fan[v])

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


def _spread_family(P, x, y, z, corridor, j):
    """All pairwise fiber gaps >= 2; y's fiber is corridor[j].  Tree v routes
    x down lane v to the fiber before y, crosses to y, re-enters lane v on
    the far side, and continues to z.  Uniform over lanes, no specials."""
    m = P.right.n
    fan_x = lane_fan(P, list(corridor[:j]), x)
    fan_z = lane_fan(P, list(corridor[j + 1:])[::-1], z)
    trees = []
    for v in range(m):
        before = P.flatten(corridor[j - 1], v)
        after = P.flatten(corridor[j + 1], v)
        edges = [_edge(before, y), _edge(y, after)]
        edges += _path_edges(fan_x[v])
        edges += _path_edges(fan_z[v])
        trees.append(_as_tree((x, y, z), edges, "spread"))
    return trees


def _construct_on_tree(P: ProductGraph, T: Graph, S) -> list:
    """Dispatch the three-distinct-fiber patterns along the base tree T; a
    branching T gets the hub family at the branch vertex mu, a tripod."""
    coords = sorted(((P.unflatten(s)[0], s) for s in S))
    gs = [g for g, _ in coords]
    mu = tree_median(T, gs[0], gs[1], gs[2])
    if mu not in gs:
        return _hub_family(P, [(s, tree_path(T, g, mu)) for g, s in coords], "tripod")
    ends = [s for g, s in coords if g != mu]
    mid = [s for g, s in coords if g == mu][0]
    corridor = tree_path(T, P.unflatten(ends[0])[0], P.unflatten(ends[1])[0])
    j = corridor.index(mu)
    d1 = j
    d2 = len(corridor) - 1 - j
    x, y, z = ends[0], mid, ends[1]
    if d1 == 1 and d2 == 1:
        return _consecutive_family(P, x, y, z)
    if d1 == 1 and d2 >= 2:
        return _near_far_family(P, x, y, z, list(corridor[j:])[::-1])
    if d1 >= 2 and d2 == 1:
        return _near_far_family(P, z, y, x, list(corridor[: j + 1]))
    return _spread_family(P, x, y, z, corridor, j)


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


def construct_general_lex(P: ProductGraph, S, ell=None,
                          budget: int = DEFAULT_BUDGET) -> ConstructionResult:
    """At least ell * m verified trees for a connected base graph, ell
    defaulting to the base oracle's kappa_3(G), and to 1 on a tree.

    One pattern family per base S-tree from an exact base packing restricted
    to at most one terminal-edge ("dangerous") tree; a tree base is its own
    packing.  Where the base graph admits no such packing of size ell, or
    the patterns fail, the whole family comes from the exact oracle on the
    product instead, tagged oracle_fallback.
    """
    _check_product(P)
    S = _check_terminals(P, S)
    G = P.left
    tree_base = is_tree(G)
    notes = []
    exact = True

    if ell is None and tree_base:
        ell = 1
    elif ell is None:
        base_k3 = kappa3(G, budget=budget)
        ell = base_k3.value
        if not base_k3.exact:
            notes.append("base kappa_3 budget exhausted; using lower bound %d" % ell)
            exact = False
    if ell < 1:
        raise ConstructionError("tree count target must be at least 1")
    want = ell * P.right.n

    try:
        trees = _fiber_patterns(P, S, ell)
        if trees is None:
            # three fibers: exact base packing, at most one dangerous tree
            if tree_base:
                bases = [G]
            else:
                proj = tuple(sorted({P.unflatten(s)[0] for s in S}))
                bases = [Graph(G.n, t.edges) for t in max_tree_packing(
                    G, proj, budget=budget, cap=ell, dangerous_limit=1).trees]
            if len(bases) >= ell:
                trees = [t for T in bases for t in _construct_on_tree(P, T, S)]
            else:
                notes.append(
                    "base packing with one dangerous tree reaches only %d of %d families"
                    % (len(bases), ell))
                trees = []
        if trees:
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
