"""Steiner tree families in lexicographic products, built by explicit pattern.

Vertices of G o H are flat ids g*m + h ("lanes" share the h coordinate).
Every constructor returns trees whose pairwise vertex intersections are
exactly the terminal set; all are re-checked by the independent verifier
before being returned.

Pattern inventory, keyed by where the three terminals project in G:
- one fiber: a star through each neighboring fiber vertex (deg_G(u) * m trees);
- two fibers: per G-corridor between the projections, either the adjacent-pair
  or the far-pair family (m trees each);
- three fibers: the projections span a subtree of the chosen G-tree; the
  collinear cases split by the gap structure (consecutive, near-far, spread)
  and the branching case is a tripod of lane fans.

A family is *dangerous* when its G-tree joins two terminal projections by an
edge: only those patterns route internal vertices through terminal fibers.
Two dangerous families would collide inside a terminal fiber, so the general
composer asks the base oracle for a packing with at most one dangerous tree;
safe families keep to corridor fibers of their own (corridor interiors of
internally disjoint base trees never overlap), which makes the composition
collision-free by construction.  The verifier still checks the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (Graph, ProductGraph, is_path_graph, is_tree, tree_median,
                     tree_path)
from .steiner import (DEFAULT_BUDGET, SteinerTree, max_tree_packing,
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


def _verified(P, terminals, trees):
    verdict = verify_packing(P, terminals, trees)
    if not verdict.ok:
        raise ConstructionError("constructed family fails verification: " + verdict.reason)
    return trees


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


# ---------------------------------------------------------------- one fiber

def construct_same_fiber(P: ProductGraph, S) -> list:
    """All three terminals in fiber u: for each G-neighbor w of u and each
    lane j, the star joining S through (w, j).  deg_G(u) * m trees."""
    G, H = P.left, P.right
    m = H.n
    gs = {P.unflatten(s)[0] for s in S}
    if len(gs) != 1:
        raise ConstructionError("terminals span more than one fiber")
    u = gs.pop()
    trees = []
    for w in G.neighbors(u):
        for j in range(m):
            c = P.flatten(w, j)
            edges = [_edge(s, c) for s in S]
            trees.append(_as_tree(S, edges, "same_fiber_star"))
    return _verified(P, tuple(sorted(S)), trees)


# ---------------------------------------------------------------- two fibers

def construct_two_in_fiber(P: ProductGraph, S, corridor) -> list:
    """Two terminals in fiber corridor[0], one in fiber corridor[-1], joined
    along the given G-corridor.  Adjacent fibers use the coincidence-split
    adjacent family; longer corridors use the far-pair fan family.  Exactly
    m trees either way."""
    a = corridor[0]
    b = corridor[-1]
    pair = [s for s in S if P.unflatten(s)[0] == a]
    far = [s for s in S if P.unflatten(s)[0] == b]
    if len(pair) != 2 or len(far) != 1:
        raise ConstructionError("corridor endpoints do not split the terminals 2 + 1")
    x, y = sorted(pair)
    z = far[0]
    if len(corridor) == 2:
        trees = _adjacent_pair_family(P, x, y, z)
    else:
        trees = _far_pair_family(P, x, y, z, corridor)
    return _verified(P, tuple(sorted(S)), trees)


def _far_pair_family(P, x, y, z, corridor):
    """Pair fiber at corridor[0], far terminal at corridor[-1], gap >= 2.
    Tree j: x and y meet at (w, j) in the fiber next to the pair's, then
    lane j of a fan carries the corridor to z.  Safe: internals stay in
    corridor fibers."""
    m = P.right.n
    w = corridor[1]
    fan = lane_fan(P, list(corridor[:0:-1]), z)  # z's fiber down to w
    trees = []
    for j in range(m):
        mid = P.flatten(w, j)
        path = fan[j]
        if path[-1] != mid:
            raise ConstructionError("lane fan does not meet the pair fiber")
        edges = [_edge(x, mid), _edge(y, mid)] + _path_edges(path)
        trees.append(_as_tree((x, y, z), edges, "pair_far_fan"))
    return trees


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

    trees = []
    used = set()

    def emit(edges, tag):
        trees.append(_as_tree((x, y, z), edges, "pair_adjacent[%s]" % tag))

    def generic(j):
        used.add(j)
        return [_edge(x, fb(j)), _edge(y, fb(j)), _edge(fb(j), fa(j)), _edge(fa(j), z)]

    if r != p and r != q:
        adj_rq = H.has_edge(r, q)
        adj_rp = H.has_edge(r, p)
        if adj_rp and not adj_rq:
            x, y = y, x
            p, q = q, p
            adj_rq, adj_rp = adj_rp, adj_rq
        if adj_rq:
            emit([_edge(x, z), _edge(y, z)], "direct")
            emit([_edge(x, fb(p)), _edge(fb(p), y), _edge(fb(p), fa(r)), _edge(fa(r), z)],
                 "via_pair_lane")
            emit([_edge(x, fb(q)), _edge(fb(q), y), _edge(fb(q), z)], "intra_far")
            used.update((p, q, r))
        elif H.has_edge(p, q):
            emit([_edge(x, fb(p)), _edge(fb(p), y), _edge(y, z)], "pair_lane_direct")
            emit([_edge(x, z), _edge(x, y)], "intra_pair")
            emit([_edge(x, fb(q)), _edge(y, fb(q)), _edge(fb(q), fa(r)), _edge(fa(r), z)],
                 "far_lane")
            used.update((p, q, r))
        else:
            if m < 4:
                raise ConstructionError("no adjacency available for the adjacent-pair family")
            w = _h_neighbor(H, r)
            emit([_edge(x, z), _edge(y, z)], "direct")
            emit([_edge(x, fb(p)), _edge(fb(p), y), _edge(fb(p), fa(r)), _edge(fa(r), z)],
                 "via_pair_lane")
            emit([_edge(x, fb(q)), _edge(fb(q), y), _edge(fb(q), fa(w)), _edge(fa(w), z)],
                 "via_far_lane")
            emit([_edge(x, fb(w)), _edge(y, fb(w)), _edge(fb(w), z)], "intra_far")
            used.update((p, q, r, w))
    else:
        if r == p:
            x, y = y, x
            p, q = q, p
        # now r == q: z sits directly above y's lane
        if H.has_edge(p, q):
            emit([_edge(x, z), _edge(x, fb(p)), _edge(fb(p), y)], "pair_lane")
            emit([_edge(y, z), _edge(x, y)], "intra_pair")
            used.update((p, q))
        else:
            w = _h_neighbor(H, q)
            emit([_edge(x, z), _edge(y, z)], "direct")
            emit([_edge(x, fb(p)), _edge(fb(p), y), _edge(fb(p), fa(w)), _edge(fa(w), z)],
                 "via_pair_lane")
            emit([_edge(x, fb(w)), _edge(y, fb(w)), _edge(fb(w), z)], "intra_far")
            used.update((p, q, w))

    for j in range(m):
        if j not in used:
            emit(generic(j), "generic")
    if len(trees) != m:
        raise ConstructionError("adjacent-pair family produced %d trees, wanted %d"
                                % (len(trees), m))
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

    trees = []
    used = set()

    def emit(edges, tag):
        trees.append(_as_tree((x, y, z), edges, "consecutive[%s]" % tag))

    def generic(v):
        used.add(v)
        return [_edge(x, f2(v)), _edge(f2(v), f1(v)), _edge(f1(v), y), _edge(z, f2(v))]

    if p != q and q != r and p != r:
        emit([_edge(x, y), _edge(y, z)], "direct")
        emit([_edge(x, f2(p)), _edge(f2(p), f1(r)), _edge(f2(p), z), _edge(f1(r), y)],
             "lane_p")
        emit([_edge(x, f2(r)), _edge(z, f2(r)), _edge(f1(q), f2(r)), _edge(y, f1(q))],
             "lane_r")
        used.update((p, q, r))
    elif q == r and p != q:
        emit([_edge(x, y), _edge(y, z)], "direct")
        emit([_edge(x, f2(p)), _edge(f2(p), f3(p)), _edge(y, f3(p)), _edge(f2(p), z)],
             "lane_p")
        used.update((p, q))
    elif p == q and q != r:
        emit([_edge(x, y), _edge(y, z)], "direct")
        emit([_edge(x, f2(r)), _edge(z, f2(r)), _edge(f1(r), f2(r)), _edge(y, f1(r))],
             "lane_r")
        used.update((p, r))
    elif p == r and p != q:
        emit([_edge(x, y), _edge(y, z)], "direct")
        emit([_edge(x, f2(p)), _edge(f2(p), z), _edge(f2(p), f1(q)), _edge(f1(q), y)],
             "lane_p")
        used.update((p, q))
    else:
        emit([_edge(x, y), _edge(y, z)], "direct")
        used.add(p)

    for v in range(m):
        if v not in used:
            emit(generic(v), "generic")
    if len(trees) != m:
        raise ConstructionError("consecutive family produced %d trees, wanted %d"
                                % (len(trees), m))
    return trees


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
    trees = []
    used = set()

    def emit(edges, tag):
        trees.append(_as_tree((x, y, z), edges, "near_far[%s]" % tag))

    def fan_edges(v):
        return _path_edges(fan[v])

    def generic(v):
        used.add(v)
        return [_edge(x, f2(v)), _edge(f2(v), f1(v)), _edge(f1(v), y)] + fan_edges(v)

    if p != q and q != r and p != r:
        emit([_edge(x, f2(p)), _edge(f2(p), f1(q)), _edge(f1(q), y)] + fan_edges(p),
             "lane_p")
        emit([_edge(x, y)] + fan_edges(q), "lane_q")
        emit([_edge(x, f2(r)), _edge(f2(r), f1(r)), _edge(f1(r), y)] + fan_edges(r),
             "lane_r")
        used.update((p, q, r))
    elif p == q and q != r:
        emit([_edge(x, y)] + fan_edges(q), "lane_q")
        emit([_edge(x, f2(r)), _edge(f2(r), f1(r)), _edge(f1(r), y)] + fan_edges(r),
             "lane_r")
        used.update((p, r))
    else:
        # q == r, p == r, or all equal: the q lane carries the direct tree;
        # f1(p) is x itself, so the p lane bridges through f1(q) instead
        emit([_edge(x, y)] + fan_edges(q), "lane_q")
        used.add(q)
        if p != q:
            emit([_edge(x, f2(p)), _edge(f2(p), f1(q)), _edge(f1(q), y)] + fan_edges(p),
                 "lane_p")
            used.add(p)

    for v in range(m):
        if v not in used:
            emit(generic(v), "generic")
    if len(trees) != m:
        raise ConstructionError("near-far family produced %d trees, wanted %d"
                                % (len(trees), m))
    return trees


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


def _tripod_family(P, x, y, z, T, mu):
    """Branching base tree: three lane fans glued at lane copies of the
    branch vertex mu."""
    m = P.right.n
    fans = []
    for s in (x, y, z):
        corridor = tree_path(T, P.unflatten(s)[0], mu)
        fans.append(lane_fan(P, corridor, s))
    trees = []
    for v in range(m):
        edges = []
        for fan in fans:
            edges += _path_edges(fan[v])
        trees.append(_as_tree((x, y, z), edges, "tripod"))
    return trees


def _construct_on_tree(P: ProductGraph, T: Graph, S, flip: bool = False) -> list:
    """Dispatch the three-distinct-fiber patterns along the base tree T.
    `flip` mirrors the collinear patterns (swaps which end terminal plays x)."""
    coords = sorted(((P.unflatten(s)[0], s) for s in S))
    gs = [g for g, _ in coords]
    if len(set(gs)) != 3:
        raise ConstructionError("terminals do not project to three distinct fibers")
    mu = tree_median(T, gs[0], gs[1], gs[2])
    if mu not in gs:
        return _tripod_family(P, coords[0][1], coords[1][1], coords[2][1], T, mu)
    ends = [s for g, s in coords if g != mu]
    mid = [s for g, s in coords if g == mu][0]
    if flip:
        ends = ends[::-1]
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


def _two_fiber_corridor(P, G, S, gs):
    corridor = tree_path(G, gs[0], gs[1])
    npair = sum(1 for s in S if P.unflatten(s)[0] == corridor[0])
    if npair == 1:
        corridor = corridor[::-1]
    return corridor


def construct_path_lex(P: ProductGraph, S) -> ConstructionResult:
    """Tree family for a path base graph: exactly m verified trees."""
    _check_product(P)
    if not is_path_graph(P.left):
        raise ConstructionError("base graph is not a path")
    return construct_tree_lex(P, S)


def construct_tree_lex(P: ProductGraph, S) -> ConstructionResult:
    """Tree family for a tree base graph: exactly m verified trees."""
    _check_product(P)
    S = _check_terminals(P, S)
    G = P.left
    if not is_tree(G):
        raise ConstructionError("base graph is not a tree")
    m = P.right.n
    gs = sorted({P.unflatten(s)[0] for s in S})
    if len(gs) == 1:
        # keep the m stars through the lowest-id neighboring fiber
        trees = construct_same_fiber(P, S)[:m]
    elif len(gs) == 2:
        trees = construct_two_in_fiber(P, S, _two_fiber_corridor(P, G, S, gs))
    else:
        trees = _construct_on_tree(P, G, S)
    trees = _verified(P, S, trees)
    if len(trees) != m:
        raise ConstructionError("family has %d trees, wanted %d" % (len(trees), m))
    return ConstructionResult(P, S, trees)


def construct_general_lex(P: ProductGraph, S, ell=None,
                          budget: int = DEFAULT_BUDGET) -> ConstructionResult:
    """At least ell * m verified trees for a connected base graph, ell
    defaulting to the base oracle's kappa_3(G).

    One pattern family per base S-tree from an exact base packing restricted
    to at most one terminal-edge ("dangerous") tree.  Where the base graph
    admits no such packing of size ell, the whole family comes from the
    exact oracle on the product instead, tagged oracle_fallback.
    """
    _check_product(P)
    S = _check_terminals(P, S)
    G, H = P.left, P.right
    m = H.n
    notes = []
    proj = sorted({P.unflatten(s)[0] for s in S})

    if ell is None:
        from .steiner import kappa3 as _kappa3
        base_k3 = _kappa3(G, budget=budget)
        if not base_k3.exact:
            notes.append("base kappa_3 budget exhausted; using lower bound %d"
                         % base_k3.value)
        ell = base_k3.value
    if ell < 1:
        raise ConstructionError("tree count target must be at least 1")
    want = ell * m

    trees = []
    try:
        if len(proj) == 1:
            stars = construct_same_fiber(P, S)
            if len(stars) < want:
                raise ConstructionError("fiber degree supports only %d trees of %d wanted"
                                        % (len(stars), want))
            trees = stars[:want]
        elif len(proj) == 2:
            from .connectivity import disjoint_paths
            a, b = proj
            pair_fiber = a if sum(1 for s in S if P.unflatten(s)[0] == a) == 2 else b
            other = b if pair_fiber == a else a
            corridors = disjoint_paths(G, pair_fiber, other, want=ell)
            if len(corridors) < ell:
                raise ConstructionError(
                    "base graph has only %d disjoint corridors of %d wanted"
                    % (len(corridors), ell))
            trees = [t for c in corridors for t in construct_two_in_fiber(P, S, c)]
        else:
            # three fibers: exact base packing, at most one dangerous tree
            base_pack = max_tree_packing(G, tuple(proj), budget=budget,
                                         cap=ell, dangerous_limit=1)
            if base_pack.size >= ell:
                trees = _tree_families(P, S, base_pack.trees, notes)
            else:
                notes.append(
                    "base packing with one dangerous tree reaches only %d of %d families"
                    % (base_pack.size, ell))
    except ConstructionError as exc:
        notes.append("pattern construction failed: %s" % exc)
        trees = []

    fallbacks = 0
    if len(trees) < want:
        prod_pack = max_tree_packing(P, S, budget=budget, cap=want)
        if prod_pack.size < want and not prod_pack.exact:
            notes.append("product oracle budget exhausted at %d trees" % prod_pack.size)
        trees = [SteinerTree(t.terminals, t.edges, "oracle_fallback")
                 for t in prod_pack.trees]
        fallbacks = len(trees)
        notes.append("oracle fallback supplied the family")
    return ConstructionResult(P, S, _verified(P, S, trees), fallbacks, notes)


def _tree_families(P, S, base_trees, notes):
    """One pattern family per base tree, with a single mirrored retry if the
    first composition collides.  Returns [] when patterns cannot compose."""
    G = P.left
    for flip in (False, True):
        families = []
        for base in base_trees:
            T = Graph(G.n, base.edges)
            families.append(_construct_on_tree(P, T, S, flip=flip))
        candidate = [t for fam in families for t in fam]
        verdict = verify_packing(P, S, candidate)
        if verdict.ok:
            if flip:
                notes.append("mirrored pattern families after a collision")
            return candidate
        if not flip:
            reason = verdict.reason
    notes.append("pattern families collided: " + reason)
    return []
