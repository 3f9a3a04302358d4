"""Automorphisms of a host, and one terminal set per orbit of the group
they generate.

An automorphism of G maps each packing of S-trees onto a packing of as
many trees for the image of S, so kappa(S) is constant on an orbit, and
so are the pair-flow bound and the degree sum, which
`steiner.generalized_connectivity` sorts its terminal sets by.  It
therefore scans only the least set of each orbit
(`orbit_representatives`); its docstring gives the argument.

The group has two kinds of generators.  Nothing checks them at run time,
so each rests on the argument given here:
- every host: the permutations inside each twin class (see
  `_twin_classes`).  An automorphism maps neighbourhoods onto
  neighbourhoods, so it maps twin classes onto twin classes;
- on a product, its factors' automorphisms (`_factor_generators`), each a
  tuple p with p[v] the image of vertex v:
  - G box H: (g, h) -> (a(g), h) and (g, h) -> (g, b(h)) for automorphisms
    a of G and b of H, and (g, h) -> (h, g) when G and H are the same
    labelled graph (Imrich and Klavzar, *Product Graphs*, 2000);
  - G o H: (g, h) -> (a(g), h), and b inside one fiber g0 with every other
    fiber fixed.  The edges between two adjacent fibers form a complete
    bipartite graph, so moving the vertices of one fiber among themselves
    keeps them.  One g0 per orbit of Aut(G) suffices: conjugating by a
    moves b to fiber a(g0).  Together these generate Aut(H) wr Aut(G)
    (Sabidussi, "The composition of graphs", Duke Math. J. 1959).

The permutations inside the twin classes form a normal subgroup, so each
orbit is a union of its orbits, and the closure that finds the orbits
runs over their quotient: it walks only the sets that hold the least
members of each twin class they meet, and closes each orbit over the
factor automorphisms, each acting as a permutation that keeps such sets
(`_least_members`).  On a host without twins it closes over every k-set.

A factor's automorphisms are found by brute force over the permutations of
its vertices, for factors of at most `_MAX_FACTOR_ORDER` vertices; a larger
factor adds none.  The group found is cut down to one transversal of its
stabilizer chain (`_transversal`).

`steiner.generalized_connectivity` imports this module on first use, so
`import genconn` does not compile it.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .graphs import Graph, ProductGraph

# the largest factor searched for automorphisms: 5,040 permutations at 7
_MAX_FACTOR_ORDER = 7


def _twin_classes(G: Graph) -> list:
    """The twin classes of G with two or more members, as sorted tuples in
    order of their least member: vertices with equal open neighbourhoods
    (false twins) or equal closed neighbourhoods (true twins).  The classes
    are disjoint: were v a true twin and w a false twin of u, then v in
    N(u) = N(w) puts w in N[v] = N[u], so w in N(u) = N(w), a loop."""
    groups = {}
    for v in range(G.n):
        nbrs = G.neighbors(v)
        groups.setdefault((False, nbrs), []).append(v)
        groups.setdefault((True, tuple(sorted(nbrs + (v,)))), []).append(v)
    return sorted(tuple(c) for c in groups.values() if len(c) > 1)


def _automorphisms(F: Graph) -> list:
    """Every automorphism of F, by brute force over the permutations."""
    edges = F.edges()
    return [p for p in permutations(range(F.n))
            if all(F.has_edge(p[u], p[v]) for u, v in edges)]


def _transversal(F: Graph) -> list:
    """A generating set of Aut(F), empty above `_MAX_FACTOR_ORDER` vertices.

    For each pair i, j it keeps the first automorphism that fixes 0..i-1
    and maps i to j, i != j.  With A_i the automorphisms fixing 0..i-1, the
    ones kept for i and the identity meet every coset of A_(i+1) in A_i, so
    A_0 = Aut(F) is their product over i and they generate it."""
    if F.n > _MAX_FACTOR_ORDER:
        return []
    kept = {}
    for p in _automorphisms(F):
        moved = next((i for i in range(F.n) if p[i] != i), None)
        if moved is not None:
            kept.setdefault((moved, p[moved]), p)
    return list(kept.values())


def _factor_generators(P: ProductGraph) -> list:
    G, H = P.left, P.right
    m = H.n
    cells = [divmod(v, m) for v in range(P.n)]
    alphas = _transversal(G)
    gens = [tuple(a[g] * m + h for g, h in cells) for a in alphas]
    if P.kind == "cartesian":
        gens += [tuple(g * m + b[h] for g, h in cells) for b in _transversal(H)]
        if G.n == m and G.edges() == H.edges():
            gens.append(tuple(h * m + g for g, h in cells))
    else:
        firsts = [g0 for (g0,) in _least_members(G.n, 1, alphas)]
        gens += [tuple(g * m + (b[h] if g == g0 else h) for g, h in cells)
                 for b in _transversal(H) for g0 in firsts]
    return gens


def orbit_representatives(G: Graph, k: int):
    """The least k-set of each orbit of the group that the permutations
    inside the twin classes and, on a product, its factors' automorphisms
    generate, in `combinations` order.

    The classes go to the walk as they are.  A factor automorphism that
    swaps two vertices a and b and fixes the rest is one of the
    permutations inside a class already: v~a iff v~b for every other
    vertex v, so a and b are twins of one class.  Its quotient map is the
    identity, and the walk drops it."""
    gens = _factor_generators(G) if isinstance(G, ProductGraph) else []
    return _least_members(G.n, k, gens, _twin_classes(G))


def _least_members(n, k, gens, classes=()):
    """The least k-subset of range(n) in each orbit of the group that
    `gens` and the permutations inside each of `classes` generate, in
    `combinations` order.  Each p in `gens` must map the classes onto
    classes, as an automorphism maps twin classes.

    The permutations inside the classes then form a normal subgroup, so
    every orbit is a union of its orbits, the class orbits.  Each class
    orbit has one class-least member: the set that holds the least j
    members of each class it meets j times.  Swapping a member for a lower
    one of its class lowers a set, so an orbit's least member is
    class-least.  On class-least sets p acts as the permutation q that
    sends the r-th member of a class to the r-th member of its image
    class: q(T) is the class-least member of the class orbit of p(T).  A q
    that is the identity, as for a p that swaps two members of a class and
    fixes the rest, is dropped, and so is a repeated one.

    `combinations` yields the k-sets in lexicographic order, so the first
    set met of an orbit is its least member.  Only class-least sets are
    met: a set is skipped unless it holds, for each member v of a class in
    it, v's next-lower member `prev[v]`.  The first set met is yielded and
    its orbit closed over the q; every other member is skipped when met,
    and forgotten then, as each set is met once."""
    prev = {c[r]: c[r - 1] for c in classes for r in range(1, len(c))}
    cell = {v: c for c in classes for v in c}
    ident = tuple(range(n))
    quotient = dict.fromkeys(
        tuple(cell[p[v]][cell[v].index(v)] if v in cell else p[v] for v in ident)
        for p in gens)
    quotient.pop(ident, None)
    pending = set()
    for S in combinations(range(n), k):
        if prev and any(prev.get(v, v) not in S for v in S):
            continue
        if S in pending:
            pending.discard(S)
            continue
        yield S
        stack = [S]
        orbit = {S}
        while stack:
            T = stack.pop()
            for q in quotient:
                U = tuple(sorted([q[v] for v in T]))
                if U not in orbit:
                    orbit.add(U)
                    stack.append(U)
        orbit.discard(S)
        pending |= orbit
