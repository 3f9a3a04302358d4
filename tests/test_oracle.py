"""Exact tree-packing oracle against an independent exhaustive reference.

The reference in brute.py recomputes kappa(S) by enumerating candidate
trees outright, so agreement here is two different algorithms meeting on
the same number.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import time
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from genconn.bounds import kappa_k_complete
from genconn.connectivity import capped_flow_value
from genconn.graphs import (Graph, ProductGraph, cartesian_product,
                            connected_component, family, format_edge_list,
                            is_connected, lexicographic_product, parse_edge_list)
from genconn.fractional import fractional_bound, min_weight_tree
from genconn.steiner import (GCResult, SteinerTree, _Candidate, _OutOfBudget, _Search,
                             generalized_connectivity, kappa3,
                             max_tree_packing, pair_flow_bound, verify_packing)
from genconn.symmetry import (_automorphisms, _factor_generators, _least_members,
                              _transversal, _twin_classes, orbit_representatives)

CROSS_CHECK_SETTINGS = settings(max_examples=40, deadline=None)


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph(10, outer + spokes + inner)


def grid33() -> Graph:
    return cartesian_product(family("path", 3), family("path", 3))


class TestAgainstBruteForce:
    def test_grid_every_triple(self):
        G = grid33()
        edges = G.edges()
        for S in combinations(range(9), 3):
            pack = max_tree_packing(G, S)
            assert pack.exact and pack.verified
            assert pack.size == brute.tree_packing_number(9, edges, S)

    def test_petersen_sampled_triples(self):
        G = petersen()
        edges = G.edges()
        for S in [(0, 1, 2), (0, 2, 6), (5, 7, 9), (0, 6, 8)]:
            pack = max_tree_packing(G, S)
            assert pack.exact
            assert pack.size == brute.tree_packing_number(10, edges, S)

    def test_pairs_equal_disjoint_path_counts(self):
        G = petersen()
        edges = G.edges()
        for S in [(0, 1), (0, 7), (2, 9)]:
            pack = max_tree_packing(G, S)
            assert pack.size == brute.tree_packing_number(10, edges, S)

    @CROSS_CHECK_SETTINGS
    @given(n=st.integers(min_value=3, max_value=7), seed=st.integers(0, 10_000))
    def test_random_graph_random_triple(self, n, seed):
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.55]
        G = Graph(n, edges)
        S = tuple(rng.sample(range(n), 3))
        pack = max_tree_packing(G, S)
        assert pack.exact and pack.verified
        assert pack.size == brute.tree_packing_number(n, edges, S)


def _seeded_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(5, brute.MINIMAL_TREES_MAX_ORDER)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5])


# hosts of at most 7 vertices, small enough for the brute force at every k
EVERY_K_HOSTS = {
    "P3oK2": lexicographic_product(family("path", 3), family("complete", 2)),
    "K2oP3": lexicographic_product(family("complete", 2), family("path", 3)),
    "K3oE2": lexicographic_product(family("complete", 3), Graph(2)),
    "K2xK3": cartesian_product(family("complete", 2), family("complete", 3)),
    "K2xP3": cartesian_product(family("complete", 2), family("path", 3)),
}
EVERY_K_HOSTS.update(("random-%d" % seed, _seeded_graph(seed)) for seed in range(6))


# hosts with many terminal-terminal edges, whose packings the construct
# composer cuts before their second dangerous tree, and every host of
# TestEveryK
DANGEROUS_LIMIT_HOSTS = {
    "K5": family("complete", 5),
    "W5": Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
    **EVERY_K_HOSTS,
}


# search nodes summed over every k-set of a `TestEveryK` host and the three
# calls made on it (uncapped, cap = value, cap = value + 1), for k = 3, 4, 5
EVERY_K_NODES = {
    "K2oP3": (1280, 2933, 3908), "K2xK3": (2061, 760, 2502),
    "K2xP3": (494, 1081, 1233), "K3oE2": (856, 3460, 7962),
    "P3oK2": (945, 4594, 2665), "random-0": (568, 994, 961),
    "random-1": (249, 382, 205), "random-2": (102, 116, 9),
    "random-3": (36, 9, 0), "random-4": (138, 108, 9),
    "random-5": (2083, 6345, 8176),
}


class TestEveryK:
    """The oracle against the brute force for k = 3, 4 and 5, on every
    terminal set of each host."""

    @pytest.mark.parametrize("name", sorted(EVERY_K_HOSTS))
    def test_every_terminal_set(self, name):
        G = EVERY_K_HOSTS[name]
        edges = G.edges()
        totals = []
        for k in (3, 4, 5):
            values = []
            nodes = 0
            for S in combinations(range(G.n), k):
                pack = max_tree_packing(G, S)
                assert pack.exact and pack.verified
                values.append(brute.tree_packing_number(G.n, edges, S))
                assert pack.size == values[-1], (k, S)
                nodes += pack.nodes
                # the capped path: a cap at the value is hit, one above is not
                if values[-1]:
                    capped = max_tree_packing(G, S, cap=values[-1])
                    assert (capped.size, capped.hit_cap) == (values[-1], True), (k, S)
                    nodes += capped.nodes
                above = max_tree_packing(G, S, cap=values[-1] + 1)
                assert ((above.size, above.exact, above.hit_cap)
                        == (values[-1], True, False)), (k, S)
                nodes += above.nodes
            totals.append(nodes)
            got = generalized_connectivity(G, k)
            assert got.exact
            assert got.value == brute.generalized_connectivity(G.n, edges, k) == min(values)
        assert tuple(totals) == EVERY_K_NODES[name]

    def test_reference_enumerators_agree_on_triples(self):
        # two independent enumerations of the minimal S-trees for |S| = 3
        for seed in range(6):
            G = _seeded_graph(seed)
            edges = G.edges()
            for S in combinations(range(G.n), 3):
                assert (set(brute.minimal_trees(G.n, edges, S))
                        == set(brute.candidate_triple_trees(G.n, edges, S)))


class TestKnownValues:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8)
                                     for k in range(2, n + 1)])
    def test_complete_graphs_match_the_closed_form(self, n, k):
        got = generalized_connectivity(family("complete", n), k)
        assert got.exact
        assert got.value == kappa_k_complete(n, k)

    def test_cycles_have_kappa3_one(self):
        for n in (3, 4, 5, 6):
            assert kappa3(family("cycle", n)) == 1

    def test_petersen_kappa3(self):
        got = kappa3(petersen())
        assert got.exact and got.value == 2

    def test_grid_kappa3(self):
        assert kappa3(grid33()) == 1

    def test_small_lexicographic_products(self):
        P = lexicographic_product(family("path", 3), family("complete", 2))
        assert kappa3(P) == 2
        Q = lexicographic_product(family("path", 3), family("complete", 3))
        assert kappa3(Q) == 3

    def test_dense_products_stay_exact(self):
        # regression anchors for the search: both need the counting cap
        # and the closing-tree completion to finish inside the budget
        A = lexicographic_product(family("complete", 4), family("cycle", 4))
        got = kappa3(A)
        assert got.exact and got.value == 13
        B = lexicographic_product(family("cycle", 4), family("cycle", 4))
        got = kappa3(B)
        assert got.exact and got.value == 8


class TestConventions:
    def test_disconnected_is_zero(self):
        G = Graph(5, [(0, 1), (2, 3)])
        assert generalized_connectivity(G, 3) == 0

    def test_more_terminals_than_vertices_is_one_when_connected(self):
        G = family("path", 3)
        got = generalized_connectivity(G, 4)
        assert got.value == 1 and got.exact

    def test_k2_is_vertex_connectivity(self):
        from genconn.connectivity import vertex_connectivity
        for G in (family("cycle", 5), petersen(), family("star", 4)):
            assert generalized_connectivity(G, 2) == vertex_connectivity(G)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            generalized_connectivity(family("path", 3), 1)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            generalized_connectivity(Graph(0), 3)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_must_be_positive(self, budget):
        # a budget that settles no set would leave kappa_k without a value
        with pytest.raises(ValueError, match="budget"):
            kappa3(family("cycle", 4), budget=budget)

    def test_budget_limited_value_is_at_least_1(self):
        # out of budget before the first tree of a set, one BFS tree still
        # stands; no C5 set has an upper bound of 1, so the value stays inexact
        got = kappa3(family("cycle", 5), budget=1)
        assert (got.value, got.exact) == (1, False)
        assert got.packing.size == 1 and got.packing.verified

    def test_result_compares_like_an_int(self):
        got = kappa3(family("complete", 4))
        assert got == 2 and int(got) == 2
        assert isinstance(got, GCResult)
        assert got.witness in set(combinations(range(4), 3))

    def test_results_compare_by_value_and_exactness(self):
        C5 = family("cycle", 5)
        got, again, limited = kappa3(C5), kappa3(C5), kappa3(C5, budget=1)
        assert got == again and not got != again
        # one value, one exact and one budget-limited
        assert (got.value, got.exact, limited.value, limited.exact) == (1, True, 1, False)
        assert got != limited and not got == limited
        assert got != "1" and not got == "1"
        assert repr(got) == "GCResult(value=1, exact, nodes=%d)" % got.nodes
        assert repr(limited) == "GCResult(value=1, budget-limited, nodes=%d)" % limited.nodes


class TestScanWork:
    """The scan's bookkeeping: what it computes per terminal set, and the
    search work it does, pinned so a speedup can show it changed neither."""

    def test_one_pair_flow_bound_per_set_on_the_host(self, monkeypatch):
        # one set per automorphism orbit is scanned, so one host bound per orbit
        import genconn.steiner as steiner
        host = lexicographic_product(family("path", 4), family("path", 3))
        seen = []
        original = steiner.pair_flow_bound

        def counted(G, S):
            seen.append(G)
            return original(G, S)

        monkeypatch.setattr(steiner, "pair_flow_bound", counted)
        got = kappa3(host)
        assert got.exact and got.value == 3
        orbits = _orbits(host, 3)
        assert len(orbits) == 42
        # the search's residual checks run their own flows, not this bound
        assert len(seen) == len(orbits) and all(G is host for G in seen)

    def test_flow_calls_are_pinned(self, monkeypatch):
        # 42 local connectivities, one per pair met, and 64 capped flows for
        # the pairs they leave open (126 capped flows when every pair of
        # every set ran its own)
        import genconn.connectivity as connectivity
        import genconn.steiner as steiner
        host = lexicographic_product(family("path", 4), family("path", 3))
        calls = []
        original = connectivity.capped_flow_value

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(connectivity, "capped_flow_value", counted)
        monkeypatch.setattr(steiner, "capped_flow_value", counted)
        assert kappa3(host).value == 3
        assert (len(calls), len(host._pair_kappa)) == (106, 42)

    def test_residual_checks_count_degrees_before_flows(self, monkeypatch):
        # K4 box K4 at 20k: 13 flow networks, the 10 local connectivities
        # of the scan's keys on the host and the 3 pair flows of the one
        # residual check whose terminal degrees all suffice (499 when
        # every residual check ran its flows)
        from genconn.connectivity import _SplitFlowNet
        host = cartesian_product(family("complete", 4), family("complete", 4))
        nets = []
        init = _SplitFlowNet.__init__
        monkeypatch.setattr(_SplitFlowNet, "__init__",
                            lambda self, G, *a, **kw: nets.append(G) or init(self, G, *a, **kw))
        got = kappa3(host, budget=20_000)
        assert (got.value, got.exact, got.witness, got.nodes) == (4, False, (0, 5, 10), 20_001)
        assert (len(nets), sum(G is host for G in nets)) == (13, 10)

    def test_bfs_passes_are_pinned(self, monkeypatch):
        # every flow takes its one- and two-edge paths with no BFS, so
        # kappa3(P4oP3) runs 154 augmenting BFS passes (456 before the seed)
        from genconn.connectivity import _SplitFlowNet
        host = lexicographic_product(family("path", 4), family("path", 3))
        passes = []
        augment = _SplitFlowNet._augment
        monkeypatch.setattr(_SplitFlowNet, "_augment",
                            lambda self: passes.append(1) or augment(self))
        assert kappa3(host).value == 3
        assert len(passes) == 154

    @pytest.mark.parametrize("name,host,want", [
        ("P4oP3", lexicographic_product(family("path", 4), family("path", 3)),
         (3, True, (0, 2, 9), 198)),
        # twin-free, but Aut(C4) x Aut(P3) leaves 21 orbits of its 220 sets
        ("C4xP3", cartesian_product(family("cycle", 4), family("path", 3)),
         (2, True, (0, 2, 3), 109)),
        ("diamondoP2", lexicographic_product(
            Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), family("path", 2)),
         (4, True, (0, 1, 6), 25)),
        ("K4", family("complete", 4), (2, True, (0, 1, 2), 4)),
        # the capped sets ask the fractional bound once their first
        # back-off fails, not after all the greedy passes (892 nodes before;
        # 252 when every size rebuilt its passes from scratch)
        ("C5oK3", lexicographic_product(family("cycle", 5), family("complete", 3)),
         (5, True, (0, 3, 9), 169)),
    ])
    def test_kappa3_work_is_pinned(self, name, host, want):
        got = kappa3(host)
        assert (got.value, got.exact, got.witness, got.nodes) == want, name

    def test_kappa4_work_is_pinned(self):
        # the capped set (0, 1, 2, 6) fails its back-offs, then the
        # fractional bound, 3 below the cap 4, settles it (18,196 nodes
        # when the bound waited for all the greedy passes, 416 when every
        # size rebuilt its passes, 366 before the last-tree look-ahead)
        host = lexicographic_product(family("cycle", 4), family("complete", 2))
        got = generalized_connectivity(host, 4)
        assert (got.value, got.exact, got.witness, got.nodes) == (3, True, (0, 1, 2, 6), 362)

    def test_packing_work_is_pinned(self):
        # one greedy pass per terminal as the BFS root (18,256 nodes when
        # the greedy made 48 passes with shuffled BFS orders, 4,341 when
        # every size rebuilt its passes, 4,328 before the last-tree
        # look-ahead)
        host = lexicographic_product(family("cycle", 4), family("complete", 2))
        pack = max_tree_packing(host, (0, 2, 5, 6))
        assert (pack.size, pack.exact, pack.nodes) == (4, True, 3417)

    def test_backoff_from_the_empty_packing_is_pinned(self, monkeypatch):
        # C3xC4 read from an edge list, as `genconn kappa --edges` reads it.
        # On four capped sets the first greedy pass takes two trees and
        # misses the third; undoing one tree is not enough, and the back-off
        # that undoes the whole pass finds three trees from the empty packing
        host = parse_edge_list(format_edge_list(
            cartesian_product(family("cycle", 3), family("cycle", 4))))
        empty = []
        extend = _Search._extend

        def counted(self, chosen, last_key, target):
            done = extend(self, chosen, last_key, target)
            if chosen == []:
                empty.append((self.S, target, done is not None))
            return done

        monkeypatch.setattr(_Search, "_extend", counted)
        got = kappa3(host)
        # 2,876 nodes before the last-tree look-ahead
        assert (got.value, got.exact, got.witness, got.nodes) == (3, True, (0, 1, 2), 2132)
        assert [t.edges for t in got.packing.trees] == [
            ((0, 3), (0, 4), (1, 5), (2, 3), (4, 5)),
            ((0, 8), (1, 9), (2, 10), (8, 9), (9, 10)),
            ((0, 1), (1, 2))]
        assert empty == [((4, 5, 10), 3, True), ((4, 7, 10), 3, True),
                         ((5, 6, 11), 3, True), ((6, 7, 8), 3, True)]

    def test_the_bound_ends_a_size_before_the_empty_packing(self, monkeypatch):
        # at size 5 every pass holds two trees, three short, so no back-off
        # runs; the fractional bound asked after the last pass rules out 5
        # before the search from the empty packing
        host = Graph(9, [(0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 4), (1, 7), (1, 8),
                         (2, 3), (2, 4), (2, 6), (2, 7), (2, 8), (3, 5), (4, 5), (4, 6),
                         (5, 6), (6, 7), (6, 8), (7, 8)])
        extended, found = [], []
        extend, find = _Search._extend, _Search.find

        def counted_extend(self, chosen, last_key, target):
            extended.append(target)
            return extend(self, chosen, last_key, target)

        def counted_find(self, target, settled, backoff_first):
            done = find(self, target, settled, backoff_first)
            found.append((target, done is not None, sorted(map(len, self.passes.values()))))
            return done

        monkeypatch.setattr(_Search, "_extend", counted_extend)
        monkeypatch.setattr(_Search, "find", counted_find)
        pack = max_tree_packing(host, (0, 2, 6, 7), cap=5)
        # 1,803 nodes before the last-tree look-ahead
        assert (pack.size, pack.exact, pack.hit_cap, pack.nodes) == (4, True, False, 1416)
        assert found[-1] == (5, False, [2, 2, 2, 2])
        assert 5 not in extended and 4 in extended

    def test_each_pass_builds_each_tree_once(self, monkeypatch):
        # a pass keeps the trees it took for the next size: the first pass
        # on this set takes 8 common stars, one per size, where rebuilding
        # every pass for each size made 1 + 2 + ... + 8 = 36 builds
        host = lexicographic_product(family("cycle", 4), family("cycle", 4))
        depth = [0]
        builds = Counter()

        def inside_extend(method):
            def wrapped(self, *args, **kwargs):
                depth[0] += 1
                try:
                    return method(self, *args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapped

        def counted(name, method):
            def wrapped(self, *args, **kwargs):
                if not depth[0]:
                    builds[name] += 1
                return method(self, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(_Search, "_extend", inside_extend(_Search._extend))
        for name in ("_common_star", "_last_tree"):
            monkeypatch.setattr(_Search, name, counted(name, getattr(_Search, name)))
        S = (0, 1, 8)
        pack = max_tree_packing(host, S)
        assert (pack.size, pack.exact) == (8, True)
        # at most one build per tree, plus one miss per root
        assert sum(builds.values()) <= pack.size + len(S)
        assert builds == Counter({"_common_star": 8})


def _generators(G):
    """Automorphisms of G that generate the group the scan uses, as plain
    permutations: each twin's transposition with its next twin, and on a
    product its factors' automorphisms."""
    gens = []
    for cls in _twin_classes(G):
        for a, b in zip(cls, cls[1:]):
            p = list(range(G.n))
            p[a], p[b] = b, a
            gens.append(tuple(p))
    if isinstance(G, ProductGraph):
        gens += _factor_generators(G)
    return list(dict.fromkeys(gens))


def _orbits(G, k, gens=None):
    """The k-sets of G in orbits of the group `gens` generates (by default
    `_generators(G)`), each orbit a sorted list, by closure under the
    generators."""
    gens = _generators(G) if gens is None else gens
    orbit_of = {}
    orbits = []
    for S in combinations(range(G.n), k):
        if S in orbit_of:
            continue
        members = {S}
        stack = [S]
        while stack:
            T = stack.pop()
            for p in gens:
                U = tuple(sorted(p[v] for v in T))
                if U not in members:
                    members.add(U)
                    stack.append(U)
        orbit = sorted(members)
        orbits.append(orbit)
        orbit_of.update((T, orbit) for T in orbit)
    return orbits


def _planted_twins(seed):
    """A connected random graph of 5 to 7 vertices, two of them planted: a
    true twin of vertex a and then a false twin of vertex b."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, 5)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        a, b = rng.sample(range(n), 2)
        true, false = n, n + 1
        edges |= {(u, true) for u in Graph(n, edges).neighbors(a)} | {(a, true)}
        edges |= {(u, false) for u in Graph(n + 1, edges).neighbors(b)}
        G = Graph(n + 2, edges)
        if is_connected(G):
            return G, (a, true), (b, false)


def _small_lex_hosts():
    """G o K2, G o E2 and G o P3 for small G.  K3 o K2 is K6, left to the
    closed form because its brute force alone takes 15 s."""
    P2, P3, K3 = family("path", 2), family("path", 3), family("complete", 3)
    K2, E2 = family("complete", 2), Graph(2)
    return {"P2oK2": lexicographic_product(P2, K2), "P3oK2": lexicographic_product(P3, K2),
            "P2oE2": lexicographic_product(P2, E2), "P3oE2": lexicographic_product(P3, E2),
            "K3oE2": lexicographic_product(K3, E2), "P2oP3": lexicographic_product(P2, P3)}


TWIN_HOSTS = {"planted-%d" % seed: _planted_twins(seed)[0] for seed in range(6)}
TWIN_HOSTS.update(_small_lex_hosts())

def _product_hosts():
    """Products whose factors add automorphisms that swap no twins, G box G
    among them, and P3 box P3 with the right factor labelled otherwise,
    which gets no coordinate swap.  Above 7 vertices the brute force takes
    k = 3 only."""
    P3, K1, K2, K3 = family("path", 3), family("complete", 1), family("complete", 2), \
        family("complete", 3)
    return {"K2xK2": cartesian_product(K2, K2), "K2xK3": cartesian_product(K2, K3),
            "P3xK2": cartesian_product(P3, K2), "P3xP3": cartesian_product(P3, P3),
            "P3xP3b": cartesian_product(P3, Graph(3, [(0, 2), (1, 2)])),
            "C4xK2": cartesian_product(family("cycle", 4), K2),
            "K1oP4": lexicographic_product(K1, family("path", 4)),
            "K1oC5": lexicographic_product(K1, family("cycle", 5))}


PRODUCT_HOSTS = _product_hosts()
SCAN_HOSTS = {**TWIN_HOSTS, **PRODUCT_HOSTS}


class TestTwinOrbitScan:
    """The scan visits one terminal set per automorphism orbit.  Against
    the brute force, and against the full scan of every set."""

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_twins_are_classes(self, seed):
        G, true, false = _planted_twins(seed)
        classes = _twin_classes(G)
        assert any(set(true) <= set(c) for c in classes)
        assert any(set(false) <= set(c) for c in classes)

    @pytest.mark.parametrize("name", sorted(SCAN_HOSTS))
    def test_against_brute_force_and_the_full_scan(self, name, monkeypatch):
        import genconn.steiner as steiner
        import genconn.symmetry as symmetry
        G = SCAN_HOSTS[name]
        edges = G.edges()
        scanned = []
        original = steiner.pair_flow_bound

        def counted(H, S):
            if H is G:
                scanned.append(tuple(S))
            return original(H, S)

        monkeypatch.setattr(steiner, "pair_flow_bound", counted)
        for k in (3, 4) if G.n <= brute.MINIMAL_TREES_MAX_ORDER else (3,):
            orbits = _orbits(G, k)
            kappa = {S: brute.tree_packing_number(G.n, edges, S)
                     for S in combinations(range(G.n), k)}
            # the generated group keeps kappa(S)
            assert all(len({kappa[S] for S in members}) == 1 for members in orbits)
            scanned.clear()
            got = generalized_connectivity(G, k)
            # the least member of every orbit, and nothing else
            assert sorted(scanned) == sorted(members[0] for members in orbits)
            assert got.exact and got.value == min(kappa.values()), k
            assert any(got.witness == members[0] for members in orbits)
            with monkeypatch.context() as m:
                m.setattr(symmetry, "orbit_representatives",
                          lambda G, k: combinations(range(G.n), k))
                full = generalized_connectivity(G, k)
            assert (full.value, full.exact, full.witness) == (got.value, True, got.witness)
            assert got.nodes <= full.nodes


class TestPairShortcut:
    """`pair_flow_bound` reads most pairs off the cached local
    connectivity; each value must equal the capped flow run directly, also
    where a degree-1 terminal, on the path and the star, gets cap 0."""

    HOSTS = {**SCAN_HOSTS, "P5": family("path", 5), "star5": family("star", 5)}

    @staticmethod
    def _direct(G, S):
        # a fresh copy, so no cached network or connectivity is read
        F = Graph(G.n, G.edges())
        return min(capped_flow_value(F, x, y, {z: F.degree(z) // 2 for z in S
                                               if z != x and z != y})
                   for x, y in combinations(S, 2))

    @pytest.mark.parametrize("name", sorted(HOSTS))
    def test_against_the_direct_capped_flows(self, name):
        G = self.HOSTS[name]
        for k in (3, 4):
            for S in combinations(range(G.n), k):
                assert pair_flow_bound(G, S) == self._direct(G, S), (name, S)


class TestClassQuotient:
    """The orbit walk over class-least sets yields what the closure of
    every set under the twin transpositions and the factor generators
    yields: the least member of each orbit, in `combinations` order."""

    C4, K4, P4 = family("cycle", 4), family("complete", 4), family("path", 4)
    # P4oP3: factor generators that swap two twins and fix the rest, whose
    # quotient maps are the identity; star4oP4: a twin-free lex host
    BOTH_K = {**SCAN_HOSTS, "P4oP3": lexicographic_product(P4, family("path", 3)),
              "star4oP4": lexicographic_product(family("star", 4), P4)}
    HOSTS = {**BOTH_K, "C4oC4": lexicographic_product(C4, C4),
             "K4oC4": lexicographic_product(K4, C4),
             "C5oK3": lexicographic_product(family("cycle", 5), family("complete", 3))}

    @pytest.mark.parametrize("name", sorted(HOSTS))
    def test_against_the_full_closure(self, name):
        G = self.HOSTS[name]
        for k in (3, 4) if name in self.BOTH_K else (3,):
            want = [members[0] for members in _orbits(G, k)]
            assert list(orbit_representatives(G, k)) == want, (name, k)

    def test_two_point_factor_generators_swap_twins(self):
        G = self.BOTH_K["P4oP3"]
        cell = {v: c for c in _twin_classes(G) for v in c}
        swaps = [p for p in _factor_generators(G)
                 if sum(p[v] != v for v in range(G.n)) == 2]
        assert len(swaps) == 2
        for p in swaps:
            a, b = (v for v in range(G.n) if p[v] != v)
            assert cell[a] == cell.get(b), (a, b)

    def test_generator_splitting_a_class_falls_back(self):
        # with no classes handed over the walk closes over every set and
        # every generator, two-point swaps and class-splitting ones alike:
        # (0 1) with (0 2)(1 3), which maps {0, 1} onto two other points
        gens = [(1, 0, 2, 3), (2, 3, 0, 1)]
        for k in (1, 2, 3):
            want = [members[0] for members in _orbits(Graph(4), k, gens)]
            assert list(_least_members(4, k, gens)) == want, k


def _star_box_diamond():
    return cartesian_product(family("star", 4),
                             Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))


def _keeps_edges(G, p):
    edges = set(G.edges())
    return {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges


class TestGenerators:
    """Each generator is an automorphism of its host, and a factor's
    generators generate its whole automorphism group."""

    C4, K4, P4 = family("cycle", 4), family("complete", 4), family("path", 4)
    HOSTS = {**SCAN_HOSTS,
             "C4xC4": cartesian_product(C4, C4), "K4xK4": cartesian_product(K4, K4),
             "P4oP3": lexicographic_product(P4, family("path", 3)),
             "C4oC4": lexicographic_product(C4, C4),
             "star4oP4": lexicographic_product(family("star", 4), P4),
             "star4xdiamond": _star_box_diamond()}

    @pytest.mark.parametrize("name", sorted(HOSTS))
    def test_every_generator_maps_the_edges_onto_themselves(self, name):
        G = self.HOSTS[name]
        gens = _generators(G)
        for p in gens:
            assert sorted(p) == list(range(G.n)), name
            assert _keeps_edges(G, p), (name, p)
        if isinstance(G, ProductGraph):
            assert gens, name

    def test_benchmark_cartesian_hosts(self):
        for key, P in _benchmark_cartesian_hosts():
            assert all(_keeps_edges(P, p) for p in _factor_generators(P)), key

    def test_square_of_a_graph_gets_the_coordinate_swap(self):
        P = PRODUCT_HOSTS["P3xP3"]
        swap = tuple(h * 3 + g for g in range(3) for h in range(3))
        assert swap in _factor_generators(P)
        # same order, other labelled graph: no swap
        Q = PRODUCT_HOSTS["P3xP3b"]
        assert not any(all(p[g * 3 + h] == h * 3 + g for g in range(3) for h in range(3))
                       for p in _factor_generators(Q))

    @pytest.mark.parametrize("name,F,order", [
        ("P4", family("path", 4), 2), ("C5", family("cycle", 5), 10),
        ("K4", family("complete", 4), 24), ("star4", family("star", 4), 6),
        ("diamond", Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), 4),
        ("K7", family("complete", 7), 5040), ("E3", Graph(3), 6),
    ])
    def test_factor_group_against_every_permutation(self, name, F, order):
        every = {p for p in permutations(range(F.n)) if _keeps_edges(F, p)}
        assert set(_automorphisms(F)) == every and len(every) == order
        # the transversal generates the group: close the identity under it
        gens = _transversal(F)
        assert len(gens) <= F.n * (F.n - 1) // 2
        group = {tuple(range(F.n))}
        stack = list(group)
        while stack:
            q = stack.pop()
            for p in gens:
                r = tuple(p[q[v]] for v in range(F.n))
                if r not in group:
                    group.add(r)
                    stack.append(r)
        assert group == every, name

    @pytest.mark.parametrize("name", ["P4oP3", "C4oC4", "star4oP4"])
    def test_one_fiber_per_base_orbit_gives_every_fiber(self, name):
        # Aut(H) inside every fiber, not only in the first of each orbit of
        # Aut(G), leaves the orbits of the triples as they are
        G = self.HOSTS[name]
        m = G.right.n
        cells = [divmod(v, m) for v in range(G.n)]
        every = [tuple(g * m + (b[h] if g == g0 else h) for g, h in cells)
                 for b in _automorphisms(G.right) for g0 in range(G.left.n)]
        assert _orbits(G, 3) == _orbits(G, 3, _generators(G) + every)

    def test_factors_above_seven_vertices_add_none(self):
        C8 = family("cycle", 8)
        assert _transversal(C8) == []
        assert _factor_generators(cartesian_product(C8, family("complete", 1))) == []

    def test_atlas_host_settles_exact(self):
        # star:4 box diamond: a budget-limited 2 at (3, 13, 15) when every
        # set was scanned; (3, 13, 15) is in the orbit of (0, 4, 5), whose
        # three trees the group maps onto three for (3, 13, 15)
        P = _star_box_diamond()
        got = kappa3(P, budget=2_000_000)
        assert (got.value, got.exact) == (3, True)
        pack = max_tree_packing(P, (0, 4, 5), budget=2_000_000, cap=3)
        assert pack.size == 3 and pack.hit_cap
        a, b = (0, 3, 2, 1), (3, 1, 2, 0)        # leaf 1 -> 3, diamond 0 <-> 3
        p = [a[g] * 4 + b[h] for g in range(4) for h in range(4)]
        assert _keeps_edges(P, p)
        assert sorted(p[v] for v in (0, 4, 5)) == [3, 13, 15]
        moved = [[(p[u], p[v]) for u, v in t.edges] for t in pack.trees]
        assert verify_packing(P, (3, 13, 15), moved)


def _benchmark_cartesian_hosts():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for inp in workloads.workload(name).inputs:
            if inp.host == "cartesian":
                yield inp.key, cartesian_product(*(Graph(n, e) for n, e in inp.graphs))


class TestTwinClasses:
    @pytest.mark.parametrize("m", [2, 3])
    def test_fibers_over_complete_are_true_classes(self, m):
        for G in (family("path", 4), family("cycle", 5)):
            P = lexicographic_product(G, family("complete", m))
            fibers = [tuple(range(u * m, u * m + m)) for u in range(G.n)]
            assert _twin_classes(P) == fibers
            assert all(P.has_edge(*c[:2]) for c in fibers)

    @pytest.mark.parametrize("m", [2, 3])
    def test_fibers_over_edgeless_are_false_classes(self, m):
        for G in (family("path", 4), family("cycle", 5)):
            P = lexicographic_product(G, Graph(m))
            fibers = [tuple(range(u * m, u * m + m)) for u in range(G.n)]
            assert _twin_classes(P) == fibers
            assert not any(P.has_edge(*c[:2]) for c in fibers)

    def test_four_cycle(self):
        assert _twin_classes(family("cycle", 4)) == [(0, 2), (1, 3)]

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_complete_graph_is_one_class(self, n):
        assert _twin_classes(family("complete", n)) == [tuple(range(n))]

    def test_benchmark_cartesian_hosts_are_twin_free(self):
        hosts = dict(_benchmark_cartesian_hosts())
        assert len(hosts) == 9
        for key, P in hosts.items():
            assert _twin_classes(P) == [], key


def _lp_floor(G, S):
    """The fractional bound solved to the end: no target stops it early."""
    return fractional_bound(G, tuple(sorted(S)), 0, [], lambda: None)


def _joined_sets(G, k):
    """The k-sets of G inside one component, the only ones
    `max_tree_packing` bounds."""
    return [S for S in combinations(range(G.n), k)
            if set(S) <= connected_component(G, S[0])]


class TestFractionalBound:
    """The weak-duality bound floor(sum(w) / W(w)) and its exact pricing."""

    @pytest.mark.parametrize("name", sorted(EVERY_K_HOSTS))
    def test_min_weight_tree_against_brute_force(self, name):
        # seeded weights, zeros among them, on vertices and edges; the
        # least weight over every minimal S-tree of the brute force
        G = EVERY_K_HOSTS[name]
        edges = G.edges()
        rng = random.Random(name)
        for k in (3, 4, 5):
            sets = _joined_sets(G, k)
            for S in rng.sample(sets, min(4, len(sets))):
                term = set(S)
                trees = brute.minimal_trees(G.n, edges, S)
                for _ in range(3):
                    vw = [0 if v in term else rng.randrange(4) for v in range(G.n)]
                    ew = {e: rng.randrange(4) for e in edges}

                    def weight(t):
                        return (sum(ew[e] for e in t)
                                + sum(vw[v] for v in {v for e in t for v in e}))

                    W, tree = min_weight_tree(G, S, vw, ew, lambda: None)
                    assert W == min(weight(t) for t in trees), (k, S, vw, ew)
                    assert frozenset(tree) in set(trees) and weight(tree) == W

    @pytest.mark.parametrize("name", sorted(EVERY_K_HOSTS))
    def test_bound_is_sound_on_every_terminal_set(self, name):
        G = EVERY_K_HOSTS[name]
        edges = G.edges()
        for k in (3, 4, 5):
            for S in _joined_sets(G, k):
                assert _lp_floor(G, S) >= brute.tree_packing_number(G.n, edges, S), (k, S)

    # the ticks, one per round, pivot and subset merge, pin the work: a
    # kernel that moves a pivot, a round or a merge changes them
    TICKS = {"C5oK3": 253, "K4oC4": 83, "C4oK2": 587, "C20": 39, "K4xK4": 270}

    @pytest.mark.parametrize("name,host,S,floor", [
        ("C5oK3", lexicographic_product(family("cycle", 5), family("complete", 3)),
         (0, 3, 9), 5),                  # LP 11/2
        ("K4oC4", lexicographic_product(family("complete", 4), family("cycle", 4)),
         (0, 1, 2), 13),                 # LP 27/2
        ("C4oK2", lexicographic_product(family("cycle", 4), family("complete", 2)),
         (0, 1, 2, 3, 4), 3),            # LP 7/2
        ("C20", family("cycle", 20), (0, 5, 10, 15), 1),       # LP 4/3
        ("K4xK4", cartesian_product(family("complete", 4), family("complete", 4)),
         (0, 5, 10), 5),
    ])
    def test_floors_are_pinned(self, name, host, S, floor):
        run = []
        assert fractional_bound(host, S, 0, [], lambda: run.append(1)) == floor, name
        assert len(run) == self.TICKS[name], name

    def test_floor_of_the_exhausted_cartesian_benchmark_host(self):
        # cart-sweep09 of the benchmark: LP 5/2 at the set (3, 7, 11)
        host = dict(_benchmark_cartesian_hosts())["cart-sweep09"]
        assert _lp_floor(host, (3, 7, 11)) == 2

    def test_settles_sets_the_search_cannot(self):
        # the greedy finds the value and the bound rules out one more tree
        C5K3 = lexicographic_product(family("cycle", 5), family("complete", 3))
        pack = max_tree_packing(C5K3, (0, 3, 9), budget=50_000)
        assert (pack.size, pack.exact, pack.verified) == (5, True, True)
        pack = max_tree_packing(family("cycle", 20), (0, 5, 10, 15), budget=1000)
        assert (pack.size, pack.exact) == (1, True)

    def test_budget_bounds_the_pricing(self):
        # 12 terminals: one pricing alone takes 3^11 / 2 subset merges, and
        # every merge ticks the budget
        G = family("cycle", 24)
        S = tuple(range(0, 24, 2))
        search = _Search(G, S, 1000, frozenset(range(G.n)))
        start = time.perf_counter()
        with pytest.raises(_OutOfBudget):
            fractional_bound(G, S, 2, [], search.tick)
        assert time.perf_counter() - start < 1.0
        assert search.nodes == 1001
        start = time.perf_counter()
        pack = max_tree_packing(G, S, budget=1000)
        assert time.perf_counter() - start < 1.0
        assert pack.nodes <= 1001 and pack.verified
        # above 8 terminals the bound is not asked: the search settles this
        # set in 13 nodes, where the pricing rounds took over a million
        # (283 before the last-tree look-ahead; 285 when size 2 rebuilt the
        # first pass's tree; 3,676 when each of the 12 passes and a last
        # search reran the one failing search from the empty packing;
        # 13,864 when the greedy reshuffled its BFS order 48 times)
        pack = max_tree_packing(G, S)
        assert (pack.size, pack.exact, pack.nodes) == (1, True, 13)
        # the same on C20 with 10 terminals (197 nodes before the
        # look-ahead, 199 with the rebuild, 2,164 with the reruns)
        pack = max_tree_packing(family("cycle", 20), tuple(range(0, 20, 2)))
        assert (pack.size, pack.exact, pack.nodes) == (1, True, 13)

    def test_one_search_from_the_empty_packing_per_size(self, monkeypatch):
        # a back-off that undoes a whole pass is the search from the empty
        # packing: once it fails, no later pass or last search reruns it
        extend = _Search._extend
        failed = Counter()

        def counting(self, chosen, last_key, target):
            result = extend(self, chosen, last_key, target)
            if chosen == [] and last_key is None and result is None:
                failed[target] += 1
            return result

        monkeypatch.setattr(_Search, "_extend", counting)
        for n in (24, 20):
            failed.clear()
            pack = max_tree_packing(family("cycle", n), tuple(range(0, n, 2)))
            assert pack.size == 1 and pack.exact
            assert failed and max(failed.values()) == 1, (n, failed)


class TestSearchControls:
    def test_cap_stops_early(self):
        pack = max_tree_packing(family("complete", 6), (0, 1, 2), cap=2)
        assert pack.size == 2 and pack.hit_cap

    def test_budget_exhaustion_is_flagged_not_wrong(self):
        # K4 box K4: the fractional bound allows 5 trees, and the search
        # finds only 4 inside a small budget
        P = cartesian_product(family("complete", 4), family("complete", 4))
        pack = max_tree_packing(P, (0, 5, 10), budget=50_000)
        assert not pack.exact
        assert pack.verified
        assert pack.size == 4

    def test_budget_bounds_the_four_terminal_search(self):
        # every path of the search ticks the budget, however many trees the
        # unused part of the host still holds
        start = time.perf_counter()
        P = cartesian_product(family("complete", 4), family("complete", 4))
        pack = max_tree_packing(P, (0, 5, 10, 15), budget=1000)
        assert time.perf_counter() - start < 1.0
        assert pack.nodes <= 1001
        assert not pack.exact and pack.verified

    @pytest.mark.parametrize("name", sorted(DANGEROUS_LIMIT_HOSTS))
    def test_dangerous_limit_against_brute_force(self, name):
        # every cap up to one above the value stops the search at its own
        # size, each size reusing the passes of the sizes before it
        G = DANGEROUS_LIMIT_HOSTS[name]
        edges = G.edges()
        for k in (2, 3, 4):
            for S in combinations(range(G.n), k):
                pack = max_tree_packing(G, S)
                assert pack.exact and pack.verified
                want = brute.tree_packing_number(G.n, edges, S)
                assert pack.size == want, (k, S)
                for cap in range(1, want + 2):
                    capped = max_tree_packing(G, S, cap=cap)
                    assert ((capped.size, capped.hit_cap)
                            == (min(cap, want), cap <= want)), (k, S, cap)

    def test_terminal_validation(self):
        with pytest.raises(ValueError):
            max_tree_packing(family("path", 3), (0,))
        with pytest.raises(ValueError):
            max_tree_packing(family("path", 3), (0, 7))
        with pytest.raises(ValueError, match="cap must be positive"):
            max_tree_packing(family("path", 3), (0, 2), cap=0)


class TestVerifier:
    def host(self):
        return family("cycle", 5)

    def test_accepts_a_real_packing(self):
        G = self.host()
        pack = max_tree_packing(G, (0, 2, 3))
        assert verify_packing(G, (0, 2, 3), pack.trees).ok

    def test_non_edge(self):
        G = self.host()
        t = SteinerTree((0, 2, 3), ((0, 2), (2, 3)))
        v = verify_packing(G, (0, 2, 3), [t])
        assert not v.ok and "non-edge" in v.reason

    def test_missing_terminal(self):
        G = self.host()
        t = SteinerTree((0, 2, 3), ((2, 3),))
        v = verify_packing(G, (0, 2, 3), [t])
        assert not v.ok and "misses terminal 0" in v.reason

    def test_cycle_is_not_a_tree(self):
        G = self.host()
        t = SteinerTree((0, 2, 3), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        v = verify_packing(G, (0, 2, 3), [t])
        assert not v.ok and "not a tree" in v.reason

    def test_repeated_edge(self):
        t = [((0, 1), (0, 1), (1, 2), (2, 3))]
        v = verify_packing(self.host(), (0, 2, 3), t)
        assert not v.ok and "repeats edge" in v.reason

    def test_shared_edge_between_trees(self):
        G = family("complete", 4)
        t = SteinerTree((0, 1, 2), ((0, 1), (1, 2)))
        v = verify_packing(G, (0, 1, 2), [t, t])
        assert not v.ok and "share edge" in v.reason

    def test_shared_internal_vertex(self):
        G = family("complete", 5)
        a = SteinerTree((0, 1, 2), ((0, 4), (1, 4), (2, 4)))
        b = SteinerTree((0, 1, 2), ((0, 3), (1, 3), (2, 3), (3, 4)))
        v = verify_packing(G, (0, 1, 2), [a, b])
        assert not v.ok and "share internal vertex 4" in v.reason

    def test_plain_edge_tuples_accepted(self):
        G = self.host()
        v = verify_packing(G, (0, 2), [[(0, 1), (1, 2)], [(0, 4), (4, 3), (3, 2)]])
        assert v.ok

    def test_terminal_outside_the_host(self):
        G = self.host()
        v = verify_packing(G, (0, 2, G.n), [[(0, 1), (1, 2)]])
        assert not v.ok and v.reason == "terminal %d not a vertex of the host" % G.n

    def test_a_rejected_packing_is_an_internal_error(self, monkeypatch):
        # max_tree_packing verifies what it returns: a rejected packing
        # stops the call instead of coming back unverified
        import genconn.steiner as steiner
        monkeypatch.setattr(steiner, "verify_packing",
                            lambda G, S, trees: steiner.Verdict(False, "stub rejection"))
        with pytest.raises(AssertionError,
                           match="^internal error: packing failed verification: stub rejection$"):
            max_tree_packing(self.host(), (0, 2, 3))

    def test_forest_with_one_edge_fewer_than_vertices(self):
        # a triangle plus a separate edge: 4 edges on 5 vertices, so only
        # the connectivity check can reject it
        t = SteinerTree((0, 1, 3), ((0, 1), (0, 2), (1, 2), (3, 4)))
        v = verify_packing(family("complete", 5), (0, 1, 3), [t])
        assert not v.ok and v.reason == "tree 0 is disconnected"

    def test_negative_vertex_id_is_not_a_vertex(self):
        # a list index of -1 reads vertex 4 of C5, so a tree through -1
        # would pass as a third tree, where kappa(0, 3) = 2
        G = self.host()
        trees = [[(0, 4), (4, 3)], [(0, -1), (-1, 3)], [(0, 1), (1, 2), (2, 3)]]
        assert brute.verify_packing(G, (0, 3), trees) == (True, "")
        v = verify_packing(G, (0, 3), trees)
        assert not v.ok and v.reason == "tree 1 uses -1, not a vertex of the host"

    def test_non_integer_vertex_id_is_not_a_vertex(self):
        # int() truncates 1.2 and 1.7 onto vertex 1, so two edges that share
        # no vertex would pass as the path 0-1-2
        G = self.host()
        trees = [[(0, 1.2), (1.7, 2)], [(0, 4), (4, 3), (3, 2)]]
        assert brute.verify_packing(G, (0, 2), trees) == (True, "")
        v = verify_packing(G, (0, 2), trees)
        assert not v.ok and v.reason == "tree 0 uses 1.2, not a vertex of the host"
        for bad in (1.0, "1"):
            v = verify_packing(G, (0, 2), [[(0, 1), (1, 2)], [(0, 4), (4, bad)]])
            assert not v.ok and v.reason == "tree 1 uses %r, not a vertex of the host" % bad

    @pytest.mark.parametrize("trees,reason", [
        ([[(0, 1, 2)]], "tree 0 has (0, 1, 2), not a vertex pair"),
        ([[(0,)]], "tree 0 has (0,), not a vertex pair"),
        ([[5]], "tree 0 has 5, not a vertex pair"),
        ([[(0, 1), (1, 2)], [(0, 4), 4]], "tree 1 has 4, not a vertex pair"),
        ([[(0, 1), (1, 2)], [(0, 4), (4, None)]], "tree 1 uses None, not a vertex of the host"),
        ([None], "tree 0 is None, not a list of edges"),
    ])
    def test_a_tree_that_is_not_a_list_of_pairs(self, trees, reason):
        # a verdict that names the tree, not a ValueError or TypeError
        v = verify_packing(self.host(), (0, 2), trees)
        assert not v.ok and v.reason == reason

    def test_vertex_ids_beyond_the_host(self):
        # an edge with both ends at n or above gets a verdict, not an IndexError
        G = self.host()
        trees = [[(0, 1), (1, 2)], [(5, 6)]]
        with pytest.raises(IndexError):
            brute.verify_packing(G, (0, 2), trees)
        v = verify_packing(G, (0, 2), trees)
        assert not v.ok and v.reason == "tree 1 uses 5, not a vertex of the host"
        v = verify_packing(G, (0, 2), [SteinerTree((0, 2), ((0, 1), (1, 7)))])
        assert not v.ok and v.reason == "tree 0 uses 7, not a vertex of the host"

    def test_a_reversed_edge_is_the_same_edge(self):
        # the second tree stores 0-1 as (1, 0); kappa(S) = 1 on K3
        G, S = family("complete", 3), (0, 1, 2)
        trees = [SteinerTree(S, ((0, 1), (1, 2))), SteinerTree(S, ((1, 0), (0, 2)))]
        for form in (trees, [t.edges for t in trees]):
            assert brute.verify_packing(G, S, form) == (False, "trees 0 and 1 share edge 0-1")
            v = verify_packing(G, S, form)
            assert not v.ok and v.reason == "trees 0 and 1 share edge 0-1"
        v = verify_packing(G, S, [SteinerTree(S, ((0, 1), (1, 0), (1, 2)))])
        assert not v.ok and v.reason == "tree 0 repeats edge 0-1"

    def test_verdicts_match_the_reference(self):
        # real packings of every 2-, 3- and 4-set of the `TestEveryK` hosts,
        # and seeded edits of them, all on integer vertex ids of the host:
        # the same verdict and reason as the DFS checker kept in brute.py
        reasons = Counter()
        for name, G in sorted(EVERY_K_HOSTS.items()):
            rng = random.Random(name)
            for k in (2, 3, 4):
                for S in combinations(range(G.n), k):
                    trees = max_tree_packing(G, S).trees
                    for packing in _edited_packings(G, S, trees, rng):
                        for form in (packing, [SteinerTree(S, tuple(t)) for t in packing]):
                            want = brute.verify_packing(G, S, form)
                            v = verify_packing(G, S, form)
                            assert (v.ok, v.reason) == want, (name, S, form)
                            reasons[next(r for r in VERDICT_KINDS if r in want[1])] += 1
        # every verdict the checker gives on in-range ids was reached
        assert set(reasons) == set(VERDICT_KINDS), reasons


# a phrase of each verdict `verify_packing` gives on a packing of in-range ids
VERDICT_KINDS = ("uses a non-edge", "repeats edge", "misses terminal", "is not a tree",
                 "is disconnected", "share edge", "share internal vertex", "")


def _edited_packings(G, S, trees, rng):
    """The packing `trees` as edge lists, and seeded edits of it: an edge
    dropped, added, repeated or reversed, a chord that closes a cycle, a
    chord in place of a tree edge, a chord and an edge apart from the tree
    (a forest with one edge fewer than vertices), a non-edge, and an edge
    or an internal vertex of another tree taken."""
    base = [list(t.edges) for t in trees]
    host = G.edges()
    non_edges = [(u, v) for u, v in combinations(range(G.n), 2) if not G.has_edge(u, v)]
    out = [base]
    for i, edges in enumerate(base):
        def put(new):
            out.append(base[:i] + [new] + base[i + 1:])
        verts = {v for e in edges for v in e}
        j = rng.randrange(len(edges))
        put(edges[:j] + edges[j + 1:])
        put(edges + [rng.choice(host)])
        put(edges + [edges[j]])
        put(edges[:j] + [edges[j][::-1]] + edges[j + 1:])
        chords = [e for e in host if set(e) <= verts and e not in edges]
        apart = [e for e in host if not set(e) & verts]
        if chords:
            put(edges + [rng.choice(chords)])
            put(edges[:j] + edges[j + 1:] + [rng.choice(chords)])
            if apart:
                put(edges + [rng.choice(chords), rng.choice(apart)])
        if non_edges:
            put(edges + [rng.choice(non_edges)])
        for other in base[:i] + base[i + 1:]:
            put(edges + [rng.choice(other)])
            inner = {v for e in other for v in e} - set(S)
            reach = [e for e in host
                     if len(set(e) & verts) == 1 and set(e) & inner and e not in other]
            if reach:
                put(edges + [rng.choice(reach)])
    return out


class TestCandidates:
    """The search's candidate trees against references kept in brute.py."""

    @pytest.mark.parametrize("name", sorted(EVERY_K_HOSTS))
    def test_last_tree_matches_a_full_bfs(self, name):
        # the BFS that stops once every terminal has a parent yields the
        # tree a BFS run to the end yields, on seeded residuals: a random
        # subset of the non-terminals unused and of the terminal edges free
        G = EVERY_K_HOSTS[name]
        edges = G.edges()
        rng = random.Random(name)
        found = Counter()
        for k in (3, 4, 5):
            for S in combinations(range(G.n), k):
                search = _Search(G, S, 10 ** 9, range(G.n))
                free = sorted(search.free)
                s_edges = sorted(search.s_edges_all)
                for _ in range(3):
                    search.avail = set(rng.sample(free, rng.randint(0, len(free))))
                    search.used_s_edges = set(rng.sample(s_edges, rng.randint(0, len(s_edges))))
                    allowed = search.s_edges_all - search.used_s_edges
                    for root in S + (None,):
                        for plain in (False, True):
                            got = search._last_tree(root=root, plain=plain)
                            want = brute.bfs_root_paths(
                                G.n, edges, S, search.avail, () if plain else allowed,
                                S[0] if root is None else root)
                            assert (None if got is None else got.edges) == want, (S, root, plain)
                            found[want is not None] += 1
        assert found[True] and found[False], found

    @pytest.mark.parametrize("name", sorted(EVERY_K_HOSTS))
    def test_candidates_consume_what_their_edges_touch(self, name):
        # whichever builder hands a candidate its vertex set, the candidate
        # consumes exactly the non-terminals its edges touch and the
        # terminal-terminal edges among them
        G = EVERY_K_HOSTS[name]
        rng = random.Random(name)
        for k in (3, 4):
            for S in combinations(range(G.n), k):
                search = _Search(G, S, 10 ** 9, range(G.n))
                search.avail = set(rng.sample(sorted(search.free), len(search.free) // 2 + 1))
                found = list(search._trees(None, False)) + [search._common_star(),
                                                     search._last_tree()]
                for c in found:
                    if c is None:
                        continue
                    touched = {v for e in c.edges for v in e}
                    assert c.internals == touched - set(S)
                    assert c.s_edges == {(u, v) for u, v in c.edges if {u, v} <= set(S)}

    @staticmethod
    def _every_call(G):
        # the calls `TestEveryK` makes: each 3-, 4- and 5-set, uncapped,
        # capped at its value and capped one above
        for k in (3, 4, 5):
            for S in combinations(range(G.n), k):
                value = max_tree_packing(G, S).size
                for cap in ([value] if value else []) + [value + 1]:
                    max_tree_packing(G, S, cap=cap)

    def test_look_ahead_keeps_the_candidates_with_room_for_the_last_tree(self, monkeypatch):
        # at every node one tree short of the last, the leg DFS yields the
        # candidates of the leg DFS without look-ahead after which
        # `_last_tree` finds a tree, in the same order, on every host
        extend = _Search._extend
        kept = Counter()

        def checked(self, chosen, last_key, target):
            if target - len(chosen) == 2:
                nodes = self.nodes
                got = [c.edges for c in self._trees(last_key, True)]
                want = []
                for edges, verts in brute.leg_dfs_trees(self, last_key):
                    cand = _Candidate(edges, verts, self.term_set, self.s_edges_all)
                    self._apply(cand)
                    if self._last_tree() is not None:
                        want.append(edges)
                    self._undo(cand)
                    kept[edges in want] += 1
                self.nodes = nodes
                assert got == want, (self.S, chosen, target)
            return extend(self, chosen, last_key, target)

        monkeypatch.setattr(_Search, "_extend", checked)
        for G in EVERY_K_HOSTS.values():
            self._every_call(G)
        # both kinds occur: candidates kept and candidates dropped
        assert kept[True] and kept[False], kept

    def test_look_ahead_runs_only_before_the_last_tree(self, monkeypatch):
        # the leg DFS's residual BFS, told apart from `_last_tree`'s by the
        # partial tree it is handed, runs only at nodes one tree short of
        # the last, although the searches also reach nodes further short
        extend, reach = _Search._extend, _Search._reach
        remaining = []
        entered, checks = Counter(), Counter()

        def tracked(self, chosen, last_key, target):
            remaining.append(target - len(chosen))
            entered[remaining[-1]] += 1
            try:
                return extend(self, chosen, last_key, target)
            finally:
                remaining.pop()

        def counted(self, root, taken, blocked):
            if taken:
                checks[remaining[-1]] += 1
            return reach(self, root, taken, blocked)

        monkeypatch.setattr(_Search, "_extend", tracked)
        monkeypatch.setattr(_Search, "_reach", counted)
        for G in EVERY_K_HOSTS.values():
            self._every_call(G)
        assert kappa3(cartesian_product(family("cycle", 3), family("cycle", 4))).exact
        assert max(entered) > 2 and checks[2], (entered, checks)
        assert set(checks) == {2}, checks


class TestResidualCheck:
    """The search's residual check, terminal degrees before one capped flow
    per pair, against the least capped flow run directly on a fresh
    residual graph (`brute.residual_bound_below`)."""

    def test_cuts_exactly_where_the_direct_flows_do(self, monkeypatch):
        # at every node with a tree chosen that passes both supply prunes,
        # on every call `TestEveryK` makes, the node is cut, returning None
        # after its own tick alone, exactly when the reference bound is
        # below the number of trees still to find
        extend = _Search._extend
        cuts = Counter()

        def checked(self, chosen, last_key, target):
            remaining = target - len(chosen)
            live = self.avail | self.term_set
            edges = [(u, v) for u, v in self.G.edges()
                     if u in live and v in live and (u, v) not in self.used_s_edges]
            spare = (len(self.s_edges_all) - len(self.used_s_edges)) // (len(self.S) - 1)
            if (not chosen or remaining == 1 or remaining > len(self.avail) + spare
                    or remaining * (len(self.S) - 1) > len(edges)):
                return extend(self, chosen, last_key, target)
            want = brute.residual_bound_below(self.G.n, edges, self.S, remaining)
            short = min(sum(s in e for e in edges) for s in self.S) < remaining
            nodes = self.nodes
            result = extend(self, chosen, last_key, target)
            cut = result is None and self.nodes == nodes + 1
            assert cut == want, (self.S, chosen, target)
            cuts[cut, short] += 1
            return result

        monkeypatch.setattr(_Search, "_extend", checked)
        for G in EVERY_K_HOSTS.values():
            TestCandidates._every_call(G)
        # nodes cut at a terminal's degree, cut by a flow, and not cut
        assert cuts[True, True] and cuts[True, False] and cuts[False, False], cuts
