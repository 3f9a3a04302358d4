"""Exact tree-packing oracle against an independent exhaustive reference.

The reference in brute.py recomputes kappa(S) by enumerating candidate
trees outright, so agreement here is two different algorithms meeting on
the same number.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from genconn.bounds import kappa_k_complete
from genconn.graphs import (Graph, cartesian_product, family,
                            lexicographic_product)
from genconn.steiner import (GCResult, SteinerTree, generalized_connectivity,
                             kappa3, max_tree_packing, verify_packing)

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


# hosts with many terminal-terminal edges, for the dangerous limit
DANGEROUS_LIMIT_HOSTS = {
    "K5": family("complete", 5),
    "K2xK3": EVERY_K_HOSTS["K2xK3"],
    "P3oK2": EVERY_K_HOSTS["P3oK2"],
    "W5": Graph(6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
    "random-0": EVERY_K_HOSTS["random-0"],
}


class TestEveryK:
    """The oracle against the brute force for k = 3, 4 and 5, on every
    terminal set of each host."""

    @pytest.mark.parametrize("name", sorted(EVERY_K_HOSTS))
    def test_every_terminal_set(self, name):
        G = EVERY_K_HOSTS[name]
        edges = G.edges()
        for k in (3, 4, 5):
            values = []
            for S in combinations(range(G.n), k):
                pack = max_tree_packing(G, S)
                assert pack.exact and pack.verified
                values.append(brute.tree_packing_number(G.n, edges, S))
                assert pack.size == values[-1], (k, S)
            got = generalized_connectivity(G, k)
            assert got.exact
            assert got.value == brute.generalized_connectivity(G.n, edges, k) == min(values)

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

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_must_be_positive(self, budget):
        # a budget that settles no set would leave kappa_k without a value
        with pytest.raises(ValueError, match="budget"):
            kappa3(family("cycle", 4), budget=budget)

    def test_result_compares_like_an_int(self):
        got = kappa3(family("complete", 4))
        assert got == 2 and int(got) == 2
        assert isinstance(got, GCResult)
        assert got.witness in set(combinations(range(4), 3))


class TestScanWork:
    """The scan's bookkeeping: what it computes per terminal set, and the
    search work it does, pinned so a speedup can show it changed neither."""

    def test_one_pair_flow_bound_per_set_on_the_host(self, monkeypatch):
        import genconn.steiner as steiner
        host = lexicographic_product(family("path", 4), family("path", 3))
        seen = []
        original = steiner.pair_flow_bound

        def counted(G, S, cutoff=1):
            seen.append(G)
            return original(G, S, cutoff)

        monkeypatch.setattr(steiner, "pair_flow_bound", counted)
        got = kappa3(host)
        assert got.exact and got.value == 3
        # bounds on residual graphs inside the search are not counted
        assert sum(G is host for G in seen) == comb(host.n, 3)

    @pytest.mark.parametrize("name,host,want", [
        ("P4oP3", lexicographic_product(family("path", 4), family("path", 3)),
         (3, True, (0, 2, 9), 2041)),
        ("C4xP3", cartesian_product(family("cycle", 4), family("path", 3)),
         (2, True, (0, 2, 3), 138783)),
        ("diamondoP2", lexicographic_product(
            Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), family("path", 2)),
         (4, True, (0, 1, 6), 640)),
        ("K4", family("complete", 4), (2, True, (0, 1, 2), 20)),
    ])
    def test_kappa3_work_is_pinned(self, name, host, want):
        got = kappa3(host)
        assert (got.value, got.exact, got.witness, got.nodes) == want, name


class TestSearchControls:
    def test_cap_stops_early(self):
        pack = max_tree_packing(family("complete", 6), (0, 1, 2), cap=2)
        assert pack.size == 2 and pack.hit_cap

    def test_budget_exhaustion_is_flagged_not_wrong(self):
        # 5-cycle base: refuting the sixth tree is far beyond any small budget
        P = lexicographic_product(family("cycle", 5), family("complete", 3))
        pack = max_tree_packing(P, (0, 3, 9), budget=50_000)
        assert not pack.exact
        assert pack.verified
        assert pack.size == 5

    def test_budget_bounds_the_four_terminal_search(self):
        # every path of the search ticks the budget, however many trees the
        # unused part of the host still holds
        start = time.perf_counter()
        pack = max_tree_packing(family("cycle", 24), (0, 6, 12, 18), budget=1000)
        assert time.perf_counter() - start < 1.0
        assert pack.nodes <= 1001
        assert not pack.exact and pack.verified

    def test_dangerous_limit_on_k4(self):
        G = family("complete", 4)
        free = max_tree_packing(G, (0, 1, 2))
        assert free.size == 2
        one = max_tree_packing(G, (0, 1, 2), dangerous_limit=1)
        assert one.size == 2
        none = max_tree_packing(G, (0, 1, 2), dangerous_limit=0)
        assert none.size == 1
        for pack in (one, none):
            dangerous = 0
            for t in pack.trees:
                term = set(t.terminals)
                if any(u in term and v in term for u, v in t.edges):
                    dangerous += 1
            assert dangerous <= (1 if pack is one else 0)

    @pytest.mark.parametrize("name", sorted(DANGEROUS_LIMIT_HOSTS))
    def test_dangerous_limit_against_brute_force(self, name):
        # at most d trees may take an edge joining two terminals; the
        # construct composer asks for d = 1
        G = DANGEROUS_LIMIT_HOSTS[name]
        edges = G.edges()
        for k in (3, 4):
            for S in combinations(range(G.n), k):
                for d in (0, 1):
                    pack = max_tree_packing(G, S, dangerous_limit=d)
                    assert pack.exact and pack.verified
                    want = brute.tree_packing_number(G.n, edges, S, dangerous_limit=d)
                    assert pack.size == want, (k, S, d)
                    term = set(S)
                    dangerous = sum(any(u in term and v in term for u, v in t.edges)
                                    for t in pack.trees)
                    assert dangerous <= d

    def test_terminal_validation(self):
        with pytest.raises(ValueError):
            max_tree_packing(family("path", 3), (0,))
        with pytest.raises(ValueError):
            max_tree_packing(family("path", 3), (0, 7))


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
