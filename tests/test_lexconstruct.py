"""Explicit tree families for lexicographic products.

Every family the constructors emit goes through the independent packing
verifier, so these tests focus on counts, pattern coverage, and failure
modes rather than re-proving disjointness by hand.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

import brute
from genconn import construct, steiner
from genconn.connectivity import vertex_connectivity
from genconn.construct import (ConstructionError, ConstructionResult,
                               construct_general_lex, construct_path_lex,
                               construct_tree_lex)
from genconn.graphs import (Graph, cartesian_product, family, is_connected,
                            lexicographic_product)
from genconn.steiner import kappa3, verify_packing


def lex(g, h):
    return lexicographic_product(g, h)


def spider_123() -> Graph:
    # legs of lengths 1, 2, 3 hanging off vertex 0
    return Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def _connected_graphs(n):
    """One edge list per isomorphism class of connected graphs on n
    vertices, the least relabelling of each."""
    pairs = list(combinations(range(n), 2))
    found = set()
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        if not is_connected(Graph(n, edges)):
            continue
        found.add(min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                      for p in permutations(range(n))))
    return [list(edges) for edges in sorted(found)]


def assert_family(P, S, result, want):
    assert isinstance(result, ConstructionResult)
    assert result.size == want
    assert verify_packing(P, sorted(S), result.trees).ok


class TestPathBase:
    def test_every_pattern_once(self):
        P = lex(family("path", 5), family("path", 3))
        m = 3
        cases = {
            "same fiber": (P.flatten(2, 0), P.flatten(2, 1), P.flatten(2, 2)),
            "adjacent pair, fresh lane": (P.flatten(1, 0), P.flatten(1, 1),
                                          P.flatten(2, 2)),
            "adjacent pair, lane collision": (P.flatten(1, 0), P.flatten(1, 1),
                                              P.flatten(2, 0)),
            "far pair": (P.flatten(0, 0), P.flatten(0, 2), P.flatten(3, 1)),
            "consecutive fibers": (P.flatten(1, 1), P.flatten(2, 0),
                                   P.flatten(3, 2)),
            "spread fibers": (P.flatten(0, 0), P.flatten(2, 1),
                              P.flatten(4, 2)),
        }
        for label, S in cases.items():
            result = construct_path_lex(P, S)
            assert_family(P, S, result, m)
            assert result.fallbacks == 0, label

    def test_endpoint_terminals(self):
        P = lex(family("path", 3), family("complete", 3))
        S = (P.flatten(0, 0), P.flatten(1, 1), P.flatten(2, 2))
        assert_family(P, S, construct_path_lex(P, S), 3)

    def test_rejects_non_path_base(self):
        P = lex(family("cycle", 4), family("path", 3))
        S = (0, 4, 8)
        with pytest.raises(ConstructionError):
            construct_path_lex(P, S)

    def test_rejects_bad_terminals(self):
        P = lex(family("path", 4), family("path", 3))
        with pytest.raises(ConstructionError):
            construct_path_lex(P, (0, 1))
        with pytest.raises(ConstructionError):
            construct_path_lex(P, (0, 1, 1))
        with pytest.raises(ConstructionError):
            construct_path_lex(P, (0, 1, 99))

    def test_rejects_cartesian_products(self):
        P = cartesian_product(family("path", 3), family("path", 3))
        with pytest.raises(ConstructionError):
            construct_path_lex(P, (0, 4, 8))


class TestTreeBase:
    def test_star_base_full_sweep(self):
        # P2 = K_{1,1} puts every triple in one or two fibers: with P5 the
        # adjacent-pair family meets an edge inside the pair's lanes, and
        # with two disjoint edges a far lane beyond four lanes
        two_k2 = Graph(4, [(0, 1), (2, 3)])
        for G, H in ((family("star", 4), family("path", 3)),
                     (family("path", 2), family("path", 5)),
                     (family("path", 2), two_k2)):
            P = lex(G, H)
            for S in combinations(range(P.n), 3):
                result = construct_tree_lex(P, S)
                assert_family(P, S, result, H.n)
                assert result.fallbacks == 0, S

    def test_spider_spot_checks(self):
        P = lex(spider_123(), family("path", 3))
        # one triple per shape: leaf fibers, mixed depths, along one leg
        for S in [(P.flatten(1, 0), P.flatten(3, 1), P.flatten(6, 2)),
                  (P.flatten(0, 0), P.flatten(5, 1), P.flatten(3, 0)),
                  (P.flatten(4, 0), P.flatten(5, 2), P.flatten(6, 1))]:
            assert_family(P, S, construct_tree_lex(P, S), 3)

    def test_count_law_is_fiber_size(self):
        for m in (2, 3, 4):
            P = lex(family("star", 4), family("path", m))
            S = (P.flatten(1, 0), P.flatten(2, 0), P.flatten(3, 0))
            assert_family(P, S, construct_tree_lex(P, S), m)

    def test_rejects_cycle_base(self):
        P = lex(family("cycle", 4), family("path", 3))
        with pytest.raises(ConstructionError):
            construct_tree_lex(P, (0, 4, 8))

    def test_tree_base_calls_no_oracle(self, monkeypatch):
        # a tree is its own base packing: kappa_3 of a tree is 1
        def boom(*args, **kwargs):
            raise AssertionError("oracle called on a tree base")

        monkeypatch.setattr(steiner, "kappa3", boom)
        monkeypatch.setattr(construct, "max_tree_packing", boom)
        P = lex(family("star", 4), family("path", 3))
        for S in combinations(range(P.n), 3):
            result = construct_general_lex(P, S)
            assert_family(P, S, result, 3)
            assert result.fallbacks == 0 and result.exact

    def test_isolated_inner_vertex_falls_back(self):
        # outside the theorem: H = E2 has no adjacency for the patterns
        P = lex(family("star", 3), Graph(2))
        result = construct_tree_lex(P, (0, 1, 2))
        assert_family(P, (0, 1, 2), result, 2)
        assert result.fallbacks == 2
        assert all(t.provenance == "oracle_fallback" for t in result.trees)


class TestGeneralBase:
    def test_cycle_base_meets_the_product_target(self):
        G = family("cycle", 4)
        ell = int(kappa3(G))
        for H in (family("complete", 2), family("path", 3)):
            P = lex(G, H)
            m = H.n
            for S in combinations(range(P.n), 3):
                result = construct_general_lex(P, S)
                assert result.size >= ell * m
                assert verify_packing(P, sorted(S), result.trees).ok
                assert result.fallbacks == 0

    def test_fallback_is_tagged_and_counted(self):
        # diamond base: S hitting both degree-3 vertices plus a degree-2
        # vertex admits no base packing with at most one terminal-edge tree,
        # so the family must come from the product oracle
        diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        P = lex(diamond, family("complete", 2))
        S = (P.flatten(1, 0), P.flatten(2, 0), P.flatten(0, 0))
        result = construct_general_lex(P, S)
        assert verify_packing(P, sorted(S), result.trees).ok
        assert result.size >= int(kappa3(diamond)) * 2
        assert result.size > 0
        assert result.fallbacks == result.size
        assert all(t.provenance == "oracle_fallback" for t in result.trees)
        assert any("fallback" in note for note in result.notes)

    def test_base_packing_cut_against_brute_force(self):
        # on every non-tree connected base of order at most 5 (up to
        # isomorphism) and every set of three fibers, the base trees hold at
        # most one dangerous tree, and as many as a packing with at most one
        # dangerous tree has, up to ell: the cut loses no base tree there
        P2 = family("path", 2)
        bases = short = 0
        for n in (3, 4, 5):
            for edges in _connected_graphs(n):
                if len(edges) == n - 1:
                    continue
                bases += 1
                G = Graph(n, edges)
                ell = kappa3(G).value
                P = lex(G, P2)
                for fibers in combinations(range(n), 3):
                    S = tuple(P.flatten(g, 0) for g in fibers)
                    trees = construct._base_trees(P, S, ell, steiner.DEFAULT_BUDGET)
                    assert verify_packing(G, fibers, trees).ok
                    dangerous = sum(any(u in fibers and v in fibers for u, v in t)
                                    for t in trees)
                    assert dangerous <= 1, (edges, fibers)
                    want = brute.tree_packing_number(n, edges, fibers, dangerous_limit=1)
                    assert len(trees) == min(ell, want), (edges, fibers)
                    short += len(trees) < ell
        # 29 connected bases of order 3 to 5, 6 of them trees; the cut falls
        # short on the diamond, K2,3 and five more
        assert (bases, short) == (23, 18)

    def test_ell_below_one_rejected(self):
        # a disconnected base has kappa_3 = 0, so no family size to meet
        P = lex(Graph(4, [(0, 1), (2, 3)]), family("complete", 2))
        with pytest.raises(ConstructionError, match="at least 1"):
            construct_general_lex(P, (0, 2, 4))


class TestInternalChecks:
    """The checks the builders make on their own work, each reached through
    a patched dependency, an argument no caller passes, or an edgeless
    inner graph."""

    def test_pattern_family_of_the_wrong_size(self, monkeypatch):
        # x = (0, 0) and y = (0, 2) share fiber 0, z = (1, 2) is above y's
        # lane, and lanes 0 and 2 of P3 are not adjacent: the family takes
        # a neighbour of lane 2 for its far tree, here patched to lane 0,
        # which the pair already uses
        P = lex(family("path", 2), family("path", 3))
        monkeypatch.setattr(construct, "_h_neighbor", lambda H, h: 0)
        with pytest.raises(ConstructionError,
                           match="^pair_adjacent family produced 4 trees, wanted 3$"):
            construct._adjacent_pair_family(P, 0, 2, 5)

    def test_adjacent_pair_family_without_an_inner_edge(self):
        # three distinct lanes of an edgeless inner graph of order 3
        P = lex(family("path", 2), Graph(3, []))
        with pytest.raises(ConstructionError,
                           match="^no adjacency available for the adjacent-pair family$"):
            construct._adjacent_pair_family(P, 0, 1, 5)

    def test_one_fiber_with_too_few_neighbours(self):
        # ell comes from kappa_3 of the base, which no fiber's degree is
        # below; here it is one more than the two neighbours of fiber 1
        P = lex(family("path", 3), family("path", 3))
        S = (P.flatten(1, 0), P.flatten(1, 1), P.flatten(1, 2))
        with pytest.raises(ConstructionError,
                           match="^fiber degree supports only 6 trees of 9 wanted$"):
            construct._base_trees(P, S, 3, steiner.DEFAULT_BUDGET)

    def test_two_fibers_with_too_few_corridors(self, monkeypatch):
        # the cycle C4 has two disjoint corridors between any two fibers;
        # the patched flow returns one
        P = lex(family("cycle", 4), family("path", 3))
        S = (P.flatten(0, 0), P.flatten(0, 1), P.flatten(2, 0))
        monkeypatch.setattr(construct, "disjoint_paths",
                            lambda G, x, y, want=None: [[x, 1, y]])
        with pytest.raises(ConstructionError,
                           match="^base graph has only 1 disjoint corridors of 2 wanted$"):
            construct._base_trees(P, S, 2, steiner.DEFAULT_BUDGET)

    def test_a_family_that_fails_verification_falls_back(self, monkeypatch):
        # the builder catches its own ConstructionError, so the check shows
        # as a note, and the oracle's family, verified inside
        # max_tree_packing, replaces the rejected one
        P = lex(family("path", 3), family("path", 3))
        S = (0, 4, 8)
        monkeypatch.setattr(construct, "verify_packing",
                            lambda P, S, trees: steiner.Verdict(False, "stub rejection"))
        result = construct_general_lex(P, S)
        assert ("pattern construction failed: constructed family fails verification: "
                "stub rejection") in result.notes
        assert_family(P, S, result, 3)
        assert result.fallbacks == 3


class TestVerifiedOnce:
    """Each builder runs the packing verifier once on the family it returns."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return verify_packing(*args)

        monkeypatch.setattr(construct, "verify_packing", counting)
        return calls

    @pytest.mark.parametrize("fibers", [(2, 2, 2), (1, 1, 3), (0, 2, 4)],
                             ids=["one-fiber", "two-fibers", "three-fibers"])
    def test_tree_base(self, verify_calls, fibers):
        P = lex(family("path", 5), family("path", 3))
        S = tuple(P.flatten(g, h) for h, g in enumerate(fibers))
        assert_family(P, S, construct_tree_lex(P, S), 3)
        assert len(verify_calls) == 1

    @pytest.mark.parametrize("fibers", [(2, 2, 2), (1, 1, 3), (0, 2, 3)],
                             ids=["one-fiber", "two-fibers", "three-fibers"])
    def test_general_base(self, verify_calls, fibers):
        P = lex(family("complete", 4), family("path", 3))
        S = tuple(P.flatten(g, h) for h, g in enumerate(fibers))
        result = construct_general_lex(P, S)
        assert_family(P, S, result, 6)
        assert result.fallbacks == 0
        assert len(verify_calls) == 1


class TestLaneLift:
    """A safe family is the lane lifts of one base tree, so each of its trees
    keeps every internal vertex in one lane of the non-terminal fibers: this
    is what keeps safe families apart from each other and from the one
    dangerous family."""

    SAFE = {"same_fiber_star", "pair_far_fan", "tripod", "spread"}

    def test_safe_trees_stay_in_one_lane_outside_terminal_fibers(self):
        seen = set()
        for base, fiber in [(("star", 4), ("path", 3)), (("complete", 4), ("path", 3)),
                            (("cycle", 6), ("complete", 2))]:
            G = family(*base)
            P = lex(G, family(*fiber))
            for S in combinations(range(P.n), 3):
                terminal_fibers = {P.unflatten(s)[0] for s in S}
                for t in construct_general_lex(P, S).trees:
                    if t.provenance not in self.SAFE:
                        continue
                    seen.add(t.provenance)
                    internal = {P.unflatten(v) for e in t.edges for v in e if v not in S}
                    assert not {g for g, _ in internal} & terminal_fibers, (S, t)
                    assert len({h for _, h in internal}) == 1, (S, t)
        assert seen == self.SAFE


class TestAgainstTheFormulaFloor:
    def test_path_products_reach_kappa3_of_host(self):
        # the family count m equals the known kappa_3 of these hosts, so
        # the constructive packing is itself an optimality witness
        for g, h in [("path", "complete"), ("path", "path")]:
            G, H = family(g, 4), family(h, 3)
            P = lex(G, H)
            S = (P.flatten(0, 0), P.flatten(1, 1), P.flatten(3, 2))
            result = construct_path_lex(P, S)
            assert result.size == H.n
            assert int(kappa3(P)) == H.n

    def test_vertex_connectivity_floor_sanity(self):
        P = lex(family("path", 4), family("path", 3))
        assert vertex_connectivity(P) == 3
