"""Explicit tree families for lexicographic products.

Every family the constructors emit goes through the independent packing
verifier, so these tests focus on counts, pattern coverage, and failure
modes rather than re-proving disjointness by hand.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from genconn import construct
from genconn.connectivity import vertex_connectivity
from genconn.construct import (ConstructionError, ConstructionResult,
                               construct_general_lex, construct_path_lex,
                               construct_tree_lex, lane_fan)
from genconn.graphs import (Graph, cartesian_product, family,
                            lexicographic_product)
from genconn.steiner import kappa3, verify_packing


def lex(g, h):
    return lexicographic_product(g, h)


def spider_123() -> Graph:
    # legs of lengths 1, 2, 3 hanging off vertex 0
    return Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


class TestLaneFan:
    def test_paths_share_only_the_apex(self):
        P = lex(family("path", 4), family("path", 3))
        z = P.flatten(0, 1)
        paths = lane_fan(P, [0, 1, 2], z)
        assert len(paths) == 3
        seen = set()
        for j, p in enumerate(paths):
            assert p[0] == z
            assert P.unflatten(p[-1]) == (2, j)
            for u, v in zip(p, p[1:]):
                assert P.has_edge(u, v)
            body = set(p) - {z}
            assert not body & seen
            seen |= body

    def test_rejects_broken_corridors(self):
        P = lex(family("path", 4), family("path", 3))
        z = P.flatten(0, 0)
        with pytest.raises(ConstructionError):
            lane_fan(P, [0], z)
        with pytest.raises(ConstructionError):
            lane_fan(P, [0, 2], z)  # not an edge of P4
        with pytest.raises(ConstructionError):
            lane_fan(P, [1, 2], z)  # apex not in the first fiber
        with pytest.raises(ConstructionError):
            lane_fan(P, [0, 1, 0], z)


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
        P = lex(family("star", 4), family("path", 3))
        for S in combinations(range(P.n), 3):
            assert_family(P, S, construct_tree_lex(P, S), 3)

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

        monkeypatch.setattr(construct, "kappa3", boom)
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

    def test_explicit_ell_overrides_the_oracle(self):
        P = lex(family("cycle", 4), family("complete", 2))
        S = (0, 2, 4)
        result = construct_general_lex(P, S, ell=1)
        assert result.size >= 2

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

    def test_ell_below_one_rejected(self):
        P = lex(family("cycle", 4), family("complete", 2))
        with pytest.raises(ConstructionError):
            construct_general_lex(P, (0, 2, 4), ell=0)


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
