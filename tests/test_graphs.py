"""Graph container, families, products, and edge-list I/O."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genconn.graphs import (Graph, ProductGraph, cartesian_product, family,
                            format_edge_list, is_complete, is_connected,
                            is_path_graph, is_tree, lexicographic_product,
                            min_degree, parse_edge_list, tree_median, tree_path)

PRODUCT_SETTINGS = settings(max_examples=60, deadline=None)

small_graphs = st.builds(
    family,
    st.sampled_from(["path", "cycle", "complete", "star"]),
    st.integers(min_value=3, max_value=5),
)


class TestGraph:
    def test_neighbors_sorted_and_duplicates_collapse(self):
        G = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0)])
        assert G.neighbors(1) == (2,)
        assert G.neighbors(2) == (1,)
        assert G.edge_count == 2

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_degree_and_has_edge(self):
        G = family("star", 4)
        assert G.degree(0) == 3
        assert all(G.degree(v) == 1 for v in (1, 2, 3))
        assert G.has_edge(0, 2) and not G.has_edge(1, 2)


class TestFamilies:
    def test_orders_and_edges(self):
        assert family("path", 4).edge_count == 3
        assert family("cycle", 5).edge_count == 5
        assert family("complete", 5).edge_count == 10
        assert family("star", 6).edge_count == 5

    def test_size_floors(self):
        with pytest.raises(ValueError):
            family("cycle", 2)
        with pytest.raises(ValueError):
            family("star", 1)
        with pytest.raises(ValueError):
            family("triangle", 3)

    def test_predicates(self):
        assert is_path_graph(family("path", 5))
        assert not is_path_graph(family("cycle", 4))
        assert is_tree(family("star", 4))
        assert not is_tree(family("cycle", 3))
        assert is_complete(family("complete", 4))
        # K1 and K2 are paths too
        assert is_path_graph(family("complete", 2))


class TestEdgeListIO:
    def test_roundtrip(self):
        G = family("cycle", 5)
        H = parse_edge_list(format_edge_list(G))
        assert H.n == G.n and H.edges() == G.edges()

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n3\n\n0 1\n# closing edges\n1 2\n0 2\n"
        G = parse_edge_list(text)
        assert G.n == 3 and G.edge_count == 3

    def test_bad_line_is_reported_one_based(self):
        with pytest.raises(ValueError) as err:
            parse_edge_list("3\n0 1\n0 x\n")
        assert "3" in str(err.value)


class TestProducts:
    def test_lexicographic_adjacency(self):
        P = lexicographic_product(family("path", 2), family("path", 2))
        # K2 o K2 = K4
        assert is_complete(P) and P.n == 4

    def test_cartesian_adjacency(self):
        P = cartesian_product(family("path", 3), family("path", 3))
        assert P.n == 9 and P.edge_count == 12
        assert P.has_edge(P.flatten(0, 0), P.flatten(0, 1))
        assert P.has_edge(P.flatten(0, 0), P.flatten(1, 0))
        assert not P.has_edge(P.flatten(0, 0), P.flatten(1, 1))

    def test_lexicographic_is_not_commutative(self):
        A = lexicographic_product(family("path", 3), family("complete", 2))
        B = lexicographic_product(family("complete", 2), family("path", 3))
        assert A.edge_count != B.edge_count

    def test_flatten_unflatten_roundtrip(self):
        P = lexicographic_product(family("cycle", 3), family("path", 4))
        for g in range(3):
            for h in range(4):
                assert P.unflatten(P.flatten(g, h)) == (g, h)

    @PRODUCT_SETTINGS
    @given(G=small_graphs, H=small_graphs)
    def test_lexicographic_degree_law(self, G: Graph, H: Graph):
        P = lexicographic_product(G, H)
        for v in range(P.n):
            g, h = P.unflatten(v)
            assert P.degree(v) == G.degree(g) * H.n + H.degree(h)

    @PRODUCT_SETTINGS
    @given(G=small_graphs, H=small_graphs)
    def test_cartesian_degree_law(self, G: Graph, H: Graph):
        P = cartesian_product(G, H)
        for v in range(P.n):
            g, h = P.unflatten(v)
            assert P.degree(v) == G.degree(g) + H.degree(h)

    @PRODUCT_SETTINGS
    @given(G=small_graphs, H=small_graphs)
    def test_products_of_connected_factors_are_connected(self, G, H):
        assert is_connected(lexicographic_product(G, H))
        assert is_connected(cartesian_product(G, H))

    def test_product_kind_recorded(self):
        P = lexicographic_product(family("path", 3), family("path", 3))
        Q = cartesian_product(family("path", 3), family("path", 3))
        assert isinstance(P, ProductGraph) and P.kind == "lexicographic"
        assert Q.kind == "cartesian"


class TestTreeHelpers:
    def test_tree_path(self):
        T = family("star", 5)
        assert tree_path(T, 1, 2) == [1, 0, 2]
        assert tree_path(T, 0, 3) == [0, 3]

    def test_tree_median_of_star_is_center(self):
        T = family("star", 5)
        assert tree_median(T, 1, 2, 3) == 0

    def test_tree_median_on_path_is_middle_terminal(self):
        T = family("path", 5)
        assert tree_median(T, 0, 2, 4) == 2

    def test_tree_median_ignores_isolated_vertices(self):
        # a base S-tree laid on its whole host: vertices 0 and 5 are unused
        T = Graph(6, [(1, 2), (2, 3), (2, 4)])
        assert tree_median(T, 1, 3, 4) == 2

    def test_tree_median_rejects_a_cycle(self):
        with pytest.raises(ValueError):
            tree_median(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 0, 1, 3)

    def test_min_degree(self):
        assert min_degree(family("path", 4)) == 1
        assert min_degree(family("cycle", 6)) == 2
