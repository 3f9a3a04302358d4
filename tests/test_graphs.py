"""Graph container, families, products, and edge-list I/O."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genconn import graphs
from genconn.graphs import (MAX_EDGES, MAX_ORDER, Graph, ProductGraph, cartesian_product,
                            family, format_edge_list, is_complete, is_connected,
                            is_path_graph, is_tree, lexicographic_product,
                            min_degree, parse_edge_list, root_paths)

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

    @pytest.mark.parametrize("text, message", [
        ("# two tokens\n3 4\n0 1\n", "line 2: expected vertex count"),
        ("three\n", "line 1: bad vertex count"),
        ("3\n0 1 2\n", "line 2: expected 'u v'"),
        ("3\n\n0 3\n", r"line 3: invalid edge \(0, 3\)"),
        ("3\n0 1\n1 1\n", r"line 3: invalid edge \(1, 1\)"),
        ("# nothing but a comment\n", "empty edge-list input"),
    ])
    def test_each_error_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_edge_list(text)

    def test_vertex_count_at_the_limit_parses(self):
        assert parse_edge_list("# header\n%d\n0 1\n" % MAX_ORDER).n == MAX_ORDER
        with pytest.raises(ValueError, match="line 2: vertex count"):
            parse_edge_list("# header\n%d\n" % (MAX_ORDER + 1))


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


class TestArgumentChecks:
    """Each check on a caller's argument fails with its own message."""

    def test_a_negative_vertex_count_is_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            Graph(-1)

    def test_unflatten_out_of_range_is_rejected(self):
        P = lexicographic_product(family("path", 2), family("path", 3))
        for p in (-1, 6):
            with pytest.raises(ValueError, match="flat index %d out of range" % p):
                P.unflatten(p)

    @pytest.mark.parametrize("product", [lexicographic_product, cartesian_product])
    def test_a_product_with_an_empty_factor_is_rejected(self, product):
        for G, H in ((Graph(0), family("path", 2)), (family("path", 2), Graph(0))):
            with pytest.raises(ValueError, match="product factors must be nonempty"):
                product(G, H)

    def test_the_empty_graph_has_no_minimum_degree(self):
        with pytest.raises(ValueError, match="empty graph has no minimum degree"):
            min_degree(Graph(0))


class TestOrderLimit:
    def test_a_graph_above_the_limit_is_rejected(self):
        assert Graph(MAX_ORDER).n == MAX_ORDER
        with pytest.raises(ValueError, match="graph of %d vertices" % (MAX_ORDER + 1)):
            Graph(MAX_ORDER + 1)

    def test_family_stops_before_its_edges(self):
        with pytest.raises(ValueError, match="family path of %d vertices" % (MAX_ORDER + 1)):
            family("path", MAX_ORDER + 1)

    def test_products_stop_before_their_edges(self, monkeypatch):
        P101, P100, P5001 = family("path", 101), family("path", 100), family("path", 5001)

        def boom(self):
            raise AssertionError("a factor's edges were read")

        monkeypatch.setattr(Graph, "edges", boom)
        with pytest.raises(ValueError, match="cartesian product of 10100 vertices"):
            cartesian_product(P101, P100)
        with pytest.raises(ValueError, match="lexicographic product of 10002 vertices"):
            lexicographic_product(P5001, Graph(2))


def _unreachable(*args, **kwargs):
    raise AssertionError("an edge list was built")


class TestEdgeLimit:
    def test_family_stops_before_its_edges(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 10)
        assert family("complete", 5).edge_count == 10
        monkeypatch.setattr(graphs, "Graph", _unreachable)
        with pytest.raises(ValueError, match="family complete of 15 edges"):
            family("complete", 6)
        with pytest.raises(ValueError, match="family cycle of 11 edges"):
            family("cycle", 11)
        monkeypatch.setattr(graphs, "MAX_EDGES", MAX_EDGES)
        with pytest.raises(ValueError, match="family complete of 49995000 edges"):
            family("complete", MAX_ORDER)

    def test_products_stop_before_their_edges(self, monkeypatch):
        K100 = family("complete", 100)
        K5, K6 = family("complete", 5), family("complete", 6)
        monkeypatch.setattr(Graph, "edges", _unreachable)
        # 4950 * 100^2 + 100 * 4950 edges on 10,000 vertices
        with pytest.raises(ValueError, match="lexicographic product of 49995000 edges"):
            lexicographic_product(K100, K100)
        # K5 box K5 has 10 * 5 + 5 * 10 = 100 edges, K5 box K6 10 * 6 + 5 * 15
        monkeypatch.setattr(graphs, "MAX_EDGES", 100)
        with pytest.raises(ValueError, match="cartesian product of 135 edges"):
            cartesian_product(K5, K6)
        # K5 o K5 has 10 * 5^2 + 5 * 10 edges
        with pytest.raises(ValueError, match="lexicographic product of 300 edges"):
            lexicographic_product(K5, K5)
        monkeypatch.undo()
        assert cartesian_product(K5, K5).edge_count == 100

    def test_edge_list_fails_at_the_line_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 3)
        assert parse_edge_list("4\n0 1\n0 2\n0 3\n").edge_count == 3
        monkeypatch.setattr(graphs, "Graph", _unreachable)
        with pytest.raises(ValueError, match="line 6: more than 3 edges"):
            parse_edge_list("4\n0 1\n0 2\n# a comment\n0 3\n1 2\n")


class TestTreeHelpers:
    def test_min_degree(self):
        assert min_degree(family("path", 4)) == 1
        assert min_degree(family("cycle", 6)) == 2

    def test_root_paths(self):
        # the BFS tree of P5 from 2: 2-1-0 and 2-3-4
        parent = {2: None, 1: 2, 3: 2, 0: 1, 4: 3}
        assert root_paths(parent, 2, (0, 3)) == (((0, 1), (1, 2), (2, 3)), {0, 1, 2, 3})
        assert root_paths(parent, 2, (2, 4)) == (((2, 3), (3, 4)), {2, 3, 4})
        assert root_paths(parent, 2, (0, 5)) is None
