"""Max-flow disjoint paths, capped flow values, and vertex connectivity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from genconn.connectivity import (capped_flow_value, disjoint_paths,
                                  vertex_connectivity)
from genconn.graphs import Graph, family, min_degree

FLOW_SETTINGS = settings(max_examples=80, deadline=None)


def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph(10, outer + spokes + inner)


def _check_paths(G, x, y, paths):
    internals = set()
    for p in paths:
        assert p[0] == x and p[-1] == y
        assert len(set(p)) == len(p)
        for u, v in zip(p, p[1:]):
            assert G.has_edge(u, v)
        body = set(p[1:-1])
        assert not body & internals
        internals |= body


class TestDisjointPaths:
    def test_complete_graph_pencil(self):
        G = family("complete", 5)
        paths = disjoint_paths(G, 0, 4)
        assert len(paths) == 4
        _check_paths(G, 0, 4, paths)

    def test_cycle_gives_two(self):
        G = family("cycle", 6)
        paths = disjoint_paths(G, 0, 3)
        assert len(paths) == 2
        _check_paths(G, 0, 3, paths)

    def test_want_truncates(self):
        G = family("complete", 6)
        assert len(disjoint_paths(G, 0, 1, want=2)) == 2

    def test_disconnected_pair_has_no_path(self):
        G = Graph(4, [(0, 1), (2, 3)])
        assert disjoint_paths(G, 0, 3) == []

    def test_petersen(self):
        G = petersen()
        paths = disjoint_paths(G, 0, 7)
        assert len(paths) == 3
        _check_paths(G, 0, 7, paths)


class TestVertexConnectivity:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete(self, n):
        assert vertex_connectivity(family("complete", n)) == n - 1

    def test_known_values(self):
        assert vertex_connectivity(family("path", 5)) == 1
        assert vertex_connectivity(family("cycle", 7)) == 2
        assert vertex_connectivity(family("star", 5)) == 1
        assert vertex_connectivity(petersen()) == 3

    def test_disconnected_and_trivial(self):
        assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
        assert vertex_connectivity(Graph(1)) == 0

    def test_complete_bipartite(self):
        K23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert vertex_connectivity(K23) == 2

    @FLOW_SETTINGS
    @given(kind=st.sampled_from(["path", "cycle", "complete", "star"]),
           size=st.integers(min_value=3, max_value=6))
    def test_at_most_min_degree(self, kind, size):
        G = family(kind, size)
        assert vertex_connectivity(G) <= min_degree(G)

    @FLOW_SETTINGS
    @given(n=st.integers(min_value=2, max_value=6), seed=st.integers(0, 999))
    def test_matches_exhaustive_separator_search(self, n, seed):
        import random
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        G = Graph(n, edges)
        assert vertex_connectivity(G) == brute.vertex_connectivity(n, edges)


class TestCappedFlow:
    def test_cap_on_interior_vertex_binds(self):
        # two triangles joined through vertex 2
        G = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert capped_flow_value(G, 0, 3) == 1
        assert capped_flow_value(G, 0, 3, caps={2: 0}) == 0

    def test_limit_short_circuits(self):
        G = family("complete", 6)
        assert capped_flow_value(G, 0, 1, limit=2) == 2
