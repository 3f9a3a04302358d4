"""Max-flow disjoint paths, capped flow values, and vertex connectivity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from genconn.connectivity import (_SplitFlowNet, capped_flow_value,
                                  disjoint_paths, vertex_connectivity)
from genconn.graphs import Graph, family, lexicographic_product, min_degree

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

    def test_explicit_cap_on_an_endpoint_is_honoured(self):
        # an explicit endpoint cap is kept on the endpoint's split arc, not
        # replaced by the unbounded default.  A path starts past s's split
        # arc and ends before t's, so such a cap never changes the value and
        # is seen only in the capacities; these lines read them through the
        # layout _SplitFlowNet documents (arc 2v is the split arc of v)
        G = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        caps = {0: 0, 3: 0}
        net = _SplitFlowNet(G, 0, 3, caps)
        assert (net.cap[0], net.cap[2 * 3], net.value) == (0, 0, 1)
        assert caps == {0: 0, 3: 0}
        assert _SplitFlowNet(G, 0, 3).cap[0] == _SplitFlowNet(G, 4, 0).cap[0] > 1
        # a cap on one flow's endpoint does not reach the next flow, where
        # the same vertex is interior
        assert capped_flow_value(G, 2, 3, {2: 0, 3: 0}) == 2
        assert capped_flow_value(G, 1, 4) == 1
        assert capped_flow_value(G, 1, 4, {2: 0}) == 0


def _flow_calls(n):
    """Every kind of flow on an n-vertex host, in one fixed order."""
    calls = []
    for x in range(n):
        for y in range(x + 1, n):
            mid = (x + y) // 2
            calls += [
                ("value", x, y, None, None),
                ("value", x, y, {mid: 0, (y + 1) % n: 2}, None),
                ("value", y, x, {x: 1}, 2),
                ("value", x, y, None, 1),
                ("paths", x, y, None, None),
                ("paths", y, x, None, 2),
                ("kappa",),
            ]
    return calls


def _run(G, call):
    if call[0] == "kappa":
        return vertex_connectivity(G)
    kind, x, y, caps, limit = call
    if kind == "paths":
        return disjoint_paths(G, x, y, want=limit)
    return capped_flow_value(G, x, y, caps, limit)


class TestFlowNetReuse:
    """Flows on one graph share its split network; none may see the
    capacities another left behind."""

    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    def test_mixed_flows_match_a_fresh_graph(self, order):
        P = lexicographic_product(family("cycle", 4), family("path", 2))
        calls = _flow_calls(P.n)
        if order == "reverse":
            calls.reverse()
        elif order == "shuffled":
            random.Random(3).shuffle(calls)
        shared = Graph(P.n, P.edges())
        for call in calls:
            assert _run(shared, call) == _run(Graph(P.n, P.edges()), call), call
