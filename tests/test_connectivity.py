"""Max-flow disjoint paths, capped flow values, and vertex connectivity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import genconn.connectivity as connectivity
from genconn.connectivity import (_SplitFlowNet, capped_flow_value,
                                  disjoint_paths, local_connectivity,
                                  vertex_connectivity)
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

    def test_only_the_root_neighbour_pairs_reach_kappa(self):
        # root 0 has the least degree, 4; each of its non-neighbours still
        # has 4 paths to it, so only a pair of its neighbours shows kappa 3
        edges = [(0, 4), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 4), (1, 5),
                 (1, 7), (1, 8), (1, 9), (2, 3), (2, 6), (2, 7), (2, 9), (3, 5),
                 (3, 6), (3, 7), (3, 9), (4, 8), (4, 9), (5, 6), (5, 9), (8, 9)]
        G = Graph(10, edges)
        assert min(range(G.n), key=G.degree) == 0 and G.degree(0) == 4
        assert all(local_connectivity(G, 0, v) == 4
                   for v in range(1, G.n) if not G.has_edge(0, v))
        assert vertex_connectivity(G) == brute.vertex_connectivity(10, edges) == 3


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


def _seed_calls(G):
    """Flows that meet every case of the seed on G: with and without the
    s-t edge, a cap-0 common neighbour, caps on the endpoints, and limits
    0, 1 and one reached inside the seed."""
    calls = []
    for x in range(G.n):
        for y in range(x + 1, G.n):
            common = sorted(set(G.neighbors(x)) & set(G.neighbors(y)))
            seeded = G.has_edge(x, y) + len(common)
            calls += [("value", x, y, None, 0), ("paths", x, y, None, 1),
                      ("paths", y, x, {x: 0, y: 1}, seeded // 2)]
            if common:
                calls += [("value", x, y, {common[0]: 0}, None),
                          ("paths", y, x, {common[-1]: 0, x: 2}, seeded - 1)]
    return calls


def _seed_cases(G, call):
    """The seed cases one flow call meets."""
    _, s, t, caps, limit = call
    caps = caps or {}
    common = set(G.neighbors(s)) & set(G.neighbors(t))
    seeded = G.has_edge(s, t) + sum(caps.get(w, 1) > 0 for w in common)
    cases = {"edge" if G.has_edge(s, t) else "no edge"}
    if any(caps.get(w, 1) == 0 for w in common):
        cases.add("cap-0 common neighbour")
    if s in caps or t in caps:
        cases.add("endpoint cap")
    if limit in (0, 1):
        cases.add("limit %d" % limit)
    if limit is not None and 0 < limit < seeded:
        cases.add("limit inside the seed")
    return cases


SEED_HOSTS = {
    "K5": family("complete", 5),
    "C6": family("cycle", 6),
    "petersen": petersen(),
    "random": Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                        if random.Random(u * 9 + v).random() < 0.5]),
    "C4oP2": lexicographic_product(family("cycle", 4), family("path", 2)),
    "P3oK3": lexicographic_product(family("path", 3), family("complete", 3)),
}


class TestSeed:
    """`_SplitFlowNet._seed` takes the one- and two-edge paths BFS would
    take first, so a flow leaves the same residual capacities, value and
    paths with the seed as with BFS alone."""

    @staticmethod
    def _nets(monkeypatch, G, call, seeded):
        nets = []

        class Recorded(_SplitFlowNet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                nets.append(self)

        with monkeypatch.context() as m:
            m.setattr(connectivity, "_SplitFlowNet", Recorded)
            if not seeded:
                m.setattr(_SplitFlowNet, "_seed", lambda self, G, limit: None)
            result = _run(G, call)
        return result, [(net.value, net.cap, net.paths()) for net in nets]

    @pytest.mark.parametrize("name", sorted(SEED_HOSTS))
    def test_seeded_flows_match_bfs_alone(self, monkeypatch, name):
        G = SEED_HOSTS[name]
        for call in _flow_calls(G.n) + _seed_calls(G):
            seeded = self._nets(monkeypatch, G, call, True)
            assert seeded[1] or call == ("kappa",), call    # K5 runs no flow
            assert seeded == self._nets(monkeypatch, G, call, False), call

    def test_every_seed_case_is_met(self):
        met = {case for G in SEED_HOSTS.values() for call in _seed_calls(G)
               for case in _seed_cases(G, call)}
        assert met == {"edge", "no edge", "cap-0 common neighbour", "endpoint cap",
                       "limit 0", "limit 1", "limit inside the seed"}

    def test_a_dense_pair_runs_no_bfs(self, monkeypatch):
        # K_300 less the edge 0-1: its one candidate pair has 298 common
        # neighbours, all seeded, so the flow reaches its limit with no BFS
        # (298 BFS passes before the seed)
        passes = []
        augment = _SplitFlowNet._augment
        monkeypatch.setattr(_SplitFlowNet, "_augment",
                            lambda self: passes.append(1) or augment(self))
        G = Graph(300, [e for e in family("complete", 300).edges() if e != (0, 1)])
        assert (vertex_connectivity(G), len(passes)) == (298, 0)
