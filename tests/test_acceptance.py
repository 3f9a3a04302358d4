"""Acceptance gate: one test per shipping criterion.

Run with -v to get a pass/fail line per criterion.  Each test states its
target value inline and computes everything it checks from scratch, so a
red line here always names a real regression, not a fixture drift.
"""

from __future__ import annotations

import random
from itertools import combinations

from genconn.bounds import (cartesian_kappa_formula, consistency_report,
                            kappa_k_complete, lex_kappa3_lower,
                            lex_kappa_formula)
from genconn.cli import main as cli_main
from genconn.cli import random_pair
from genconn.connectivity import vertex_connectivity
from genconn.graphs import (Graph, cartesian_product, family,
                            lexicographic_product)
from genconn.steiner import (generalized_connectivity, kappa3,
                             max_tree_packing, verify_packing)

import brute

SWEEP_SEED = 7
SWEEP_PAIRS = 25
SWEEP_BUDGET = 2_000_000


def lex(g, h):
    return lexicographic_product(g, h)


def run_cli(argv) -> int:
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return 0 if code is None else code


def test_criterion_01_path_times_path_products():
    for n in (4, 5):
        got = kappa3(lex(family("path", n), family("path", 3)))
        assert got.exact, "P%d base: search must finish exactly" % n
        assert got.value == 3


def test_criterion_02_star_base_product_and_leaf_triple():
    P = lex(family("star", 4), family("path", 3))
    leaf_triple = (P.flatten(1, 0), P.flatten(2, 0), P.flatten(3, 0))
    pack = max_tree_packing(P, leaf_triple)
    assert pack.exact and pack.size == 3
    assert verify_packing(P, leaf_triple, pack.trees).ok
    got = kappa3(P)
    assert got.exact and got.value == 3


def test_criterion_03_path_times_complete_matches_fiber_size():
    G = family("path", 3)
    for m in (2, 3):
        H = family("complete", m)
        P = lex(G, H)
        assert lex_kappa3_lower(G, H) == m
        assert lex_kappa_formula(G, H) == m
        assert vertex_connectivity(P) == m
        got = kappa3(P)
        assert got.exact and got.value == m


def test_criterion_04_three_by_three_grid():
    # The full kappa(S) histogram over all 84 triples of the grid is
    # {1: 4, 2: 78, 3: 2}: triples with two disjoint trees exist in
    # abundance, but four corner-heavy triples only support one, so the
    # minimum over triples is 1.  Both the search and the exhaustive
    # reference agree on every triple.
    P = cartesian_product(family("path", 3), family("path", 3))
    edges = P.edges()
    hist = {}
    for S in combinations(range(9), 3):
        pack = max_tree_packing(P, S)
        assert pack.exact
        assert pack.size == brute.tree_packing_number(9, edges, S)
        hist[pack.size] = hist.get(pack.size, 0) + 1
    assert hist == {1: 4, 2: 78, 3: 2}
    got = kappa3(P)
    assert got.exact and got.value == 1


def test_criterion_05_tree_base_constructions_cover_every_triple():
    built = 0
    for g_kind, g_size in (("path", 3), ("path", 4), ("path", 5)):
        for h_kind, h_size in (("path", 3), ("complete", 2), ("complete", 3)):
            P = lex(family(g_kind, g_size), family(h_kind, h_size))
            m = P.right.n
            for S in combinations(range(P.n), 3):
                from genconn.construct import construct_path_lex
                result = construct_path_lex(P, S)
                assert result.size == m
                assert verify_packing(P, sorted(S), result.trees).ok
                built += 1
    spider = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    for base in (family("star", 4), spider):
        P = lex(base, family("path", 3))
        for S in combinations(range(P.n), 3):
            from genconn.construct import construct_tree_lex
            result = construct_tree_lex(P, S)
            assert result.size == 3
            assert verify_packing(P, sorted(S), result.trees).ok
            built += 1
    assert built == 1714 + 220 + 1330


def test_criterion_06_general_construction_meets_the_floor():
    cases = [(family("cycle", 4), family("complete", 2)),
             (family("cycle", 4), family("path", 3)),
             (family("complete", 4), family("complete", 2))]
    total = fallback_trees = 0
    for G, H in cases:
        from genconn.construct import construct_general_lex
        ell = int(kappa3(G))
        P = lex(G, H)
        want = ell * H.n
        for S in combinations(range(P.n), 3):
            result = construct_general_lex(P, S)
            assert result.size >= want
            assert verify_packing(P, sorted(S), result.trees).ok
            total += 1
            fallback_trees += result.fallbacks
    print("general construction: %d families, %d fallback trees" %
          (total, fallback_trees))
    assert fallback_trees == 0


def test_criterion_07_product_connectivity_formulas():
    rng = random.Random(SWEEP_SEED)
    for _ in range(SWEEP_PAIRS):
        G, H = random_pair(rng, max_order=5, product_cap=25)
        cart = cartesian_product(G, H)
        assert vertex_connectivity(cart) == cartesian_kappa_formula(G, H)
        prod = lex(G, H)
        assert vertex_connectivity(prod) == lex_kappa_formula(G, H)
        assert lex_kappa_formula(G, H) == vertex_connectivity(G) * H.n


def test_criterion_08_inequality_suite_over_the_seeded_sweep():
    rng = random.Random(SWEEP_SEED)
    for i in range(SWEEP_PAIRS):
        G, H = random_pair(rng, max_order=5, product_cap=25)
        rep = consistency_report(G, H, budget=SWEEP_BUDGET,
                                 product_oracle_limit=16)
        bad = rep.failures
        assert not bad, "pair %d (|G|=%d, |H|=%d): %s" % (
            i, G.n, H.n, "; ".join(c.name for c in bad))
        cut = [c.name for c in rep.checks if c.status == "skipped: budget"]
        assert not cut, "pair %d: budget ran out in %s" % (i, "; ".join(cut))


def test_criterion_09_complete_graph_closed_form():
    for n in range(2, 8):
        G = family("complete", n)
        for k in range(2, n + 1):
            got = generalized_connectivity(G, k)
            assert got.exact
            assert got.value == kappa_k_complete(n, k)


def test_criterion_10_certificates_are_byte_identical_across_runs(tmp_path):
    jobs = [
        (["construct", "--lex", "cycle:4", "path:3",
          "--random-triples", "6", "--seed", "11"], "construct.json"),
        (["kappa", "--family", "complete:5"], "kappa.json"),
        (["bounds", "--random-pairs", "2", "--max-order", "4",
          "--seed", "7"], "bounds.csv"),
    ]
    for argv, name in jobs:
        first = tmp_path / ("a_" + name)
        second = tmp_path / ("b_" + name)
        flag = "--csv" if name.endswith(".csv") else "--output"
        assert run_cli(argv + [flag, str(first)]) == 0
        assert run_cli(argv + [flag, str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name


def test_criterion_11_lex_floor_proven_exact_on_c5_times_k3():
    # kappa3(C5 o K3) = 5, above the floor kappa3(C5) * |V(K3)| = 3: the
    # search finds five trees at every set, and at (0, 3, 9) the fractional
    # packing bound (LP value 11/2) rules out a sixth that the search alone
    # cannot refute
    P = lex(family("cycle", 5), family("complete", 3))
    assert lex_kappa3_lower(family("cycle", 5), family("complete", 3)) == 3
    for budget in (50_000, None):
        got = kappa3(P) if budget is None else kappa3(P, budget=budget)
        assert got.exact and got.value == 5
        assert got.witness == (0, 3, 9)
        assert verify_packing(P, got.witness, got.packing.trees).ok
