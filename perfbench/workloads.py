"""Seeded inputs for the benchmark's four workloads.

Inputs are plain data, ``(n, edges)`` per graph, so that a change to the
program cannot change a workload.  The factor pairs of the two kappa3
workloads come from this file's own copy of the seeded random-pair rule
(a random attachment tree, every other pair joined with probability 0.4,
complete draws redrawn), drawn with seed 7: the acceptance sweep.

Round 0 uses the canonical labels, so its node counts can be compared with
the reference table.  Every later round relabels each factor (or plain
host) by a permutation drawn from the workload's name and the round number
alone, so the oracle sees a new labelled input in every round and no answer
can be reused from an earlier one, while the pinned reference values hold
in every round.  ``--seed`` shuffles the order of each later round's
queries.  The labels do not depend on the seed because the search's work
does: one input's node count changes up to 30-fold from one labelling to
the next, and with seeded labels a run's figures moved with the labels
drawn more than with the program.  So every run asks the same queries, and
runs of different seeds differ in the order they ask them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

SWEEP_SEED = 7
SWEEP_PAIRS = 25
SWEEP_MAX_ORDER = 5
SWEEP_PRODUCT_CAP = 25
ACCEPTANCE_BUDGET = 2_000_000


def random_factor(rng: random.Random, min_order: int = 3, max_order: int = 5):
    """Connected non-complete graph as ``(n, sorted edges)``."""
    while True:
        n = rng.randrange(min_order, max_order + 1)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        present = set(edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in present and rng.random() < 0.4:
                    edges.append((u, v))
        if len(edges) != n * (n - 1) // 2:
            return n, tuple(sorted(edges))


def random_pair(rng: random.Random, max_order: int, product_cap: int):
    while True:
        G = random_factor(rng, 3, max_order)
        H = random_factor(rng, 3, max_order)
        if G[0] * H[0] <= product_cap:
            return G, H


def acceptance_sweep():
    rng = random.Random(SWEEP_SEED)
    return [random_pair(rng, SWEEP_MAX_ORDER, SWEEP_PRODUCT_CAP)
            for _ in range(SWEEP_PAIRS)]


def family(kind: str, n: int):
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind == "complete":
        edges = list(combinations(range(n), 2))
    else:
        raise ValueError("unknown family %r" % kind)
    return n, tuple(sorted(edges))


@dataclass(frozen=True)
class Input:
    """One input of a workload, keyed into the reference table.

    ``op`` is the public call a query makes: ``kappa3``,
    ``generalized_connectivity``, ``max_tree_packing``, or the name of a
    ``construct_*`` function (one query per terminal triple of the host).
    """

    key: str
    op: str
    host: str                 # "cartesian", "lexicographic" or "plain"
    graphs: tuple             # ((n, edges), ...): two factors, or one host
    why: str
    k: int = 3
    budget: int = ACCEPTANCE_BUDGET
    terminals: tuple = ()     # max_tree_packing only, canonical labels
    proven: int | None = None  # exact value known by proof, pinned as is

    @property
    def vertices(self) -> int:
        if self.host == "plain":
            return self.graphs[0][0]
        return self.graphs[0][0] * self.graphs[1][0]

    @property
    def edges(self) -> int:
        if self.host == "plain":
            return len(self.graphs[0][1])
        (g, eg), (h, eh) = self.graphs
        if self.host == "cartesian":
            return len(eg) * h + g * len(eh)
        return len(eg) * h * h + g * len(eh)


# Sweep pairs whose products are in the kappa3 workloads.  The sweep has 16
# pairs with products of at most 16 vertices; one pass over all of them
# takes about a minute, and a round must take a few seconds so that a run
# holds several.  Cartesian: the pairs whose kappa3 settles in under 200k
# search nodes at every labelling tried, less pair 4 (the round takes an odd
# number of inputs, see WORKLOADS), and pair 9, the first of the three (9,
# 15, 21) that exhaust the 2M budget; 1, 2, 6, 7, 22 and 24 take 0.5M to
# 1.5M nodes (1 to 6 s each), and 18 has the same factors as 14.
# Lexicographic: the pairs whose kappa3 takes under 0.7 s, less pair 7
# (same node count as 6, and an odd count again); this leaves out 1, 5, 8,
# 9, 11, 15, 21, 22 and 24 (0.6 to 1.7 s each).
CARTESIAN_PAIRS = (5, 8, 11, 14, 19, 20, 9)
LEX_PAIRS = (2, 4, 6, 14, 19, 20)
# Pair 9 needs 22.3M nodes to settle and exhausts 2M after about 6 s; at a
# fixed 200k it still exhausts, in a seventh of the time, so that a run
# holds more rounds.
EXHAUSTED_BUDGET = 200_000
LEX_EXHAUSTED_BUDGET = 50_000


def _sweep_inputs(host, pairs, why):
    sweep = acceptance_sweep()
    out = []
    for i in pairs:
        tag = "cart" if host == "cartesian" else "lex"
        if host == "cartesian" and i == 9:
            out.append(Input("cart-sweep09", "kappa3", host, sweep[i],
                             "twin-free, exhausts a fixed 200k budget (settles at 22.3M)",
                             budget=EXHAUSTED_BUDGET))
        else:
            out.append(Input("%s-sweep%02d" % (tag, i), "kappa3", host, sweep[i], why))
    return out


def _workload_inputs(name: str):
    if name == "kappa3-cartesian":
        return _sweep_inputs(
            "cartesian", CARTESIAN_PAIRS,
            "twin-free host: witness searches that stop at the cap")
    if name == "kappa3-lex":
        C4, K4 = family("cycle", 4), family("complete", 4)
        C5, K3 = family("cycle", 5), family("complete", 3)
        return [
            Input("lex-C4oC4", "kappa3", "lexicographic", (C4, C4),
                  "anchor: twin fibers, value 8"),
            Input("lex-K4oC4", "kappa3", "lexicographic", (K4, C4),
                  "anchor: 560 sets ordered by pair_flow_bound, value 13"),
            Input("lex-C5oK3", "kappa3", "lexicographic", (C5, K3),
                  "exhausts a fixed 50k budget; pair-flow bound 6 above 5",
                  budget=LEX_EXHAUSTED_BUDGET),
        ] + _sweep_inputs("lexicographic", LEX_PAIRS,
                          "sweep pair: fiber twins, greedy settles most sets")
    if name == "kappak-forest":
        C4, K2, P3 = family("cycle", 4), family("complete", 2), family("path", 3)
        return [
            Input("gc4-C4oK2", "generalized_connectivity", "lexicographic",
                  (C4, K2), "forest enumeration, k=4", k=4),
            Input("gc5-C4oK2", "generalized_connectivity", "lexicographic",
                  (C4, K2), "forest enumeration, k=5", k=5),
            Input("gc4-P3xP3", "generalized_connectivity", "cartesian",
                  (P3, P3), "forest enumeration on a grid, k=4", k=4),
            Input("gc4-C4xK2", "generalized_connectivity", "cartesian",
                  (C4, K2), "forest enumeration on a prism, k=4", k=4),
            Input("mtp-C20", "max_tree_packing", "plain", (family("cycle", 20),),
                  "4 terminals; the budget does not bound this path.  Value 1 by "
                  "proof: a tree joining 4 evenly spaced vertices of C20 leaves "
                  "out at most one gap of 5 edges, so it uses at least 15 of the "
                  "20 edges, and two edge-disjoint ones would need 30",
                  k=4, budget=1000, terminals=(0, 5, 10, 15), proven=1),
        ]
    if name == "construct-certify":
        return [
            Input("fam-P6oP4", "construct_path_lex", "lexicographic",
                  (family("path", 6), family("path", 4)),
                  "path base: patterns only, 2024 triples"),
            Input("fam-C5oP2", "construct_general_lex", "lexicographic",
                  (family("cycle", 5), family("path", 2)),
                  "cycle base, default ell: kappa3(G) again for every triple"),
        ]
    raise KeyError(name)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_percentile: int
    inputs: tuple


# A round holds few inputs, each of a nearly fixed cost, so a run's latencies
# form one group of samples per input.  A percentile that falls on the border
# of two groups jumps between them from run to run, so each is placed in the
# middle of one group: with T inputs, nearest-rank p = (j - 1/2) / T lands on
# the j-th cheapest.  The kappa workloads have an odd T, which puts the median
# inside a group.  The tail is the highest such percentile that leaves at
# least ten queries beyond it in a run of the usual length (in 20 runs of
# 28 s each, 7 to 10 rounds of 7 cartesian queries, 3 to 5 of 9 lex queries,
# 4 to 7 of 5 forest queries and 6 to 11 of 2144 construct queries), fixed
# so that it means the same on every commit.
WORKLOADS = {
    "kappa3-cartesian": ("Twin-free cartesian hosts: the tripod leg DFS and the "
                         "residual flow bound do the work; one input exhausts "
                         "its budget.", 64),
    "kappa3-lex": ("Lexicographic hosts: fibers are twin classes, greedy settles "
                   "sets, the set scan and pair_flow_bound dominate; one input "
                   "exhausts its budget.", 61),
    "kappak-forest": ("The only workload where the |S| >= 4 forest enumeration "
                      "runs.", 50),
    "construct-certify": ("Tree families, certificates and their round trip; the "
                          "search is nearly idle.", 99),
}


def workload(name: str) -> Workload:
    why, tail = WORKLOADS[name]
    return Workload(name, why, tail, tuple(_workload_inputs(name)))


@dataclass
class Task:
    """One query of one round: an input, its built host, its terminals."""

    input: Input
    host: object
    terminals: tuple = ()


def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _relabel(graph, perm):
    n, edges = graph
    return n, tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def build_round(api, wl: Workload, seed: int, rnd: int):
    """Build the hosts of one round through the program and list its tasks.

    Round 0 keeps the canonical labels and the table order; a later round
    relabels every graph, drawn from the round number, and shuffles the
    order, drawn from the seed and the round number."""
    labels = random.Random("%s:%d" % (wl.name, rnd))
    rng = random.Random("%d:%s:%d" % (seed, wl.name, rnd))
    plan = []
    for inp in wl.inputs:
        perms = [_permutation(labels, n) if rnd else list(range(n)) for n, _ in inp.graphs]
        plan.append((inp, [_relabel(g, p) for g, p in zip(inp.graphs, perms)], perms))
    if rnd:
        rng.shuffle(plan)
    tasks = []
    for inp, graphs, perms in plan:
        gs = [api.Graph(n, edges) for n, edges in graphs]
        if inp.host == "cartesian":
            host = api.cartesian_product(*gs)
        elif inp.host == "lexicographic":
            host = api.lexicographic_product(*gs)
        else:
            host = gs[0]
        if inp.op.startswith("construct_"):
            triples = list(combinations(range(host.n), 3))
            if rnd:
                rng.shuffle(triples)
            tasks.extend(Task(inp, host, S) for S in triples)
        else:
            # only plain hosts have terminals
            terms = tuple(sorted(perms[0][t] for t in inp.terminals))
            tasks.append(Task(inp, host, terms))
    return tasks
