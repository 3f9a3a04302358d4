#!/usr/bin/env python3
"""Write ``reference.json``: the pinned values the gate checks.

    python3 perfbench/make_reference.py

For every input of every workload, at its canonical labels, it records the
inputs (graphs as edge lists), their vertex and edge counts, why each was
chosen, the node count at the workload's budget, and the exact value.  A
kappa input that exhausts the workload's budget is run again with
``SETTLE_BUDGET``; its value stays null if that does not settle it either.
An input with a ``proven`` value is pinned at it, and a search that settles
must agree.  The list of acceptance-sweep pairs records which ones the
kappa3 workloads use.  Run it from the root of a source checkout; it takes
about six minutes.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, import_program
from workloads import (CARTESIAN_PAIRS, LEX_PAIRS, WORKLOADS, acceptance_sweep,
                       build_round, workload)

SETTLE_BUDGET = 25_000_000


def settle(api, inp, host, budget):
    """(value, exact, nodes) of one input's query at ``budget``."""
    if inp.op == "max_tree_packing":
        pack = api.max_tree_packing(host, inp.terminals, budget=budget)
        return pack.size, pack.exact, pack.nodes
    res = api.generalized_connectivity(host, inp.k, budget=budget)
    return res.value, res.exact, res.nodes


def main():
    api = import_program()
    inputs = {}
    for name in WORKLOADS:
        wl = workload(name)
        hosts = {}
        for task in build_round(api, wl, 0, 0):
            hosts.setdefault(task.input.key, task.host)
        for inp in wl.inputs:
            entry = {"workload": name, "op": inp.op, "host": inp.host,
                     "graphs": [{"n": n, "edges": [list(e) for e in edges]}
                                for n, edges in inp.graphs],
                     "vertices": inp.vertices, "edges": inp.edges, "k": inp.k,
                     "budget": inp.budget, "terminals": list(inp.terminals),
                     "why": inp.why, "nodes": None, "value": None}
            if not inp.op.startswith("construct_"):
                host = hosts[inp.key]
                t0 = time.perf_counter()
                value, exact, entry["nodes"] = settle(api, inp, host, inp.budget)
                print("%s: %s exact=%s nodes=%d %.1f s" % (
                    inp.key, value, exact, entry["nodes"], time.perf_counter() - t0), flush=True)
                # the packing path's time is not bounded by its budget
                if not exact and inp.op != "max_tree_packing":
                    value, exact, _ = settle(api, inp, host, SETTLE_BUDGET)
                    entry["settled_with_budget"] = SETTLE_BUDGET
                    print("  with the settle budget: %s exact=%s" % (value, exact), flush=True)
                if inp.proven is not None:
                    if exact and value != inp.proven:
                        raise SystemExit("%s: search says %d, proof says %d"
                                         % (inp.key, value, inp.proven))
                    value, exact = inp.proven, True
                entry["value"] = value if exact else None
            inputs[inp.key] = entry
    sweep = []
    for i, (G, H) in enumerate(acceptance_sweep()):
        used = []
        if i in CARTESIAN_PAIRS:
            used.append("kappa3-cartesian")
        if i in LEX_PAIRS:
            used.append("kappa3-lex")
        sweep.append({"pair": i, "G": {"n": G[0], "edges": [list(e) for e in G[1]]},
                      "H": {"n": H[0], "edges": [list(e) for e in H[1]]},
                      "product_vertices": G[0] * H[0], "used_by": used})
    doc = {"about": "Pinned values for the benchmark's correctness gate, at "
                    "canonical labels; see make_reference.py.",
           "inputs": inputs, "acceptance_sweep": sweep}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
