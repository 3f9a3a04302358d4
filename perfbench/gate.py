"""Correctness gate: every answer is checked, outside the timed region.

A query fails when it raised or when any check below fails:

- a kappa_k answer's witness packing passes ``verify_packing`` on the host
  and holds exactly ``value`` trees for a k-element witness set;
- an exact kappa_3 value lies within the paper's bounds,
  ``kappa3_floor_from_kappa(kappa) <= kappa_3 <= kappa``, and, on a
  lexicographic product G o H, ``kappa_3(G) * |V(H)| <= kappa_3(G o H)``
  when the factor's value is exact too;
- an exact kappa_k value with k >= 4 is at most the minimum degree;
- every exact value equals the pinned reference value for its input;
- a tree packing for given terminals holds at least one tree where the
  pinned value is positive, and no more trees than that value;
- a tree family has at least its promised number of trees (|V(H)| for a
  tree base, kappa_3(G) * |V(H)| otherwise), and its certificate says ok,
  survives the dump/load round trip unchanged and re-verifies.

A budget-limited answer is not a failure; only its evidence is checked.
"""

from __future__ import annotations

TREE_BASE_BUILDERS = ("construct_path_lex", "construct_tree_lex")
FACTOR_BUDGET = 2_000_000


class Gate:
    def __init__(self, api, reference: dict):
        self.api = api
        self.reference = reference
        self._kappa = {}
        self._factor_kappa3 = {}

    def _host_kappa(self, key, host):
        # vertex connectivity does not depend on the labelling
        if key not in self._kappa:
            self._kappa[key] = self.api.vertex_connectivity(host)
        return self._kappa[key]

    def _left_kappa3(self, key, host):
        if key not in self._factor_kappa3:
            self._factor_kappa3[key] = self.api.kappa3(host.left, budget=FACTOR_BUDGET)
        return self._factor_kappa3[key]

    def check(self, task, answer):
        """Return ``(exact, problems)`` for one answered query."""
        op = task.input.op
        if op in ("kappa3", "generalized_connectivity"):
            return self._check_kappa(task, answer)
        if op == "max_tree_packing":
            return self._check_packing(task, answer)
        return self._check_family(task, answer)

    def _pinned(self, key):
        return self.reference[key]["value"]

    def _check_kappa(self, task, res):
        api, inp, host = self.api, task.input, task.host
        problems = []
        if res.witness is None or res.packing is None:
            problems.append("no witness packing")
        else:
            if len(set(res.witness)) != inp.k:
                problems.append("witness %r is not a %d-set" % (res.witness, inp.k))
            verdict = api.verify_packing(host, res.witness, res.packing.trees)
            if not verdict.ok:
                problems.append("witness packing fails: " + verdict.reason)
            if len(res.packing.trees) != res.value:
                problems.append("witness has %d trees for value %d"
                                % (len(res.packing.trees), res.value))
        if res.exact:
            value = res.value
            pinned = self._pinned(inp.key)
            if pinned is not None and value != pinned:
                problems.append("value %d, pinned %d" % (value, pinned))
            if inp.k == 3:
                kappa = self._host_kappa(inp.key, host)
                floor = api.kappa3_floor_from_kappa(kappa)
                if not floor <= value <= kappa:
                    problems.append("kappa3 %d outside [%d, %d] from kappa %d"
                                    % (value, floor, kappa, kappa))
                if inp.host == "lexicographic":
                    base = self._left_kappa3(inp.key, host)
                    if base.exact and base.value * host.right.n > value:
                        problems.append("kappa3(G)*|V(H)| = %d exceeds %d"
                                        % (base.value * host.right.n, value))
            elif value > api.min_degree(host):
                problems.append("kappa_%d %d exceeds the minimum degree" % (inp.k, value))
        return res.exact, problems

    def _check_packing(self, task, pack):
        problems = []
        verdict = self.api.verify_packing(task.host, task.terminals, pack.trees)
        if not verdict.ok:
            problems.append("packing fails: " + verdict.reason)
        pinned = self._pinned(task.input.key)
        if pinned is not None:
            if pack.exact and pack.size != pinned:
                problems.append("packing size %d, pinned %d" % (pack.size, pinned))
            elif not pack.exact and pack.size > pinned:
                problems.append("packing size %d above the pinned %d" % (pack.size, pinned))
            # any tree spanning the terminals' component is one: no search needed
            if pinned and not pack.trees:
                problems.append("no tree, though the pinned value is %d" % pinned)
        return pack.exact, problems

    def _check_family(self, task, answer):
        fam, doc, loaded, verdict = answer
        host = task.host
        problems = []
        if task.input.op in TREE_BASE_BUILDERS:
            promised = host.right.n
        else:
            base = self._left_kappa3(task.input.key, host)
            promised = base.value * host.right.n
        if fam.size < promised:
            problems.append("family has %d trees, promised %d" % (fam.size, promised))
        if tuple(sorted(fam.terminals)) != tuple(sorted(task.terminals)):
            problems.append("family answers terminals %r" % (fam.terminals,))
        if not doc["verdict"]["ok"]:
            problems.append("certificate verdict: " + doc["verdict"]["reason"])
        if loaded != doc:
            problems.append("certificate changed in the dump/load round trip")
        if not verdict.ok:
            problems.append("certificate does not re-verify: " + verdict.reason)
        return not problems, problems
