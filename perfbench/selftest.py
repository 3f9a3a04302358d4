#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about ten seconds.  Checks
that the gate flags a broken packing and a wrong pinned value, that self
time is computed right on a synthetic span tree, that node counts repeat
exactly across two traced runs, and that the generator still draws the
inputs recorded in ``reference.json``.
"""

from __future__ import annotations

import json
import unittest

from gate import Gate
from run import HERE, import_program, run_round, Tally
from tracing import Tracer, layer_metrics
from workloads import Input, Task, acceptance_sweep, build_round, family, workload

api = import_program()


def _reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.reference = _reference()["inputs"]
        inp = next(i for i in workload("kappa3-lex").inputs if i.key == "lex-C4oC4")
        self.task = build_round(api, workload("kappa3-lex"), 0, 0)[0]
        self.assertEqual(self.task.input, inp)
        self.answer = api.kappa3(self.task.host)

    def test_correct_answer_passes(self):
        exact, problems = Gate(api, self.reference).check(self.task, self.answer)
        self.assertTrue(exact)
        self.assertEqual(problems, [])

    def test_packing_with_one_edge_removed_is_flagged(self):
        trees = list(self.answer.packing.trees)
        first = trees[0]
        trees[0] = api.SteinerTree(first.terminals, first.edges[1:])
        self.answer.packing.trees = trees
        exact, problems = Gate(api, self.reference).check(self.task, self.answer)
        self.assertTrue(any("witness packing fails" in p for p in problems), problems)

    def test_wrong_pinned_value_is_flagged(self):
        reference = dict(self.reference)
        reference["lex-C4oC4"] = dict(reference["lex-C4oC4"], value=9)
        exact, problems = Gate(api, reference).check(self.task, self.answer)
        self.assertTrue(any("pinned 9" in p for p in problems), problems)

    def test_short_family_is_flagged(self):
        inp = Input("fam-P6oP4", "construct_path_lex", "lexicographic",
                    (family("path", 6), family("path", 4)), "test")
        host = api.lexicographic_product(api.family("path", 6), api.family("path", 4))
        task = Task(inp, host, (0, 5, 11))
        fam = api.construct_path_lex(host, task.terminals)
        fam.trees = fam.trees[:-1]
        doc = api.packing_certificate(host, fam.terminals, fam.trees)
        loaded = api.load_certificate(api.dump_certificate(doc))
        exact, problems = Gate(api, self.reference).check(
            task, (fam, doc, loaded, api.reverify(loaded)))
        self.assertFalse(exact)
        self.assertTrue(any("promised 4" in p for p in problems), problems)

    def test_empty_packing_is_flagged(self):
        inp = next(i for i in workload("kappak-forest").inputs if i.key == "mtp-C20")
        host = api.family("cycle", 20)
        task = Task(inp, host, inp.terminals)
        answer = api.max_tree_packing(host, inp.terminals, budget=inp.budget)
        self.assertEqual(Gate(api, self.reference).check(task, answer)[1], [])
        for exact in (False, True):
            answer.trees, answer.exact = [], exact
            problems = Gate(api, self.reference).check(task, answer)[1]
            self.assertTrue(any("no tree" in p for p in problems), problems)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
        tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        tr.open("a")
        tr.open("b")
        tr.open("d")
        tr.close()
        tr.close()
        tr.open("c")
        tr.close()
        tr.close()
        self.assertEqual(dict(tr.self_s), {"a": 3, "b": 2, "c": 4, "d": 1})
        self.assertEqual(dict(tr.total_s), {"a": 10, "b": 3, "c": 4, "d": 1})
        names = [tr.names[i] for i in tr.name_ids]
        self.assertEqual(names, ["a", "b", "d", "c"])
        self.assertEqual(list(tr.parents), [-1, 0, 1, 0])


class TracedRunTest(unittest.TestCase):
    def traced_counts(self):
        wl = workload("kappak-forest")
        reference = _reference()["inputs"]
        tasks = [t for t in build_round(api, wl, 3, 1) if t.input.key == "gc4-C4xK2"]
        tracer = Tracer()
        tracer.install()
        try:
            run_round(api, tasks, Gate(api, reference), Tally(), 1, tracer)
        finally:
            tracer.uninstall()
        self.assertIn("genconn.steiner.capped_flow_value", tracer.bindings)
        self.assertIn("genconn.certificates.verify_packing", tracer.bindings)
        return {name: value for name, (value, unit) in layer_metrics(tracer).items()
                if unit == "count"}

    def test_node_counts_repeat_exactly(self):
        first, second = self.traced_counts(), self.traced_counts()
        self.assertGreater(first["steiner.search_nodes"], 0)
        self.assertEqual(first, second)

    def test_uninstall_restores_the_bindings(self):
        self.traced_counts()
        self.assertIs(api.steiner.capped_flow_value, api.connectivity.capped_flow_value)
        self.assertFalse(hasattr(api.kappa3, "__wrapped__"))


class GeneratorTest(unittest.TestCase):
    def test_sweep_matches_the_recorded_inputs(self):
        recorded = _reference()["acceptance_sweep"]
        for entry, (G, H) in zip(recorded, acceptance_sweep()):
            self.assertEqual((entry["G"]["n"], entry["G"]["edges"]), (G[0], [list(e) for e in G[1]]))
            self.assertEqual((entry["H"]["n"], entry["H"]["edges"]), (H[0], [list(e) for e in H[1]]))

    def test_same_seed_same_inputs(self):
        wl = workload("kappa3-cartesian")
        a = [(t.input.key, t.host.edges()) for t in build_round(api, wl, 5, 2)]
        b = [(t.input.key, t.host.edges()) for t in build_round(api, wl, 5, 2)]
        c = [(t.input.key, t.host.edges()) for t in build_round(api, wl, 6, 2)]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        # another seed asks the same queries in another order
        self.assertEqual(sorted(a), sorted(c))


if __name__ == "__main__":
    unittest.main()
