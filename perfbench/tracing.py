"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds each function in ``TRACED`` in every ``genconn``
module namespace that binds it (``capped_flow_value`` lives in both
``connectivity`` and ``steiner``, ``verify_packing`` in ``steiner``,
``construct`` and ``certificates``, and so on), so calls between modules
are seen as well as the benchmark's own calls.  ``uninstall`` restores the
original bindings.

Each span has a name, start, end, parent and query id.  Spans are kept in
memory in flat arrays and written out at the end.  Self time is computed as
spans close: a span's duration minus the time its child spans cover.  One
thread makes every call, so children never overlap and the time they cover
is the sum of their durations.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

TRACED = {
    "graphs": ("lexicographic_product", "cartesian_product"),
    "connectivity": ("capped_flow_value", "disjoint_paths"),
    "steiner": ("verify_packing", "pair_flow_bound", "max_tree_packing",
                "generalized_connectivity", "kappa3"),
    "construct": ("construct_path_lex", "construct_tree_lex",
                  "construct_general_lex"),
    "certificates": ("packing_certificate", "dump_certificate",
                     "load_certificate", "reverify"),
}


class _Frame:
    __slots__ = ("index", "name", "start", "children", "current_min")

    def __init__(self, index, name, start):
        self.index = index
        self.name = name
        self.start = start
        self.children = 0.0
        self.current_min = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.queries = array("i")
        self.active = False     # wrappers record only inside a span()
        self.query_id = -1
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self.bindings = []      # "module.name" of every binding replaced

    # ---- spans ----

    def open(self, name):
        start = self.clock()
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.starts.append(start)
        self.ends.append(start)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1].index if self._stack else -1)
        self.queries.append(self.query_id)
        self._stack.append(_Frame(index, name, start))

    def close(self, result=None):
        end = self.clock()
        frame = self._stack.pop()
        self.ends[frame.index] = end
        duration = end - frame.start
        self.calls[frame.name] += 1
        self.total_s[frame.name] += duration
        self.self_s[frame.name] += duration - frame.children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children += duration
        if result is not None:
            self._observe(frame.name, result, parent)

    @contextmanager
    def span(self, name, query_id):
        """Root span of one query (or of set-up work, query id -1); the
        wrapped functions record spans only inside one."""
        self.query_id = query_id
        self.open(name)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.close()

    def _observe(self, name, result, parent):
        """Counters read from return values at the layer boundary."""
        c = self.counts
        if name == "steiner.max_tree_packing":
            c["search_nodes"] += result.nodes
            if parent is not None and parent.name == "steiner.generalized_connectivity":
                c["sets_visited"] += 1
                if result.hit_cap:
                    c["sets_hit_cap"] += 1
                elif result.exact:
                    c["sets_exact"] += 1
                else:
                    c["sets_budget"] += 1
                # the scan's running minimum moves exactly when it does here
                if not result.hit_cap and (parent.current_min is None
                                           or result.size < parent.current_min):
                    parent.current_min = result.size
                    c["sets_useful"] += 1
        elif name.startswith("construct.construct_"):
            if parent is None or not parent.name.startswith("construct."):
                c["families"] += 1
                c["fallback_trees"] += result.fallbacks
        elif name == "certificates.dump_certificate":
            # json.dumps escapes non-ASCII, so characters are bytes
            c["certificate_bytes"] += len(result)

    # ---- installing ----

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close()
                raise
            tracer.close(result)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "genconn" or n.startswith("genconn."))]
        for layer, fnames in TRACED.items():
            home = sys.modules["genconn." + layer]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrap(original, "%s.%s" % (layer, fname))
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._undo.append((mod, fname, original))
        self.bindings = sorted("%s.%s" % (m.__name__, f) for m, f, _ in self._undo)

    def uninstall(self):
        for mod, fname, original in reversed(self._undo):
            setattr(mod, fname, original)
        self._undo = []

    # ---- output ----

    def write(self, path):
        """Spans as gzip'd tab-separated lines: id, parent, query, name,
        start and end in seconds from the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tquery\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.parents[i], self.queries[i], names[self.name_ids[i]],
                    self.starts[i] - t0, self.ends[i] - t0))


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics, named ``<module>.<metric>``, as (value, unit)."""
    calls, own, total, c = tr.calls, tr.self_s, tr.total_s, tr.counts
    lex, cart = "graphs.lexicographic_product", "graphs.cartesian_product"
    flow, paths = "connectivity.capped_flow_value", "connectivity.disjoint_paths"
    pack, pfb = "steiner.max_tree_packing", "steiner.pair_flow_bound"
    verify, scan = "steiner.verify_packing", "steiner.generalized_connectivity"
    construct = [n for n in own if n.startswith("construct.")]
    packing_self = own[pack]
    metrics = {
        "graphs.product_builds": (calls[lex] + calls[cart], "count"),
        "graphs.product_build_s": (own[lex] + own[cart], "s"),
        "connectivity.flow_calls": (calls[flow], "count"),
        "connectivity.flow_s": (own[flow], "s"),
        "connectivity.disjoint_paths_calls": (calls[paths], "count"),
        "connectivity.disjoint_paths_s": (own[paths], "s"),
        "steiner.sets_visited": (c["sets_visited"], "count"),
        "steiner.sets_hit_cap": (c["sets_hit_cap"], "count"),
        "steiner.sets_exact": (c["sets_exact"], "count"),
        "steiner.sets_budget": (c["sets_budget"], "count"),
        "steiner.useful_set_share": (_share(c["sets_useful"], c["sets_visited"]), "ratio"),
        "steiner.search_nodes": (c["search_nodes"], "count"),
        "steiner.packing_self_s": (packing_self, "s"),
        "steiner.nodes_per_s": (_share(c["search_nodes"], packing_self), "1/s"),
        "steiner.pair_bound_calls": (calls[pfb], "count"),
        "steiner.pair_bound_s": (total[pfb], "s"),
        "steiner.scan_self_s": (own[scan], "s"),
        "steiner.verify_calls": (calls[verify], "count"),
        "steiner.verify_s": (own[verify], "s"),
        "construct.families": (c["families"], "count"),
        "construct.build_s": (sum(own[n] for n in construct), "s"),
        "construct.fallback_trees": (c["fallback_trees"], "count"),
        "certificates.build_s": (own["certificates.packing_certificate"], "s"),
        "certificates.dump_s": (own["certificates.dump_certificate"], "s"),
        "certificates.bytes": (c["certificate_bytes"], "bytes"),
        "certificates.load_s": (own["certificates.load_certificate"], "s"),
        "certificates.reverify_s": (own["certificates.reverify"], "s"),
    }
    return {name: (value if unit in ("count", "bytes") else float(value), unit)
            for name, (value, unit) in metrics.items()}
