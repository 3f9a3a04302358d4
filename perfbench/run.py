#!/usr/bin/env python3
"""Outside-in benchmark for genconn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, on one thread, in one process.  A closed
loop with one caller issues each query when the previous one has answered,
as a user's ``genconn`` run does.  A query is one public call:
``kappa3``, ``generalized_connectivity`` or ``max_tree_packing``, or one
terminal triple's tree family built, certified, dumped, loaded and
re-verified.

A run repeats rounds (one pass over the workload's inputs, see
``workloads.py``) while the next round still fits in ``--seconds``.  Every
answer goes through the correctness gate (``gate.py``) between queries,
outside the timed region, and so does a short calibration loop that
measures the host's speed: every time reported under ``--trace 0`` is
rescaled to one fixed host speed (see ``CAL_NOMINAL_S``).  With
``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
runs round 1 untraced, traced and untraced again, and reports the per-layer
metrics of the traced pass.  The lines before it print every metric with
its unit and sample count, the machine, and node counts next to the
reference table.  A full report and, when traced, the spans are written
under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from gate import Gate
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, build_round, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9       # at the start; one more after every round

# This host's speed drifts by up to a third within a minute, and the process
# time of a query drifts with its wall time, so it is not time lost to other
# processes but a slower processor.  A fixed pure-Python loop, run between
# queries outside the timed region, measures the speed of the moment, and
# every timing is multiplied by CAL_NOMINAL_S over the loop's time nearby:
# the figures are seconds on a host that runs the loop in CAL_NOMINAL_S.
CAL_LOOPS = 100_000
CAL_SEARCHES = 12
CAL_NOMINAL_S = 0.016   # a fixed unit, near the loop's time on a 2-vCPU Xeon VM
CAL_EVERY_S = 0.5       # between queries, at most this long apart


# the 4x4 grid, whose paths from corner 0 to corner 15 the loop enumerates
GRID = {v: [w for w in (v - 4, v + 4, v - 1 if v % 4 else -1, v + 1 if v % 4 != 3 else -1)
            if 0 <= w < 16] for v in range(16)}


def _paths(u, seen):
    if u == 15:
        return 1
    found = 0
    for w in GRID[u]:
        if w not in seen:
            seen.add(w)
            found += _paths(w, seen)
            seen.discard(w)
    return found


def calibration_loop():
    """Seconds taken now by a fixed loop of integer arithmetic and a
    set-based depth-first search like the oracle's.  In one set of runs
    that timed both parts, the arithmetic alone followed single queries'
    latency best and the search alone whole rounds' time; their sum
    followed both nearly as well."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    for _ in range(CAL_SEARCHES):
        s += _paths(0, {0})
    return time.perf_counter() - t0


def _purge_program():
    for name in [n for n in sys.modules if n == "genconn" or n.startswith("genconn.")]:
        del sys.modules[name]


def import_program():
    """Import ``genconn`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "genconn" / "__init__.py").is_file():
        raise ImportError("no genconn package under %s" % src)
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    _purge_program()
    api = importlib.import_module("genconn")
    if Path(api.__file__).resolve().parent != src / "genconn":
        raise ImportError("genconn imported from %s, not from %s" % (api.__file__, src))
    return api


def setup(name, seed):
    """Import, generate the workload and build round 0; the time taken is
    rescaled by the calibration loop run just before and just after."""
    before = calibration_loop()
    t0 = time.perf_counter()
    api = import_program()
    wl = workload(name)
    tasks = build_round(api, wl, seed, 0)
    seconds = time.perf_counter() - t0
    loop_s = (before + calibration_loop()) / 2
    return seconds * CAL_NOMINAL_S / loop_s, api, wl, tasks


def time_setup(name, seed):
    """Time one more set-up, then put back the modules in use.

    A run repeats this between rounds, so that ``setup_s``, the median,
    is taken over the same stretch of time as the other metrics."""
    kept = {n: m for n, m in sys.modules.items()
            if n == "genconn" or n.startswith("genconn.")}
    seconds = setup(name, seed)[0]
    _purge_program()
    sys.modules.update(kept)
    return seconds


def ask(api, task):
    """One query; returns what the user would get back."""
    inp = task.input
    if inp.op == "kappa3":
        return api.kappa3(task.host, budget=inp.budget)
    if inp.op == "generalized_connectivity":
        return api.generalized_connectivity(task.host, inp.k, budget=inp.budget)
    if inp.op == "max_tree_packing":
        return api.max_tree_packing(task.host, task.terminals, budget=inp.budget)
    fam = getattr(api, inp.op)(task.host, task.terminals)
    stats = {"trees": fam.size, "fallbacks": fam.fallbacks, "notes": "; ".join(fam.notes)}
    doc = api.packing_certificate(task.host, fam.terminals, fam.trees, stats)
    loaded = api.load_certificate(api.dump_certificate(doc))
    return fam, doc, loaded, api.reverify(loaded)


class Tally:
    """Latencies and outcomes of every query in a run."""

    def __init__(self):
        self.latencies = []     # (start, seconds) of every query
        self.calibration = []   # (start, seconds) of every calibration loop
        self.round_ends = []    # number of queries answered at each round's end
        self.exact = 0
        self.failed = 0
        self.problems = []
        self.round0_nodes = {}

    @property
    def attempted(self):
        return len(self.latencies)

    def calibrate(self):
        self.calibration.append((time.perf_counter(), calibration_loop()))

    def scaled(self):
        """Every latency at the nominal host speed: the calibration loop's
        median time over the four runs of it nearest in time is taken as
        the speed during the query."""
        starts = [t for t, _ in self.calibration]
        out = []
        for start, seconds in self.latencies:
            j = bisect.bisect(starts, start)
            near = [c for _, c in self.calibration[max(0, j - 2):j + 2]]
            out.append(seconds * CAL_NOMINAL_S / statistics.median(near))
        return out

    def rounds(self, values):
        """Sum of ``values`` (one per query) over each round."""
        bounds = [0] + self.round_ends
        return [sum(values[a:b]) for a, b in zip(bounds, bounds[1:])]


def run_round(api, tasks, gate, tally, rnd, tracer=None):
    """Issue every query of one round.

    The gate and the calibration loop run between queries and are not
    timed (nor traced)."""
    base = len(tally.latencies)
    tally.calibrate()
    for i, task in enumerate(tasks):
        error = None
        if time.perf_counter() - tally.calibration[-1][0] > CAL_EVERY_S:
            tally.calibrate()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = ask(api, task)
            else:
                with tracer.span("query." + task.input.op, base + i):
                    answer = ask(api, task)
        except Exception as exc:  # a failed query is counted, the run goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        tally.latencies.append((t0, dt))
        if error is None:
            exact, problems = gate.check(task, answer)
            if rnd == 0 and hasattr(answer, "nodes"):
                tally.round0_nodes[task.input.key] = answer.nodes
        else:
            exact, problems = False, [error]
        tally.exact += bool(exact)
        if problems:
            tally.failed += 1
            if len(tally.problems) < 20:
                tally.problems.append("%s %s: %s" % (task.input.key, task.terminals,
                                                    "; ".join(problems)))
    tally.calibrate()
    tally.round_ends.append(len(tally.latencies))


def percentile(values, p):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[rank - 1], len(ordered) - rank


def machine():
    info = {"python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        info["nproc"] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg", encoding="utf-8") as fh:
            info["load1"] = float(fh.read().split()[0])
    except OSError:
        pass
    return info


def describe(wl):
    lines = ["workload %s: %s" % (wl.name, wl.why)]
    for inp in wl.inputs:
        lines.append("  input %-14s %-26s %-13s %3d vertices %4d edges  budget %d  (%s)"
                     % (inp.key, inp.op, inp.host, inp.vertices, inp.edges,
                        inp.budget, inp.why))
    return lines


def end_to_end(wl, tally, setup_times):
    n = tally.attempted
    latencies = tally.scaled()
    raw = [seconds for _, seconds in tally.latencies]
    tail, beyond = percentile(latencies, wl.tail_percentile)
    rounds = tally.rounds(latencies)
    rows = [
        ("wall_s", statistics.mean(rounds), "s",
         "busy time per round, first query to last answer, mean of %d rounds "
         "(%.4g s unscaled)" % (len(rounds), statistics.mean(tally.rounds(raw)))),
        ("query_p50_s", statistics.median(latencies), "s", "%d queries (%.4g s unscaled)"
         % (n, statistics.median(raw))),
        ("query_tail_s", tail, "s", "p%d, %d queries, %d beyond it (%.4g s unscaled)"
         % (wl.tail_percentile, n, beyond, percentile(raw, wl.tail_percentile)[0])),
        ("exact_share", tally.exact / n, "ratio", "%d of %d exact" % (tally.exact, n)),
        ("failed_share", tally.failed / n, "ratio", "%d of %d failed" % (tally.failed, n)),
        ("setup_s", statistics.median(setup_times), "s",
         "median of %d set-ups" % len(setup_times)),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MiB", "ru_maxrss of this process"),
    ]
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        first, api, wl, tasks0 = setup(args.workload, args.seed)
    except ImportError as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    gate = Gate(api, reference["inputs"])
    info = machine()
    lines = ["machine: python %s, nproc %s, cpu %s, load1 %s at start"
             % (info["python"], info["nproc"], info.get("cpu", "?"), info.get("load1", "?"))]
    lines += describe(wl)
    tally = Tally()
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": info}
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)

    if args.trace == 0:
        setup_times = [first] + [time_setup(wl.name, args.seed)
                                 for _ in range(SETUP_REPEATS - 1)]
        start = time.perf_counter()
        rnd, tasks = 0, tasks0
        while True:
            t0 = time.perf_counter()
            run_round(api, tasks, gate, tally, rnd)
            rnd += 1
            setup_times.append(time_setup(wl.name, args.seed))
            step = time.perf_counter() - t0
            if time.perf_counter() - start + step > args.seconds:
                break
            tasks = build_round(api, wl, args.seed, rnd)
        rows = end_to_end(wl, tally, setup_times)
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name != "failed_share"}
        lines.append("rounds: %d, queries per round: %d, seed %d"
                     % (rnd, len(tasks0), args.seed))
        for name, value, unit, note in rows:
            lines.append("  %-14s %14.6g %-6s %s" % (name, value, unit, note))
        speeds = sorted(CAL_NOMINAL_S / c for _, c in tally.calibration)
        lines.append("host speed against the nominal: median %.3f, range %.3f to %.3f "
                     "over %d calibration loops" % (statistics.median(speeds), speeds[0],
                                                    speeds[-1], len(speeds)))
        lines.append("node counts in round 0 (canonical labels) against the reference table:")
        for key, nodes in tally.round0_nodes.items():
            lines.append("  %-14s %10d nodes, reference %s"
                         % (key, nodes, reference["inputs"][key]["nodes"]))
        report["latencies"] = tally.latencies
        report["calibration"] = tally.calibration
        report["round_ends"] = tally.round_ends
        report["round0_nodes"] = tally.round0_nodes
    else:
        # the untraced round runs before and after the traced one, so that a
        # drift in the host's speed cancels out of the overhead
        run_round(api, build_round(api, wl, args.seed, 1), gate, tally, 1)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("setup.build_round", -1):
                tasks = build_round(api, wl, args.seed, 1)
            run_round(api, tasks, gate, tally, 1, tracer)
        finally:
            tracer.uninstall()
        run_round(api, build_round(api, wl, args.seed, 1), gate, tally, 1)
        before, traced, after = tally.rounds(tally.scaled())
        plain = (before + after) / 2
        layers = layer_metrics(tracer)
        layers["trace.overhead_share"] = ((traced - plain) / plain, "ratio")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        lines.append("traced round 1 (seed %d): %d queries, %.3f s untraced, %.3f s traced"
                     % (args.seed, len(tasks), plain, traced))
        lines.append("wrapped bindings: %d, spans: %d"
                     % (len(tracer.bindings), len(tracer.starts)))
        for name, (value, unit) in layers.items():
            lines.append("  %-34s %14.6g %s" % (name, value, unit))
        tracer.write(OUT / (stem + "-spans.tsv.gz"))
        report["bindings"] = tracer.bindings

    if tally.problems:
        lines.append("FAILED queries (first %d):" % len(tally.problems))
        lines += ["  " + p for p in tally.problems]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    report.update(result=result, problems=tally.problems, lines=lines)
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
