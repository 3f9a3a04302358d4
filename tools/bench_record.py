"""Record the benchmark's end-to-end figures of this checkout in a BENCH file.

Runs ``perfbench/run.py --seed 1 --seconds 28 --trace 0`` once for every
workload on the checkout this script belongs to, reads each report from
``.perfbench_out/<workload>-seed1-trace0.json``, and stores its end-to-end
metrics, its round-0 node counts and the machine as one block, ``parent`` or
``change``, of a BENCH file.  The other block of an existing file is kept, so
a record before and after a change is made by running this script in a
checkout of the parent commit and then in the changed one, both writing the
same file:

    python3 tools/bench_record.py --block parent --out BENCH_8.json   # parent
    python3 tools/bench_record.py --block change --out BENCH_8.json   # change

Each run gets a fresh, empty bytecode cache (``PYTHONPYCACHEPREFIX``), so
``setup_s`` never reads a ``__pycache__`` left in the checkout by earlier
runs, and a working checkout's block compares with a fresh clone's.

Standard library only.  A block from a machine with another CPU model or
processor count is refused, because its times would not compare with the
other block's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("kappa3-cartesian", "kappa3-lex", "kappak-forest", "construct-certify")
BLOCKS = ("parent", "change")
SEED = 1
SECONDS = 28


def git_commit(root):
    """The checked-out commit, suffixed -dirty when tracked files differ."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=root, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_workload(root, workload):
    """One untraced benchmark run, with its own empty bytecode cache;
    returns its report."""
    path = root / ".perfbench_out" / ("%s-seed%d-trace0.json" % (workload, SEED))
    path.unlink(missing_ok=True)    # never read an earlier run's report
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench_record-pycache-") as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        subprocess.run(cmd, cwd=root, check=False, stdout=subprocess.DEVNULL, env=env)
    if not path.exists():
        raise SystemExit("bench_record: %s wrote no report" % workload)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def block_of(report):
    result = report["result"]
    return {"metrics": result["metrics"], "attempted": result["attempted"],
            "failed": result["failed"], "round0_nodes": report["round0_nodes"]}


def same_machine(a, b):
    return a.get("cpu") == b.get("cpu") and a.get("nproc") == b.get("nproc")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--block", required=True, choices=BLOCKS)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    record = {}
    if args.out.exists():
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    workloads = record.setdefault("workloads", {})
    machine = None
    for name in WORKLOADS:
        report = run_workload(ROOT, name)
        machine = machine or {k: report["machine"].get(k) for k in ("python", "nproc", "cpu")}
        workloads.setdefault(name, {})[args.block] = block_of(report)
        print("%-18s %s wall_s %.3f s, %d failed"
              % (name, args.block, report["result"]["metrics"]["wall_s"]["value"],
                 report["result"]["failed"]))
    if "machine" in record and not same_machine(record["machine"], machine):
        print("bench_record: %s was recorded on %r, this run is on %r"
              % (args.out, record["machine"], machine), file=sys.stderr)
        return 2
    record["machine"] = machine
    record.setdefault("commits", {})[args.block] = git_commit(ROOT)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
