"""The documented API: the README's library example runs as written, its
command-line transcript prints what it shows, and every name the package
exports resolves.  The committed benchmark records are complete."""

from __future__ import annotations

import importlib.util
import json
import re
import shlex
from pathlib import Path

import genconn
from genconn.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_transcript_matches(tmp_path, monkeypatch, capsys):
    # each "$ genconn ..." paragraph of the command-line block: the command,
    # then the lines it prints; later commands read the files earlier ones write
    text = README.read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "$ genconn" in b)
    monkeypatch.chdir(tmp_path)
    for paragraph in block.strip().split("\n\n"):
        command, *shown = paragraph.splitlines()
        assert command.startswith("$ genconn "), command
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out.splitlines() == shown, command


def test_every_exported_name_resolves():
    for name in genconn.__all__:
        assert hasattr(genconn, name), name


def test_bench_records_are_complete():
    # a BENCH file (tools/bench_record.py) holds, for every workload, the
    # parent's and the change's end-to-end metrics with the units the
    # benchmark declares, and their round-0 node counts
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    workloads = {w["name"] for w in declared["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json committed"
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        machine = record["machine"]
        assert machine["cpu"] and machine["nproc"] >= 1 and machine["python"], path
        assert set(record["workloads"]) == workloads, path
        for name, blocks in record["workloads"].items():
            for side in ("parent", "change"):
                block = blocks[side]
                where = "%s %s %s" % (path.name, name, side)
                for metric, unit in units.items():
                    entry = block["metrics"][metric]
                    assert entry["unit"] == unit, (where, metric)
                    assert isinstance(entry["value"], (int, float)), (where, metric)
                assert block["failed"] == 0, where
                # construct-certify runs no search, so its table is empty
                nodes = block["round0_nodes"]
                assert isinstance(nodes, dict) and all(
                    isinstance(v, int) and v >= 0 for v in nodes.values()), where
            assert set(blocks["parent"]["round0_nodes"]) == set(blocks["change"]["round0_nodes"])


def test_bench_record_compares_the_two_blocks():
    # with both blocks in the file, the recorder prints each end-to-end
    # metric as parent -> change and the round-0 node totals
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    bench_record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_record)

    def block(wall, nodes):
        return {"metrics": {"wall_s": {"unit": "s", "value": wall}},
                "round0_nodes": nodes}

    record = {"workloads": {
        "search": {"parent": block(0.2, {"a": 60, "b": 40}), "change": block(0.15, {"a": 5, "b": 5})},
        "idle": {"parent": block(1.0, {}), "change": block(1.0, {})},
        "half": {"change": block(1.0, {})}}}
    assert bench_record.comparison(record) == [
        "search", "  wall_s        0.2 -> 0.15 (-25.0%) s", "  round0_nodes  100 -> 10 (-90.0%)",
        "idle", "  wall_s        1 -> 1 (+0.0%) s", "  round0_nodes  0 -> 0"]
