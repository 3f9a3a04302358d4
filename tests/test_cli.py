"""Command-line behavior: exit codes, output files, determinism.

Everything runs in-process through cli.main so coverage tools and
debuggers see straight through; one subprocess smoke test covers the
module entry point.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from genconn import cli, graphs, steiner
from genconn.certificates import dump_certificate
from genconn.cli import main
from genconn.graphs import (cartesian_product, family, format_edge_list,
                            lexicographic_product)
from genconn.steiner import kappa3


def run(argv) -> int:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return 0 if code is None else code


class TestKappa:
    def test_family_argument(self, capsys):
        assert run(["kappa", "--family", "complete:6", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "kappa = 5" in out
        assert "kappa3 = 4 (exact)" in out

    def test_path(self, capsys):
        assert run(["kappa", "--family", "path:5"]) == 0
        out = capsys.readouterr().out
        assert "kappa = 1" in out and "kappa3 = 1" in out

    def test_edge_list_file(self, tmp_path, capsys):
        f = tmp_path / "c5.txt"
        f.write_text(format_edge_list(family("cycle", 5)))
        assert run(["kappa", "--edges", str(f)]) == 0
        assert "kappa3 = 1" in capsys.readouterr().out

    def test_higher_k(self, capsys):
        assert run(["kappa", "--family", "complete:6", "--k", "4"]) == 0
        assert "kappa_4 = 4" in capsys.readouterr().out

    def test_witness_certificate_verifies(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["kappa", "--family", "complete:5", "--output", str(out)]) == 0
        assert run(["verify", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stats"]["kind"] == "kappa3"
        assert doc["stats"]["exact"] is True

    def test_budget_exhaustion_exits_3(self, tmp_path, capsys):
        P = cartesian_product(family("complete", 4), family("complete", 4))
        f = tmp_path / "k4k4.txt"
        f.write_text(format_edge_list(P))
        assert run(["kappa", "--edges", str(f), "--budget", "100000"]) == 3
        assert "budget-limited" in capsys.readouterr().out

    def test_budget_of_one_settles_a_path(self, capsys):
        # one BFS tree meets the bound 1 of the only terminal set of P3
        assert run(["kappa", "--family", "path:3", "--budget", "1"]) == 0
        assert "kappa3 = 1 (exact)" in capsys.readouterr().out

    def test_bad_inputs_exit_4(self, tmp_path):
        assert run(["kappa", "--family", "triangle:4"]) == 4
        assert run(["kappa", "--edges", str(tmp_path / "missing.txt")]) == 4
        assert run(["kappa", "--family", "path:5", "--k", "1"]) == 4

    def test_huge_vertex_count_exits_4_before_building(self, tmp_path, capsys, monkeypatch):
        # no Graph may be built: the header alone fails, with one error line
        def boom(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(graphs, "Graph", boom)
        f = tmp_path / "huge.txt"
        f.write_text("100000000\n0 1\n")
        assert run(["kappa", "--edges", str(f)]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "above the limit of %d" % graphs.MAX_ORDER in err[0]
        f.write_text("%d\n" % (graphs.MAX_ORDER + 1))
        assert run(["kappa", "--edges", str(f)]) == 4

    @pytest.mark.parametrize("host,digest,nodes", [
        (lexicographic_product(family("cycle", 4), family("cycle", 4)),
         "0b42f1ffa36afe8303725be8aff929074f2f8be28a8b5d94ad90075fc5a1ffca", 1432),
        (cartesian_product(family("cycle", 4), family("path", 3)),
         "195b978442c2c5326d9a4b4c418dfb9e14a9d464eb558a84748108629418b3ca", 924),
        # four capped sets settled by back-offs from the empty packing
        # (`TestScanWork.test_backoff_from_the_empty_packing_is_pinned`)
        (cartesian_product(family("cycle", 3), family("cycle", 4)),
         "7abf074d9856cf7f44d915c484989871de0a18192070fb6d23cc095e7b1e0764", 2132),
    ], ids=["C4oC4", "C4xP3", "C3xC4"])
    def test_witness_certificate_bytes_are_pinned(self, tmp_path, host, digest, nodes):
        # a faster scan keeps the witness set, its trees and every byte of
        # the certificate but its node count, which is pinned on its own
        # (1,472 and 2,876 on C4oC4 and C3xC4 before the last-tree look-ahead)
        f = tmp_path / "host.txt"
        f.write_text(format_edge_list(host))
        out = tmp_path / "w.json"
        assert run(["kappa", "--edges", str(f), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stats"].pop("nodes") == nodes
        assert hashlib.sha256(dump_certificate(doc).encode()).hexdigest() == digest


class TestConstruct:
    def test_explicit_terminals(self, capsys):
        code = run(["construct", "--lex", "star:4", "path:3",
                    "--terminals", "1:0 2:0 3:0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminals 1:0 2:0 3:0: 3 trees" in out
        assert "failures: 0" in out

    def test_all_triples_with_certificates(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        code = run(["construct", "--lex", "path:3", "complete:2",
                    "--all-triples", "--output", str(out)])
        assert code == 0
        assert "families: 20" in capsys.readouterr().out
        assert run(["verify", str(out)]) == 0

    @pytest.mark.parametrize("base,inner,digest", [
        ("path:5", "path:3",
         "21a3ed9ce07ee7fc0518748daa59767d72b2507ae0310dfeea6da7f56976b644"),
        ("cycle:5", "path:2",
         "67410f3993ac2f42af14b860f60c568947f070f54450fcc26e5f0f07085698ea"),
        ("cycle:6", "complete:2",
         "ee2a59531581296b61242b71bd36d739d63528aa30c482054f33deb3710552d2"),
        # star base: tripod and far-pair trees
        ("star:4", "path:2",
         "2a9e4d2ca470db550a27d84722bf84a186b67b679f9b56fed654b933b35fe50f"),
        # base packings of three trees, with tripods and far pairs on them
        ("complete:4", "path:2",
         "54cbe2ee541943c61f1d83867a7e991e2f64f06bdf8ba07d04a38ee9729ccdea"),
        # kappa_3 = 2 from the oracle: far pairs over two corridors, tripods
        ("k33.txt", "path:2",
         "6c2728559a4f3424eb0490f189ea26fb7c34e1d9f8187ba667df7339b2e8df5a"),
        # legs 0-1-2, 0-3-4, 0-5-6: tripods around a non-terminal median,
        # whose base tree leaves out the legs no terminal needs
        ("spider.txt", "path:2",
         "116485f3766a4ed4549957d3cfa87ccc2eed0a40e4d908e439359724e85f3751"),
        # 56 families, 16 of them from the oracle: where the base packing
        # has a second dangerous tree, the cut leaves one of two
        ("diamond.txt", "complete:2",
         "0c753782f0d92d966a41f46930cae895d985a1e34aa5045b71014ee1dc84c34e"),
    ], ids=["P5oP3", "C5oP2", "C6oK2", "S4oP2", "K4oP2", "K33oP2", "spiderP2", "diamondK2"])
    def test_all_triples_certificate_bytes_are_pinned(self, tmp_path, base, inner, digest):
        # a refactor of the constructions or the oracle keeps every tree,
        # tag and byte of these certificates
        edge_lists = {
            "k33.txt": "6\n" + "".join("%d %d\n" % (u, v) for u in range(3) for v in range(3, 6)),
            "spider.txt": "7\n0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n",
            "diamond.txt": "4\n0 1\n0 2\n1 2\n1 3\n2 3\n"}
        if base in edge_lists:
            (tmp_path / base).write_text(edge_lists[base])
            base = str(tmp_path / base)
        out = tmp_path / "fam.json"
        assert run(["construct", "--lex", base, inner, "--all-triples",
                    "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_base_kappa3_is_computed_once_per_run(self, monkeypatch):
        # every triple of a run shares one exact kappa_3(G)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kappa3(*args, **kwargs)

        monkeypatch.setattr(cli, "kappa3", counting)
        monkeypatch.setattr(steiner, "kappa3", counting)
        assert run(["construct", "--lex", "cycle:6", "complete:2", "--all-triples"]) == 0
        assert len(calls) == 1

    def test_inexact_base_kappa3_is_computed_once_per_run(self, tmp_path, monkeypatch):
        # the diamond's kappa_3 runs out of a budget of 4: every family
        # still notes it, from one computation, with the same bytes
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kappa3(*args, **kwargs)

        monkeypatch.setattr(cli, "kappa3", counting)
        monkeypatch.setattr(steiner, "kappa3", counting)
        diamond = tmp_path / "diamond.txt"
        diamond.write_text("4\n0 1\n0 2\n1 2\n1 3\n2 3\n")
        out = tmp_path / "fam.json"
        assert run(["construct", "--lex", str(diamond), "complete:2", "--all-triples",
                    "--budget", "4", "--output", str(out)]) == 3
        assert len(calls) == 1
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "6871d1880aabd9a225dbc416ade83c7be3a7e598e80dcb0458f417567d758dbd")

    def test_random_triples_are_seeded(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["construct", "--lex", "cycle:4", "complete:2",
                "--random-triples", "5", "--seed", "3"]
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_budget_limited_family_exits_3(self, tmp_path, capsys):
        # on the diamond base both the base kappa_3 and the product oracle
        # run out of budget; the family is printed and flagged partial
        diamond = tmp_path / "diamond.txt"
        diamond.write_text("4\n0 1\n0 2\n1 2\n1 3\n2 3\n")
        code = run(["construct", "--lex", str(diamond), "complete:2",
                    "--terminals", "1:0 2:0 0:0", "--budget", "4"])
        assert code == 3
        out = capsys.readouterr().out
        assert "terminals 0:0 1:0 2:0: 3 trees (3 via oracle) (budget-limited)" in out
        assert "failures: 0" in out

    def test_bad_terminals_exit_4(self, capsys):
        base = ["construct", "--lex", "path:4", "path:3", "--terminals"]
        assert run(base + ["0:0 1:1"]) == 4          # only two
        assert run(base + ["0:0 0:0 1:1"]) == 4      # repeated
        capsys.readouterr()
        assert run(base + ["0:0 1:1 9:9"]) == 4      # out of range
        assert ("bad vertex name '9:9' for this host: coordinate (9, 9) out of range"
                in capsys.readouterr().err)

    def test_missing_mode_exit_4(self):
        assert run(["construct", "--lex", "path:4", "path:3"]) == 4


class TestVerify:
    def make_cert(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["construct", "--lex", "path:4", "path:3",
                    "--terminals", "0:0 1:1 3:2", "--output", str(out)]) == 0
        return out

    def test_good_certificate(self, tmp_path, capsys):
        out = self.make_cert(tmp_path)
        assert run(["verify", str(out)]) == 0
        assert "ok (3 trees)" in capsys.readouterr().out

    def test_tampered_certificate_exits_2(self, tmp_path, capsys):
        out = self.make_cert(tmp_path)
        doc = json.loads(out.read_text())
        doc["trees"][0]["edges"] = doc["trees"][0]["edges"][1:]
        out.write_text(json.dumps(doc))
        assert run(["verify", str(out)]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_overstated_kappa_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "kappa.json"
        assert run(["kappa", "--family", "complete:5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["stats"]["value"] == len(doc["trees"]) == 3
        doc["stats"]["value"] = 9
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(out)]) == 2
        assert "stats claim value 9" in capsys.readouterr().out

    def test_overstated_family_size_exits_2(self, tmp_path, capsys):
        out = self.make_cert(tmp_path)
        doc = json.loads(out.read_text())
        doc["stats"]["trees"] = 4
        out.write_text(json.dumps(doc))
        assert run(["verify", str(out)]) == 2
        assert "stats claim trees 4" in capsys.readouterr().out

    @pytest.mark.parametrize("claim", [True, 1.0])
    @pytest.mark.parametrize("command", [
        ["kappa", "--family", "path:4"],
        ["construct", "--lex", "path:3", "complete:1", "--terminals", "0:0 1:0 2:0"]],
        ids=["value", "trees"])
    def test_one_tree_count_as_true_or_float_exits_2(self, tmp_path, capsys, command, claim):
        # a certificate of one tree whose count is edited to JSON true or 1.0
        out = tmp_path / "one.json"
        assert run(command + ["--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        key = "value" if command[0] == "kappa" else "trees"
        assert doc["stats"][key] == len(doc["trees"]) == 1
        doc["stats"][key] = claim
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", str(out)]) == 2
        assert "stats claim %s %r" % (key, claim) in capsys.readouterr().out

    def test_missing_file_exits_4(self, tmp_path):
        assert run(["verify", str(tmp_path / "nope.json")]) == 4

    def test_factor_above_the_order_limit_exits_4(self, tmp_path, capsys):
        doc = {"kind": "certificate", "terminals": ["0"], "trees": [],
               "verdict": {"ok": True, "reason": ""}, "stats": {},
               "host": {"product_kind": "none",
                        "factors": [{"order": graphs.MAX_ORDER + 1, "edges": []}]}}
        cert = tmp_path / "big.json"
        cert.write_text(json.dumps(doc))
        assert run(["verify", str(cert)]) == 4
        assert "above the limit" in capsys.readouterr().err

    def test_malformed_set_item_exits_4_before_any_verdict(self, tmp_path, capsys):
        out = self.make_cert(tmp_path)
        good = json.loads(out.read_text())
        bad = json.loads(out.read_text())
        bad["trees"][0]["edges"][0] = ["0:0"]
        out.write_text(json.dumps({"kind": "certificate_set", "items": [good, bad]}))
        capsys.readouterr()
        assert run(["verify", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed certificate: "
                                "tree 0 edge ['0:0'] is not a pair\n")

    def test_malformed_json_exits_4(self, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("{not json")
        assert run(["verify", str(f)]) == 4


class TestBounds:
    def test_single_pair_with_reports(self, tmp_path, capsys):
        csv_path = tmp_path / "b.csv"
        json_path = tmp_path / "b.json"
        code = run(["bounds", "--pair", "path:4,path:3",
                    "--csv", str(csv_path), "--json", str(json_path)])
        assert code == 0
        assert "0 failed" in capsys.readouterr().out
        header = csv_path.read_text().splitlines()[0]
        assert header == "pair,check,status,bound,observed,reason"
        payload = json.loads(json_path.read_text())
        assert payload["pairs"][0]["pair"] == "path:4,path:3"

    def test_complete_base_skips_not_fails(self, capsys):
        assert run(["bounds", "--pair", "complete:4,path:3"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_one_vertex_factors_pass(self, capsys):
        assert run(["bounds", "--pair", "complete:1,complete:1"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_seeded_sweep_is_deterministic(self, tmp_path):
        # the sweep the ROADMAP baseline quotes, pinned byte for byte
        table, reports = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert run(["bounds", "--random-pairs", "25", "--max-order", "5",
                    "--seed", "7", "--budget", "2e6",
                    "--csv", str(table), "--json", str(reports)]) == 0
        assert "skipped: budget" not in table.read_text()
        assert (hashlib.sha256(table.read_bytes()).hexdigest()
                == "400a03e0484a2caa5f4a2205494be991ef61587259f67ed9cf687211c27918e8")
        assert (hashlib.sha256(reports.read_bytes()).hexdigest()
                == "d00025b61b6cb46257976be396df5a9fe4da389eb4e2136490732a1912968043")

    def test_bad_pair_spec_exits_4(self):
        assert run(["bounds", "--pair", "path:4"]) == 4
        assert run(["bounds", "--pair", "blob:4,path:3"]) == 4


class TestFailFast:
    @pytest.mark.parametrize("argv", [
        ["construct", "--lex", "path:4", "path:3", "--terminals", "0 1 99"],
        ["bounds", "--random-pairs", "1", "--max-order", "2"],
        ["bounds", "--random-pairs", "1", "--max-order", "6"],
        ["bounds", "--random-pairs", "1", "--max-order", "3000"],
        ["kappa", "--family", "path:4", "--k", "1"],
        ["construct", "--lex", "path:4", "path:3", "--random-triples", "0"],
        ["bounds", "--random-pairs", "0"],
        ["kappa", "--family", "path:4", "--budget", "inf"],
        ["kappa", "--edges", "{empty}"],
        ["bounds", "--pair", "{empty},path:2"],
        ["construct", "--lex", "{split}", "path:2", "--all-triples"],
    ], ids=["flat-terminal-ids", "max-order-2", "max-order-6", "max-order-3000", "k-1",
            "random-triples-0", "random-pairs-0", "budget-inf", "kappa-no-vertices",
            "bounds-no-vertices", "construct-disconnected-base"])
    def test_bad_argument_exits_4_before_any_work(self, tmp_path, capsys, argv):
        # {empty} has no vertices; {split} has two components
        (tmp_path / "empty.txt").write_text("0\n")
        (tmp_path / "split.txt").write_text("4\n0 1\n2 3\n")
        files = {"empty": tmp_path / "empty.txt", "split": tmp_path / "split.txt"}
        assert run([arg.format(**files) for arg in argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


    @pytest.mark.parametrize("argv", [
        ["kappa", "--family", "path:10001"],
        ["construct", "--lex", "path:5001", "{edgeless}", "--terminals", "0:0 1:0 2:0"],
        ["bounds", "--pair", "path:101,path:100"],
    ], ids=["kappa-family", "construct-product", "bounds-product"])
    def test_graph_above_the_order_limit_exits_4(self, tmp_path, capsys, monkeypatch, argv):
        # the family or the product is over graphs.MAX_ORDER = 10,000
        # vertices, so no oracle, construction or report may start
        def boom(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("vertex_connectivity", "kappa3", "construct_general_lex"):
            monkeypatch.setattr(cli, name, boom)
        monkeypatch.setattr(cli.bounds, "consistency_report", boom)
        (tmp_path / "edgeless.txt").write_text("2\n")
        assert run([arg.format(edgeless=tmp_path / "edgeless.txt") for arg in argv]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above the limit of %d" % graphs.MAX_ORDER in captured.err

    @pytest.mark.parametrize("argv", [
        ["kappa", "--family", "complete:10000"],
        ["bounds", "--pair", "complete:100,complete:100"],
        ["construct", "--lex", "complete:100", "complete:100", "--terminals", "0:0 0:1 0:2"],
    ], ids=["kappa-family", "bounds-product", "construct-product"])
    def test_graph_above_the_edge_limit_exits_4(self, capsys, monkeypatch, argv):
        # about 5 * 10^7 edges each, above graphs.MAX_EDGES = 1,000,000, on
        # at most MAX_ORDER vertices: no edge list of that size is built
        def boom(*args, **kwargs):
            raise AssertionError("an edge list was built")

        monkeypatch.setattr(graphs.Graph, "edges", boom)
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "above the limit of %d" % graphs.MAX_EDGES in captured.err


class TestTopLevel:
    def test_no_arguments_is_an_input_error(self):
        assert run([]) == 4

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 4

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "genconn",
                               "kappa", "--family", "complete:4"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "kappa3 = 2" in proc.stdout
