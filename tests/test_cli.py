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

from genconn.cli import main
from genconn.graphs import family, format_edge_list, lexicographic_product


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
        P = lexicographic_product(family("cycle", 5), family("complete", 3))
        f = tmp_path / "c5k3.txt"
        f.write_text(format_edge_list(P))
        assert run(["kappa", "--edges", str(f), "--budget", "100000"]) == 3
        assert "budget-limited" in capsys.readouterr().out

    def test_bad_inputs_exit_4(self, tmp_path):
        assert run(["kappa", "--family", "triangle:4"]) == 4
        assert run(["kappa", "--edges", str(tmp_path / "missing.txt")]) == 4
        assert run(["kappa", "--family", "path:5", "--k", "1"]) == 4


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
    ], ids=["P5oP3", "C5oP2", "C6oK2", "S4oP2", "K4oP2"])
    def test_all_triples_certificate_bytes_are_pinned(self, tmp_path, base, inner, digest):
        # a refactor of the constructions or the oracle keeps every tree,
        # tag and byte of these certificates
        out = tmp_path / "fam.json"
        assert run(["construct", "--lex", base, inner, "--all-triples",
                    "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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
                    "--terminals", "1:0 2:0 0:0", "--budget", "5"])
        assert code == 3
        out = capsys.readouterr().out
        assert "terminals 0:0 1:0 2:0: 2 trees (2 via oracle) (budget-limited)" in out
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

    def test_missing_file_exits_4(self, tmp_path):
        assert run(["verify", str(tmp_path / "nope.json")]) == 4

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
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["bounds", "--random-pairs", "3", "--max-order", "4",
                "--seed", "7"]
        assert run(base + ["--csv", str(a)]) == 0
        assert run(base + ["--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_pair_spec_exits_4(self):
        assert run(["bounds", "--pair", "path:4"]) == 4
        assert run(["bounds", "--pair", "blob:4,path:3"]) == 4


class TestFailFast:
    @pytest.mark.parametrize("argv", [
        ["construct", "--lex", "path:4", "path:3", "--terminals", "0 1 99"],
        ["bounds", "--random-pairs", "1", "--max-order", "2"],
        ["kappa", "--family", "path:4", "--k", "1"],
        ["construct", "--lex", "path:4", "path:3", "--random-triples", "0"],
        ["bounds", "--random-pairs", "0"],
        ["kappa", "--family", "path:4", "--budget", "inf"],
    ], ids=["flat-terminal-ids", "max-order-2", "k-1", "random-triples-0",
            "random-pairs-0", "budget-inf"])
    def test_bad_argument_exits_4_before_any_work(self, capsys, argv):
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


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
