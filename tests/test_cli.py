"""Command-line behavior: exit codes, output files, determinism.

Everything runs in-process through cli.main so coverage tools and
debuggers see straight through; one subprocess smoke test covers the
module entry point.
"""

from __future__ import annotations

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

    def test_random_triples_are_seeded(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["construct", "--lex", "cycle:4", "complete:2",
                "--random-triples", "5", "--seed", "3"]
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_terminals_exit_4(self):
        base = ["construct", "--lex", "path:4", "path:3", "--terminals"]
        assert run(base + ["0:0 1:1"]) == 4          # only two
        assert run(base + ["0:0 0:0 1:1"]) == 4      # repeated
        assert run(base + ["0:0 1:1 9:9"]) == 4      # out of range

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
