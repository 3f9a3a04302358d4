"""The documented API: the README's library example runs as written, its
command-line transcript prints what it shows, and every name the package
exports resolves."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import genconn
from genconn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


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
