"""The documented API: the README's library example runs as written, and
every name the package exports resolves."""

from __future__ import annotations

import re
from pathlib import Path

import genconn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_exported_name_resolves():
    for name in genconn.__all__:
        assert hasattr(genconn, name), name
