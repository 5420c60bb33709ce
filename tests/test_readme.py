"""The README's Library example and command-line transcripts run as shown,
and the package's top level exports exactly what that example imports."""

import ast
import re
from pathlib import Path

import pytest

import hurwitz
from hurwitz.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _library_block() -> str:
    section = README[README.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def _transcript(command: str) -> str:
    """The lines the README shows after `$ hurwitz <command>`, up to a
    blank line or the end of the block."""
    lines = README[README.index(f"$ hurwitz {command}\n"):].splitlines()[1:]
    out = []
    for line in lines:
        if not line or line.startswith("```"):
            break
        out.append(line)
    return "\n".join(out) + "\n"


def test_the_library_example_prints_its_comments(capsys):
    exec(compile(_library_block(), "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["80", "40"]


@pytest.mark.parametrize("command", [
    "compute --alpha 2,1 --genus 1",
    "table --genus 2 --m 1",
])
def test_a_readme_transcript_is_what_the_command_prints(command, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == _transcript(command)


def test_the_top_level_exports_the_library_example_imports():
    imports = [node for node in ast.parse(_library_block()).body
               if isinstance(node, ast.ImportFrom) and node.module == "hurwitz"]
    assert [alias.name for node in imports for alias in node.names] == hurwitz.__all__
