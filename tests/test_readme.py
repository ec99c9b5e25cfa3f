"""The README's examples: every ``# ->`` command line gives the output it
shows, and the library quickstart runs."""

from __future__ import annotations

import io
import re
import shlex
import sys
from pathlib import Path

from beslab.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _cli_examples() -> list[tuple[str, str]]:
    """(command line, output) for each README example with a ``# ->`` line,
    the output written after the command or on the line below it."""
    lines = README.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("# -> "):
            out.append((lines[i - 1], line[len("# -> "):]))
        elif line.startswith("beslab ") and "# -> " in line:
            command, shown = line.split("# -> ")
            out.append((command.strip(), shown))
    return out


def _pipeline(command: str, monkeypatch, capsys) -> str:
    """Run ``beslab ... | beslab ...`` through ``cli.run``, each stage
    reading the previous stage's output as stdin; the last stage's stdout."""
    text = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "beslab", command
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(argv[1:]) == 0, stage
        text = capsys.readouterr().out
    return text


def test_cli_examples(monkeypatch, capsys):
    examples = _cli_examples()
    assert len(examples) >= 3
    for command, shown in examples:
        assert _pipeline(command, monkeypatch, capsys).strip() == shown, command


def test_quickstart_runs():
    (block,) = re.findall(r"## Library quickstart\n\n```python\n(.*?)```", README, re.S)
    exec(compile(block, "README quickstart", "exec"), {})
