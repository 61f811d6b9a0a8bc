"""README's examples run as written."""

import re
import shlex
from pathlib import Path

from choiforge.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def first_block(after: str, language: str) -> str:
    """The first ```language block after the heading line `after`."""
    return README.split(after, 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # in order: the second block reuses the first one's names
        exec(block, namespace)


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    (tmp_path / "experiment.json").write_text(first_block("\n### Experiment files\n", "json"))
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for line in first_block("\n## CLI\n", "sh").splitlines()
        if line.startswith("choiforge ")
    ]
    assert len(commands) == 8
    for argv in commands:  # in order: later commands read what earlier ones wrote
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
