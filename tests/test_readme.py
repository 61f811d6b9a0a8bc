"""README's examples run as written."""

import re
import shlex

from conftest import ROOT
from choiforge.cli import main
from choiforge.tomography import RECONSTRUCTION_VERSION, SAMPLER_VERSION

README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def test_one_statement_of_the_versions_and_trails():
    # "Result files" names this version's sampler and reconstruction
    # versions and its two trails; no other sentence states a version
    versions = re.findall(r"`(sampler|reconstruction)`\s+(?:still\s+)?(\d+)", README)
    assert versions == [("sampler", str(SAMPLER_VERSION)), ("reconstruction", str(RECONSTRUCTION_VERSION))]
    assert not re.search(r"(sampler|reconstruction) version is \d", README)
    sentence = re.search(
        r"This version writes `sampler` \d+ and `reconstruction` \d+;\s+`(\S+)` and `(\S+)` are its trails",
        README,
    )
    assert sentence
    assert sentence.groups() == ("DIGESTS.jsonl", "STUDY.jsonl")


def test_byte_identity_states_what_it_covers():
    # a d = 256 eigh differs with the BLAS thread count, and finite-shot
    # bytes with the OpenBLAS kernel, neither of which the package pins, so
    # every byte-identity promise names the build, the thread count and the
    # kernel it holds for
    text = " ".join(README.split())
    promises = re.findall(r"[^.]*byte-identical[^.]*\.", text)
    assert len(promises) == 2
    for promise in promises:
        assert "one numpy and BLAS build, one BLAS thread count and one BLAS kernel" in promise, promise
    assert "The package pins no threads" in text
