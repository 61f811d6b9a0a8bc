"""The example scripts run to completion against the package in src/."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ROOT
from choiforge.channels import ZOO_CHANNEL_NAMES

STUDY, DIGESTS = ROOT / "STUDY.jsonl", ROOT / "DIGESTS.jsonl"


def _run(script, *argv):
    """Run scripts/`script` against the package in src/ and return the finished process."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )


def test_every_script_is_run():
    # a script no test runs can go stale unnoticed
    run_here = set(re.findall(r'_run\(\s*"([\w.]+)"', Path(__file__).read_text()))
    assert run_here == {path.name for path in (ROOT / "scripts").glob("*.py")}


@pytest.mark.parametrize(
    "argv",
    [
        ["study.py", "--n1", "2"],
        ["cli_digests.py"],
        ["stage_timings.py", "--n1", "2", "2", "--repeats", "1", "--output"],
        ["study.py", "--n1", "5"],
    ],
)
def test_script_exits_0(argv, tmp_path):
    # each script runs to the end with a small input and leaves output behind
    output = tmp_path / "out.json"
    if argv[-1] == "--output":
        argv = [*argv, str(output)]
    result = _run(*argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout or output.read_text()
    if output.exists():
        # a dimension named twice is timed once: one row per grid point
        (table,) = json.loads(output.read_text())["tables"].values()
        keys = [(row["channel"], row["n1"], row["shots"]) for row in table["rows"]]
        assert len(keys) == len(set(keys)) == 6


def test_study_runs_any_n1_from_2_ascending_once():
    # outside the default grid too; the n1 = 2 rows are the committed ones
    result = _run("study.py", "--n1", "5", "2", "5")
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in result.stdout.splitlines()]
    assert [row["n1"] for row in rows] == [2] * 81 + [5] * 54
    committed = [
        line for line in STUDY.read_text().splitlines() if json.loads(line)["n1"] == 2
    ]
    assert result.stdout.splitlines()[:81] == committed
    refused = _run("study.py", "--n1", "1")
    assert refused.returncode == 2
    assert "every --n1 must be at least 2" in refused.stderr


def test_study_is_byte_identical_and_exact_uniform_rows_recover():
    runs = [_run("study.py", "--n1", "2", "3") for _ in range(2)]
    for result in runs:
        assert result.returncode == 0, result.stderr
    assert runs[0].stdout == runs[1].stdout
    # the committed study trail is this version's: a change that moves
    # accuracy overwrites STUDY.jsonl
    committed = [
        line for line in STUDY.read_text().splitlines() if json.loads(line)["n1"] in (2, 3)
    ]
    assert runs[0].stdout.splitlines() == committed
    rows = [json.loads(line) for line in runs[0].stdout.splitlines()]
    cells = [(r["channel"], r["n1"], r["n2"], r["input"], r["shots"]) for r in rows]
    assert len(set(cells)) == len(cells) == 135
    assert {r["n1"] for r in rows} == {2, 3}
    assert {r["input"] for r in rows} == {"uniform", "ramp", "skewed"}
    assert {r["shots"] for r in rows} == {"exact", 10**4, 10**6}
    assert {r["channel"].split("(")[0] for r in rows} == set(ZOO_CHANNEL_NAMES)
    assert (2, 3) in {(r["n1"], r["n2"]) for r in rows}
    for row in rows:
        assert row["runs"] == (1 if row["shots"] == "exact" else 8) == len(row["rank"])
        for stat in ("trace_excess", "frobenius", "operator", "negativity_removed"):
            low, median, high = row[stat]
            assert low <= median <= high
    exact = [r for r in rows if r["shots"] == "exact" and r["input"] == "uniform"]
    assert len(exact) == 15
    for row in exact:
        assert row["rank"] == [row["true_rank"]], row["channel"]
        assert row["frobenius"][2] < 1e-12, row["channel"]


def test_committed_study_holds_the_readme_accuracy_sentences():
    # read, not rerun: every exact row of the committed study holds
    # the README sentence named beside its check; a row that fails is a
    # defect in the code, not in the grid
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    rows = [json.loads(line) for line in STUDY.read_text().splitlines()]
    exact = [row for row in rows if row["shots"] == "exact"]
    inputs = [row["input"] for row in exact]
    assert {label: inputs.count(label) for label in set(inputs)} == {
        "uniform": 33, "ramp": 33, "skewed": 33
    }
    claims = {
        "Every exact run of the study keeps the true Kraus rank.": (
            exact, lambda row: row["rank"] == [row["true_rank"]]
        ),
        "Exact uniform and ramp runs have a Frobenius error `||J_est - J||_F` below 1e-12": (
            [row for row in exact if row["input"] != "skewed"], lambda row: row["frobenius"][2] < 1e-12
        ),
        "and exact skewed runs below 1e-8.": (
            [row for row in exact if row["input"] == "skewed"], lambda row: row["frobenius"][2] < 1e-8
        ),
    }
    for sentence, (held, holds) in claims.items():
        assert sentence in readme
        failing = [(row["channel"], row["n1"], row["input"]) for row in held if not holds(row)]
        assert not failing, (sentence, failing)


def test_stage_timings_writes_a_labelled_table(tmp_path):
    output = tmp_path / "bench.json"
    for label in ("before", "after"):
        result = _run(
            "stage_timings.py", "--n1", "2", "--repeats", "3", "--label", label, "--output", str(output)
        )
        assert result.returncode == 0, result.stderr
    tables = json.loads(output.read_text())["tables"]
    assert set(tables) == {"before", "after"}
    # each number is written once: no probe table, no count beside the list
    assert all("probe" not in table for table in tables.values())
    fields = {
        "channel", "n1", "d", "shots", "python_calls_per_run", "decompositions",
        "minor_faults_per_run", "best_ms", "quartiles_ms",
    }
    assert all(set(row) == fields for table in tables.values() for row in table["rows"])
    assert all("channel" not in table for table in tables.values())
    # the call count of a run repeats exactly, at every grid point
    counts = [[row["python_calls_per_run"] for row in table["rows"]] for table in tables.values()]
    assert counts[0] == counts[1]
    assert all(type(count) is int and count > 0 for count in counts[0])
    rows = {(row["channel"], row["shots"]): row for row in tables["after"]["rows"]}
    channels = {"depolarizing(0.3)", "random_cptp(21, 2)", "unitary(21)"}
    assert set(rows) == {(channel, shots) for channel in channels for shots in ("exact", 10**4)}
    for channel in channels:
        # at d = 4 every rank is within the pivot cap: an exact run keeps the
        # low-rank factor and its one thin SVD, a finite-shot run its eigh
        assert rows[channel, "exact"]["decompositions"] == ["svd"]
        assert "simulate_state_tomography" not in rows[channel, "exact"]["best_ms"]
        assert rows[channel, 10**4]["decompositions"] == ["cholesky", "eigh"]
        assert rows[channel, 10**4]["best_ms"]["simulate_state_tomography > cholesky"] > 0
        # the evaluator output is judged once, a stage of its own: by
        # reconstruct_from_schmidt in an exact run, by the sampler otherwise
        exact_paths = set(rows[channel, "exact"]["best_ms"])
        assert "reconstruct_from_schmidt > check_hermitian" in exact_paths
        assert "simulate_state_tomography > check_hermitian" in rows[channel, 10**4]["best_ms"]
        assert not any(path.endswith("check_hermitian") for path in exact_paths - {
            "reconstruct_from_schmidt > check_hermitian"
        })
    for row in rows.values():
        # the page faults of the timed runs, per run: a count, never negative
        assert type(row["minor_faults_per_run"]) is float and row["minor_faults_per_run"] >= 0
        # a run ends at its Kraus set: J is built only by the document step
        assert row["best_ms"]["kraus_to_choi"] > 0
        assert row["best_ms"]["result_to_doc"] > 0
        assert row["best_ms"]["dump_document"] > 0
        assert row["best_ms"]["payload_to_matrix"] > 0
        assert row["best_ms"]["load_document"] > 0
        assert row["best_ms"]["process_fidelity"] > 0
        assert set(row["quartiles_ms"]) == set(row["best_ms"])
        for path, (q1, median, q3) in row["quartiles_ms"].items():
            assert row["best_ms"][path] <= q1 <= median <= q3
    # every row times the fixed 64 x 64 product and the fixed interpreter-bound
    # work that show a slow process
    assert all(
        row["best_ms"][control] > 0
        for table in tables.values()
        for row in table["rows"]
        for control in ("control", "control_interpreter")
    )
    # a second invocation adds its grid points to the table and replaces
    # the ones it times again; other settings are refused
    for n1 in ("3", "2"):
        result = _run(
            "stage_timings.py", "--n1", n1, "--repeats", "3", "--label", "after", "--output", str(output)
        )
        assert result.returncode == 0, result.stderr
    merged = json.loads(output.read_text())["tables"]
    assert merged["before"] == tables["before"]
    assert [(row["n1"], row["channel"], row["shots"]) for row in merged["after"]["rows"]] == [
        (n1, row["channel"], row["shots"]) for n1 in (2, 3) for row in tables["after"]["rows"]
    ]
    # from n1 = 3 depolarizing's rank 9 is past the pivot cap, and its Choi
    # estimate is real up to float noise: the factor gives up before its SVD,
    # and one eigh of a real array decides, named as such
    (depolarizing,) = [
        row for row in merged["after"]["rows"]
        if (row["channel"], row["n1"], row["shots"]) == ("depolarizing(0.3)", 3, "exact")
    ]
    assert depolarizing["decompositions"] == ["eigh_real"]
    assert "reconstruct_from_schmidt > _schmidt_kraus > eigh_real" in depolarizing["best_ms"]
    result = _run(
        "stage_timings.py", "--n1", "2", "--repeats", "2", "--label", "after", "--output", str(output)
    )
    assert result.returncode != 0
    assert "timed with other settings" in result.stderr
    assert json.loads(output.read_text())["tables"] == merged


def test_cli_digests_cover_every_exit_code():
    runs = [_run("cli_digests.py") for _ in range(2)]
    for result in runs:
        assert result.returncode == 0, result.stderr
    # each run builds its corpus in a fresh temporary directory: same digests
    assert runs[0].stdout == runs[1].stdout
    # the committed digest trail is this version's: a change that moves CLI
    # bytes overwrites DIGESTS.jsonl, and its git diff is the claim
    assert runs[0].stdout == DIGESTS.read_text()
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert len(lines) >= 90
    assert {line["exit"] for line in lines} == {0, 2, 3, 4, 5}
    fields = {"argv", "exit", "stdout", "stderr", "document", "strict_json"}
    assert all(set(line) == fields for line in lines)
    empty = hashlib.sha256(b"").hexdigest()
    assert all((line["document"] is None) == (line["stdout"] == empty) for line in lines)
    assert all((line["strict_json"] is None) == (line["stdout"] == empty) for line in lines)
    # no command writes NaN or Infinity, which are not JSON (RFC 8259)
    assert all(line["strict_json"] is not False for line in lines)
    overflow = [line for line in lines if any("overflow_" in arg for arg in line["argv"])]
    assert {" ".join(line["argv"][:2]) for line in overflow if line["exit"] == 2} == {
        "check overflow_choi.json",
        "check overflow_choi_neg.json",
        "check overflow_choi_near_max.json",
        "convert overflow_choi_near_max.json",
        "check overflow_kraus.json",
        "compare overflow_choi.json",
        "compare overflow_kraus.json",
    }
    # each zoo rule broken once, from the command line and from an experiment's zoo spec
    exits = {" ".join(line["argv"]): line["exit"] for line in lines}
    for argv in (
        "zoo --name depolarizing",
        "zoo --name random_cptp --params 3",
        "zoo --name identity --params 1",
        "zoo --name depolarizing --params 0.3 --dims 2 3",
        "zoo --name phase_damping --params 0.5 --dims 3",
        "tomograph e_unitary_no_params.json --output r_unitary_no_params.json",
    ):
        assert exits[argv] == 2, argv
    # an integer literal past Python's digit limit is a file fault
    assert exits["check long_int.json"] == exits["convert long_int.json --to kraus"] == 2
    unwritable = [line for line in lines if "missing/x.json" in line["argv"]]
    assert unwritable and all(line["exit"] == 2 for line in unwritable)
