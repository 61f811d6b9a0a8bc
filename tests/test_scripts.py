"""The example scripts run to completion against the package in src/."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["exact_recovery_demo.py"],
        ["exact_recovery_demo.py", "--schmidt-seed", "5"],
        ["shot_noise_study.py", "--seeds", "2"],
    ],
)
def test_script_exits_0(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_stage_timings_writes_a_labelled_table(tmp_path):
    output = tmp_path / "bench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for label in ("before", "after"):
        argv = ["--n1", "2", "--repeats", "1", "--label", label, "--output", str(output)]
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "stage_timings.py"), *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
    tables = json.loads(output.read_text())["tables"]
    assert set(tables) == {"before", "after"}
    # the call count of a run repeats exactly, at every grid point and in the probe
    counts = [
        [row["python_calls_per_run"] for row in table["rows"] + table["probe"]["rows"]]
        for table in tables.values()
    ]
    assert counts[0] == counts[1]
    assert all(type(count) is int and count > 0 for count in counts[0])
    rows = {row["shots"]: row for row in tables["after"]["rows"]}
    assert set(rows) == {"exact", 10**4}
    assert rows["exact"]["decompositions"] == ["eigh"]
    assert rows["exact"]["fidelity"] > 1 - 1e-12
    assert rows[10**4]["fidelity"] is None  # a finite-shot estimate is not trace preserving
    assert "simulate_state_tomography" not in rows["exact"]["best_ms"]
    assert rows[10**4]["decompositions"] == ["cholesky", "eigh"]
    assert rows[10**4]["best_ms"]["simulate_state_tomography > cholesky"] > 0
    for row in rows.values():
        assert row["best_ms"]["result_to_doc"] > 0
        assert row["best_ms"]["dump_document"] > 0
        assert row["best_ms"]["payload_to_matrix"] > 0
        assert row["best_ms"]["load_document"] > 0
        assert row["best_ms"]["process_fidelity"] > 0


def test_cli_digests_cover_every_exit_code():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "cli_digests.py")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        for _ in range(2)
    ]
    for result in runs:
        assert result.returncode == 0, result.stderr
    # each run builds its corpus in a fresh temporary directory: same digests
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert len(lines) >= 90
    assert {line["exit"] for line in lines} == {0, 2, 3, 4, 5}
    assert all(set(line) == {"argv", "exit", "stdout", "stderr", "document"} for line in lines)
    empty = hashlib.sha256(b"").hexdigest()
    assert all((line["document"] is None) == (line["stdout"] == empty) for line in lines)
    unwritable = [line for line in lines if "missing/x.json" in line["argv"]]
    assert unwritable and all(line["exit"] == 2 for line in unwritable)
