#!/usr/bin/env python3
"""Digest every CLI command of a fixed corpus, to compare two checkouts byte for byte.

Builds a corpus of input files in a temporary work directory, runs each
command through ``choiforge.cli.main`` in-process with that directory as the
working directory, and prints one JSON line per command: the argv, the exit
code (or the exception type, if the command raised), the sha256 of stdout
and of stderr, and ``document``, the sha256 of stdout parsed and re-dumped
with sorted keys (null when stdout is empty). A change that moves only the
layout of the JSON on stdout changes ``stdout`` but keeps ``document``.
Every path in the corpus is relative, so the digests do not depend on where
the work directory is.

The corpus covers the channel zoo (written by the corpus's own ``zoo``
commands), a Stinespring model, a non-CP Choi matrix, a trace-increasing
Kraus set, fixed-seed finite-shot and exact experiments, and hand-written
faulty documents, across all six subcommands and argparse usage errors.
The faulty documents include number cases (an entry beyond float range, a
``2**70`` entry, a ``true`` entry, a ragged row, an ``[re, im, x]`` triple, a
NaN, a bool zoo parameter) and a repeated config key.

Run it against any checkout's package and diff the outputs:

    PYTHONPATH=src python scripts/cli_digests.py > after.jsonl
    PYTHONPATH=../parent/src python scripts/cli_digests.py > before.jsonl
    diff before.jsonl after.jsonl
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from choiforge.cli import main

ZOO = {
    "identity": ["--dims", "2"],
    "identity3": ["--name", "identity", "--dims", "3"],
    "unitary": ["--params", "7"],
    "depolarizing": ["--params", "0.3"],
    "depolarizing3": ["--name", "depolarizing", "--params", "0.5", "--dims", "3"],
    "amplitude_damping": ["--params", "0.25"],
    "phase_damping": ["--params", "0.5"],
    "project_discard": [],
    "random_cptp": ["--params", "3", "2", "--dims", "2", "3"],
}


def payload(m) -> list:
    """A matrix as the file format's row-major [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def channel_doc(representation: str, dims: list, body: dict) -> dict:
    return {"format_version": 1, "representation": representation, "dims": dims, "payload": body}


def kraus_file(operator: list) -> dict:
    """A 2 -> 2 Kraus file holding one operator payload, written out literally."""
    return channel_doc("kraus", [2, 2], {"operators": [operator]})


def experiment(channel, **config) -> dict:
    return {"channel": channel, "config": {"shots": "exact", "seed": 0, **config}}


def zoo_spec(name: str, params=(), dims=(2, 2)) -> dict:
    return {"name": name, "params": list(params), "dims": list(dims)}


def schmidt(alphas) -> dict:
    eye = payload(np.eye(len(alphas)))
    return {"kind": "schmidt", "alphas": alphas, "left_unitary": eye, "right_unitary": eye}


def write_inputs() -> None:
    """Hand-written channel, experiment and faulty documents in the working directory."""
    cnot = np.eye(4)[[0, 1, 3, 2]]
    stine = channel_doc(
        "stinespring",
        [2, 2],
        {
            "ancilla_dim": 2,
            "trace_dim": 2,
            "unitary": payload(cnot),
            "ancilla_state": payload(np.diag([1.0, 0.0])),
            "projector": payload(np.eye(2)),
        },
    )
    noncp = channel_doc("choi", [2, 2], {"matrix": payload(np.diag([1.0, 1.0, 1.0, -0.1]))})
    amplified = channel_doc("kraus", [2, 2], {"operators": [payload(np.sqrt(1.5) * np.eye(2))]})
    identity = channel_doc("kraus", [2, 2], {"operators": [payload(np.eye(2))]})
    nan_entry = channel_doc("choi", [2, 2], {"matrix": payload(np.eye(4))})
    nan_entry["payload"]["matrix"][0][0][0] = float("nan")
    big_entry = channel_doc("choi", [2, 2], {"matrix": payload(np.eye(4))})
    big_entry["payload"]["matrix"][0][0][0] = 10**400
    docs = {
        "stine.json": stine,
        "noncp.json": noncp,
        "amplified.json": amplified,
        "bad_version.json": {**identity, "format_version": 99},
        "bad_dims.json": {**identity, "dims": [True, 2]},
        "dims_mismatch.json": {**identity, "dims": [2, 3]},
        "bad_repr.json": {**identity, "representation": "ptm"},
        "no_payload.json": {key: identity[key] for key in ("format_version", "representation", "dims")},
        "nan_entry.json": nan_entry,
        "big_entry.json": big_entry,
        "kraus_2e70.json": kraus_file([[[2**70, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        "kraus_true.json": kraus_file([[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        "kraus_ragged.json": kraus_file([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]),
        "kraus_triple.json": kraus_file([[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        "kraus_nan.json": kraus_file([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, float("nan")]]]),
        "stine_bool.json": {**stine, "payload": {**stine["payload"], "ancilla_dim": True}},
        "stine_nonunitary.json": {**stine, "payload": {**stine["payload"], "unitary": payload(2 * cnot)}},
        "neither.json": {"format_version": 1, "dims": [2, 2]},
        "e_identity.json": experiment(zoo_spec("identity")),
        "e_depolarizing.json": experiment(zoo_spec("depolarizing", [0.3])),
        "e_depolarizing_finite.json": experiment(zoo_spec("depolarizing", [0.3]), shots=2000, seed=42),
        "e_depolarizing3_finite.json": experiment(zoo_spec("depolarizing", [0.2], (3, 3)), shots=10**4, seed=7),
        "e_random_finite.json": experiment(zoo_spec("random_cptp", [3, 2], (2, 3)), shots=10**5, seed=1),
        "e_amplitude.json": experiment(zoo_spec("amplitude_damping", [0.5])),
        "e_project.json": experiment(zoo_spec("project_discard"), shots=1000, seed=3),
        "e_schmidt.json": experiment(zoo_spec("phase_damping", [0.4]), input_kind=schmidt([0.8, 0.6])),
        "e_schmidt_finite.json": experiment(
            zoo_spec("amplitude_damping", [0.3]), shots=5000, seed=9, input_kind=schmidt([0.8, 0.6])
        ),
        "e_threshold.json": experiment(zoo_spec("depolarizing", [0.3]), shots=1000, kraus_threshold=0.05),
        "e_stine.json": experiment(stine),
        "e_stine_finite.json": experiment(stine, shots=3000, seed=5),
        "e_choi.json": experiment(
            channel_doc("choi", [2, 2], {"matrix": payload(np.diag([2.0, 0.0, 0.0, 0.0]))})
        ),
        "e_noncp.json": experiment(noncp),
        "e_noncp_bad_config.json": experiment(noncp, shots=-4),
        "e_bad_zoo_bad_config.json": experiment(zoo_spec("random_cptp", [3, 1.5]), shots=-4),
        "e_negative_shots.json": experiment(zoo_spec("identity"), shots=-4),
        "e_huge_shots.json": experiment(zoo_spec("identity"), shots=2**53 + 1),
        "e_bool_shots.json": experiment(zoo_spec("identity"), shots=True),
        "e_bool_param.json": experiment(zoo_spec("depolarizing", [True])),
        "e_not_max_schmidt.json": experiment(zoo_spec("identity"), input_kind=schmidt([1.0, 0.0])),
        "e_conditioning.json": experiment(zoo_spec("identity"), input_kind=schmidt([1.0, 1e-7])),
        "e_schmidt_no_bases.json": experiment(zoo_spec("identity"), input_kind={"kind": "schmidt", "alphas": [0.8, 0.6]}),
        "e_unknown_key.json": experiment(zoo_spec("identity"), psd_projection=False),
        "e_nan_threshold.json": experiment(zoo_spec("identity"), kraus_threshold=float("nan")),
        "e_big_threshold.json": experiment(zoo_spec("identity"), kraus_threshold=10**400),
        "e_unknown_zoo.json": experiment(zoo_spec("teleporter")),
        "e_bad_param.json": experiment(zoo_spec("depolarizing", [1.5])),
        "e_missing_channel.json": {"config": {"shots": "exact"}},
        "e_missing_config.json": {"channel": zoo_spec("identity")},
        "e_bad_channel.json": experiment({**identity, "dims": [2, 3]}),
    }
    for name, doc in docs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    with open("bad_json.json", "w", encoding="utf-8") as fh:
        fh.write("{this is not json")
    with open("top_list.json", "w", encoding="utf-8") as fh:
        fh.write("[1, 2]")
    with open("e_repeated_key.json", "w", encoding="utf-8") as fh:
        fh.write('{"channel": {"name": "identity", "params": [], "dims": [2, 2]}, "config": '
                 '{"shots": 0, "seed": 7, "shots": "exact"}}')  # json alone keeps the last "shots"


def corpus() -> list[list[str]]:
    """Every argv, in order: the ``zoo`` and ``tomograph --output`` commands
    write the files that later commands read."""
    argvs = []
    for name, extra in ZOO.items():
        flags = extra if "--name" in extra else ["--name", name, *extra]
        argvs.append(["zoo", *flags, "--output", f"k_{name}.json"])
    argvs += [
        ["zoo", "--name", "teleporter"],
        ["zoo", "--name", "depolarizing", "--params", "1.5"],
        ["zoo", "--name", "unitary", "--params", "2.7"],
        ["zoo", "--name", "random_cptp", "--params", "3", "2"],
        ["zoo", "--name", "identity", "--dims", "2", "2", "7"],
        ["zoo", "--name", "amplitude_damping", "--params", "0.5", "--dims", "3"],
        ["zoo", "--name", "identity", "--output", "missing/x.json"],
        ["resources", "--dims", "2", "2"],
        ["resources", "--dims", "2", "3"],
        ["resources", "--dims", "4", "4"],
        ["resources", "--dims", "1", "2"],
    ]
    for name in ZOO:
        argvs.append(["convert", f"k_{name}.json", "--to", "choi", "--output", f"c_{name}.json"])
        argvs.append(["convert", f"c_{name}.json", "--to", "kraus"])
        argvs.append(["check", f"k_{name}.json"])
        argvs.append(["check", f"c_{name}.json"])
    inputs = sorted(path for path in os.listdir(".") if not path.startswith(("e_", "k_", "c_")))
    for path in [*inputs, "absent.json"]:
        argvs.append(["check", path])
        argvs.append(["convert", path, "--to", "kraus"])
    argvs += [
        ["convert", "stine.json", "--to", "choi"],
        ["check", "amplified.json", "--output", "missing/x.json"],
    ]
    experiments = sorted(path for path in os.listdir(".") if path.startswith("e_"))
    for path in experiments:
        argvs.append(["tomograph", path, "--output", f"r_{path[2:]}"])
    argvs += [
        ["tomograph", "e_depolarizing_finite.json", "--seed", "43"],
        ["tomograph", "e_stine_finite.json", "--output", "missing/x.json"],
        ["compare", "r_identity.json", "k_identity.json"],
        ["compare", "r_depolarizing.json", "k_depolarizing.json"],
        ["compare", "r_depolarizing_finite.json", "k_depolarizing.json"],
        ["compare", "r_depolarizing_finite.json", "k_depolarizing.json", "--tol", "0.1"],
        ["compare", "r_amplitude.json", "c_amplitude_damping.json", "--output", "cmp.json"],
        ["compare", "r_stine.json", "stine.json"],
        ["compare", "k_project_discard.json", "k_project_discard.json"],
        ["compare", "amplified.json", "k_identity.json"],
        ["compare", "k_depolarizing.json", "c_depolarizing.json", "--tol", "0"],
        ["compare", "k_identity.json", "k_identity3.json"],
        ["compare", "k_identity.json", "neither.json"],
        ["compare", "k_identity.json", "big_entry.json"],
        ["compare", "k_identity.json", "k_identity.json", "--tol", "nan"],
        ["compare", "k_identity.json", "k_identity.json", "--tol", "inf"],
        ["compare", "k_identity.json", "k_identity.json", "--tol", "-1"],
        ["compare", "k_identity.json", "k_identity.json", "--tol", "abc"],
        [],
        ["tomograph"],
        ["convert", "k_identity.json"],
        ["check", "k_identity.json", "--seed", "7"],
        ["zoo", "--name", "identity", "--format", "json"],
    ]
    return argvs


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback, recorded by its type
            code = type(exc).__name__
    stdout = out.getvalue()
    return {
        "argv": argv,
        "exit": code,
        "stdout": sha256(stdout),
        "stderr": sha256(err.getvalue()),
        "document": sha256(json.dumps(json.loads(stdout), sort_keys=True)) if stdout else None,
    }


def main_digests() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            write_inputs()
            lines = [json.dumps(run(argv)) for argv in corpus()]
        finally:
            os.chdir(cwd)
    print("\n".join(lines))


if __name__ == "__main__":
    main_digests()
