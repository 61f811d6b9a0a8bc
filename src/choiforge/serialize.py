"""JSON file formats for channels, tomography experiments and tomography results.

Complex entries are stored as [re, im] pairs in row-major nested arrays.
Floats go through Python's shortest round-trip repr, so
parse(serialize(x)) == x bit-exactly for every finite value. A document is
written one top-level field per line, each value as compact one-line JSON,
so ``json`` encodes it in C and ``head``/``grep`` still read the header
fields.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import ChoiMatrix, KrausSet, StinespringModel, zoo_channel
from .linalg import is_int, is_real
from .tomography import (
    EXACT,
    SAMPLER_VERSION,
    SchmidtInput,
    TomographyConfig,
    TomographyResult,
)

FORMAT_VERSION = 1

ChannelObject = KrausSet | ChoiMatrix | StinespringModel


class FileFormatError(ValueError):
    """Input document is structurally invalid; the message names the field."""


def matrix_to_payload(m: np.ndarray) -> list[list[list[float]]]:
    """Encode a complex matrix as row-major nested [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def payload_to_matrix(payload: Any, field: str) -> np.ndarray:
    """Decode and validate a nested [re, im] matrix payload."""
    if not isinstance(payload, list) or not payload:
        raise FileFormatError(f"{field}: expected a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(payload):
        if not isinstance(row, list) or not row:
            raise FileFormatError(f"{field}: row {r} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FileFormatError(
                f"{field}: row {r} has {len(row)} entries, expected {width}"
            )
        entries = []
        for c, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise FileFormatError(
                    f"{field}: entry ({r}, {c}) is not a [re, im] number pair"
                )
            try:
                entries.append(complex(pair[0], pair[1]))
            except OverflowError:
                raise FileFormatError(
                    f"{field}: entry ({r}, {c}) is an integer beyond float range"
                ) from None
        rows.append(entries)
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise FileFormatError(f"{field}: contains non-finite values")
    return m


def channel_to_doc(channel: ChannelObject) -> dict:
    """Serialize a channel object to a channel-file document."""
    if isinstance(channel, KrausSet):
        payload = {"operators": [matrix_to_payload(op) for op in channel.operators]}
        dims, representation = [channel.input_dim, channel.output_dim], "kraus"
    elif isinstance(channel, ChoiMatrix):
        payload = {"matrix": matrix_to_payload(channel.matrix)}
        dims, representation = [channel.input_dim, channel.output_dim], "choi"
    elif isinstance(channel, StinespringModel):
        payload = {
            "ancilla_dim": channel.ancilla_dim,
            "trace_dim": channel.trace_dim,
            "unitary": matrix_to_payload(channel.unitary),
            "ancilla_state": matrix_to_payload(channel.ancilla_state),
            "projector": matrix_to_payload(channel.projector),
        }
        dims, representation = [channel.system_dim, channel.output_dim], "stinespring"
    else:
        raise TypeError(f"cannot serialize {type(channel).__name__} as a channel")
    return {
        "format_version": FORMAT_VERSION,
        "dims": dims,
        "representation": representation,
        "payload": payload,
    }


def _require(doc: dict, key: str, context: str) -> Any:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{context}: expected an object")
    if key not in doc:
        raise FileFormatError(f"{context}: missing field '{key}'")
    return doc[key]


def _floats(values: Any, message: str) -> list[float]:
    """A list of JSON numbers as floats, or FileFormatError(message) for a
    non-list, a bool, a non-number or an integer beyond float range."""
    if not isinstance(values, list) or not all(is_real(v) for v in values):
        raise FileFormatError(message)
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise FileFormatError(f"{message} (an integer is beyond float range)") from None


def _parse_dims(doc: dict, context: str) -> tuple[int, int]:
    dims = _require(doc, "dims", context)
    if not isinstance(dims, list) or len(dims) != 2 or not all(
        is_int(d) and d >= 1 for d in dims
    ):
        raise FileFormatError(f"{context}: dims must be two positive integers")
    return dims[0], dims[1]


def _check_version(doc: dict, context: str) -> None:
    version = _require(doc, "format_version", context)
    if not is_int(version) or version != FORMAT_VERSION:
        raise FileFormatError(f"{context}: unsupported format_version {version!r}")


def doc_to_channel(doc: dict) -> ChannelObject:
    """Parse a channel-file document into a channel object.

    Structural faults raise FileFormatError; payload values that violate the
    representation's own invariants (non-Hermitian Choi, non-unitary
    interaction, bad shapes) surface as ValueError from the constructors.
    """
    _check_version(doc, "channel file")
    n1, n2 = _parse_dims(doc, "channel file")
    representation = _require(doc, "representation", "channel file")
    payload = _require(doc, "payload", "channel file")

    if representation == "kraus":
        ops = _require(payload, "operators", "payload")
        if not isinstance(ops, list) or not ops:
            raise FileFormatError("payload.operators: expected a non-empty list")
        matrices = [
            payload_to_matrix(op, f"payload.operators[{k}]") for k, op in enumerate(ops)
        ]
        return KrausSet(n1, n2, tuple(matrices))
    if representation == "choi":
        return ChoiMatrix(n1, n2, payload_to_matrix(_require(payload, "matrix", "payload"), "payload.matrix"))
    if representation == "stinespring":
        ancilla_dim = _require(payload, "ancilla_dim", "payload")
        trace_dim = _require(payload, "trace_dim", "payload")
        if not all(is_int(d) and d >= 1 for d in (ancilla_dim, trace_dim)):
            raise FileFormatError("payload: ancilla_dim and trace_dim must be positive integers")
        return StinespringModel(
            system_dim=n1,
            ancilla_dim=ancilla_dim,
            output_dim=n2,
            trace_dim=trace_dim,
            unitary=payload_to_matrix(_require(payload, "unitary", "payload"), "payload.unitary"),
            ancilla_state=payload_to_matrix(
                _require(payload, "ancilla_state", "payload"), "payload.ancilla_state"
            ),
            projector=payload_to_matrix(
                _require(payload, "projector", "payload"), "payload.projector"
            ),
        )
    raise FileFormatError(
        f"channel file: unknown representation {representation!r} "
        "(expected kraus, choi, or stinespring)"
    )


def parse_experiment_channel(doc: dict) -> ChannelObject:
    """Parse the channel part of an experiment: an embedded channel file, or a
    zoo spec ``{"name", "params", "dims"}`` built into its KrausSet by
    ``zoo_channel``, with params read as floats. Structural faults raise
    FileFormatError; a name or parameter ``zoo_channel`` rejects, ValueError.
    """
    if isinstance(doc, dict) and "representation" in doc:
        return doc_to_channel(doc)
    if isinstance(doc, dict) and "name" in doc:
        name = doc["name"]
        if not isinstance(name, str):
            raise FileFormatError("channel zoo spec: name must be a string")
        params = _floats(
            doc.get("params", []), "channel zoo spec: params must be a list of numbers"
        )
        n1, n2 = _parse_dims(doc, "channel zoo spec")
        return zoo_channel(name, params, n1, n2)
    raise FileFormatError(
        "experiment.channel: expected an embedded channel file or a zoo spec"
    )


def _parse_input_kind(value: Any) -> SchmidtInput | None:
    if value == "max_entangled":
        return None
    if isinstance(value, dict) and value.get("kind") == "schmidt":
        alphas = _floats(
            _require(value, "alphas", "config.input_kind"),
            "config.input_kind.alphas: expected a list of numbers",
        )
        return SchmidtInput(
            alphas=np.asarray(alphas, dtype=float),
            left_unitary=payload_to_matrix(
                _require(value, "left_unitary", "config.input_kind"),
                "config.input_kind.left_unitary",
            ),
            right_unitary=payload_to_matrix(
                _require(value, "right_unitary", "config.input_kind"),
                "config.input_kind.right_unitary",
            ),
        )
    raise FileFormatError(
        "config.input_kind: expected 'max_entangled' or a schmidt object"
    )


_CONFIG_KEYS = ("shots", "seed", "input_kind", "kraus_threshold")


def parse_experiment_config(doc: dict) -> TomographyConfig:
    """Parse the config part of an experiment document.

    Structural problems, an unknown key among them, raise FileFormatError;
    configuration values that violate run invariants raise ValueError from
    TomographyConfig itself.
    """
    config_doc = _require(doc, "config", "experiment")
    if not isinstance(config_doc, dict):
        raise FileFormatError("experiment.config: expected an object")
    unknown = [key for key in config_doc if key not in _CONFIG_KEYS]
    if unknown:
        raise FileFormatError(
            f"config: unknown field {unknown[0]!r} (expected {', '.join(_CONFIG_KEYS)})"
        )

    shots = config_doc.get("shots", "exact")
    if shots == "exact":
        shots = EXACT
    elif not is_int(shots):
        raise FileFormatError("config.shots: expected a positive integer or 'exact'")

    seed = config_doc.get("seed", 0)
    if not is_int(seed):
        raise FileFormatError("config.seed: expected an integer")

    threshold = config_doc.get("kraus_threshold")
    if threshold is not None:
        threshold = _floats([threshold], "config.kraus_threshold: expected a number or null")[0]

    return TomographyConfig(
        shots=shots,
        seed=seed,
        input_kind=_parse_input_kind(config_doc.get("input_kind", "max_entangled")),
        kraus_threshold=threshold,
    )


def result_to_doc(result: TomographyResult, config: TomographyConfig) -> dict:
    """Serialize a tomography run to a result-file document."""
    choi = result.estimated_choi
    eigenvalues = np.linalg.eigvalsh(choi.matrix)[::-1]
    return {
        "format_version": FORMAT_VERSION,
        "dims": [choi.input_dim, choi.output_dim],
        "estimated_choi": matrix_to_payload(choi.matrix),
        "choi_eigenvalues": [float(v) for v in eigenvalues],
        "kraus": [matrix_to_payload(op) for op in result.kraus.operators],
        "negativity_removed": result.negativity_removed,
        "success_trace": result.success_trace,
        "shots_used": result.shots_used,
        "shots": "exact" if config.shots is EXACT else config.shots,
        "seed": config.seed,
        "sampler": SAMPLER_VERSION,
    }


def doc_to_result_kraus(doc: dict) -> KrausSet:
    """Parse a result-file document into its reconstructed Kraus set.

    The other fields are diagnostics of the run and are not read back.
    """
    _check_version(doc, "result file")
    n1, n2 = _parse_dims(doc, "result file")
    ops = _require(doc, "kraus", "result file")
    if not isinstance(ops, list) or not ops:
        raise FileFormatError("result file: kraus must be a non-empty list")
    matrices = [payload_to_matrix(op, f"kraus[{k}]") for k, op in enumerate(ops)]
    return KrausSet(n1, n2, tuple(matrices))


def dump_document(doc: dict) -> str:
    """Canonical JSON text: ``{``, one ``  "key": value`` line per top-level
    field with the value in compact one-line JSON, ``}`` and a trailing newline.

    No indentation inside a value keeps ``json`` on its C encoder; the parsed
    object is the same as for any other layout.
    """
    fields = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    return "{\n" + ",\n".join(fields) + "\n}\n"


def load_document(text: str) -> dict:
    """Parse JSON text, mapping syntax errors to FileFormatError with location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise FileFormatError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise FileFormatError("top-level JSON value must be an object")
    return doc
