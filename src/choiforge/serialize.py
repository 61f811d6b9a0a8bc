"""JSON file formats for channels, tomography experiments and tomography results.

Complex entries are stored as [re, im] pairs in row-major nested arrays, and
every number read back is judged by ``linalg._as_numeric``, the API's number
rule. Floats go through Python's shortest round-trip repr, so
parse(serialize(x)) == x bit-exactly for every finite value. A document is
written one top-level field per line, each value as compact one-line JSON, so
``json`` encodes it in C and ``head``/``grep`` still read the header fields.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .channels import ChoiMatrix, KrausSet, StinespringModel, zoo_channel
from .linalg import _as_numeric, is_int
from .tomography import (
    EXACT,
    RECONSTRUCTION_VERSION,
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
    """Decode a finite rows x cols array of [re, im] pairs, its numbers judged by
    ``linalg._as_numeric``, into a complex matrix that keeps every bit, -0.0
    included. Any fault raises FileFormatError naming `field`."""
    try:
        pairs = _as_numeric(payload, field, float)
    except ValueError as err:
        raise FileFormatError(str(err)) from None
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise FileFormatError(f"{field}: expected rows of [re, im] pairs, got shape {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise FileFormatError(f"{field}: contains non-finite values")
    return pairs.view(complex)[..., 0]


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


def _matrix_field(doc: dict, key: str, context: str) -> np.ndarray:
    """The matrix payload at doc[key], named ``context.key`` in any error."""
    return payload_to_matrix(_require(doc, key, context), f"{context}.{key}")


def _kraus_set(n1: int, n2: int, ops: Any, field: str) -> KrausSet:
    """A non-empty list of operator payloads as a KrausSet; operator k is field[k]."""
    if not isinstance(ops, list) or not ops:
        raise FileFormatError(f"{field}: expected a non-empty list")
    matrices = [payload_to_matrix(op, f"{field}[{k}]") for k, op in enumerate(ops)]
    return KrausSet(n1, n2, tuple(matrices))


def _floats(values: Any, message: str) -> list[float]:
    """A JSON list of numbers as floats, judged by ``linalg._as_numeric``;
    anything else raises FileFormatError(message)."""
    try:
        vector = _as_numeric(values, message, float)
    except ValueError:
        raise FileFormatError(message) from None
    if vector.ndim != 1:
        raise FileFormatError(message)
    return vector.tolist()


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
        return _kraus_set(n1, n2, _require(payload, "operators", "payload"), "payload.operators")
    if representation == "choi":
        return ChoiMatrix(n1, n2, _matrix_field(payload, "matrix", "payload"))
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
            unitary=_matrix_field(payload, "unitary", "payload"),
            ancilla_state=_matrix_field(payload, "ancilla_state", "payload"),
            projector=_matrix_field(payload, "projector", "payload"),
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
        return SchmidtInput(
            alphas=_floats(
                _require(value, "alphas", "config.input_kind"),
                "config.input_kind.alphas: expected a list of numbers",
            ),
            left_unitary=_matrix_field(value, "left_unitary", "config.input_kind"),
            right_unitary=_matrix_field(value, "right_unitary", "config.input_kind"),
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
    """Serialize a ``run_tomography`` result to a result-file document.

    Its Kraus set is trace-orthogonal, each vec(A_k) a unit eigenvector or a
    column of the low-rank factor's orthonormal U, scaled, then times the
    unitary V^dagger. So J's spectrum, ``choi_eigenvalues``, is read off it
    with no decomposition: the weights ||A_k||_F^2, descending, then zeros.
    """
    choi = result.estimated_choi
    weights = sorted((np.vdot(op, op).real.item() for op in result.kraus.operators), reverse=True)
    return {
        "format_version": FORMAT_VERSION,
        "dims": [choi.input_dim, choi.output_dim],
        "estimated_choi": matrix_to_payload(choi.matrix),
        "choi_eigenvalues": weights + [0.0] * (len(choi.matrix) - len(weights)),
        "kraus": [matrix_to_payload(op) for op in result.kraus.operators],
        "negativity_removed": result.negativity_removed,
        "success_trace": result.success_trace,
        "shots_used": result.shots_used,
        "shots": "exact" if config.shots is EXACT else config.shots,
        "seed": config.seed,
        "sampler": SAMPLER_VERSION,
        "reconstruction": RECONSTRUCTION_VERSION,
    }


def doc_to_result_kraus(doc: dict) -> KrausSet:
    """Parse a result-file document into its reconstructed Kraus set.

    The other fields are diagnostics of the run and are not read back.
    """
    _check_version(doc, "result file")
    n1, n2 = _parse_dims(doc, "result file")
    return _kraus_set(n1, n2, _require(doc, "kraus", "result file"), "kraus")


def dump_document(doc: dict) -> str:
    """Canonical JSON text: ``{``, one ``  "key": value`` line per top-level
    field with the value in compact one-line JSON, ``}`` and a trailing newline.

    No indentation inside a value keeps ``json`` on its C encoder; the parsed
    object is the same as for any other layout.
    """
    fields = (f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items())
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = next(key for k, (key, _) in enumerate(pairs) if key in dict(pairs[:k]))
        raise FileFormatError(f"repeated key {repeated!r} in a JSON object")
    return doc


def load_document(text: str) -> dict:
    """Parse JSON text, mapping syntax errors, nesting too deep for ``json``'s
    recursive parser, an integer literal longer than Python's digit limit,
    and a key repeated in any object (``json`` would keep its last value), to
    FileFormatError."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise FileFormatError(
            f"invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except FileFormatError:
        raise  # a repeated key, from _unique_keys
    except RecursionError:
        raise FileFormatError("invalid JSON: nested too deeply to parse") from None
    except ValueError:  # int() of a literal past sys.get_int_max_str_digits()
        raise FileFormatError(
            "invalid JSON: an integer literal longer than Python's limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(doc, dict):
        raise FileFormatError("top-level JSON value must be an object")
    return doc
