import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_complex_matrix
from choiforge.channels import ChoiMatrix, KrausSet, StinespringModel, kraus_to_choi, zoo_channel
from choiforge.cli import main
from choiforge.serialize import (
    FileFormatError,
    channel_to_doc,
    doc_to_channel,
    doc_to_result_kraus,
    dump_document,
    load_document,
    matrix_to_payload,
    parse_experiment_channel,
    parse_experiment_config,
    payload_to_matrix,
    result_to_doc,
)
from choiforge.tomography import (
    EXACT,
    SAMPLER_VERSION,
    OpaqueChannel,
    SchmidtInput,
    TomographyConfig,
    run_tomography,
)


AWKWARD_VALUES = np.array(
    [
        [0.1 + 0.2j, -1e-300 + 1e300j],
        [7.0 + (1 + 2**-52) * 1j, -0.0 + 3.141592653589793j],
    ]
)


class TestMatrixPayload:
    def test_bit_exact_roundtrip(self):
        payload = matrix_to_payload(AWKWARD_VALUES)
        text = json.dumps(payload)
        recovered = payload_to_matrix(json.loads(text), "m")
        assert np.array_equal(recovered, AWKWARD_VALUES)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            m = random_complex_matrix(3, 4, rng) * rng.choice([1e-9, 1.0, 1e9])
            recovered = payload_to_matrix(
                json.loads(json.dumps(matrix_to_payload(m))), "m"
            )
            assert np.array_equal(recovered, m)

    @pytest.mark.parametrize(
        "m",
        [
            AWKWARD_VALUES,
            np.array([[5e-324, -2.2250738585072014e-308j], [1e16 - 1e-5j, -1e-5 + 1e16j]]),
            np.array([[-0.0, 0.0], [-0.0j, complex(-0.0, -0.0)]]),
            AWKWARD_VALUES.T,
            np.arange(24, dtype=complex).reshape(4, 6)[1::2, ::-3] * (1 - 0.1j),
            np.array([[0.1, -0.0, 1e-5], [1e16, -5e-324, 2.5]]),
            np.array([[1, -2], [3, 0]], dtype=np.int64),
            np.eye(3, dtype=np.int32),
        ],
        ids=["awkward", "subnormal-and-scale", "signed-zeros", "transposed", "sliced", "real", "int64", "int32"],
    )
    def test_payload_matches_per_entry_floats(self, m):
        reference = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]
        payload = matrix_to_payload(m)
        # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
        assert repr(payload) == repr(reference)
        assert all(type(x) is float for row in payload for pair in row for x in pair)
        # decoding matches the per-entry complex() reference bit for bit
        entries = np.array([[complex(re, im) for re, im in row] for row in reference])
        assert payload_to_matrix(payload, "m").tobytes() == entries.tobytes()

    def test_ragged_rows_rejected(self):
        with pytest.raises(FileFormatError, match="^m must hold real numbers, got nested lists of unequal"):
            payload_to_matrix([[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "m")

    def test_non_pair_entries_rejected(self):
        with pytest.raises(FileFormatError, match=r"\[re, im\]"):
            payload_to_matrix([[[1.0, 2.0, 3.0]]], "m")

    def test_non_finite_rejected(self):
        with pytest.raises(FileFormatError, match="non-finite"):
            payload_to_matrix([[[float("nan"), 0.0]]], "m")


class TestChannelFiles:
    def test_kraus_roundtrip_bit_exact(self):
        k = zoo_channel("amplitude_damping", [0.37])
        doc = json.loads(json.dumps(channel_to_doc(k)))
        recovered = doc_to_channel(doc)
        assert isinstance(recovered, KrausSet)
        assert (recovered.input_dim, recovered.output_dim) == (2, 2)
        assert len(recovered.operators) == len(k.operators)
        for a, b in zip(recovered.operators, k.operators):
            assert np.array_equal(a, b)

    def test_choi_roundtrip_bit_exact(self):
        j = kraus_to_choi(zoo_channel("depolarizing", [0.3]))
        recovered = doc_to_channel(json.loads(json.dumps(channel_to_doc(j))))
        assert isinstance(recovered, ChoiMatrix)
        assert np.array_equal(recovered.matrix, j.matrix)

    def test_stinespring_roundtrip_bit_exact(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        model = StinespringModel(2, 2, 2, 2, cnot, np.diag([1, 0]).astype(complex), np.eye(2))
        recovered = doc_to_channel(json.loads(json.dumps(channel_to_doc(model))))
        assert isinstance(recovered, StinespringModel)
        assert np.array_equal(recovered.unitary, model.unitary)
        assert np.array_equal(recovered.ancilla_state, model.ancilla_state)
        assert np.array_equal(recovered.projector, model.projector)

    @pytest.mark.parametrize(
        "entry, accepted",
        [
            (2**70, True),
            (10**400, False),
            (True, False),
            ("0.5", False),
            (None, False),
            (float("nan"), False),
            ("ragged", False),
        ],
        ids=["2^70", "1e400", "true", "str", "null", "nan", "ragged-row"],
    )
    def test_api_and_files_give_one_verdict(self, tmp_path, entry, accepted):
        if entry == "ragged":
            operator, payload = [[1, 0], [0]], [[[1, 0], [0, 0]], [[0, 0]]]
        else:
            operator, payload = [[entry, 0], [0, 1]], [[[entry, 0], [0, 0]], [[0, 0], [1, 0]]]
        try:
            KrausSet(2, 2, (operator,))
            api_accepts = True
        except ValueError:
            api_accepts = False
        text = json.dumps(
            {"format_version": 1, "representation": "kraus", "dims": [2, 2], "payload": {"operators": [payload]}}
        )
        try:
            doc_to_channel(load_document(text))
            file_accepts = True
        except FileFormatError:
            file_accepts = False
        assert api_accepts == file_accepts == accepted
        path = tmp_path / "kraus.json"
        path.write_text(text, encoding="utf-8")
        assert (main(["check", str(path)]) == 2) != accepted

    def test_numpy_integer_dims_write_readable_files(self):
        # the constructors store dims as ints, so every file they write reads back
        n = np.int64(2)
        channels = [
            KrausSet(n, np.int32(2), (np.eye(2),)),
            ChoiMatrix(n, n, np.eye(4)),
            StinespringModel(n, n, n, n, np.eye(4), np.diag([1.0, 0.0]), np.eye(2)),
        ]
        for channel in channels:
            doc = load_document(dump_document(channel_to_doc(channel)))
            assert doc["dims"] == [2, 2]
            assert type(doc_to_channel(doc)) is type(channel)

    def test_unknown_representation_rejected(self):
        doc = channel_to_doc(zoo_channel("identity"))
        doc["representation"] = "ptm"
        with pytest.raises(FileFormatError, match="unknown representation"):
            doc_to_channel(doc)

    def test_missing_field_named(self):
        doc = channel_to_doc(zoo_channel("identity"))
        del doc["dims"]
        with pytest.raises(FileFormatError, match="dims"):
            doc_to_channel(doc)

    def test_wrong_version_rejected(self):
        doc = channel_to_doc(zoo_channel("identity"))
        doc["format_version"] = 99
        with pytest.raises(FileFormatError, match="format_version"):
            doc_to_channel(doc)

    def test_inconsistent_payload_shape_rejected(self):
        doc = channel_to_doc(zoo_channel("identity"))
        doc["dims"] = [2, 3]
        with pytest.raises(ValueError, match="shape"):
            doc_to_channel(doc)

    def test_payload_must_be_an_object(self):
        doc = channel_to_doc(zoo_channel("identity"))
        doc["payload"] = [1]
        with pytest.raises(FileFormatError, match="^payload: expected an object$"):
            doc_to_channel(doc)

    def test_only_channel_objects_serialize(self):
        with pytest.raises(TypeError, match="^cannot serialize ndarray as a channel$"):
            channel_to_doc(np.eye(2))


def assert_same_kraus(actual, expected):
    assert isinstance(actual, KrausSet)
    assert (actual.input_dim, actual.output_dim) == (expected.input_dim, expected.output_dim)
    assert [op.tobytes() for op in actual.operators] == [op.tobytes() for op in expected.operators]


class TestExperimentFiles:
    def test_zoo_spec_with_exact_config(self):
        doc = {
            "channel": {"name": "depolarizing", "params": [0.3], "dims": [2, 2]},
            "config": {"shots": "exact", "seed": 7},
        }
        channel = parse_experiment_channel(doc["channel"])
        config = parse_experiment_config(doc)
        assert_same_kraus(channel, zoo_channel("depolarizing", [0.3]))
        assert config.shots is EXACT
        assert config.seed == 7
        assert config.input_kind is None

    def test_embedded_channel_with_finite_shots(self):
        doc = {
            "channel": channel_to_doc(zoo_channel("amplitude_damping", [0.5])),
            "config": {"shots": 1000, "seed": 1, "kraus_threshold": 0.05},
        }
        channel = parse_experiment_channel(doc["channel"])
        config = parse_experiment_config(doc)
        assert isinstance(channel, KrausSet)
        assert config.shots == 1000
        assert config.kraus_threshold == 0.05

    def test_schmidt_input_kind(self):
        eye = matrix_to_payload(np.eye(2))
        doc = {
            "channel": {"name": "identity", "params": [], "dims": [2, 2]},
            "config": {
                "shots": "exact",
                "seed": 0,
                "input_kind": {
                    "kind": "schmidt",
                    "alphas": [0.8, 0.6],
                    "left_unitary": eye,
                    "right_unitary": eye,
                },
            },
        }
        config = parse_experiment_config(doc)
        assert isinstance(config.input_kind, SchmidtInput)
        assert np.allclose(config.input_kind.alphas, [0.8, 0.6])

    def test_max_entangled_token_is_default_input(self):
        doc = {"config": {"shots": "exact", "input_kind": "max_entangled"}}
        assert parse_experiment_config(doc).input_kind is None

    @pytest.mark.parametrize("key", ["shot", "psd_projection"])
    def test_unknown_config_key_rejected(self, key):
        doc = {"config": {key: 100 if key == "shot" else True}}
        with pytest.raises(FileFormatError, match=f"unknown field '{key}'"):
            parse_experiment_config(doc)

    def test_non_finite_threshold_is_config_error(self):
        # json reads the NaN literal; the run invariant, not the parser, rejects it
        doc = load_document('{"config": {"kraus_threshold": NaN}}')
        with pytest.raises(ValueError, match="kraus_threshold") as excinfo:
            parse_experiment_config(doc)
        assert not isinstance(excinfo.value, FileFormatError)

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Experiment files", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        doc = load_document(example)
        channel = parse_experiment_channel(doc["channel"])
        assert_same_kraus(channel, zoo_channel("depolarizing", [0.3]))
        config = parse_experiment_config(doc)
        assert (config.shots, config.seed, config.input_kind) == (100000, 7, None)

    def test_bad_shots_value_rejected(self):
        doc = {
            "channel": {"name": "identity", "params": [], "dims": [2, 2]},
            "config": {"shots": "many"},
        }
        with pytest.raises(FileFormatError, match="shots"):
            parse_experiment_config(doc)

    @pytest.mark.parametrize(
        "parse, doc, message",
        [
            (
                parse_experiment_channel,
                {"name": "depolarizing", "params": [[0.3]], "dims": [2, 2]},
                "channel zoo spec: params must be a list of numbers",
            ),
            (
                parse_experiment_channel,
                {"name": 3, "params": [], "dims": [2, 2]},
                "channel zoo spec: name must be a string",
            ),
            (
                parse_experiment_config,
                {"config": {"input_kind": "bell"}},
                "config.input_kind: expected 'max_entangled' or a schmidt object",
            ),
            (parse_experiment_config, {"config": [1]}, "experiment.config: expected an object"),
            (parse_experiment_config, {"config": {"seed": 1.5}}, "config.seed: expected an integer"),
        ],
        ids=["zoo-nested-params", "zoo-name-int", "input-kind-bell", "config-list", "seed-float"],
    )
    def test_malformed_experiment_rejected(self, parse, doc, message):
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            parse(doc)

    def test_negative_shots_is_config_error(self):
        doc = {
            "channel": {"name": "identity", "params": [], "dims": [2, 2]},
            "config": {"shots": -4},
        }
        with pytest.raises(ValueError, match="positive integer"):
            parse_experiment_config(doc)


SPECTRUM_CHANNELS = (("identity", []), ("unitary", [21]), ("random_cptp", [21, 2]), ("depolarizing", [0.3]))


class TestResultFiles:
    def run_result(self):
        truth = zoo_channel("amplitude_damping", [0.3])
        config = TomographyConfig(shots=5000, seed=3)
        return run_tomography(OpaqueChannel.from_kraus(truth), config), config

    def test_roundtrip_preserves_choi(self):
        result, config = self.run_result()
        doc = load_document(dump_document(result_to_doc(result, config)))
        assert doc["sampler"] == SAMPLER_VERSION
        kraus = doc_to_result_kraus(doc)
        assert np.array_equal(kraus_to_choi(kraus).matrix, result.estimated_choi.matrix)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("dims", [True, 2], "dims"),
            ("dims", [2], "dims"),
            ("format_version", 99, "format_version"),
            ("format_version", True, "format_version"),
            ("kraus", [], "kraus"),
        ],
    )
    def test_malformed_field_rejected(self, field, value, message):
        result, config = self.run_result()
        doc = result_to_doc(result, config)
        doc[field] = value
        with pytest.raises(FileFormatError, match=message):
            doc_to_result_kraus(doc)

    def test_missing_kraus_named(self):
        result, config = self.run_result()
        doc = result_to_doc(result, config)
        del doc["kraus"]
        with pytest.raises(FileFormatError, match="kraus"):
            doc_to_result_kraus(doc)

    @pytest.mark.parametrize(
        "name,params,n1,shots",
        [
            pytest.param(name, params, n1, shots, id=f"{name}-{n1}-{shots or 'exact'}")
            for name, params in SPECTRUM_CHANNELS
            for n1, shots in [(2, EXACT), (2, 10**4), (3, EXACT), (3, 10**4), (8, EXACT), (8, 10**4), (16, EXACT)]
        ],
    )
    def test_choi_eigenvalues_are_the_kraus_weights(self, name, params, n1, shots):
        config = TomographyConfig(shots=shots, seed=1)
        result = run_tomography(OpaqueChannel.from_kraus(zoo_channel(name, params, n1)), config)
        eigenvalues = np.array(result_to_doc(result, config)["choi_eigenvalues"])
        reference = np.linalg.eigvalsh(result.estimated_choi.matrix)[::-1]
        assert eigenvalues.shape == (n1 * n1,)
        assert np.all(np.diff(eigenvalues) <= 0)
        assert np.abs(eigenvalues - reference).max() <= 1e-14 * max(1.0, reference[0])
        # past the Kraus count J's eigenvalues are exact zeros, not eigvalsh's noise
        assert all(v == 0.0 for v in eigenvalues[len(result.kraus.operators) :])


def stinespring_model():
    cnot = np.eye(4)[[0, 1, 3, 2]]
    return StinespringModel(2, 2, 2, 2, cnot, np.diag([1.0, 0.0]), np.eye(2))


def fixed_seed_result_doc():
    config = TomographyConfig(shots=5000, seed=3)
    result = run_tomography(OpaqueChannel.from_kraus(zoo_channel("amplitude_damping", [0.3])), config)
    return result_to_doc(result, config)


class TestDocumentIo:
    def test_dump_load_inverse(self):
        doc = channel_to_doc(zoo_channel("depolarizing", [0.25]))
        assert load_document(dump_document(doc)) == doc

    @pytest.mark.parametrize(
        "build",
        [
            lambda: channel_to_doc(zoo_channel("depolarizing", [0.25])),
            lambda: channel_to_doc(stinespring_model()),
            fixed_seed_result_doc,
        ],
        ids=["channel", "stinespring", "result"],
    )
    def test_one_line_per_field_parses_as_indented_json(self, build):
        doc = build()
        text = dump_document(doc)
        assert text == dump_document(build())
        assert text.endswith("}\n")
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        assert len(lines) == len(doc) + 2
        for key, line in zip(doc, lines[1:-1]):
            assert line.startswith(f'  "{key}": ')
        assert json.loads(text) == json.loads(json.dumps(doc, indent=2))

    def test_syntax_error_reports_location(self):
        with pytest.raises(FileFormatError, match="line 1 column"):
            load_document("{not json")

    def test_non_object_toplevel_rejected(self):
        with pytest.raises(FileFormatError, match="object"):
            load_document("[1, 2]")

    def test_integer_past_the_digit_limit_rejected(self):
        # json calls int() on the literal, which raises a bare ValueError
        # past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        with pytest.raises(FileFormatError) as excinfo:
            load_document('{"matrix": [[[1' + "0" * limit + ', 0.0]]]}')
        assert str(excinfo.value) == (
            f"invalid JSON: an integer literal longer than Python's limit of {limit} digits"
        )
        assert load_document('{"x": 1' + "0" * (limit - 1) + "}")["x"] == 10 ** (limit - 1)

    def test_nesting_too_deep_for_json_rejected(self):
        # json's parser recurses once per level and raises RecursionError
        deep = '{"payload": ' + "[" * 5000 + "]" * 5000 + "}"
        with pytest.raises(FileFormatError, match="nested too deeply"):
            load_document(deep)
