import json

import numpy as np
import pytest

from conftest import random_complex_matrix
from choiforge.channels import ChoiMatrix, KrausSet, StinespringModel, kraus_to_choi, zoo_channel
from choiforge.serialize import (
    FileFormatError,
    ZooSpec,
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
    MaxEntangled,
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

    def test_ragged_rows_rejected(self):
        with pytest.raises(FileFormatError, match="row 1"):
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


class TestExperimentFiles:
    def test_zoo_spec_with_exact_config(self):
        doc = {
            "channel": {"name": "depolarizing", "params": [0.3], "dims": [2, 2]},
            "config": {"shots": "exact", "seed": 7},
        }
        channel = parse_experiment_channel(doc["channel"])
        config = parse_experiment_config(doc)
        assert channel == ZooSpec("depolarizing", (0.3,), 2, 2)
        assert config.shots is EXACT
        assert config.seed == 7
        assert isinstance(config.input_kind, MaxEntangled)
        assert config.psd_projection is True

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

    def test_bad_shots_value_rejected(self):
        doc = {
            "channel": {"name": "identity", "params": [], "dims": [2, 2]},
            "config": {"shots": "many"},
        }
        with pytest.raises(FileFormatError, match="shots"):
            parse_experiment_config(doc)

    def test_negative_shots_is_config_error(self):
        doc = {
            "channel": {"name": "identity", "params": [], "dims": [2, 2]},
            "config": {"shots": -4},
        }
        with pytest.raises(ValueError, match="positive integer"):
            parse_experiment_config(doc)


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


class TestDocumentIo:
    def test_dump_load_inverse(self):
        doc = channel_to_doc(zoo_channel("depolarizing", [0.25]))
        assert load_document(dump_document(doc)) == doc

    def test_syntax_error_reports_location(self):
        with pytest.raises(FileFormatError, match="line 1 column"):
            load_document("{not json")

    def test_non_object_toplevel_rejected(self):
        with pytest.raises(FileFormatError, match="object"):
            load_document("[1, 2]")
