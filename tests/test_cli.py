import json
from pathlib import Path

import numpy as np
import pytest

from conftest import eigh_only
from choiforge.channels import ChoiMatrix, KrausSet, kraus_to_choi, random_cptp, zoo_channel
from choiforge.cli import main
from choiforge.linalg import EXACT_TOL, _MAX_DIMS
from choiforge.serialize import channel_to_doc, dump_document, parse_experiment_config
from choiforge.tomography import SAMPLER_VERSION, OpaqueChannel, run_tomography

I2 = np.eye(2, dtype=complex)


def write_doc(path: Path, doc: dict) -> str:
    path.write_text(dump_document(doc), encoding="utf-8")
    return str(path)


def write_channel(path: Path, channel) -> str:
    return write_doc(path, channel_to_doc(channel))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def experiment_doc(channel_doc, shots="exact", seed=0, **config):
    return {"channel": channel_doc, "config": {"shots": shots, "seed": seed, **config}}


class TestConvert:
    def test_identity_kraus_to_choi_entries(self, tmp_path, capsys):
        src = write_channel(tmp_path / "id.json", KrausSet(2, 2, (I2,)))
        code, out, _ = run(capsys, ["convert", src, "--to", "choi"])
        assert code == 0
        doc = json.loads(out)
        assert doc["representation"] == "choi"
        m = doc["payload"]["matrix"]
        for a, b in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert m[a][b] == [1.0, 0.0]
        assert m[1][1] == [0.0, 0.0]

    def test_amplitude_damping_choi_to_kraus_has_two_operators(self, tmp_path, capsys):
        j = kraus_to_choi(zoo_channel("amplitude_damping", [0.5]))
        src = write_channel(tmp_path / "ad.json", j)
        code, out, _ = run(capsys, ["convert", src, "--to", "kraus"])
        assert code == 0
        assert len(json.loads(out)["payload"]["operators"]) == 2

    def test_roundtrip_preserves_choi_payload(self, tmp_path, capsys):
        src = write_channel(tmp_path / "in.json", zoo_channel("amplitude_damping", [0.3]))
        choi1 = str(tmp_path / "c1.json")
        kraus = str(tmp_path / "k.json")
        choi2 = str(tmp_path / "c2.json")
        assert main(["convert", src, "--to", "choi", "--output", choi1]) == 0
        assert main(["convert", choi1, "--to", "kraus", "--output", kraus]) == 0
        assert main(["convert", kraus, "--to", "choi", "--output", choi2]) == 0
        capsys.readouterr()

        def matrix_of(path):
            payload = json.loads(Path(path).read_text())["payload"]["matrix"]
            return np.array([[complex(re, im) for re, im in row] for row in payload])

        assert np.linalg.norm(matrix_of(choi1) - matrix_of(choi2)) < 1e-8

    def test_kraus_file_to_kraus_is_the_same_document(self, tmp_path, capsys):
        # a Kraus set is not decomposed again: its operators come back as written
        channel = zoo_channel("amplitude_damping", [0.3])
        src = write_channel(tmp_path / "ad.json", channel)
        code, out, _ = run(capsys, ["convert", src, "--to", "kraus"])
        assert code == 0
        assert json.loads(out) == channel_to_doc(channel)

    def test_stinespring_converts_to_kraus(self, tmp_path, capsys):
        from choiforge.channels import StinespringModel

        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        model = StinespringModel(2, 2, 2, 2, cnot, np.diag([1, 0]).astype(complex), np.eye(2))
        src = write_channel(tmp_path / "st.json", model)
        code, out, _ = run(capsys, ["convert", src, "--to", "kraus"])
        assert code == 0
        assert json.loads(out)["representation"] == "kraus"

    def test_malformed_json_exits_2_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json", encoding="utf-8")
        code, _, err = run(capsys, ["convert", str(bad), "--to", "choi"])
        assert code == 2
        assert err.strip()
        diagnostic = json.loads(err)
        assert "line" in diagnostic["error"]

    def test_non_cp_choi_exits_3_with_eigenvalue(self, tmp_path, capsys):
        j = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex))
        src = write_channel(tmp_path / "bad_choi.json", j)
        code, _, err = run(capsys, ["convert", src, "--to", "kraus"])
        assert code == 3
        diagnostic = json.loads(err)
        assert diagnostic["min_choi_eigenvalue"] == pytest.approx(-0.1)

    def test_non_cp_real_choi_exits_3_on_the_real_route(self, tmp_path, capsys, real_eigh_attempts):
        # rank 12 is past the pivot cap, and J is real: one real eigh finds
        # lambda_min = -0.1 less its margin, and the map is not CP; compare
        # extracts no Kraus set, and reports the fidelity as undefined
        g = np.random.default_rng(2).standard_normal((16, 12))
        j = g @ g.T - 0.1 * np.eye(16)
        src = write_channel(tmp_path / "bad_choi.json", ChoiMatrix(4, 4, j.astype(complex)))
        least = np.linalg.eigvalsh(j)[0]
        for argv in (["convert", src, "--to", "kraus"], ["tomograph", write_doc(
            tmp_path / "exp.json", experiment_doc(json.loads(Path(src).read_text()))
        )]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (3, "")
            assert least - EXACT_TOL < json.loads(err)["min_choi_eigenvalue"] <= least
        assert real_eigh_attempts == [True, True]
        code, out, _ = run(capsys, ["compare", src, src])
        assert code == 0 and json.loads(out)["process_fidelity"] is None

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, ["convert", str(tmp_path / "nope.json"), "--to", "choi"])
        assert code == 2
        assert json.loads(err)["error"]


class TestCheck:
    def test_depolarizing_passes(self, tmp_path, capsys):
        src = write_channel(tmp_path / "dep.json", zoo_channel("depolarizing", [0.5]))
        code, out, _ = run(capsys, ["check", src])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["is_cp"] is True
        assert verdict["is_trace_preserving"] is True

    def test_amplified_identity_fails_check(self, tmp_path, capsys):
        src = write_channel(tmp_path / "amp.json", KrausSet(2, 2, (np.sqrt(1.5) * I2,)))
        code, out, _ = run(capsys, ["check", src])
        assert code == 4
        assert json.loads(out)["is_trace_nonincreasing"] is False

    def test_non_cp_choi_fails_check_with_eigenvalue(self, tmp_path, capsys):
        j = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex))
        src = write_channel(tmp_path / "ncp.json", j)
        code, out, _ = run(capsys, ["check", src])
        assert code == 4
        verdict = json.loads(out)
        assert verdict["is_cp"] is False
        assert verdict["min_choi_eigenvalue"] == pytest.approx(-0.1)

    def test_trace_decreasing_but_cp_passes(self, tmp_path, capsys):
        src = write_channel(tmp_path / "proj.json", zoo_channel("project_discard"))
        code, out, _ = run(capsys, ["check", src])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["is_trace_preserving"] is False
        assert verdict["is_trace_nonincreasing"] is True

    def test_failing_check_emits_stderr_diagnostic(self, tmp_path, capsys):
        src = write_channel(tmp_path / "amp.json", KrausSet(2, 2, (np.sqrt(1.5) * I2,)))
        code, _, err = run(capsys, ["check", src])
        assert code == 4
        assert "check failed" in json.loads(err)["error"]

    def test_deeply_nested_payload_exits_2(self, tmp_path, capsys):
        # written as raw text: json.dumps would recurse as deeply as json.loads
        src = tmp_path / "deep.json"
        operators = "[" * 5000 + "]" * 5000
        src.write_text(
            '{"format_version": 1, "representation": "kraus", "dims": [2, 2], '
            f'"payload": {{"operators": {operators}}}}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["check", str(src)])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "invalid JSON: nested too deeply to parse", "exit_code": 2}

    def test_payload_nested_past_numpy_dimensions_exits_2(self, tmp_path, capsys):
        # deep enough to pass numpy's 64-dimension limit, shallow enough to parse
        src = tmp_path / "deep.json"
        operators = "[" * 900 + "0.0" + "]" * 900
        src.write_text(
            '{"format_version": 1, "representation": "kraus", "dims": [2, 2], '
            f'"payload": {{"operators": {operators}}}}}',
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["check", str(src)])
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": f"payload.operators[0] must hold real numbers, got lists nested more than {_MAX_DIMS} deep",
            "exit_code": 2,
        }

    @pytest.mark.parametrize("key", ["ancilla_dim", "trace_dim"])
    def test_stinespring_bool_dims_exit_2(self, tmp_path, capsys, key):
        from choiforge.channels import StinespringModel

        model = StinespringModel(2, 1, 2, 1, I2, np.eye(1), np.eye(1))
        doc = channel_to_doc(model)
        doc["payload"][key] = True
        src = write_doc(tmp_path / "st.json", doc)
        code, out, err = run(capsys, ["check", src])
        assert code == 2
        assert out == ""
        assert "positive integers" in json.loads(err)["error"]

    def test_stinespring_file_checks_as_trace_preserving(self, tmp_path, capsys):
        from choiforge.channels import StinespringModel

        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        model = StinespringModel(2, 2, 2, 2, cnot, np.diag([1, 0]).astype(complex), np.eye(2))
        src = write_channel(tmp_path / "st.json", model)
        code, out, _ = run(capsys, ["check", src])
        assert code == 0
        assert json.loads(out)["is_trace_preserving"] is True


class TestTomograph:
    def test_identity_exact(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "identity", "params": [], "dims": [2, 2]}),
        )
        code, out, _ = run(capsys, ["tomograph", exp])
        assert code == 0
        result = json.loads(out)
        assert len(result["kraus"]) == 1
        op = np.array([[complex(re, im) for re, im in row] for row in result["kraus"][0]])
        phase = op[0, 0] / abs(op[0, 0])
        assert np.linalg.norm(op / phase - I2) < 1e-9

    def test_depolarizing_choi_eigenvalues_in_diagnostics(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "depolarizing", "params": [0.3], "dims": [2, 2]}),
        )
        code, out, _ = run(capsys, ["tomograph", exp])
        assert code == 0
        eigs = json.loads(out)["choi_eigenvalues"]
        assert np.allclose(eigs, [1.55, 0.15, 0.15, 0.15], atol=1e-9)

    def test_fixed_seed_runs_are_byte_identical(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc(
                {"name": "depolarizing", "params": [0.3], "dims": [2, 2]},
                shots=2000,
                seed=42,
            ),
        )
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["tomograph", exp, "--output", str(out1)]) == 0
        assert main(["tomograph", exp, "--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["sampler"] == SAMPLER_VERSION

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc(
                {"name": "depolarizing", "params": [0.3], "dims": [2, 2]},
                shots=2000,
                seed=42,
            ),
        )
        code, out, _ = run(capsys, ["tomograph", exp, "--seed", "43"])
        assert code == 0
        result = json.loads(out)
        assert result["seed"] == 43

    def test_input_dim_one_exits_5(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "identity", "params": [], "dims": [1, 1]}),
        )
        code, out, err = run(capsys, ["tomograph", exp])
        assert code == 5
        assert out == ""
        message = json.loads(err)["error"]
        assert "input_dim" in message and "at least two" in message

    def test_invalid_schmidt_exits_5(self, tmp_path, capsys):
        from choiforge.serialize import matrix_to_payload

        eye = matrix_to_payload(np.eye(2))
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc(
                {"name": "identity", "params": [], "dims": [2, 2]},
                input_kind={
                    "kind": "schmidt",
                    "alphas": [1.0, 0.0],
                    "left_unitary": eye,
                    "right_unitary": eye,
                },
            ),
        )
        code, _, err = run(capsys, ["tomograph", exp])
        assert code == 5
        assert "maximum Schmidt number" in json.loads(err)["error"]

    def test_bad_channel_payload_in_experiment_exits_2(self, tmp_path, capsys):
        doc = channel_to_doc(zoo_channel("identity"))
        doc["dims"] = [2, 3]  # payload no longer matches dims
        exp = write_doc(tmp_path / "exp.json", experiment_doc(doc))
        code, _, err = run(capsys, ["tomograph", exp])
        assert code == 2
        assert json.loads(err)["error"]

    def test_missing_channel_exits_2(self, tmp_path, capsys):
        exp = write_doc(tmp_path / "exp.json", {"config": {"shots": "exact"}})
        code, _, err = run(capsys, ["tomograph", exp])
        assert code == 2
        assert "channel" in json.loads(err)["error"]

    def test_negative_shots_exits_5(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "identity", "params": [], "dims": [2, 2]}, shots=-4),
        )
        code, _, err = run(capsys, ["tomograph", exp])
        assert code == 5
        assert "positive integer" in json.loads(err)["error"]

    def test_non_integral_zoo_count_exits_2(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "random_cptp", "params": [3, 1.5], "dims": [2, 2]}),
        )
        code, out, err = run(capsys, ["tomograph", exp])
        assert code == 2
        assert out == ""
        assert "integer count" in json.loads(err)["error"]

    def test_zoo_kraus_count_above_n1_n2_exits_2(self, tmp_path, capsys):
        for count, expected in ((4, 0), (5, 2)):
            exp = write_doc(
                tmp_path / "exp.json",
                experiment_doc({"name": "random_cptp", "params": [1, count], "dims": [2, 2]}),
            )
            code, _, err = run(capsys, ["tomograph", exp])
            assert code == expected
        assert "kraus_count 5 too large" in json.loads(err)["error"]

    def test_embedded_stinespring_channel(self, tmp_path, capsys):
        from choiforge.channels import StinespringModel

        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        model = StinespringModel(2, 2, 2, 2, swap, np.diag([1, 0]).astype(complex), np.eye(2))
        exp = write_doc(
            tmp_path / "exp.json", experiment_doc(channel_to_doc(model))
        )
        code, out, _ = run(capsys, ["tomograph", exp])
        assert code == 0
        result = json.loads(out)
        assert result["success_trace"] == pytest.approx(1.0)

    def test_non_cp_embedded_choi_exits_3_with_eigenvalue(self, tmp_path, capsys):
        j = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex))
        exp = write_doc(tmp_path / "exp.json", experiment_doc(channel_to_doc(j)))
        code, out, err = run(capsys, ["tomograph", exp])
        assert code == 3
        assert out == ""
        assert json.loads(err)["min_choi_eigenvalue"] == pytest.approx(-0.1)

    def test_nan_kraus_threshold_exits_5(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc(
                {"name": "identity", "params": [], "dims": [2, 2]},
                kraus_threshold=float("nan"),
            ),
        )
        code, out, err = run(capsys, ["tomograph", exp])
        assert code == 5
        assert out == ""
        assert "kraus_threshold" in json.loads(err)["error"]

    @pytest.mark.parametrize("key,value", [("shot", 100), ("psd_projection", False)])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, key, value):
        exp = write_doc(
            tmp_path / "exp.json",
            {"channel": {"name": "identity", "params": [], "dims": [3, 3]}, "config": {key: value}},
        )
        code, out, err = run(capsys, ["tomograph", exp])
        assert code == 2
        assert out == ""
        assert f"'{key}'" in json.loads(err)["error"]

    def test_trace_decreasing_reports_success_trace(self, tmp_path, capsys):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "project_discard", "params": [], "dims": [2, 2]}),
        )
        code, out, _ = run(capsys, ["tomograph", exp])
        assert code == 0
        assert json.loads(out)["success_trace"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "spec,shots",
        [
            ({"name": "random_cptp", "params": [21, 2], "dims": [4, 4]}, "exact"),
            ({"name": "depolarizing", "params": [0.3], "dims": [3, 3]}, 10**4),
        ],
    )
    def test_makes_only_its_runs_decompositions(self, tmp_path, capsys, decompositions, spec, shots):
        # the result document reads J's spectrum off the Kraus set: no eigvalsh
        doc = experiment_doc(spec, shots=shots, seed=1)
        code, _, _ = run(capsys, ["tomograph", write_doc(tmp_path / "exp.json", doc)])
        assert code == 0
        by_cli = list(decompositions)
        decompositions.clear()
        truth = zoo_channel(spec["name"], spec["params"], *spec["dims"])
        run_tomography(OpaqueChannel.from_kraus(truth), parse_experiment_config(doc))
        assert by_cli == decompositions != []


BIG = 10**400  # an integer JSON literal that no float can hold
IDENTITY_ZOO = {"name": "identity", "params": [], "dims": [2, 2]}


def big_entry_choi_doc():
    doc = channel_to_doc(kraus_to_choi(zoo_channel("identity")))
    doc["payload"]["matrix"][0][0][0] = BIG
    return doc


class TestOutOfRangeNumbers:
    @pytest.mark.parametrize(
        "command, doc, code",
        [
            ("check", big_entry_choi_doc(), 2),
            ("compare", big_entry_choi_doc(), 2),
            ("tomograph", experiment_doc(big_entry_choi_doc()), 2),
            ("tomograph", experiment_doc({**IDENTITY_ZOO, "name": "unitary", "params": [BIG]}), 2),
            ("tomograph", experiment_doc(IDENTITY_ZOO, kraus_threshold=BIG), 2),
            ("tomograph", experiment_doc(IDENTITY_ZOO, shots=2**53 + 1), 5),
            ("tomograph", experiment_doc(IDENTITY_ZOO, shots=2**62), 5),
            ("tomograph", experiment_doc(IDENTITY_ZOO, shots=2**63 - 1), 5),
            ("tomograph", experiment_doc(IDENTITY_ZOO, shots=10**23), 5),
            ("tomograph", experiment_doc(IDENTITY_ZOO, shots=2**53), 0),
        ],
        ids=[
            "check-entry",
            "compare-entry",
            "tomograph-entry",
            "zoo-param",
            "kraus-threshold",
            "shots-2^53+1",
            "shots-2^62",
            "shots-2^63-1",
            "shots-1e23",
            "shots-2^53-accepted",
        ],
    )
    def test_fail_loudly_or_estimate_finitely(self, tmp_path, capsys, command, doc, code):
        path = write_doc(tmp_path / "in.json", doc)
        argv = [command, path, path] if command == "compare" else [command, path]
        got, out, err = run(capsys, argv)
        assert got == code
        if code:
            assert out == ""
            assert json.loads(err)["exit_code"] == code
            return
        # the largest accepted count: a finite estimate of the identity channel
        result = json.loads(out)
        assert result["success_trace"] == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(result["choi_eigenvalues"], [2, 0, 0, 0], atol=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "big.json"],
            ["compare", "big.json", "negative_big.json"],
            ["compare", "big_kraus.json", "big_kraus.json"],
            ["compare", "near_max.json", "near_max.json"],
            ["check", "near_max.json"],
        ],
        ids=[
            "check-verdict",
            "compare-distance",
            "compare-kraus-choi",
            "compare-fidelity",
            "check-partial-trace",
        ],
    )
    def test_overflow_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        # every entry is a finite float, but the arithmetic overflows: no
        # Infinity on stdout (not JSON) and no numpy warning before the diagnostic
        monkeypatch.chdir(tmp_path)
        for name, scale in (("big.json", 1e300), ("negative_big.json", -1e300), ("near_max.json", 1.5e308)):
            write_channel(tmp_path / name, ChoiMatrix(2, 2, scale * np.eye(4, dtype=complex)))
        write_channel(tmp_path / "big_kraus.json", KrausSet(2, 2, (np.full((2, 2), 1e200),)))
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith("a value overflowed float range")

    def test_overflowing_factor_gives_way_to_eigh(self, tmp_path, monkeypatch, capsys, low_rank_attempts):
        # a rank-2 CP Choi matrix near 1e300 at d = 64: the low-rank factor's
        # residual norm overflows, so the attempt gives up and eigh decides,
        # as with the factor refused; the float-level cutoff scales with the
        # matrix, so its float noise is not kept as rank
        j = kraus_to_choi(random_cptp(8, 8, 2, 3)).matrix * 1e300
        src = write_channel(tmp_path / "c.json", ChoiMatrix(8, 8, (j + j.conj().T) / 2))
        code, out, _ = run(capsys, ["convert", src, "--to", "kraus"])
        assert code == 0
        assert low_rank_attempts == [False]
        eigh_only(monkeypatch)
        code, reference, _ = run(capsys, ["convert", src, "--to", "kraus"])
        assert code == 0
        assert len(json.loads(out)["payload"]["operators"]) == 2
        assert out == reference


IDENTITY_KRAUS_TEXT = '[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]'


class TestRepeatedKeys:
    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "tomograph",
                '{"channel": {"name": "identity", "params": [], "dims": [2, 2]}, '
                '"config": {"shots": 0, "seed": 7, "shots": "exact"}}',
                "shots",
            ),
            (
                "check",
                '{"format_version": 1, "representation": "kraus", "dims": [2, 2], "dims": [3, 3], '
                f'"payload": {{"operators": [{IDENTITY_KRAUS_TEXT}]}}}}',
                "dims",
            ),
            (
                "check",
                '{"format_version": 1, "representation": "kraus", "dims": [2, 2], '
                f'"payload": {{"operators": [{IDENTITY_KRAUS_TEXT}], "operators": []}}}}',
                "operators",
            ),
        ],
        ids=["config-key", "dims", "payload-key"],
    )
    def test_repeated_key_exits_2(self, tmp_path, capsys, command, text, key):
        # json alone would keep the last value and run
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == f"repeated key '{key}' in a JSON object"


class TestCompare:
    def test_file_vs_itself(self, tmp_path, capsys):
        src = write_channel(tmp_path / "dep.json", zoo_channel("depolarizing", [0.5]))
        code, out, _ = run(capsys, ["compare", src, src])
        assert code == 0
        result = json.loads(out)
        assert result["choi_distance"] == 0.0
        assert result["equivalent"] is True
        assert result["process_fidelity"] == pytest.approx(1.0)

    def test_redecomposition_is_equivalent(self, tmp_path, capsys):
        pauli = KrausSet(
            2,
            2,
            (
                I2 / 2,
                np.array([[0, 1], [1, 0]], dtype=complex) / 2,
                np.array([[0, -1j], [1j, 0]], dtype=complex) / 2,
                np.diag([1, -1]).astype(complex) / 2,
            ),
        )
        a = write_channel(tmp_path / "pauli.json", pauli)
        b = write_channel(
            tmp_path / "mixed.json", kraus_to_choi(zoo_channel("depolarizing", [1.0]))
        )
        code, out, _ = run(capsys, ["compare", a, b])
        assert code == 0
        result = json.loads(out)
        assert result["equivalent"] is True
        assert result["process_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_result_vs_choi_and_stinespring_files(self, tmp_path, capsys):
        from choiforge.channels import StinespringModel, stinespring_to_choi

        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        model = StinespringModel(2, 2, 2, 2, cnot, np.diag([1, 0]).astype(complex), np.eye(2))
        exp = write_doc(tmp_path / "exp.json", experiment_doc(channel_to_doc(model)))
        result_file = str(tmp_path / "result.json")
        assert main(["tomograph", exp, "--output", result_file]) == 0
        stinespring = write_channel(tmp_path / "st.json", model)
        choi = write_channel(tmp_path / "choi.json", stinespring_to_choi(model))
        capsys.readouterr()
        for truth in (choi, stinespring):
            code, out, _ = run(capsys, ["compare", result_file, truth])
            assert code == 0
            result = json.loads(out)
            assert result["equivalent"] is True
            assert result["process_fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_dephasing_not_equivalent(self, tmp_path, capsys):
        a = write_channel(tmp_path / "id.json", KrausSet(2, 2, (I2,)))
        b = write_channel(tmp_path / "deph.json", zoo_channel("phase_damping", [1.0]))
        code, out, _ = run(capsys, ["compare", a, b])
        assert code == 0
        assert json.loads(out)["equivalent"] is False

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        a = write_channel(tmp_path / "a.json", zoo_channel("identity", [], 2))
        b = write_channel(tmp_path / "b.json", zoo_channel("identity", [], 3))
        code, _, err = run(capsys, ["compare", a, b])
        assert code == 2
        assert json.loads(err)["error"]

    def test_neither_channel_nor_result_exits_2(self, tmp_path, capsys):
        a = write_channel(tmp_path / "a.json", zoo_channel("identity"))
        b = write_doc(tmp_path / "b.json", {"format_version": 1, "dims": [2, 2]})
        code, out, err = run(capsys, ["compare", a, b])
        assert (code, out) == (2, "")
        message = f"{b}: neither a channel file nor a tomography result file"
        assert json.loads(err) == {"error": message, "exit_code": 2}

    def test_trace_decreasing_fidelity_is_null(self, tmp_path, capsys):
        a = write_channel(tmp_path / "proj.json", zoo_channel("project_discard"))
        code, out, _ = run(capsys, ["compare", a, a])
        assert code == 0
        result = json.loads(out)
        assert result["process_fidelity"] is None
        assert result["equivalent"] is True

    def test_non_trace_preserving_fidelity_is_null(self, tmp_path, capsys):
        scaled = KrausSet(2, 2, (np.diag([np.sqrt(1.5), np.sqrt(0.5)]),))
        a = write_channel(tmp_path / "scaled.json", scaled)
        b = write_channel(tmp_path / "id.json", KrausSet(2, 2, (I2,)))
        code, out, _ = run(capsys, ["compare", a, b])
        assert code == 0
        assert json.loads(out)["process_fidelity"] is None

    @pytest.mark.parametrize(
        "field,value", [("dims", [True, 2]), ("format_version", 99)]
    )
    def test_malformed_result_file_exits_2(self, tmp_path, capsys, field, value):
        exp = write_doc(
            tmp_path / "exp.json",
            experiment_doc({"name": "identity", "params": [], "dims": [2, 2]}),
        )
        result_file = tmp_path / "result.json"
        assert main(["tomograph", exp, "--output", str(result_file)]) == 0
        capsys.readouterr()
        doc = json.loads(result_file.read_text())
        doc[field] = value
        bad = write_doc(tmp_path / "bad.json", doc)
        code, out, err = run(capsys, ["compare", bad, bad])
        assert code == 2
        assert out == ""
        assert field in json.loads(err)["error"]

    def test_tol_flag(self, tmp_path, capsys):
        a = write_channel(tmp_path / "a.json", zoo_channel("amplitude_damping", [0.5]))
        b = write_channel(tmp_path / "b.json", zoo_channel("amplitude_damping", [0.500001]))
        code, out, _ = run(capsys, ["compare", a, b, "--tol", "1.0"])
        assert code == 0
        assert json.loads(out)["equivalent"] is True
        code, out, _ = run(capsys, ["compare", a, a, "--tol", "0"])
        assert code == 0
        assert json.loads(out)["equivalent"] is False  # distance 0 is not below 0
        for tol in ("nan", "inf", "-1"):
            code, out, err = run(capsys, ["compare", a, b, "--tol", tol])
            assert code == 2
            assert out == ""
            assert "--tol must be a finite nonnegative number" in json.loads(err)["error"]


class TestZooCommand:
    def test_depolarizing_p0_writes_identity_file(self, tmp_path, capsys):
        out_path = tmp_path / "id.json"
        code, out, _ = run(
            capsys,
            ["zoo", "--name", "depolarizing", "--params", "0", "--output", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["representation"] == "kraus"
        assert len(doc["payload"]["operators"]) == 1
        assert doc["payload"]["operators"][0][0][0] == [1.0, 0.0]

    def test_amplitude_damping_passes_check(self, tmp_path, capsys):
        out_path = tmp_path / "ad.json"
        assert (
            main(["zoo", "--name", "amplitude_damping", "--params", "0.25", "--output", str(out_path)])
            == 0
        )
        capsys.readouterr()
        code, out, _ = run(capsys, ["check", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["payload"]["operators"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--name", "unitary", "--params", "2.7"],
            ["--name", "random_cptp", "--params", "3", "1.5", "--dims", "2", "3"],
            ["--name", "identity", "--dims", "2", "2", "7"],
        ],
    )
    def test_non_integral_or_extra_values_exit_2(self, capsys, argv):
        code, out, err = run(capsys, ["zoo", *argv])
        assert code == 2
        assert out == ""
        assert json.loads(err)["exit_code"] == 2

    def test_kraus_count_above_n1_n2_exits_2(self, capsys):
        code, out, _ = run(capsys, ["zoo", "--name", "random_cptp", "--params", "1", "4", "--dims", "2"])
        assert code == 0
        assert len(json.loads(out)["payload"]["operators"]) == 4
        code, out, err = run(capsys, ["zoo", "--name", "random_cptp", "--params", "1", "5", "--dims", "2"])
        assert (code, out) == (2, "")
        diagnostic = json.loads(err)
        assert "kraus_count 5 too large" in diagnostic["error"]
        assert "random_cptp" in diagnostic["valid_names"]

    def test_integral_float_params_accepted(self, capsys):
        code, out, _ = run(capsys, ["zoo", "--name", "random_cptp", "--params", "3", "2"])
        assert code == 0
        assert len(json.loads(out)["payload"]["operators"]) == 2

    def test_unknown_name_exits_2_listing_names(self, tmp_path, capsys):
        code, _, err = run(capsys, ["zoo", "--name", "teleporter"])
        assert code == 2
        diagnostic = json.loads(err)
        assert "identity" in diagnostic["valid_names"]
        assert "random_cptp" in diagnostic["valid_names"]


class TestResources:
    @pytest.mark.parametrize(
        "dims,expected", [((2, 2), 16), ((2, 3), 36), ((4, 4), 256)]
    )
    def test_counts(self, dims, expected, capsys):
        code, out, _ = run(capsys, ["resources", "--dims", str(dims[0]), str(dims[1])])
        assert code == 0
        report = json.loads(out)
        assert report["ensemble_measurements"] == expected
        assert report["prior_method_measurements"] == dims[0] ** 2 * dims[1] ** 2

    def test_dims_below_two_exit_5(self, capsys):
        code, _, err = run(capsys, ["resources", "--dims", "1", "2"])
        assert code == 5
        assert json.loads(err)["error"]


class TestGlobalFlags:
    def test_flags_belong_to_their_subcommand(self, tmp_path, capsys):
        src = write_channel(tmp_path / "id.json", KrausSet(2, 2, (I2,)))
        for argv in (
            ["check", src, "--seed", "7"],
            ["zoo", "--name", "identity", "--format", "json"],
            ["tomograph"],
            [],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            diagnostic = json.loads(captured.err)
            assert diagnostic["exit_code"] == 2
            assert diagnostic["error"]

    def test_installed_entry_point_runs(self, tmp_path):
        import shutil
        import subprocess

        binary = shutil.which("choiforge")
        if binary is None:
            pytest.skip("console script not on PATH")
        src = write_channel(tmp_path / "dep.json", zoo_channel("depolarizing", [0.5]))
        proc = subprocess.run(
            [binary, "check", src], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_trace_preserving"] is True


def write_contract_files(directory: Path) -> None:
    write_channel(directory / "id.json", KrausSet(2, 2, (I2,)))
    write_channel(directory / "id3.json", zoo_channel("identity", [], 3))
    write_channel(directory / "amp.json", KrausSet(2, 2, (np.sqrt(1.5) * I2,)))
    noncp = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex))
    write_channel(directory / "noncp.json", noncp)
    (directory / "bad.json").write_text("{not json", encoding="utf-8")
    write_doc(directory / "exp.json", experiment_doc(IDENTITY_ZOO, shots=100, seed=1))
    write_doc(directory / "exp_shots.json", experiment_doc(IDENTITY_ZOO, shots=-4))
    write_doc(directory / "exp_noncp.json", experiment_doc(channel_to_doc(noncp)))


class TestExitPath:
    """Every command ends in one of two shapes: exit 0 with a JSON payload on
    stdout (and the same bytes in --output) and nothing on stderr, or a
    nonzero exit with exactly one JSON diagnostic line on stderr."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["convert", "id.json", "--to", "choi"], 0),
            (["convert", "bad.json", "--to", "choi"], 2),
            (["convert", "noncp.json", "--to", "kraus"], 3),
            (["check", "id.json"], 0),
            (["check", "absent.json"], 2),
            (["check", "amp.json"], 4),
            (["check", "amp.json", "--output", "missing/out.json"], 2),
            (["tomograph", "exp.json"], 0),
            (["tomograph", "exp_noncp.json"], 3),
            (["tomograph", "exp_shots.json"], 5),
            (["tomograph", "exp.json", "--output", "missing/out.json"], 2),
            (["compare", "id.json", "id.json"], 0),
            (["compare", "id.json", "id3.json"], 2),
            (["compare", "id.json", "id.json", "--tol", "nan"], 2),
            (["zoo", "--name", "depolarizing", "--params", "0.3"], 0),
            (["zoo", "--name", "teleporter"], 2),
            (["zoo", "--name", "identity", "--output", "missing/out.json"], 2),
            (["resources", "--dims", "2", "3"], 0),
            (["resources", "--dims", "1", "2"], 5),
            (["check", "id.json", "--seed", "7"], 2),
        ],
        ids=lambda v: "-".join(v).replace("/", "_") if isinstance(v, list) else str(v),
    )
    def test_one_payload_or_one_diagnostic(self, tmp_path, monkeypatch, capsys, argv, code):
        write_contract_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        if code == 0:
            argv = [*argv, "--output", "out.json"]
        try:
            got = main(argv)
        except SystemExit as exc:  # usage errors leave through argparse
            got = exc.code
        captured = capsys.readouterr()
        assert got == code
        if code == 0:
            assert captured.err == ""
            assert json.loads(captured.out)
            assert Path("out.json").read_text(encoding="utf-8") == captured.out
            return
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.err.endswith("\n")
        assert json.loads(lines[0])["exit_code"] == code
        if code == 4:  # check prints the verdict it failed on
            assert json.loads(captured.out)["is_trace_nonincreasing"] is False
        else:
            assert captured.out == ""
        assert not Path("missing").exists()


class TestPipeline:
    def test_zoo_tomograph_compare_golden(self, tmp_path, capsys):
        zoo_file = tmp_path / "chan.json"
        assert (
            main(["zoo", "--name", "amplitude_damping", "--params", "0.5", "--output", str(zoo_file)])
            == 0
        )
        capsys.readouterr()
        channel_doc = json.loads(zoo_file.read_text())
        exp = write_doc(tmp_path / "exp.json", experiment_doc(channel_doc))
        result_file = tmp_path / "result.json"
        assert main(["tomograph", exp, "--output", str(result_file)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, ["compare", str(result_file), str(zoo_file)])
        assert code == 0
        assert json.loads(out)["equivalent"] is True
