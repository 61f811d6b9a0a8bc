import numpy as np
import pytest

from choiforge.channels import (
    ChoiMatrix,
    KrausSet,
    NotCompletelyPositiveError,
    haar_random_unitary,
    kraus_to_choi,
    random_cptp,
    zoo_channel,
)
from choiforge.metrics import choi_distance, process_fidelity, resource_report

I2 = np.eye(2, dtype=complex)
PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def zoo_corpus():
    return {
        "identity": zoo_channel("identity"),
        "unitary": zoo_channel("unitary", [5]),
        "depolarizing": zoo_channel("depolarizing", [0.5]),
        "amplitude_damping_25": zoo_channel("amplitude_damping", [0.25]),
        "amplitude_damping_50": zoo_channel("amplitude_damping", [0.5]),
        "phase_damping": zoo_channel("phase_damping", [0.35]),
    }


class TestChoiDistance:
    def test_self_distance_zero(self):
        j = kraus_to_choi(zoo_channel("depolarizing", [0.4]))
        assert choi_distance(j, j) == 0.0

    def test_identity_vs_dephasing(self):
        # oracle: entry-wise subtraction leaves the two off-diagonal 1 entries
        j_id = kraus_to_choi(KrausSet(2, 2, (I2,)))
        dephasing = KrausSet(
            2, 2, (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex))
        )
        j_deph = kraus_to_choi(dephasing)
        difference = j_id.matrix - j_deph.matrix
        assert np.linalg.norm(difference) == pytest.approx(np.sqrt(2))
        assert choi_distance(j_id, j_deph) == pytest.approx(np.sqrt(2))

    def test_distance_to_zero_is_norm(self):
        j = kraus_to_choi(zoo_channel("amplitude_damping", [0.3]))
        zero = ChoiMatrix(2, 2, np.zeros((4, 4)))
        assert choi_distance(j, zero) == pytest.approx(np.linalg.norm(j.matrix))

    def test_overflowing_distance_rejected(self):
        # each matrix is finite; their distance is not
        a = ChoiMatrix(2, 2, 1e300 * np.eye(4))
        b = ChoiMatrix(2, 2, -1e300 * np.eye(4))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^the distance overflows float range$"
        ):
            choi_distance(a, b)

    def test_dimension_mismatch(self):
        j2 = kraus_to_choi(zoo_channel("identity", [], 2))
        j3 = kraus_to_choi(zoo_channel("identity", [], 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            choi_distance(j2, j3)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            triple = [
                kraus_to_choi(random_cptp(2, 2, int(rng.integers(1, 5)), int(rng.integers(2**32))))
                for _ in range(3)
            ]
            a, b, c = triple
            assert choi_distance(a, b) == choi_distance(b, a)
            assert choi_distance(a, c) <= choi_distance(a, b) + choi_distance(b, c) + 1e-12


class TestProcessFidelity:
    def test_identical_channels(self):
        j = kraus_to_choi(zoo_channel("amplitude_damping", [0.3]))
        assert process_fidelity(j, j) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_fully_depolarizing(self):
        j_id = kraus_to_choi(KrausSet(2, 2, (I2,)))
        j_dep = kraus_to_choi(zoo_channel("depolarizing", [1.0]))
        assert process_fidelity(j_id, j_dep) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_on_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = kraus_to_choi(random_cptp(2, 2, int(rng.integers(1, 5)), int(rng.integers(2**32))))
            b = kraus_to_choi(random_cptp(2, 2, int(rng.integers(1, 5)), int(rng.integers(2**32))))
            assert process_fidelity(a, b) == pytest.approx(process_fidelity(b, a), abs=1e-12)

    def test_haar_unitary_pairs_match_trace_overlap(self):
        # for unitary channels F = |Tr U^dag V|^2 / n^2, from either representation
        rng = np.random.default_rng(42)
        for k in range(25):
            n = (2, 4, 8, 16)[k % 4]
            u, v = haar_random_unitary(n, rng), haar_random_unitary(n, rng)
            expected = abs(np.trace(u.conj().T @ v)) ** 2 / n**2
            a, b = KrausSet(n, n, (u,)), KrausSet(n, n, (v,))
            assert process_fidelity(a, b) == pytest.approx(expected, abs=1e-12)
            assert process_fidelity(kraus_to_choi(a), kraus_to_choi(b)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_kraus_and_choi_inputs_give_the_same_outcome(self):
        # a value within 1e-12, or a ValueError with the same message prefix
        corpus = {
            **zoo_corpus(),
            "project_discard": zoo_channel("project_discard"),
            "full_trace_non_tp": KrausSet(2, 2, (np.diag([np.sqrt(1.5), np.sqrt(0.5)]),)),
            "amplified": KrausSet(2, 2, (np.sqrt(1.5) * I2,)),
        }

        def outcome(a, b):
            try:
                return process_fidelity(a, b)
            except ValueError as err:
                return str(err).split(":")[0]

        for ka in corpus.values():
            for kb in corpus.values():
                expected = outcome(ka, kb)
                ja, jb = kraus_to_choi(ka), kraus_to_choi(kb)
                for a, b in ((ja, jb), (ka, jb), (ja, kb)):
                    got = outcome(a, b)
                    if isinstance(expected, str):
                        assert got == expected
                    else:
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_more_operators_than_choi_dimension(self):
        # every depolarizing operator twice, scaled by 1/sqrt(2): 8 operators, d = 4
        ops = zoo_channel("depolarizing", [0.5]).operators
        doubled = KrausSet(2, 2, tuple(op / np.sqrt(2) for op in ops for _ in range(2)))
        assert len(doubled.operators) > 4
        j = kraus_to_choi(doubled)
        for other in zoo_corpus().values():
            assert process_fidelity(doubled, other) == pytest.approx(
                process_fidelity(j, kraus_to_choi(other)), abs=1e-12
            )
        assert process_fidelity(doubled, doubled) == pytest.approx(1.0, abs=1e-12)

    def test_unity_iff_zero_distance_on_zoo_corpus(self):
        corpus = zoo_corpus()
        chois = {name: kraus_to_choi(k) for name, k in corpus.items()}
        for name_a, ja in chois.items():
            for name_b, jb in chois.items():
                fid = process_fidelity(ja, jb)
                if choi_distance(ja, jb) < 1e-8:
                    assert fid > 1 - 1e-9
                else:
                    assert fid < 1 - 1e-6

    def test_trace_decreasing_rejected(self):
        j = kraus_to_choi(zoo_channel("project_discard"))
        j_id = kraus_to_choi(KrausSet(2, 2, (I2,)))
        with pytest.raises(ValueError, match="trace-preserving"):
            process_fidelity(j, j_id)

    def test_non_trace_preserving_with_full_trace_rejected(self):
        # Tr J = n1, yet sum_k A_k^dag A_k = diag(1.5, 0.5) is not the identity
        j = kraus_to_choi(KrausSet(2, 2, (np.diag([np.sqrt(1.5), np.sqrt(0.5)]),)))
        assert np.trace(j.matrix).real == pytest.approx(2.0)
        j_id = kraus_to_choi(KrausSet(2, 2, (I2,)))
        with pytest.raises(ValueError, match="trace-preserving"):
            process_fidelity(j, j_id)
        with pytest.raises(ValueError, match="trace-preserving"):
            process_fidelity(j_id, j)

    def test_positivity_is_judged_first(self):
        # neither PSD nor trace preserving: the positivity error wins
        bad = ChoiMatrix(2, 2, np.diag([3.0, 0.4, 0.4, -0.3]).astype(complex))
        j_id = kraus_to_choi(KrausSet(2, 2, (I2,)))
        with pytest.raises(NotCompletelyPositiveError) as excinfo:
            process_fidelity(bad, j_id)
        assert excinfo.value.min_eigenvalue == pytest.approx(-0.3)

    def test_non_psd_rejected(self):
        bad = ChoiMatrix(2, 2, np.diag([1.5, 0.4, 0.4, -0.3]).astype(complex))
        j_id = kraus_to_choi(KrausSet(2, 2, (I2,)))
        for a, b in ((bad, j_id), (j_id, bad)):
            with pytest.raises(NotCompletelyPositiveError, match="not completely positive"):
                process_fidelity(a, b)

    @pytest.mark.parametrize("kinds", ["kk", "ck", "kc", "cc"])
    def test_one_eigh_per_choi_side(self, decompositions, kinds):
        # a Choi side is factored by choi_to_kraus's one decomposition, here
        # the low-rank factor's thin SVD, as both ranks are within its pivot
        # cap; each side's trace verdict is one n1 x n1 eigvalsh, and the
        # overlap one SVD
        sides = [random_cptp(3, 2, 2, seed=1), random_cptp(3, 2, 5, seed=2)]
        a, b = (kraus_to_choi(k) if kind == "c" else k for kind, k in zip(kinds, sides))
        process_fidelity(a, b)
        per_side = {"k": ["eigvalsh"], "c": ["svd", "eigvalsh"]}
        assert decompositions == per_side[kinds[0]] + per_side[kinds[1]] + ["svd"]

    def test_dimension_mismatch(self):
        j2 = kraus_to_choi(zoo_channel("identity", [], 2))
        j3 = kraus_to_choi(zoo_channel("identity", [], 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            process_fidelity(j2, j3)


class TestResourceReport:
    def test_qubit_to_qubit(self):
        report = resource_report(2, 2)
        assert report.joint_state_dim == 4
        assert report.ensemble_measurements == 16

    def test_two_by_three(self):
        assert resource_report(2, 3).ensemble_measurements == 36

    def test_three_by_three_counts_agree(self):
        report = resource_report(3, 3)
        assert report.ensemble_measurements == 81
        assert report.prior_method_measurements == 81

    @pytest.mark.parametrize("n1", [2, 3, 4])
    @pytest.mark.parametrize("n2", [2, 3, 4])
    def test_counts_formulae(self, n1, n2):
        report = resource_report(n1, n2)
        assert report.ensemble_measurements == (n1 * n2) ** 2
        assert report.prior_method_measurements == n1**2 * n2**2
        assert report.ensemble_measurements == report.prior_method_measurements
        assert report.degrees_of_freedom == n1**2 * n2**2

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError, match="^input_dim must be an integer >= 2, got 1$"):
            resource_report(1, 2)

    def test_small_output_dimension_rejected(self):
        with pytest.raises(ValueError, match="^output_dim must be an integer >= 2, got 1$"):
            resource_report(2, 1)
