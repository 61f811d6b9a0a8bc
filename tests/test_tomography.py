import math
import re

import numpy as np
import pytest

from conftest import (
    apply_kraus,
    apply_stinespring,
    hermitian_operator_basis,
    kraus_equivalent,
    random_complex_matrix,
    random_density,
)
from choiforge.channels import (
    KrausSet,
    StinespringModel,
    choi_cp_tp_verdict,
    haar_random_unitary,
    kraus_to_choi,
    random_cptp,
    zoo_channel,
)
from choiforge.linalg import NotHermitianError, frobenius_distance
from choiforge.tomography import (
    EXACT,
    MAX_SHOTS,
    NotMaximumSchmidtError,
    OpaqueChannel,
    SchmidtConditioningError,
    SchmidtInput,
    TomographyConfig,
    default_kraus_threshold,
    joint_output_state,
    prepare_schmidt_input,
    reconstruct_from_schmidt,
    run_tomography,
    simulate_state_tomography,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def uniform(n):
    """The maximally entangled input as a SchmidtInput."""
    return SchmidtInput(np.full(n, 1 / np.sqrt(n)), np.eye(n), np.eye(n))


def blockwise_image(apply_fn, bipartite, n1, n2):
    """(identity tensor E) by its definition: block (i, j) is E of input block (i, j)."""
    out = np.zeros((n1 * n2, n1 * n2), dtype=complex)
    for i in range(n1):
        for j in range(n1):
            block = bipartite[i * n1 : (i + 1) * n1, j * n1 : (j + 1) * n1]
            out[i * n2 : (i + 1) * n2, j * n2 : (j + 1) * n2] = apply_fn(block)
    return out


def random_stinespring(rng):
    """2 -> 3 model: Haar interaction, mixed ancilla, rank-one post-selection."""
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w /= np.linalg.norm(w)
    return StinespringModel(
        system_dim=2,
        ancilla_dim=3,
        output_dim=3,
        trace_dim=2,
        unitary=haar_random_unitary(6, rng),
        ancilla_state=random_density(3, rng),
        projector=np.outer(w, w.conj()),
    )


class TestPrepare:
    def test_max_entangled_qubit(self):
        assert np.allclose(prepare_schmidt_input(uniform(2)), PHI, atol=1e-15)

    def test_max_entangled_qutrit(self):
        v = prepare_schmidt_input(uniform(3))
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1 / np.sqrt(3)
        assert np.allclose(v, expected, atol=1e-15)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_unit_norm(self, dim):
        assert np.linalg.norm(prepare_schmidt_input(uniform(dim))) == pytest.approx(1.0)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            SchmidtInput([1.0], np.eye(1), np.eye(1))
        channel = OpaqueChannel.from_kraus(KrausSet(1, 1, (np.eye(1),)))
        with pytest.raises(ValueError, match="at least two"):
            run_tomography(channel, TomographyConfig())

    def test_uniform_schmidt_equals_max_entangled(self):
        # the default input is the uniform Schmidt input, down to the bytes
        channel = OpaqueChannel.from_kraus(random_cptp(3, 3, 2, seed=12))
        for shots in (EXACT, 1000):
            default = run_tomography(channel, TomographyConfig(shots=shots, seed=4))
            explicit = run_tomography(
                channel, TomographyConfig(shots=shots, seed=4, input_kind=uniform(3))
            )
            assert default.estimated_choi.matrix.tobytes() == explicit.estimated_choi.matrix.tobytes()
            assert default.negativity_removed == explicit.negativity_removed

    def test_schmidt_identity_bases(self):
        v = prepare_schmidt_input(SchmidtInput([0.8, 0.6], I2, I2))
        assert np.allclose(v, [0.8, 0, 0, 0.6])

    def test_schmidt_decompose_inverts_preparation(self):
        rng = np.random.default_rng(21)
        alphas = np.array([0.9, np.sqrt(1 - 0.81)])
        u = haar_random_unitary(2, rng)
        w = haar_random_unitary(2, rng)
        v = prepare_schmidt_input(SchmidtInput(alphas, u, w))
        left, coefficients, right_h = np.linalg.svd(v.reshape(2, 2))
        assert np.allclose(coefficients, alphas, atol=1e-9)
        assert np.allclose((left * coefficients) @ right_h, v.reshape(2, 2), atol=1e-12)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(NotMaximumSchmidtError, match="maximum Schmidt number"):
            SchmidtInput([1.0, 0.0], I2, I2)

    def test_unnormalized_coefficients_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SchmidtInput([0.8, 0.7], I2, I2)

    def test_non_unitary_basis_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            SchmidtInput([0.8, 0.6], 2 * I2, I2)
        with pytest.raises(ValueError, match="unitary"):
            SchmidtInput([0.8, 0.6], I2, np.full((2, 2), np.nan))

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SchmidtInput([np.nan, 0.6], I2, I2)


class TestJointOutputState:
    def test_identity_channel(self):
        ch = OpaqueChannel.from_kraus(KrausSet(2, 2, (I2,)))
        out = joint_output_state(ch, PHI)
        assert frobenius_distance(out, np.outer(PHI, PHI.conj())) < 1e-14

    def test_fully_depolarizing_gives_maximally_mixed(self):
        ch = OpaqueChannel.from_kraus(zoo_channel("depolarizing", [1.0]))
        out = joint_output_state(ch, PHI)
        assert frobenius_distance(out, np.eye(4) / 4) < 1e-12

    def test_project_discard_halves_trace(self):
        ch = OpaqueChannel.from_kraus(zoo_channel("project_discard"))
        out = joint_output_state(ch, PHI)
        assert np.trace(out).real == pytest.approx(0.5)

    def test_blockwise_application_matches_direct(self):
        rng = np.random.default_rng(5)
        cases = [
            (OpaqueChannel.from_kraus(k), lambda m, k=k: apply_kraus(k, m))
            for k in (random_cptp(2, 3, 2, seed=5), random_cptp(3, 2, 4, seed=6))
        ]
        model = random_stinespring(rng)
        cases.append((OpaqueChannel.from_stinespring(model), lambda m: apply_stinespring(model, m)))
        for channel, apply_fn in cases:
            n1, n2 = channel.input_dim, channel.output_dim
            for _ in range(5):
                bipartite = random_complex_matrix(n1 * n1, n1 * n1, rng)
                expected = blockwise_image(apply_fn, bipartite, n1, n2)
                out = channel.evaluator(bipartite)
                assert frobenius_distance(out, expected) < 1e-12 * np.linalg.norm(expected)

    def test_evaluator_shape_mismatch_detected(self):
        bad = OpaqueChannel(2, 2, lambda m: np.eye(3))
        with pytest.raises(ValueError, match="evaluator returned shape"):
            joint_output_state(bad, PHI)

    def test_wrong_vector_length(self):
        ch = OpaqueChannel.from_kraus(KrausSet(2, 2, (I2,)))
        with pytest.raises(ValueError, match="length"):
            joint_output_state(ch, np.ones(3))


STRING_EYE = np.array([["1", "0"], ["0", "1"]])
IDENTITY_CHANNEL = OpaqueChannel.from_kraus(KrausSet(2, 2, (I2,)))


class TestRealNumberRule:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SchmidtInput(["0.6", "0.8"], I2, I2), "alphas must hold real numbers, got entry '0.6'"),
            (lambda: SchmidtInput([True, True], I2, I2), "alphas must hold real numbers, got entry True"),
            (lambda: KrausSet(2, 2, (STRING_EYE,)), "kraus operator 0 must hold numbers, got dtype <U1"),
            (lambda: KrausSet(2, 2, (np.eye(2, dtype=bool),)), "kraus operator 0 must hold numbers, got dtype bool"),
            (
                lambda: KrausSet(2, 2, (np.array([[None, 0], [0, 1]]),)),
                "kraus operator 0 must hold numbers, got dtype object",
            ),
            (
                lambda: simulate_state_tomography([["0.5", "0"], ["0", "0.5"]], 10, 1),
                "state must hold numbers, got entry '0.5'",
            ),
            (lambda: frobenius_distance(np.eye(2, dtype=bool), I2), "a must hold numbers, got dtype bool"),
            (lambda: frobenius_distance(I2, STRING_EYE), "b must hold numbers, got dtype <U1"),
            (
                lambda: joint_output_state(IDENTITY_CHANNEL, PHI.astype(str)),
                "input_vector must hold numbers, got dtype <U",
            ),
            (
                lambda: joint_output_state(OpaqueChannel(2, 2, lambda m: m != 0), PHI),
                "evaluator output must hold numbers, got dtype bool",
            ),
            (
                lambda: SchmidtInput(np.array([0.6 + 0.1j, 0.8]), I2, I2),
                "alphas must hold real numbers, got dtype complex128",
            ),
            (
                lambda: SchmidtInput(np.array([0.6 + 0j, 0.8]), I2, I2),
                "alphas must hold real numbers, got dtype complex128",
            ),
        ],
        ids=[
            "alphas-str",
            "alphas-bool",
            "kraus-str",
            "kraus-bool",
            "kraus-object",
            "state-str",
            "distance-bool",
            "distance-str",
            "input-vector-str",
            "evaluator-bool",
            "alphas-complex-array",
            "alphas-zero-imaginary-array",
        ],
    )
    def test_non_numeric_arrays_rejected(self, build, message):
        # an array is judged by its dtype, a list by the types of its entries
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: KrausSet(2, 2, ([[True, 0], [0, 1]],)), "kraus operator 0 must hold numbers, got entry True"),
            (
                lambda: KrausSet(2, 2, ([[1.0, 0.0], [0.0, np.True_]],)),
                "kraus operator 0 must hold numbers, got entry np.True_",
            ),
            (
                lambda: KrausSet(2, 2, ([np.array([1, 0]), [0, False]],)),
                "kraus operator 0 must hold numbers, got entry False",
            ),
            (lambda: SchmidtInput([0.6, True], I2, I2), "alphas must hold real numbers, got entry True"),
            (
                lambda: SchmidtInput((np.float64(0.6), np.False_), I2, I2),
                "alphas must hold real numbers, got entry np.False_",
            ),
            (
                lambda: KrausSet(2, 2, ([[np.array(True), 0], [0, 1]],)),
                "kraus operator 0 must hold numbers, got entry array(True)",
            ),
            (
                lambda: KrausSet(2, 2, ([[np.array(1.0), 0], [0, 1]],)),
                "kraus operator 0 must hold numbers, got entry array(1.)",
            ),
            (
                lambda: SchmidtInput([0.6 + 0.1j, 0.8], I2, I2),
                "alphas must hold real numbers, got entry (0.6+0.1j)",
            ),
        ],
        ids=[
            "kraus-bool-int",
            "kraus-numpy-bool-float",
            "kraus-array-row-bool",
            "alphas-bool-float",
            "alphas-tuple",
            "kraus-nested-0d-bool-array",
            "kraus-nested-0d-float-array",
            "alphas-complex-list",
        ],
    )
    def test_bools_mixed_into_number_lists_rejected(self, build, message):
        # numpy promotes these lists to a number dtype, or keeps a nested 0-d
        # array as one entry; the type of every entry is judged
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_integer_arrays_keep_their_bytes(self):
        int_eye = np.eye(2, dtype=np.int64)
        assert KrausSet(2, 2, (int_eye,)).operators[0].tobytes() == I2.tobytes()
        assert simulate_state_tomography(np.diag([1, 0]), EXACT, 0).tobytes() == (
            np.diag([1.0, 0.0]).astype(complex).tobytes()
        )
        assert frobenius_distance(int_eye, I2) == 0.0
        assert joint_output_state(IDENTITY_CHANNEL, [1, 0, 0, 0]).tobytes() == (
            joint_output_state(IDENTITY_CHANNEL, np.array([1, 0, 0, 0], dtype=complex)).tobytes()
        )
        # integer and float lists keep the bytes of the array they spell
        assert KrausSet(2, 2, ([[1, 0], [0, 1]],)).operators[0].tobytes() == I2.tobytes()
        assert KrausSet(2, 2, ([[1, 0.0], [np.int32(0), 1]],)).operators[0].tobytes() == I2.tobytes()
        listed = SchmidtInput([0.6, 0.8], I2, I2).alphas
        assert listed.tobytes() == SchmidtInput(np.array([0.6, 0.8]), I2, I2).alphas.tobytes()


class TestOperatorBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_orthonormal_hermitian_complete(self, dim):
        basis = hermitian_operator_basis(dim)
        assert len(basis) == dim * dim
        for a_idx, a in enumerate(basis):
            assert np.max(np.abs(a - a.conj().T)) < 1e-14
            for b_idx, b in enumerate(basis):
                inner = np.trace(a.conj().T @ b).real
                assert inner == pytest.approx(1.0 if a_idx == b_idx else 0.0, abs=1e-12)


class TestSimulateStateTomography:
    def test_exact_mode_returns_input(self):
        rho = random_density(4, np.random.default_rng(0))
        out = simulate_state_tomography(rho, EXACT, seed=1)
        assert np.array_equal(out, rho)

    def test_estimate_close_at_large_shots(self):
        for seed in range(20):
            est = simulate_state_tomography(I2 / 2, 10**6, seed=seed)
            assert frobenius_distance(est, I2 / 2) < 0.01

    def test_estimate_is_hermitian_unit_trace_for_tp_input(self):
        rho = random_density(2, np.random.default_rng(3))
        est = simulate_state_tomography(rho, 2000, seed=9)
        assert np.max(np.abs(est - est.conj().T)) < 1e-14
        assert np.trace(est).real == pytest.approx(1.0)

    def test_hundredfold_shots_shrink_error_tenfold(self):
        rho = random_density(2, np.random.default_rng(14))
        errors = {}
        for shots in (10**4, 10**6):
            errors[shots] = np.median(
                [
                    frobenius_distance(simulate_state_tomography(rho, shots, seed=s), rho)
                    for s in range(20)
                ]
            )
        ratio = errors[10**4] / errors[10**6]
        assert 5 <= ratio <= 20

    def test_deterministic_given_seed(self):
        rho = random_density(3, np.random.default_rng(6))
        a = simulate_state_tomography(rho, 5000, seed=123)
        b = simulate_state_tomography(rho, 5000, seed=123)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("trace", [1.0, 0.8])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_dense_basis_statistics(self, dim, trace):
        # every basis coefficient is (eigenvalues . counts) / shots of a
        # projective measurement in that operator's eigenbasis, so its mean
        # and variance follow from the dense oracle basis in closed form
        rho = trace * random_density(dim, np.random.default_rng(40 + dim))
        shots, n_seeds = 100, 400
        basis = np.array(hermitian_operator_basis(dim))
        samples = np.array(
            [simulate_state_tomography(rho, shots, seed=s) for s in range(n_seeds)]
        )

        mean = samples.mean(axis=0)
        for part in (np.real, np.imag):
            stderr = part(samples).std(axis=0, ddof=1) / np.sqrt(n_seeds)
            assert np.all(np.abs(part(mean) - part(rho)) <= 5 * stderr + 1e-12)

        expected_var = []
        for op in basis:
            mu, w = np.linalg.eigh(op)
            probs = np.einsum("ix,ij,jx->x", w.conj(), rho / trace, w).real
            first, second = trace * probs @ mu, trace * probs @ mu**2
            expected_var.append((second - first**2) / shots)
        coefficients = np.einsum("bij,nji->nb", basis, samples).real
        assert np.allclose(
            coefficients.var(axis=0, ddof=1), expected_var, rtol=0.35, atol=1e-15
        )

    def test_zero_trace_state_gives_zero_estimate(self):
        est = simulate_state_tomography(np.zeros((3, 3)), 500, seed=4)
        assert np.array_equal(est, np.zeros((3, 3)))

    def test_diagonal_pure_state_with_zero_probabilities(self):
        rho = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
        est = simulate_state_tomography(rho, 1000, seed=8)
        assert np.all(np.isfinite(est))
        assert np.array_equal(est, est.conj().T)
        assert np.trace(est).real == pytest.approx(1.0, abs=1e-12)

    def test_subnormalized_state_estimated_with_success_scaling(self):
        rho = np.diag([0.3, 0.2]).astype(complex)  # trace 0.5
        est = simulate_state_tomography(rho, 10**6, seed=2)
        assert frobenius_distance(est, rho) < 0.01

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate_state_tomography(np.diag([1.0, -0.5]), 100, seed=0)

    def test_trace_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            simulate_state_tomography(np.diag([1.0, 0.5]), 100, seed=0)
        # Tr rho <= 1 is held to EXACT_TOL = 1e-10
        with pytest.raises(ValueError, match="exceeds 1"):
            simulate_state_tomography(np.diag([0.5, 0.5 + 5e-10]), 100, seed=0)
        simulate_state_tomography(np.diag([0.5, 0.5 + 5e-11]), 100, seed=0)

    def test_bad_shot_count_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            simulate_state_tomography(I2 / 2, 0, seed=0)

    def test_shot_count_ceiling(self):
        # up to MAX_SHOTS every count is exact in a float64 and the estimate
        # is finite and unbiased; beyond it the count is rejected, never wrapped
        rho = random_density(64, np.random.default_rng(64))
        est = simulate_state_tomography(rho, MAX_SHOTS, seed=1)
        assert np.isfinite(est).all()
        assert frobenius_distance(est, rho) < 2 * np.sqrt(64 / MAX_SHOTS)
        for shots in (MAX_SHOTS + 1, 2**62, 2**63 - 1, 10**23):
            with pytest.raises(ValueError, match="MAX_SHOTS"):
                simulate_state_tomography(rho, shots, seed=1)
            with pytest.raises(ValueError, match="MAX_SHOTS"):
                TomographyConfig(shots=shots)


class TestLargeDimensions:
    def test_n1_8_finite_shot_run(self):
        channel = OpaqueChannel.from_kraus(random_cptp(8, 8, 3, seed=5))
        config = TomographyConfig(shots=10**4, seed=21)
        first = run_tomography(channel, config)
        second = run_tomography(channel, config)
        choi = first.estimated_choi.matrix
        assert choi.shape == (64, 64)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(choi)[0] > -1e-10
        assert first.success_trace == pytest.approx(1.0)
        assert first.shots_used == 10**4 * 64**2
        assert choi.tobytes() == second.estimated_choi.matrix.tobytes()
        assert first.raw_state_estimate.tobytes() == second.raw_state_estimate.tobytes()
        assert [op.tobytes() for op in first.kraus.operators] == [
            op.tobytes() for op in second.kraus.operators
        ]

    def test_d_256_state_estimate(self):
        # E||est - rho||_F^2 <= d Tr(rho) / shots for an orthonormal basis
        dim, shots = 256, 10**6
        rho = random_density(dim, np.random.default_rng(256))
        est = simulate_state_tomography(rho, shots, seed=3)
        assert np.array_equal(est, est.conj().T)
        assert np.trace(est).real == pytest.approx(1.0)
        assert frobenius_distance(est, rho) < 2 * np.sqrt(dim / shots)


class TestProjectToPsd:
    """The positivity step of reconstruct_from_schmidt: negative eigenvalues
    of the Choi estimate are clipped and their mass reported."""

    def test_psd_input_unchanged(self):
        rho = random_density(4, np.random.default_rng(1))
        kraus, mass = reconstruct_from_schmidt(rho, uniform(2), 2, threshold=0.0)
        assert mass == 0.0 and math.copysign(1.0, mass) == 1.0
        assert frobenius_distance(kraus_to_choi(kraus).matrix, 2 * rho) < 1e-12

    def test_clips_negative_diagonal(self):
        rho = np.diag([0.5, -0.1, 0.4, 0.2])
        kraus, mass = reconstruct_from_schmidt(rho, uniform(2), 2, threshold=0.0)
        assert mass == pytest.approx(0.2)
        expected = np.diag([1.0, 0.0, 0.8, 0.4])
        assert frobenius_distance(kraus_to_choi(kraus).matrix, expected) < 1e-12

    def test_pauli_x_projects_to_plus_state(self):
        # n1 = 2, n2 = 1: the Choi estimate 2 * (X / 2) = X clips to |+><+|
        kraus, mass = reconstruct_from_schmidt(X / 2, uniform(2), 1, threshold=0.0)
        assert mass == pytest.approx(1.0)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert frobenius_distance(kraus_to_choi(kraus).matrix, np.outer(plus, plus.conj())) < 1e-12

    def test_output_is_psd(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = (g + g.conj().T) / 2
        kraus, mass = reconstruct_from_schmidt(rho, uniform(2), 2, threshold=0.0)
        eigs = np.linalg.eigvalsh(2 * rho)
        assert mass == pytest.approx(-np.sum(eigs[eigs < 0]))
        assert np.linalg.eigvalsh(kraus_to_choi(kraus).matrix)[0] >= -1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            reconstruct_from_schmidt(np.array([[0, 1], [0, 0]], dtype=complex), uniform(2), 1)


class TestThresholdDefaults:
    def test_exact_mode(self):
        assert default_kraus_threshold(EXACT, 2) == 1e-10

    def test_finite_mode_scales_with_noise(self):
        assert default_kraus_threshold(10**6, 2) == pytest.approx(3 * 2 / 1000.0)
        assert default_kraus_threshold(10**4, 3) == pytest.approx(3 * 3 / 100.0)


class TestReconstructMaxEntangled:
    def test_identity_joint_state(self):
        kraus, _ = reconstruct_from_schmidt(np.outer(PHI, PHI.conj()), uniform(2), 2)
        choi = kraus_to_choi(kraus)
        assert frobenius_distance(choi.matrix, 2 * np.outer(PHI, PHI.conj())) < 1e-12
        assert len(kraus.operators) == 1
        assert kraus_equivalent(kraus, KrausSet(2, 2, (I2,)), 1e-9)

    def test_maximally_mixed_joint_state(self):
        kraus, _ = reconstruct_from_schmidt(np.eye(4) / 4, uniform(2), 2)
        choi = kraus_to_choi(kraus)
        assert frobenius_distance(choi.matrix, np.eye(4) / 2) < 1e-12
        assert len(kraus.operators) == 4
        assert kraus_equivalent(kraus, zoo_channel("depolarizing", [1.0]), 1e-9)

    def test_amplitude_damping_end_to_end_exact(self):
        truth = zoo_channel("amplitude_damping", [0.5])
        rho_out = joint_output_state(OpaqueChannel.from_kraus(truth), PHI)
        kraus, _ = reconstruct_from_schmidt(rho_out, uniform(2), 2)
        assert kraus_equivalent(kraus, truth, 1e-9)


class TestReconstructSchmidt:
    def test_uniform_alphas_reduce_to_max_entangled(self):
        # uniform coefficients with identity bases rescale the estimate by n1
        truth = zoo_channel("amplitude_damping", [0.4])
        rho_out = joint_output_state(OpaqueChannel.from_kraus(truth), PHI)
        kraus, _ = reconstruct_from_schmidt(rho_out, uniform(2), 2)
        assert frobenius_distance(kraus_to_choi(kraus).matrix, 2 * rho_out) < 1e-12

    def test_identity_channel_skewed_alphas(self):
        ch = OpaqueChannel.from_kraus(KrausSet(2, 2, (I2,)))
        spec = SchmidtInput([0.8, 0.6], I2, I2)
        rho_out = joint_output_state(ch, prepare_schmidt_input(spec))
        kraus, _ = reconstruct_from_schmidt(rho_out, spec, 2)
        assert len(kraus.operators) == 1
        assert kraus_equivalent(kraus, KrausSet(2, 2, (I2,)), 1e-9)

    def test_random_bases_amplitude_damping(self):
        rng = np.random.default_rng(11)
        u = haar_random_unitary(2, rng)
        w = haar_random_unitary(2, rng)
        truth = zoo_channel("amplitude_damping", [0.3])
        ch = OpaqueChannel.from_kraus(truth)
        spec = SchmidtInput([0.8, 0.6], u, w)
        rho_out = joint_output_state(ch, prepare_schmidt_input(spec))
        kraus, _ = reconstruct_from_schmidt(rho_out, spec, 2)
        assert kraus_equivalent(kraus, truth, 1e-8)

    def test_tiny_coefficient_raises_conditioning_error(self):
        calls = []
        base = OpaqueChannel.from_kraus(KrausSet(2, 2, (I2,)))
        ch = OpaqueChannel(2, 2, lambda rho: calls.append(1) or base.evaluator(rho))
        alphas = np.array([np.sqrt(1 - 1e-14), 1e-7])
        with pytest.raises(SchmidtConditioningError, match="rescaling"):
            run_tomography(ch, TomographyConfig(input_kind=SchmidtInput(alphas, I2, I2)))
        assert calls == []

    @pytest.mark.parametrize("shots", [EXACT, 10**4])
    @pytest.mark.parametrize("eps", [3e-5, 1e-5, 2e-6])
    def test_small_coefficient_runs_succeed(self, eps, shots):
        # rescaling by 1/(alpha_i alpha_j) amplifies the estimate's float
        # noise far past 1e-8; Hermiticity is judged before the rescaling
        alphas = np.array([1.0, 1.0, 1.0, eps]) / np.sqrt(3.0 + eps**2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            truth = random_cptp(4, 4, 2, seed)
            spec = SchmidtInput(alphas, haar_random_unitary(4, rng), haar_random_unitary(4, rng))
            config = TomographyConfig(shots=shots, seed=seed, input_kind=spec)
            result = run_tomography(OpaqueChannel.from_kraus(truth), config)
            if shots is EXACT:
                error = frobenius_distance(result.estimated_choi.matrix, kraus_to_choi(truth).matrix)
                assert error < 1e-4

    def test_nonpositive_coefficient_rejected(self):
        # a negative coefficient is also below the conditioning floor; the
        # Schmidt-number error wins
        with pytest.raises(NotMaximumSchmidtError):
            SchmidtInput([-0.8, 0.6], I2, I2)


class TestRunTomography:
    def test_identity_exact(self):
        result = run_tomography(
            OpaqueChannel.from_kraus(KrausSet(2, 2, (I2,))), TomographyConfig()
        )
        assert result.negativity_removed == 0.0
        assert result.shots_used == 0
        assert result.success_trace == pytest.approx(1.0)
        assert len(result.kraus.operators) == 1
        assert kraus_equivalent(result.kraus, KrausSet(2, 2, (I2,)), 1e-9)

    def test_depolarizing_exact_choi_eigenvalues(self):
        result = run_tomography(
            OpaqueChannel.from_kraus(zoo_channel("depolarizing", [0.3])),
            TomographyConfig(),
        )
        eigs = np.linalg.eigvalsh(result.estimated_choi.matrix)[::-1]
        assert np.allclose(eigs, [1.55, 0.15, 0.15, 0.15], atol=1e-9)

    def test_estimated_choi_reassembles_from_kraus(self):
        result = run_tomography(
            OpaqueChannel.from_kraus(zoo_channel("amplitude_damping", [0.25])),
            TomographyConfig(shots=2000, seed=5),
        )
        reassembled = kraus_to_choi(result.kraus)
        assert frobenius_distance(reassembled.matrix, result.estimated_choi.matrix) < 1e-12

    def test_exact_recovery_dims_two_and_three(self):
        cases = [
            zoo_channel("identity", [], 2),
            zoo_channel("identity", [], 3),
            zoo_channel("unitary", [3], 2),
            zoo_channel("unitary", [4], 3),
            zoo_channel("depolarizing", [0.5], 3),
            zoo_channel("project_discard", [], 3),
            zoo_channel("random_cptp", [8, 4], 3),
        ]
        for truth in cases:
            result = run_tomography(OpaqueChannel.from_kraus(truth), TomographyConfig())
            assert kraus_equivalent(result.kraus, truth, 1e-8)

    def test_schmidt_exact_matches_max_entangled(self):
        rng = np.random.default_rng(30)
        for trial in range(5):
            truth = random_cptp(2, 2, 2, seed=int(rng.integers(2**32)))
            ch = OpaqueChannel.from_kraus(truth)
            a0 = rng.uniform(0.3, 0.9)
            alphas = np.array([a0, np.sqrt(1 - a0**2)])
            spec = SchmidtInput(
                alphas=alphas,
                left_unitary=haar_random_unitary(2, rng),
                right_unitary=haar_random_unitary(2, rng),
            )
            schmidt = run_tomography(ch, TomographyConfig(input_kind=spec))
            plain = run_tomography(ch, TomographyConfig())
            distance = frobenius_distance(
                schmidt.estimated_choi.matrix, plain.estimated_choi.matrix
            )
            assert distance < 1e-7
            assert kraus_equivalent(schmidt.kraus, truth, 1e-7)

    def test_oracle_called_exactly_once(self):
        calls = []
        base = OpaqueChannel.from_kraus(zoo_channel("depolarizing", [0.3]))

        def counting_evaluator(rho):
            calls.append(1)
            return base.evaluator(rho)

        ch = OpaqueChannel(2, 2, counting_evaluator)
        run_tomography(ch, TomographyConfig(shots=1000, seed=3))
        assert len(calls) == 1

    def test_trace_decreasing_channel(self):
        result = run_tomography(
            OpaqueChannel.from_kraus(zoo_channel("project_discard")), TomographyConfig()
        )
        assert result.success_trace == pytest.approx(0.5)
        assert result.success_trace < 0.999
        gram = sum(op.conj().T @ op for op in result.kraus.operators)
        assert frobenius_distance(gram, np.diag([1, 0]).astype(complex)) < 1e-8
        verdict = choi_cp_tp_verdict(result.estimated_choi)
        assert verdict.is_trace_nonincreasing
        assert not verdict.is_trace_preserving

    def test_deterministic_for_fixed_seed(self):
        ch = OpaqueChannel.from_kraus(zoo_channel("depolarizing", [0.3]))
        cfg = TomographyConfig(shots=5000, seed=77)
        a = run_tomography(ch, cfg)
        b = run_tomography(ch, cfg)
        assert np.array_equal(a.raw_state_estimate, b.raw_state_estimate)
        assert np.array_equal(a.estimated_choi.matrix, b.estimated_choi.matrix)

    def test_exact_mode_clips_only_float_noise(self):
        # the exact output of a rank-deficient channel is PSD; only float-level
        # noise may be clipped, and the estimate stays on the truth
        truth = zoo_channel("amplitude_damping", [0.25])
        result = run_tomography(OpaqueChannel.from_kraus(truth), TomographyConfig())
        assert 0.0 <= result.negativity_removed < 1e-12
        assert frobenius_distance(result.estimated_choi.matrix, kraus_to_choi(truth).matrix) < 1e-12

    @pytest.mark.parametrize("shots", [EXACT, 1000])
    @pytest.mark.parametrize("schmidt", [False, True])
    def test_one_eigendecomposition_per_run(self, monkeypatch, shots, schmidt):
        # every O(d^3) decomposition numpy offers is counted, whoever calls it.
        # An exact run judges the evaluator output on the Choi estimate's one
        # eigh; a finite-shot run also pays the sampler's eigvalsh, which
        # guards the Born probabilities it reads off the output
        calls = []
        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg,
                name,
                lambda *a, name=name, original=original, **kw: calls.append(name)
                or original(*a, **kw),
            )
        rng = np.random.default_rng(9)
        cases = ((2, zoo_channel("amplitude_damping", [0.3])), (4, random_cptp(4, 4, 3, 5)))
        for n1, truth in cases:
            alphas = np.sqrt(np.arange(1.0, n1 + 1) / np.sum(np.arange(1.0, n1 + 1)))
            spec = SchmidtInput(alphas, haar_random_unitary(n1, rng), haar_random_unitary(n1, rng))
            config = TomographyConfig(shots=shots, seed=2, input_kind=spec if schmidt else None)
            calls.clear()
            run_tomography(OpaqueChannel.from_kraus(truth), config)
            assert calls == (["eigh"] if shots is EXACT else ["eigvalsh", "eigh"])

    @pytest.mark.parametrize("alphas", [None, [0.8, 0.6], [1.0, 1e-5]])
    def test_exact_mode_judges_evaluator_output(self, alphas):
        # exact runs skip the sampler but reject what it rejects, in its order
        # (Hermiticity, positivity, trace) and with its messages; the skewed
        # input is too ill-conditioned for the Choi spectrum to prove
        # positivity, so its runs fall back to the sampler's eigvalsh check
        rng = np.random.default_rng(4)
        spec = None
        if alphas is not None:
            alphas = np.array(alphas) / np.linalg.norm(alphas)
            spec = SchmidtInput(alphas, haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        config = TomographyConfig(input_kind=spec)

        def run(out):
            channel = OpaqueChannel(2, 2, lambda m: np.array(out, dtype=complex))
            return run_tomography(channel, config)

        with pytest.raises(ValueError, match=r"positive semidefinite: eigenvalue -1\.000e-01"):
            run(np.diag([0.6, 0.5, 0.0, -0.1]))
        skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        skew[0, 1] = 1e-3
        with pytest.raises(NotHermitianError):
            run(skew)
        with pytest.raises(ValueError, match="exceeds 1"):
            run(np.diag([0.6, 0.6, 0.0, 0.0]))
        # several faults report the first in that order
        with pytest.raises(ValueError, match="positive semidefinite"):
            run(np.diag([0.7, 0.6, 0.0, -0.1]))
        # a negative eigenvalue within bound(rho) = 1e-8 is float noise
        result = run(np.diag([0.6, 0.4, 0.0, -5e-9]))
        assert result.raw_state_estimate[3, 3] == -5e-9

    def test_exact_mode_positivity_survives_ill_conditioned_rescaling(self):
        # with alpha ∝ (1, 1e-5) the Choi estimate's float error, up to
        # ~1e-6 on the scale of rho, can hide a negative eigenvalue of 1e-7;
        # the certificate must see that and leave the verdict to eigvalsh
        alphas = np.array([1.0, 1e-5]) / np.hypot(1.0, 1e-5)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            spec = SchmidtInput(alphas, haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            u = haar_random_unitary(4, rng)
            spectrum = np.r_[rng.dirichlet(np.ones(3)), -1e-7]
            rho = (u * spectrum) @ u.conj().T
            channel = OpaqueChannel(2, 2, lambda m, rho=rho: (rho + rho.conj().T) / 2)
            with pytest.raises(ValueError, match="positive semidefinite: eigenvalue -1.000e-07"):
                run_tomography(channel, TomographyConfig(input_kind=spec))

    @pytest.mark.parametrize("schmidt", [False, True])
    def test_negativity_is_clipped_mass_of_choi_estimate(self, schmidt):
        # finite-shot estimates of a rank-one channel are indefinite; the
        # reported mass is that of the estimate rescaled to a Choi matrix
        rng = np.random.default_rng(13)
        n1 = 3
        spec = uniform(n1)
        if schmidt:
            alphas = np.array([0.7, 0.5, np.sqrt(1 - 0.7**2 - 0.5**2)])
            spec = SchmidtInput(alphas, haar_random_unitary(n1, rng), haar_random_unitary(n1, rng))
        channel = OpaqueChannel.from_kraus(zoo_channel("identity", [], n1))
        config = TomographyConfig(shots=1000, seed=3, input_kind=spec if schmidt else None)
        result = run_tomography(channel, config)
        lift = np.kron(spec.left_unitary / spec.alphas, np.eye(n1))
        choi_raw = lift.conj().T @ result.raw_state_estimate @ lift
        eigs = np.linalg.eigvalsh(choi_raw)
        assert result.negativity_removed > 0.0
        assert result.negativity_removed == pytest.approx(-np.sum(eigs[eigs < 0]), rel=1e-9)

    def test_finite_shots_estimate_converges(self):
        truth = zoo_channel("depolarizing", [0.3])
        ch = OpaqueChannel.from_kraus(truth)
        result = run_tomography(ch, TomographyConfig(shots=10**5, seed=1))
        distance = frobenius_distance(
            result.estimated_choi.matrix, kraus_to_choi(truth).matrix
        )
        assert distance < 0.1
        assert result.shots_used == 10**5 * 16

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shots"):
            TomographyConfig(shots=-5)
        # the threshold follows linalg.is_real: bools and strings are not numbers
        # 10**400 is a real number that no float can hold: a ValueError, not an OverflowError
        for bad_threshold in (-1.0, float("nan"), float("inf"), True, np.True_, "0.1", 10**400):
            with pytest.raises(ValueError, match="kraus_threshold"):
                TomographyConfig(kraus_threshold=bad_threshold)
        for threshold in (0, 0.1, np.float32(0.5), np.int64(1)):
            assert TomographyConfig(kraus_threshold=threshold).kraus_threshold == threshold
        with pytest.raises(ValueError, match="input_kind"):
            TomographyConfig(input_kind="bogus")

    def test_config_rejects_coerced_values(self):
        for shots in (True, 2.0):
            with pytest.raises(ValueError, match="shots"):
                TomographyConfig(shots=shots)
            with pytest.raises(ValueError, match="shots"):
                simulate_state_tomography(I2 / 2, shots, seed=0)
            with pytest.raises(ValueError, match="shots"):
                default_kraus_threshold(shots, 2)
        for seed in (True, 2.7, 2.0, "2"):
            with pytest.raises(ValueError, match="seed"):
                TomographyConfig(seed=seed)
            with pytest.raises(ValueError, match="seed"):
                simulate_state_tomography(I2 / 2, 100, seed=seed)
        for bad in (True, 2.0):
            with pytest.raises(ValueError, match="output_dim"):
                reconstruct_from_schmidt(I2 / 2, uniform(2), bad)
            with pytest.raises(ValueError, match="input_dim"):
                OpaqueChannel(bad, 2, lambda m: m)
            with pytest.raises(ValueError, match="output_dim"):
                OpaqueChannel(2, bad, lambda m: m)
        config = TomographyConfig(shots=np.int32(100), seed=np.int64(2))
        assert (type(config.shots), type(config.seed)) == (int, int)
        channel = OpaqueChannel.from_kraus(zoo_channel("depolarizing", [0.3]))
        same = run_tomography(channel, TomographyConfig(shots=100, seed=2))
        assert run_tomography(channel, config).raw_state_estimate.tobytes() == (
            same.raw_state_estimate.tobytes()
        )

    def test_schmidt_dimension_mismatch(self):
        ch = OpaqueChannel.from_kraus(zoo_channel("identity", [], 3))
        spec = SchmidtInput(
            alphas=np.array([0.8, 0.6]), left_unitary=I2, right_unitary=I2
        )
        with pytest.raises(ValueError, match="coefficients"):
            run_tomography(ch, TomographyConfig(input_kind=spec))
