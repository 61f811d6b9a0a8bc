import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply_kraus,
    apply_stinespring,
    eigh_only,
    kraus_equivalent,
    random_complex_matrix,
    random_density,
    random_hermitian,
)
from choiforge.channels import (
    LOW_RANK_MAX_PIVOTS,
    ZOO_CHANNEL_NAMES,
    ChoiMatrix,
    KrausSet,
    NotCompletelyPositiveError,
    StinespringModel,
    choi_cp_tp_verdict,
    choi_to_kraus,
    haar_random_unitary,
    kraus_to_choi,
    random_cptp,
    stinespring_to_choi,
    zoo_channel,
)
from choiforge.linalg import EXACT_TOL, NotHermitianError, frobenius_distance
from choiforge.metrics import choi_distance, resource_report

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
SIGMA_HALVES = KrausSet(2, 2, (I2 / 2, X / 2, Y / 2, Z / 2))  # fully depolarizing
# parameters each zoo name takes, as README states them
ZOO_PARAM_COUNTS = {
    name: {"identity": 0, "project_discard": 0, "random_cptp": 2}.get(name, 1)
    for name in ZOO_CHANNEL_NAMES
}


def unit_matrix(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def brute_force_choi(apply_fn, n1, n2):
    """Independent oracle: assemble the Choi matrix block by block."""
    j = np.zeros((n1 * n2, n1 * n2), dtype=complex)
    for i in range(n1):
        for k in range(n1):
            j[i * n2 : (i + 1) * n2, k * n2 : (k + 1) * n2] = apply_fn(unit_matrix(n1, i, k))
    return j


class TestKrausSetType:
    def test_wrong_operator_shape_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            KrausSet(2, 3, (np.eye(2),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausSet(2, 2, ())

    def test_one_dimensional_operator_rejected(self):
        with pytest.raises(ValueError, match=r"^kraus operator 0 must be 2-dimensional, got shape \(2,\)$"):
            KrausSet(2, 2, ([1.0, 0.0],))

    def test_operators_are_locked(self):
        k = KrausSet(2, 2, (I2,))
        with pytest.raises(ValueError):
            k.operators[0][0, 0] = 5.0


class TestChoiMatrixType:
    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            ChoiMatrix(2, 2, np.eye(3))

    def test_hermiticity_enforced(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NotHermitianError):
            ChoiMatrix(2, 2, bad)

    def test_hermiticity_bound_scales_with_entries(self):
        # float error in V V^dag grows with its entries; the bound does too
        rng = np.random.default_rng(4)
        v = 3e4 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        vv = v @ v.conj().T
        scale = np.max(np.abs(vv))
        assert scale > 1e9
        noisy = vv.copy()
        noisy[0, 1] += 1e-12 * scale  # absolute deviation ~1e-3
        ChoiMatrix(2, 2, noisy)
        asymmetric = vv.copy()
        asymmetric[0, 1] += 1e-6 * scale
        with pytest.raises(NotHermitianError):
            ChoiMatrix(2, 2, asymmetric)

    def test_non_square_rejected(self):
        # choi_to_kraus takes only a ChoiMatrix, so no non-square matrix reaches it
        with pytest.raises(ValueError, match="shape"):
            ChoiMatrix(2, 2, np.ones((4, 3)))

    def test_non_hermitian_carries_deviation(self):
        with pytest.raises(NotHermitianError) as excinfo:
            ChoiMatrix(1, 2, np.array([[0, 1], [0, 0]], dtype=complex))
        assert excinfo.value.deviation == pytest.approx(1.0)

    def test_non_psd_still_constructible(self):
        j = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex))
        assert choi_cp_tp_verdict(j).min_choi_eigenvalue == pytest.approx(-0.1)


class TestApplyKraus:
    def test_identity_channel(self):
        rho = random_density(2, np.random.default_rng(0))
        out = apply_kraus(KrausSet(2, 2, (I2,)), rho)
        assert frobenius_distance(out, rho) < 1e-14

    def test_fully_depolarizing_on_ground_state(self):
        # oracle: expand the four-term sum by hand
        p0 = np.diag([1, 0]).astype(complex)
        expected = (
            I2 @ p0 @ I2 + X @ p0 @ X + Y @ p0 @ Y.conj().T + Z @ p0 @ Z
        ) / 4
        assert frobenius_distance(expected, I2 / 2) < 1e-15
        assert frobenius_distance(apply_kraus(SIGMA_HALVES, p0), I2 / 2) < 1e-14

    def test_project_and_discard_halves_trace(self):
        proj = zoo_channel("project_discard")
        out = apply_kraus(proj, I2 / 2)
        assert frobenius_distance(out, np.diag([0.5, 0]).astype(complex)) < 1e-14
        assert np.trace(out).real == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="input shape"):
            apply_kraus(SIGMA_HALVES, np.eye(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        k = random_cptp(2, 3, 2, seed)
        rho1, rho2 = random_hermitian(2, rng), random_hermitian(2, rng)
        a, b = rng.standard_normal(2)
        combined = apply_kraus(k, a * rho1 + b * rho2)
        separate = a * apply_kraus(k, rho1) + b * apply_kraus(k, rho2)
        assert frobenius_distance(combined, separate) < 1e-10


class TestKrausToChoi:
    def test_identity_channel(self):
        j = kraus_to_choi(KrausSet(2, 2, (I2,)))
        expected = np.zeros((4, 4), dtype=complex)
        for a, b in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[a, b] = 1.0
        assert frobenius_distance(j.matrix, expected) < 1e-15
        assert frobenius_distance(j.matrix, 2 * np.outer(PHI, PHI.conj())) < 1e-15

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_depolarizing_matches_blockwise_oracle(self, p):
        def depolarize(m):
            return (1 - p) * m + p * np.trace(m) * I2 / 2

        oracle = brute_force_choi(depolarize, 2, 2)
        j = kraus_to_choi(zoo_channel("depolarizing", [p]))
        assert frobenius_distance(j.matrix, oracle) < 1e-12
        expected_eigs = sorted([2 - 1.5 * p, p / 2, p / 2, p / 2], reverse=True)
        assert np.allclose(np.linalg.eigvalsh(j.matrix)[::-1], expected_eigs, atol=1e-12)

    def test_amplitude_damping_choi_eigenvalues(self):
        j = kraus_to_choi(zoo_channel("amplitude_damping", [0.5]))
        eigs = np.linalg.eigvalsh(j.matrix)[::-1]
        assert np.allclose(eigs, [1.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_block_structure_is_channel_action(self):
        k = random_cptp(3, 2, 2, seed=9)
        j = kraus_to_choi(k)
        oracle = brute_force_choi(lambda m: apply_kraus(k, m), 3, 2)
        assert frobenius_distance(j.matrix, oracle) < 1e-12


def vec(op):
    """Column k of the Choi factor: the columns of `op` stacked."""
    return op.T.reshape(-1)


class TestChoiToKraus:
    @pytest.mark.parametrize("n1,rank", [(2, 1), (3, 2), (8, 2), (4, 16)])
    def test_hermitian_within_the_bound_not_bitwise(self, n1, rank):
        # a Choi matrix Hermitian within bound(J) but not bitwise is
        # symmetrized by choi_to_kraus itself: its operators are, bit for bit,
        # those of its Hermitian part, their count is the unperturbed one and
        # the set is trace-orthogonal
        rng = np.random.default_rng(n1 + rank)
        truth = random_cptp(n1, n1, rank, seed=rank)
        j = kraus_to_choi(truth).matrix
        g = random_complex_matrix(n1 * n1, n1 * n1, rng)
        perturbed = ChoiMatrix(n1, n1, j + 1e-12 * (g - g.conj().T) / np.abs(g).max())
        assert not np.array_equal(perturbed.matrix, perturbed.matrix.conj().T)
        ops = choi_to_kraus(perturbed).operators
        hermitian_part = ChoiMatrix(n1, n1, (perturbed.matrix + perturbed.matrix.conj().T) / 2)
        assert all(map(np.array_equal, ops, choi_to_kraus(hermitian_part).operators))
        assert len(ops) == len(choi_to_kraus(ChoiMatrix(n1, n1, j)).operators) == rank
        gram = np.einsum("kij,lij->kl", np.conj(ops), ops)
        assert np.abs(gram - np.diag(gram.diagonal())).max() < 1e-10
        assert frobenius_distance(kraus_to_choi(KrausSet(n1, n1, ops)).matrix, j) < 1e-10

    def test_rank_one_choi_gives_identity(self):
        j = ChoiMatrix(2, 2, 2 * np.outer(PHI, PHI.conj()))
        k = choi_to_kraus(j)
        assert len(k.operators) == 1
        op = k.operators[0]
        phase = op[0, 0] / abs(op[0, 0])
        assert frobenius_distance(op / phase, I2) < 1e-12

    def test_rank_one_projector(self):
        # the one operator is the top eigenvector of 2|PHI><PHI|, scaled by sqrt(2)
        k = choi_to_kraus(ChoiMatrix(2, 2, 2 * np.outer(PHI, PHI.conj())))
        assert len(k.operators) == 1
        top = vec(k.operators[0])
        assert np.linalg.norm(top) ** 2 == pytest.approx(2.0, abs=1e-12)
        assert abs(np.vdot(PHI, top)) / np.linalg.norm(top) == pytest.approx(1.0, abs=1e-12)

    def test_operators_in_descending_eigenvalue_order(self):
        # a preparation map from dimension 1: each operator is one eigenvector
        k = choi_to_kraus(ChoiMatrix(1, 2, np.diag([0.5, 1.0]).astype(complex)))
        weights = [np.linalg.norm(op) ** 2 for op in k.operators]
        assert weights == pytest.approx([1.0, 0.5], abs=1e-12)
        assert abs(abs(k.operators[0][1, 0]) - 1) < 1e-12
        assert abs(abs(k.operators[1][0, 0]) - np.sqrt(0.5)) < 1e-12

    def test_operators_are_scaled_eigenvectors(self):
        k = choi_to_kraus(ChoiMatrix(1, 2, I2 + X / 2))
        assert [np.linalg.norm(op) ** 2 for op in k.operators] == pytest.approx([1.5, 0.5], abs=1e-12)
        assert np.allclose(np.abs(k.operators[0][:, 0]), [np.sqrt(0.75)] * 2, atol=1e-12)
        assert abs(np.vdot(k.operators[0][:, 0], k.operators[1][:, 0])) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_orthogonality(self, seed, n1, n2):
        d = n1 * n2
        g = random_complex_matrix(d, d, np.random.default_rng(seed))
        j = ChoiMatrix(n1, n2, g @ g.conj().T)
        k = choi_to_kraus(j)
        vs = np.stack([vec(op) for op in k.operators], axis=1)
        weights = np.sum(np.abs(vs) ** 2, axis=0)
        scale = np.abs(j.matrix).max()
        assert np.all(np.diff(weights) <= 1e-12 * scale)  # descending
        assert np.abs(vs.conj().T @ vs - np.diag(weights)).max() < 1e-10 * scale
        assert np.abs(j.matrix @ vs - vs * weights).max() < 1e-10 * scale  # eigenvectors
        assert frobenius_distance(kraus_to_choi(k).matrix, j.matrix) < 1e-10 * scale

    def test_one_decomposition(self, decompositions):
        # rank 4 is within the pivot cap: the factor's one thin SVD
        choi_to_kraus(kraus_to_choi(random_cptp(3, 2, 4, seed=6)))
        assert decompositions == ["svd"]

    def test_identity_choi_roundtrip(self):
        j = ChoiMatrix(2, 2, np.eye(4, dtype=complex))
        k = choi_to_kraus(j)
        assert len(k.operators) == 4
        for op in k.operators:
            assert np.trace(op.conj().T @ op).real == pytest.approx(1.0)
        assert frobenius_distance(kraus_to_choi(k).matrix, np.eye(4)) < 1e-12

    def test_amplitude_damping_recovery(self):
        truth = zoo_channel("amplitude_damping", [0.5])
        k = choi_to_kraus(kraus_to_choi(truth))
        assert len(k.operators) == 2
        assert kraus_equivalent(k, truth, 1e-9)

    def test_not_cp_error_carries_eigenvalue(self):
        j = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex))
        with pytest.raises(NotCompletelyPositiveError) as excinfo:
            choi_to_kraus(j)
        assert excinfo.value.min_eigenvalue == pytest.approx(-0.1)

    def test_small_negative_eigenvalues_clipped(self):
        j = ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -5e-9]).astype(complex))
        k = choi_to_kraus(j)
        assert len(k.operators) == 3

    def test_zero_choi_yields_single_zero_operator(self):
        k = choi_to_kraus(ChoiMatrix(2, 2, np.zeros((4, 4))))
        assert len(k.operators) == 1
        assert np.linalg.norm(k.operators[0]) == 0.0


class TestLowRankPath:
    """With the float-level cutoff, at every d, a pivoted Cholesky factor
    stands in for eigh where Weyl's bound proves it keeps the same rank;
    otherwise eigh decides, byte for byte as with the factor refused."""

    @pytest.mark.parametrize(
        "n1,n2,rank",
        [
            # small d: full rank is within the pivot cap at d = 4 and 6, past it from d = 9
            *[
                (n1, n2, rank)
                for n1, n2 in [(2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (7, 7)]
                for rank in (1, 2, n1 * n2)
            ],
            (8, 8, 1),
            (8, 8, 2),
            (8, 8, 3),
            (8, 8, LOW_RANK_MAX_PIVOTS),
            (12, 12, 1),
            (12, 12, 2),
            (12, 12, 3),
            (12, 12, LOW_RANK_MAX_PIVOTS),
            (12, 12, LOW_RANK_MAX_PIVOTS + 1),
            (10, 12, 2),
        ],
    )
    def test_agrees_with_eigh(self, monkeypatch, low_rank_attempts, n1, n2, rank):
        d = n1 * n2
        choi = kraus_to_choi(random_cptp(n1, n2, rank, seed=rank))
        factored = choi_to_kraus(choi)
        # past the cap the factor gives up and eigh decides
        assert low_rank_attempts == [rank <= LOW_RANK_MAX_PIVOTS]
        eigh_only(monkeypatch)
        reference = choi_to_kraus(choi)
        assert len(factored.operators) == len(reference.operators) == rank
        assert choi_distance(kraus_to_choi(factored), choi) <= EXACT_TOL * d
        # Tr(A_k^dagger A_k) is the k-th eigenvalue, in descending order
        weights = [np.vdot(op, op).real for op in factored.operators]
        expected = [np.vdot(op, op).real for op in reference.operators]
        assert weights == pytest.approx(expected, rel=1e-12)
        if rank > LOW_RANK_MAX_PIVOTS:
            assert [op.tobytes() for op in factored.operators] == [
                op.tobytes() for op in reference.operators
            ]

    @pytest.mark.parametrize("n1", [8, 10, 16])
    def test_full_rank_falls_back_to_eigh(self, monkeypatch, low_rank_attempts, decompositions, n1):
        # from d = 64 up: the factor gives up at its pivot cap and leaves
        # eigh's bytes
        choi = kraus_to_choi(zoo_channel("depolarizing", [0.3], n1))
        kraus = choi_to_kraus(choi)
        assert len(kraus.operators) == n1**2
        assert low_rank_attempts == [False]
        assert decompositions == ["eigh"]
        eigh_only(monkeypatch)
        reference = choi_to_kraus(choi)
        assert [op.tobytes() for op in kraus.operators] == [
            op.tobytes() for op in reference.operators
        ]

    @pytest.mark.parametrize("n1, scale", [(2, 1e300), (8, 1e300), (12, 1e300), (8, 1e8)])
    def test_cutoff_scales_with_the_matrix(self, n1, scale):
        # the float noise of a scaled rank-2 Choi matrix is far above 1e-10,
        # and far below the float-level cutoff bound(diag J, EXACT_TOL)
        j = kraus_to_choi(random_cptp(n1, n1, 2, 3)).matrix * scale
        kraus = choi_to_kraus(ChoiMatrix(n1, n1, (j + j.conj().T) / 2))
        assert len(kraus.operators) == 2

    def test_acceptance_is_absolute(self, monkeypatch, low_rank_attempts):
        # scaled by 1e4 at d = 64 the factor's sigma, about 1.5e-10, is below
        # the cutoff of about 3.6e-7 but not below EXACT_TOL: the factor
        # gives up and eigh decides, byte for byte as with the factor refused
        j = kraus_to_choi(random_cptp(8, 8, 2, 3)).matrix * 1e4
        choi = ChoiMatrix(8, 8, (j + j.conj().T) / 2)
        kraus = choi_to_kraus(choi)
        assert low_rank_attempts == [False]
        assert len(kraus.operators) == 2
        eigh_only(monkeypatch)
        assert [op.tobytes() for op in kraus.operators] == [
            op.tobytes() for op in choi_to_kraus(choi).operators
        ]

    def test_low_rank_needs_no_eigh(self, decompositions):
        choi_to_kraus(kraus_to_choi(random_cptp(12, 12, 2, seed=4)))
        assert decompositions == ["svd"]

    def test_zero_choi_yields_single_zero_operator(self, low_rank_attempts):
        k = choi_to_kraus(ChoiMatrix(12, 12, np.zeros((144, 144))))
        assert low_rank_attempts == [True]
        assert len(k.operators) == 1
        assert k.operators[0].shape == (12, 12)
        assert np.linalg.norm(k.operators[0]) == 0.0

    def test_not_cp_raises_with_eigh_eigenvalue(self, low_rank_attempts):
        rng = np.random.default_rng(3)
        j = kraus_to_choi(random_cptp(12, 12, 2, seed=3)).matrix
        x = random_complex_matrix(144, 1, rng)[:, 0]
        j = j - 0.1 * np.outer(x, x.conj()) / np.vdot(x, x).real
        with pytest.raises(NotCompletelyPositiveError) as excinfo:
            choi_to_kraus(ChoiMatrix(12, 12, j))
        assert low_rank_attempts == [False]
        least = np.linalg.eigh((j + j.conj().T) / 2)[0][0]
        assert least < -0.05
        assert excinfo.value.min_eigenvalue == float(least)


@pytest.mark.parametrize("n1", [2, 3])
@pytest.mark.parametrize("n2", [2, 3])
class TestRoundTrip:
    def test_choi_preserved_and_actions_agree(self, n1, n2):
        rng = np.random.default_rng(1000 * n1 + n2)
        min_count = -(-n1 // n2)  # trace preservation needs output_dim*count >= input_dim
        for trial in range(10):
            count = int(rng.integers(min_count, n1 * n2 + 1))
            k = random_cptp(n1, n2, count, seed=int(rng.integers(2**32)))
            j = kraus_to_choi(k)
            k2 = choi_to_kraus(j)
            assert len(k2.operators) <= n1 * n2
            assert frobenius_distance(kraus_to_choi(k2).matrix, j.matrix) < 1e-8
            for _ in range(5):
                rho = random_density(n1, rng)
                assert (
                    frobenius_distance(apply_kraus(k, rho), apply_kraus(k2, rho)) < 1e-8
                )

    def test_canonical_orthogonality(self, n1, n2):
        rng = np.random.default_rng(77 + 10 * n1 + n2)
        k = random_cptp(n1, n2, n1 * n2, seed=int(rng.integers(2**32)))
        j = kraus_to_choi(k)
        extracted = choi_to_kraus(j)
        eigs = np.linalg.eigvalsh(j.matrix)[::-1]
        for a, op_a in enumerate(extracted.operators):
            for b, op_b in enumerate(extracted.operators):
                inner = np.trace(op_a.conj().T @ op_b)
                expected = eigs[a] if a == b else 0.0
                assert abs(inner - expected) < 1e-8


def cnot_dephasing_model():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    return StinespringModel(
        system_dim=2,
        ancilla_dim=2,
        output_dim=2,
        trace_dim=2,
        unitary=cnot,
        ancilla_state=np.diag([1, 0]).astype(complex),
        projector=np.eye(2, dtype=complex),
    )


def swap_constant_model():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return StinespringModel(
        system_dim=2,
        ancilla_dim=2,
        output_dim=2,
        trace_dim=2,
        unitary=swap,
        ancilla_state=np.diag([1, 0]).astype(complex),
        projector=np.eye(2, dtype=complex),
    )


class TestStinespring:
    def test_trivial_partition_is_identity(self):
        model = StinespringModel(
            system_dim=2,
            ancilla_dim=1,
            output_dim=2,
            trace_dim=1,
            unitary=I2,
            ancilla_state=np.array([[1.0]]),
            projector=np.array([[1.0]]),
        )
        rho = random_density(2, np.random.default_rng(4))
        assert frobenius_distance(apply_stinespring(model, rho), rho) < 1e-14

    def test_cnot_gives_dephasing(self):
        model = cnot_dephasing_model()
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = random_density(2, rng)
            out = apply_stinespring(model, rho)
            assert frobenius_distance(out, np.diag(np.diag(rho))) < 1e-12

    def test_swap_gives_constant_channel(self):
        model = swap_constant_model()
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density(2, rng)
            out = apply_stinespring(model, rho)
            assert frobenius_distance(out, np.diag([1, 0]) * np.trace(rho)) < 1e-12

    def test_cross_check_against_zoo_kraus(self):
        # dephasing == phase damping at full strength; constant == full decay
        pairs = [
            (cnot_dephasing_model(), zoo_channel("phase_damping", [1.0])),
            (swap_constant_model(), zoo_channel("amplitude_damping", [1.0])),
        ]
        rng = np.random.default_rng(10)
        for model, kraus in pairs:
            for _ in range(20):
                rho = random_density(2, rng)
                assert (
                    frobenius_distance(
                        apply_stinespring(model, rho), apply_kraus(kraus, rho)
                    )
                    < 1e-10
                )

    def test_stinespring_to_choi_matches_kraus(self):
        j = stinespring_to_choi(cnot_dephasing_model())
        expected = kraus_to_choi(zoo_channel("phase_damping", [1.0]))
        assert frobenius_distance(j.matrix, expected.matrix) < 1e-12

    def test_invalid_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            StinespringModel(2, 1, 2, 1, 2 * I2, np.array([[1.0]]), np.array([[1.0]]))

    def test_invalid_ancilla_state_and_projector_rejected(self):
        u = np.eye(4)
        for rho, message in [
            (np.array([[1.0, 1e-9], [0.0, 0.0]]), "ancilla state is not Hermitian"),
            (np.diag([1.0 + 1e-9, -1e-9]), "negative eigenvalue"),
            (np.diag([1.0 + 1e-9, 0.0]), "trace"),
        ]:
            with pytest.raises(ValueError, match=message):
                StinespringModel(2, 2, 2, 2, u, rho, np.eye(2))
        for p, message in [
            (np.diag([1.0, 1.0 + 1e-9]), r"P\^2 = P"),
            (np.array([[1.0, 1e-9], [0.0, 0.0]]), "projector is not Hermitian"),
        ]:
            with pytest.raises(ValueError, match=message):
                StinespringModel(2, 2, 2, 2, u, np.diag([1.0, 0.0]), p)

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must equal"):
            StinespringModel(2, 2, 3, 2, np.eye(4), np.diag([1, 0]), np.eye(2))

    def test_shape_mismatch_on_apply(self):
        with pytest.raises(ValueError, match="input shape"):
            apply_stinespring(cnot_dephasing_model(), np.eye(3))


class TestDerivedArrays:
    def test_conversions_freeze_without_judging(self, judgements):
        # what a conversion computes from a judged channel is frozen, read-only
        # and C-contiguous as a constructor leaves its input, and not judged again
        kraus = random_cptp(3, 2, 2, 1)
        model = cnot_dephasing_model()
        judgements.clear()
        choi = kraus_to_choi(kraus)
        outputs = (choi.matrix, *choi_to_kraus(choi).operators, stinespring_to_choi(model).matrix)
        assert judgements == []
        for array in outputs:
            assert not array.flags.writeable
            assert array.flags.c_contiguous
            with pytest.raises(ValueError):
                array[0, 0] = 5.0

    def test_overflowing_choi_matrix_rejected(self):
        # finite operators whose V V^dagger overflows: J is not judged Hermitian
        # again, but it must still be finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            kraus_to_choi(KrausSet(2, 2, (1e200 * I2,)))


class TestCheckCpTp:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.7, 1.0])
    def test_amplitude_damping_trace_preserving(self, gamma):
        verdict = choi_cp_tp_verdict(kraus_to_choi(zoo_channel("amplitude_damping", [gamma])))
        assert verdict.is_cp
        assert verdict.is_trace_preserving
        assert verdict.is_trace_nonincreasing
        assert verdict.deviation_from_identity < 1e-10

    def test_project_discard_is_trace_decreasing(self):
        verdict = choi_cp_tp_verdict(kraus_to_choi(zoo_channel("project_discard")))
        assert verdict.is_cp
        assert not verdict.is_trace_preserving
        assert verdict.is_trace_nonincreasing

    def test_amplified_identity_not_nonincreasing(self):
        verdict = choi_cp_tp_verdict(kraus_to_choi(KrausSet(2, 2, (np.sqrt(1.5) * I2,))))
        assert not verdict.is_trace_nonincreasing
        assert not verdict.is_trace_preserving
        assert verdict.deviation_from_identity == pytest.approx(0.5 * np.sqrt(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tp_implies_tni(self, seed):
        rng = np.random.default_rng(seed)
        k = random_cptp(2, 2, int(rng.integers(1, 5)), seed)
        verdict = choi_cp_tp_verdict(kraus_to_choi(k))
        assert verdict.is_trace_preserving
        assert verdict.is_trace_nonincreasing

    def test_choi_verdict_agrees_with_kraus_verdict(self):
        # oracle: the trace flags straight from sum_k A_k^dag A_k
        for k in [
            zoo_channel("amplitude_damping", [0.3]),
            zoo_channel("project_discard"),
            KrausSet(2, 2, (np.sqrt(1.5) * I2,)),
            KrausSet(2, 2, (np.diag([np.sqrt(1.5), np.sqrt(0.5)]),)),
        ]:
            gram = sum(op.conj().T @ op for op in k.operators)
            gaps = np.linalg.eigvalsh(gram - I2)
            verdict = choi_cp_tp_verdict(kraus_to_choi(k))
            assert verdict.is_cp
            assert verdict.is_trace_preserving == bool(np.max(np.abs(gaps)) <= 1e-8)
            assert verdict.is_trace_nonincreasing == bool(gaps[-1] <= 1e-8)
            assert verdict.deviation_from_identity == pytest.approx(np.linalg.norm(gram - I2))


class TestKrausEquivalent:
    def test_global_phase_invisible(self):
        assert kraus_equivalent(
            KrausSet(2, 2, (I2,)), KrausSet(2, 2, (np.exp(0.7j) * I2,)), 1e-10
        )

    def test_redecomposition_of_same_choi(self):
        redecomposed = choi_to_kraus(kraus_to_choi(SIGMA_HALVES))
        assert kraus_equivalent(SIGMA_HALVES, redecomposed, 1e-10)

    def test_identity_vs_dephasing(self):
        dephasing = KrausSet(2, 2, (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)))
        assert not kraus_equivalent(KrausSet(2, 2, (I2,)), dephasing, 1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kraus_equivalent(KrausSet(2, 2, (I2,)), KrausSet(3, 3, (np.eye(3),)), 1e-8)


class TestZoo:
    def test_depolarizing_p0_is_identity(self):
        k = zoo_channel("depolarizing", [0.0])
        assert len(k.operators) == 1
        assert frobenius_distance(k.operators[0], I2) < 1e-15

    def test_amplitude_damping_gamma0_drops_zero_operator(self):
        k = zoo_channel("amplitude_damping", [0.0])
        assert len(k.operators) == 1
        assert frobenius_distance(k.operators[0], I2) < 1e-15

    @pytest.mark.parametrize(
        "name, param, count",
        [("depolarizing", 1e-26, 4), ("depolarizing", 1e-24, 4), ("amplitude_damping", 1e-30, 2)],
    )
    def test_tiny_parameter_keeps_every_operator(self, name, param, count):
        # only exact zeros are dropped: a tiny p > 0 is not the identity channel
        k = zoo_channel(name, [param])
        assert len(k.operators) == count
        assert all(np.any(op) for op in k.operators)
        assert choi_cp_tp_verdict(kraus_to_choi(k)).is_trace_preserving

    def test_fully_depolarizing_equals_pauli_set(self):
        assert kraus_equivalent(zoo_channel("depolarizing", [1.0]), SIGMA_HALVES, 1e-10)

    def test_random_cptp_is_trace_preserving(self):
        k = zoo_channel("random_cptp", [7, 3])
        assert len(k.operators) == 3
        gram = sum(op.conj().T @ op for op in k.operators)
        assert np.max(np.abs(gram - I2)) < 1e-10

    def test_random_cptp_rectangular(self):
        k = zoo_channel("random_cptp", [5, 4], input_dim=3, output_dim=2)
        assert (k.input_dim, k.output_dim) == (3, 2)
        assert choi_cp_tp_verdict(kraus_to_choi(k)).is_trace_preserving

    def test_random_cptp_kraus_count_at_most_n1_n2(self):
        # n1*n2 is the largest Kraus rank of any map; one more is refused by name
        assert len(random_cptp(2, 3, 6, 0).operators) == 6
        assert len(zoo_channel("random_cptp", [0, 6], 2, 3).operators) == 6
        for call in (lambda: random_cptp(2, 3, 7, 0), lambda: zoo_channel("random_cptp", [0, 7], 2, 3)):
            with pytest.raises(ValueError, match="kraus_count 7 too large: at most input_dim\\*output_dim = 6"):
                call()

    def test_random_cptp_kraus_count_too_small_for_an_isometry(self):
        # V is (output_dim * count) x input_dim; fewer rows than columns cannot be an isometry
        message = r"^kraus_count 2 too small: need output_dim\*count >= input_dim$"
        with pytest.raises(ValueError, match=message):
            random_cptp(4, 1, 2, 0)

    @pytest.mark.parametrize("name", ["amplitude_damping", "phase_damping"])
    def test_qubit_channels_reject_other_dimensions(self, name):
        with pytest.raises(ValueError, match=rf"^{name} is defined for qubits \(dimension 2\)$"):
            zoo_channel(name, [0.3], input_dim=3)

    def test_depolarizing_dimension_three(self):
        k = zoo_channel("depolarizing", [0.4], input_dim=3)
        verdict = choi_cp_tp_verdict(kraus_to_choi(k))
        assert verdict.is_trace_preserving
        rho = random_density(3, np.random.default_rng(2))
        expected = 0.6 * rho + 0.4 * np.trace(rho) * np.eye(3) / 3
        assert frobenius_distance(apply_kraus(k, rho), expected) < 1e-12

    def test_integer_parameters_must_be_integral(self):
        with pytest.raises(ValueError, match="integer seed"):
            zoo_channel("unitary", [2.7])
        with pytest.raises(ValueError, match="integer count"):
            zoo_channel("random_cptp", [3, 1.5])
        with pytest.raises(ValueError, match="integer seed"):
            zoo_channel("random_cptp", [True, 2])
        # integral floats, as parsed from the command line, stay valid
        assert kraus_equivalent(zoo_channel("unitary", [7.0]), zoo_channel("unitary", [7]), 1e-15)
        assert len(zoo_channel("random_cptp", [3.0, 2.0]).operators) == 2
        # probabilities follow linalg.is_real: a bool or a str is never coerced
        labels = {"depolarizing": "p", "amplitude_damping": "gamma", "phase_damping": "lambda"}
        for name, label in labels.items():
            for bad in (True, np.True_, "0.3"):
                with pytest.raises(ValueError, match=f"channel '{name}' needs {label} in"):
                    zoo_channel(name, [bad])
        assert kraus_equivalent(
            zoo_channel("depolarizing", [np.float32(0.25)]), zoo_channel("depolarizing", [0.25]), 1e-15
        )

        # every other dims, seed and count argument follows linalg.is_int:
        # floats, integral or not, and bools are rejected with the argument named
        rho, u = np.diag([1.0, 0.0]), np.eye(4)
        entry_points = {
            "input_dim": [
                lambda v: zoo_channel("identity", [], v),
                lambda v: random_cptp(v, 2, 2, 0),
                lambda v: KrausSet(v, 2, (I2,)),
                lambda v: ChoiMatrix(v, 2, np.eye(4)),
                lambda v: resource_report(v, 2),
            ],
            "output_dim": [
                lambda v: zoo_channel("random_cptp", [1, 2], 2, v),
                lambda v: random_cptp(2, v, 2, 0),
                lambda v: KrausSet(2, v, (I2,)),
                lambda v: ChoiMatrix(2, v, np.eye(4)),
                lambda v: StinespringModel(2, 2, v, 2, u, rho, I2),
                lambda v: resource_report(2, v),
            ],
            "kraus_count": [lambda v: random_cptp(2, 2, v, 0)],
            "seed": [lambda v: random_cptp(2, 2, 2, v), lambda v: haar_random_unitary(2, v)],
            "dim": [lambda v: haar_random_unitary(v, 0)],
            "system_dim": [lambda v: StinespringModel(v, 2, 2, 2, u, rho, I2)],
            "ancilla_dim": [lambda v: StinespringModel(2, v, 2, 2, u, rho, I2)],
            "trace_dim": [lambda v: StinespringModel(2, 2, 2, v, u, rho, I2)],
        }
        for name, calls in entry_points.items():
            for call in calls:
                for bad in (2.5, 2.0, True):
                    with pytest.raises(ValueError, match=name):
                        call(bad)
                call(np.int64(2))
        assert random_cptp(2, 2, np.int64(2), np.int64(5)).operators[0].tobytes() == (
            random_cptp(2, 2, 2, 5).operators[0].tobytes()
        )
        assert type(KrausSet(np.int64(2), 2, (I2,)).input_dim) is int

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid names"):
            zoo_channel("teleporter", [])

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            zoo_channel("depolarizing", [1.5])

    @pytest.mark.parametrize("name", ZOO_CHANNEL_NAMES)
    def test_wrong_parameter_count(self, name):
        count = ZOO_PARAM_COUNTS[name]
        for k in (count + 1, count - 1) if count else (count + 1,):
            message = rf"^channel '{name}' takes {count} parameter\(s\), got {k}$"
            with pytest.raises(ValueError, match=message):
                zoo_channel(name, [0.5] * k)

    @pytest.mark.parametrize("name", [name for name in ZOO_CHANNEL_NAMES if name != "random_cptp"])
    def test_square_only_channels_reject_rectangular(self, name):
        params = [0.5] * ZOO_PARAM_COUNTS[name]
        with pytest.raises(ValueError, match=rf"^channel '{name}' requires equal input/output dimensions$"):
            zoo_channel(name, params, input_dim=2, output_dim=3)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("amplitude_damping", [], 3), r"^channel 'amplitude_damping' takes 1 parameter\(s\), got 0$"),
            (("phase_damping", [1.5], 3), r"^phase_damping is defined for qubits \(dimension 2\)$"),
            (("unitary", [], 2, 3), r"^channel 'unitary' requires equal input/output dimensions$"),
        ],
    )
    def test_first_broken_rule_wins(self, args, message):
        # name, dimensions, equal dimensions, count, qubit, then the values
        with pytest.raises(ValueError, match=message):
            zoo_channel(*args)

    def test_haar_unitary_is_unitary(self):
        for dim in (2, 3, 5):
            u = haar_random_unitary(dim, 123)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


class TestCompletePositivityExtension:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_extension_preserves_positivity(self, seed):
        rng = np.random.default_rng(seed)
        k = random_cptp(2, 2, int(rng.integers(1, 5)), seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m_tilde = g @ g.conj().T  # random PSD on reference x system
        out = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                out[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2] = apply_kraus(
                    k, m_tilde[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2]
                )
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-8
