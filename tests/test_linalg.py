import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_matrix, random_hermitian
from choiforge.linalg import (
    NotHermitianError,
    frobenius_distance,
    hermitian_eig,
    partial_trace,
    tensor_product,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)  # max entangled, n=2


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(I2, I2), np.eye(4))

    def test_projector_times_x(self):
        p0 = np.diag([1, 0]).astype(complex)
        expected = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex
        )
        assert np.array_equal(tensor_product(p0, X), expected)

    def test_column_vectors(self):
        a = np.array([[1], [0]], dtype=complex)
        b = np.array([[0], [1]], dtype=complex)
        assert np.array_equal(tensor_product(a, b), np.array([[0], [1], [0], [0]]))

    @given(st.integers(0, 2**32 - 1))
    def test_associative_on_integer_matrices(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3)]
        a, b, c = mats
        assert np.array_equal(
            tensor_product(tensor_product(a, b), c),
            tensor_product(a, tensor_product(b, c)),
        )


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        rho = np.outer(PHI, PHI.conj())
        assert np.allclose(partial_trace(rho, 2, 2, "first"), I2 / 2, atol=1e-14)

    def test_identity_keep_second(self):
        assert np.allclose(partial_trace(np.eye(4), 2, 2, "second"), 2 * I2)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_product_state_factors(self, dims):
        da, db = dims
        rng = np.random.default_rng(11)
        rho_a = random_hermitian(da, rng)
        rho_b = random_hermitian(db, rng)
        joint = tensor_product(rho_a, rho_b)
        ta, tb = np.trace(rho_a), np.trace(rho_b)
        assert frobenius_distance(partial_trace(joint, da, db, "first"), rho_a * tb) < 1e-10
        assert frobenius_distance(partial_trace(joint, da, db, "second"), rho_b * ta) < 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = random_complex_matrix(6, 6, rng)
        for keep, dims in [("first", (2, 3)), ("second", (3, 2))]:
            reduced = partial_trace(m, dims[0], dims[1], keep)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(5), 2, 2, "first")

    def test_bad_selector(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), 2, 2, "third")


class TestHermitianEig:
    def test_pauli_z(self):
        eig = hermitian_eig(Z)
        assert np.allclose(eig.eigenvalues, [1, -1])
        assert abs(abs(eig.eigenvectors[0, 0]) - 1) < 1e-12
        assert abs(abs(eig.eigenvectors[1, 1]) - 1) < 1e-12

    def test_pauli_x(self):
        eig = hermitian_eig(X)
        assert np.allclose(eig.eigenvalues, [1, -1])
        top = eig.eigenvectors[:, 0]
        assert np.allclose(np.abs(top), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_rank_one_projector(self):
        eig = hermitian_eig(2 * np.outer(PHI, PHI.conj()))
        assert np.allclose(eig.eigenvalues, [2, 0, 0, 0], atol=1e-12)
        top = eig.eigenvectors[:, 0]
        overlap = abs(np.vdot(PHI, top))
        assert abs(overlap - 1) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed, dim):
        h = random_hermitian(dim, np.random.default_rng(seed))
        eig = hermitian_eig(h)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)  # descending
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
        assert frobenius_distance((v * eig.eigenvalues) @ v.conj().T, h) < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_non_hermitian_carries_deviation(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError) as excinfo:
            hermitian_eig(m)
        assert excinfo.value.deviation == pytest.approx(1.0)


class TestFrobeniusDistance:
    def test_self_distance_zero(self):
        m = random_complex_matrix(3, 3, np.random.default_rng(5))
        assert frobenius_distance(m, m) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(I2, np.zeros((2, 2))) == pytest.approx(np.sqrt(2))

    def test_x_vs_z(self):
        assert frobenius_distance(X, Z) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            frobenius_distance(I2, np.eye(3))
