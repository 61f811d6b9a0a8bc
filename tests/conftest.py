"""Shared numeric helpers for the test suite."""

import numpy as np


def random_complex_matrix(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(dim, rng):
    g = random_complex_matrix(dim, dim, rng)
    return (g + g.conj().T) / 2


def random_density(dim, rng):
    g = random_complex_matrix(dim, dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def hermitian_operator_basis(dim):
    """Dense reference basis for the state-tomography sampler.

    Scaled identity first, then the generalized Gell-Mann family: symmetric
    and antisymmetric pair matrices followed by the diagonal ladder, all with
    unit Hilbert-Schmidt norm. The library never builds these matrices; tests
    use them to check the sampler's closed-form outcome probabilities.
    """
    mats = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(1, dim):
        for j in range(k):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = inv_sqrt2
            mats.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[j, k] = -1j * inv_sqrt2
            asym[k, j] = 1j * inv_sqrt2
            mats.append(asym)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -float(level)
        mats.append(diag / np.sqrt(level * (level + 1)))
    return mats
