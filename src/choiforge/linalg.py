"""Dense complex linear algebra underneath the channel and tomography code.

Conventions fixed package-wide: bipartite systems are ordered
(reference, system), flattening is row-major, and block (i, j) of a
bipartite matrix is indexed by the first tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

HERMITICITY_TOL = 1e-8
PSD_TOL = 1e-8  # most negative eigenvalue still accepted as positive semidefinite
UNITARITY_TOL = 1e-10  # max |U^dag U - I|; also bounds P^2 = P and Tr rho = 1 of a model


class NotHermitianError(ValueError):
    """Hermiticity violated beyond tolerance; carries the measured deviation."""

    def __init__(self, deviation: float, message: str | None = None):
        super().__init__(
            message or f"matrix is not Hermitian: max |m - m^dag| = {deviation:.3e}"
        )
        self.deviation = deviation


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(
    m, dim_a: int, dim_b: int, keep: Literal["first", "second"]
) -> np.ndarray:
    """Trace out one factor of a bipartite matrix on dimensions (dim_a, dim_b)."""
    m = _as_matrix(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims ({dim_a}, {dim_b})"
        )
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "first":
        return np.einsum("ijkj->ik", t)
    if keep == "second":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def hermiticity_deviation(m) -> float:
    """Largest entry-wise deviation from m = m^dagger."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True, eq=False)
class HermitianEigenDecomposition:
    """Eigenvalues sorted descending plus matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, tol: float = HERMITICITY_TOL) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    The input is symmetrized as (m + m^dagger)/2 before decomposing; inputs
    farther than `tol` from Hermitian are rejected.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    deviation = hermiticity_deviation(m)
    if deviation > tol:
        raise NotHermitianError(deviation)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return HermitianEigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def frobenius_distance(a, b) -> float:
    """sqrt of the summed squared entry differences."""
    x = np.asarray(a, dtype=complex)
    y = np.asarray(b, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y))
