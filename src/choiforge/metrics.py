"""Channel comparison figures and measurement-resource accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix
from .linalg import PSD_TOL, frobenius_distance, hermitian_eig

TRACE_TOL = 1e-6


@dataclass(frozen=True)
class ResourceReport:
    """Ensemble-measurement counts for characterizing an n1 -> n2 channel.

    The joint-state route needs one (n1*n2)-dimensional density matrix,
    i.e. (n1*n2)**2 ensemble measurements; running the channel on a basis of
    n1**2 inputs and measuring each n2-dimensional output costs n1**2 * n2**2.
    Both match the channel's real degrees of freedom.
    """

    input_dim: int
    output_dim: int
    joint_state_dim: int
    ensemble_measurements: int
    prior_method_measurements: int
    degrees_of_freedom: int


def _check_dims_match(a: ChoiMatrix, b: ChoiMatrix) -> None:
    if (a.input_dim, a.output_dim) != (b.input_dim, b.output_dim):
        raise ValueError(
            f"dimension mismatch: ({a.input_dim}, {a.output_dim}) vs "
            f"({b.input_dim}, {b.output_dim})"
        )


def choi_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Frobenius distance between two unnormalized Choi matrices."""
    _check_dims_match(a, b)
    return frobenius_distance(a.matrix, b.matrix)


def _choi_state(j: ChoiMatrix) -> np.ndarray:
    n1 = j.input_dim
    trace = float(np.trace(j.matrix).real)
    if abs(trace - n1) > TRACE_TOL * n1:
        raise ValueError(
            f"process fidelity needs trace-preserving channels: Tr J = {trace:.6g}, "
            f"expected {n1}"
        )
    rho = j.matrix / n1
    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -PSD_TOL:
        raise ValueError(f"choi matrix is not positive semidefinite: eigenvalue {eigs[0]:.3e}")
    return rho


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    eig = hermitian_eig(rho)
    w = np.where(eig.eigenvalues > 1e-12, eig.eigenvalues, 0.0)
    v = eig.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def process_fidelity(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Uhlmann fidelity of the trace-normalized Choi states J/n1.

    F = Tr(sqrt(sqrt(rho1) rho2 sqrt(rho1)))**2; symmetric, 1 exactly when
    the channels coincide. Both inputs must be trace preserving and positive
    semidefinite.
    """
    _check_dims_match(a, b)
    rho1 = _choi_state(a)
    rho2 = _choi_state(b)
    root = _psd_sqrt(rho1)
    inner = root @ rho2 @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    fidelity = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(fidelity, 0.0), 1.0)


def resource_report(input_dim: int, output_dim: int) -> ResourceReport:
    """Measurement counts for an n1 -> n2 channel; dimensions must be >= 2."""
    n1, n2 = int(input_dim), int(output_dim)
    if n1 < 2 or n2 < 2:
        raise ValueError(f"dimensions must be at least 2, got ({n1}, {n2})")
    joint = n1 * n2
    parameters = n1 * n1 * n2 * n2
    return ResourceReport(
        input_dim=n1,
        output_dim=n2,
        joint_state_dim=joint,
        ensemble_measurements=joint * joint,
        prior_method_measurements=parameters,
        degrees_of_freedom=parameters,
    )
