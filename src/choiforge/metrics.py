"""Channel comparison figures and measurement-resource accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix, KrausSet, _kraus_factor, _trace_verdict
from .linalg import bound, check_int, frobenius_distance, partial_trace


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


def _check_dims_match(a: KrausSet | ChoiMatrix, b: KrausSet | ChoiMatrix) -> None:
    if (a.input_dim, a.output_dim) != (b.input_dim, b.output_dim):
        raise ValueError(
            f"dimension mismatch: ({a.input_dim}, {a.output_dim}) vs "
            f"({b.input_dim}, {b.output_dim})"
        )


def choi_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Frobenius distance between two unnormalized Choi matrices."""
    _check_dims_match(a, b)
    return frobenius_distance(a.matrix, b.matrix)


def _factor(channel: KrausSet | ChoiMatrix) -> np.ndarray:
    """A d x r factor V with J = V V^dagger, r <= d, of a CP, trace-preserving map.

    A Kraus set is CP by construction; V is ``_kraus_factor``'s. A Choi
    matrix's one eigh decides CP, its least eigenvalue against bound(J),
    and gives V from the eigenpairs above n1 * 1e-12 (those of J/n1 at or
    below 1e-12 count as zero). Trace preservation is judged by
    ``_trace_verdict`` on G = Tr_out(J)^T against bound(J); for a Kraus set
    G comes from the rows of V, and bound(J) from the diagonal of J, the
    squared row norms |V_i|^2, because a PSD matrix's largest entry is on
    its diagonal. The first failure raises ValueError. A V with more than
    d columns is replaced by R^dagger from the thin QR of V^dagger, since
    V V^dagger = R^dagger R.
    """
    n1 = channel.input_dim
    if isinstance(channel, KrausSet):
        v = _kraus_factor(channel)
        limit = bound(np.sum(np.abs(v) ** 2, axis=1))  # bound(J), from J's diagonal
        rows = v.reshape(n1, -1)  # Tr_out(J) = rows rows^dagger
        gram = (rows @ rows.conj().T).T
    else:
        w, u = np.linalg.eigh(channel.matrix)
        limit = bound(channel.matrix)
        if w[0] < -limit:
            raise ValueError(f"choi matrix is not positive semidefinite: eigenvalue {w[0]:.3e}")
        keep = w > n1 * 1e-12
        v = u[:, keep] * np.sqrt(w[keep])
        gram = partial_trace(channel.matrix, n1, channel.output_dim).T
    preserving, _, deviation = _trace_verdict(gram, limit)
    if not preserving:
        raise ValueError(
            "process fidelity needs trace-preserving channels: "
            f"sum_k A_k^dag A_k differs from I by {deviation:.3e}"
        )
    if v.shape[1] > v.shape[0]:
        v = np.linalg.qr(v.conj().T, mode="r").conj().T
    return v


def process_fidelity(a: KrausSet | ChoiMatrix, b: KrausSet | ChoiMatrix) -> float:
    """Uhlmann fidelity of the trace-normalized Choi states J/n1.

    F = Tr(sqrt(sqrt(rho1) rho2 sqrt(rho1)))**2; symmetric, 1 exactly when
    the channels coincide. Either side may be a Kraus set or a Choi matrix,
    and both must pass ``choi_cp_tp_verdict``'s CP check, then its trace
    preservation check; the first that fails raises ValueError (``_factor``).
    With J1 = V1 V1^dagger and J2 = V2 V2^dagger, Uhlmann's theorem gives
    F = ||V1^dagger V2||_tr**2 / n1**2: one r1 x r2 SVD.
    """
    _check_dims_match(a, b)
    overlap = _factor(a).conj().T @ _factor(b)
    trace_norm = float(np.sum(np.linalg.svd(overlap, compute_uv=False)))
    return min(max(trace_norm**2 / a.input_dim**2, 0.0), 1.0)


def resource_report(input_dim: int, output_dim: int) -> ResourceReport:
    """Measurement counts for an n1 -> n2 channel; dimensions must be integers >= 2."""
    n1, n2 = check_int(input_dim, "input_dim"), check_int(output_dim, "output_dim")
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
