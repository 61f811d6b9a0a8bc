"""Channel comparison figures and measurement-resource accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix, KrausSet, _kraus_factor, _trace_verdict, choi_to_kraus
from .linalg import bound, check_int, frobenius_distance


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

    A Choi matrix is judged CP and factored in one place, ``choi_to_kraus``,
    which raises ``NotCompletelyPositiveError``; a Kraus set is CP by
    construction. V is then ``_kraus_factor``'s. Trace preservation is
    judged by ``_trace_verdict`` on G = Tr_out(J)^T, from the rows of V,
    against bound(J), from the diagonal of J, the squared row norms |V_i|^2,
    because a PSD matrix's largest entry is on its diagonal; a failure
    raises ValueError. A V with more than d columns is replaced by R^dagger
    from the thin QR of V^dagger, since V V^dagger = R^dagger R.
    """
    kraus = channel if isinstance(channel, KrausSet) else choi_to_kraus(channel)
    v = _kraus_factor(kraus)
    limit = bound(np.sum(np.abs(v) ** 2, axis=1))  # bound(J), from J's diagonal
    rows = v.reshape(kraus.input_dim, -1)  # Tr_out(J) = rows rows^dagger
    gram = (rows @ rows.conj().T).T
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
    the channels coincide. Either side may be a Kraus set or a Choi matrix;
    a Choi matrix goes through ``choi_to_kraus``. Both must be CP, then trace
    preserving; the first that fails raises ValueError (``_factor``), a
    ``NotCompletelyPositiveError`` for a Choi matrix that is not CP. With
    J1 = V1 V1^dagger and J2 = V2 V2^dagger, Uhlmann's theorem gives
    F = ||V1^dagger V2||_tr**2 / n1**2: one r1 x r2 SVD.
    """
    _check_dims_match(a, b)
    overlap = _factor(a).conj().T @ _factor(b)
    trace_norm = float(np.sum(np.linalg.svd(overlap, compute_uv=False)))
    return min(max(trace_norm**2 / a.input_dim**2, 0.0), 1.0)


def resource_report(input_dim: int, output_dim: int) -> ResourceReport:
    """Measurement counts for an n1 -> n2 channel; dimensions must be integers >= 2."""
    n1, n2 = check_int(input_dim, "input_dim", 2), check_int(output_dim, "output_dim", 2)
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
