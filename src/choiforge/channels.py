"""Quantum channels as Kraus sets, Choi matrices, and system-ancilla models.

A channel E from dimension n1 to n2 is carried in one of three forms:

* ``KrausSet`` -- operators A_k with E(M) = sum_k A_k M A_k^dagger,
* ``ChoiMatrix`` -- the unnormalized (n1*n2) x (n1*n2) block matrix whose
  (i, j) block (indexed by the reference factor) is E(|i><j|),
* ``StinespringModel`` -- unitary interaction with an ancilla followed by a
  projective post-selection and a partial trace.

Conversions between the first two run through the Choi eigendecomposition;
the extracted Kraus sets are canonical (trace-orthogonal operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    UNITARITY_TOL,
    NotHermitianError,
    frobenius_distance,
    hermitian_eig,
    hermiticity_deviation,
    partial_trace,
    tensor_product,
)

KRAUS_DROP_THRESHOLD = 1e-10

ZOO_CHANNEL_NAMES = (
    "identity",
    "unitary",
    "depolarizing",
    "amplitude_damping",
    "phase_damping",
    "project_discard",
    "random_cptp",
)


class NotCompletelyPositiveError(ValueError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""

    def __init__(self, min_eigenvalue: float):
        super().__init__(
            "map is not completely positive: "
            f"Choi eigenvalue {min_eigenvalue:.6e} below -{PSD_TOL:.0e}"
        )
        self.min_eigenvalue = min_eigenvalue


def _frozen_complex(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex).copy()
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    m.setflags(write=False)
    return m


def _normalize_seed(seed: int) -> int:
    return int(seed) % 2**64


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Channel E(M) = sum_k A_k M A_k^dagger with n2 x n1 operators A_k.

    The constructor checks shapes only; whether the set is trace preserving
    or merely trace non-increasing is reported by ``check_cp_tp``.
    """

    input_dim: int
    output_dim: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError(
                f"dimensions must be positive, got ({self.input_dim}, {self.output_dim})"
            )
        ops = tuple(
            _frozen_complex(op, f"kraus operator {k}")
            for k, op in enumerate(self.operators)
        )
        if not ops:
            raise ValueError("a KrausSet needs at least one operator")
        expected = (self.output_dim, self.input_dim)
        for k, op in enumerate(ops):
            if op.shape != expected:
                raise ValueError(
                    f"kraus operator {k} has shape {op.shape}, expected {expected}"
                )
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Unnormalized Choi matrix of an n1 -> n2 map.

    Block (i, j), of size n2 x n2 and indexed by the reference factor, holds
    E(|i><j|). Hermiticity is enforced here; positivity is a property of the
    map and is checked by ``choi_to_kraus`` / the verdict functions, so that
    non-CP matrices can still be loaded and diagnosed.
    """

    input_dim: int
    output_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError(
                f"dimensions must be positive, got ({self.input_dim}, {self.output_dim})"
            )
        m = _frozen_complex(self.matrix, "choi matrix")
        n = self.input_dim * self.output_dim
        if m.shape != (n, n):
            raise ValueError(f"choi matrix has shape {m.shape}, expected {(n, n)}")
        deviation = hermiticity_deviation(m)
        if deviation > HERMITICITY_TOL:
            raise NotHermitianError(
                deviation, f"choi matrix is not Hermitian: deviation {deviation:.3e}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class StinespringModel:
    """Channel realized as Tr_o[U (M tensor rho_a) U^dagger (I tensor P_o)].

    The joint space factors two ways: (system, ancilla) on the way in and
    (output, traced-out) on the way out, so output_dim * trace_dim must equal
    system_dim * ancilla_dim.
    """

    system_dim: int
    ancilla_dim: int
    output_dim: int
    trace_dim: int
    unitary: np.ndarray
    ancilla_state: np.ndarray
    projector: np.ndarray

    def __post_init__(self):
        dims = (self.system_dim, self.ancilla_dim, self.output_dim, self.trace_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        if self.output_dim * self.trace_dim != self.system_dim * self.ancilla_dim:
            raise ValueError(
                f"output_dim*trace_dim = {self.output_dim * self.trace_dim} must equal "
                f"system_dim*ancilla_dim = {self.system_dim * self.ancilla_dim}"
            )
        n = self.system_dim * self.ancilla_dim
        u = _frozen_complex(self.unitary, "unitary")
        if u.shape != (n, n):
            raise ValueError(f"unitary has shape {u.shape}, expected {(n, n)}")
        if np.max(np.abs(u.conj().T @ u - np.eye(n))) > UNITARITY_TOL:
            raise ValueError("unitary fails U^dag U = I beyond tolerance 1e-10")
        rho = _frozen_complex(self.ancilla_state, "ancilla state")
        na = self.ancilla_dim
        if rho.shape != (na, na):
            raise ValueError(f"ancilla state has shape {rho.shape}, expected {(na, na)}")
        if hermiticity_deviation(rho) > UNITARITY_TOL:
            raise ValueError("ancilla state is not Hermitian to 1e-10")
        eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
        if eigs[0] < -UNITARITY_TOL:
            raise ValueError(f"ancilla state has negative eigenvalue {eigs[0]:.3e}")
        if abs(np.trace(rho).real - 1.0) > UNITARITY_TOL:
            raise ValueError("ancilla state trace differs from 1 beyond 1e-10")
        p = _frozen_complex(self.projector, "projector")
        no = self.trace_dim
        if p.shape != (no, no):
            raise ValueError(f"projector has shape {p.shape}, expected {(no, no)}")
        if hermiticity_deviation(p) > UNITARITY_TOL or np.max(np.abs(p @ p - p)) > UNITARITY_TOL:
            raise ValueError("projector fails P = P^dag = P^2 beyond tolerance 1e-10")
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "ancilla_state", rho)
        object.__setattr__(self, "projector", p)


@dataclass(frozen=True)
class CpTpVerdict:
    """Complete-positivity and trace behavior of a map."""

    is_cp: bool
    min_choi_eigenvalue: float
    is_trace_preserving: bool
    is_trace_nonincreasing: bool
    deviation_from_identity: float


def apply_kraus(kraus: KrausSet, m) -> np.ndarray:
    """Apply E(M) = sum_k A_k M A_k^dagger."""
    m = np.asarray(m, dtype=complex)
    n1 = kraus.input_dim
    if m.shape != (n1, n1):
        raise ValueError(
            f"input shape {m.shape} does not match channel input dimension {n1}"
        )
    out = np.zeros((kraus.output_dim, kraus.output_dim), dtype=complex)
    for op in kraus.operators:
        out += op @ m @ op.conj().T
    return out


def kraus_to_choi(kraus: KrausSet) -> ChoiMatrix:
    """Assemble the unnormalized Choi matrix J = V V^dagger.

    Column k of V is vec(A_k), whose segment i is column i of A_k.
    """
    d = kraus.input_dim * kraus.output_dim
    v = np.stack(kraus.operators).transpose(0, 2, 1).reshape(-1, d).T
    return ChoiMatrix(kraus.input_dim, kraus.output_dim, v @ v.conj().T)


def choi_to_kraus(
    choi: ChoiMatrix, drop_threshold: float = KRAUS_DROP_THRESHOLD
) -> KrausSet:
    """Extract a canonical Kraus set from a Choi matrix.

    Each unit eigenvector with eigenvalue above `drop_threshold` is scaled by
    sqrt(eigenvalue) and its n1 segments of length n2 become the columns of
    one operator. The result is trace-orthogonal,
    Tr(A_k^dagger A_l) = eigenvalue_k * delta_kl, and has at most n1*n2
    members; eigenvalues in [-1e-8, 0) are clipped to zero, anything lower
    raises ``NotCompletelyPositiveError``.
    """
    eig = hermitian_eig(choi.matrix)
    min_eig = float(eig.eigenvalues[-1])
    if min_eig < -PSD_TOL:
        raise NotCompletelyPositiveError(min_eig)
    ops = []
    for lam, vec in zip(eig.eigenvalues, eig.eigenvectors.T):
        if lam > drop_threshold:
            scaled = np.sqrt(lam) * vec
            ops.append(scaled.reshape(choi.input_dim, choi.output_dim).T)
    if not ops:
        ops.append(np.zeros((choi.output_dim, choi.input_dim), dtype=complex))
    return KrausSet(choi.input_dim, choi.output_dim, tuple(ops))


def apply_stinespring(model: StinespringModel, m) -> np.ndarray:
    """Evaluate Tr_o[U (M tensor rho_a) U^dagger (I tensor P_o)] literally."""
    m = np.asarray(m, dtype=complex)
    n1 = model.system_dim
    if m.shape != (n1, n1):
        raise ValueError(
            f"input shape {m.shape} does not match system dimension {n1}"
        )
    joint = model.unitary @ tensor_product(m, model.ancilla_state) @ model.unitary.conj().T
    joint = joint @ tensor_product(np.eye(model.output_dim), model.projector)
    return partial_trace(joint, model.output_dim, model.trace_dim, keep="first")


def stinespring_to_choi(model: StinespringModel) -> ChoiMatrix:
    """Choi matrix of a system-ancilla model in one contraction.

    With U indexed as U[(o t), (i a)] (output o, traced-out t, system i,
    ancilla a), J[(i o), (j p)] = sum U[o t i a] rho_a[a b] conj(U[p s j b]) P[s t].
    """
    n1, n2 = model.system_dim, model.output_dim
    u = model.unitary.reshape(n2, model.trace_dim, n1, model.ancilla_dim)
    left = np.einsum("otia,ab->iotb", u, model.ancilla_state)
    right = np.einsum("psjb,st->jptb", u.conj(), model.projector)
    d = n1 * n2
    j = left.reshape(d, -1) @ right.reshape(d, -1).T
    return ChoiMatrix(n1, n2, (j + j.conj().T) / 2)


def _trace_verdict(min_choi_eig: float, gram: np.ndarray, dim: int, tol: float) -> CpTpVerdict:
    gaps = np.linalg.eigvalsh(gram - np.eye(dim))
    return CpTpVerdict(
        is_cp=min_choi_eig >= -tol,
        min_choi_eigenvalue=min_choi_eig,
        is_trace_preserving=bool(np.max(np.abs(gaps)) <= tol),
        is_trace_nonincreasing=bool(gaps[-1] <= tol),
        deviation_from_identity=float(np.linalg.norm(gram - np.eye(dim))),
    )


def check_cp_tp(kraus: KrausSet, tol: float = PSD_TOL) -> CpTpVerdict:
    """CP and trace-preservation verdict for a Kraus set.

    The CP flag is always true for a genuine operator-sum form; it is
    reported so the same verdict type can be reused on estimated data.
    """
    choi = kraus_to_choi(kraus)
    min_eig = float(np.linalg.eigvalsh(choi.matrix)[0])
    gram = np.zeros((kraus.input_dim, kraus.input_dim), dtype=complex)
    for op in kraus.operators:
        gram += op.conj().T @ op
    return _trace_verdict(min_eig, gram, kraus.input_dim, tol)


def choi_cp_tp_verdict(choi: ChoiMatrix, tol: float = PSD_TOL) -> CpTpVerdict:
    """Verdict computed directly from a Choi matrix.

    Tracing the output factor from J gives the transpose of
    sum_k A_k^dagger A_k, which drives the trace flags.
    """
    min_eig = float(np.linalg.eigvalsh(choi.matrix)[0])
    gram = partial_trace(
        choi.matrix, choi.input_dim, choi.output_dim, keep="first"
    ).T
    return _trace_verdict(min_eig, gram, choi.input_dim, tol)


def kraus_equivalent(k1: KrausSet, k2: KrausSet, tol: float) -> bool:
    """Whether two Kraus sets describe the same channel.

    Judged by Choi-matrix distance, which is blind to global phases and to
    the isometric mixing freedom among operators.
    """
    if (k1.input_dim, k1.output_dim) != (k2.input_dim, k2.output_dim):
        raise ValueError(
            f"dimension mismatch: ({k1.input_dim}, {k1.output_dim}) vs "
            f"({k2.input_dim}, {k2.output_dim})"
        )
    return frobenius_distance(kraus_to_choi(k1).matrix, kraus_to_choi(k2).matrix) < tol


def haar_random_unitary(dim: int, rng: np.random.Generator | int) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR of a complex Gaussian."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(_normalize_seed(rng))
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_cptp(input_dim: int, output_dim: int, kraus_count: int, seed: int) -> KrausSet:
    """Random trace-preserving channel from a Haar-ish random isometry.

    Orthonormalizes the columns of an (output_dim * kraus_count) x input_dim
    complex Gaussian matrix and slices the isometry into kraus_count blocks
    of output_dim rows, so sum_k A_k^dagger A_k = I up to float error.
    """
    if kraus_count < 1:
        raise ValueError(f"kraus_count must be positive, got {kraus_count}")
    rows = output_dim * kraus_count
    if rows < input_dim:
        raise ValueError(
            f"kraus_count {kraus_count} too small: need output_dim*count >= input_dim"
        )
    rng = np.random.default_rng(_normalize_seed(seed))
    z = rng.standard_normal((rows, input_dim)) + 1j * rng.standard_normal((rows, input_dim))
    q, _ = np.linalg.qr(z)
    ops = tuple(q[k * output_dim : (k + 1) * output_dim, :] for k in range(kraus_count))
    return KrausSet(input_dim, output_dim, ops)


def _weyl_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    omega = np.exp(2j * np.pi / dim)
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    clock = np.diag(omega ** np.arange(dim))
    return shift, clock


def _require_params(name: str, params: Sequence[float], count: int) -> None:
    if len(params) != count:
        raise ValueError(f"channel '{name}' takes {count} parameter(s), got {len(params)}")


def _unit_interval(name: str, label: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"channel '{name}' needs {label} in [0, 1], got {value}")
    return value


def _drop_zero_operators(ops: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    kept = tuple(op for op in ops if np.linalg.norm(op) > 1e-12)
    return kept if kept else (ops[0],)


def zoo_channel(
    name: str,
    params: Sequence[float] = (),
    input_dim: int = 2,
    output_dim: int | None = None,
) -> KrausSet:
    """Construct a named test channel as a Kraus set.

    Names and parameters:
      identity                ()
      unitary                 (seed,)          Haar-random unitary conjugation
      depolarizing            (p,)             (1-p) rho + p Tr(rho) I/n
      amplitude_damping       (gamma,)         qubit only
      phase_damping           (lam,)           qubit only
      project_discard         ()               rho -> |0><0| rho |0><0|
      random_cptp             (seed, count)    random trace-preserving channel

    Only random_cptp admits output_dim different from input_dim.
    """
    if name not in ZOO_CHANNEL_NAMES:
        raise ValueError(
            f"unknown channel '{name}'; valid names: {', '.join(ZOO_CHANNEL_NAMES)}"
        )
    n = int(input_dim)
    if n < 1:
        raise ValueError(f"input dimension must be positive, got {n}")
    out = n if output_dim is None else int(output_dim)
    if name != "random_cptp" and out != n:
        raise ValueError(f"channel '{name}' requires equal input/output dimensions")

    if name == "identity":
        _require_params(name, params, 0)
        return KrausSet(n, n, (np.eye(n, dtype=complex),))

    if name == "unitary":
        _require_params(name, params, 1)
        return KrausSet(n, n, (haar_random_unitary(n, int(params[0])),))

    if name == "depolarizing":
        _require_params(name, params, 1)
        p = _unit_interval(name, "p", params[0])
        shift, clock = _weyl_operators(n)
        ops = [np.sqrt(1.0 - p + p / n**2) * np.eye(n, dtype=complex)]
        for a in range(n):
            for b in range(n):
                if a == 0 and b == 0:
                    continue
                ops.append(
                    (np.sqrt(p) / n)
                    * (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
                )
        return KrausSet(n, n, _drop_zero_operators(ops))

    if name == "amplitude_damping":
        _require_params(name, params, 1)
        if n != 2:
            raise ValueError("amplitude_damping is defined for qubits (dimension 2)")
        gamma = _unit_interval(name, "gamma", params[0])
        a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
        a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        return KrausSet(2, 2, _drop_zero_operators([a0, a1]))

    if name == "phase_damping":
        _require_params(name, params, 1)
        if n != 2:
            raise ValueError("phase_damping is defined for qubits (dimension 2)")
        lam = _unit_interval(name, "lambda", params[0])
        a0 = np.diag([1.0, np.sqrt(1.0 - lam)]).astype(complex)
        a1 = np.diag([0.0, np.sqrt(lam)]).astype(complex)
        return KrausSet(2, 2, _drop_zero_operators([a0, a1]))

    if name == "project_discard":
        _require_params(name, params, 0)
        proj = np.zeros((n, n), dtype=complex)
        proj[0, 0] = 1.0
        return KrausSet(n, n, (proj,))

    # random_cptp
    _require_params(name, params, 2)
    seed, count = int(params[0]), int(params[1])
    return random_cptp(n, out, count, seed)
