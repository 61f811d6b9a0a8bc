"""Quantum channels as Kraus sets, Choi matrices, and system-ancilla models.

A channel E from dimension n1 to n2 is carried in one of three forms:

* ``KrausSet`` -- operators A_k with E(M) = sum_k A_k M A_k^dagger,
* ``ChoiMatrix`` -- the unnormalized (n1*n2) x (n1*n2) block matrix whose
  (i, j) block (indexed by the reference factor) is E(|i><j|),
* ``StinespringModel`` -- unitary interaction with an ancilla followed by a
  projective post-selection and a partial trace.

Conversions between the first two run through the Choi eigendecomposition;
the extracted Kraus sets are canonical (trace-orthogonal operators). The
eigen step (``_eigen_operators``) takes its cutoff as a number and a
matrix its caller has made bitwise Hermitian. At the
float-level rule (``_float_cutoff``), where J has small Kraus rank, a
pivoted-Cholesky factor and its thin SVD give the same eigenpairs for a
fraction of the cost, and ``eigh`` decides only where they cannot prove it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    EXACT_TOL,
    _as_matrix,
    _eigenvalue_below,
    bound,
    check_hermitian,
    check_int,
    check_unitary,
    is_int,
    is_real,
    partial_trace,
)

# The most pivots of the low-rank path of ``_eigen_operators``. The factor's
# float error grows with the pivots, and with 16 the study's rank-16 rows
# came out at 2-5 times eigh's (``scripts/study.py``).
LOW_RANK_MAX_PIVOTS = 8

_ZOO_PARAM_COUNTS = {
    "identity": 0,
    "unitary": 1,
    "depolarizing": 1,
    "amplitude_damping": 1,
    "phase_damping": 1,
    "project_discard": 0,
    "random_cptp": 2,
}

ZOO_CHANNEL_NAMES = tuple(_ZOO_PARAM_COUNTS)


class NotCompletelyPositiveError(ValueError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""

    def __init__(self, min_eigenvalue: float, limit: float):
        super().__init__(
            "map is not completely positive: "
            f"Choi eigenvalue {min_eigenvalue:.6e} below -{limit:.3e}"
        )
        self.min_eigenvalue = min_eigenvalue


def _frozen_complex(a, name: str, shape: tuple[int, int]) -> np.ndarray:
    m = _as_matrix(a, name)
    if m.shape != shape:
        raise ValueError(f"{name} has shape {m.shape}, expected {shape}")
    m = m.copy()
    m.setflags(write=False)
    return m


def _normalize_seed(seed: int) -> int:
    return check_int(seed, "seed") % 2**64


def _check_dims(channel, *names: str) -> None:
    """Require each named dimension field to be an integer >= 1, stored as an int."""
    for name in names:
        object.__setattr__(channel, name, check_int(getattr(channel, name), name, 1))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Channel E(M) = sum_k A_k M A_k^dagger with n2 x n1 operators A_k.

    The constructor judges user and file input: dimensions, shapes and
    finite entries, each operator copied into a read-only C-contiguous
    array. Whether the set is trace preserving or merely trace
    non-increasing is reported by ``choi_cp_tp_verdict``. A Kraus set the
    package computes from judged input, the eigen operators of
    ``choi_to_kraus`` and ``reconstruct_from_schmidt``, is frozen by
    ``_derived`` instead and not judged again.
    """

    input_dim: int
    output_dim: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_dims(self, "input_dim", "output_dim")
        expected = (self.output_dim, self.input_dim)
        ops = tuple(
            _frozen_complex(op, f"kraus operator {k}", expected)
            for k, op in enumerate(self.operators)
        )
        if not ops:
            raise ValueError("a KrausSet needs at least one operator")
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Unnormalized Choi matrix of an n1 -> n2 map.

    Block (i, j), of size n2 x n2 and indexed by the reference factor, holds
    E(|i><j|). Hermiticity of user and file input is enforced here;
    positivity is a property of the map and is checked by ``choi_to_kraus`` /
    ``choi_cp_tp_verdict``, so that non-CP matrices can still be loaded and
    diagnosed. A Choi matrix the package computes from judged input,
    J = V V^dagger of ``kraus_to_choi`` and the symmetrized J of
    ``stinespring_to_choi``, is frozen by ``_derived`` instead and not
    judged again.
    """

    input_dim: int
    output_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_dims(self, "input_dim", "output_dim")
        n = self.input_dim * self.output_dim
        m = _frozen_complex(self.matrix, "choi matrix", (n, n))
        check_hermitian(m, "choi matrix")
        object.__setattr__(self, "matrix", m)


def _derived(cls, input_dim: int, output_dim: int, data: np.ndarray):
    """A ``KrausSet`` or ``ChoiMatrix`` of arrays the package has just computed
    from input already judged, so nothing is judged again.

    `data` is a fresh complex array: the Choi matrix, or the Kraus operators
    stacked as (k, n2, n1). It is made C-contiguous (a copy only if it is
    not) and read-only, as ``_frozen_complex`` leaves an input, and a Kraus
    set's operators are its k views.
    """
    data = np.ascontiguousarray(data)
    data.setflags(write=False)
    derived = object.__new__(cls)
    object.__setattr__(derived, "input_dim", input_dim)
    object.__setattr__(derived, "output_dim", output_dim)
    if cls is KrausSet:
        object.__setattr__(derived, "operators", tuple(data))
    else:
        object.__setattr__(derived, "matrix", data)
    return derived


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
        _check_dims(self, "system_dim", "ancilla_dim", "output_dim", "trace_dim")
        if self.output_dim * self.trace_dim != self.system_dim * self.ancilla_dim:
            raise ValueError(
                f"output_dim*trace_dim = {self.output_dim * self.trace_dim} must equal "
                f"system_dim*ancilla_dim = {self.system_dim * self.ancilla_dim}"
            )
        n = self.system_dim * self.ancilla_dim
        u = _frozen_complex(self.unitary, "unitary", (n, n))
        check_unitary(u, "unitary")
        na = self.ancilla_dim
        rho = _frozen_complex(self.ancilla_state, "ancilla state", (na, na))
        lowest = _eigenvalue_below(rho, check_hermitian(rho, "ancilla state", EXACT_TOL))
        if lowest is not None:
            raise ValueError(f"ancilla state has negative eigenvalue {lowest:.3e}")
        if abs(np.trace(rho).real - 1.0) > EXACT_TOL:
            raise ValueError(f"ancilla state trace differs from 1 beyond {EXACT_TOL:g}")
        p = _frozen_complex(self.projector, "projector", (self.trace_dim, self.trace_dim))
        limit = check_hermitian(p, "projector", EXACT_TOL)
        if np.abs(p @ p - p).max() > limit:
            raise ValueError(f"projector fails P^2 = P beyond tolerance {limit:.3e}")
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


def _kraus_factor(kraus: KrausSet) -> np.ndarray:
    """The d x r factor V of the Choi matrix J = V V^dagger.

    Column k of V is vec(A_k), whose segment i is column i of A_k.
    """
    d = kraus.input_dim * kraus.output_dim
    return np.array(kraus.operators).transpose(0, 2, 1).reshape(-1, d).T


def kraus_to_choi(kraus: KrausSet) -> ChoiMatrix:
    """Assemble the unnormalized Choi matrix J = V V^dagger (``_kraus_factor``).

    J is Hermitian by construction from a judged Kraus set, so it is frozen
    (``_derived``), not judged again. Only its finiteness is checked: V V^dagger
    overflows when the operators hold entries above about 1e154.
    """
    v = _kraus_factor(kraus)
    j = v @ v.conj().T
    if not np.isfinite(j).all():
        raise ValueError("choi matrix contains non-finite entries")
    return _derived(ChoiMatrix, kraus.input_dim, kraus.output_dim, j)


def _low_rank_columns(
    h: np.ndarray, threshold: float, spare: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """The eigenpairs of a bitwise Hermitian h above `threshold`, as the
    columns sqrt(eigenvalue) * eigenvector of a d x k array, and sigma >=
    ||h - V V^dagger||_F for a factor V; or None where ``np.linalg.eigh``
    must decide. The residual is formed in `spare`, a d x d complex array
    the caller has no more use for.

    A diagonal-pivoting Cholesky (Higham, "Analysis of the Cholesky
    decomposition of a semi-definite matrix", 1990) builds V one column at a
    time, pivoting on the largest residual diagonal entry. It stops when
    that entry is at float level, d eps max_i h_ii, and gives up once
    ``LOW_RANK_MAX_PIVOTS`` pivots leave an entry above that floor, as
    they always do on an h of rank above the cap. Then sigma is
    the Frobenius norm of S = h - V V^dagger, plus the rounding of forming
    S, and the thin SVD V = U Sigma W^dagger gives the columns of U Sigma.
    By Weyl's bound |lambda_i(h) - lambda_i(V V^dagger)| <= sigma, so when
    every squared singular value, and the d - k zeros beside them, is
    farther than sigma from `threshold`, with 4 d eps (tr V V^dagger + sigma)
    more for the rounding of the SVD and of ``eigh``, the eigenvalues of h
    above the cutoff are exactly the kept ones and ``eigh`` would keep as
    many. Otherwise, or where that margin is not below the absolute
    ``EXACT_TOL``, whatever the scale of h, the result is None. As
    V V^dagger is PSD, lambda_min(h) >= -sigma.
    """
    d = len(h)
    eps = np.finfo(float).eps
    diag = h.diagonal().real.copy()
    p = int(diag.argmax())  # a NaN entry is the argmax, and stops the loop
    floor = d * eps * max(float(diag[p]), 0.0)
    rows = np.empty((LOW_RANK_MAX_PIVOTS, d), dtype=complex)  # row k is conj(column k of V)
    k = 0
    while diag[p] > floor:
        if k == LOW_RANK_MAX_PIVOTS:
            return None
        row = rows[k]
        np.matmul(rows[:k, p].conj(), rows[:k], out=row)
        np.subtract(h[p], row, out=row)  # h is bitwise Hermitian: row p is conj(column p)
        row *= 1.0 / math.sqrt(diag[p])
        diag -= row.real**2 + row.imag**2
        k += 1
        p = int(diag.argmax())
    v = rows[:k].conj().T
    gram_trace = float(np.vdot(rows[:k], rows[:k]).real)
    residual = np.matmul(v, rows[:k], out=spare)  # V V^dagger
    np.subtract(h, residual, out=residual)
    norm = float(np.sqrt(np.vdot(residual, residual).real))  # ||residual||_F, one pass
    sigma = norm * (1 + d * d * eps) + 2 * (k + 2) * eps * gram_trace
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    squares = s * s
    margin = sigma + 4 * d * eps * (gram_trace + sigma)
    if not margin < EXACT_TOL or (abs(squares - threshold) <= margin).any():  # NaN gives up
        return None
    kept = int(np.count_nonzero(squares > threshold))  # a prefix: s is descending
    return u[:, :kept] * s[:kept], sigma


def _float_cutoff(matrix: np.ndarray, noise: float) -> float:
    """The float-level Kraus cutoff of a Choi matrix J, max(bound(diag J,
    EXACT_TOL), tau): bound(J, EXACT_TOL) for a PSD J, raised to tau = `noise`.
    A J rescaled from an exact joint state rho carries tau = d eps M /
    alpha_min^2, M = max|rho_ij|: the evaluator rounds each entry of rho by a
    few eps M (Higham, "Accuracy and Stability of Numerical Algorithms",
    ch. 3), an operator norm of up to d times that, and the congruence by
    U diag(1/alpha) scales it by at most 1/alpha_min^2 and adds relative eps
    to entries up to M / alpha_min^2. The count 1 is measured, not proved:
    down to alpha_min = 1e-6 at d <= 256 it kept every true rank, where
    d^2 eps cut depolarizing(0.3) to rank 1.
    """
    return max(bound(matrix.diagonal().real, EXACT_TOL), noise)


def _eigen_operators(
    h: np.ndarray,
    input_dim: int,
    output_dim: int,
    threshold: float,
    factor: bool,
    spare: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """The Kraus operators of a Choi matrix, stacked as (k, n2, n1), a lower
    bound on its least eigenvalue, and the negative eigenvalue mass clipped:
    the one step from a Choi matrix to Kraus form, at the number
    `threshold` the caller resolved.

    h is bitwise Hermitian, as each caller makes it, so it is not
    symmetrized here. With `factor`, as at ``_float_cutoff``, a low-rank
    factor is tried first at every d (``_low_rank_columns``, which may use
    the d x d `spare`); an overflow gives it up. When it is accepted,
    the kept rank is the one ``eigh`` would keep, the bound is -sigma, with
    sigma >= ||h - V V^dagger||_F below EXACT_TOL, and nothing is clipped,
    the float residual being dropped whole. Otherwise one ``np.linalg.eigh``
    of h gives the bound, its least eigenvalue, and the mass, the sum of its
    negative eigenvalues' magnitudes. Each eigenvalue above the cutoff gives
    one operator, its unit eigenvector scaled by sqrt(eigenvalue), in
    descending order, whose n1 segments of length n2 are the operator's
    columns; if none is, one zero operator stands in. Judging the matrix is
    the caller's.
    """
    factored = None
    if factor:
        with np.errstate(all="ignore"):  # a non-finite sigma is never accepted
            factored = _low_rank_columns(h, threshold, spare)
    if factored is not None:
        scaled, sigma = factored
        lowest, clipped = -sigma, 0.0
    else:
        w, v = np.linalg.eigh(h)
        w, v = w[::-1], v[:, ::-1]
        keep = w > threshold
        scaled = v[:, keep] * np.sqrt(w[keep])
        lowest, clipped = float(w[-1]), float(np.sum(-w[w < 0.0]))
    if not scaled.shape[1]:
        return np.zeros((1, output_dim, input_dim), dtype=complex), lowest, clipped
    ops = scaled.T.reshape(-1, input_dim, output_dim).transpose(0, 2, 1)
    return ops, lowest, clipped


def choi_to_kraus(choi: ChoiMatrix) -> KrausSet:
    """Extract a canonical Kraus set from a Choi matrix.

    One operator per eigenvalue above ``_float_cutoff(J, 0.0)`` by
    ``_eigen_operators``, the one step from a Choi matrix to Kraus form: a
    low-rank factor when it is accepted, one eigendecomposition otherwise,
    of h = (J + J^dagger)/2: ``ChoiMatrix`` has judged J Hermitian within
    bound(J), and h is J made bitwise Hermitian. The result is
    trace-orthogonal, Tr(A_k^dagger A_l) = eigenvalue_k * delta_kl, and has at
    most n1*n2 members; eigenvalues in [-bound(J), 0) are dropped as float
    noise, anything lower raises ``NotCompletelyPositiveError`` with ``eigh``'s
    least eigenvalue. An accepted factor proves lambda_min(J) >= -sigma with
    sigma below EXACT_TOL, far inside bound(J), so a non-CP J always reaches
    ``eigh``. The operators are frozen (``_derived``), not judged again.
    """
    m = choi.matrix
    h = np.conjugate(m.T)
    h += m
    h *= 0.5  # the bits of (m + m^dagger) / 2, in one d x d array
    cutoff = _float_cutoff(h, 0.0)
    ops, lowest, _ = _eigen_operators(h, choi.input_dim, choi.output_dim, cutoff, True, np.empty_like(h))
    limit = bound(m)
    if lowest < -limit:
        raise NotCompletelyPositiveError(lowest, limit)
    return _derived(KrausSet, choi.input_dim, choi.output_dim, ops)


def _stinespring_factors(model: StinespringModel) -> tuple[np.ndarray, np.ndarray]:
    """The d x m factors L, R of a system-ancilla model's Choi matrix J = L R^dagger.

    With U indexed as U[(o t), (i a)] (output o, traced-out t, system i,
    ancilla a), J[(i o), (j p)] = sum U[o t i a] rho_a[a b] conj(U[p s j b]) P[s t],
    so L[(i o), (t b)] = sum_a U[o t i a] rho_a[a b] and
    R[(j p), (t b)] = sum_s U[p s j b] conj(P[s t]).
    """
    n1, n2 = model.system_dim, model.output_dim
    u = model.unitary.reshape(n2, model.trace_dim, n1, model.ancilla_dim)
    left = np.einsum("otia,ab->iotb", u, model.ancilla_state)
    right = np.einsum("psjb,st->jptb", u, model.projector.conj())
    d = n1 * n2
    return left.reshape(d, -1), right.reshape(d, -1)


def stinespring_to_choi(model: StinespringModel) -> ChoiMatrix:
    """Choi matrix J = L R^dagger of a system-ancilla model
    (``_stinespring_factors``), in one product. J is symmetrized exactly and
    frozen (``_derived``), not judged again.
    """
    left, right = _stinespring_factors(model)
    j = left @ right.conj().T
    return _derived(ChoiMatrix, model.system_dim, model.output_dim, (j + j.conj().T) / 2)


def _trace_verdict(gram: np.ndarray, limit: float) -> tuple[bool, bool, float]:
    """(trace preserving, trace non-increasing, ||G - I||_F) of a map with
    G = sum_k A_k^dagger A_k: preserving when every eigenvalue of G - I is
    within `limit` of zero, non-increasing when none is above it."""
    gap = gram - np.eye(len(gram))
    gaps = np.linalg.eigvalsh(gap)
    return bool(np.max(np.abs(gaps)) <= limit), bool(gaps[-1] <= limit), float(np.linalg.norm(gap))


def choi_cp_tp_verdict(choi: ChoiMatrix) -> CpTpVerdict:
    """CP and trace verdict of a map, every flag judged against bound(J).

    CP: the least eigenvalue of J is at least -bound(J). Tracing the output
    factor from J gives the transpose of G = sum_k A_k^dagger A_k, which
    ``_trace_verdict`` judges.
    """
    limit = bound(choi.matrix)
    min_eig = float(np.linalg.eigvalsh(choi.matrix)[0])
    gram = partial_trace(choi.matrix, choi.input_dim, choi.output_dim).T
    preserving, nonincreasing, deviation = _trace_verdict(gram, limit)
    return CpTpVerdict(
        is_cp=min_eig >= -limit,
        min_choi_eigenvalue=min_eig,
        is_trace_preserving=preserving,
        is_trace_nonincreasing=nonincreasing,
        deviation_from_identity=deviation,
    )


def haar_random_unitary(dim: int, rng: np.random.Generator | int) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR of a complex Gaussian."""
    dim = check_int(dim, "dim", 1)
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
    kraus_count may not exceed input_dim*output_dim, the largest Kraus rank
    of any map; a larger count is rejected before anything is allocated.
    """
    input_dim = check_int(input_dim, "input_dim", 1)
    output_dim = check_int(output_dim, "output_dim", 1)
    kraus_count = check_int(kraus_count, "kraus_count", 1)
    if kraus_count > input_dim * output_dim:
        raise ValueError(
            f"kraus_count {kraus_count} too large: at most input_dim*output_dim = "
            f"{input_dim * output_dim}, the largest Kraus rank"
        )
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


def _integer_param(name: str, label: str, value: float) -> int:
    """A seed or count from the float parameter vector: an integer, or an
    integral float such as 7.0, which is the one place a float becomes an int."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if not is_int(value):
        raise ValueError(f"channel '{name}' needs an integer {label}, got {value!r}")
    return value


def _unit_interval(name: str, label: str, value: float) -> float:
    """A probability parameter: a real number (``linalg.is_real``) in [0, 1]."""
    if not (is_real(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"channel '{name}' needs {label} in [0, 1], got {value!r}")
    return float(value)


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
      phase_damping           (lambda,)        qubit only
      project_discard         ()               rho -> |0><0| rho |0><0|
      random_cptp             (seed, count)    random trace-preserving channel

    ``params`` is a float vector, so a seed or count may be given as an
    integral float such as 7.0; a fractional value or a bool is rejected.
    ``input_dim`` and ``output_dim`` follow ``linalg.is_int`` and are never
    truncated. Only random_cptp admits output_dim different from input_dim.
    """
    if name not in ZOO_CHANNEL_NAMES:
        raise ValueError(
            f"unknown channel '{name}'; valid names: {', '.join(ZOO_CHANNEL_NAMES)}"
        )
    n = check_int(input_dim, "input_dim", 1)
    out = n if output_dim is None else check_int(output_dim, "output_dim", 1)
    if name != "random_cptp" and out != n:
        raise ValueError(f"channel '{name}' requires equal input/output dimensions")

    count = _ZOO_PARAM_COUNTS[name]
    if len(params) != count:
        raise ValueError(f"channel '{name}' takes {count} parameter(s), got {len(params)}")
    if name in ("amplitude_damping", "phase_damping") and n != 2:
        raise ValueError(f"{name} is defined for qubits (dimension 2)")

    if name == "identity":
        return KrausSet(n, n, (np.eye(n, dtype=complex),))
    if name == "unitary":
        return KrausSet(n, n, (haar_random_unitary(n, _integer_param(name, "seed", params[0])),))
    if name == "project_discard":
        proj = np.zeros((n, n), dtype=complex)
        proj[0, 0] = 1.0
        return KrausSet(n, n, (proj,))
    if name == "random_cptp":
        seed = _integer_param(name, "seed", params[0])
        return random_cptp(n, out, _integer_param(name, "count", params[1]), seed)

    if name == "depolarizing":
        p = _unit_interval(name, "p", params[0])
        shift = np.roll(np.eye(n, dtype=complex), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi / n) ** np.arange(n))
        ops = [np.sqrt(1.0 - p + p / n**2) * np.eye(n, dtype=complex)]
        ops += [
            (np.sqrt(p) / n) * (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
            for a in range(n)
            for b in range(n)
            if a or b
        ]
    elif name == "amplitude_damping":
        gamma = _unit_interval(name, "gamma", params[0])
        ops = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        ]
    else:  # phase_damping
        lam = _unit_interval(name, "lambda", params[0])
        ops = [
            np.diag([1.0, np.sqrt(1.0 - lam)]).astype(complex),
            np.diag([0.0, np.sqrt(lam)]).astype(complex),
        ]
    # a parameter at 0 leaves exact zero operators; any other value, however
    # small, keeps them. The first operator is never zero, so the set is never empty.
    return KrausSet(n, n, tuple(op for op in ops if np.any(op)))
