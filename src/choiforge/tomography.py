"""Simulated ancilla-assisted process tomography against a blackbox channel.

The pipeline: prepare an entangled input on (reference, system), send the
system half through the unknown channel exactly once, estimate the joint
output density matrix from simulated projective measurements, rescale, and
extract canonical Kraus operators from the eigendecomposition. The channel
is an opaque evaluator; nothing here looks at its internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import (
    KRAUS_DROP_THRESHOLD,
    ChoiMatrix,
    KrausSet,
    StinespringModel,
    _normalize_seed,
    apply_kraus,
    apply_stinespring,
    choi_to_kraus,
    kraus_to_choi,
)
from .linalg import hermitian_eig, hermiticity_deviation, tensor_product

EXACT = None  # shot-budget sentinel: infinite-shot idealization
PSD_TOL = 1e-8
MIN_SCHMIDT_COEFFICIENT = 1e-6
UNITARITY_TOL = 1e-10
SAMPLER_VERSION = 2  # bumped whenever the fixed-seed sampling stream changes


class NotMaximumSchmidtError(ValueError):
    """Input state does not have maximum Schmidt number."""


class SchmidtConditioningError(ValueError):
    """A Schmidt coefficient is too small for stable block rescaling."""


@dataclass(frozen=True, eq=False)
class OpaqueChannel:
    """Blackbox n1 -> n2 channel.

    ``evaluator`` maps an (n1*n1) x (n1*n1) bipartite matrix to its image
    under (identity tensor E); one call is one logical use of the channel
    and the pipeline is allowed nothing else.
    """

    input_dim: int
    output_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_apply_fn(
        cls,
        apply_fn: Callable[[np.ndarray], np.ndarray],
        input_dim: int,
        output_dim: int,
    ) -> "OpaqueChannel":
        """Wrap a density-matrix map into a blockwise (identity tensor E) evaluator."""

        def evaluator(bipartite: np.ndarray) -> np.ndarray:
            n1, n2 = input_dim, output_dim
            out = np.zeros((n1 * n2, n1 * n2), dtype=complex)
            for i in range(n1):
                for j in range(n1):
                    block = bipartite[i * n1 : (i + 1) * n1, j * n1 : (j + 1) * n1]
                    out[i * n2 : (i + 1) * n2, j * n2 : (j + 1) * n2] = apply_fn(block)
            return out

        return cls(input_dim, output_dim, evaluator)

    @classmethod
    def from_kraus(cls, kraus: KrausSet) -> "OpaqueChannel":
        return cls.from_apply_fn(
            lambda m: apply_kraus(kraus, m), kraus.input_dim, kraus.output_dim
        )

    @classmethod
    def from_stinespring(cls, model: StinespringModel) -> "OpaqueChannel":
        return cls.from_apply_fn(
            lambda m: apply_stinespring(model, m), model.system_dim, model.output_dim
        )


@dataclass(frozen=True)
class MaxEntangled:
    """Marker: use the maximally entangled input state."""


@dataclass(frozen=True, eq=False)
class SchmidtInput:
    """Generalized input sum_i alpha_i (U|i>) tensor (V|i>)."""

    alphas: np.ndarray
    left_unitary: np.ndarray
    right_unitary: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float).copy()
        if a.ndim != 1 or a.size < 2:
            raise ValueError("alphas must be a vector of at least two coefficients")
        u = np.asarray(self.left_unitary, dtype=complex).copy()
        v = np.asarray(self.right_unitary, dtype=complex).copy()
        n = a.size
        if u.shape != (n, n) or v.shape != (n, n):
            raise ValueError(
                f"unitaries must be {n}x{n} to match {n} Schmidt coefficients"
            )
        for arr in (a, u, v):
            arr.setflags(write=False)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "left_unitary", u)
        object.__setattr__(self, "right_unitary", v)


@dataclass(frozen=True, eq=False)
class TomographyConfig:
    """Run parameters: shot budget, seed, input state, reconstruction knobs.

    ``shots=EXACT`` runs the infinite-shot idealization. ``kraus_threshold``
    of None picks the mode-dependent default from
    ``default_kraus_threshold``.
    """

    shots: int | None = EXACT
    seed: int = 0
    input_kind: MaxEntangled | SchmidtInput = field(default_factory=MaxEntangled)
    kraus_threshold: float | None = None
    psd_projection: bool = True

    def __post_init__(self):
        if self.shots is not EXACT:
            if not isinstance(self.shots, (int, np.integer)) or self.shots < 1:
                raise ValueError(f"shots must be a positive integer or EXACT, got {self.shots!r}")
        if self.kraus_threshold is not None and self.kraus_threshold < 0:
            raise ValueError(f"kraus_threshold must be nonnegative, got {self.kraus_threshold}")
        if not isinstance(self.input_kind, (MaxEntangled, SchmidtInput)):
            raise ValueError("input_kind must be MaxEntangled or SchmidtInput")


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Reconstruction output plus diagnostics.

    ``estimated_choi`` is reassembled from the returned Kraus set, so the two
    always agree exactly. ``raw_state_estimate`` is the joint-state estimate
    before any positivity projection; ``negativity_removed`` is the total
    magnitude of eigenvalues clipped by that projection. ``shots_used``
    counts state preparations across all ensemble measurements (0 in EXACT
    mode) and ``success_trace`` is the trace of the raw estimate, below 1 for
    trace-decreasing channels.
    """

    estimated_choi: ChoiMatrix
    kraus: KrausSet
    raw_state_estimate: np.ndarray
    negativity_removed: float
    shots_used: int
    success_trace: float


def prepare_max_entangled(dim: int) -> np.ndarray:
    """Unit vector (1/sqrt(dim)) sum_i |i> tensor |i>."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    v = np.zeros(dim * dim, dtype=complex)
    v[:: dim + 1] = 1.0 / math.sqrt(dim)
    return v


def prepare_schmidt_input(alphas, left_unitary, right_unitary) -> np.ndarray:
    """Unit vector sum_i alpha_i (U|i>) tensor (V|i>).

    Every coefficient must be strictly positive (maximum Schmidt number) and
    the squared coefficients must sum to one.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("alphas must be a vector of at least two coefficients")
    if np.any(a <= 0.0):
        raise NotMaximumSchmidtError(
            "not maximum Schmidt number: all coefficients must be strictly positive"
        )
    if abs(float(np.sum(a**2)) - 1.0) > 1e-10:
        raise ValueError("squared Schmidt coefficients must sum to 1")
    n = a.size
    u = np.asarray(left_unitary, dtype=complex)
    v = np.asarray(right_unitary, dtype=complex)
    for label, mat in (("left", u), ("right", v)):
        if mat.shape != (n, n):
            raise ValueError(f"{label} unitary has shape {mat.shape}, expected {(n, n)}")
        if np.max(np.abs(mat.conj().T @ mat - np.eye(n))) > UNITARITY_TOL:
            raise ValueError(f"{label} basis matrix is not unitary to 1e-10")
    state = np.zeros(n * n, dtype=complex)
    for i in range(n):
        state += a[i] * np.kron(u[:, i], v[:, i])
    return state


def joint_output_state(channel: OpaqueChannel, input_vector) -> np.ndarray:
    """One blackbox evaluation: (identity tensor E)(|phi><phi|)."""
    v = np.asarray(input_vector, dtype=complex).reshape(-1)
    n1 = channel.input_dim
    if v.size != n1 * n1:
        raise ValueError(
            f"input vector length {v.size} does not match reference x system dims "
            f"({n1}, {n1})"
        )
    out = np.asarray(channel.evaluator(np.outer(v, v.conj())), dtype=complex)
    d = n1 * channel.output_dim
    if out.shape != (d, d):
        raise ValueError(f"evaluator returned shape {out.shape}, expected {(d, d)}")
    return out


def simulate_state_tomography(rho, shots: int | None, seed: int) -> np.ndarray:
    """Estimate a (possibly subnormalized) density matrix from simulated counts.

    The state is expanded in the orthonormal Hermitian operator basis of the
    scaled identity and the generalized Gell-Mann matrices, ``d**2``
    operators in all. Every operator receives ``shots`` fresh preparations;
    each preparation succeeds with probability Tr(rho) (trace-decreasing
    channels lose shots here) and successful ones are measured projectively
    in the operator's eigenbasis. Each operator has at most three distinct
    eigenvalues (+/-1/sqrt(2) and 0 for a pair operator, two ladder values
    and 0 for a diagonal one), so merging degenerate outcomes turns every
    measurement into a three-outcome one whose Born probabilities are read
    directly off rho without building the basis. All success counts are one
    batched binomial draw and all outcome counts one batched multinomial
    draw from a single generator seeded by ``seed``. Linear inversion of the
    outcome frequencies, entry by entry, gives a Hermitian unbiased estimate
    that is generally not positive. ``shots=EXACT`` returns rho unchanged.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {rho.shape}")
    if hermiticity_deviation(rho) > PSD_TOL:
        raise ValueError("state estimate input is not Hermitian to 1e-8")
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if eigs[0] < -PSD_TOL:
        raise ValueError(f"state is not positive semidefinite: eigenvalue {eigs[0]:.3e}")
    trace = float(np.trace(rho).real)
    if trace > 1.0 + 1e-9:
        raise ValueError(f"state trace {trace} exceeds 1")
    if shots is EXACT:
        return rho.copy()
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer or EXACT, got {shots!r}")
    shots = int(shots)

    dim = rho.shape[0]
    estimate = np.zeros((dim, dim), dtype=complex)
    success_prob = float(np.clip(trace, 0.0, 1.0))
    if success_prob == 0.0:
        return estimate

    # one row of (first, second, zero) outcome probabilities per operator:
    # the identity, the symmetric pairs, the antisymmetric pairs, the ladder
    rho_conditional = rho / trace
    diag = rho_conditional.diagonal().real
    rows, cols = np.triu_indices(dim, 1)
    pair_mass = (diag[rows] + diag[cols]) / 2
    off = rho_conditional[rows, cols]
    below = np.cumsum(diag)
    first = np.concatenate(([1.0], pair_mass + off.real, pair_mass - off.imag, below[:-1]))
    second = np.concatenate(([0.0], pair_mass - off.real, pair_mass + off.imag, diag[1:]))
    zero = np.concatenate(([0.0], 1.0 - 2 * pair_mass, 1.0 - 2 * pair_mass, 1.0 - below[1:]))
    probs = np.clip(np.stack((first, second, zero), axis=1), 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(_normalize_seed(seed))
    successes = rng.binomial(shots, success_prob, size=dim * dim)
    counts = rng.multinomial(successes, probs)

    # invert: pair (j, k) gives entry (j, k); the identity and the ladder give
    # the diagonal, each ladder level l spreading over entries 0..l
    contrast = counts[:, 0] - counts[:, 1]
    n_pairs = rows.size
    sym = contrast[1 : 1 + n_pairs]
    asym = contrast[1 + n_pairs : 1 + 2 * n_pairs]
    upper = (sym - 1j * asym) / (2 * shots)
    estimate[rows, cols] = upper
    estimate[cols, rows] = upper.conj()

    levels = np.arange(1, dim)
    ladder = counts[1 + 2 * n_pairs :]
    weights = (ladder[:, 0] - levels * ladder[:, 1]) / (levels * (levels + 1) * shots)
    diagonal = np.full(dim, counts[0, 0] / (dim * shots))
    diagonal[:-1] += np.cumsum(weights[::-1])[::-1]
    diagonal[1:] -= levels * weights
    np.fill_diagonal(estimate, diagonal)
    return estimate


def project_to_psd(m) -> tuple[np.ndarray, float]:
    """Clip negative eigenvalues to zero.

    Returns the projected matrix and the total magnitude that was clipped.
    """
    eig = hermitian_eig(m, tol=PSD_TOL)
    w = eig.eigenvalues
    clipped_mass = float(-np.sum(w[w < 0.0])) if np.any(w < 0.0) else 0.0
    v = eig.eigenvectors
    projected = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return projected, clipped_mass


def default_kraus_threshold(shots: int | None, input_dim: int) -> float:
    """Eigenvalue cutoff: numerically-zero in EXACT mode, 3x the plug-in
    noise scale input_dim/sqrt(shots) otherwise."""
    if shots is EXACT:
        return KRAUS_DROP_THRESHOLD
    return max(KRAUS_DROP_THRESHOLD, 3.0 * input_dim / math.sqrt(shots))


def reconstruct_from_max_entangled(
    rho_est, input_dim: int, output_dim: int, threshold: float = KRAUS_DROP_THRESHOLD
) -> tuple[ChoiMatrix, KrausSet]:
    """Rescale a joint-state estimate by n1 and extract Kraus operators.

    `rho_est` is the (optionally positivity-projected) estimate of the joint
    output for the maximally entangled input. Returns the full rescaled Choi
    matrix and the Kraus set extracted above `threshold`.
    """
    rho_est = np.asarray(rho_est, dtype=complex)
    choi = ChoiMatrix(input_dim, output_dim, input_dim * rho_est)
    return choi, choi_to_kraus(choi, drop_threshold=threshold)


def reconstruct_from_schmidt(
    rho_est,
    alphas,
    left_unitary,
    right_unitary,
    output_dim: int,
    threshold: float = KRAUS_DROP_THRESHOLD,
) -> tuple[ChoiMatrix, KrausSet]:
    """Reconstruct from the joint output of a general maximum-Schmidt input.

    Rotates the estimate by (U^dagger tensor I), divides block (i, j) by
    alpha_i alpha_j, eigendecomposes to intermediate operators, and returns
    the channel's Kraus operators as (intermediate)V^dagger together with the
    matching full Choi matrix.
    """
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("alphas must be a vector of at least two coefficients")
    if np.any(a <= 0.0):
        raise NotMaximumSchmidtError(
            "not maximum Schmidt number: all coefficients must be strictly positive"
        )
    if np.any(a < MIN_SCHMIDT_COEFFICIENT):
        raise SchmidtConditioningError(
            f"schmidt coefficient below {MIN_SCHMIDT_COEFFICIENT:g}: "
            "block rescaling would amplify noise unboundedly"
        )
    n1 = a.size
    n2 = int(output_dim)
    u = np.asarray(left_unitary, dtype=complex)
    v = np.asarray(right_unitary, dtype=complex)
    rho_est = np.asarray(rho_est, dtype=complex)
    d = n1 * n2
    if rho_est.shape != (d, d):
        raise ValueError(f"estimate has shape {rho_est.shape}, expected {(d, d)}")

    eye_out = np.eye(n2)
    rotated = tensor_product(u.conj().T, eye_out) @ rho_est @ tensor_product(u, eye_out)
    inverse = 1.0 / a
    rotated = rotated * tensor_product(np.outer(inverse, inverse), np.ones((n2, n2)))

    choi_rotated = ChoiMatrix(n1, n2, rotated)
    intermediate = choi_to_kraus(choi_rotated, drop_threshold=threshold)
    operators = tuple(op @ v.conj().T for op in intermediate.operators)
    kraus = KrausSet(n1, n2, operators)

    # undo the right-basis rotation on the Choi matrix itself
    unrotate = tensor_product(v.conj(), eye_out)
    choi = ChoiMatrix(n1, n2, unrotate @ rotated @ unrotate.conj().T)
    return choi, kraus


def run_tomography(channel: OpaqueChannel, config: TomographyConfig) -> TomographyResult:
    """Full pipeline: prepare, evolve once, estimate, project, reconstruct.

    Deterministic for a fixed (seed, shots) pair.
    """
    n1, n2 = channel.input_dim, channel.output_dim
    if isinstance(config.input_kind, SchmidtInput):
        spec = config.input_kind
        if spec.alphas.size != n1:
            raise ValueError(
                f"schmidt input has {spec.alphas.size} coefficients, channel needs {n1}"
            )
        input_vector = prepare_schmidt_input(
            spec.alphas, spec.left_unitary, spec.right_unitary
        )
    else:
        input_vector = prepare_max_entangled(n1)

    rho_out = joint_output_state(channel, input_vector)
    raw_estimate = simulate_state_tomography(rho_out, config.shots, config.seed)

    working = raw_estimate
    negativity_removed = 0.0
    if config.psd_projection:
        working, negativity_removed = project_to_psd(raw_estimate)

    threshold = (
        config.kraus_threshold
        if config.kraus_threshold is not None
        else default_kraus_threshold(config.shots, n1)
    )
    if isinstance(config.input_kind, SchmidtInput):
        spec = config.input_kind
        _, kraus = reconstruct_from_schmidt(
            working, spec.alphas, spec.left_unitary, spec.right_unitary, n2, threshold
        )
    else:
        _, kraus = reconstruct_from_max_entangled(working, n1, n2, threshold)

    shots_used = 0 if config.shots is EXACT else int(config.shots) * (n1 * n2) ** 2
    return TomographyResult(
        estimated_choi=kraus_to_choi(kraus),
        kraus=kraus,
        raw_state_estimate=raw_estimate,
        negativity_removed=negativity_removed,
        shots_used=shots_used,
        success_trace=float(np.trace(raw_estimate).real),
    )
