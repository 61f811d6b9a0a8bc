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
    choi_to_kraus,
    kraus_to_choi,
    stinespring_to_choi,
)
from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    UNITARITY_TOL,
    hermitian_eig,
    hermiticity_deviation,
    tensor_product,
)

EXACT = None  # shot-budget sentinel: infinite-shot idealization
MIN_SCHMIDT_COEFFICIENT = 1e-6
SAMPLER_VERSION = 3  # bumped whenever the fixed-seed sampling stream changes


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
    def from_kraus(cls, kraus: KrausSet) -> "OpaqueChannel":
        return cls(
            kraus.input_dim, kraus.output_dim, _choi_evaluator(lambda: kraus_to_choi(kraus))
        )

    @classmethod
    def from_stinespring(cls, model: StinespringModel) -> "OpaqueChannel":
        return cls(
            model.system_dim,
            model.output_dim,
            _choi_evaluator(lambda: stinespring_to_choi(model)),
        )


def _choi_evaluator(make_choi: Callable[[], ChoiMatrix]) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator out[i o, j p] = sum_ab rho[i a, j b] J[a o, b p].

    One matrix product of the realigned input, rows (i, j) and columns
    (a, b), with the realigned Choi matrix, rows (a, b) and columns (o, p).
    The Choi matrix is built by ``make_choi`` inside each call, so wrapping
    a channel costs nothing until it is used.
    """

    def evaluator(bipartite: np.ndarray) -> np.ndarray:
        choi = make_choi()
        n1, n2 = choi.input_dim, choi.output_dim
        rho = np.asarray(bipartite, dtype=complex)
        if rho.shape != (n1 * n1, n1 * n1):
            raise ValueError(
                f"bipartite input has shape {rho.shape}, expected {(n1 * n1, n1 * n1)}"
            )
        rho_r = rho.reshape(n1, n1, n1, n1).transpose(0, 2, 1, 3).reshape(n1 * n1, -1)
        j_r = choi.matrix.reshape(n1, n2, n1, n2).transpose(0, 2, 1, 3).reshape(n1 * n1, -1)
        out = (rho_r @ j_r).reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3)
        return out.reshape(n1 * n2, n1 * n2)

    return evaluator


@dataclass(frozen=True)
class MaxEntangled:
    """Marker: use the maximally entangled input state."""


@dataclass(frozen=True, eq=False)
class SchmidtInput:
    """Generalized input sum_i alpha_i (U|i>) tensor (V|i>).

    Construction checks everything the recipe needs of the input: every
    coefficient strictly positive (maximum Schmidt number), squared
    coefficients summing to one, both bases unitary, and every coefficient
    at least ``MIN_SCHMIDT_COEFFICIENT`` so that block rescaling stays
    stable. A bad input therefore fails before the channel is used.
    """

    alphas: np.ndarray
    left_unitary: np.ndarray
    right_unitary: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float).copy()
        if a.ndim != 1 or a.size < 2 or not np.all(np.isfinite(a)):
            raise ValueError("alphas must be a finite vector of at least two coefficients")
        if np.any(a <= 0.0):
            raise NotMaximumSchmidtError(
                "not maximum Schmidt number: all coefficients must be strictly positive"
            )
        if abs(float(np.sum(a**2)) - 1.0) > 1e-10:
            raise ValueError("squared Schmidt coefficients must sum to 1")
        n = a.size
        u = np.asarray(self.left_unitary, dtype=complex).copy()
        v = np.asarray(self.right_unitary, dtype=complex).copy()
        for label, mat in (("left", u), ("right", v)):
            if mat.shape != (n, n):
                raise ValueError(f"{label} unitary has shape {mat.shape}, expected {(n, n)}")
            if not np.allclose(mat.conj().T @ mat, np.eye(n), rtol=0.0, atol=UNITARITY_TOL):
                raise ValueError(f"{label} basis matrix is not unitary to 1e-10")
        if np.any(a < MIN_SCHMIDT_COEFFICIENT):
            raise SchmidtConditioningError(
                f"schmidt coefficient below {MIN_SCHMIDT_COEFFICIENT:g}: "
                "block rescaling would amplify noise unboundedly"
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


def prepare_schmidt_input(spec: SchmidtInput) -> np.ndarray:
    """Unit vector sum_i alpha_i (U|i>) tensor (V|i>)."""
    return ((spec.left_unitary * spec.alphas) @ spec.right_unitary.T).reshape(-1)


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
    if hermiticity_deviation(rho) > HERMITICITY_TOL:
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
    eig = hermitian_eig(m)
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
) -> KrausSet:
    """Rescale a joint-state estimate by n1 and extract Kraus operators.

    `rho_est` is the (optionally positivity-projected) estimate of the joint
    output for the maximally entangled input. Returns the Kraus set extracted
    above `threshold` from the rescaled Choi matrix.
    """
    rho_est = np.asarray(rho_est, dtype=complex)
    choi = ChoiMatrix(input_dim, output_dim, input_dim * rho_est)
    return choi_to_kraus(choi, drop_threshold=threshold)


def reconstruct_from_schmidt(
    rho_est,
    spec: SchmidtInput,
    output_dim: int,
    threshold: float = KRAUS_DROP_THRESHOLD,
) -> KrausSet:
    """Reconstruct from the joint output of a general maximum-Schmidt input.

    Rotates the estimate by (U^dagger tensor I), divides block (i, j) by
    alpha_i alpha_j, eigendecomposes to intermediate operators, and returns
    the channel's Kraus operators as (intermediate)V^dagger.
    """
    n1 = spec.alphas.size
    n2 = int(output_dim)
    rho_est = np.asarray(rho_est, dtype=complex)
    d = n1 * n2
    if rho_est.shape != (d, d):
        raise ValueError(f"estimate has shape {rho_est.shape}, expected {(d, d)}")

    u = spec.left_unitary
    eye_out = np.eye(n2)
    rotated = tensor_product(u.conj().T, eye_out) @ rho_est @ tensor_product(u, eye_out)
    inverse = 1.0 / spec.alphas
    rotated = rotated * tensor_product(np.outer(inverse, inverse), np.ones((n2, n2)))

    intermediate = choi_to_kraus(ChoiMatrix(n1, n2, rotated), drop_threshold=threshold)
    v_dag = spec.right_unitary.conj().T
    return KrausSet(n1, n2, tuple(op @ v_dag for op in intermediate.operators))


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
        input_vector = prepare_schmidt_input(spec)
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
        kraus = reconstruct_from_schmidt(working, config.input_kind, n2, threshold)
    else:
        kraus = reconstruct_from_max_entangled(working, n1, n2, threshold)

    shots_used = 0 if config.shots is EXACT else int(config.shots) * (n1 * n2) ** 2
    return TomographyResult(
        estimated_choi=kraus_to_choi(kraus),
        kraus=kraus,
        raw_state_estimate=raw_estimate,
        negativity_removed=negativity_removed,
        shots_used=shots_used,
        success_trace=float(np.trace(raw_estimate).real),
    )
