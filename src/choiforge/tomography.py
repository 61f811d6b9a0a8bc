"""Simulated ancilla-assisted process tomography against a blackbox channel.

The pipeline: prepare an entangled input on (reference, system), send the
system half through the unknown channel exactly once, estimate the joint
output density matrix from simulated projective measurements, rescale, and
extract canonical Kraus operators from the eigendecomposition above the
cutoff ``_schmidt_kraus`` picks. An exact run of a channel of small Kraus
rank reads them off a pivoted-Cholesky factor instead, when Weyl's bound
proves them (``channels._eigen_operators``). The channel is an opaque
evaluator; nothing here looks at its internals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (
    ChoiMatrix,
    KrausSet,
    StinespringModel,
    _check_dims,
    _derived,
    _eigen_operators,
    _float_cutoff,
    _frozen_complex,
    _kraus_factor,
    _normalize_seed,
    _stinespring_factors,
    kraus_to_choi,
)
from .linalg import (
    EXACT_TOL,
    TOL,
    _as_numeric,
    _eigenvalue_below,
    bound,
    check_hermitian,
    check_int,
    check_unitary,
    is_int,
    is_real,
)

EXACT = None  # shot-budget sentinel: infinite-shot idealization
MIN_SCHMIDT_COEFFICIENT = 1e-6
SAMPLER_VERSION = 5  # bumped whenever the fixed-seed sampling stream changes
RECONSTRUCTION_VERSION = 8  # bumped whenever the bytes tomograph writes for a fixed-seed run change
MAX_SHOTS = 2**53  # every count below it is exact in a float64


class NotMaximumSchmidtError(ValueError):
    """Input state does not have maximum Schmidt number."""


class SchmidtConditioningError(ValueError):
    """A Schmidt coefficient is too small for stable block rescaling."""


@dataclass(frozen=True, eq=False)
class OpaqueChannel:
    """Blackbox n1 -> n2 channel.

    ``evaluator`` maps an input vector |phi> of length n1*n1, reference
    index major, to the (n1*n2) x (n1*n2) output (identity tensor
    E)(|phi><phi|); one call is one logical use of the channel and the
    pipeline is allowed nothing else.
    """

    input_dim: int
    output_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        _check_dims(self, "input_dim", "output_dim")

    @classmethod
    def from_kraus(cls, kraus: KrausSet) -> "OpaqueChannel":
        """The channel of a Kraus set, applied through the factor V of
        J = V V^dagger (``channels._kraus_factor``), without building J."""
        v = _kraus_factor(kraus)
        return cls(kraus.input_dim, kraus.output_dim, _factor_evaluator(kraus.input_dim, v, v))

    @classmethod
    def from_stinespring(cls, model: StinespringModel) -> "OpaqueChannel":
        """The channel of a system-ancilla model, applied through the
        factors L, R of its Choi matrix J = L R^dagger
        (``channels._stinespring_factors``), without building J."""
        left, right = _stinespring_factors(model)
        return cls(model.system_dim, model.output_dim, _factor_evaluator(model.system_dim, left, right))


def _factor_evaluator(
    n1: int, left: np.ndarray, right: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of (identity tensor E) on input vectors of length n1*n1,
    from d x m factors L, R of the channel's Choi matrix J = L R^dagger.

    With Phi = phi.reshape(n1, n1), rows the reference and columns the
    system, the output is out[i o, j p] = sum_ab Phi[i, a] conj(Phi[j, b])
    J[a o, b p] = lift(L) lift(R)^dagger, where lift(F) = (Phi tensor I) F
    is one product of Phi with F's n1 row blocks side by side. No d x d
    input and no J is formed. L and R are built once, when the channel is
    wrapped, and kept by the evaluator; a Kraus set's L and R are one array,
    lifted once.
    """
    d = len(left)

    def evaluator(input_vector: np.ndarray) -> np.ndarray:
        v = np.asarray(input_vector, dtype=complex)
        if v.shape != (n1 * n1,):
            raise ValueError(f"input vector has shape {v.shape}, expected {(n1 * n1,)}")
        phi = v.reshape(n1, n1)
        lifted_left = (phi @ left.reshape(n1, -1)).reshape(d, -1)
        lifted_right = lifted_left if right is left else (phi @ right.reshape(n1, -1)).reshape(d, -1)
        return lifted_left @ lifted_right.conj().T

    return evaluator


@dataclass(frozen=True, eq=False)
class SchmidtInput:
    """Generalized input sum_i alpha_i (U|i>) tensor (V|i>).

    The maximally entangled input is the uniform case, alpha_i = 1/sqrt(n)
    with U = V = I.

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
        a = _as_numeric(self.alphas, "alphas", float).copy()
        if a.ndim != 1 or a.size < 2 or not np.all(np.isfinite(a)):
            raise ValueError("a Schmidt input needs a finite vector of at least two coefficients")
        if np.any(a <= 0.0):
            raise NotMaximumSchmidtError(
                "not maximum Schmidt number: all coefficients must be strictly positive"
            )
        if abs(float(np.sum(a**2)) - 1.0) > EXACT_TOL:
            raise ValueError(f"squared Schmidt coefficients must sum to 1 within {EXACT_TOL:g}")
        n = a.size
        u = _frozen_complex(self.left_unitary, "left unitary", (n, n))
        v = _frozen_complex(self.right_unitary, "right unitary", (n, n))
        check_unitary(u, "left basis matrix")
        check_unitary(v, "right basis matrix")
        if np.any(a < MIN_SCHMIDT_COEFFICIENT):
            raise SchmidtConditioningError(
                f"schmidt coefficient below {MIN_SCHMIDT_COEFFICIENT:g}: "
                "block rescaling would amplify noise unboundedly"
            )
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "left_unitary", u)
        object.__setattr__(self, "right_unitary", v)


def _check_threshold(threshold, name: str):
    """``threshold`` if it is None or a real number (``linalg.is_real``),
    finite and nonnegative; anything else raises ValueError naming `name`."""
    try:
        valid = threshold is None or is_real(threshold) and 0 <= float(threshold) < math.inf
    except OverflowError:  # an int that no float can hold
        valid = False
    if not valid:
        raise ValueError(f"{name} must be finite and nonnegative, got {threshold!r}")
    return threshold


def _check_shots(shots) -> int | None:
    """``shots`` as an int in [1, MAX_SHOTS], or EXACT; anything else raises ValueError."""
    if shots is EXACT:
        return EXACT
    if not (is_int(shots) and shots >= 1):
        raise ValueError(f"shots must be a positive integer or EXACT, got {shots!r}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most MAX_SHOTS = 2**53, got {shots!r}")
    return int(shots)


@dataclass(frozen=True, eq=False)
class TomographyConfig:
    """Run parameters: shot budget, seed, input state, eigenvalue cutoff.

    ``shots`` is a positive integer up to ``MAX_SHOTS`` or ``EXACT``, the
    infinite-shot idealization; ``seed`` is an integer; integers follow
    ``linalg.is_int``, so bools and floats are neither. ``input_kind`` of
    None, the default, is the maximally entangled input, which
    ``run_tomography`` builds as the uniform ``SchmidtInput`` for the
    channel's input dimension. ``kraus_threshold`` must be finite and
    nonnegative; None picks the cutoff from the shots (``_schmidt_kraus``):
    3 n1/sqrt(shots) for a finite count, the exact rule for EXACT.
    """

    shots: int | None = EXACT
    seed: int = 0
    input_kind: SchmidtInput | None = None
    kraus_threshold: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "shots", _check_shots(self.shots))
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        _check_threshold(self.kraus_threshold, "kraus_threshold")
        if self.input_kind is not None and not isinstance(self.input_kind, SchmidtInput):
            raise ValueError("input_kind must be None (maximally entangled) or a SchmidtInput")


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Reconstruction output plus diagnostics: the Kraus set is the result.

    ``negativity_removed`` is the total magnitude of the negative eigenvalues
    clipped from the Choi estimate, the joint-state estimate rescaled by the
    input's Schmidt coefficients (n1 times the estimate for the maximally
    entangled input), 0.0 where the low-rank factor gave the Kraus set
    (``channels._eigen_operators``). ``shots_used`` counts state
    preparations across all ensemble measurements (0 in EXACT mode) and
    ``success_trace`` is the trace of the joint-state estimate, below 1 for
    trace-decreasing channels. ``estimated_choi``, J =
    ``kraus_to_choi(kraus)``, is built on first access and kept.
    """

    kraus: KrausSet
    negativity_removed: float
    shots_used: int
    success_trace: float

    @functools.cached_property
    def estimated_choi(self) -> ChoiMatrix:
        return kraus_to_choi(self.kraus)


def prepare_schmidt_input(spec: SchmidtInput) -> np.ndarray:
    """Unit vector sum_i alpha_i (U|i>) tensor (V|i>)."""
    return ((spec.left_unitary * spec.alphas) @ spec.right_unitary.T).reshape(-1)


def joint_output_state(channel: OpaqueChannel, input_vector) -> np.ndarray:
    """One blackbox evaluation: (identity tensor E)(|phi><phi|), the
    evaluator's image of the input vector |phi>, flattened to length n1*n1,
    reference index major. The state is passed as that vector; the
    n1^2 x n1^2 matrix |phi><phi| is never formed."""
    v = _as_numeric(input_vector, "input_vector").reshape(-1)
    n1 = channel.input_dim
    if v.size != n1 * n1:
        raise ValueError(
            f"input vector length {v.size} does not match reference x system dims "
            f"({n1}, {n1})"
        )
    out = _as_numeric(channel.evaluator(v), "evaluator output")
    d = n1 * channel.output_dim
    if out.shape != (d, d):
        raise ValueError(f"evaluator returned shape {out.shape}, expected {(d, d)}")
    return out


def _check_state(rho: np.ndarray, limit: float | None) -> float:
    """Judge a Hermitian joint state: eigenvalues >= -limit, unless `limit`
    is None because the caller has already proved it, then Tr rho <= 1 +
    EXACT_TOL. Returns the trace; raises ValueError naming the first fault."""
    if limit is not None:
        lowest = _eigenvalue_below(rho, limit)
        if lowest is not None:
            raise ValueError(f"state is not positive semidefinite: eigenvalue {lowest:.3e}")
    trace = float(np.trace(rho).real)
    if trace > 1.0 + EXACT_TOL:
        raise ValueError(f"state trace {trace} exceeds 1")
    return trace


@functools.cache
def _sampler_plan(dim: int) -> tuple[np.ndarray, ...]:
    """What the sampler's table and scatter need of ``dim`` alone, built once
    per dimension, every array read-only: the upper-triangle ``rows`` and
    ``cols`` of the pair operators, their flat indices ``upper`` and
    ``lower`` into a dim x dim matrix, the ladder ``levels`` 1..dim-1 and
    their normalisers l(l+1)."""
    rows, cols = np.triu_indices(dim, 1)
    levels = np.arange(1.0, dim)  # float: l(l+1)*shots would overflow int64
    plan = (rows, cols, rows * dim + cols, cols * dim + rows, levels, levels * (levels + 1))
    for array in plan:
        array.setflags(write=False)
    return plan


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
    that is generally not positive. ``shots=EXACT`` returns a copy of rho; a
    finite count must be an integer in [1, MAX_SHOTS], where every count is
    exact in a float64. rho must be a non-empty square matrix, finite,
    Hermitian and PSD to within bound(rho), with trace <= 1 + EXACT_TOL,
    whatever the shot count; positivity costs one Cholesky certificate
    (``linalg._eigenvalue_below``), and ``eigvalsh`` runs only when it fails.
    """
    rho = _as_numeric(rho, "state")
    if rho.ndim != 2:
        raise ValueError(f"state must be 2-dimensional, got shape {rho.shape}")
    trace = _check_state(rho, check_hermitian(rho, "state"))
    shots = _check_shots(shots)
    seed = _normalize_seed(seed)
    if shots is EXACT:
        return rho.copy()

    dim = rho.shape[0]
    estimate = np.zeros((dim, dim), dtype=complex)
    success_prob = min(max(trace, 0.0), 1.0)
    if success_prob == 0.0:
        return estimate

    # one row of (first, second, zero) outcome probabilities per operator:
    # the identity, the symmetric pairs, the antisymmetric pairs, the ladder
    rows, cols, upper, lower, levels, norms = _sampler_plan(dim)
    n_pairs = rows.size
    diag = (rho.diagonal() / trace).real
    pair_mass = (diag[rows] + diag[cols]) / 2
    off = rho.reshape(-1)[upper] / trace
    below = np.cumsum(diag)
    probs = np.empty((dim * dim, 3))
    probs[0] = (1.0, 0.0, 0.0)
    sym = probs[1 : 1 + n_pairs]
    asym = probs[1 + n_pairs : 1 + 2 * n_pairs]
    ladder = probs[1 + 2 * n_pairs :]
    sym[:, 0] = pair_mass + off.real
    sym[:, 1] = pair_mass - off.real
    sym[:, 2] = asym[:, 2] = 1.0 - 2 * pair_mass
    asym[:, 0] = pair_mass - off.imag
    asym[:, 1] = pair_mass + off.imag
    ladder[:, 0] = below[:-1]
    ladder[:, 1] = diag[1:]
    ladder[:, 2] = 1.0 - below[1:]
    np.maximum(probs, 0.0, out=probs)
    probs /= (probs[:, 0] + probs[:, 1] + probs[:, 2])[:, None]  # sum(axis=1)'s bits, ~8x faster

    rng = np.random.default_rng(seed)
    successes = rng.binomial(shots, success_prob, size=dim * dim)
    counts = rng.multinomial(successes, probs)

    # invert: pair (j, k) gives entry (j, k); the identity and the ladder give
    # the diagonal, each ladder level l spreading over entries 0..l
    contrast = counts[:, 0] - counts[:, 1]
    sym_counts, asym_counts = contrast[1 : 1 + n_pairs], contrast[1 + n_pairs : 1 + 2 * n_pairs]
    entries = (sym_counts - 1j * asym_counts) / (2 * shots)
    flat = estimate.reshape(-1)
    flat[upper] = entries
    flat[lower] = entries.conj()

    ladder_counts = counts[1 + 2 * n_pairs :]
    weights = (ladder_counts[:, 0] - levels * ladder_counts[:, 1]) / (norms * shots)
    diagonal = np.full(dim, counts[0, 0] / (dim * shots))
    diagonal[:-1] += np.cumsum(weights[::-1])[::-1]
    diagonal[1:] -= levels * weights
    flat[:: dim + 1] = diagonal
    return estimate


def reconstruct_from_schmidt(
    rho_est, spec: SchmidtInput, output_dim: int, *, shots: int | None, threshold: float | None = None
) -> tuple[KrausSet, float]:
    """Kraus operators from the joint output of a maximum-Schmidt input.

    With W = U diag(1/alpha), the Choi estimate is (W^dagger tensor I)
    rho_est (W tensor I): the estimate rotated by U^dagger with block (i, j)
    divided by alpha_i alpha_j. ``channels._eigen_operators``, the one step
    to Kraus form, which ``choi_to_kraus`` takes too, clips its negative
    eigenvalues and turns each eigenpair above the cutoff into an operator,
    which times V^dagger is a Kraus operator of the channel. The keywords
    are a run's: `shots` says how `rho_est` was made, a count in
    [1, MAX_SHOTS] or EXACT (``_check_shots``), and `threshold` is its
    ``kraus_threshold``, None or finite and nonnegative
    (``linalg.is_real``). ``_schmidt_kraus`` picks the cutoff from the two,
    as in a run, so a run's `shots` and `threshold` give back its Kraus set
    byte for byte. Returns the Kraus set and the clipped mass, 0.0 on the
    low-rank path. `rho_est` must be finite and is judged Hermitian to
    within bound(rho_est), not positive, by ``check_hermitian``, whose
    buffers ``_schmidt_kraus`` takes. The operators are frozen
    (``channels._derived``), not judged again.
    """
    n2 = check_int(output_dim, "output_dim", 1)
    rho_est = _as_numeric(rho_est, "state")
    d = spec.alphas.size * n2
    if rho_est.shape != (d, d):
        raise ValueError(f"estimate has shape {rho_est.shape}, expected {(d, d)}")
    work = (np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex))
    check_hermitian(rho_est, "state", work=work)
    threshold = _check_threshold(threshold, "threshold")
    return _schmidt_kraus(rho_est, spec, n2, threshold, _check_shots(shots), work)


def _schmidt_kraus(
    rho_est: np.ndarray,
    spec: SchmidtInput,
    n2: int,
    threshold: float | None,
    shots: int | None,
    work: tuple[np.ndarray, np.ndarray],
) -> tuple[KrausSet, float]:
    """``reconstruct_from_schmidt`` of a d x d complex estimate judged
    Hermitian, in either shot mode: the one place a run's Kraus cutoff is
    chosen. `work` is two d x d complex arrays, the first holding
    rho_est^dagger on entry, as ``check_hermitian`` leaves it.

    The cutoff is a user's `threshold`, else 3 n1/sqrt(shots) for finite
    `shots`, three times the plug-in noise scale with no floor, each for one
    ``eigh``, else the exact rule
    ``channels._float_cutoff`` at tau = d eps max|rho_ij| / alpha_min^2,
    max|rho_ij| read in O(d) off the diagonal, where the low-rank factor is
    tried first.

    The Choi estimate h is made bitwise Hermitian once, here. Where U = I,
    as for the default input, h is rho_est + rho_est^dagger times the
    symmetric real w[i, j] = (s_i / 2) s_j, s = 1/alpha, block (i, j) by
    w[i, j]. Otherwise h = C + C^dagger with C = (W^dagger tensor I) rho_est
    (W tensor I) / 2 and W = U diag(1/alpha): C^dagger is two products by
    W^dagger from the left, one on each side of a conjugate transpose. The
    other buffer takes the low-rank factor's residual.
    """
    n1 = spec.alphas.size
    d = n1 * n2
    h, spare = work
    if np.array_equal(spec.left_unitary, np.eye(n1)):
        np.add(rho_est, h, out=h)
        # s_i / 2 is exact, so w[i, j] = (s_i / 2) s_j is symmetric
        s = 1.0 / spec.alphas
        w = (0.5 * s)[:, None] * s
        # each real and imaginary part of row block i, column block j times w[i, j]
        np.multiply(
            h.view(float).reshape(n1, n2, 2 * d),
            np.repeat(w, 2 * n2, axis=1)[:, None],
            out=h.view(float).reshape(n1, n2, 2 * d),
        )
    else:
        w_dag = spec.left_unitary.conj().T / spec.alphas[:, None]
        np.matmul(0.5 * w_dag, rho_est.reshape(n1, -1), out=spare.reshape(n1, -1))
        np.conjugate(spare.T, out=h)
        np.matmul(w_dag, h.reshape(n1, -1), out=spare.reshape(n1, -1))  # C^dagger
        np.conjugate(spare.T, out=h)
        h += spare

    if threshold is None and shots is not EXACT:
        threshold = 3.0 * n1 / math.sqrt(shots)
    factor = threshold is None
    if factor:
        scale = float(np.abs(rho_est.diagonal()).max()) / float(spec.alphas.min()) ** 2
        threshold = _float_cutoff(h, d * np.finfo(float).eps * scale)
    ops, _, negativity_removed = _eigen_operators(h, n1, n2, threshold, factor, spare)
    return _derived(KrausSet, n1, n2, ops @ spec.right_unitary.conj().T), negativity_removed


def _positivity_proved(negativity_removed: float, spec: SchmidtInput, d: int) -> bool:
    """Whether the Choi estimate made from a d x d state rho proves
    lambda_min(rho) >= -bound(rho), from the reconstruction's
    `negativity_removed` alone, without reading rho again.

    m = max(negativity_removed, EXACT_TOL) bounds -lambda_min of the
    estimate: ``eigh`` clipped that mass, and an accepted low-rank factor
    clips nothing and proves lambda_min >= -sigma > -EXACT_TOL. The
    estimate is the congruence (W^dagger tensor I) rho (W tensor I) with
    W = U diag(1/alpha), so by Ostrowski's theorem a negative lambda_min of
    the estimate is lambda_min(rho) scaled by at least 1/alpha_max^2.
    Forming and decomposing it in floats perturbs rho by up to about c M,
    with c = d^2 eps (alpha_max/alpha_min)^2 and M = max|rho_ij|. So
    lambda_min(rho) >= -(m alpha_max^2 + c M), and bound(rho) = TOL max(1, M).
    The test is m alpha_max^2 <= TOL - c: for M <= 1 it gives
    -lambda_min(rho) <= TOL, and for M > 1, as c < TOL, it gives
    -lambda_min(rho) <= TOL + c (M - 1) <= TOL M.
    """
    negative = max(negativity_removed, EXACT_TOL)
    a_max, a_min = float(spec.alphas.max()), float(spec.alphas.min())
    reserve = d * d * np.finfo(float).eps * (a_max / a_min) ** 2
    return negative * a_max**2 <= TOL - reserve


@functools.cache
def _max_entangled_input(n1: int) -> SchmidtInput:
    """The uniform Schmidt input, built once per dimension; it is immutable."""
    return SchmidtInput(np.full(n1, 1.0 / math.sqrt(n1)), np.eye(n1), np.eye(n1))


def run_tomography(channel: OpaqueChannel, config: TomographyConfig) -> TomographyResult:
    """Full pipeline: prepare, evolve once, estimate, reconstruct.

    The channel's input_dim must be at least two, the least dimension of a
    Schmidt input; a smaller one is rejected before the input is built.
    Deterministic for a fixed (seed, shots) pair. Both shot modes end in
    ``_schmidt_kraus``, which picks the cutoff from ``config.kraus_threshold``
    and the shots, and builds the Choi estimate from the estimate and its
    adjoint. A finite shot count samples the evaluator output with
    ``simulate_state_tomography``, which judges it (a Cholesky certificate,
    ``eigvalsh`` only if that fails); its estimate is bitwise Hermitian, so
    a copy of it is its adjoint, and it goes to ``_schmidt_kraus`` without
    a second judgement. ``shots=EXACT`` skips the sampler: the evaluator
    output is the estimate, which ``reconstruct_from_schmidt`` judges and
    reconstructs. It is judged in the sampler's order and with its messages
    (Hermiticity, positivity, Tr <= 1 + EXACT_TOL), with positivity read off
    the reconstruction (``_positivity_proved``); only where that proof
    fails, as for strongly skewed inputs or an indefinite output, does the
    sampler's certificate run on the output.
    """
    n1, n2 = channel.input_dim, channel.output_dim
    if n1 < 2:
        raise ValueError(f"tomography needs input_dim at least two, got {n1}")
    spec = _max_entangled_input(n1) if config.input_kind is None else config.input_kind
    if spec.alphas.size != n1:
        raise ValueError(f"schmidt input has {spec.alphas.size} coefficients, channel needs {n1}")

    rho_out = joint_output_state(channel, prepare_schmidt_input(spec))
    if config.shots is EXACT:
        kraus, negativity_removed = reconstruct_from_schmidt(
            rho_out, spec, n2, shots=EXACT, threshold=config.kraus_threshold
        )
        proved = _positivity_proved(negativity_removed, spec, n1 * n2)
        success_trace = _check_state(rho_out, None if proved else bound(rho_out))
        shots_used = 0
    else:
        estimate = simulate_state_tomography(rho_out, config.shots, config.seed)
        work = (estimate.copy(), np.empty_like(estimate))  # bitwise Hermitian: its own adjoint
        kraus, negativity_removed = _schmidt_kraus(
            estimate, spec, n2, config.kraus_threshold, config.shots, work
        )
        success_trace = float(np.trace(estimate).real)
        shots_used = config.shots * (n1 * n2) ** 2
    return TomographyResult(kraus, negativity_removed, shots_used, success_trace)
