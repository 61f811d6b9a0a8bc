"""Shared numeric helpers and reference oracles for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from choiforge import channels, cli, linalg, metrics, serialize, tomography
from choiforge.channels import kraus_to_choi
from choiforge.metrics import choi_distance

ROOT = Path(__file__).resolve().parents[1]


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


def reference_sampler(rho, shots, seed):
    """Reference finite-shot sampler of ``SAMPLER_VERSION`` 4 and 5, one step at a time.

    The body of ``simulate_state_tomography`` as first written, without its
    checks: `rho` is a valid state and `shots` a finite count. The library
    builds the same outcome-probability table with fewer numpy calls and
    must draw the same stream, so tests require its estimates to match this
    one byte for byte.
    """
    rho = np.asarray(rho, dtype=complex)
    trace = float(np.trace(rho).real)
    dim = rho.shape[0]
    estimate = np.zeros((dim, dim), dtype=complex)
    success_prob = float(np.clip(trace, 0.0, 1.0))
    if success_prob == 0.0:
        return estimate

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

    rng = np.random.default_rng(seed % 2**64)
    successes = rng.binomial(shots, success_prob, size=dim * dim)
    counts = rng.multinomial(successes, probs)

    contrast = counts[:, 0] - counts[:, 1]
    n_pairs = rows.size
    sym = contrast[1 : 1 + n_pairs]
    asym = contrast[1 + n_pairs : 1 + 2 * n_pairs]
    upper = (sym - 1j * asym) / (2 * shots)
    estimate[rows, cols] = upper
    estimate[cols, rows] = upper.conj()

    levels = np.arange(1.0, dim)
    ladder = counts[1 + 2 * n_pairs :]
    weights = (ladder[:, 0] - levels * ladder[:, 1]) / (levels * (levels + 1) * shots)
    diagonal = np.full(dim, counts[0, 0] / (dim * shots))
    diagonal[:-1] += np.cumsum(weights[::-1])[::-1]
    diagonal[1:] -= levels * weights
    np.fill_diagonal(estimate, diagonal)
    return estimate


def apply_kraus(kraus, m):
    """Reference E(M) = sum_k A_k M A_k^dagger, straight from the definition.

    The library's evaluator applies a channel to an input vector |phi>,
    through the factor V of J = V V^dagger, and never to a matrix; tests
    use this, block by block on |phi><phi|, to check it.
    """
    m = np.asarray(m, dtype=complex)
    n1 = kraus.input_dim
    if m.shape != (n1, n1):
        raise ValueError(f"input shape {m.shape} does not match channel input dimension {n1}")
    return sum(op @ m @ op.conj().T for op in kraus.operators)


def apply_stinespring(model, m):
    """Reference Tr_o[U (M tensor rho_a) U^dagger (I tensor P_o)], evaluated literally."""
    m = np.asarray(m, dtype=complex)
    n1 = model.system_dim
    if m.shape != (n1, n1):
        raise ValueError(f"input shape {m.shape} does not match system dimension {n1}")
    joint = model.unitary @ np.kron(m, model.ancilla_state) @ model.unitary.conj().T
    joint = joint @ np.kron(np.eye(model.output_dim), model.projector)
    o, t = model.output_dim, model.trace_dim
    return np.einsum("itjt->ij", joint.reshape(o, t, o, t))


def kraus_equivalent(k1, k2, tol):
    """Whether two Kraus sets describe the same channel: Choi distance below tol,
    which is blind to global phases and to unitary mixing of the operators."""
    return choi_distance(kraus_to_choi(k1), kraus_to_choi(k2)) < tol


@pytest.fixture
def decompositions(monkeypatch):
    """The names of the O(d^3) numpy decompositions called while the test runs,
    in call order, whoever calls them."""
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "cholesky"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg,
            name,
            lambda *a, name=name, original=original, **kw: calls.append(name)
            or original(*a, **kw),
        )
    return calls


@pytest.fixture
def judgements(monkeypatch):
    """The names of the judging helpers ``check_hermitian`` and
    ``_frozen_complex`` called while the test runs, in call order, patched
    in every choiforge module that looks them up."""
    calls = []
    for module in (linalg, channels, tomography, metrics, serialize, cli):
        for name in ("check_hermitian", "_frozen_complex"):
            original = getattr(module, name, None)
            if original is not None:
                monkeypatch.setattr(
                    module,
                    name,
                    lambda *a, name=name, original=original, **kw: calls.append(name)
                    or original(*a, **kw),
                )
    return calls


def eigh_only(monkeypatch):
    """Refuse the low-rank factor: each step from a Choi matrix to Kraus form runs ``eigh``."""
    monkeypatch.setattr(channels, "_low_rank_columns", lambda h, threshold, spare=None: None)


@pytest.fixture
def low_rank_attempts(monkeypatch):
    """Whether each call of ``channels._low_rank_columns`` while the test
    runs was accepted, in call order."""
    accepted = []
    original = channels._low_rank_columns

    def spy(h, threshold, spare=None):
        result = original(h, threshold, spare)
        accepted.append(result is not None)
        return result

    monkeypatch.setattr(channels, "_low_rank_columns", spy)
    return accepted
