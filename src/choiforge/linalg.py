"""Dense complex linear algebra underneath the channel and tomography code.

Conventions fixed package-wide: bipartite systems are ordered
(reference, system), flattening is row-major, and block (i, j) of a
bipartite matrix is indexed by the first tensor factor.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

# The tolerance policy: two bounds, each scaled to the matrix it judges by ``bound``.
TOL = 1e-8  # Hermiticity, positivity, trace preservation of computed or estimated matrices
EXACT_TOL = 1e-10  # identities inputs satisfy exactly: U^dag U = I, P^2 = P, Tr rho = 1


class NotHermitianError(ValueError):
    """Hermiticity violated beyond tolerance; carries the measured deviation."""

    def __init__(self, deviation: float, message: str):
        super().__init__(message)
        self.deviation = deviation


def is_int(value) -> bool:
    """The package's one integer rule: an int or numpy integer, never a bool.

    Nothing is truncated: 2.0 and 2.7 are not integers.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_REAL_TYPES = (int, float, np.integer, np.floating)
# numpy's limit on the dimensions of an array (NPY_MAXDIMS)
_MAX_DIMS = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32


def is_real(value) -> bool:
    """The package's one real-number rule: an int, float or numpy real, never
    a bool and never a str. Nothing is parsed: "0.3" is not a real number."""
    return isinstance(value, _REAL_TYPES) and not isinstance(value, bool)


def check_int(value, name: str, minimum: int | None = None) -> int:
    """Return `value` as an int if ``is_int`` accepts it and it is at least
    `minimum`; otherwise raise ValueError naming `name`."""
    if not is_int(value) or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


def _as_numeric(a, name: str, dtype=complex) -> np.ndarray:
    """`a` as a `dtype` array of real (float `dtype`) or complex numbers, else
    ValueError naming `name`: the one number rule, for the API and for files.

    An ndarray is judged by its dtype kind alone (``iuf``, or ``iufc`` for a
    complex `dtype`); other input, a nested list say, by the types of its
    entries, each ``is_real`` (or complex, for a complex `dtype`). A bool, a
    str, None, a nested array, a ragged row or an integer beyond float range
    fails, where numpy would read ``[True, 0]`` as ``[1, 0]``. Lists nested
    deeper than numpy's limit on dimensions fail as such, not as ragged.
    """
    real = np.dtype(dtype).kind == "f"
    must = f"{name} must hold {'real ' if real else ''}numbers, got"
    if isinstance(a, np.ndarray):
        if a.dtype.kind not in ("iuf" if real else "iufc"):
            raise ValueError(f"{must} dtype {a.dtype}")
        return np.asarray(a, dtype=dtype)
    kinds = _REAL_TYPES if real else (*_REAL_TYPES, complex, np.complexfloating)
    ragged = f"{must} nested lists of unequal length"
    try:
        entries = np.asarray(a, dtype=object)
    except ValueError:
        raise ValueError(ragged) from None
    bad = {t for t in set(map(type, entries.ravel())) if t is bool or not issubclass(t, kinds)}
    if list in bad:
        if entries.ndim == _MAX_DIMS:  # numpy stopped at its limit, not at a ragged row
            raise ValueError(f"{must} lists nested more than {_MAX_DIMS} deep")
        raise ValueError(ragged)
    if bad:
        entry = next(e for e in entries.flat if type(e) in bad)
        raise ValueError(f"{must} entry {reprlib.repr(entry)}")
    try:
        return entries.astype(dtype)
    except OverflowError:
        raise ValueError(f"{must} an integer beyond float range") from None


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = _as_numeric(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _part_max(m: np.ndarray) -> float:
    """The largest max(|Re m_ij|, |Im m_ij|) of a non-empty m, NaN if an
    entry is NaN, in two reductions and no temporary array: max |m_ij|
    itself for a real m, and for a complex one at most that and more than
    max |m_ij| / 1.5, 1.5 being above sqrt 2 by more than the rounding of
    the moduli."""
    parts = m.reshape(-1)
    if m.dtype.kind == "c":
        parts = parts.view(m.real.dtype)
    # a NaN entry makes both reductions NaN, and max() then returns NaN
    return max(float(np.maximum.reduce(parts)), -float(np.minimum.reduce(parts)))


def bound(m: np.ndarray, tol: float = TOL) -> float:
    """tol * max(1, max |m_ij|): `tol` itself for density matrices, unitaries,
    projectors and Choi matrices of trace-nonincreasing maps, and NaN or inf
    where an entry is. The moduli are computed only where ``_part_max``
    cannot show that max |m_ij| <= 1."""
    largest = _part_max(m)
    if m.dtype.kind == "c" and not largest * 1.5 <= 1.0:
        largest = float(np.abs(m).max(initial=0.0))
    return tol * max(largest, 1.0)  # max() keeps a NaN in first place


def check_hermitian(m: np.ndarray, what: str, tol: float = TOL, work: tuple | None = None) -> float:
    """Reject a complex matrix unless it is square, non-empty, finite and
    max |m - m^dagger| <= bound(m, tol); return that bound, for the caller's
    positivity check on m.

    A non-finite entry of m makes bound(m) non-finite, and only then is m
    scanned for one. m is then read through one conjugate-transposed copy,
    m^dagger, and the difference m - m^dagger is judged by ``_part_max``
    against the bound: the moduli of the difference are computed only where
    that cannot decide, or to name the deviation of a matrix that fails.
    `work`, two d x d complex arrays, holds the two: on return work[0] is
    m^dagger and work[1] is free; without it they are allocated here.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not m.size:
        raise ValueError(f"{what} must not be empty, got shape {m.shape}")
    limit = bound(m, tol)
    if not math.isfinite(limit) and not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")
    if work is None:
        work = np.empty(m.shape, dtype=complex), np.empty(m.shape, dtype=complex)
    adjoint, gap = work
    np.conjugate(m.T, out=adjoint)
    np.subtract(m, adjoint, out=gap)
    spread = _part_max(gap)
    if not spread * 1.5 <= limit:
        deviation = float(np.abs(gap).max(initial=0.0))
        if deviation > limit:
            raise NotHermitianError(
                deviation, f"{what} is not Hermitian: max |m - m^dag| = {deviation:.3e} > {limit:.3e}"
            )
    return limit


def _eigenvalue_below(m: np.ndarray, limit: float) -> float | None:
    """None if H = (m + m^dagger)/2 of a finite square m has every eigenvalue
    at least -limit; otherwise the least eigenvalue of H, from ``eigvalsh``.

    One Cholesky factorization of A = H + s I, with s = limit - reserve,
    proves the first case. The computed factor R satisfies R^dagger R = A + dA
    with |dA| <= gamma |R^dagger| |R| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Thm 10.3), so lambda_min(A) >= -||dA||_2
    >= -gamma tr(A) / (1 - gamma), and tr(A) <= scale = sum_i |H_ii| + d limit.
    Forming H rounds it by at most (eps/2) ||H||_F, which a successful
    factorization bounds by eps scale. The reserve covers both, so success
    proves lambda_min(H) >= -limit. ``eigvalsh`` runs only when the
    factorization fails, so a rejection names the eigenvalue.
    """
    d = len(m)
    h = (m + m.conj().T) / 2
    eps = np.finfo(float).eps
    gamma = 2 * (d + 1) * eps  # Higham's gamma_{d+1} with u = eps/2, doubled for complex arithmetic
    scale = float(np.abs(h.diagonal()).sum()) + d * limit
    h.reshape(-1)[:: d + 1] += limit - (gamma + eps) * scale / (1 - gamma)
    try:
        np.linalg.cholesky(h)
        return None
    except np.linalg.LinAlgError:
        lowest = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    return lowest if lowest < -limit else None


def check_unitary(u: np.ndarray, what: str) -> None:
    """Reject a finite square matrix unless max |u^dagger u - I| <= bound(u, EXACT_TOL)."""
    limit = bound(u, EXACT_TOL)
    if np.abs(u.conj().T @ u - np.eye(len(u))).max() > limit:
        raise ValueError(f"{what} is not unitary to within {limit:.3e}")


def partial_trace(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second factor of a bipartite matrix on dimensions (dim_a, dim_b),
    keeping the dim_a x dim_a first factor. Both dimensions are integers of at
    least 1 (``is_int``). The sum is ndarray.trace, whose overflow
    ``np.errstate(over="raise")`` reports, where einsum's gives inf silently."""
    dim_a = check_int(dim_a, "dim_a", 1)
    dim_b = check_int(dim_b, "dim_b", 1)
    m = _as_matrix(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims ({dim_a}, {dim_b})"
        )
    return m.reshape(dim_a, dim_b, dim_a, dim_b).trace(axis1=1, axis2=3)


def frobenius_distance(a, b) -> float:
    """sqrt of the summed squared entry differences; a non-finite entry or a
    distance past float range raises ValueError."""
    x = _as_numeric(a, "a")
    y = _as_numeric(b, "b")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    for name, m in (("a", x), ("b", y)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} contains non-finite entries")
    distance = float(np.linalg.norm(x - y))
    if not np.isfinite(distance):
        raise ValueError("the distance overflows float range")
    return distance
