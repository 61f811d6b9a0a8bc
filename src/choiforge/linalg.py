"""Dense complex linear algebra underneath the channel and tomography code.

Conventions fixed package-wide: bipartite systems are ordered
(reference, system), flattening is row-major, and block (i, j) of a
bipartite matrix is indexed by the first tensor factor.
"""

from __future__ import annotations

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
    fails, where numpy would read ``[True, 0]`` as ``[1, 0]``.
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


def bound(m: np.ndarray, tol: float = TOL) -> float:
    """tol * max(1, max |m_ij|): `tol` itself for density matrices, unitaries,
    projectors and Choi matrices of trace-nonincreasing maps."""
    return tol * max(1.0, float(np.abs(m).max(initial=0.0)))


def check_hermitian(m: np.ndarray, what: str, tol: float = TOL) -> float:
    """Reject a finite complex matrix unless max |m - m^dagger| <= bound(m, tol);
    return that bound, for the caller's positivity check on m."""
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    limit = bound(m, tol)
    deviation = float(np.abs(m - m.conj().T).max(initial=0.0))
    if deviation > limit:
        raise NotHermitianError(
            deviation, f"{what} is not Hermitian: max |m - m^dag| = {deviation:.3e} > {limit:.3e}"
        )
    return limit


def check_unitary(u: np.ndarray, what: str) -> None:
    """Reject a finite square matrix unless max |u^dagger u - I| <= bound(u, EXACT_TOL)."""
    limit = bound(u, EXACT_TOL)
    if np.abs(u.conj().T @ u - np.eye(len(u))).max() > limit:
        raise ValueError(f"{what} is not unitary to within {limit:.3e}")


def partial_trace(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second factor of a bipartite matrix on dimensions (dim_a, dim_b),
    keeping the dim_a x dim_a first factor."""
    m = _as_matrix(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims ({dim_a}, {dim_b})"
        )
    return np.einsum("ijkj->ik", m.reshape(dim_a, dim_b, dim_a, dim_b))


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a Hermitian matrix, as ``np.linalg.eigh``
    returns them but sorted descending: column k of eigenvectors belongs to
    eigenvalue k.

    The input is checked by ``check_hermitian`` and symmetrized as
    (m + m^dagger)/2 before decomposing.
    """
    m = _as_matrix(m)
    check_hermitian(m, "matrix")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def frobenius_distance(a, b) -> float:
    """sqrt of the summed squared entry differences."""
    x = _as_numeric(a, "a")
    y = _as_numeric(b, "b")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y))
