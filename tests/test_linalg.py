import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_matrix, random_density, random_hermitian
from choiforge.channels import ZOO_CHANNEL_NAMES, haar_random_unitary, kraus_to_choi, zoo_channel
from choiforge.linalg import (
    EXACT_TOL,
    TOL,
    _MAX_DIMS,
    NotHermitianError,
    _as_numeric,
    bound,
    check_hermitian,
    check_int,
    frobenius_distance,
    is_int,
    is_real,
    partial_trace,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)  # max entangled, n=2


class TestIsInt:
    def test_integer_rule(self):
        for value in (0, -3, 2**70, np.int64(2), np.int32(-1), np.uint8(7)):
            assert is_int(value)
        for value in (True, False, np.bool_(True), 2.0, 2.7, np.float64(3.0), "2", None, 2 + 0j):
            assert not is_int(value)

    def test_real_rule(self):
        for value in (0, -3, 2.5, float("nan"), np.float32(0.1), np.int64(2), np.uint8(7)):
            assert is_real(value)
        for value in (True, False, np.bool_(True), "0.3", None, 2 + 0j, [0.5]):
            assert not is_real(value)

    def test_check_int_names_the_argument_and_never_truncates(self):
        assert check_int(np.int64(5), "n", 1) == 5 and type(check_int(np.int64(5), "n")) is int
        assert check_int(-7, "seed") == -7
        for bad in (2.7, 2.0, True):
            with pytest.raises(ValueError, match="kraus_count must be an integer"):
                check_int(bad, "kraus_count", 1)
        with pytest.raises(ValueError, match=">= 1, got 0"):
            check_int(0, "kraus_count", 1)


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


class TestNumberRule:
    def test_deep_nesting_is_not_ragged(self):
        # numpy builds at most _MAX_DIMS (64) dimensions; one list more is an entry
        assert _as_numeric(nested(0.0, _MAX_DIMS), "m").ndim == _MAX_DIMS
        message = f"^m must hold numbers, got lists nested more than {_MAX_DIMS} deep$"
        with pytest.raises(ValueError, match=message):
            _as_numeric(nested(0.0, _MAX_DIMS + 6), "m")

    def test_ragged_rows_are_ragged(self):
        with pytest.raises(ValueError, match="^m must hold numbers, got nested lists of unequal length$"):
            _as_numeric([[1.0, 2.0], [3.0]], "m")

    def test_arrays_of_unequal_shapes_are_ragged(self):
        # numpy itself refuses to stack these, even as objects
        with pytest.raises(ValueError, match="^m must hold numbers, got nested lists of unequal length$"):
            _as_numeric([np.zeros((2, 2)), np.zeros((2, 3))], "m")


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        rho = np.outer(PHI, PHI.conj())
        assert np.allclose(partial_trace(rho, 2, 2), I2 / 2, atol=1e-14)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_product_state_factors(self, dims):
        da, db = dims
        rng = np.random.default_rng(11)
        rho_a = random_hermitian(da, rng)
        rho_b = random_hermitian(db, rng)
        joint = np.kron(rho_a, rho_b)
        assert frobenius_distance(partial_trace(joint, da, db), rho_a * np.trace(rho_b)) < 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = random_complex_matrix(6, 6, rng)
        for dims in [(2, 3), (3, 2)]:
            reduced = partial_trace(m, *dims)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(5), 2, 2)

    @pytest.mark.parametrize("bad", [2.0, True, 0, -2])
    def test_dimensions_follow_the_integer_rule(self, bad):
        # neither dimension is truncated or handed to numpy's reshape unjudged
        with pytest.raises(ValueError, match=rf"^dim_a must be an integer >= 1, got {bad!r}$"):
            partial_trace(np.eye(4) / 4, bad, 2)
        with pytest.raises(ValueError, match=rf"^dim_b must be an integer >= 1, got {bad!r}$"):
            partial_trace(np.eye(4) / 4, 2, bad)


ZOO_PARAMS = {
    "identity": [],
    "unitary": [5],
    "depolarizing": [0.3],
    "amplitude_damping": [0.4],
    "phase_damping": [0.6],
    "project_discard": [],
    "random_cptp": [8, 3],
}


class TestBound:
    def test_check_hermitian_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"^m must be square, got shape \(2, 3\)$"):
            check_hermitian(np.zeros((2, 3), dtype=complex), "m")

    def test_check_hermitian_rejects_empty(self):
        # an empty matrix that is not square is judged as not square
        with pytest.raises(ValueError, match=r"^m must not be empty, got shape \(0, 0\)$"):
            check_hermitian(np.zeros((0, 0), dtype=complex), "m")
        with pytest.raises(ValueError, match=r"^m must be square, got shape \(0, 3\)$"):
            check_hermitian(np.zeros((0, 3), dtype=complex), "m")

    @pytest.mark.parametrize("name", ZOO_CHANNEL_NAMES)
    def test_unit_scale_choi_matrices_get_the_bare_bound(self, name):
        dims = (2,) if name in ("amplitude_damping", "phase_damping") else (2, 3, 4)
        for n in dims:
            j = kraus_to_choi(zoo_channel(name, ZOO_PARAMS[name], n)).matrix
            assert bound(j) == TOL
            assert bound(j, EXACT_TOL) == EXACT_TOL

    def test_density_matrices_and_unitaries_get_the_bare_bound(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3, 5, 16):
            assert bound(random_density(dim, rng)) == TOL
            assert bound(haar_random_unitary(dim, rng), EXACT_TOL) == EXACT_TOL

    def test_scales_with_largest_entry(self):
        assert bound(np.array([[3.0, -4e9j], [4e9j, 0.0]])) == pytest.approx(4e9 * TOL)

    def test_check_hermitian_returns_the_bound_it_applied(self):
        m = 50.0 * random_hermitian(3, np.random.default_rng(2))
        assert check_hermitian(m, "m") == bound(m)
        m[0, 1] += 2 * bound(m)
        with pytest.raises(NotHermitianError, match="m is not Hermitian"):
            check_hermitian(m, "m")


def judged_by_definition(m, tol):
    """check_hermitian's verdict written out from its definition: (error
    type, first message, deviation) for a rejected m, (None, limit, None)
    for an accepted one."""
    if not np.isfinite(m).all():
        return ValueError, "m contains non-finite entries", None
    limit = tol * max(1.0, float(np.abs(m).max(initial=0.0)))
    deviation = float(np.abs(m - m.conj().T).max(initial=0.0))
    if deviation > limit:
        message = f"m is not Hermitian: max |m - m^dag| = {deviation:.3e} > {limit:.3e}"
        return NotHermitianError, message, deviation
    return None, limit, None


@st.composite
def judged_matrices(draw):
    """A Hermitian matrix plus an anti-Hermitian perturbation whose
    deviation max |m - m^dag| is `factor` times tol * max(1, max |m_ij|),
    where the cheap test of real and imaginary parts is loosest: entries
    with |Re| = |Im|. Some have one non-finite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    tol = draw(st.sampled_from([TOL, EXACT_TOL]))
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
    factor = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    m = scale * random_hermitian(d, rng)
    if draw(st.booleans()):  # an entry of modulus about 1 with |Re| = |Im|
        i, j = rng.integers(d, size=2)
        c = draw(st.sampled_from([1.0 - 2**-52, 1.0, 1.0 + 2**-52])) / np.sqrt(2)
        m[i, j], m[j, i] = c * (1 + 1j), c * (1 - 1j)
        m[i, i] = m[i, i].real
    k = np.zeros((d, d), dtype=complex)  # anti-Hermitian, |Re| = |Im| off the diagonal
    for i, j in zip(*np.triu_indices(d, 1)):
        k[i, j] = rng.uniform(-1, 1) * (1 + 1j)
        k[j, i] = -np.conj(k[i, j])
    k[np.diag_indices(d)] = 1j * rng.uniform(-1, 1, d)
    gap = np.abs(k - k.conj().T).max()
    if gap:
        m = m + (factor * tol * max(1.0, float(np.abs(m).max())) / gap) * k
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)]))
    if bad is not None:
        m[tuple(rng.integers(d, size=2))] = bad
    return m, tol


class TestHermitianJudge:
    @given(judged_matrices(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_judge_matches_its_definition(self, case, with_work):
        # the verdict, the first message, and the bits of the deviation and
        # of the returned limit are those of the moduli formula
        m, tol = case
        kind, expected, deviation = judged_by_definition(m, tol)
        work = np.empty((2, *m.shape), dtype=complex) if with_work else None
        if kind is None:
            limit = check_hermitian(m, "m", tol, work)
            assert limit.hex() == expected.hex()
            assert limit.hex() == bound(m, tol).hex()
            if with_work:
                assert np.array_equal(work[0], m.conj().T)
            return
        with pytest.raises(kind) as raised:
            check_hermitian(m, "m", tol, work)
        assert type(raised.value) is kind
        assert str(raised.value) == expected
        if kind is NotHermitianError:
            assert raised.value.deviation.hex() == deviation.hex()

    @pytest.mark.parametrize("c", [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)])
    def test_bound_at_the_unit_modulus(self, c):
        # an entry with |Re| = |Im| whose modulus is about 1: the part test
        # cannot decide, and the moduli give the bound
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = c / np.sqrt(2) * (1 + 1j)
        assert bound(m).hex() == (TOL * max(1.0, float(np.abs(m).max()))).hex()
        assert bound(m.real) == TOL  # a real matrix's parts are its moduli


class TestFrobeniusDistance:
    def test_self_distance_zero(self):
        m = random_complex_matrix(3, 3, np.random.default_rng(5))
        assert frobenius_distance(m, m) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(I2, np.zeros((2, 2))) == pytest.approx(np.sqrt(2))

    def test_x_vs_z(self):
        assert frobenius_distance(X, Z) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            frobenius_distance(I2, np.eye(3))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_entry_names_its_argument(self, entry, side):
        bad = np.array([[entry]])
        args = (bad, [[0.0]]) if side == "a" else ([[0.0]], bad)
        with pytest.raises(ValueError, match=f"^{side} contains non-finite entries$"):
            frobenius_distance(*args)

    def test_overflowing_distance_rejected(self):
        # finite entries whose difference is past float range
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^the distance overflows float range$"
        ):
            frobenius_distance(np.diag([1e300, 1e300]), np.diag([-1e300, -1e300]))
