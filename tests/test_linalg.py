import itertools
import math

import numpy as np
import pytest

from zpencil.linalg import (
    DEFAULT_TOL,
    SingularMatrixError,
    TolerancePolicy,
    inf_norm,
    is_singular,
    perron_vector,
    solve,
    spectral_radius,
    submatrix,
)


def charpoly_spectral_radius(P: np.ndarray) -> float:
    """Independent oracle for small matrices: expand det(x*I - P) by
    permutations, find the roots, take the max modulus."""
    n = P.shape[0]
    coeffs = np.zeros(n + 1)
    for perm in itertools.permutations(range(n)):
        sign = _parity(perm)
        poly = np.ones(1)
        for i, j in enumerate(perm):
            # (x - p_ii) on the diagonal, the constant -p_ij off it
            if i == j:
                poly = np.convolve(poly, np.array([-P[i, j], 1.0]))
            else:
                poly = np.convolve(poly, np.array([-P[i, j]]))
        coeffs[: poly.size] += sign * poly
    roots = np.roots(coeffs[::-1])
    return float(np.max(np.abs(roots)))


def _parity(perm) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestTolerancePolicy:
    def test_defaults(self):
        tol = TolerancePolicy()
        assert tol.rel_sing == 1e-9
        assert tol.rel_eig == 1e-10
        assert tol.abs_floor == 1e-13

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rel_sing=0.0)

    def test_rejects_rel_eig_above_rel_sing(self):
        with pytest.raises(ValueError):
            TolerancePolicy(rel_sing=1e-12, rel_eig=1e-9)

    @pytest.mark.parametrize("field", ["rel_sing", "rel_eig", "abs_floor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TolerancePolicy(**{field: value})


class TestSubmatrix:
    def test_identity_selection(self):
        assert np.array_equal(submatrix(np.eye(3), (1, 3)), np.eye(2))

    def test_golden_4x4_selection(self, ex2):
        assert np.array_equal(submatrix(ex2.A, (2, 4)), [[1.0, 0.0], [1.0, 1.0]])

    def test_single_index(self):
        assert np.array_equal(submatrix([[1.0, 2.0], [3.0, 4.0]], (2,)), [[4.0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            submatrix(np.eye(2), (0, 1))
        with pytest.raises(ValueError):
            submatrix(np.eye(2), (1, 3))
        with pytest.raises(ValueError):
            submatrix(np.eye(2), ())


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_case(self):
        # roots of x^2 - x - 2 are (1 +- 3)/2, so the Perron root is 2
        assert spectral_radius([[1.0, 2.0], [1.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            spectral_radius([[1.0, -1.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_submatrix_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            P = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
            rho = spectral_radius(P)
            for s in range(1, n + 1):
                for J in itertools.combinations(range(1, n + 1), s):
                    assert spectral_radius(submatrix(P, J)) <= rho + 1e-10

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            P = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
            expected = charpoly_spectral_radius(P)
            got = spectral_radius(P)
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)


class TestPerronVector:
    def test_scalar(self):
        assert np.allclose(perron_vector([[2.0]]), [1.0])

    def test_symmetric_swap(self):
        # symmetric eigenproblem by hand: eigenvector (1, 1) at eigenvalue 1
        assert np.allclose(perron_vector([[0.0, 1.0], [1.0, 0.0]]), [1.0, 1.0], atol=1e-9)

    def test_direction_two_one(self):
        # solve (P - 2I) x = 0 by hand: direction (2, 1), max-normalized
        x = perron_vector([[1.0, 2.0], [1.0, 0.0]])
        assert np.allclose(x, [1.0, 0.5], atol=1e-9)

    def test_residual_contract_random(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            P = rng.uniform(0.0, 3.0, (n, n)) * (rng.random((n, n)) < 0.5)
            x = perron_vector(P)
            assert x.min() >= 0.0
            assert inf_norm(x) == pytest.approx(1.0, abs=1e-12)
            rho = spectral_radius(P)
            assert inf_norm(P @ x - rho * x) <= DEFAULT_TOL.rel_sing * max(
                inf_norm(P), 1.0
            )

    def test_reducible_defective_root(self):
        # Jordan structure at the Perron root: kernel direction is e1
        P = np.array([[1.0, 1.0], [0.0, 1.0]])
        x = perron_vector(P)
        assert inf_norm(P @ x - 1.0 * x) <= 1e-9 * inf_norm(P)


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0])
        assert np.allclose(solve(np.eye(2), b), b)

    def test_golden_identity_difference(self, ex1):
        # B - A is the identity here, so the solve returns A itself
        assert np.allclose(solve(ex1.B - ex1.A, ex1.A), ex1.A)

    def test_nilpotent_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve([[0.0, 1.0], [0.0, 0.0]], np.ones(2))

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            solve(np.zeros((1, 1)), np.ones(1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(2), np.ones(3))

    def test_roundtrip_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            X = rng.normal(size=(n, n)) + n * np.eye(n)  # well conditioned
            b = rng.normal(size=n)
            y = solve(X, b)
            bound = DEFAULT_TOL.rel_sing * inf_norm(X) * max(inf_norm(y), 1.0) \
                + DEFAULT_TOL.abs_floor
            assert inf_norm(X @ y - b) <= bound

    def test_values_equal_numpy_solve_bitwise(self):
        rng = np.random.default_rng(13)
        for n in range(1, 9):
            for _ in range(40):
                X = rng.normal(size=(n, n)) + n * np.eye(n)
                for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
                    assert np.array_equal(solve(X, b), np.linalg.solve(X, b))

    def test_singular_messages_carry_the_threshold(self):
        X = np.diag([4.0, 1e-12])
        want = "pivot 1.000e-12 at or below singularity threshold 4.000e-09"
        with pytest.raises(SingularMatrixError, match=f"^{want}$"):
            solve(X, np.ones(2))

    @pytest.mark.parametrize("X, rhs", [
        (np.eye(2), np.ones((2, 2, 1))),
        (np.ones((1, 2, 3)), np.ones((1, 2, 1))),
        (np.ones((0, 0)), np.ones(0)),
        (np.ones((2, 3)), np.ones(2)),
        (np.eye(2), np.ones((3, 2))),
        (np.eye(2)[None], np.ones((1, 2))),
        (np.full((2, 2), np.nan), np.ones(2)),
        (np.eye(2), np.full(2, np.inf)),
    ])
    def test_rejects_bad_shapes_and_non_finite_entries(self, X, rhs):
        with pytest.raises(ValueError):
            solve(X, rhs)


def _stack(rng, k, s, near_singular=False):
    """k random matrices of order s; with ``near_singular``, each has its
    last row replaced by a combination of the others plus a perturbation
    whose size spans the singularity band of the default policy."""
    X = rng.normal(size=(k, s, s))
    if near_singular:
        for i in range(k):
            w = rng.normal(size=s - 1)
            X[i, -1] = w @ X[i, :-1] + 10.0 ** rng.uniform(-15, -5) * rng.normal(size=s)
    return X


class TestSolveStack:
    """Stacks of matrices as the threshold sweep gathers them: through
    :func:`solve` slice by slice, and through the one stacked
    ``np.linalg.solve`` that the sweep runs with no pivot test."""

    def test_values_equal_numpy_solve_bitwise(self):
        rng = np.random.default_rng(11)
        for s in range(1, 9):
            X = _stack(rng, 40, s) + s * np.eye(s)
            R = rng.normal(size=(40, s, 3))
            got = np.linalg.solve(X, R)
            for i in range(40):
                assert np.array_equal(got[i], np.linalg.solve(X[i], R[i]))
                assert np.array_equal(got[i], solve(X[i], R[i]))

    def test_exactly_singular_slice_raises_with_its_index(self):
        X = np.stack([np.eye(3), np.eye(3), np.eye(3)])
        X[1, 2] = X[1, 0] + X[1, 1]
        raised = []
        for i in range(3):
            try:
                solve(X[i], np.ones(3))
            except SingularMatrixError:
                raised.append(i)
        assert raised == [1]
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(X, np.ones((3, 3, 1)))

    def test_pivot_below_the_band_raises(self):
        X = np.stack([np.eye(2), np.diag([1.0, 1e-12])])
        R = np.ones((2, 2, 2))
        assert np.array_equal(solve(X[0], R[0]), R[0])
        with pytest.raises(SingularMatrixError):
            solve(X[1], R[1])
        # The stacked solve has no pivot test; solve under a looser policy
        # returns its bits.
        loose = TolerancePolicy(rel_sing=1e-13, rel_eig=1e-13, abs_floor=1e-15)
        assert np.array_equal(solve(X[1], R[1], loose), np.linalg.solve(X, R)[1])

    def test_verdict_matches_solve_slice_by_slice(self):
        # The reference is the diagonal of U from scipy's LU with partial
        # pivoting (LAPACK getrf), which orders its arithmetic differently:
        # matrices whose smallest pivot is within 1% of the band are skipped.
        from scipy.linalg import lu

        rng = np.random.default_rng(12)
        raised = skipped = 0
        for s in range(1, 9):
            X = _stack(rng, 60, s, near_singular=s > 1)
            if s == 1:
                X *= 10.0 ** rng.uniform(-15, 0, size=(60, 1, 1))
            for i in range(60):
                smallest = float(np.abs(np.diag(lu(X[i])[2])).min())
                limit = DEFAULT_TOL.rel_sing * inf_norm(X[i])
                if abs(smallest - limit) <= 0.01 * limit:
                    skipped += 1
                    continue
                want = smallest <= limit
                try:
                    solve(X[i], np.ones(s))
                    got = False
                except SingularMatrixError:
                    got = True
                assert got == want, (s, i)
                raised += want
        assert skipped < 20
        assert 50 < raised < 400  # both verdicts are well represented


class TestIsSingular:
    def test_identity(self):
        assert not is_singular(np.eye(3))

    def test_zero(self):
        assert is_singular(np.zeros((2, 2)))

    def test_critical_member_is_singular(self, ex1):
        X = (2.0 / 3.0) * ex1.B - ex1.A
        assert is_singular(X)


def test_inf_norm_matches_numpy():
    cases = np.random.default_rng(325)
    for _ in range(50):
        n, seed = int(cases.integers(1, 7)), int(cases.integers(0, 10_001))
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n))
        assert inf_norm(X) == pytest.approx(np.linalg.norm(X, np.inf))
        v = rng.normal(size=n)
        assert inf_norm(v) == pytest.approx(np.linalg.norm(v, np.inf))
