import itertools

import numpy as np
import pytest

from zpencil.linalg import DEFAULT_TOL, inf_norm, submatrix
from zpencil.zmatrix import (
    EnumerationLimitError,
    MStatus,
    NotZMatrixError,
    classify_direct,
    is_z_matrix,
    m_status,
    z_decompose,
)
from zpencil.testkit import rho_s


def random_z_matrix(rng, n):
    """Random Z-matrix built as q*I - P with q spread across the class range."""
    P = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
    rho_full = max(np.linalg.eigvals(P).real.max(), 0.0)
    q = rng.uniform(-0.5, rho_full + 0.5)
    return q * np.eye(n) - P


class TestIsZMatrix:
    def test_identity(self):
        assert is_z_matrix(np.eye(3))

    def test_family_member(self, ex1):
        assert is_z_matrix(ex1.matrix_at(0.5))

    def test_positive_off_diagonal(self):
        assert not is_z_matrix([[0.0, 1.0], [0.0, 0.0]])


class TestZDecompose:
    def test_identity(self):
        dec = z_decompose(np.eye(2))
        assert dec.q == 1.0
        assert np.array_equal(dec.P, np.zeros((2, 2)))

    def test_negated_golden(self, ex1):
        # diag(-A) = (-1, 0), so q = 0 and P recovers A
        dec = z_decompose(-ex1.A)
        assert dec.q == 0.0
        assert np.array_equal(dec.P, ex1.A)

    def test_arithmetic(self):
        dec = z_decompose([[2.0, -1.0], [-3.0, 5.0]])
        assert dec.q == 5.0
        assert np.array_equal(dec.P, [[3.0, 1.0], [3.0, 0.0]])

    def test_rejects_non_z(self):
        with pytest.raises(NotZMatrixError):
            z_decompose([[0.0, 1.0], [0.0, 0.0]])


class TestMStatus:
    def test_identity(self):
        assert m_status(np.eye(3)) is MStatus.NONSINGULAR_M

    def test_singular_by_hand(self):
        # eigenvalues {0, 2}
        assert m_status([[1.0, -1.0], [-1.0, 1.0]]) is MStatus.SINGULAR_M

    def test_not_m_inside_critical_interval(self, ex1):
        assert m_status(ex1.matrix_at(0.6)) is MStatus.NOT_M

    def test_decomposition_band_is_symmetric(self):
        # exactly at the Perron root the verdict is SingularM
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert m_status(1.0 * np.eye(2) - P) is MStatus.SINGULAR_M


class TestRhoS:
    def test_diagonal(self):
        assert rho_s(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(3.0)

    def test_golden_order_one(self, ex1):
        assert rho_s(ex1.A, 1) == pytest.approx(1.0)

    def test_golden_order_two(self, ex1):
        # quadratic formula on x^2 - x - 2
        assert rho_s(ex1.A, 2) == pytest.approx(2.0, abs=1e-12)

    def test_sentinel_infinity(self):
        assert rho_s(np.eye(2), 3) == float("inf")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rho_s(np.eye(2), 0)
        with pytest.raises(ValueError):
            rho_s(np.eye(2), 4)

    def test_guard(self):
        with pytest.raises(EnumerationLimitError):
            rho_s(np.eye(17), 1)
        assert rho_s(np.eye(17), 1, max_order=17) == pytest.approx(1.0)

    def test_nondecreasing_in_s(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            P = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6)
            ladder = [rho_s(P, s) for s in range(1, n + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(ladder, ladder[1:]))


class TestClassifyDirect:
    def test_golden_low(self, ex1):
        assert classify_direct(ex1.matrix_at(0.25)) == 0

    def test_golden_middle(self, ex2):
        assert classify_direct(ex2.matrix_at(0.5)) == 1

    def test_golden_everywhere_m(self, ex3):
        assert classify_direct(ex3.matrix_at(0.7)) == 2

    def test_rejects_non_z(self):
        with pytest.raises(NotZMatrixError):
            classify_direct([[0.0, 1.0], [0.0, 0.0]])

    def test_guard(self):
        with pytest.raises(EnumerationLimitError):
            classify_direct(np.eye(17))

    def test_partition_property(self):
        # the returned s satisfies rho_s <= q < rho_{s+1} for the canonical
        # decomposition, evaluated independently through rho_s
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            X = random_z_matrix(rng, n)
            s = classify_direct(X)
            dec = z_decompose(X)
            delta = DEFAULT_TOL.rel_sing * max(1.0, inf_norm(X))
            assert 0 <= s <= n
            if s >= 1:
                assert rho_s(dec.P, s) <= dec.q + delta
            if s < n:
                assert rho_s(dec.P, s + 1) > dec.q - delta

    def test_decomposition_shift_independence(self):
        # classification through (q + c, P + c*I) gives the same class
        rng = np.random.default_rng(43)
        delta_of = lambda X: DEFAULT_TOL.rel_sing * max(1.0, inf_norm(X))

        def classify_via(q, P, X):
            n = P.shape[0]
            s = 0
            for k in range(1, n + 1):
                if rho_s(P, k) <= q + delta_of(X):
                    s = k
            return s

        for _ in range(60):
            n = int(rng.integers(1, 6))
            X = random_z_matrix(rng, n)
            dec = z_decompose(X)
            want = classify_direct(X)
            for c in (1.0, 10.0):
                shifted = classify_via(dec.q + c, dec.P + c * np.eye(n), X)
                assert shifted == want

    def test_nonsingular_m_inherited_by_submatrices(self):
        rng = np.random.default_rng(47)
        found = 0
        for _ in range(200):
            n = int(rng.integers(1, 6))
            P = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
            X = (np.linalg.eigvals(P).real.max() + rng.uniform(0.05, 1.0)) * np.eye(n) - P
            if m_status(X) is not MStatus.NONSINGULAR_M:
                continue
            found += 1
            for s in range(1, n + 1):
                for J in itertools.combinations(range(1, n + 1), s):
                    assert m_status(submatrix(X, J)) is MStatus.NONSINGULAR_M
        assert found > 100

    def test_full_class_iff_m_matrix(self):
        rng = np.random.default_rng(53)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            X = random_z_matrix(rng, n)
            assert (classify_direct(X) == n) == (m_status(X) is not MStatus.NOT_M)
