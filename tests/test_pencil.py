import itertools
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import zpencil.pencil as pencil_module
from zpencil.cli import parse_pencil
from zpencil.digraph import classes, digraph_of, union
from zpencil.linalg import DEFAULT_TOL, TolerancePolicy, inf_norm, solve, submatrix
from zpencil.pencil import (
    CriticalClassBound,
    Pencil,
    ValidationFailedError,
    classify_at,
    m_trichotomy,
    partition,
    spectral_summary,
    thresholds,
    validate,
    zs_bound,
)
from zpencil.testkit import (
    GenConfig,
    gen_pencil,
    oracle_pencil_eigs,
    oracle_thresholds,
)
from zpencil.zmatrix import MStatus, classify_direct

DATA_DIR = Path(__file__).parent / "data"
RHO2 = (4.0 + math.sqrt(6.0)) / 10.0


class TestPencilType:
    def test_requires_equal_order(self):
        with pytest.raises(ValueError):
            Pencil(A=np.eye(2), B=np.eye(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pencil(A=np.array([[np.nan]]), B=np.eye(1))

    def test_matrices_read_only(self, ex1):
        with pytest.raises(ValueError):
            ex1.A[0, 0] = 5.0

    def test_matrix_at(self, ex1):
        assert np.allclose(ex1.matrix_at(0.5), 0.5 * ex1.B - ex1.A)


class TestValidate:
    def test_golden_all_hold(self, ex1):
        report = validate(ex1)
        assert report.ok
        # B - A = I, so the witness is the all-ones vector
        assert np.allclose(report.witness_u, [1.0, 1.0])
        assert report.violations == ()

    def test_singular_difference_fails_c3(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        report = validate(Pencil(A=A, B=A))
        assert report.c1_holds and report.c2_holds and not report.c3_holds
        assert report.witness_u is None
        assert any(v.condition == 3 for v in report.violations)

    def test_golden_4x4(self, ex2):
        report = validate(ex2)
        assert report.ok
        u = report.witness_u
        assert u is not None and u.min() > 0
        assert np.allclose((ex2.B - ex2.A) @ u, np.ones(4))

    def test_negative_entry_fails_c1(self, ex1):
        A = ex1.A.copy()
        A[0, 1] = -0.5
        report = validate(Pencil(A=A, B=ex1.B))
        assert not report.c1_holds
        bad = [v for v in report.violations if v.condition == 1]
        assert bad and bad[0].position == (1, 2)

    def test_positive_off_diagonal_difference_fails_c2(self, ex1):
        B = ex1.B.copy()
        B[0, 1] = 3.0  # exceeds A[1,2] = 2
        report = validate(Pencil(A=ex1.A, B=B))
        assert not report.c2_holds
        bad = [v for v in report.violations if v.condition == 2]
        assert bad and bad[0].position == (1, 2)

    def test_non_z_difference_is_decided_by_the_witness_alone(self, ex1):
        # B - A = [[1, 0.5], [0, 1]] is no Z-matrix, but u = (0.5, 1) > 0
        B = ex1.B.copy()
        B[0, 1] = 2.5
        report = validate(Pencil(A=ex1.A, B=B))
        assert not report.c2_holds and report.c3_holds
        assert np.allclose(report.witness_u, [0.5, 1.0])
        # B - A = [[1, 1], [1, 1]] is singular, so no witness exists
        B = ex1.A + 1.0
        report = validate(Pencil(A=ex1.A, B=B))
        assert not report.c2_holds and not report.c3_holds
        assert report.witness_u is None


class TestValidationRecord:
    def test_verdict_is_recorded_per_policy(self, ex2):
        report = validate(ex2)
        assert validate(ex2) is report
        assert validate(ex2, TolerancePolicy()) is report  # an equal policy
        assert validate(ex2, TolerancePolicy(rel_sing=1e-8)) is not report

    def test_recorded_witness_is_read_only(self, ex2):
        with pytest.raises(ValueError):
            validate(ex2).witness_u[0] = 5.0

    def test_second_policy_is_evaluated_afresh(self):
        p = gen_pencil(GenConfig(n=3, seed=0, dominance_slack=1e-6))
        assert validate(p).ok
        strict = TolerancePolicy(rel_sing=1e-4, rel_eig=1e-10)
        with pytest.raises(ValidationFailedError) as err:
            spectral_summary(p, strict)
        assert not err.value.report.c3_holds
        assert [v.condition for v in err.value.report.violations] == [3]
        assert validate(p).ok

    def test_threads_sharing_a_fresh_pencil_get_one_report(self):
        p = gen_pencil(GenConfig(n=6, seed=3))
        reports, rhos = [], []

        def work():
            rhos.append(spectral_summary(p).rho_ab)
            reports.append(validate(p))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(reports) == 8 and all(r is validate(p) for r in reports)
        assert len(set(rhos)) == 1


class TestSpectralSummary:
    def test_golden_2x2(self, ex1):
        s = spectral_summary(ex1)
        assert s.mu == pytest.approx(2.0, abs=1e-12)
        assert s.rho_ab == pytest.approx(2.0 / 3.0, abs=1e-12)
        # the transform has eigenvalues {2, -1}; -1 maps to infinity and
        # is dropped, leaving the single finite eigenvalue 2/3
        assert len(s.eigenvalues) == 1
        assert s.eigenvalues[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_golden_4x4(self, ex2):
        s = spectral_summary(ex2)
        assert s.rho_ab == pytest.approx(RHO2, abs=1e-12)
        assert s.rho_ab == pytest.approx(s.mu / (1.0 + s.mu), abs=1e-12)

    def test_golden_nilpotent(self, ex3):
        s = spectral_summary(ex3)
        assert s.mu == 0.0
        assert s.rho_ab == 0.0

    def test_rejects_invalid(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationFailedError):
            spectral_summary(Pencil(A=A, B=A))

    def test_rho_is_largest_real_eigenvalue_below_one(self):
        for seed in range(30):
            p = gen_pencil(GenConfig(n=4, seed=seed, density=0.5))
            s = spectral_summary(p)
            real_in_range = [
                z.real
                for z in s.eigenvalues
                if abs(z.imag) < 1e-9 and -1e-9 <= z.real < 1.0
            ]
            assert real_in_range
            assert s.rho_ab == pytest.approx(max(real_in_range), abs=1e-8)


class TestThresholds:
    def test_golden_2x2(self, ex1):
        tbl = thresholds(ex1)
        assert tbl.tau[0] == 0.0
        assert tbl.tau[1] == pytest.approx(0.5, abs=1e-12)
        assert tbl.tau[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert tbl.sigma[0] == pytest.approx(1.0, abs=1e-12)
        assert tbl.sigma[1] == pytest.approx(2.0, abs=1e-12)

    def test_golden_4x4(self, ex2):
        tbl = thresholds(ex2)
        assert tbl.tau[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        for s in (2, 3, 4):
            assert tbl.tau[s] == pytest.approx(RHO2, abs=1e-12)
        # sigma_2 is attained by the class {2, 4} alone
        assert tbl.argmax_sets[1] == (2, 4)

    def test_golden_nilpotent(self, ex3):
        tbl = thresholds(ex3)
        assert tbl.tau == (0.0, 0.0, 0.0)

    def test_rounding_tie_goes_to_the_lexicographically_smallest_set(self):
        # The value of (1, 2, 4) is one ulp below that of (2, 3, 4).
        p = gen_pencil(GenConfig(n=4, seed=21, density=0.2))
        tbl = thresholds(p)
        assert tbl.argmax_sets[2] == (1, 2, 4)
        assert tbl.sigma[2] == pytest.approx(7.311173957284565, rel=1e-12)

    def test_tau_monotone_and_matches_rho(self):
        for seed in range(40):
            p = gen_pencil(GenConfig(n=5, seed=seed, density=0.4))
            tbl = thresholds(p)
            for a, b in zip(tbl.tau, tbl.tau[1:]):
                assert a <= b + 1e-10
            assert tbl.rho_ab == pytest.approx(spectral_summary(p).rho_ab, abs=1e-10)

    def test_sorting_sigma_sorts_tau(self):
        # mu -> mu/(1+mu) is strictly increasing on [0, inf)
        for seed in range(20):
            p = gen_pencil(GenConfig(n=5, seed=seed, density=0.6))
            tbl = thresholds(p)
            assert list(np.argsort(tbl.sigma)) == list(np.argsort(tbl.tau[1:]))


def _same_table(got, want):
    return (got.sigma, got.tau, got.argmax_sets) == (
        want.sigma, want.tau, want.argmax_sets)


def _same_top(p, tbl):
    summary = spectral_summary(p)
    return (summary.mu, summary.rho_ab) == (tbl.sigma[-1], tbl.tau[-1])


def _all_sets(n):
    return tuple(math.comb(n, s) for s in range(1, n + 1))


def _values_and_bounds(p):
    """Per size: the sets, each set's value by the sweep's arithmetic and
    the screen's upper bound, all sets evaluated."""
    M = p.B - p.A
    for s in range(1, p.n + 1):
        sets = np.array(list(itertools.combinations(range(p.n), s)))
        rows, cols = sets[:, :, None], sets[:, None, :]
        C = np.linalg.solve(M[rows, cols], p.A[rows, cols])
        _, upper = pencil_module._perron_bounds(np.abs(C))
        yield sets + 1, pencil_module._perron_of_transform(C), upper


def _every_value_under_its_bound(p):
    return all(np.all(values <= upper) for _, values, upper in _values_and_bounds(p))


def _block_diagonal(top, bottom, coupling=None):
    zero = np.zeros((top.shape[0], bottom.shape[1]))
    upper_right = zero if coupling is None else coupling
    return np.block([[top, upper_right], [zero.T, bottom]])


def _near_band_pencils():
    """Admitted generator pencils of order <= 8 whose slack is 2.5 or 10
    times the condition-3 band of validate, the nearest that
    test_condition_3_follows_the_stated_margin still decides."""
    grid = itertools.product(range(1, 9), (0.2, 0.5, 1.0), (1e-6, 1.0, 1e6), (2.5, 10.0))
    for seed, (n, density, magnitude, factor) in enumerate(grid):
        knobs = dict(n=n, seed=seed, density=density, magnitude=magnitude)
        probe = gen_pencil(GenConfig(**knobs, dominance_slack=1e-300))
        band = DEFAULT_TOL.rel_sing * max(1.0, inf_norm(probe.B - probe.A))
        p = gen_pencil(GenConfig(**knobs, dominance_slack=factor * band))
        assert validate(p).ok, knobs
        yield p


class TestWitnessCertifiesEverySubset:
    """The sweep has no pivot test: every principal submatrix of an
    admitted ``M = B - A`` is a nonsingular M-matrix no worse conditioned
    than M, since ``0 <= inv(M_J) <= inv(M)[J, J]``."""

    def test_principal_inverses_are_dominated(self):
        # A computed inverse is off by about n eps kappa(M) max|inv(M)|
        # entrywise; the grid stays below an eighth of that.
        eps = np.finfo(float).eps
        for p in _near_band_pencils():
            M = p.B - p.A
            Minv = np.linalg.inv(M)
            kappa = inf_norm(M) * inf_norm(Minv)
            slack = p.n * eps * kappa * np.abs(Minv).max()
            for s in range(1, p.n + 1):
                for J in itertools.combinations(range(p.n), s):
                    rows = np.array(J)[:, None]
                    MJinv = np.linalg.inv(M[rows, rows.T])
                    assert np.all(MJinv >= -slack), J
                    assert np.all(MJinv <= Minv[rows, rows.T] + slack), J

    def test_near_band_sweep_equals_oracle(self):
        # oracle_thresholds has no singularity test either.
        for p in _near_band_pencils():
            tbl = thresholds(p)
            assert _same_table(tbl, oracle_thresholds(p))
            assert _same_top(p, tbl)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_index_sets_are_itertools_combinations(self, n):
        sets = np.arange(n)[:, None]
        for s in range(1, n + 1):
            if s > 1:
                sets = pencil_module._next_sets(sets, n)
            want = np.array(list(itertools.combinations(range(n), s)))
            assert np.array_equal(sets, want), s


class TestScreen:
    """Sizes with many sets run eigvals only where a Collatz-Wielandt bound
    reaches the band; the table stays that of the full sweep."""

    def test_order_14_confirms_under_one_percent(self, monkeypatch):
        p = gen_pencil(GenConfig(n=14, seed=1, density=0.5))
        tbl = thresholds(p)
        monkeypatch.setattr(pencil_module, "_SCREEN_MIN_SETS", math.inf)
        full = thresholds(p)
        assert _same_table(tbl, full)
        assert full.confirmed == _all_sets(14)
        assert sum(tbl.confirmed) < 0.01 * (2**14 - 1)

    @pytest.mark.parametrize("scale", (1e-6, 1.0, 1e6))
    def test_tied_copies(self, scale):
        # diag(P, P): each set of one copy ties with its image in the other,
        # so the argmax is the lexicographically first set in the band.
        q = gen_pencil(GenConfig(n=5, seed=7, density=0.6))
        p = Pencil(A=scale * _block_diagonal(q.A, q.A),
                   B=scale * _block_diagonal(q.B, q.B))
        tbl = thresholds(p)
        assert sum(tbl.confirmed) < 2**10 - 1
        assert _same_table(tbl, oracle_thresholds(p))
        assert _every_value_under_its_bound(p)
        ties = 0
        for (sets, values, _), best, first in zip(
                _values_and_bounds(p), tbl.sigma, tbl.argmax_sets):
            in_band = values >= best - (1e-9 * best + 1e-13)
            ties += int(np.count_nonzero(in_band)) - 1
            assert tuple(sets[np.argmax(in_band)]) == first
        assert ties > 0

    @pytest.mark.parametrize("scale", (1e-6, 1.0, 1e6))
    def test_defective_top_eigenvalue(self, scale):
        # Two copies of one class, the first reaching the second: C_J has a
        # Jordan block at its Perron root whenever J takes the same vertices
        # from both copies.  With the copies interleaved, eigvals splits it
        # by up to 3.5e-8 relative, 35 times the band.
        q = gen_pencil(GenConfig(n=5, seed=11, density=1.0))
        M = q.B - q.A
        A = _block_diagonal(q.A, q.A, coupling=np.full((5, 5), 0.5))
        B = A + _block_diagonal(M, M)
        order = np.array([0, 5, 1, 6, 2, 7, 3, 8, 4, 9])[:, None]
        p = Pencil(A=scale * A[order, order.T], B=scale * B[order, order.T])
        assert validate(p).ok
        tbl = thresholds(p)
        assert sum(tbl.confirmed) < 2**10 - 1
        assert _same_table(tbl, oracle_thresholds(p))
        assert _every_value_under_its_bound(p)

    @pytest.mark.parametrize("fake", ("far below", "just below"))
    def test_bound_below_a_confirmed_value_evaluates_the_size(self, fake, monkeypatch):
        real = pencil_module._perron_bounds

        def bounds(P):
            lower, _ = real(P)
            if fake == "far below":
                return lower, np.full(len(P), -1.0)
            return lower, 0.999 * pencil_module._perron_of_transform(P)

        monkeypatch.setattr(pencil_module, "_perron_bounds", bounds)
        p = gen_pencil(GenConfig(n=10, seed=3))
        tbl, want = thresholds(p), oracle_thresholds(p)
        assert _same_table(tbl, want)
        assert tbl.confirmed == want.confirmed


class TestThresholdsAgainstThePerSetOracle:
    """The batched sweep gives every set the value of a solve and an
    eigenvalue call of its own, so the table equals the per-set oracle
    exactly: sigma, tau and the lexicographic argmax.  The whole set is
    solved by the same arithmetic as the spectral summary, so its row is
    ``mu`` and ``rho_ab`` exactly."""

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.pencil")),
                             ids=lambda path: path.name)
    def test_sample_files(self, path):
        p = parse_pencil(path.read_text(encoding="utf-8"))
        tbl = thresholds(p)
        assert _same_table(tbl, oracle_thresholds(p))
        assert _same_top(p, tbl)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generator_grid(self, n, monkeypatch):
        # No size at order <= 8 reaches the screen's gate; the same grid is
        # also swept with every size screened.
        compared = 0
        for density, magnitude, slack in itertools.product(
                (0.05, 0.2, 0.5, 1.0), (1e-6, 1e-3, 1.0, 1e3, 1e6), (1e-5, 0.1)):
            p = gen_pencil(GenConfig(n=n, seed=100 + n, density=density,
                                     magnitude=magnitude, dominance_slack=slack))
            if not validate(p).ok:
                continue
            tbl, want = thresholds(p), oracle_thresholds(p)
            assert _same_table(tbl, want), (density, magnitude, slack)
            assert _same_top(p, tbl), (density, magnitude, slack)
            assert tbl.confirmed == want.confirmed == _all_sets(n)
            with monkeypatch.context() as m:
                m.setattr(pencil_module, "_SCREEN_MIN_SETS", 1)
                assert _same_table(thresholds(p), want), (density, magnitude, slack)
            assert _every_value_under_its_bound(p), (density, magnitude, slack)
            compared += 1
        assert compared >= 20

    @pytest.mark.parametrize("n", (9, 10, 11))
    def test_screened_grid(self, n):
        compared = 0
        for density, magnitude, slack in itertools.product(
                (0.15, 0.5, 1.0), (1e-6, 1.0, 1e6), (1e-5, 0.1)):
            p = gen_pencil(GenConfig(n=n, seed=100 + n, density=density,
                                     magnitude=magnitude, dominance_slack=slack))
            if not validate(p).ok:
                continue
            tbl = thresholds(p)
            assert _same_table(tbl, oracle_thresholds(p)), (density, magnitude, slack)
            assert _same_top(p, tbl), (density, magnitude, slack)
            assert _every_value_under_its_bound(p), (density, magnitude, slack)
            assert sum(tbl.confirmed) < 2**n - 1, (density, magnitude, slack)
            compared += 1
        assert compared >= 12


class TestClassifyAt:
    def test_golden_2x2_points(self, ex1):
        tbl = thresholds(ex1)
        expected = {0.0: 0, 0.25: 0, 0.5: 1, 0.6: 1, 2.0 / 3.0: 2, 0.8: 2, 1.0: 2}
        for t, s in expected.items():
            assert classify_at(ex1, t, tbl) == s

    def test_golden_4x4_points(self, ex2):
        tbl = thresholds(ex2)
        assert classify_at(ex2, 0.0, tbl) == 0
        assert classify_at(ex2, 0.5, tbl) == 1
        assert classify_at(ex2, 0.9, tbl) == 4
        # coincident thresholds: L_2 and L_3 are skipped at the boundary
        assert classify_at(ex2, RHO2, tbl) == 4

    def test_out_of_range(self, ex1):
        tbl = thresholds(ex1)
        with pytest.raises(ValueError):
            classify_at(ex1, -0.1, tbl)
        with pytest.raises(ValueError):
            classify_at(ex1, 1.1, tbl)

    def test_matches_direct_classifier(self):
        for seed in range(25):
            p = gen_pencil(GenConfig(n=4, seed=seed, density=0.5))
            tbl = thresholds(p)
            for t in np.linspace(0.0, 1.0, 11):
                assert classify_at(p, t, tbl) == classify_direct(p.matrix_at(t))


class TestPartition:
    def test_golden_2x2(self, ex1):
        segs = partition(ex1, thresholds(ex1)).segments
        assert [(s.lo, s.hi, s.s) for s in segs] == [
            (0.0, pytest.approx(0.5), 0),
            (pytest.approx(0.5), pytest.approx(2.0 / 3.0), 1),
            (pytest.approx(2.0 / 3.0), 1.0, 2),
        ]
        assert [s.hi_closed for s in segs] == [False, False, True]
        assert all(s.lo_closed for s in segs)

    def test_golden_4x4_skips_empty_classes(self, ex2):
        segs = partition(ex2, thresholds(ex2)).segments
        assert [s.s for s in segs] == [0, 1, 4]
        assert segs[1].hi == pytest.approx(RHO2, abs=1e-12)

    def test_golden_single_segment(self, ex3):
        segs = partition(ex3, thresholds(ex3)).segments
        assert [(s.lo, s.hi, s.s, s.hi_closed) for s in segs] == [(0.0, 1.0, 2, True)]

    def test_covers_unit_interval(self):
        for seed in range(30):
            p = gen_pencil(GenConfig(n=5, seed=seed, density=0.5))
            segs = partition(p, thresholds(p)).segments
            assert segs[0].lo == 0.0 and segs[-1].hi == 1.0
            for a, b in zip(segs, segs[1:]):
                assert a.hi == b.lo
                assert a.s < b.s


class TestMTrichotomy:
    def test_golden_above(self, ex1):
        assert m_trichotomy(ex1, 0.9) is MStatus.NONSINGULAR_M

    def test_golden_at(self, ex1):
        assert m_trichotomy(ex1, 2.0 / 3.0) is MStatus.SINGULAR_M

    def test_golden_below(self, ex1):
        assert m_trichotomy(ex1, 0.5) is MStatus.NOT_M

    def test_golden_nilpotent_origin(self, ex3):
        assert m_trichotomy(ex3, 0.0) is MStatus.SINGULAR_M

    def test_origin_with_positive_diagonal(self, ex1):
        # a_11 = 1 > 0, so -A is not an M-matrix
        assert m_trichotomy(ex1, 0.0) is MStatus.NOT_M

    def test_out_of_range(self, ex1):
        with pytest.raises(ValueError):
            m_trichotomy(ex1, 1.5)

    @pytest.mark.parametrize("cfg", [
        GenConfig(2, (2, 27), 0.2, 1e6, 1e-9), GenConfig(3, (1, 88), 0.2, 1e6, 1e-5),
    ])
    def test_nonsingular_at_one_when_rho_is_within_the_band_of_one(self, cfg):
        # B - A is what validate certified, though 1 - rho_ab < rel_sing
        p = gen_pencil(cfg)
        assert validate(p).ok and 1.0 - spectral_summary(p).rho_ab < 1e-9
        assert m_trichotomy(p, 1.0) is MStatus.NONSINGULAR_M

    def test_nonsingular_above_a_zero_critical_value(self):
        p = gen_pencil(GenConfig(2, (1, 13), 0.05, 1e6, 1e-5))
        assert validate(p).ok and spectral_summary(p).rho_ab == 0.0
        assert m_trichotomy(p, 0.5) is MStatus.NONSINGULAR_M


def _zero_diagonal_with_girth(n, girth, rng):
    """Zero-diagonal A whose digraph has the given girth (n + 1: acyclic).

    A directed cycle on the first ``girth`` vertices of a random order,
    then forward edges that leave the cycle or join later vertices, so no
    path returns to the cycle and no shorter cycle forms."""
    order = rng.permutation(n)
    A = np.zeros((n, n))
    cycle = girth if girth <= n else 0
    for pos in range(n):
        for later in range(max(pos + 1, cycle), n):
            if rng.random() < 0.5:
                A[order[pos], order[later]] = rng.uniform(0.5, 1.0)
    for pos in range(cycle):
        A[order[pos], order[(pos + 1) % cycle]] = rng.uniform(0.5, 1.0)
    return A


class TestClassAtZero:
    """At t = 0 the class of -A is read off G(A): 0 with a loop, else
    min(n, girth - 1)."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_direct_classifier(self, n):
        rng = np.random.default_rng(n)
        cases = [(_zero_diagonal_with_girth(n, g, rng), g - 1) for g in range(2, n + 2)]
        for g in range(2, n + 2):
            A = _zero_diagonal_with_girth(n, g, rng)
            loop = rng.integers(n)
            A[loop, loop] = rng.uniform(0.5, 1.0)
            cases.append((A, 0))
        for A, want in cases:
            p = Pencil(A=A, B=A + np.eye(n))
            tbl = thresholds(p)
            assert classify_at(p, 0.0, tbl) == classify_direct(-A) == want
            status = MStatus.SINGULAR_M if want == n else MStatus.NOT_M
            assert m_trichotomy(p, 0.0) is status

    def test_order_16_enumerates_no_subset(self, monkeypatch):
        n = 16
        A = _zero_diagonal_with_girth(n, n + 1, np.random.default_rng(16))
        p = Pencil(A=A, B=A + np.eye(n))
        assert validate(p).ok
        tbl = thresholds(p)

        def refuse(*args, **kwargs):
            raise AssertionError("the t = 0 rule solved an eigenproblem")

        for name in ("classify_direct", "m_status"):
            monkeypatch.setattr(f"zpencil.zmatrix.{name}", refuse)
        assert classify_at(p, 0.0, tbl) == n
        assert m_trichotomy(p, 0.0) is MStatus.SINGULAR_M


class TestZsBound:
    def test_golden_4x4(self, ex2):
        tbl = thresholds(ex2)
        part = classes(union(digraph_of(ex2.A), digraph_of(ex2.B)))
        bounds = zs_bound(ex2, tbl, part)
        assert len(bounds) == 1
        b = bounds[0]
        assert b.vertices == (2, 4) and b.m == 2 and b.s_upper == 1

    def test_single_class_gives_n_minus_one(self, ex1):
        tbl = thresholds(ex1)
        part = classes(union(digraph_of(ex1.A), digraph_of(ex1.B)))
        assert part.classes == ((1, 2),)
        bounds = zs_bound(ex1, tbl, part)
        assert len(bounds) == 1
        assert bounds[0].m == 2 and bounds[0].s_upper == 1

    def test_bound_respected_on_golden(self, ex2):
        # L_0 and L_1 are the only classes taken on (0, rho_ab)
        tbl = thresholds(ex2)
        for t in np.linspace(0.01, RHO2 - 0.01, 9):
            assert classify_at(ex2, t, tbl) <= 1


    @pytest.mark.parametrize("n", range(1, 9))
    def test_generator_grid_matches_per_class_reference(self, n):
        # Per union class K: the guarded solve for C_K = (B - A)_K^{-1} A_K,
        # then the largest real part of its eigenvalues, clipped at 0.
        compared = attained = 0
        for density, magnitude, slack in itertools.product(
                (0.05, 0.2, 0.5, 1.0), (1e-6, 1e-3, 1.0, 1e3, 1e6), (1e-9, 1e-5, 0.1)):
            p = gen_pencil(GenConfig(n=n, seed=300 + n, density=density,
                                     magnitude=magnitude, dominance_slack=slack))
            if not validate(p).ok:
                continue
            tbl = thresholds(p)
            part = classes(union(digraph_of(p.A), digraph_of(p.B)))
            want = []
            for K in part.classes:
                AK = submatrix(p.A, K)
                C = solve(submatrix(p.B, K) - AK, AK)
                mu = max(0.0, float(np.linalg.eigvals(C).real.max()))
                if abs(mu / (1.0 + mu) - tbl.rho_ab) <= DEFAULT_TOL.rel_eig:
                    m = len(K)
                    want.append(CriticalClassBound(K, m, n - 1 if m == n else m - 1))
            got = zs_bound(p, tbl, part)
            assert got == tuple(want), (density, magnitude, slack)
            compared += 1
            attained += bool(got)
        assert compared >= 30 and attained == compared


def _probe_points(rho):
    """A grid of [0, 1] and t = rho_ab (1 +- 1e-6), rho_ab (1 +- 1e-8)."""
    ts = list(np.linspace(0.0, 1.0, 13))
    ts += [rho * (1.0 + f) for f in (-1e-6, 1e-6, -1e-8, 1e-8)]
    return [min(max(float(t), 0.0), 1.0) for t in ts]


def _magnitude_grid():
    """Admitted generator pencils of order 2-6, magnitudes 1e-6 to 1e6."""
    grid = itertools.product(range(2, 7), (1e-6, 1e-3, 1.0, 1e3, 1e6),
                             (0.2, 0.5, 1.0), (1e-5, 0.1))
    for seed, (n, magnitude, density, slack) in enumerate(grid):
        p = gen_pencil(GenConfig(n=n, seed=700 + seed, density=density,
                                 magnitude=magnitude, dominance_slack=slack))
        if validate(p).ok:
            yield p


class TestTrichotomyConsistency:
    def test_m_side_iff_top_class(self):
        # NonsingularM or SingularM exactly when the class index is n, also
        # within 1e-6 of rho_ab at magnitudes 1e-6 to 1e6
        pencils = [gen_pencil(GenConfig(n=4, seed=seed, density=0.45)) for seed in range(20)]
        compared = 0
        for p in itertools.chain(pencils, _magnitude_grid()):
            tbl = thresholds(p)
            for t in _probe_points(tbl.rho_ab):
                is_m = m_trichotomy(p, t) is not MStatus.NOT_M
                assert is_m == (classify_at(p, t, tbl) == p.n), (p.n, t)
                compared += 1
        assert compared >= 120 * 17

    def test_verdicts_do_not_depend_on_scale(self):
        # At t = 0 the digraph of cA must keep that of A: every nonzero
        # |c a_ij| above the absolute floor.
        compared = 0
        for p in _magnitude_grid():
            tbl = thresholds(p)
            ts = _probe_points(tbl.rho_ab)
            want = [(classify_at(p, t, tbl), m_trichotomy(p, t)) for t in ts]
            nonzero = np.abs(p.A[p.A != 0.0])
            for c in (1e-6, 1e6):
                q = Pencil(A=c * p.A, B=c * p.B)
                if not validate(q).ok:  # condition 3 has an absolute band
                    continue
                same_graph = (nonzero.size == 0
                              or min(1.0, c) * nonzero.min() > DEFAULT_TOL.abs_floor)
                qtbl = thresholds(q)
                for t, verdict in zip(ts, want):
                    if t > 0.0 or same_graph:
                        got = (classify_at(q, t, qtbl), m_trichotomy(q, t))
                        assert got == verdict, (c, t)
                        compared += 1
        assert compared >= 100 * 17

    def test_classify_at_reads_the_partition_at_the_top_of_the_band(
            self, ex1, ex2, ex3):
        # For t > delta, classify_at(t) is the s of the segment that holds
        # min(t + delta, 1); the segment that holds t itself may differ.
        def segment_at(part, x):
            return next(seg.s for seg in part.segments
                        if seg.lo <= x < seg.hi or (seg.hi_closed and x == seg.hi))

        compared = at_t_differs = 0
        for p in itertools.chain([ex1, ex2, ex3], _magnitude_grid()):
            tbl = thresholds(p)
            part = partition(p, tbl)
            ts = [k / 10 for k in range(1, 11)]
            ts += [tbl.rho_ab * (1.0 + f) for f in (-1e-6, 1e-6, -1e-8, 1e-8)]
            ts += [tau * (1.0 + f) for tau in tbl.tau[1:] for f in (-1e-8, 0.0, 1e-8)]
            for t in ts:
                delta = DEFAULT_TOL.rel_sing * max(1.0, t)
                if not delta < t <= 1.0:
                    continue
                s = classify_at(p, t, tbl)
                assert s == segment_at(part, min(t + delta, 1.0)), (p.n, t)
                at_t_differs += s != segment_at(part, t)
                compared += 1
        assert compared >= 3000 and at_t_differs > 0


class TestEnumerationGuard:
    def test_thresholds_guarded_above_sixteen(self):
        from zpencil.zmatrix import EnumerationLimitError

        n = 17
        p = Pencil(A=np.zeros((n, n)), B=np.eye(n))
        with pytest.raises(EnumerationLimitError):
            thresholds(p)

    def test_explicit_override_lifts_guard(self, ex1):
        from zpencil.zmatrix import EnumerationLimitError

        with pytest.raises(EnumerationLimitError):
            thresholds(ex1, max_order=1)
        tbl = thresholds(ex1, max_order=2)
        assert tbl.tau[2] == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestEigenvalueMap:
    def test_matches_determinant_roots(self):
        # bijection between transform eigenvalues and pencil eigenvalues
        from scipy.optimize import linear_sum_assignment

        for seed in range(25):
            p = gen_pencil(GenConfig(n=4, seed=seed, density=0.5))
            got = spectral_summary(p).eigenvalues
            oracle = oracle_pencil_eigs(p)
            assert len(got) == len(oracle.finite)
            if not got:
                continue
            cost = np.array(
                [[abs(a - b) for b in oracle.finite] for a in got]
            )
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-8
