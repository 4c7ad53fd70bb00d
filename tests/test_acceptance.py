"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Golden values are pinned at their stated tolerances; the property
criteria run over fixed-seed generated instances, so every run checks the
identical sample.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, nnls

from zpencil.digraph import classes, digraph_of, union
from zpencil.eigenstructure import critical_classes, pencil_eigenbasis
from zpencil.linalg import inf_norm
from zpencil.pencil import (
    classify_at,
    m_trichotomy,
    partition,
    spectral_summary,
    thresholds,
)
from zpencil.testkit import (
    GenConfig,
    gen_pencil,
    oracle_classify,
    oracle_pencil_eigs,
)
from zpencil.zmatrix import MStatus, classify_direct

RHO2 = (4.0 + math.sqrt(6.0)) / 10.0

DENSITIES = (0.2, 0.35, 0.5, 0.75, 0.9)
MAIN_COUNTS = {2: 50, 3: 50, 4: 45, 5: 35, 6: 25}  # 205 instances
MAIN_CONFIGS = [
    GenConfig(n=n, seed=1000 * n + i, density=DENSITIES[i % len(DENSITIES)])
    for n, count in MAIN_COUNTS.items()
    for i in range(count)
]
SMALL_CONFIGS = [  # 100 instances of order <= 5
    GenConfig(n=n, seed=2000 * n + i, density=DENSITIES[i % len(DENSITIES)])
    for n in (2, 3, 4, 5)
    for i in range(25)
]


def criterion(cid, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {cid}] {title}: FAIL")
                raise
            print(f"[criterion {cid}] {title}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def main_instances():
    return [gen_pencil(cfg) for cfg in MAIN_CONFIGS]


@pytest.fixture(scope="module")
def main_tables(main_instances):
    return [thresholds(p) for p in main_instances]


@pytest.fixture(scope="module")
def small_instances():
    return [gen_pencil(cfg) for cfg in SMALL_CONFIGS]


@criterion(1, "golden 2x2 walkthrough")
def test_criterion_1_example1_golden(ex1):
    start = time.perf_counter()
    tbl = thresholds(ex1)
    assert abs(tbl.tau[1] - 0.5) <= 1e-9
    assert abs(tbl.tau[2] - 2.0 / 3.0) <= 1e-9
    segs = partition(ex1, tbl).segments
    assert [seg.s for seg in segs] == [0, 1, 2]
    assert segs[0].lo == 0.0 and abs(segs[0].hi - 0.5) <= 1e-9
    assert abs(segs[1].lo - 0.5) <= 1e-9 and abs(segs[1].hi - 2.0 / 3.0) <= 1e-9
    assert abs(segs[2].lo - 2.0 / 3.0) <= 1e-9 and segs[2].hi == 1.0
    assert [seg.hi_closed for seg in segs] == [False, False, True]
    expected = {0.0: 0, 0.25: 0, 0.5: 1, 0.6: 1, 2.0 / 3.0: 2, 0.8: 2, 1.0: 2}
    for t, s in expected.items():
        assert classify_at(ex1, t, tbl) == s, f"t={t}"
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"runtime {elapsed:.3f}s over budget"


@criterion(2, "golden 4x4 with coincident thresholds")
def test_criterion_2_example2_golden(ex2):
    tbl = thresholds(ex2)
    assert abs(tbl.tau[1] - 1.0 / 3.0) <= 1e-9
    for s in (2, 3, 4):
        assert abs(tbl.tau[s] - RHO2) <= 1e-9
    segs = partition(ex2, tbl).segments
    assert [seg.s for seg in segs] == [0, 1, 4]
    summary = spectral_summary(ex2)
    vecs = pencil_eigenbasis(ex2, critical_classes(ex2, summary))
    assert len(vecs) == 1
    x = vecs[0].x
    assert abs(x[0]) <= 1e-10 and abs(x[2]) <= 1e-10
    assert x[1] > 1e-10 and x[3] > 1e-10
    part = classes(union(digraph_of(ex2.A), digraph_of(ex2.B)))
    from zpencil.pencil import zs_bound

    bounds = zs_bound(ex2, tbl, part)
    assert len(bounds) == 1
    assert bounds[0].vertices == (2, 4)
    assert bounds[0].s_upper == 1  # s < 2


@criterion(3, "golden 2x2 with critical value zero")
def test_criterion_3_example3_golden(ex3):
    summary = spectral_summary(ex3)
    assert abs(summary.rho_ab) <= 1e-12
    tbl = thresholds(ex3)
    for t in np.linspace(0.0, 1.0, 11):
        assert classify_at(ex3, t, tbl) == 2
    assert m_trichotomy(ex3, 0.0) is MStatus.SINGULAR_M
    vecs = pencil_eigenbasis(ex3, critical_classes(ex3, summary))
    assert len(vecs) == 1
    assert np.array_equal(vecs[0].x, [1.0, 0.0])
    # the construction graph is G(A): the support is the access closure of
    # class {1} there, not of the larger union graph
    assert vecs[0].support == (1,)


@criterion(4, "classifier equivalence on 205 fixed-seed pencils")
def test_criterion_4_classifier_equivalence(main_instances, main_tables):
    start = time.perf_counter()
    checked = 0
    for p, tbl in zip(main_instances, main_tables):
        grid = set(np.linspace(0.0, 1.0, 21).tolist())
        for tau in tbl.tau:
            for t in (tau - 1e-7, tau, tau + 1e-7):
                grid.add(min(max(t, 0.0), 1.0))
        for t in sorted(grid):
            member = p.matrix_at(t)
            table_s = classify_at(p, t, tbl)
            direct_s = classify_direct(member)
            oracle_s = oracle_classify(member)
            assert table_s == direct_s == oracle_s, (
                f"disagreement at n={p.n}, t={t}: "
                f"table={table_s} direct={direct_s} oracle={oracle_s}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert len(main_instances) >= 200
    assert checked >= 200 * 21
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"


@criterion(5, "trichotomy around the critical value")
def test_criterion_5_trichotomy(main_instances, main_tables):
    for p, tbl in zip(main_instances, main_tables):
        rho = tbl.rho_ab
        for t in np.linspace(min(rho + 0.01, 1.0), 1.0, 5):
            assert m_trichotomy(p, t) is MStatus.NONSINGULAR_M, (p.n, t)
        assert m_trichotomy(p, rho) is MStatus.SINGULAR_M, (p.n, rho)
        if rho > 0.02:
            for factor in (0.1, 0.5, 0.9):
                assert m_trichotomy(p, factor * rho) is MStatus.NOT_M, (p.n, factor)


@criterion(6, "eigenvalue map against determinant roots")
def test_criterion_6_eigenvalue_map(small_instances, main_tables):
    for p in small_instances:
        summary = spectral_summary(p)
        oracle = oracle_pencil_eigs(p)
        assert len(summary.eigenvalues) == len(oracle.finite)
        if summary.eigenvalues:
            cost = np.array(
                [[abs(a - b) for b in oracle.finite] for a in summary.eigenvalues]
            )
            rows, cols = linear_sum_assignment(cost)
            assert float(cost[rows, cols].max()) <= 1e-8
        tbl = thresholds(p)
        for lo, hi in zip(tbl.tau, tbl.tau[1:]):
            assert lo <= hi + 1e-10
        assert abs(tbl.rho_ab - summary.rho_ab) <= 1e-10
    # the monotonicity and tau_n = rho_ab checks also hold on the larger set
    for tbl in main_tables:
        for lo, hi in zip(tbl.tau, tbl.tau[1:]):
            assert lo <= hi + 1e-10


@criterion(7, "classes of members match the union digraph")
def test_criterion_7_graph_suite(main_instances):
    for p in main_instances:
        expected = classes(union(digraph_of(p.A), digraph_of(p.B)))
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert classes(digraph_of(p.matrix_at(t))) == expected, (p.n, t)


@criterion(8, "eigenbasis residuals, supports, and cone membership")
def test_criterion_8_eigenbasis_suite(small_instances):
    rng = np.random.default_rng(77)
    assert len(small_instances) >= 100
    for p in small_instances:
        summary = spectral_summary(p)
        vecs = pencil_eigenbasis(p, critical_classes(p, summary))
        # the critical member is singular, so the nullity is at least 1
        assert vecs
        limit = 1e-8 * max(inf_norm(p.A), inf_norm(p.B))
        for vec in vecs:
            residual = inf_norm(p.A @ vec.x - summary.rho_ab * (p.B @ vec.x))
            assert residual <= limit
            positive = tuple(int(i) + 1 for i in np.nonzero(vec.x > 1e-10)[0])
            assert positive == vec.support
        # sample an independent nonnegative kernel vector by inverse
        # iteration from a random positive start, then reproduce it by
        # nonnegative least squares over the returned basis
        X = summary.rho_ab * p.B - p.A
        eps = 1e-8 * max(1.0, inf_norm(X))
        sample = rng.uniform(0.5, 1.5, p.n)
        for _ in range(3):
            sample = np.linalg.solve(X + eps * np.eye(p.n), sample)
            sample = np.maximum(sample, 0.0)
            sample /= sample.max()
        basis = np.column_stack([vec.x for vec in vecs])
        coeff, _ = nnls(basis, sample)
        assert inf_norm(basis @ coeff - sample) <= 1e-6
