import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zpencil
from zpencil.cli import parse_pencil
from zpencil.linalg import DEFAULT_TOL, inf_norm
from zpencil.pencil import validate
from zpencil.testkit import (
    GenConfig,
    gen_pencil,
    oracle_classify,
    oracle_pencil_eigs,
)
from zpencil.zmatrix import NotZMatrixError


class TestGenPencil:
    def test_scalar_structure(self):
        p = gen_pencil(GenConfig(n=1, seed=3, density=1.0))
        assert p.n == 1
        assert p.B[0, 0] - p.A[0, 0] > 0

    def test_every_instance_validates(self):
        for n in (1, 2, 3, 4, 5, 6):
            for seed in range(10):
                cfg = GenConfig(n=n, seed=seed, density=0.2 + 0.1 * (seed % 7))
                assert validate(gen_pencil(cfg)).ok

    def test_condition_3_follows_the_stated_margin(self):
        # validate admits condition 3 iff dominance_slack exceeds
        # rel_sing * max(1, ||B - A||_inf); configs within a factor 2 of
        # that band are left out, since rounding in B - A decides them
        admitted = refused = 0
        grid = itertools.product(
            range(1, 9), (0.05, 0.2, 0.5, 1.0), 10.0 ** np.arange(-6, 7, 2),
            10.0 ** np.arange(-12, 1),
        )
        for seed, (n, density, magnitude, slack) in enumerate(grid):
            cfg = GenConfig(n=n, seed=seed, density=density,
                            magnitude=magnitude, dominance_slack=slack)
            p = gen_pencil(cfg)
            band = DEFAULT_TOL.rel_sing * max(1.0, inf_norm(p.B - p.A))
            if band / 2 <= slack <= 2 * band:
                continue
            report = validate(p)
            assert report.c1_holds and report.c2_holds, cfg
            assert report.c3_holds == (slack > band), cfg
            admitted += report.c3_holds
            refused += not report.c3_holds
        assert admitted > 1000 and refused > 500

    def test_deterministic_in_seed(self):
        cfg = GenConfig(n=5, seed=99, density=0.4)
        p1, p2 = gen_pencil(cfg), gen_pencil(cfg)
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.B, p2.B)

    def test_regression_snapshot(self, data_dir):
        frozen = parse_pencil((data_dir / "gen_n4_seed42.pencil").read_text())
        p = gen_pencil(GenConfig(n=4, seed=42))
        assert np.array_equal(p.A, frozen.A)
        assert np.array_equal(p.B, frozen.B)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(n=0, seed=1)
        with pytest.raises(ValueError):
            GenConfig(n=2, seed=1, density=0.0)
        with pytest.raises(ValueError):
            GenConfig(n=2, seed=1, dominance_slack=-1.0)


class TestOraclePencilEigs:
    def test_golden_2x2_degree_drop(self, ex1):
        # det(t*B - A) = 3t - 2 here (B is singular): one finite root 2/3
        spec = oracle_pencil_eigs(ex1)
        assert spec.infinite_count == 1
        assert len(spec.finite) == 1
        assert spec.finite[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_trivial_pencil(self):
        from zpencil.pencil import Pencil

        p = Pencil(A=np.zeros((3, 3)), B=np.eye(3))
        spec = oracle_pencil_eigs(p)
        assert spec.infinite_count == 0
        assert all(abs(z) < 1e-12 for z in spec.finite)

    def test_golden_nilpotent(self, ex3):
        # det(t*B - A) = t^2: double root at 0, no infinite eigenvalues
        spec = oracle_pencil_eigs(ex3)
        assert spec.infinite_count == 0
        assert len(spec.finite) == 2
        assert all(abs(z) < 1e-12 for z in spec.finite)

    def test_order_guard(self):
        p = gen_pencil(GenConfig(n=7, seed=0))
        with pytest.raises(ValueError):
            oracle_pencil_eigs(p)


class TestOracleClassify:
    def test_identity(self):
        assert oracle_classify(np.eye(4)) == 4

    def test_golden_interval_point(self, ex1):
        assert oracle_classify(ex1.matrix_at(0.55)) == 1

    def test_negated_with_positive_diagonal(self, ex1):
        # a_11 = 1 > 0, so -A sits in class 0
        assert oracle_classify(-ex1.A) == 0

    def test_rejects_non_z(self):
        with pytest.raises(NotZMatrixError):
            oracle_classify([[0.0, 1.0], [0.0, 0.0]])

    def test_order_guard(self):
        with pytest.raises(ValueError):
            oracle_classify(np.eye(9))


class TestTripleAgreement:
    def test_small_sample(self):
        # the full-size suite lives in the acceptance module
        from zpencil.pencil import classify_at, thresholds
        from zpencil.zmatrix import classify_direct

        for seed in range(10):
            p = gen_pencil(GenConfig(n=4, seed=seed, density=0.45))
            tbl = thresholds(p)
            for t in np.linspace(0.0, 1.0, 9):
                member = p.matrix_at(t)
                a = classify_at(p, t, tbl)
                b = classify_direct(member)
                c = oracle_classify(member)
                assert a == b == c


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this checkout's zpencil."""
    src = Path(zpencil.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True,
    )


def test_package_import_leaves_testkit_unloaded():
    done = _fresh_python(
        "-c", "import sys, zpencil; print('zpencil.testkit' in sys.modules)")
    assert done.stdout.strip() == "False"
    assert not {"rho_s", "gen_pencil", "GenConfig"} & set(zpencil.__all__)


SCIPY_PROBE = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import zpencil
after_import = scipy_modules()
from zpencil import cli
status = cli.main(["report", sys.argv[1], "--json"])
print(after_import, scipy_modules(), status, file=sys.stderr)
"""


def test_runtime_loads_no_scipy():
    ex2 = Path(__file__).parent / "data" / "ex2.pencil"
    done = _fresh_python("-c", SCIPY_PROBE, str(ex2))
    assert done.stderr.strip() == "[] [] 0"
