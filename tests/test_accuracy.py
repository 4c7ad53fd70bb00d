"""Every eigenbasis entry against a 50-digit reference.

The reference is built here, with mpmath, from the paper's characterization
rather than the library's construction: on the support W, the kernel of
``rho_W*B_W - A_W``, where ``rho_W = mu / (1 + mu)`` and ``mu`` is the
Perron root of ``(B_W - A_W)^{-1} A_W``.  The kernel is one-dimensional and
positive, so fixing the entry of the first vertex of the origin class at 1
leaves a nonsingular system for the rest.  The library's vector must match
it to 1e-8 in the infinity norm, both scaled to infinity norm 1.
"""

import itertools
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zpencil.cli import parse_pencil
from zpencil.eigenstructure import critical_classes, pencil_eigenbasis
from zpencil.pencil import spectral_summary, validate
from zpencil.testkit import GenConfig, gen_pencil

DATA_DIR = Path(__file__).parent / "data"
NORMWISE_LIMIT = 1e-8


def reference_vector(A, B, support, origin) -> np.ndarray:
    """The kernel vector of ``rho_W*B_W - A_W`` in 50 digits, zero off W."""
    W = [v - 1 for v in support]
    s = len(W)
    with mpmath.workdps(50):
        a = mpmath.matrix([[mpmath.mpf(float(A[i, j])) for j in W] for i in W])
        b = mpmath.matrix([[mpmath.mpf(float(B[i, j])) for j in W] for i in W])
        values, _ = mpmath.eig(mpmath.inverse(b - a) * a)
        mu = max(mpmath.re(e) for e in values)
        X = (mu / (1 + mu)) * b - a
        fixed = support.index(origin[0])
        rest = [i for i in range(s) if i != fixed]
        y = [mpmath.mpf(1)] * s
        if rest:
            sub = mpmath.matrix([[X[i, j] for j in rest] for i in rest])
            rhs = mpmath.matrix([-X[i, fixed] for i in rest])
            for i, v in zip(rest, mpmath.lu_solve(sub, rhs)):
                y[i] = v
        top = max(y, key=abs)
        x = np.zeros(A.shape[0])
        x[W] = [float(v / top) for v in y]
    return x


def normwise_errors(p) -> list[float]:
    crit = critical_classes(p, spectral_summary(p))
    return [
        float(np.max(np.abs(
            vec.x - reference_vector(p.A, p.B, vec.support, vec.origin_class))))
        for vec in pencil_eigenbasis(p, crit)
    ]


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.pencil")),
                         ids=lambda path: path.name)
def test_sample_files(path):
    errors = normwise_errors(parse_pencil(path.read_text(encoding="utf-8")))
    assert errors and max(errors) <= NORMWISE_LIMIT, errors


@pytest.mark.parametrize("n", range(3, 9))
def test_generator_grid(n):
    compared = 0
    for magnitude, slack, density in itertools.product(
            (1e3, 1e6), (1e-5, 0.1), (0.05, 0.2, 0.5, 1.0)):
        cfg = GenConfig(n=n, seed=1, density=density, magnitude=magnitude,
                        dominance_slack=slack)
        p = gen_pencil(cfg)
        if not validate(p).ok:
            continue
        errors = normwise_errors(p)
        assert max(errors, default=0.0) <= NORMWISE_LIMIT, (cfg, errors)
        compared += len(errors)
    assert compared >= 8
