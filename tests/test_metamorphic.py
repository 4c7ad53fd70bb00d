"""Metamorphic relations: a vertex permutation, transposition, and scaling
of A and B by one positive factor change no threshold, and move the
classes and supports only as the relation moves the vertices.

The grid is 90 generator pencils: orders 2-6, magnitudes 1e-3, 1 and 1e3,
densities 0.2, 0.5 and 1, slacks 1e-5 and 0.1, seed 900 + k for the k-th
pencil, and the permutation ``default_rng(k).permutation(n)``.  Every
pencil and every image is admitted.  Values agree within
``1e-9*|v| + 1e-13``.  The known exceptions are strict xfails naming the
ROADMAP item that is to mend them.
"""

import functools
import itertools

import numpy as np
import pytest

from zpencil.eigenstructure import critical_classes, pencil_eigenbasis
from zpencil.pencil import partition, spectral_summary, thresholds, validate
from zpencil.testkit import GenConfig, gen_pencil, permuted, scaled, transposed

GRID = itertools.product(range(2, 7), (1e-3, 1.0, 1e3), (0.2, 0.5, 1.0), (1e-5, 0.1))
CONFIGS = [GenConfig(n, 900 + k, density, magnitude, slack)
           for k, (n, magnitude, density, slack) in enumerate(GRID)]

RELATIONS = {
    "permuted": lambda p, perm: permuted(p, perm),
    "transposed": lambda p, perm: transposed(p),
    "scaled_1e-3": lambda p, perm: scaled(p, 1e-3),
    "scaled_1e3": lambda p, perm: scaled(p, 1e3),
}

# sigma_4 = 6.08e-8 > sigma_5 = 0, though sigma never decreases: sigma_4 is
# noise on an exact zero, and its digits move with every relation.
SIGMA_NOISE = {54: "sigma_4 is noise on an exact zero (ROADMAP item 6)"}
# Scaled by 1e3, the singularity test on the blocks of rho_ab*B - A calls
# the critical class nonsingular, so no class is distinguished.
LOST_VECTOR = {8: "the only vector is lost (ROADMAP item 4)",
               31: "the only vector is lost (ROADMAP item 4)"}


def _perm(k):
    return np.random.default_rng(k).permutation(CONFIGS[k].n)


@functools.cache
def _analysis(k, relation=None):
    p = gen_pencil(CONFIGS[k])
    if relation is not None:
        p = RELATIONS[relation](p, _perm(k))
    if not validate(p).ok:
        return {"ok": False}
    tbl = thresholds(p)
    segments = partition(p, tbl).segments
    summary = spectral_summary(p)
    basis = pencil_eigenbasis(p, critical_classes(p, summary))
    return {"ok": True, "rho_ab": summary.rho_ab, "tau": tbl.tau,
            "labels": [seg.s for seg in segments], "cuts": [seg.lo for seg in segments],
            "supports": [vec.support for vec in basis]}


def _close(got, want):
    return len(got) == len(want) and all(
        abs(g - w) <= 1e-9 * abs(w) + 1e-13 for g, w in zip(got, want))


def _cases(relations, xfails):
    return [pytest.param(relation, k, id=f"{relation}-{k}",
                         marks=[pytest.mark.xfail(reason=xfails[k], strict=True)]
                         if k in xfails else [])
            for relation in relations for k in range(len(CONFIGS))]


@pytest.mark.parametrize("relation, k", _cases(RELATIONS, {}))
def test_admission_and_critical_value(relation, k):
    want, got = _analysis(k), _analysis(k, relation)
    assert want["ok"] and got["ok"]
    assert _close([got["rho_ab"]], [want["rho_ab"]])


@pytest.mark.parametrize("relation, k", _cases(RELATIONS, SIGMA_NOISE))
def test_thresholds_and_partition(relation, k):
    want, got = _analysis(k), _analysis(k, relation)
    assert _close(got["tau"], want["tau"])
    assert got["labels"] == want["labels"]
    assert _close(got["cuts"], want["cuts"])


@pytest.mark.parametrize("relation, k", _cases(["permuted", "scaled_1e-3"], {})
                         + _cases(["scaled_1e3"], LOST_VECTOR))
def test_supports(relation, k):
    # Under transposition the supports are those of left eigenvectors, so
    # they are not compared.
    got = _analysis(k, relation)["supports"]
    if relation == "permuted":
        perm = _perm(k)
        got = [tuple(sorted(int(perm[v - 1]) + 1 for v in s)) for s in got]
    assert sorted(got) == sorted(_analysis(k)["supports"])
