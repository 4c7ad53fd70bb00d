"""Metamorphic relations: a vertex permutation, transposition, and scaling
of A and B by one positive factor change no threshold, and move the
classes and supports only as the relation moves the vertices.  A direct
sum of two pencils has the larger critical value of the two, and its
``sigma_s`` is the largest ``max(sigma1_{s1}, sigma2_{s2})`` over
``s1 + s2 = s``, ``0 <= s_i <= n_i``, with ``sigma_0 = 0``: a set of the
sum is a set of each part, and its transform is block diagonal.

The grid is 90 generator pencils: orders 2-6, magnitudes 1e-3, 1 and 1e3,
densities 0.2, 0.5 and 1, slacks 1e-5 and 0.1, seed 900 + k for the k-th
pencil, and the permutation ``default_rng(k).permutation(n)``.  The sums
are those of the adjacent pencils k and k + 1 whose orders add up to at
most 9: 54 pairs.  Every pencil, image and sum is admitted.  Values agree
within ``1e-9*|v| + 1e-13``.  The known exceptions are strict xfails
naming the ROADMAP item that is to mend them.
"""

import functools
import itertools

import numpy as np
import pytest

from zpencil.eigenstructure import critical_classes, pencil_eigenbasis
from zpencil.pencil import partition, spectral_summary, thresholds, validate
from zpencil.testkit import GenConfig, direct_sum, gen_pencil, permuted, scaled, transposed

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
SUM_PAIRS = [k for k in range(len(CONFIGS) - 1) if CONFIGS[k].n + CONFIGS[k + 1].n <= 9]
# sigma_7 = sigma_8 of two sums of order-4 pencils at magnitude 1e3 and
# slack 1e-5, about 8.0e7 and 1.7e8, are off by 1.1e-9 and 3.9e-9 relative:
# the stacked solve on ill-conditioned sets.
SUM_SIGMA_MISS = {50: "sigma_7 is off by 1.1e-9 relative (ROADMAP items 7 and 8)",
                  52: "sigma_7 is off by 3.9e-9 relative (ROADMAP items 7 and 8)"}


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
    return {"ok": True, "rho_ab": summary.rho_ab, "sigma": tbl.sigma, "tau": tbl.tau,
            "labels": [seg.s for seg in segments], "cuts": [seg.lo for seg in segments],
            "supports": [vec.support for vec in basis]}


def _close(got, want):
    return len(got) == len(want) and all(
        abs(g - w) <= 1e-9 * abs(w) + 1e-13 for g, w in zip(got, want))


@functools.cache
def _sum_analysis(k):
    p = direct_sum(gen_pencil(CONFIGS[k]), gen_pencil(CONFIGS[k + 1]))
    if not validate(p).ok:
        return {"ok": False}
    return {"ok": True, "rho_ab": spectral_summary(p).rho_ab, "sigma": thresholds(p).sigma}


def _cases(relations, xfails, ks=range(len(CONFIGS))):
    return [pytest.param(relation, k, id=f"{relation}-{k}",
                         marks=[pytest.mark.xfail(reason=xfails[k], strict=True)]
                         if k in xfails else [])
            for relation in relations for k in ks]


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


@pytest.mark.parametrize("relation, k", _cases(["direct_sum"], {}, SUM_PAIRS))
def test_direct_sum_admission_and_critical_value(relation, k):
    got = _sum_analysis(k)
    assert got["ok"]
    assert _close([got["rho_ab"]], [max(_analysis(k)["rho_ab"], _analysis(k + 1)["rho_ab"])])


@pytest.mark.parametrize("relation, k", _cases(["direct_sum"], SUM_SIGMA_MISS, SUM_PAIRS))
def test_direct_sum_sigma(relation, k):
    first = (0.0,) + _analysis(k)["sigma"]
    second = (0.0,) + _analysis(k + 1)["sigma"]
    n1, n2 = len(first) - 1, len(second) - 1
    want = [max(max(first[s1], second[s - s1])
                for s1 in range(max(0, s - n2), min(s, n1) + 1))
            for s in range(1, n1 + n2 + 1)]
    assert _close(_sum_analysis(k)["sigma"], want)
