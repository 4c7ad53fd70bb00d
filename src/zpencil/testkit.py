"""Deterministic pencil generation and definition-level oracles for the
test suites.

The generator builds pencils that meet the admission conditions by
construction, condition 3 with a margin its docstring states, so property
suites never need rejection sampling.  The oracles here deliberately
avoid the code paths they are used to check: pencil eigenvalues come from
an explicit determinant-polynomial expansion, classification comes
straight from the defining inequalities, and the threshold sweep takes one
set at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_square,
    inf_norm,
    spectral_radius,
    submatrix,
)
from .pencil import Pencil, ThresholdTable, validate
from .zmatrix import MAX_ENUMERATION_ORDER, _check_order_guard, z_decompose

__all__ = [
    "GenConfig",
    "PencilSpectrum",
    "gen_pencil",
    "permuted",
    "transposed",
    "scaled",
    "direct_sum",
    "oracle_pencil_eigs",
    "rho_s",
    "oracle_classify",
    "oracle_thresholds",
]

ORACLE_EIGS_MAX_ORDER = 6
ORACLE_CLASSIFY_MAX_ORDER = 8


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random pencil generator; same seed, same pencil.

    The PRNG is numpy's default_rng (PCG64) seeded with ``seed``, drawing
    in a fixed order: A values, A mask, N values, N mask.
    """

    n: int
    seed: int
    density: float = 0.5
    magnitude: float = 1.0
    dominance_slack: float = 0.1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.magnitude <= 0.0 or self.dominance_slack <= 0.0:
            raise ValueError("magnitude and dominance_slack must be positive")


def gen_pencil(cfg: GenConfig) -> Pencil:
    """Random pencil meeting conditions 1 and 2, and condition 3 with the
    margin ``dominance_slack``.

    A is nonnegative with the requested fill density; B = A + (D - N)
    where N is a nonnegative off-diagonal sample and D makes every row sum
    of D - N equal ``dominance_slack``.  So ``P = q*I - (B - A)``, with
    ``q`` the largest diagonal entry, has constant row sums and Perron root
    ``q - dominance_slack``, and :func:`~zpencil.pencil.validate` admits
    condition 3 iff ``dominance_slack > tol.rel_sing * max(1, ||B - A||_inf)``
    (the band of :func:`~zpencil.zmatrix.m_status`), up to rounding in B - A.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    a_vals = rng.uniform(0.0, cfg.magnitude, size=(n, n))
    a_mask = rng.random((n, n)) < cfg.density
    A = np.where(a_mask, a_vals, 0.0)
    n_vals = rng.uniform(0.0, cfg.magnitude, size=(n, n))
    n_mask = rng.random((n, n)) < cfg.density
    N = np.where(n_mask, n_vals, 0.0)
    np.fill_diagonal(N, 0.0)
    M = np.diag(N.sum(axis=1) + cfg.dominance_slack) - N
    return Pencil(A=A, B=A + M)


def permuted(p: Pencil, perm) -> Pencil:
    """The pencil whose vertex ``i + 1`` is vertex ``perm[i] + 1`` of ``p``."""
    rows = np.ix_(perm, perm)
    return Pencil(A=p.A[rows], B=p.B[rows])


def transposed(p: Pencil) -> Pencil:
    """``(A^T, B^T)``: every ``tau_J`` is kept and every edge reversed."""
    return Pencil(A=p.A.T, B=p.B.T)


def scaled(p: Pencil, c: float) -> Pencil:
    """``(c*A, c*B)``; for ``c > 0`` every ``tau_J`` is kept."""
    return Pencil(A=c * p.A, B=c * p.B)


def direct_sum(p: Pencil, q: Pencil) -> Pencil:
    """``(diag(A_p, A_q), diag(B_p, B_q))``: the vertices of ``q`` follow
    those of ``p``, and no edge joins the two."""
    zero = np.zeros((p.n, q.n))
    return Pencil(A=np.block([[p.A, zero], [zero.T, q.A]]),
                  B=np.block([[p.B, zero], [zero.T, q.B]]))


def _parity(perm: tuple[int, ...]) -> int:
    visited = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class PencilSpectrum:
    """Finite roots of det(t*B - A), plus the count of infinite
    eigenvalues (the degree deficit against n; nonzero iff det B = 0)."""

    finite: tuple[complex, ...]
    infinite_count: int


def oracle_pencil_eigs(p: Pencil) -> PencilSpectrum:
    """Pencil eigenvalues via symbolic-in-t determinant expansion.

    det(t*B - A) is assembled permutation by permutation as a degree-n
    polynomial with double-precision convolution; roots come from the
    companion-matrix root finder.  Independent of every solver used by the
    pencil module.
    """
    n = p.n
    if n > ORACLE_EIGS_MAX_ORDER:
        raise ValueError(f"order {n} above oracle limit {ORACLE_EIGS_MAX_ORDER}")
    coeffs = np.zeros(n + 1)
    for perm in itertools.permutations(range(n)):
        poly = np.ones(1)
        for i, j in enumerate(perm):
            poly = np.convolve(poly, np.array([-p.A[i, j], p.B[i, j]]))
        coeffs += _parity(perm) * poly
    cutoff = 1e-12 * max(1.0, float(np.max(np.abs(coeffs))))
    degree = -1
    for k in range(n, -1, -1):
        if abs(coeffs[k]) > cutoff:
            degree = k
            break
    if degree <= 0:
        # Constant (or numerically zero) determinant: no finite roots.
        return PencilSpectrum(finite=(), infinite_count=n - max(degree, 0))
    roots = np.roots(coeffs[degree::-1])
    finite = tuple(sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag)))
    return PencilSpectrum(finite=finite, infinite_count=n - degree)


def rho_s(
    P,
    s: int,
    tol: TolerancePolicy = DEFAULT_TOL,
    max_order: int = MAX_ENUMERATION_ORDER,
) -> float:
    """Max spectral radius over all order-``s`` principal submatrices of a
    nonnegative ``P``.

    ``s = n + 1`` returns ``+inf`` by convention (there is no submatrix of
    order n+1, and the value acts as an upper sentinel in classification).
    Raises :class:`~zpencil.zmatrix.EnumerationLimitError` when
    ``n > max_order``; pass a larger ``max_order`` to lift the guard.
    """
    m = as_square(P)
    n = m.shape[0]
    if s == n + 1:
        return float("inf")
    if not 1 <= s <= n:
        raise ValueError(f"s={s} out of range 1..{n}")
    _check_order_guard(n, max_order)
    best = 0.0
    for J in itertools.combinations(range(1, n + 1), s):
        best = max(best, spectral_radius(submatrix(m, J), tol))
    return best


def oracle_classify(X, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Class index straight from the defining inequalities.

    Uses the canonical decomposition ``X = q*I - P`` and the full ladder
    ``rho_1 <= ... <= rho_n`` of submatrix maxima: the answer is the
    largest s with ``rho_s <= q`` (band-tolerant, so boundaries land on
    the M-matrix side; the sentinel ``rho_{n+1} = +inf`` needs no check).
    """
    m = as_square(X)
    n = m.shape[0]
    if n > ORACLE_CLASSIFY_MAX_ORDER:
        raise ValueError(f"order {n} above oracle limit {ORACLE_CLASSIFY_MAX_ORDER}")
    dec = z_decompose(m, tol)
    delta = tol.rel_sing * max(1.0, inf_norm(m))
    s = 0
    for k in range(1, n + 1):
        if rho_s(dec.P, k, tol) <= dec.q + delta:
            s = k
    return s


def oracle_thresholds(
    p: Pencil,
    tol: TolerancePolicy = DEFAULT_TOL,
    max_order: int = MAX_ENUMERATION_ORDER,
) -> ThresholdTable:
    """The threshold sweep one index set at a time: a ``np.linalg.solve``
    for ``(B_J - A_J)^{-1} A_J`` and a ``np.linalg.eigvals`` per set, with
    the band rule of :class:`~zpencil.pencil.ThresholdTable` for the
    argmax.  Has no singularity test; ``p`` must be admitted under ``tol``.
    Every set gets a value, so ``confirmed`` counts them all.
    """
    if not validate(p, tol).ok:
        raise ValueError("oracle_thresholds needs an admitted pencil")
    n = p.n
    _check_order_guard(n, max_order)
    sigma: list[float] = []
    argmax: list[tuple[int, ...]] = []
    confirmed: list[int] = []
    for s in range(1, n + 1):
        sets = list(itertools.combinations(range(1, n + 1), s))
        confirmed.append(len(sets))
        values = []
        for J in sets:
            rows = np.array(J)[:, None] - 1
            AJ = p.A[rows, rows.T]
            C = np.linalg.solve(p.B[rows, rows.T] - AJ, AJ)
            values.append(max(0.0, float(np.max(np.linalg.eigvals(C).real))))
        best = max(values)
        floor = best - (tol.rel_sing * abs(best) + tol.abs_floor)
        sigma.append(best)
        argmax.append(next(J for J, v in zip(sets, values) if v >= floor))
    tau = [0.0] + [v / (1.0 + v) for v in sigma]
    return ThresholdTable(
        n=n, sigma=tuple(sigma), tau=tuple(tau), argmax_sets=tuple(argmax),
        confirmed=tuple(confirmed),
    )
