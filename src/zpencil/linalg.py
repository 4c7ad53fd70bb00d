"""Dense real matrix kernel shared by the whole package.

Everything operates on square numpy arrays of float64 and is a pure
function; nothing mutates its arguments.
Index sets are 1-based in the public API, matching the usual notation for
principal submatrices; the 0-based conversion happens internally.  Rank
and singularity decisions are governed by a single
:class:`TolerancePolicy` threaded through all calls, so no operation
hardcodes its own threshold.  The kernel needs numpy alone: :func:`solve`
runs an LU pivot test, then ``np.linalg.solve``, so its values are numpy's
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_TOL",
    "SingularMatrixError",
    "as_matrix",
    "as_square",
    "index_set",
    "submatrix",
    "inf_norm",
    "spectral_radius",
    "perron_vector",
    "solve",
    "is_singular",
]


class SingularMatrixError(ArithmeticError):
    """A linear solve met a pivot at or below the singularity threshold."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Thresholds controlling singularity, rank and eigenvalue decisions.

    Attributes
    ----------
    rel_sing:
        Relative singularity threshold, scaled by the infinity norm of the
        matrix under test.
    rel_eig:
        Relative accuracy target for eigenvalue-derived quantities; never
        larger than ``rel_sing``.
    abs_floor:
        Absolute floor so comparisons stay meaningful for zero matrices.
    """

    rel_sing: float = 1e-9
    rel_eig: float = 1e-10
    abs_floor: float = 1e-13

    def __post_init__(self) -> None:
        values = (self.rel_sing, self.rel_eig, self.abs_floor)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all tolerances must be finite")
        if min(values) <= 0.0:
            raise ValueError("all tolerances must be strictly positive")
        if self.rel_eig > self.rel_sing:
            raise ValueError("rel_eig must not exceed rel_sing")


DEFAULT_TOL = TolerancePolicy()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a float64 2-D array, rejecting NaN and Inf entries."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Like :func:`as_matrix` but additionally demands a nonempty square shape."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{name} must be square and nonempty, got shape {m.shape}")
    return m


def index_set(J: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a 1-based index set against order ``n``; returns it sorted."""
    idx = tuple(int(j) for j in J)
    if not idx:
        raise ValueError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in {idx}")
    if min(idx) < 1 or max(idx) > n:
        raise ValueError(f"indices {idx} out of range 1..{n}")
    return tuple(sorted(idx))


def submatrix(X, J: Iterable[int]) -> np.ndarray:
    """Principal submatrix of ``X`` in the rows and columns of 1-based ``J``."""
    m = as_square(X)
    idx = np.asarray(index_set(J, m.shape[0]), dtype=int) - 1
    return m[np.ix_(idx, idx)]


def inf_norm(a) -> float:
    """Infinity norm: max row sum for matrices, max absolute entry for vectors."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return 0.0
    if arr.ndim == 1:
        return float(np.max(np.abs(arr)))
    return float(np.max(np.sum(np.abs(arr), axis=1)))


def _as_nonnegative(P, tol: TolerancePolicy, name: str) -> np.ndarray:
    m = as_square(P, name)
    low = float(m.min())
    if low < -tol.abs_floor:
        raise ValueError(f"{name} has a negative entry ({low:.3e})")
    return np.maximum(m, 0.0)


def spectral_radius(P, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Perron root of an entrywise nonnegative square matrix.

    For nonnegative matrices the spectral radius is attained by a real
    nonnegative eigenvalue, so it equals the largest real part over the
    spectrum; that is what is returned, clipped at zero against rounding
    noise.  Entries below ``-tol.abs_floor`` are rejected.
    """
    m = _as_nonnegative(P, tol, "spectral_radius input")
    eigs = np.linalg.eigvals(m)
    return max(0.0, float(np.max(eigs.real)))


def perron_vector(P, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Nonnegative eigenvector at the Perron root, infinity norm 1.

    One ``np.linalg.eig``: the eigenvector of the eigenvalue with the
    largest real part (the Perron root of a nonnegative matrix), signed so
    that its largest-magnitude entry is positive, clipped at zero against
    rounding noise and scaled to infinity norm 1.  When the Perron root is
    simple its eigenvector is nonnegative, so nothing but noise is
    clipped; callers that need a positive support check it themselves.
    Entries of ``P`` below ``-tol.abs_floor`` are rejected.
    """
    m = _as_nonnegative(P, tol, "perron_vector input")
    values, vectors = np.linalg.eig(m)
    v = vectors[:, int(np.argmax(values.real))].real
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    v = np.maximum(v, 0.0)
    return v / float(v.max())


def solve(X, rhs, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve ``X y = rhs`` (vector or matrix right-hand side).

    Raises :class:`SingularMatrixError` when a pivot of LU with partial
    pivoting falls to or below ``tol.rel_sing * ||X||_inf``; otherwise
    returns ``np.linalg.solve(X, rhs)``, bit for bit.
    """
    m = as_square(X)
    b = np.array(rhs, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != m.shape[0]:
        raise ValueError(
            f"right-hand side shape {b.shape} incompatible with order {m.shape[0]}"
        )
    if b.size and not np.all(np.isfinite(b)):
        raise ValueError("right-hand side contains non-finite entries")
    smallest = _smallest_pivot(m)
    limit = tol.rel_sing * inf_norm(m)
    if smallest <= limit:
        raise SingularMatrixError(
            f"pivot {smallest:.3e} at or below singularity threshold {limit:.3e}"
        )
    return np.linalg.solve(m, b)


def _smallest_pivot(X: np.ndarray) -> float:
    """Smallest |pivot| of X under LU with partial pivoting."""
    a = X.copy()
    for j in range(len(a) - 1):
        p = j + np.abs(a[j:, j]).argmax()
        if p != j:
            row = a[p, j:].copy()
            a[p, j:] = a[j, j:]
            a[j, j:] = row
        pivot = a[j, j]
        # A zero pivot has a zero column below it: nothing to eliminate.
        factors = a[j + 1:, j] / (pivot if pivot != 0.0 else 1.0)
        a[j + 1:, j + 1:] -= factors[:, None] * a[j, j + 1:]
    return float(np.abs(a.diagonal()).min())


def is_singular(X, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Whether the smallest singular value of ``X`` sits at or below
    ``tol.rel_sing * ||X||_inf + tol.abs_floor``."""
    m = as_square(X)
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[-1] <= tol.rel_sing * inf_norm(m) + tol.abs_floor)
