"""Z-matrix recognition, M-matrix status, and the principal-submatrix
class index.

A Z-matrix (nonpositive off-diagonal entries) can be written ``q*I - P``
with ``P >= 0``; comparing ``q`` against the Perron root of ``P`` decides
M-matrix status.  The class index of a Z-matrix is the largest order up to
which every principal submatrix is an M-matrix: index 0 means some
diagonal entry is negative, index n means the matrix itself is an
M-matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_square,
    inf_norm,
    spectral_radius,
    submatrix,
)

__all__ = [
    "MAX_ENUMERATION_ORDER",
    "MStatus",
    "NotZMatrixError",
    "EnumerationLimitError",
    "ZDecomposition",
    "is_z_matrix",
    "z_decompose",
    "m_status",
    "classify_direct",
]

# Exhaustive subset enumeration is capped here by default; library callers
# may raise the cap through the ``max_order`` parameter.
MAX_ENUMERATION_ORDER = 16


class NotZMatrixError(ValueError):
    """Input has a positive off-diagonal entry."""


class EnumerationLimitError(ValueError):
    """Subset enumeration would exceed the order guard."""


class MStatus(Enum):
    NOT_M = "NotM"
    SINGULAR_M = "SingularM"
    NONSINGULAR_M = "NonsingularM"


@dataclass(frozen=True, eq=False)
class ZDecomposition:
    """Witness pair for a Z-matrix: ``X = q*I - P`` with ``P >= 0``.

    The canonical choice ``q = max(diag(X))`` makes ``min(diag(P)) = 0``.
    """

    X: np.ndarray
    q: float
    P: np.ndarray


def is_z_matrix(X, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when every off-diagonal entry is at most ``tol.abs_floor``."""
    m = as_square(X)
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    return bool(float(off.max()) <= tol.abs_floor)


def z_decompose(X, tol: TolerancePolicy = DEFAULT_TOL) -> ZDecomposition:
    """Canonical decomposition ``X = q*I - P``; raises
    :class:`NotZMatrixError` when ``X`` is not a Z-matrix."""
    m = as_square(X)
    if not is_z_matrix(m, tol):
        raise NotZMatrixError("matrix has a positive off-diagonal entry")
    q = float(np.max(np.diag(m)))
    P = q * np.eye(m.shape[0]) - m
    P = np.maximum(P, 0.0)  # clears off-diagonal noise within abs_floor
    return ZDecomposition(X=m, q=q, P=P)


def m_status(X, tol: TolerancePolicy = DEFAULT_TOL) -> MStatus:
    """Three-way M-matrix status with a symmetric tolerance band.

    The band ``delta = tol.rel_sing * max(1, ||X||_inf)`` turns the exact
    comparison of ``q`` against the Perron root of ``P`` into a trichotomy;
    anything inside the band counts as SingularM, so boundary cases land on
    the M-matrix side.  The verdict does not depend on the decomposition
    choice because shifting ``q`` shifts the Perron root equally.
    """
    dec = z_decompose(X, tol)
    delta = tol.rel_sing * max(1.0, inf_norm(dec.X))
    rho = spectral_radius(dec.P, tol)
    if dec.q > rho + delta:
        return MStatus.NONSINGULAR_M
    if dec.q < rho - delta:
        return MStatus.NOT_M
    return MStatus.SINGULAR_M


def _check_order_guard(n: int, max_order: int) -> None:
    if n > max_order:
        raise EnumerationLimitError(
            f"order {n} exceeds the enumeration guard {max_order}: "
            f"an exhaustive sweep would visit 2^{n} - 1 index sets"
        )


def classify_direct(
    X,
    tol: TolerancePolicy = DEFAULT_TOL,
    max_order: int = MAX_ENUMERATION_ORDER,
) -> int:
    """Class index of a Z-matrix straight from the definition.

    Principal submatrices are enumerated by increasing order; the scan
    stops at the first order carrying a non-M-matrix witness and returns
    one less.  Returns ``n`` when no witness exists (the matrix is an
    M-matrix), 0 when a diagonal entry is already negative.

    Raises :class:`EnumerationLimitError` when the order exceeds
    ``max_order``; library callers lift the guard by passing a larger
    ``max_order``.
    """
    m = as_square(X)
    if not is_z_matrix(m, tol):
        raise NotZMatrixError("matrix has a positive off-diagonal entry")
    n = m.shape[0]
    _check_order_guard(n, max_order)
    for k in range(1, n + 1):
        for J in itertools.combinations(range(1, n + 1), k):
            if m_status(submatrix(m, J), tol) is MStatus.NOT_M:
                return k - 1
    return n
