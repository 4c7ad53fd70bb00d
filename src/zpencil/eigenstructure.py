"""Nonnegative kernel structure of M-matrices and of the critical pencil
matrix: singular classes, distinguished classes, and the class-supported
basis of nonnegative (eigen)vectors.

Each vector lives on the access closure W of a distinguished class and is
zero elsewhere.  The embedding is exact: a row outside W cannot carry an
entry in a column of W, since such an edge would grant the row access to
the class.  On W it is one Perron vector (:func:`~zpencil.linalg.perron_vector`)
of a nonnegative matrix: of ``P_W`` in ``X_W = q*I - P_W`` for an
M-matrix, and of the transform ``C_W = (B_W - A_W)^{-1} A_W`` for a
pencil, which is formed by an elimination that only adds terms of one sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import zmatrix
from .digraph import (ClassPartition, Digraph, access_set, classes, digraph_of,
                      reduced_graph, union)
from .linalg import (DEFAULT_TOL, TolerancePolicy, as_square, inf_norm, is_singular,
                     perron_vector, submatrix)
from .pencil import Pencil, SpectralSummary, ValidationFailedError, validate
from .zmatrix import MStatus

__all__ = [
    "NotMMatrixError",
    "ConstructionFailedError",
    "ClassLabel",
    "CriticalClasses",
    "EigenBasisVector",
    "class_labels",
    "critical_classes",
    "m_nullbasis",
    "pencil_eigenbasis",
    "rho_ambiguous",
]

_RESIDUAL_BUDGET = 1e-8  # kernel / eigen residual budget, times the norm scale


class NotMMatrixError(ValueError):
    """Class labelling needs an M-matrix (singular or nonsingular)."""


class ConstructionFailedError(ArithmeticError):
    """A constructed vector failed its self-check: an entry on the support
    is not positive, or the residual is above its budget.  The message
    names the origin class and the numbers; this signals a numerical
    breakdown, not bad mathematics."""


@dataclass(frozen=True)
class ClassLabel:
    """Per-class verdict: is the diagonal block singular, and is the class
    distinguished (singular, and accessed from no other singular class)."""

    vertices: tuple[int, ...]
    is_singular: bool
    is_distinguished: bool

    def __post_init__(self) -> None:
        if self.is_distinguished and not self.is_singular:
            raise ValueError("a distinguished class must be singular")


@dataclass(frozen=True, eq=False)
class EigenBasisVector:
    """Nonnegative vector of infinity norm 1, positive exactly on
    ``support`` (the access closure of ``origin_class``) and zero
    elsewhere."""

    x: np.ndarray
    origin_class: tuple[int, ...]
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        if x.ndim != 1:
            raise ValueError("x must be a vector")
        if abs(inf_norm(x) - 1.0) > 1e-12:
            raise ValueError("x must have infinity norm 1")
        on = np.asarray(self.support, dtype=int) - 1
        mask = np.zeros(len(x), dtype=bool)
        mask[on] = True
        if not np.all(x[mask] > 0.0):
            raise ValueError("entry on the support is not positive")
        if np.any(x[~mask] != 0.0):
            raise ValueError("entry off the support is not zero")


def class_labels(
    X,
    G: Digraph,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[ClassLabel, ...]:
    """Label every class of ``G`` against the diagonal blocks of ``X``.

    ``X`` must be an M-matrix (else :class:`NotMMatrixError`).  A class is
    singular when its block is numerically singular; it is distinguished
    when additionally every other class with access to it has a
    nonsingular block.
    """
    m = as_square(X)
    if zmatrix.m_status(m, tol) is MStatus.NOT_M:
        raise NotMMatrixError("matrix is not an M-matrix")
    red = reduced_graph(G)
    part = red.partition
    singular = [is_singular(submatrix(m, c), tol) for c in part.classes]
    labels = []
    for j, c in enumerate(part.classes):
        distinguished = singular[j] and not any(
            singular[k] for (k, jj) in red.edges if jj == j
        )
        labels.append(
            ClassLabel(vertices=c, is_singular=singular[j],
                       is_distinguished=distinguished)
        )
    return tuple(labels)


def _embed(n: int, origin: tuple[int, ...], W: tuple[int, ...],
           v: np.ndarray) -> EigenBasisVector:
    """Zero-extend ``v`` from ``W`` to length ``n``, once its entries are
    checked positive."""
    bad = np.flatnonzero(~(v > 0.0))  # NaN included
    if bad.size:
        i = int(bad[0])
        raise ConstructionFailedError(
            f"class {origin}: entry {W[i]} on the support {W} is "
            f"{v[i]:.3e}, not positive"
        )
    x = np.zeros(n)
    x[np.asarray(W) - 1] = v
    return EigenBasisVector(x=x, origin_class=origin, support=W)


def _check_residual(vec: EigenBasisVector, residual: np.ndarray,
                    limit: float) -> None:
    r = inf_norm(residual)
    if not r <= limit:
        raise ConstructionFailedError(
            f"class {vec.origin_class}: residual {r:.3e} above {limit:.3e}"
        )


def m_nullbasis(X, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[EigenBasisVector, ...]:
    """One nonnegative kernel vector per distinguished singular class of
    the digraph of ``X``; empty for a nonsingular M-matrix.

    Every nonnegative vector in the kernel of ``X`` is a nonnegative
    combination of the returned vectors; each returned vector is positive
    exactly on the access closure of its class.
    """
    m = as_square(X)
    G = digraph_of(m, tol)
    limit = _RESIDUAL_BUDGET * max(1.0, inf_norm(m))
    out = []
    for lab in class_labels(m, G, tol):
        if not lab.is_distinguished:
            continue
        W = access_set(G, lab.vertices)
        v = perron_vector(zmatrix.z_decompose(submatrix(m, W), tol).P, tol)
        vec = _embed(m.shape[0], lab.vertices, W, v)
        _check_residual(vec, m @ vec.x, limit)
        out.append(vec)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class CriticalClasses:
    """The classes of ``graph``, labelled against the matrix at the
    critical value, and ``union_classes``, those of ``G(A) union G(B)``.

    ``name`` ``"union"``: ``graph`` is the union, labelled against
    ``rho_ab*B - A``.  ``"a"``: ``graph`` is ``G(A)``, labelled against
    ``-A``, which is ``rho_ab*B - A`` when ``rho_ab`` is numerically zero.
    """

    rho_ab: float
    name: str
    graph: Digraph
    labels: tuple[ClassLabel, ...]
    union_classes: ClassPartition


def critical_classes(
    p: Pencil,
    summary: SpectralSummary,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> CriticalClasses:
    """The digraph at the critical value of ``summary``, the matrix its
    classes are labelled against, and the union classes; the one place
    these are decided.  The ``G(A)`` branch is taken when
    ``rho_ab <= tol.rel_sing`` and ``-A`` is an M-matrix, that is when
    ``G(A)`` has no cycle, loops included, so its labelling cannot fail.
    """
    rho = summary.rho_ab
    graph_a = digraph_of(p.A, tol)
    graph_u = union(graph_a, digraph_of(p.B, tol))
    if rho <= tol.rel_sing and graph_a.girth > p.n:
        labels = class_labels(-p.A, graph_a, tol)
        return CriticalClasses(rho, "a", graph_a, labels, classes(graph_u))
    labels = class_labels(rho * p.B - p.A, graph_u, tol)
    return CriticalClasses(rho, "union", graph_u, labels,
                           ClassPartition(tuple(lab.vertices for lab in labels)))


def _transform(G: np.ndarray, A: np.ndarray, u: np.ndarray,
               W: np.ndarray) -> np.ndarray:
    """``C_W = (B_W - A_W)^{-1} A_W`` on the 0-based index array ``W``,
    entrywise nonnegative in floating point.

    ``G`` holds the off-diagonal magnitudes of ``B - A`` (its diagonal is
    never read), ``A`` is nonnegative and ``u > 0`` is the witness with
    ``(B - A) u = 1``, so ``(B - A)_W u_W = w_W = 1 + G_{W,W^c} u_{W^c} > 0``.
    Gaussian elimination then only adds terms of one sign (Alfa, Xue & Ye,
    Math. Comp. 71, 2002): each pivot is rebuilt from ``w`` and the
    off-diagonals of its row, so that the row sums hold exactly, rather
    than updated by subtraction; the off-diagonals, ``w``, the right-hand
    side ``A_W`` and the back substitution all grow by nonnegative terms.
    """
    outside = u.copy()
    outside[W] = 0.0
    s = len(W)
    block = np.ix_(W, W)
    # One array [G_W | A_W | w_W]: a step updates all three at once.
    Z = np.concatenate([G[block], A[block], (1.0 + G[W] @ outside)[:, None]],
                       axis=1)
    uW = u[W]
    d = np.empty(s)
    for k in range(s):
        d[k] = (Z[k, -1] + Z[k, k + 1:s] @ uW[k + 1:]) / uW[k]
        Z[k + 1:, k + 1:] += (Z[k + 1:, k] / d[k])[:, None] * Z[k, k + 1:]
    C = Z[:, s:2 * s]
    for k in range(s - 1, -1, -1):
        C[k] = (C[k] + Z[k, k + 1:s] @ C[k + 1:]) / d[k]
    return C


def pencil_eigenbasis(
    p: Pencil,
    crit: CriticalClasses,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[EigenBasisVector, ...]:
    """Nonnegative eigenvectors of the pencil at the critical value, one
    per distinguished class of ``crit`` (from :func:`critical_classes`).

    On the access closure W of its class each vector is the Perron vector
    of the nonnegative ``C_W = (B_W - A_W)^{-1} A_W``: on W,
    ``A x = rho_ab * B x`` reads ``C_W x = mu x`` with
    ``mu = rho_ab / (1 - rho_ab)``, and ``mu`` is a simple Perron root
    there because every other class in W is nonsingular.  ``C_W`` comes
    from an elimination without cancellation, built on the witness ``u``
    of :func:`~zpencil.pencil.validate`.

    Each vector is checked: positive on W, and ``A x = rho_ab * B x``
    within ``1e-8 * max(||A||, ||B||)``; else
    :class:`ConstructionFailedError` names the class and the numbers.
    """
    report = validate(p, tol)
    if not report.ok:
        raise ValidationFailedError(report)
    A = np.maximum(p.A, 0.0)
    G = np.maximum(p.A - p.B, 0.0)  # Z-matrix noise within the floor clipped
    u = report.witness_u
    rho = crit.rho_ab
    limit = _RESIDUAL_BUDGET * max(inf_norm(p.A), inf_norm(p.B))
    out = []
    for lab in crit.labels:
        if not lab.is_distinguished:
            continue
        W = access_set(crit.graph, lab.vertices)
        C = _transform(G, A, u, np.asarray(W) - 1)
        vec = _embed(p.n, lab.vertices, W, perron_vector(C, tol))
        _check_residual(vec, p.A @ vec.x - rho * (p.B @ vec.x), limit)
        out.append(vec)
    return tuple(out)


def rho_ambiguous(rho_ab: float, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when the critical value is positive but so close to zero that
    the digraph choice for the eigenbasis is numerically ambiguous."""
    return 0.0 < rho_ab < 10.0 * tol.rel_sing
