"""Nonnegative kernel structure of M-matrices and of the critical pencil
matrix: singular classes, distinguished classes, and the class-supported
basis of nonnegative (eigen)vectors.

The construction restricts the matrix to the access closure W of a
distinguished class, extracts the one-dimensional nonnegative kernel
direction there, and embeds it into full length with zeros elsewhere.
The embedding is exact: a row outside W cannot carry an entry in a column
of W, since such an edge would grant the row access to the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import zmatrix
from .digraph import Digraph, access_set, digraph_of, reduced_graph, union
from .linalg import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_square,
    inf_norm,
    is_singular,
    nullspace,
    perron_vector,
    submatrix,
)
from .pencil import Pencil, SpectralSummary, ValidationFailedError, validate
from .zmatrix import MStatus

__all__ = [
    "POS_TOL",
    "ZERO_TOL",
    "RESIDUAL_FACTOR",
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

POS_TOL = 1e-10          # entries on the support must clear this
ZERO_TOL = 1e-10         # entries off the support must stay below this
RESIDUAL_FACTOR = 1e-8   # kernel / eigen residual budget, times the norm scale


class NotMMatrixError(ValueError):
    """Class labelling needs an M-matrix (singular or nonsingular)."""


class ConstructionFailedError(ArithmeticError):
    """The restricted kernel was not one-dimensional nonnegative within
    tolerance; this signals a tolerance breakdown, not bad mathematics."""


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
    ``support`` (the access closure of ``origin_class``)."""

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
        if x[mask].size and float(x[mask].min()) <= POS_TOL:
            raise ValueError("entry on the support is not positive")
        if x[~mask].size and float(np.max(np.abs(x[~mask]))) > ZERO_TOL:
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


def _acceptable(XW: np.ndarray, v: np.ndarray) -> bool:
    scale = max(1.0, inf_norm(XW))
    return (
        float(v.min()) > POS_TOL
        and inf_norm(XW @ v) <= RESIDUAL_FACTOR * scale
    )


def _kernel_direction(XW: np.ndarray, tol: TolerancePolicy) -> np.ndarray:
    """Nonnegative kernel direction of a singular M-matrix block whose
    kernel is one-dimensional, infinity norm 1 and strictly positive."""
    dec = zmatrix.z_decompose(XW, tol)
    try:
        v = perron_vector(dec.P, tol)
    except ArithmeticError:
        v = None
    if v is not None and _acceptable(XW, v):
        return v
    # Fallback: generic nullspace plus sign normalization.
    basis = nullspace(XW, tol)
    if len(basis) == 1:
        w = basis[0]
        if w[int(np.argmax(np.abs(w)))] < 0:
            w = -w
        if float(w.min()) >= -ZERO_TOL:
            w = np.maximum(w, 0.0)
            w = w / float(w.max())
            if _acceptable(XW, w):
                return w
    raise ConstructionFailedError(
        "restricted kernel is not one-dimensional nonnegative within tolerance"
    )


def _build_basis(
    X: np.ndarray,
    gamma: Digraph,
    labels: tuple[ClassLabel, ...],
    tol: TolerancePolicy,
) -> tuple[EigenBasisVector, ...]:
    n = X.shape[0]
    out = []
    for lab in labels:
        if not lab.is_distinguished:
            continue
        W = access_set(gamma, lab.vertices)
        v = _kernel_direction(submatrix(X, W), tol)
        x = np.zeros(n)
        x[np.asarray(W, dtype=int) - 1] = v
        out.append(EigenBasisVector(x=x, origin_class=lab.vertices, support=W))
    return tuple(out)


def m_nullbasis(X, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[EigenBasisVector, ...]:
    """One nonnegative kernel vector per distinguished singular class of
    the digraph of ``X``; empty for a nonsingular M-matrix.

    Every nonnegative vector in the kernel of ``X`` is a nonnegative
    combination of the returned vectors; each returned vector is positive
    exactly on the access closure of its class.
    """
    m = as_square(X)
    G = digraph_of(m, tol)
    labels = class_labels(m, G, tol)
    vectors = _build_basis(m, G, labels, tol)
    limit = RESIDUAL_FACTOR * max(1.0, inf_norm(m))
    for vec in vectors:
        if inf_norm(m @ vec.x) > limit:
            raise ConstructionFailedError("kernel residual above tolerance")
    return vectors


@dataclass(frozen=True, eq=False)
class CriticalClasses:
    """The classes of ``graph``, labelled against ``rho_ab*B - A``.

    ``graph`` carries classes and access at the critical value: ``name``
    ``"union"`` is ``G(A) union G(B)``, and ``"a"`` is ``G(A)``, used when
    ``rho_ab`` is numerically zero, since ``rho_ab*B - A`` is then ``-A``.
    """

    rho_ab: float
    name: str
    graph: Digraph
    labels: tuple[ClassLabel, ...]


def critical_classes(
    p: Pencil,
    summary: SpectralSummary,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> CriticalClasses:
    """The digraph at the critical value of ``summary`` and its labelled
    classes; the one place the digraph rule is decided."""
    rho = summary.rho_ab
    if rho > tol.rel_sing:
        name, graph = "union", union(digraph_of(p.A, tol), digraph_of(p.B, tol))
    else:
        name, graph = "a", digraph_of(p.A, tol)
    labels = class_labels(rho * p.B - p.A, graph, tol)
    return CriticalClasses(rho_ab=rho, name=name, graph=graph, labels=labels)


def pencil_eigenbasis(
    p: Pencil,
    crit: CriticalClasses,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[EigenBasisVector, ...]:
    """Nonnegative eigenvectors of the pencil at the critical value, one
    per distinguished class of ``crit`` (from :func:`critical_classes`).

    Each vector satisfies ``A x = rho_ab * B x`` within
    ``RESIDUAL_FACTOR * max(||A||, ||B||)`` and is positive exactly on the
    access closure of its class.
    """
    report = validate(p, tol)
    if not report.ok:
        raise ValidationFailedError(report)
    rho = crit.rho_ab
    vectors = _build_basis(rho * p.B - p.A, crit.graph, crit.labels, tol)
    limit = RESIDUAL_FACTOR * max(inf_norm(p.A), inf_norm(p.B))
    for vec in vectors:
        if inf_norm(p.A @ vec.x - rho * (p.B @ vec.x)) > limit:
            raise ConstructionFailedError("eigen residual above tolerance")
    return vectors


def rho_ambiguous(rho_ab: float, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when the critical value is positive but so close to zero that
    the digraph choice for the eigenbasis is numerically ambiguous."""
    return 0.0 < rho_ab < 10.0 * tol.rel_sing
