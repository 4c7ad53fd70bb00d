"""Z-matrix pencil analysis.

Validates the admission conditions of a pencil (A, B), computes the
critical eigenvalue rho_ab of the family ``t*B - A`` on [0, 1], partitions
[0, 1] into Z-matrix classes via subpencil thresholds, and derives the
zero/positive structure of the nonnegative eigenvectors at rho_ab from the
union of the digraphs of A and B.
"""

__version__ = "0.1.0"

from .digraph import (
    ClassPartition,
    Digraph,
    ReducedGraph,
    access_set,
    classes,
    digraph_of,
    digraph_to_dot,
    reduced_graph,
    reduced_graph_to_dot,
    union,
)
from .eigenstructure import (
    ClassLabel,
    ConstructionFailedError,
    CriticalClasses,
    EigenBasisVector,
    NotMMatrixError,
    class_labels,
    critical_classes,
    m_nullbasis,
    pencil_eigenbasis,
)
from .linalg import (
    DEFAULT_TOL,
    SingularMatrixError,
    TolerancePolicy,
    inf_norm,
    is_singular,
    perron_vector,
    solve,
    spectral_radius,
    submatrix,
)
from .pencil import (
    CriticalClassBound,
    IntervalPartition,
    Pencil,
    Segment,
    SpectralSummary,
    ThresholdTable,
    ValidationFailedError,
    ValidationReport,
    classify_at,
    m_trichotomy,
    partition,
    spectral_summary,
    thresholds,
    validate,
    zs_bound,
)
from .zmatrix import (
    EnumerationLimitError,
    MStatus,
    NotZMatrixError,
    ZDecomposition,
    classify_direct,
    is_z_matrix,
    m_status,
    z_decompose,
)

__all__ = [
    "__version__",
    # linalg
    "TolerancePolicy", "DEFAULT_TOL", "SingularMatrixError", "submatrix",
    "inf_norm", "spectral_radius", "perron_vector", "solve", "is_singular",
    # digraph
    "Digraph", "ClassPartition", "ReducedGraph", "digraph_of", "union",
    "classes", "reduced_graph", "access_set", "digraph_to_dot",
    "reduced_graph_to_dot",
    # zmatrix
    "MStatus", "ZDecomposition", "NotZMatrixError", "EnumerationLimitError",
    "is_z_matrix", "z_decompose", "m_status", "classify_direct",
    # pencil
    "Pencil", "ValidationReport", "ValidationFailedError", "SpectralSummary",
    "ThresholdTable", "Segment", "IntervalPartition", "CriticalClassBound",
    "validate", "spectral_summary", "thresholds", "classify_at", "partition",
    "m_trichotomy", "zs_bound",
    # eigenstructure
    "ClassLabel", "CriticalClasses", "EigenBasisVector", "NotMMatrixError",
    "ConstructionFailedError", "class_labels", "critical_classes",
    "m_nullbasis", "pencil_eigenbasis",
]
