"""Pencil-level analysis of the matrix family ``t*B - A`` on [0, 1].

A pencil is admitted when three conditions hold: A is entrywise
nonnegative (1); every off-diagonal entry of B is at most the matching
entry of A (2); some positive vector u has ``(B - A) u`` positive (3).
Conditions (2) and (3) make ``B - A`` a nonsingular M-matrix, so
``C = (B - A)^{-1} A`` is nonnegative and its Perron root ``mu`` yields
the critical value ``rho_ab = mu / (1 + mu)``: the largest real pencil
eigenvalue in [0, 1).  Each index set J contributes a subpencil threshold
``tau_J`` the same way, and the maxima ``sigma_s`` over sets of size s
give thresholds ``tau_s`` that partition [0, 1] into the Z-matrix classes
of ``t*B - A``: on ``[tau_s, tau_{s+1})`` every principal submatrix of
order at most s is an M-matrix and some submatrix of order s+1 is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg, zmatrix
from .digraph import ClassPartition, digraph_of
from .linalg import DEFAULT_TOL, TolerancePolicy, as_square
from .zmatrix import MAX_ENUMERATION_ORDER, MStatus

__all__ = [
    "Pencil",
    "Violation",
    "ValidationReport",
    "ValidationFailedError",
    "SpectralSummary",
    "ThresholdTable",
    "Segment",
    "IntervalPartition",
    "CriticalClassBound",
    "validate",
    "spectral_summary",
    "thresholds",
    "classify_at",
    "partition",
    "m_trichotomy",
    "zs_bound",
]


@dataclass(frozen=True, eq=False)
class Pencil:
    """The pair (A, B) defining the family ``t*B - A``.

    Both matrices are read-only float64 copies, :func:`validate` records
    its verdict per policy and :func:`m_trichotomy` the critical value, so
    instances can be shared freely.
    """

    A: np.ndarray
    B: np.ndarray
    _verdicts: dict = field(default_factory=dict, init=False, repr=False)
    _rho_ab: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        a = as_square(self.A, "A")
        b = as_square(self.B, "B")
        if a.shape != b.shape:
            raise ValueError(f"A and B must have equal order: {a.shape} vs {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def matrix_at(self, t: float) -> np.ndarray:
        """The family member ``t*B - A``."""
        return float(t) * self.B - self.A


@dataclass(frozen=True)
class Violation:
    """One failed check: which condition, where (1-based entry, when an
    entry is to blame), and a human-readable message."""

    condition: int
    position: tuple[int, int] | None
    message: str


@dataclass(frozen=True, eq=False)
class ValidationReport:
    c1_holds: bool
    c2_holds: bool
    c3_holds: bool
    witness_u: np.ndarray | None
    violations: tuple[Violation, ...]

    def __post_init__(self) -> None:
        if self.witness_u is not None:
            self.witness_u.setflags(write=False)

    @property
    def ok(self) -> bool:
        return self.c1_holds and self.c2_holds and self.c3_holds


class ValidationFailedError(ValueError):
    """An operation requiring a valid pencil received one that fails a
    condition; carries the offending :class:`ValidationReport`."""

    def __init__(self, report: ValidationReport):
        self.report = report
        failed = sorted({v.condition for v in report.violations})
        super().__init__(
            "pencil fails condition(s) " + ", ".join(str(c) for c in failed)
        )


def validate(p: Pencil, tol: TolerancePolicy = DEFAULT_TOL) -> ValidationReport:
    """Check the three admission conditions, producing a witness vector.

    Condition 3 is decided via the nonsingular-M-matrix test on ``B - A``
    (equivalent whenever condition 2 holds); the concrete witness
    ``u = (B - A)^{-1} 1`` then satisfies ``u > 0`` and ``(B - A) u = 1``,
    so the report certifies itself.  If ``B - A`` is not even a Z-matrix,
    the witness attempt alone decides.  The report is recorded on ``p`` and
    returned again for an equal ``tol``, so each policy is evaluated once.
    """
    if tol in p._verdicts:
        return p._verdicts[tol]
    A, B, n = p.A, p.B, p.n
    floor = tol.abs_floor
    violations: list[Violation] = []

    c1 = True
    for i, j in zip(*np.nonzero(A < -floor)):
        c1 = False
        violations.append(
            Violation(1, (int(i) + 1, int(j) + 1),
                      f"A[{i + 1},{j + 1}] = {A[i, j]:.6g} is negative")
        )

    diff = B - A
    c2 = True
    for i, j in zip(*np.nonzero(diff > floor)):
        if i == j:
            continue
        c2 = False
        violations.append(
            Violation(2, (int(i) + 1, int(j) + 1),
                      f"B[{i + 1},{j + 1}] - A[{i + 1},{j + 1}] = "
                      f"{diff[i, j]:.6g} is positive")
        )

    # c2 makes B - A a Z-matrix, which must pass the M-test first; without
    # c2 the test is inapplicable and a positive solution of (B-A)u = 1 decides.
    witness: np.ndarray | None = None
    if not c2 or zmatrix.m_status(diff, tol) is MStatus.NONSINGULAR_M:
        try:
            u = linalg.solve(diff, np.ones(n), tol)
        except linalg.SingularMatrixError:
            u = None
        if u is not None and float(u.min()) > floor:
            witness = u
    c3 = witness is not None
    if not c3:
        violations.append(
            Violation(3, None,
                      "no positive u with (B - A) u > 0 found; "
                      "B - A is not a nonsingular M-matrix")
        )

    # setdefault: concurrent first calls all return the one recorded report
    return p._verdicts.setdefault(tol, ValidationReport(
        c1_holds=c1, c2_holds=c2, c3_holds=c3,
        witness_u=witness, violations=tuple(violations),
    ))


def _require_valid(p: Pencil, tol: TolerancePolicy) -> ValidationReport:
    report = validate(p, tol)
    if not report.ok:
        raise ValidationFailedError(report)
    return report


def _perron_of_transform(C) -> np.ndarray:
    # C is nonnegative in exact arithmetic, so its Perron root equals the
    # largest real part over the spectrum.  Works on one matrix or a stack;
    # the clip maps -0.0 (and NaN) to 0.0, as max(0.0, x) does.
    top = np.linalg.eigvals(C).real.max(axis=-1)
    return np.where(top > 0.0, top, 0.0)


def _band_floor(value, tol: TolerancePolicy):
    # The lower edge of the coincidence band of partition() around value.
    return value - (tol.rel_sing * abs(value) + tol.abs_floor)


# A size is screened only when it has at least this many index sets.  At one
# BLAS thread the screen costs 0.13-0.9 ms a size.  On the 91 sets of sizes 2
# and 12 at order 14, eigvals on every set costs 0.07-0.09 ms and 1.7-3.5 ms;
# at orders 9-10 the screen wins on 36-45 sets at s >= 7 and loses on 126
# sparse sets at s = 4.  90 screens no size of order <= 8 (at most 70 sets).
_SCREEN_MIN_SETS = 90
# The constant c of the screen's margin delta; see _perron_bounds.
_SCREEN_C = 32.0


def _perron_bounds(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collatz–Wielandt bounds for a (k, s, s) stack ``P = |C|``.

    Per matrix, two power steps give the positive vector
    ``x = (I + P/a + P^2/a^2) 1``, where ``a`` is a quarter of the mean row
    sum of P (1 when P = 0); taking the steps at P's own scale keeps the
    identity term a mere floor and makes the bounds scale with C.  Then
    ``lower = min_i (Px)_i / x_i`` and ``upper = max_i (Px)_i / x_i +
    delta``, with ``delta = c * s * eps * ||C||_F * max(x) / min(x)`` and
    ``c = 32``.

    ``upper`` bounds every eigenvalue that ``np.linalg.eigvals`` returns for
    the computed C, defective or tied ones included.  With ``D = diag(x)``
    and ``kappa = max(x) / min(x)``, every eigenvalue of ``C + E`` has
    modulus at most ``||D^-1 (C + E) D||_inf <= max_i (Px)_i / x_i +
    kappa ||E||_inf``, whatever its Jordan structure.  ``geev`` is backward
    stable: its eigenvalues are exact for ``C + E`` with
    ``||E||_2 <= p(s) eps ||C||_F``, so ``||E||_inf <= sqrt(s) p(s) eps
    ||C||_F``.  Rounding the ratio costs at most a relative ``(s + 2) eps``
    of ``max_i (Px)_i / x_i <= kappa sqrt(s) ||C||_F``.  So ``delta``
    covers both when ``p(s) + s + 2 <= c sqrt(s)``: a backward-error
    factor ``p(s)`` of 29 at s = 1 and over 100 at s = 16, where the usual
    bound is a small multiple of one.  The exact power-of-2 balancing in
    ``geev`` is assumed not to raise ``kappa ||C||_F``; the tests check the
    bound on every set of their grids, and :func:`thresholds` re-checks it
    on each value it confirms.  Overflow gives NaN bounds, which confirm.
    """
    s = P.shape[1]
    y = P.sum(axis=2)
    a = y.mean(axis=1, keepdims=True) / 4.0
    a[a == 0.0] = 1.0
    y /= a
    x = 1.0 + y + np.einsum("kij,kj->ki", P, y) / a
    ratio = np.einsum("kij,kj->ki", P, x) / x
    norm = np.sqrt(np.einsum("kij,kij->k", P, P))
    delta = _SCREEN_C * s * np.finfo(float).eps * norm * x.max(axis=1) / x.min(axis=1)
    return ratio.min(axis=1), ratio.max(axis=1) + delta


def _screened_perron(C: np.ndarray, P: np.ndarray, tol: TolerancePolicy):
    """Perron values of the stack C on the sets that can reach the top of
    the size's band, -inf on the others, and how many sets got a value.

    The set with the best lower bound gives the incumbent; every set whose
    upper bound reaches ``_band_floor(incumbent)`` gets its own eigvals.
    Since ``v - band(v)`` grows with v, each set within the band of
    ``sigma_s >= incumbent`` is among them.  Should a confirmed value
    exceed its upper bound, the whole stack is evaluated.
    """
    lower, upper = _perron_bounds(P)
    best = int(np.argmax(lower))
    incumbent = _perron_of_transform(C[best])
    confirm = ~(upper < _band_floor(incumbent, tol))  # NaN bounds confirm
    confirm[best] = True
    values = np.full(len(C), -np.inf)
    values[confirm] = _perron_of_transform(C[confirm])
    if np.any(values[confirm] > upper[confirm]):
        return _perron_of_transform(C), len(C)
    return values, int(np.count_nonzero(confirm))


def _next_sets(sets: np.ndarray, n: int) -> np.ndarray:
    # The index sets one larger than the rows of sets, in lexicographic order
    # when sets is: each set followed by every vertex above its last, in turn.
    last = sets[:, -1]
    counts = n - 1 - last
    starts = np.cumsum(counts) - counts
    added = np.arange(counts.sum()) + np.repeat(last + 1 - starts, counts)
    return np.column_stack((np.repeat(sets, counts, axis=0), added))


def _size_values(MA: np.ndarray, sets: np.ndarray, tol: TolerancePolicy):
    # The values of one size of the sweep and how many sets got eigvals.
    # MA stacks B - A on A; one take on its flat rows gathers both stacks.
    # There is no pivot test: validate certifies every (B - A)_J (see
    # thresholds).  The stacks are freed on return, before the next size.
    n = MA.shape[1]
    stack, AJ = np.take(
        MA.reshape(2, n * n), sets[:, :, None] * n + sets[:, None, :], axis=1)
    C = np.linalg.solve(stack, AJ)
    if len(sets) < _SCREEN_MIN_SETS:
        return _perron_of_transform(C), len(sets)
    # |C| goes into the gathered stack, which the solve is done with.
    return _screened_perron(C, np.abs(C, out=stack), tol)


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Eigenvalue data of the pencil through the transform ``C``.

    ``mu`` is the Perron root of ``C = (B - A)^{-1} A``;
    ``rho_ab = mu / (1 + mu)`` is the largest real pencil eigenvalue in
    [0, 1); ``eigenvalues`` is the image of the full spectrum of ``C``
    under ``m -> m / (1 + m)``, skipping values numerically at -1 (those
    correspond to infinite pencil eigenvalues).
    """

    mu: float
    rho_ab: float
    eigenvalues: tuple[complex, ...]


def spectral_summary(p: Pencil, tol: TolerancePolicy = DEFAULT_TOL) -> SpectralSummary:
    _require_valid(p, tol)
    C = linalg.solve(p.B - p.A, p.A, tol)
    spectrum = np.linalg.eigvals(C)
    mu = max(0.0, float(np.max(spectrum.real)))
    rho = mu / (1.0 + mu)
    mapped = [
        complex(m / (1.0 + m))
        for m in spectrum
        if abs(1.0 + m) > tol.rel_sing * max(1.0, abs(m))
    ]
    mapped.sort(key=lambda z: (z.real, z.imag))
    return SpectralSummary(mu=mu, rho_ab=rho, eigenvalues=tuple(mapped))


@dataclass(frozen=True, eq=False)
class ThresholdTable:
    """Subpencil maxima and the induced thresholds.

    ``sigma[s-1]`` is the largest subpencil Perron value over index sets
    of size s; ``tau[s] = sigma_s / (1 + sigma_s)`` with ``tau[0] = 0``;
    ``argmax_sets[s-1]`` is the lexicographically smallest set attaining
    ``sigma_s`` within ``tol.rel_sing * |sigma_s| + tol.abs_floor`` (the
    coincidence band of :func:`partition`).  ``tau[n]`` equals ``rho_ab``.

    Every value the table rests on is the one a per-set ``np.linalg.solve``
    and ``np.linalg.eigvals`` give, bit for bit (:func:`thresholds`
    evaluates them a size at a time in stacked calls), so ``sigma`` and the
    argmax depend on the set alone, not on how the sweep is batched.
    ``confirmed[s-1]`` counts the sets of size s that got an eigvals
    value: all of them on a small size, and on a screened one only those
    whose Collatz–Wielandt bound reaches the band (see :func:`thresholds`).
    It is a diagnostic and not part of the JSON report.
    """

    n: int
    sigma: tuple[float, ...]
    tau: tuple[float, ...]
    argmax_sets: tuple[tuple[int, ...], ...]
    confirmed: tuple[int, ...]

    @property
    def rho_ab(self) -> float:
        return self.tau[-1]


def thresholds(
    p: Pencil,
    tol: TolerancePolicy = DEFAULT_TOL,
    max_order: int = MAX_ENUMERATION_ORDER,
) -> ThresholdTable:
    """Exhaustive subpencil sweep: ``sigma_s`` and ``tau_s`` for every s.

    Every subpencil is well defined because principal submatrices of the
    nonsingular M-matrix ``M = B - A`` are themselves nonsingular
    M-matrices: the witness ``u > 0`` of :func:`validate` has ``M u = 1``,
    and as ``M_JK <= 0`` for the complement K of J, ``M_J u_J = 1 - M_JK u_K
    >= 1``.  So the sweep runs no pivot test of its own.  No ``M_J`` is
    worse conditioned than M either: the Schur complement
    ``S = M_J - M_JK M_K^{-1} M_KJ`` has ``S^{-1} = (M^{-1})_JJ`` and
    ``S <= M_J`` entrywise, so ``0 <= M_J^{-1} <= (M^{-1})_JJ`` and, with
    ``||M_J||_inf <= ||M||_inf``, ``kappa_inf(M_J) <= kappa_inf(M)``; and
    :func:`validate` has passed M through the pivot test of
    :func:`~zpencil.linalg.solve`.  (The pivot ratio of that test is not
    monotone in J: a proper subset can sit up to 2.5 times nearer the band
    than M on the generator grids of the tests, none of them reaching it.)

    The sweep visits all 2^n - 1 nonempty index sets a size at a time, in
    lexicographic order: one ``np.take`` gathers the sets of a size, and a
    stacked ``np.linalg.solve`` for ``C_J = (B_J - A_J)^{-1} A_J`` and a
    stacked ``np.linalg.eigvals`` give each set the value calls of its own
    would.  Memory holds one size at a time.

    A size with at least 90 sets (none of order <= 8) is screened first
    (``_screened_perron``): two batched power steps on ``|C_J|`` give
    every set Collatz–Wielandt bounds on its value, the upper one widened
    to bound what eigvals returns (``_perron_bounds``), and eigvals runs
    only on the sets whose upper bound reaches the band floor of the best
    lower-bound set's value.  Every set within the band of ``sigma_s`` is
    among them, so ``sigma``, ``tau`` and ``argmax_sets`` are exactly those
    of the full sweep.  At order 14, density 0.5, 41-48 of the 16,383 sets
    get eigvals on the benchmark's pencils (``ThresholdTable.confirmed``).

    Raises :class:`~zpencil.zmatrix.EnumerationLimitError` when
    ``n > max_order``; library callers lift the guard by passing a larger
    ``max_order``.
    """
    _require_valid(p, tol)
    n = p.n
    zmatrix._check_order_guard(n, max_order)
    MA = np.stack((p.B - p.A, p.A))
    sigma: list[float] = []
    argmax: list[tuple[int, ...]] = []
    confirmed: list[int] = []
    sets = np.arange(n)[:, None]
    for s in range(1, n + 1):
        if s > 1:
            sets = _next_sets(sets, n)
        values, count = _size_values(MA, sets, tol)
        best = float(values.max())
        sigma.append(best)
        first = int(np.argmax(values >= _band_floor(best, tol)))
        argmax.append(tuple(int(v) + 1 for v in sets[first]))
        confirmed.append(count)
    tau = [0.0] + [v / (1.0 + v) for v in sigma]
    return ThresholdTable(
        n=n, sigma=tuple(sigma), tau=tuple(tau), argmax_sets=tuple(argmax),
        confirmed=tuple(confirmed),
    )


def _band(t: float, tol: TolerancePolicy) -> tuple[float, float]:
    # t and the band delta shared by classify_at and m_trichotomy.
    t = float(t)
    delta = tol.rel_sing * max(1.0, abs(t))
    if t < -delta or t > 1.0 + delta:
        raise ValueError(f"t={t} outside [0, 1]")
    return t, delta


def classify_at(
    p: Pencil,
    t: float,
    tbl: ThresholdTable,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> int:
    """Class index of ``t*B - A`` read off the threshold table.

    Returns the largest s with ``tau_s <= t + delta``, where the band is
    ``delta = tol.rel_sing * max(1, t)``, so coincident thresholds make
    the higher class win.  For ``t > delta`` that is the ``s`` of the
    :func:`partition` segment holding ``min(t + delta, 1)``, which may lie
    one segment above the one holding t.

    For ``t <= delta`` the class is that of ``-A``, which may jump at 0
    unseen by the thresholds.  ``-A_J`` is an M-matrix exactly when
    ``G(A_J)`` has no cycle, loops included, so the class is
    ``min(n, girth - 1)`` for the :attr:`~zpencil.digraph.Digraph.girth`
    of ``G(A)``: 0 when ``G(A)`` has a loop.
    """
    t, delta = _band(t, tol)
    if t <= delta:
        return min(p.n, digraph_of(p.A, tol).girth - 1)
    s = 0
    for k in range(1, tbl.n + 1):
        if tbl.tau[k] <= t + delta:
            s = k
    return s


@dataclass(frozen=True)
class Segment:
    """One class interval: [lo, hi) except the final segment [lo, 1]."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    s: int


@dataclass(frozen=True)
class IntervalPartition:
    """Contiguous, non-overlapping segments covering [0, 1] exactly."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("empty partition")
        if self.segments[0].lo != 0.0 or self.segments[-1].hi != 1.0:
            raise ValueError("partition must span [0, 1]")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.hi != b.lo:
                raise ValueError("segments must be contiguous")
        if not self.segments[-1].hi_closed:
            raise ValueError("final segment must be closed at 1")


def partition(
    p: Pencil,
    tbl: ThresholdTable,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> IntervalPartition:
    """Merge the thresholds into the class partition of [0, 1].

    Classes whose interval would be empty (coincident thresholds, within
    ``tol.rel_sing``) are omitted; each kept segment is closed at its left
    threshold, and the final segment is closed at 1.  Inside the band
    ``delta`` of :func:`classify_at` a t may lie one segment below its
    class: :func:`classify_at` reads the partition at ``t + delta``.
    """
    coincide = tol.rel_sing
    cuts = [0.0]
    labels: list[int] = []
    for s in range(tbl.n):
        if tbl.tau[s + 1] - cuts[-1] > coincide:
            labels.append(s)
            cuts.append(tbl.tau[s + 1])
    labels.append(tbl.n)
    segments = []
    for i, s in enumerate(labels):
        last = i == len(labels) - 1
        segments.append(
            Segment(
                lo=cuts[i],
                hi=1.0 if last else cuts[i + 1],
                lo_closed=True,
                hi_closed=last,
                s=s,
            )
        )
    return IntervalPartition(tuple(segments))


def m_trichotomy(p: Pencil, t: float, tol: TolerancePolicy = DEFAULT_TOL) -> MStatus:
    """M-matrix status of ``t*B - A``, read off ``rho_ab`` and ``G(A)``.

    For 0 < t < 1, ``t(B - A) - (1 - t)A`` is a regular splitting, so the
    status is NotM when ``rho_ab > t + delta`` (the band of
    :func:`classify_at`; ``rho_ab`` is the table's ``tau[n]``, so this is
    exactly when ``classify_at(t) < n``), SingularM within ``delta`` of
    ``rho_ab`` and NonsingularM above.  At t = 1 it is NonsingularM, the
    ``B - A`` that :func:`validate` certified.  For ``t <= delta`` it is
    SingularM when :func:`classify_at`'s class of ``-A`` is n, that is when
    ``G(A)`` has no cycle, else NotM.
    """
    t, delta = _band(t, tol)
    _require_valid(p, tol)
    if t <= delta:
        return MStatus.SINGULAR_M if digraph_of(p.A, tol).girth > p.n else MStatus.NOT_M
    if t >= 1.0:
        return MStatus.NONSINGULAR_M
    if tol not in p._rho_ab:  # one spectral summary per pencil, not per t
        p._rho_ab[tol] = spectral_summary(p, tol).rho_ab
    rho = p._rho_ab[tol]
    if rho > t + delta:
        return MStatus.NOT_M
    return MStatus.SINGULAR_M if rho >= t - delta else MStatus.NONSINGULAR_M


@dataclass(frozen=True)
class CriticalClassBound:
    """Class-size bound implied by a critical class: for every t in
    (0, rho_ab) the matrix ``t*B - A`` lies in a class of index at most
    ``s_upper``."""

    vertices: tuple[int, ...]
    m: int
    s_upper: int


def zs_bound(
    p: Pencil,
    tbl: ThresholdTable,
    part: ClassPartition,
    tol: TolerancePolicy = DEFAULT_TOL,
) -> tuple[CriticalClassBound, ...]:
    """Bounds from classes of the union digraph whose subpencil attains
    the critical value.

    For each class J of ``part`` whose subpencil threshold, from the value
    :func:`thresholds` gives the set J, equals ``rho_ab`` (within
    ``tol.rel_eig``): the bound is ``s <= |J| - 1``, which is ``n - 1``
    when J is the whole vertex set.  Classes not attaining the critical
    value are omitted.
    """
    _require_valid(p, tol)
    MA = np.stack((p.B - p.A, p.A))
    out: list[CriticalClassBound] = []
    for cls in part.classes:
        mu = float(_size_values(MA, np.array([cls]) - 1, tol)[0][0])
        if abs(mu / (1.0 + mu) - tbl.rho_ab) <= tol.rel_eig:
            out.append(CriticalClassBound(vertices=cls, m=len(cls), s_upper=len(cls) - 1))
    return tuple(out)
