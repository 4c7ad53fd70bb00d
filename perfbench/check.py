"""Correctness checks of one analysis, independent of the code under test.

``reference_sweep`` is a plain-numpy exhaustive sweep: for every index set
J, the largest real eigenvalue (clipped at zero) of ``(B_J - A_J)^{-1} A_J``,
with the sets of each size batched in one solve and one eigenvalue call.
The checks take the report as a dict (the JSON report, parsed) and return
a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import itertools

import numpy as np

RESIDUAL_FACTOR = 1e-8
# The library's default tolerances, fixed here so that a report cannot
# loosen the checks it is held to.
REL_SING = 1e-9
ABS_FLOOR = 1e-13


def reference_sweep(A: np.ndarray, B: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per size s = 1..n: the 1-based index sets in lexicographic order,
    shape (k, s), and their subpencil Perron values, shape (k,)."""
    n = A.shape[0]
    M = B - A
    out = []
    for s in range(1, n + 1):
        sets = np.array(list(itertools.combinations(range(n), s)))
        rows, cols = sets[:, :, None], sets[:, None, :]
        C = np.linalg.solve(M[rows, cols], A[rows, cols])
        values = np.maximum(np.linalg.eigvals(C).real.max(axis=1), 0.0)
        out.append((sets + 1, values))
    return out


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_SING * abs(want) + ABS_FLOOR


def sigma_rel_err(report: dict, ref) -> float:
    """Largest relative error of the reported sigma_s against the reference
    (absolute where the reference is zero)."""
    return max(abs(got - float(values.max())) / (abs(float(values.max())) or 1.0)
               for got, (_, values) in zip(report["sigma"], ref))


def check_report(report: dict, A: np.ndarray, B: np.ndarray, ref=None) -> list[str]:
    """Partition, eigenbasis and critical-value checks; with ``ref``, also
    sigma_s and tau_s against the reference sweep, within ``REL_SING``
    (plus ``ABS_FLOOR``)."""
    problems: list[str] = []
    n = A.shape[0]
    rho = report["rho_ab"]
    tau = report["tau"]

    if len(tau) != n + 1 or tau[0] != 0.0:
        problems.append(f"tau has {len(tau)} entries or tau[0] = {tau[0]}")
    elif not _close(tau[n], rho):
        problems.append(f"tau[n] = {tau[n]!r} differs from rho_ab = {rho!r}")

    segs = report["partition"]
    if not segs or segs[0]["lo"] != 0.0 or segs[-1]["hi"] != 1.0:
        problems.append("partition does not span [0, 1]")
    else:
        for a, b in zip(segs, segs[1:]):
            if a["hi"] != b["lo"] or a["hi_closed"] or not b["lo_closed"]:
                problems.append(f"partition breaks between {a} and {b}")
        if not segs[-1]["hi_closed"] or not segs[0]["lo_closed"]:
            problems.append("partition is not closed at 0 and 1")

    limit = RESIDUAL_FACTOR * max(_inf_norm(A), _inf_norm(B))
    for vec in report["eigenbasis"]:
        x = np.array(vec["values"], dtype=float)
        on = np.zeros(n, dtype=bool)
        on[np.asarray(vec["support"], dtype=int) - 1] = True
        if not (np.all(x[on] > 0.0) and np.all(x[~on] == 0.0)):
            problems.append(f"eigenvector of {vec['origin_class']} is not "
                            f"positive exactly on {vec['support']}")
        residual = float(np.max(np.abs(A @ x - rho * (B @ x))))
        if residual > limit:
            problems.append(f"eigenvector of {vec['origin_class']}: residual "
                            f"{residual:.3e} above {limit:.3e}")

    if ref is not None:
        for s, (got, (_, values)) in enumerate(zip(report["sigma"], ref), 1):
            want = float(values.max())
            if not _close(got, want):
                problems.append(f"sigma_{s} = {got!r}, reference {want!r}")
            if not _close(tau[s], want / (1.0 + want)):
                problems.append(f"tau_{s} = {tau[s]!r} off the reference")
    return problems


def check_argmax(argmax_sets, ref) -> list[str]:
    """Each entry must be the lexicographically smallest set whose
    reference value attains sigma_s, to within ``REL_SING`` (plus
    ``ABS_FLOOR``)."""
    problems = []
    for s, (got, (sets, values)) in enumerate(zip(argmax_sets, ref), 1):
        top = float(values.max())
        band = REL_SING * abs(top) + ABS_FLOOR
        attaining = np.nonzero(values >= top - band)[0]
        want = tuple(int(v) for v in sets[attaining[0]])
        if tuple(got) != want:
            problems.append(f"argmax set of size {s} is {tuple(got)}, "
                            f"lexicographically smallest attaining is {want}")
    return problems


def check_refusal(payload: dict) -> list[str]:
    """A refusal must name a failed condition."""
    v = payload.get("validation", {})
    if v.get("c1_holds", True) and v.get("c2_holds", True) and v.get("c3_holds", True):
        return ["refused although every condition holds"]
    return []


def _inf_norm(X: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(X), axis=1)))
