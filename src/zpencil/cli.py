"""Command-line interface: pencil files in; tables, JSON, CSV and DOT out.

Input format (UTF-8): a line ``n = <int>``, a line ``A:`` followed by n
whitespace-separated rows, then ``B:`` and n rows.  ``#`` starts a comment
and blank lines are ignored.  A JSON twin ``{"n":..,"A":[[..]],"B":[[..]]}``
is accepted when the payload starts with ``{``; its ``n`` must be a JSON
integer of at least 1.  In either form an entry that is not a finite number
(``nan``, ``inf``, ``1e400``) is a format error.

Exit codes: 0 success, 1 validation failure, 2 usage error (including an
order above the enumeration guard), 3 an eigenvector that fails its
self-check (:class:`~zpencil.eigenstructure.ConstructionFailedError`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .digraph import digraph_of, digraph_to_dot, reduced_graph, reduced_graph_to_dot, union
from .eigenstructure import (
    ConstructionFailedError,
    critical_classes,
    pencil_eigenbasis,
    rho_ambiguous,
)
from .linalg import DEFAULT_TOL, TolerancePolicy
from .pencil import (Pencil, ValidationFailedError, ValidationReport, classify_at, m_trichotomy,
                     partition, spectral_summary, thresholds, validate, zs_bound)
from .zmatrix import EnumerationLimitError

__all__ = ["PencilFormatError", "parse_pencil", "format_pencil", "build_report", "main"]


class PencilFormatError(ValueError):
    """Malformed pencil file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CliUsageError(ValueError):
    pass


_N_LINE = re.compile(r"^n\s*=\s*(\d+)$")


def parse_pencil(text: str) -> Pencil:
    """Parse the pencil text format, or its JSON twin when the payload
    starts with '{'."""
    if text.lstrip().startswith("{"):
        return _parse_json_pencil(text)
    rows_a: list[list[float]] = []
    rows_b: list[list[float]] = []
    n: int | None = None
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            match = _N_LINE.match(line)
            if not match:
                raise PencilFormatError("expected 'n = <int>'", lineno)
            n = int(match.group(1))
            if n < 1:
                raise PencilFormatError("n must be at least 1", lineno)
            continue
        if line.rstrip(":").strip() in ("A", "B") and line.endswith(":"):
            section = line.rstrip(":").strip()
            continue
        if section is None:
            raise PencilFormatError("expected 'A:' or 'B:' before matrix rows", lineno)
        target = rows_a if section == "A" else rows_b
        if len(target) >= n:
            raise PencilFormatError(f"too many rows for matrix {section}", lineno)
        fields = line.split()
        if len(fields) != n:
            raise PencilFormatError(
                f"row {len(target) + 1} of {section} has {len(fields)} entries, expected {n}",
                lineno,
            )
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise PencilFormatError(f"bad number in row: {exc}", lineno) from None
        bad = [f for f, v in zip(fields, row) if not math.isfinite(v)]
        if bad:
            raise PencilFormatError(
                f"row {len(target) + 1} of {section} has non-finite entry {bad[0]!r}",
                lineno,
            )
        target.append(row)
    if n is None:
        raise PencilFormatError("empty input: no 'n = <int>' line")
    if len(rows_a) != n or len(rows_b) != n:
        raise PencilFormatError(
            f"expected {n} rows for A and B, got {len(rows_a)} and {len(rows_b)}"
        )
    return Pencil(A=np.array(rows_a), B=np.array(rows_b))


def _parse_json_pencil(text: str) -> Pencil:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PencilFormatError(f"bad JSON: {exc.msg}", exc.lineno) from None
    n = payload.get("n")
    # bool is an int subclass, so "true" needs its own refusal
    if type(n) is not int or n < 1:
        raise PencilFormatError(
            f"bad JSON pencil: n must be an integer of at least 1, "
            f"got {json.dumps(n)}")
    for name in ("A", "B"):  # numpy would read true and "1" as 1.0
        if name not in payload:
            raise PencilFormatError(f"bad JSON pencil: missing matrix {name}")
        rows = payload[name]
        if isinstance(rows, list) and any(type(v) not in (int, float) for row in rows
                                          if isinstance(row, list) for v in row):
            raise PencilFormatError(f"bad JSON pencil: {name} has an entry that is not a number")
    try:
        A = np.array(payload["A"], dtype=float)
        B = np.array(payload["B"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise PencilFormatError(f"bad JSON pencil: {exc}") from None
    if A.shape != (n, n) or B.shape != (n, n):
        raise PencilFormatError(
            f"JSON pencil shapes {A.shape} / {B.shape} do not match n = {n}"
        )
    try:
        return Pencil(A=A, B=B)
    except ValueError as exc:  # non-finite entries (NaN, Infinity, 1e400)
        raise PencilFormatError(f"bad JSON pencil: {exc}") from None


def format_pencil(p: Pencil, comment: str | None = None) -> str:
    """Serialize a pencil in the text format (used for snapshot files)."""
    lines = []
    if comment:
        lines += [f"# {c}" for c in comment.splitlines()]
    lines.append(f"n = {p.n}")
    lines.append("A:")
    lines += [" ".join(repr(float(v)) for v in row) for row in p.A]
    lines.append("B:")
    lines += [" ".join(repr(float(v)) for v in row) for row in p.B]
    return "\n".join(lines) + "\n"


def _tolerance_from_env() -> TolerancePolicy:
    raw = os.environ.get("ZPENCIL_TOL_REL_SING")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise CliUsageError(f"ZPENCIL_TOL_REL_SING={raw!r} is not a number") from None
    if not (math.isfinite(value) and value > 0.0):
        raise CliUsageError(
            f"ZPENCIL_TOL_REL_SING={raw!r} must be a positive finite number"
        )
    return TolerancePolicy(
        rel_sing=value,
        rel_eig=min(DEFAULT_TOL.rel_eig, value),
        abs_floor=DEFAULT_TOL.abs_floor,
    )


def _rational_note(x: float) -> str | None:
    """Annotate a float with a small rational when it is one (cosmetic)."""
    frac = Fraction(x).limit_denominator(1000)
    if abs(x - float(frac)) <= 1e-12:
        return f"{frac.numerator}/{frac.denominator}" if frac.denominator > 1 else str(frac.numerator)
    return None


def _fmt(x: float) -> str:
    text = repr(float(x))
    note = _rational_note(float(x))
    return f"{text} (= {note})" if note is not None else text


def _set_str(vertices) -> str:
    return "{" + ",".join(str(v) for v in vertices) + "}"


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _validation_dict(report: ValidationReport) -> dict:
    return {
        "c1_holds": bool(report.c1_holds),
        "c2_holds": bool(report.c2_holds),
        "c3_holds": bool(report.c3_holds),
        "witness_u": None if report.witness_u is None
        else [float(v) for v in report.witness_u],
        "violations": [
            {
                "condition": v.condition,
                "position": list(v.position) if v.position is not None else None,
                "message": v.message,
            }
            for v in report.violations
        ],
    }


def _partition_json(part) -> list:
    return [
        {
            "lo": float(seg.lo),
            "hi": float(seg.hi),
            "lo_closed": seg.lo_closed,
            "hi_closed": seg.hi_closed,
            "s": seg.s,
        }
        for seg in part.segments
    ]


def _classes_json(labels) -> list:
    return [
        {
            "vertices": list(lab.vertices),
            "singular": lab.is_singular,
            "distinguished": lab.is_distinguished,
        }
        for lab in labels
    ]


def _eigenbasis_json(basis) -> list:
    return [
        {
            "origin_class": list(vec.origin_class),
            "support": list(vec.support),
            "values": [float(v) for v in vec.x],
        }
        for vec in basis
    ]


def _warn_if_ambiguous(rho_ab: float, tol: TolerancePolicy) -> None:
    if rho_ambiguous(rho_ab, tol):
        print(
            "warning: rho_ab is within 10x the singularity tolerance of zero; "
            "the digraph choice is ambiguous",
            file=sys.stderr,
        )


def build_report(p: Pencil, tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Full analysis as a JSON-ready dict with fixed key order.

    Raises :class:`ValidationFailedError` when the pencil fails a
    condition; the caller decides how to surface the partial result.
    """
    report = validate(p, tol)
    if not report.ok:
        raise ValidationFailedError(report)
    summary = spectral_summary(p, tol)
    tbl = thresholds(p, tol)
    part = partition(p, tbl, tol)
    crit = critical_classes(p, summary, tol)
    basis = pencil_eigenbasis(p, crit, tol)
    bounds = zs_bound(p, tbl, crit.union_classes, tol)
    return {
        "validation": _validation_dict(report),
        "mu": float(summary.mu),
        "rho_ab": float(summary.rho_ab),
        "sigma": [float(v) for v in tbl.sigma],
        "tau": [float(v) for v in tbl.tau],
        "partition": _partition_json(part),
        "classes": _classes_json(crit.labels),
        "eigenbasis": _eigenbasis_json(basis),
        "bounds": [
            {"vertices": list(b.vertices), "m": b.m, "s_upper": b.s_upper}
            for b in bounds
        ],
        "tolerances": {
            "rel_sing": tol.rel_sing,
            "rel_eig": tol.rel_eig,
            "abs_floor": tol.abs_floor,
        },
        "version": __version__,
    }


def _print_validation(v: dict) -> None:
    """Human form of :func:`_validation_dict`."""
    print(f"condition 1 (A >= 0):                {'ok' if v['c1_holds'] else 'FAIL'}")
    print(f"condition 2 (off-diagonal B <= A):   {'ok' if v['c2_holds'] else 'FAIL'}")
    print(f"condition 3 (B - A nonsingular M):   {'ok' if v['c3_holds'] else 'FAIL'}")
    if v["witness_u"] is not None:
        u = " ".join(repr(x) for x in v["witness_u"])
        print(f"witness u with (B - A) u = 1 > 0:    [{u}]")
    for bad in v["violations"]:
        where = " at ({},{})".format(*bad["position"]) if bad["position"] else ""
        print(f"  violation of ({bad['condition']}){where}: {bad['message']}")


def _print_partition(segments: list) -> None:
    print("partition of [0, 1]:")
    for seg in segments:
        hi = "]" if seg["hi_closed"] else ")"
        print(f"  [{_fmt(seg['lo'])}, {_fmt(seg['hi'])}{hi} -> L_{seg['s']}")


def _print_class_line(i: int, label: dict) -> None:
    flags = [flag for flag in ("singular", "distinguished") if label[flag]]
    print(f"  C{i} = {_set_str(label['vertices'])}  {' '.join(flags) or 'nonsingular'}")


def cmd_validate(p: Pencil, args, tol: TolerancePolicy) -> int:
    report = validate(p, tol)
    if args.json:
        _print_json(_validation_dict(report))
    else:
        _print_validation(_validation_dict(report))
    return 0 if report.ok else 1


def cmd_spectrum(p: Pencil, args, tol: TolerancePolicy) -> int:
    summary = spectral_summary(p, tol)
    if args.json:
        _print_json(
            {
                "mu": float(summary.mu),
                "rho_ab": float(summary.rho_ab),
                "eigenvalues": [
                    {"re": z.real, "im": z.imag} for z in summary.eigenvalues
                ],
            }
        )
        return 0
    print(f"mu     = {_fmt(summary.mu)}")
    print(f"rho_ab = {_fmt(summary.rho_ab)}")
    print("pencil eigenvalues (finite):")
    for z in summary.eigenvalues:
        print(f"  {z.real!r} {'+' if z.imag >= 0 else '-'} {abs(z.imag)!r}j")
    return 0


def cmd_thresholds(p: Pencil, args, tol: TolerancePolicy) -> int:
    tbl = thresholds(p, tol)
    segments = _partition_json(partition(p, tbl, tol))
    if args.json:
        _print_json(
            {
                "sigma": [float(v) for v in tbl.sigma],
                "tau": [float(v) for v in tbl.tau],
                "argmax_sets": [list(J) for J in tbl.argmax_sets],
                "partition": segments,
            }
        )
        return 0
    print("  s  sigma_s                tau_s                  argmax J")
    print(f"  0  {'-':22} {_fmt(0.0):22} -")
    for s in range(1, tbl.n + 1):
        print(
            f"  {s}  {_fmt(tbl.sigma[s - 1]):22} {_fmt(tbl.tau[s]):22} "
            f"{_set_str(tbl.argmax_sets[s - 1])}"
        )
    _print_partition(segments)
    return 0


def cmd_classify(p: Pencil, args, tol: TolerancePolicy) -> int:
    if not 0.0 <= args.t <= 1.0:
        raise CliUsageError(f"--t must be in [0, 1], got {args.t}")
    tbl = thresholds(p, tol)
    s = classify_at(p, args.t, tbl, tol)
    status = m_trichotomy(p, args.t, tol)
    if args.json:
        _print_json({"t": args.t, "s": s, "label": f"L_{s}", "m_status": status.value})
    else:
        print(f"L_{s}")
    return 0


def cmd_sweep(p: Pencil, args, tol: TolerancePolicy) -> int:
    if args.steps < 2:
        raise CliUsageError(f"--steps must be at least 2, got {args.steps}")
    tbl = thresholds(p, tol)
    rows = []
    for i in range(args.steps):
        t = i / (args.steps - 1)
        rows.append((t, classify_at(p, t, tbl, tol), m_trichotomy(p, t, tol).value))
    if args.json:
        _print_json([{"t": t, "s": s, "m_status": st} for t, s, st in rows])
        return 0
    print("t,s,m_status")
    for t, s, st in rows:
        print(f"{t!r},{s},{st}")
    return 0


def cmd_classes(p: Pencil, args, tol: TolerancePolicy) -> int:
    crit = critical_classes(p, spectral_summary(p, tol), tol)
    labels = _classes_json(crit.labels)
    _warn_if_ambiguous(crit.rho_ab, tol)
    if args.json:
        _print_json({"gamma": crit.name, "classes": labels})
        return 0
    print("classes of G(A) union G(B) against rho_ab*B - A:" if crit.name == "union"
          else "classes of G(A) against -A:")
    for i, label in enumerate(labels, start=1):
        _print_class_line(i, label)
    return 0


def cmd_eigvecs(p: Pencil, args, tol: TolerancePolicy) -> int:
    crit = critical_classes(p, spectral_summary(p, tol), tol)
    basis = _eigenbasis_json(pencil_eigenbasis(p, crit, tol))
    _warn_if_ambiguous(crit.rho_ab, tol)
    if args.json:
        _print_json(basis)
        return 0
    print(f"rho_ab = {_fmt(crit.rho_ab)}; {len(basis)} nonnegative eigenvector(s):")
    for i, vec in enumerate(basis, start=1):
        values = " ".join(repr(v) for v in vec["values"])
        print(f"  x{i}: origin {_set_str(vec['origin_class'])}, "
              f"support {_set_str(vec['support'])}")
        print(f"      [{values}]")
    return 0


def cmd_report(p: Pencil, args, tol: TolerancePolicy) -> int:
    try:
        payload = build_report(p, tol)
    except ValidationFailedError as exc:
        validation = _validation_dict(exc.report)
        if args.json:
            _print_json({"validation": validation})
        else:
            _print_validation(validation)
        return 1
    _warn_if_ambiguous(payload["rho_ab"], tol)
    if args.json:
        _print_json(payload)
        return 0
    _print_validation(payload["validation"])
    print(f"mu     = {_fmt(payload['mu'])}")
    print(f"rho_ab = {_fmt(payload['rho_ab'])}")
    print("tau:    " + "  ".join(_fmt(v) for v in payload["tau"]))
    _print_partition(payload["partition"])
    print("classes:")
    for i, label in enumerate(payload["classes"], start=1):
        _print_class_line(i, label)
    print(f"eigenbasis: {len(payload['eigenbasis'])} vector(s)")
    for vec in payload["eigenbasis"]:
        values = " ".join(repr(v) for v in vec["values"])
        print(f"  origin {_set_str(vec['origin_class'])}, "
              f"support {_set_str(vec['support'])}: [{values}]")
    for b in payload["bounds"]:
        print(f"critical class {_set_str(b['vertices'])} (m = {b['m']}): "
              f"s <= {b['s_upper']} on (0, rho_ab)")
    return 0


def cmd_graph(p: Pencil, args, tol: TolerancePolicy) -> int:
    if args.kind == "a":
        dot = digraph_to_dot(digraph_of(p.A, tol), name="A")
    elif args.kind == "b":
        dot = digraph_to_dot(digraph_of(p.B, tol), name="B")
    else:
        g = union(digraph_of(p.A, tol), digraph_of(p.B, tol))
        if args.kind == "union":
            dot = digraph_to_dot(g, name="AB")
        else:
            dot = reduced_graph_to_dot(reduced_graph(g))
    if args.out:
        try:
            Path(args.out).write_text(dot, encoding="utf-8")
        except OSError as exc:
            raise CliUsageError(f"cannot write {args.out}: {exc}") from None
    else:
        print(dot, end="")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="zpencil",
        description="Analyze the Z-matrix pencil t*B - A on [0, 1]: "
        "validation, critical value, class thresholds, and nonnegative "
        "eigenvector structure.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="pencil file (text format or JSON twin)")
        sp.add_argument("--json", action="store_true", help="machine output")
        sp.set_defaults(func=func)
        return sp

    add("validate", cmd_validate, "check the three admission conditions")
    add("spectrum", cmd_spectrum, "mu, rho_ab, and the pencil eigenvalues")
    add("thresholds", cmd_thresholds, "sigma_s, tau_s, and the class partition")
    sp = add("classify", cmd_classify, "class of t*B - A for a given t")
    sp.add_argument("--t", type=float, required=True, help="parameter in [0, 1]")
    sp = add("sweep", cmd_sweep, "CSV sweep of t in [0, 1]")
    sp.add_argument("--steps", type=int, required=True, help="number of samples (>= 2)")
    add("classes", cmd_classes, "classes with singular/distinguished labels")
    add("eigvecs", cmd_eigvecs, "nonnegative eigenvectors at rho_ab")
    add("report", cmd_report, "full analysis")
    sp = add("graph", cmd_graph, "DOT export of the pencil digraphs")
    sp.add_argument(
        "--kind",
        choices=("a", "b", "union", "reduced"),
        default="union",
        help="which graph to export (default: union)",
    )
    sp.add_argument("--out", help="write DOT here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _tolerance_from_env()
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CliUsageError(f"cannot read {args.file}: {exc}") from None
        p = parse_pencil(text)
        return args.func(p, args, tol)
    except (CliUsageError, PencilFormatError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.report.violations:
            print(f"  ({v.condition}) {v.message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
