"""Spans around the public functions of the library's modules.

A function is wrapped at every place it is bound, not only in the module
that defines it: ``zmatrix`` imports ``spectral_radius`` by name,
``eigenstructure`` imports ``perron_vector``, ``nullspace``,
``is_singular`` and ``validate`` by name, and ``cli`` imports the
``pencil`` functions by name, so patching the defining module alone would
miss those calls.

Each span is (name, start, end, parent span, analysis id).  Spans are kept
in memory and written out once at the end.  The library is single-threaded
and spans nest, so a span's child coverage is the sum of its direct
children's durations and its self time is its duration minus that.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "pencil", "linalg", "zmatrix", "digraph", "eigenstructure")

# Argument coercion helpers, called from every layer; their time stays in
# the caller's self time.
UNWRAPPED = frozenset({"linalg.as_matrix", "linalg.as_square",
                       "linalg.index_set", "linalg.submatrix", "linalg.inf_norm"})


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function, for each function in a layer's
    ``__all__`` that the layer defines itself."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"zpencil.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            key = f"{layer}.{name}"
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and key not in UNWRAPPED):
                out[key] = fn
    return out


@contextmanager
def rebound(replacements: dict):
    """Replace each function in ``replacements`` wherever a ``zpencil``
    module binds it, and restore the originals on exit."""
    done = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "zpencil" or name.startswith("zpencil.")):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])
                done.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in done:
            setattr(mod, attr, value)


class Tracer:
    """Records spans for the functions it wraps."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.analysis = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.analysis)

        return traced

    def wrappers(self, functions: dict[str, object]) -> dict:
        return {fn: self.wrap(name, fn) for name, fn in functions.items()}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tanalysis\n")
            for sid, (index, start, end, parent, analysis) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[index]}\t{start!r}\t{end!r}\t"
                         f"{parent}\t{analysis}\n")

    def totals(self) -> "Totals":
        return Totals(self)


class Totals:
    """Per-name calls, inclusive and self seconds, and the parent links
    needed for per-caller counts."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.names = tracer.names
        self.spans = spans
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for sid, (index, start, end, _, _) in enumerate(spans):
            name = tracer.names[index]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.inclusive[name] = self.inclusive.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child[sid])

    def of(self, name: str):
        return [s for s in self.spans if self.names[s[0]] == name]

    def children(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly from ``parent``."""
        return sum(1 for s in self.of(child)
                   if s[3] >= 0 and self.names[self.spans[s[3]][0]] == parent)


def layer_metrics(t: Totals, analyses: dict[int, tuple[int, str]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced analysis (``.s`` inclusive
    seconds, ``.self_s`` self seconds, ``.calls`` calls) unless its name
    says otherwise.  ``analyses`` maps analysis id -> (order, outcome)."""
    count = len(analyses)

    def calls(name):
        return t.calls.get(name, 0) / count

    def inclusive(name):
        return t.inclusive.get(name, 0.0) / count

    def self_s(name):
        return t.self_time.get(name, 0.0) / count

    subsets = sum(2 ** analyses[s[4]][0] - 1 for s in t.of("pencil.thresholds"))
    solves = t.children("linalg.solve", "pencil.thresholds")
    sweeps = t.calls.get("pencil.thresholds", 0)
    reports = sum(1 for _, kind in analyses.values() if kind == "report")
    validates = sum(1 for s in t.of("pencil.validate") if analyses[s[4]][1] == "report")
    solve_calls = t.calls.get("linalg.solve", 0)
    perron = t.calls.get("linalg.perron_vector", 0)
    digraph = sum(v for k, v in t.self_time.items() if k.startswith("digraph."))
    return {
        "pencil.thresholds.s": (inclusive("pencil.thresholds"), "s"),
        "pencil.thresholds.self_s": (self_s("pencil.thresholds"), "s"),
        "pencil.thresholds.solves": (solves / sweeps if sweeps else 0.0, "count"),
        "pencil.thresholds.solve_ratio": (solves / subsets if subsets else 0.0, "ratio"),
        "pencil.thresholds.us_per_subset": (
            1e6 * t.inclusive.get("pencil.thresholds", 0.0) / subsets if subsets else 0.0, "us"),
        "pencil.validate.calls_per_report": (validates / reports if reports else 0.0, "count"),
        "pencil.validate.s": (inclusive("pencil.validate"), "s"),
        "pencil.spectral_summary.s": (inclusive("pencil.spectral_summary"), "s"),
        "pencil.partition.s": (inclusive("pencil.partition"), "s"),
        "pencil.zs_bound.s": (inclusive("pencil.zs_bound"), "s"),
        "linalg.solve.calls": (calls("linalg.solve"), "count"),
        "linalg.solve.s": (inclusive("linalg.solve"), "s"),
        "linalg.solve.us_per_call": (
            1e6 * t.inclusive.get("linalg.solve", 0.0) / solve_calls if solve_calls else 0.0, "us"),
        "linalg.spectral_radius.calls": (calls("linalg.spectral_radius"), "count"),
        "linalg.spectral_radius.s": (inclusive("linalg.spectral_radius"), "s"),
        "linalg.perron_vector.calls": (calls("linalg.perron_vector"), "count"),
        "linalg.perron_vector.s": (inclusive("linalg.perron_vector"), "s"),
        "linalg.nullspace.calls": (calls("linalg.nullspace"), "count"),
        "linalg.is_singular.calls": (calls("linalg.is_singular"), "count"),
        "linalg.is_singular.s": (inclusive("linalg.is_singular"), "s"),
        "zmatrix.m_status.calls": (calls("zmatrix.m_status"), "count"),
        "zmatrix.m_status.s": (inclusive("zmatrix.m_status"), "s"),
        "zmatrix.is_z_matrix.calls": (calls("zmatrix.is_z_matrix"), "count"),
        "digraph.s": (digraph / count, "s"),
        "digraph.classes.calls": (calls("digraph.classes"), "count"),
        "eigenstructure.class_labels.s": (inclusive("eigenstructure.class_labels"), "s"),
        "eigenstructure.pencil_eigenbasis.s": (inclusive("eigenstructure.pencil_eigenbasis"), "s"),
        "eigenstructure.fallback_ratio": (
            t.calls.get("linalg.nullspace", 0) / perron if perron else 0.0, "ratio"),
        "cli.parse_pencil.s": (inclusive("cli.parse_pencil"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.build_report.self_s": (self_s("cli.build_report"), "s"),
    }
