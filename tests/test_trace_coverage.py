"""The traced benchmark run (``perfbench/run.py --trace 1``) exits 3 when
a function named in its ``KNOWN_CALLS`` or ``KNOWN_CALLS_DESK`` records no
call.  These tests trace one analysis of each kind the way that run does,
so a change that takes a named function off the report path fails here.

The two tuples are read from ``run.py`` with ``ast``, and ``tracing.py``
and ``inputs.py`` are loaded by file path, so nothing under ``perfbench/``
runs beyond its definitions.
"""

import ast
import importlib.util
import sys
from pathlib import Path

from zpencil import cli
from zpencil.pencil import Pencil

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _known(name: str) -> tuple[str, ...]:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in perfbench/run.py")


def _load(name: str):
    # dataclasses look their module up in sys.modules while it executes
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def _uncalled(run, known: tuple[str, ...]) -> list[str]:
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    with tracing.rebound(tracer.wrappers(tracing.public_functions())):
        run()
    calls = tracer.totals().calls
    return [name for name in known if name not in calls]


def test_enum_report_records_every_known_call():
    # The benchmark checks each input once before its timed loop, so the
    # traced analyses run on a Pencil whose validate verdict is memoised.
    inputs = _load("inputs")
    A, B = inputs.gen_arrays(inputs.enum_configs(1, 0.5)[0])
    p = Pencil(A=A, B=B)
    cli.build_report(p)
    assert _uncalled(lambda: cli.build_report(p), _known("KNOWN_CALLS")) == []


def test_desk_report_records_every_known_call(data_dir, capsys):
    path = str(data_dir / "ex1.pencil")
    known = _known("KNOWN_CALLS") + _known("KNOWN_CALLS_DESK")
    assert _uncalled(lambda: cli.main(["report", path, "--json"]), known) == []
    assert capsys.readouterr().err == ""
