"""Tests of the benchmark itself; no assertion here is on a timing.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import zpencil  # noqa: E402
import zpencil.cli  # noqa: E402
from check import check_argmax, check_report, reference_sweep  # noqa: E402
from inputs import PINNED_FAILING, Config, desk_configs, gen_arrays  # noqa: E402
from tracing import Tracer, public_functions, rebound  # noqa: E402
from zpencil.testkit import GenConfig, gen_pencil  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class TinyWorkload(run.EnumWorkload):
    """``build_report`` on two order-4 pencils, optionally corrupting tau."""

    def __init__(self, corrupt: bool = False):
        self.cli = zpencil.cli
        self.refused = zpencil.ValidationFailedError
        self.corrupt = corrupt
        self.items = []
        for seed in (1, 2):
            A, B = gen_arrays(Config(4, seed, 0.5, 1.0, 0.1))
            self.items.append(run.Item(Config(4, seed, 0.5, 1.0, 0.1), A, B,
                                       zpencil.Pencil(A=A, B=B)))

    def analyse(self, item):
        kind, payload = super().analyse(item)
        if self.corrupt and kind == "report":
            payload["tau"][-1] *= 1.0 + 1e-6
        return kind, payload


def test_generator_copy_matches_testkit():
    for cfg in (PINNED_FAILING, Config(6, 11, 0.3, 1e3, 1e-5)):
        A, B = gen_arrays(cfg)
        p = gen_pencil(GenConfig(cfg.n, cfg.seed, cfg.density, cfg.magnitude,
                                 cfg.dominance_slack))
        assert np.array_equal(A, p.A) and np.array_equal(B, p.B)


def test_desk_inputs_depend_on_seed_only_and_keep_the_pinned_config():
    first, again, other = desk_configs(3), desk_configs(3), desk_configs(4)
    assert first == again and first != other
    assert first[0] == PINNED_FAILING == other[0]
    assert np.array_equal(gen_arrays(first[5])[0], gen_arrays(again[5])[0])


def test_reference_sweep_agrees_with_the_library():
    A, B = gen_arrays(Config(5, 7, 0.6, 1.0, 0.1))
    tbl = zpencil.thresholds(zpencil.Pencil(A=A, B=B))
    ref = reference_sweep(A, B)
    assert np.allclose(tbl.sigma, [v.max() for _, v in ref], rtol=1e-12)
    assert check_argmax(tbl.argmax_sets, ref) == []


def test_corrupted_tau_is_counted_as_failed():
    checked = run.check_pass(zpencil, TinyWorkload(corrupt=True))
    assert all(c.failed and c.wrong for c in checked)
    assert all(any("tau" in p for p in c.problems) for c in checked)
    assert not any(c.failed for c in run.check_pass(zpencil, TinyWorkload()))


def test_report_check_catches_a_bad_eigenvector_and_partition():
    A, B = gen_arrays(Config(4, 1, 0.5, 1.0, 0.1))
    report = zpencil.cli.build_report(zpencil.Pencil(A=A, B=B))
    assert check_report(report, A, B, reference_sweep(A, B)) == []
    report["eigenbasis"][0]["values"][0] *= 2.0
    report["partition"][-1]["hi"] = 0.9
    problems = check_report(report, A, B)
    assert any("residual" in p for p in problems)
    assert any("partition" in p for p in problems)


def test_wrappers_reach_every_binding_and_are_removed():
    functions = public_functions()
    tracer = Tracer()
    A, B = gen_arrays(Config(4, 1, 0.5, 1.0, 0.1))
    with rebound(tracer.wrappers(functions)):
        zpencil.cli.build_report(zpencil.Pencil(A=A, B=B))
    seen = {tracer.names[s[0]] for s in tracer.spans}
    assert set(run.KNOWN_CALLS) <= seen
    assert zpencil.eigenstructure.validate is functions["pencil.validate"]
    assert zpencil.zmatrix.spectral_radius is functions["linalg.spectral_radius"]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, kind):
    done = bench("--workload", "desk-mix", "--seed", "1", "--seconds", "0.5",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(desk_configs(1))  # distinct inputs, not repeats
    assert result["failed"] >= 1  # the pinned failing config
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "desk-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
