"""Benchmark of the zpencil library: closed-loop workloads with one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enum-dense --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout.  The inputs are made
from ``--seed``, every distinct input is checked once outside the timed
region, and the timed loop then runs for ``--seconds``.  ``attempted`` and
``failed`` count distinct inputs, so they depend on the seed and not on how
many analyses fit in the run.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it wraps the
public functions of each library module and reports per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment and sample counts, is written to ``.perfbench_work/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Fixed before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from check import (  # noqa: E402
    check_argmax,
    check_refusal,
    check_report,
    reference_sweep,
    sigma_rel_err,
)
from inputs import Config, desk_configs, enum_configs, gen_arrays, pencil_text  # noqa: E402
from tracing import Tracer, layer_metrics, public_functions, rebound  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 7  # fresh interpreters timed for setup_s
CLI_RUNS = 9    # fresh CLI processes timed for cli_cold_s
IMPORTTIME_RUNS = 3  # fresh interpreters under -X importtime
CHILD_TIMEOUT_S = 60

WORKLOADS = ("enum-dense", "enum-sparse", "desk-mix")
ENUM_DENSITY = {"enum-dense": 0.5, "enum-sparse": 0.15}

# Functions each workload is known to call; zero recorded calls means a
# binding was missed, so the traced run stops instead of reporting.
KNOWN_CALLS = (
    "cli.build_report", "pencil.validate", "pencil.spectral_summary",
    "pencil.thresholds", "pencil.partition", "pencil.zs_bound",
    "linalg.solve", "linalg.spectral_radius", "linalg.perron_vector",
    "linalg.is_singular", "zmatrix.m_status", "zmatrix.is_z_matrix",
    "digraph.classes", "eigenstructure.class_labels",
    "eigenstructure.pencil_eigenbasis",
)
KNOWN_CALLS_DESK = ("cli.main", "cli.parse_pencil", "eigenstructure.rho_ambiguous")


@dataclass(frozen=True)
class Item:
    """One distinct input: its generator config, matrices, and the form
    the workload hands to the library (a Pencil or a file path)."""

    cfg: Config
    A: np.ndarray
    B: np.ndarray
    arg: object


@dataclass
class Checked:
    """The outcome of the check pass for one input.  ``outcome`` is what
    every timed analysis of the input must reproduce exactly."""

    outcome: tuple
    failed: bool
    wrong: bool
    problems: list
    sigma_err: float | None
    argmax_miss: bool


class EnumWorkload:
    """``cli.build_report`` in-process on order-14 pencils."""

    check_sigma = True

    def __init__(self, zp, seed: int, density: float):
        self.cli = zp.cli  # looked up per call, so a traced run sees its wrappers
        self.refused = zp.ValidationFailedError
        self.items = []
        for cfg in enum_configs(seed, density):
            A, B = gen_arrays(cfg)
            self.items.append(Item(cfg, A, B, zp.Pencil(A=A, B=B)))

    def analyse(self, item: Item) -> tuple:
        try:
            return "report", self.cli.build_report(item.arg)
        except self.refused as exc:
            r = exc.report
            return "refused", {"validation": {
                "c1_holds": r.c1_holds, "c2_holds": r.c2_holds, "c3_holds": r.c3_holds}}

    def parse(self, payload):
        return payload


class DeskWorkload:
    """In-process ``cli.main(["report", <file>, "--json"])`` on small
    pencil files, standard output captured."""

    check_sigma = False

    def __init__(self, zp, seed: int):
        self.cli = zp.cli  # looked up per call, so a traced run sees its wrappers
        self.items = write_desk_files(WORK / f"desk-seed{seed}", desk_configs(seed))

    def analyse(self, item: Item) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(["report", item.arg, "--json"])
        if code == 0:
            return "report", out.getvalue()
        if code == 1:
            return "refused", out.getvalue()
        return "failed", f"exit {code}: {err.getvalue().strip()}"

    def parse(self, payload):
        return json.loads(payload)


def write_desk_files(folder: Path, configs: list[Config]) -> list[Item]:
    folder.mkdir(parents=True, exist_ok=True)
    items = []
    for i, cfg in enumerate(configs):
        A, B = gen_arrays(cfg)
        path = folder / f"{i:03d}.pencil"
        path.write_text(pencil_text(A, B), encoding="utf-8")
        items.append(Item(cfg, A, B, str(path)))
    return items


def attempt(analyse, item: Item) -> tuple:
    """Run one analysis; an exception it raises is a failed outcome."""
    try:
        return analyse(item)
    except Exception as exc:  # every error is a counted outcome
        return "failed", f"{type(exc).__name__}: {exc}"


def check_pass(zp, workload) -> list[Checked]:
    """Analyse each distinct input once, untimed, and check the result
    against the benchmark's own reference."""
    thresholds = zp.pencil.thresholds
    out = []
    for item in workload.items:
        tables = []

        def record(*args, **kwargs):
            tables.append(thresholds(*args, **kwargs))
            return tables[-1]

        with rebound({thresholds: record}):
            outcome = attempt(workload.analyse, item)
        kind, payload = outcome
        problems, wrong, sigma_err, argmax_miss = [], False, None, False
        if kind == "report":
            report = workload.parse(payload)
            ref = reference_sweep(item.A, item.B)
            problems = check_report(report, item.A, item.B,
                                    ref if workload.check_sigma else None)
            wrong = bool(problems)
            table = tables[-1] if tables else thresholds(zp.Pencil(A=item.A, B=item.B))
            missed = check_argmax(table.argmax_sets, ref)
            argmax_miss = bool(missed)
            problems += missed
            sigma_err = sigma_rel_err(report, ref)
        elif kind == "refused":
            problems = check_refusal(workload.parse(payload))
            wrong = bool(problems)
        else:
            problems = [payload]
        out.append(Checked(outcome, kind == "failed" or bool(problems), wrong,
                           problems, sigma_err, argmax_miss))
    return out


def timed_loop(workload, checked: list[Checked], seconds: float, jobs: list):
    """Closed loop over the inputs for ``seconds`` of analysis time.

    The cold-process ``jobs`` run one by one at evenly spaced points of
    that time, outside it, so their samples span the run instead of one
    moment of it.  Returns the latency samples, the analysis time, the job
    results, and the indices of inputs whose analysis did not reproduce
    its checked outcome."""
    items = workload.items
    samples, mismatched, done = [], [], []
    busy = 0.0
    i = 0
    while busy < seconds or not samples:
        while len(done) < len(jobs) and busy >= seconds * len(done) / len(jobs):
            done.append(jobs[len(done)]())
        k = i % len(items)
        t0 = perf_counter()
        outcome = attempt(workload.analyse, items[k])
        t1 = perf_counter()
        samples.append(t1 - t0)
        busy += t1 - t0
        if outcome != checked[k].outcome:
            mismatched.append(k)
        i += 1
    done += [job() for job in jobs[len(done):]]
    return samples, busy, done, mismatched


def traced_loop(workload, checked: list[Checked], seconds: float):
    """Alternate untraced and traced analyses of each input for
    ``seconds``.  Returns both latency sample lists, the tracer, the
    analysis table for the traced ones, and mismatched input indices."""
    tracer = Tracer()
    wrappers = tracer.wrappers(public_functions())
    traced = tracer.wrap("analysis", workload.analyse)
    items = workload.items
    plain, timed, mismatched = [], [], []
    analyses: dict[int, tuple[int, str]] = {}
    deadline = perf_counter() + seconds
    i = 0
    while True:
        k = i % len(items)
        t0 = perf_counter()
        first = attempt(workload.analyse, items[k])
        plain.append(perf_counter() - t0)
        tracer.analysis = i
        analyses[i] = (items[k].cfg.n, checked[k].outcome[0])
        with rebound(wrappers):
            t0 = perf_counter()
            second = attempt(traced, items[k])
            t1 = perf_counter()
        timed.append(t1 - t0)
        if first != checked[k].outcome or second != checked[k].outcome:
            mismatched.append(k)
        i += 1
        if t1 >= deadline:
            return plain, timed, tracer, analyses, mismatched


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def cold_seconds(argv: list[str], inner: bool) -> float:
    """Wall seconds of one fresh process; with ``inner``, the child prints
    its own measurement instead."""
    t0 = perf_counter()
    done = run_child(argv)
    elapsed = perf_counter() - t0
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr[-500:]}")
    return float(done.stdout.strip()) if inner else elapsed


IMPORT_PROBE = ("import time; t = time.perf_counter(); import zpencil; "
                "print(time.perf_counter() - t)")


def importtime_samples(runs: int) -> dict[str, list[float]]:
    """Cumulative seconds of ``zpencil`` and ``scipy.linalg`` from
    ``python -X importtime``."""
    argv = ["-X", "importtime", "-c", "import zpencil"]
    run_child(argv)
    out = {"zpencil": [], "scipy.linalg": []}
    for _ in range(runs):
        seen = {}
        for line in run_child(argv).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                seen[fields[2].strip()] = int(fields[1]) / 1e6
        for name in out:
            out[name].append(seen.get(name, 0.0))
    return out


def cli_cold_file(seed: int) -> str:
    """The desk-mix input of order 5, density 0.5, unit magnitude and slack
    0.1, for the cold CLI."""
    cfg = next(c for c in desk_configs(seed)[1:]
               if (c.n, c.density, c.magnitude, c.dominance_slack) == (5, 0.5, 1.0, 0.1))
    return write_desk_files(WORK / f"cli-seed{seed}", [cfg])[0].arg


def blas_record() -> list[dict]:
    """Each loaded OpenBLAS: file, build configuration, thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
                entry["threads"] = threads()
                break
        out.append(entry)
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def environment(args, workload) -> dict:
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": [c.cfg.seed for c in workload.items],
    }


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def cold_jobs(seed: int) -> list:
    """setup_s and cli_cold_s probes, alternating, each a fresh process.
    One unmeasured run of each comes first, leaving the bytecode caches an
    installed user would have."""
    probe = ["-c", IMPORT_PROBE]
    cli = ["-m", "zpencil", "report", cli_cold_file(seed), "--json"]
    cold_seconds(probe, inner=True)
    cold_seconds(cli, inner=False)
    jobs = []
    for i in range(max(SETUP_RUNS, CLI_RUNS)):
        if i < SETUP_RUNS:
            jobs.append(lambda: ("setup_s", cold_seconds(probe, inner=True)))
        if i < CLI_RUNS:
            jobs.append(lambda: ("cli_cold_s", cold_seconds(cli, inner=False)))
    return jobs


def end_to_end(workload, checked, args):
    samples, busy, cold, mismatched = timed_loop(
        workload, checked, args.seconds, cold_jobs(args.seed))
    setup = [v for name, v in cold if name == "setup_s"]
    cli = [v for name, v in cold if name == "cli_cold_s"]
    reported = sum(1 for c in checked if c.outcome[0] == "report")
    metrics = {
        "report_s_p50": metric(statistics.median(samples), "s", len(samples)),
        "report_s_p90": metric(float(np.quantile(samples, 0.9)), "s", len(samples)),
        "reports_per_s": metric(len(samples) / busy, "1/s", len(samples)),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "cli_cold_s": metric(statistics.median(cli), "s", len(cli)),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "report_ratio": metric(reported / len(checked), "ratio", len(checked)),
    }
    raw = {"latency": samples, "setup": setup, "cli_cold": cli}
    return metrics, mismatched, raw


def per_layer(workload, checked, args):
    imports = importtime_samples(IMPORTTIME_RUNS)
    plain, traced, tracer, analyses, mismatched = traced_loop(
        workload, checked, args.seconds)
    totals = tracer.totals()
    known = KNOWN_CALLS + (KNOWN_CALLS_DESK if args.workload == "desk-mix" else ())
    missing = [name for name in known if name not in totals.calls]
    count = len(analyses)
    metrics = {name: metric(value, unit, count) for name, (value, unit)
               in layer_metrics(totals, analyses).items()}
    errs = [c.sigma_err for c in checked if c.sigma_err is not None]
    reports = [c for c in checked if c.outcome[0] == "report"]
    metrics.update({
        "pencil.sigma_rel_err_max": metric(max(errs, default=0.0), "ratio", len(errs)),
        "pencil.argmax_miss_ratio": metric(
            sum(c.argmax_miss for c in reports) / len(reports) if reports else 0.0,
            "ratio", len(reports)),
        "import.zpencil_s": metric(statistics.median(imports["zpencil"]), "s",
                                   IMPORTTIME_RUNS),
        "import.scipy_linalg_s": metric(statistics.median(imports["scipy.linalg"]), "s",
                                        IMPORTTIME_RUNS),
        "trace.report_s_p50": metric(statistics.median(traced), "s", len(traced)),
        "trace.overhead_s": metric(
            statistics.median(traced) - statistics.median(plain), "s", len(traced)),
        "outcome.failed_ratio": metric(
            sum(c.failed for c in checked) / len(checked), "ratio", len(checked)),
        "outcome.refused_ratio": metric(
            sum(c.outcome[0] == "refused" for c in checked) / len(checked), "ratio",
            len(checked)),
    })
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.tsv")
    return metrics, mismatched, missing


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zpencil" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zpencil
    import zpencil.cli

    if Path(zpencil.__file__).resolve().parent != (SRC / "zpencil").resolve():
        print(f"perfbench: imported zpencil from {zpencil.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.workload == "desk-mix":
        workload = DeskWorkload(zpencil, args.seed)
    else:
        workload = EnumWorkload(zpencil, args.seed, ENUM_DENSITY[args.workload])
    checked = check_pass(zpencil, workload)

    samples = None
    if args.trace:
        metrics, mismatched, missing = per_layer(workload, checked, args)
        if missing:
            print("perfbench: no calls recorded for " + ", ".join(missing),
                  file=sys.stderr)
            return 3
    else:
        metrics, mismatched, samples = end_to_end(workload, checked, args)

    # An input fails if its checked analysis failed or a timed repeat did
    # not reproduce it; each input counts once, however often it ran.
    mismatched = set(mismatched)
    attempted = len(checked)
    failed = sum(c.failed or k in mismatched for k, c in enumerate(checked))
    correct = not mismatched and not any(c.wrong for c in checked)

    env = environment(args, workload)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "environment": env,
        "problems": {str(c.cfg.seed): checked[i].problems
                     for i, c in enumerate(workload.items) if checked[i].problems},
        "mismatched_inputs": sorted(mismatched),
        "samples": samples,
    }
    (WORK / f"result-{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} distinct inputs, {failed} failed")
    for key, m in metrics.items():
        print(f"  {key:<36} {m['value']:<14.6g} {m['unit']:<6} samples={m['samples']}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
