"""Workload inputs, made from the workload seed.

The pencil recipe is a copy of ``zpencil.testkit.gen_pencil``: PCG64 via
``numpy.random.default_rng`` and the same draw order (A values, A mask,
N values, N mask).  The copy keeps the workloads fixed when the library's
own test generator changes.  Each input draws from its own stream, seeded
with ``(workload seed, input index)``, so one seed always gives the same
inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

ENUM_ORDER = 14
ENUM_INPUTS = 1  # distinct pencils per enum-* run, cycled by the closed loop

DESK_ORDERS = (2, 3, 4, 5, 6, 7, 8)
DESK_DENSITIES = (0.05, 0.2, 0.5, 1.0)
DESK_MAGNITUDES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
DESK_SLACKS = (1e-9, 1e-5, 0.1)


@dataclass(frozen=True)
class Config:
    """Generator knobs of one input; ``seed`` is anything ``default_rng``
    accepts."""

    n: int
    seed: int | tuple[int, ...]
    density: float
    magnitude: float
    dominance_slack: float


# A config on which the seed library raises ConstructionFailedError; it is
# in every desk-mix input set, so a correctness fix can show.
PINNED_FAILING = Config(n=5, seed=2, density=0.05, magnitude=1e-6,
                        dominance_slack=0.1)


def gen_arrays(cfg: Config) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A >= 0 of the requested density and B = A + M, where M
    is a row-diagonally-dominant Z-matrix with slack ``dominance_slack``."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    a_vals = rng.uniform(0.0, cfg.magnitude, size=(n, n))
    a_mask = rng.random((n, n)) < cfg.density
    A = np.where(a_mask, a_vals, 0.0)
    n_vals = rng.uniform(0.0, cfg.magnitude, size=(n, n))
    n_mask = rng.random((n, n)) < cfg.density
    N = np.where(n_mask, n_vals, 0.0)
    np.fill_diagonal(N, 0.0)
    M = np.diag(N.sum(axis=1) + cfg.dominance_slack) - N
    return A, A + M


def enum_configs(seed: int, density: float) -> list[Config]:
    return [Config(ENUM_ORDER, (seed, i), density, 1.0, 0.1)
            for i in range(ENUM_INPUTS)]


def desk_configs(seed: int) -> list[Config]:
    """The pinned failing config, then the full grid of desk-scale knobs;
    nothing is filtered out, whatever the library makes of it."""
    grid = itertools.product(DESK_ORDERS, DESK_DENSITIES, DESK_MAGNITUDES,
                             DESK_SLACKS)
    return [PINNED_FAILING] + [
        Config(n, (seed, i), d, m, s) for i, (n, d, m, s) in enumerate(grid)
    ]


def pencil_text(A: np.ndarray, B: np.ndarray) -> str:
    """The library's text file format; ``repr`` keeps every float exact."""
    lines = [f"n = {A.shape[0]}", "A:"]
    lines += [" ".join(repr(float(v)) for v in row) for row in A]
    lines.append("B:")
    lines += [" ".join(repr(float(v)) for v in row) for row in B]
    return "\n".join(lines) + "\n"
