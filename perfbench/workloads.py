"""Benchmark workloads: one rwp CLI job each, drawn from the workload seed.

A seed draws n_av, the spinor angle and the times from narrow bands.  The
row count, the sample count and the grid size do not depend on the seed, so
every seed asks for the same amount of work.  All runs use Z = 92, l = 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    """One CLI invocation: arguments without --out, and what it must write."""

    argv: tuple
    out: str
    outputs: tuple  # file names the CLI prints, in order
    params: dict = field(default_factory=dict)  # drawn values, for the checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draw: object  # random.Random -> Job


def _flags(params, keys):
    argv = []
    for key in keys:
        value = params[key]
        flag = "--" + key.replace("_", "-")
        if isinstance(value, (list, tuple)):
            argv += [flag] + [repr(v) for v in value]
        else:
            argv += [flag, repr(value) if isinstance(value, float) else str(value)]
    return argv


def _spinor(rng, centre, half_width):
    theta = rng.uniform(centre - half_width, centre + half_width)
    return math.cos(theta), math.sin(theta)


_PACKET = ("Z", "l", "n_av", "sigma", "a", "b", "t_unit")


def _spin_series(rng):
    """Evolution does most of the compute (observable_series, about a third
    of the job) and import takes the largest share.  No radial table or
    projection runs, so their optimisations should leave this job unchanged."""
    a, b = _spinor(rng, math.pi / 4, 0.05)
    params = {"Z": 92, "l": 1, "n_av": rng.randint(78, 82), "sigma": 2.0,
              "a": a, "b": b, "t_unit": "tls",
              "t_max": rng.uniform(34.0, 36.0), "samples": 7001}
    argv = ["observables"] + _flags(params, _PACKET + ("t_max", "samples"))
    return Job(tuple(argv), "obs.csv", ("obs.csv",), params)


def _carpet_pgm(rng):
    """Projection (carpet: one densities call per time) and serialization
    (two PGM images) dominate; no evolution series runs.  The memory-heavy job."""
    a, b = _spinor(rng, 0.45 * math.pi, 0.05 * math.pi)
    params = {"Z": 92, "l": 1, "n_av": rng.randint(78, 82), "sigma": 2.0,
              "a": a, "b": b, "t_unit": "tls",
              "t_max": rng.uniform(1.9, 2.1), "samples": 201}
    argv = (["carpet"] + _flags(params, _PACKET + ("t_max", "samples"))
            + ["--format", "pgm"])
    return Job(tuple(argv), "carpet.pgm",
               ("carpet_rho1.pgm", "carpet_rho2.pgm"), params)


def _rydberg_density(rng):
    """radial_table dominates: the recurrence runs about 2.4 times as deep as
    at n = 80.  Projection covers 2 times over a costly table, where
    carpet_pgm covers 201 times over a cheap one, so a change that batches
    projection and one that shrinks the grid move the two differently."""
    a, b = _spinor(rng, math.pi / 4, 0.05)
    # n_av + 5 sigma stays at or below 200, the validated limit of radial_eval
    params = {"Z": 92, "l": 1, "n_av": rng.randint(176, 180), "sigma": 4.0,
              "a": a, "b": b, "t_unit": "tls",
              "times": [rng.uniform(0.0, 0.5), rng.uniform(12.0, 14.0)]}
    argv = ["density"] + _flags(params, _PACKET + ("times",))
    return Job(tuple(argv), "rho.csv", ("rho_t0.csv", "rho_t1.csv"), params)


WORKLOADS = {w.name: w for w in (
    Workload(
        "spin_series",
        "fig-4 observables, 7001 samples: evolution (observable_series) and "
        "import dominate; no radial table or projection runs",
        _spin_series),
    Workload(
        "carpet_pgm",
        "fig-6 carpet, 201 times x default radial grid as PGM: projection "
        "(carpet) and serialization (write_pgm) dominate; memory-heavy",
        _carpet_pgm),
    Workload(
        "rydberg_density",
        "two density snapshots at n = 156-200, sigma 4: radial_table "
        "dominates; projection of few times over a costly table",
        _rydberg_density),
)}


def draw_job(workload: str, seed: int) -> Job:
    return WORKLOADS[workload].draw(random.Random(f"{workload}:{seed}"))
