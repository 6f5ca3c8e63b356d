"""Invariant checks on the files one CLI job wrote.

Each check returns a list of problems; an empty list means the output is
correct.  The checks test physical and format invariants, not golden bytes,
so a change of quadrature grid or of summation order still passes them.
Needs numpy, scipy and ``rwp`` importable (the spin oracle uses the package's
amplitude route).
"""

from __future__ import annotations

import random

import numpy as np
from scipy.integrate import simpson

SERIES_HEADER = ["t", "re_A", "im_A", "asq", "sx", "sy", "sz", "slen", "N1", "N2"]
DENSITY_HEADER = ["r", "rho1", "rho2", "rho"]
UNIT_TOL = 1e-12     # identities that hold to rounding: N1+N2, |A(0)|^2, |s| <= 1
ORACLE_TOL = 1e-9    # series against amplitudes_at + spin_expectations
NORM_TOL = 1e-6      # the test suite's quadrature-norm gate
ORACLE_ROWS = 24


def read_csv(path):
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def read_pgm(path):
    """Plain P2 image -> (maxval, pixels[height, width]); raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(maxsplit=4)
    if len(parts) < 4 or parts[0] != b"P2":
        raise ValueError("not a plain P2 image")
    width, height, maxval = (int(p) for p in parts[1:4])
    body = parts[4].decode("ascii") if len(parts) == 5 else ""
    pixels = np.fromstring(body, dtype=np.int64, sep=" ")
    if pixels.size != width * height:
        raise ValueError(f"{pixels.size} pixels for a {width}x{height} header")
    return maxval, pixels.reshape(height, width)


def _outputs(paths, expected):
    names = [p.replace("\\", "/").rsplit("/", 1)[-1] for p in paths]
    if names != list(expected):
        return [f"CLI printed {names}, expected {list(expected)}"]
    return []


def sample_rows(seed, samples, count=ORACLE_ROWS):
    """First, last and ``count`` seeded rows of a series."""
    rng = random.Random(f"oracle:{seed}")
    return sorted({0, samples - 1} | {rng.randrange(samples) for _ in range(count)})


def check_spin_series(paths, job, seed):
    problems = _outputs(paths, job.outputs)
    if problems:
        return problems
    header, data = read_csv(paths[0])
    if header != SERIES_HEADER:
        return [f"header {header}"]
    p = job.params
    if data.shape != (p["samples"], len(SERIES_HEADER)):
        return [f"shape {data.shape}, expected ({p['samples']}, {len(SERIES_HEADER)})"]
    if not np.all(np.isfinite(data)):
        return ["non-finite values"]
    col = dict(zip(header, data.T))
    if np.max(np.abs(col["N1"] + col["N2"] - 1.0)) > UNIT_TOL:
        problems.append("N1 + N2 != 1")
    if np.max(col["slen"]) > 1.0 + UNIT_TOL:
        problems.append("Bloch length > 1")
    if abs(col["asq"][0] - 1.0) > UNIT_TOL:
        problems.append(f"|A(0)|^2 = {col['asq'][0]!r}")
    if np.max(np.abs(col["asq"] - col["re_A"] ** 2 - col["im_A"] ** 2)) > UNIT_TOL:
        problems.append("asq != |A|^2")

    from rwp.core import PhysicalParams, energy_table, time_scales
    from rwp.observables import spin_expectations
    from rwp.packet import PacketSpec, amplitudes_at, build_packet

    params = PhysicalParams(Z=p["Z"], l=p["l"])
    packet = build_packet(PacketSpec(n_av=p["n_av"], sigma=p["sigma"],
                                     a=p["a"], b=p["b"]), params.l)
    energies = energy_table(params, packet.n_min, packet.n_max)
    unit_au = time_scales(params, p["n_av"]).t_ls
    worst = 0.0
    for i in sample_rows(seed, p["samples"]):
        amps = amplitudes_at(packet, energies, col["t"][i] * unit_au)
        sx, sy, sz = spin_expectations(amps, params.l)
        n1 = float(np.sum(np.abs(amps.c1) ** 2 + np.abs(amps.d1) ** 2))
        n2 = float(np.sum(np.abs(amps.c2) ** 2))
        got = [col[k][i] for k in ("sx", "sy", "sz", "N1", "N2")]
        worst = max(worst, max(abs(g - w) for g, w in zip(got, (sx, sy, sz, n1, n2))))
    if worst > ORACLE_TOL:
        problems.append(f"series differs from the amplitude oracle by {worst:.3g}")
    return problems


def check_rydberg_density(paths, job, seed):
    problems = _outputs(paths, job.outputs)
    if problems:
        return problems
    for path in paths:
        header, data = read_csv(path)
        name = path.rsplit("/", 1)[-1]
        if header != DENSITY_HEADER:
            problems.append(f"{name}: header {header}")
            continue
        if not np.all(np.isfinite(data)):
            problems.append(f"{name}: non-finite values")
            continue
        r, rho1, rho2, rho = data.T
        if np.any(np.diff(r) <= 0) or r[0] < 0:
            problems.append(f"{name}: r not ascending from >= 0")
        if np.min(rho1) < 0 or np.min(rho2) < 0:
            problems.append(f"{name}: negative density")
        if np.any(np.abs(rho - (rho1 + rho2)) > 4 * np.finfo(float).eps * rho):
            problems.append(f"{name}: rho != rho1 + rho2")
        norm = float(simpson(rho, x=r))
        if abs(norm - 1.0) > NORM_TOL:
            problems.append(f"{name}: integral of rho = {norm!r}")
    return problems


def check_carpet_pgm(paths, job, seed):
    problems = _outputs(paths, job.outputs)
    if problems:
        return problems
    images = []
    for path in paths:
        name = path.rsplit("/", 1)[-1]
        try:
            maxval, pixels = read_pgm(path)
        except ValueError as exc:
            return [f"{name}: {exc}"]
        if maxval != 255:
            problems.append(f"{name}: maxval {maxval}")
        if pixels.shape[0] != job.params["samples"]:
            problems.append(f"{name}: height {pixels.shape[0]}, "
                            f"expected {job.params['samples']}")
        if pixels.min() < 0 or pixels.max() > 255:
            problems.append(f"{name}: pixel outside 0..255")
        images.append(pixels)
    if problems:
        return problems
    if images[0].shape != images[1].shape:
        return [f"image shapes {images[0].shape} and {images[1].shape} differ"]
    if max(images[0].max(), images[1].max()) != 255:
        problems.append("joint peak is not 255")
    # Each row holds total probability 1, so rho1 + rho2 summed over a row is
    # the same in every row.  Rounding moves a lit pixel by at most 1/2 and an
    # unlit one hides at most 1/2, so each row's unrounded mass lies in
    # [S - lit/2, S + lit/2 + dark/2]; the rows agree only if these overlap.
    both = images[0] + images[1]
    mass = both.sum(axis=1).astype(float)
    lit = (images[0] > 0).sum(axis=1) + (images[1] > 0).sum(axis=1)
    dark = 2 * both.shape[1] - lit
    lo = mass - 0.5 * lit
    hi = mass + 0.5 * lit + 0.5 * dark
    slack = 1e-6 * mass.max()
    if lo.max() > hi.min() + slack:
        problems.append(f"row mass not constant: row {int(lo.argmax())} holds "
                        f">= {lo.max():.0f}, row {int(hi.argmin())} <= {hi.min():.0f}")
    return problems


CHECKS = {
    "spin_series": check_spin_series,
    "carpet_pgm": check_carpet_pgm,
    "rydberg_density": check_rydberg_density,
}

