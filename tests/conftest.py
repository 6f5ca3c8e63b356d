"""Shared fixtures, extended-precision oracles and test-only helpers."""

import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt
from scipy.signal import find_peaks

from rwp.core import (FINE_STRUCTURE_CONST, PhysicalParams, energy_table,
                      time_scales)
from rwp.errors import RwpError
from rwp.packet import (PacketSpec, SpinorAmplitudes, _phases, amplitudes_at,
                        build_packet)
from rwp.radial import _BLOCK_ELEMENTS, RadialGrid, make_grid, radial_table


def eps_mp(Z, n, j, alpha=FINE_STRUCTURE_CONST, l=None, dps=60):
    """Reduced Dirac-Coulomb energy in hartree at 60 significant digits.

    Naive evaluation of E - m0 c^2 as a literal difference; at this
    precision the cancellation is harmless, which is exactly what makes
    it a valid oracle for the rearranged double-precision routine.
    """
    mp.dps = dps
    a = mpf(alpha)
    y = (mpf(Z) * a) ** 2
    jp = mpf(j) + mpf(1) / 2
    d = mpf(n) - jp + mpsqrt(jp * jp - y)
    rest = 1 / a ** 2
    return rest * (1 + y / d ** 2) ** mpf("-0.5") - rest


def splitting_mp(Z, n, l, alpha=FINE_STRUCTURE_CONST, dps=60):
    """Naive extended-precision eps_plus - eps_minus."""
    return eps_mp(Z, n, l + 0.5, alpha, dps=dps) - eps_mp(Z, n, l - 0.5, alpha, dps=dps)


def amplitude_densities(packet, energies, table, times):
    """(rho1, rho2) projected channel by channel from ``amplitudes_at``: r^2
    (|sum c1 R|^2 + |sum d1 R|^2) and r^2 |sum c2 R|^2, the oracle of
    ``densities``."""
    amps = amplitudes_at(packet, energies, np.asarray(times, dtype=float))
    rows = table.values
    r2 = table.r ** 2
    return (r2 * (np.abs(amps.c1 @ rows) ** 2 + np.abs(amps.d1 @ rows) ** 2),
            r2 * np.abs(amps.c2 @ rows) ** 2)


def ref_densities(packet, energies, table, times):
    """(rho1, rho2) by ``densities``' block loop in its four-einsum form: one
    einsum per real or imaginary part of each phase sum, in a loop over the
    two parts, squared, scaled and added onto zero-filled outputs in place.
    The byte reference of ``densities``, whose block makes one einsum and
    the same squares, scalings and adds in the same order."""
    a, b, l = complex(packet.spec.a), complex(packet.spec.b), energies.params.l
    rows = table.values
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    flip = abs(b) ** 2 * 2 * l / (2 * l + 1) ** 2  # of |P_+ - P_-|^2
    r2 = table.r ** 2
    scale2 = abs(b) ** 2 / (2 * l + 1) ** 2 * r2
    rho1 = np.zeros((len(flat), len(table.r)))
    rho2 = np.zeros_like(rho1)
    step = max(1, _BLOCK_ELEMENTS // max(1, len(table.r)))
    for t0 in range(0, max(1, len(flat)), step):
        out1, out2 = rho1[t0:t0 + step], rho2[t0:t0 + step]
        e_plus, beat = _phases(packet, energies, flat[t0:t0 + step])
        w_plus = e_plus * packet.weights
        w_minus = w_plus * beat
        for part in (np.real, np.imag):
            p = np.einsum("...n,nr->...r", part(w_plus), rows)
            m = np.einsum("...n,nr->...r", part(w_minus), rows)
            s = 2 * l * m
            s += p
            s *= s
            out2 += s
            m -= p
            m *= m
            m *= flip
            out1 += m
            p *= p
            p *= abs(a) ** 2
            out1 += p
            del p, m, s
        out1 *= r2
        out2 *= scale2
    shape = times.shape + table.r.shape
    return rho1.reshape(shape), rho2.reshape(shape)


class LengthMismatch(RwpError):
    """Sample arrays do not match the quadrature grid length."""


class EmptyWindow(RwpError):
    """Peak-detection window contains no samples."""


def per_n_norm(amps: SpinorAmplitudes) -> np.ndarray:
    """|c1|^2 + |d1|^2 + |c2|^2 per n (and per time on a time axis)."""
    return (np.abs(amps.c1) ** 2 + np.abs(amps.d1) ** 2
            + np.abs(amps.c2) ** 2)


def inner_product(f, g, grid: RadialGrid) -> float:
    """Composite-Simpson value of the radial integral  int f g r^2 dr."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if len(f) != len(grid.r) or len(g) != len(grid.r):
        raise LengthMismatch(
            f"sample lengths {len(f)}, {len(g)} vs grid {len(grid.r)}"
        )
    return float(np.sum(grid.quad_w * f * g * grid.r ** 2))


def detect_revivals(t, values, window=None, prominence: float = 0.1):
    """Local maxima of a sampled series, refined by parabolic interpolation.

    Returns a list of (peak_time, peak_value) for maxima whose prominence
    exceeds the threshold, restricted to the (t_lo, t_hi) window when given.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
        t_lo, t_hi = window
        mask = (t >= t_lo) & (t <= t_hi)
        if not mask.any():
            raise EmptyWindow(f"no samples in window ({t_lo}, {t_hi})")
        t = t[mask]
        values = values[mask]
    if len(t) < 3:
        return []
    idx, _ = find_peaks(values, prominence=prominence)
    peaks = []
    for i in idx:
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            shift = 0.5 * (y0 - y2) / denom
            dt = t[i + 1] - t[i]
            t_peak = t[i] + shift * dt
            y_peak = y1 - 0.25 * (y0 - y2) * shift
        else:
            t_peak, y_peak = t[i], y1
        peaks.append((float(t_peak), float(y_peak)))
    return peaks


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_cli_examples():
    """argv of each ``rwp`` line in the README's "CLI usage" code block,
    continuation lines joined."""
    block = readme_block("CLI usage", "sh")
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("rwp ")]


@pytest.fixture(scope="session")
def u92():
    return PhysicalParams(Z=92, l=1)


@pytest.fixture(scope="session")
def u92_scales(u92):
    return time_scales(u92, 80)


@pytest.fixture(scope="session")
def fig4_packet(u92):
    spec = PacketSpec(n_av=80, sigma=2.0,
                      a=1.0 / math.sqrt(2.0), b=1.0 / math.sqrt(2.0))
    return build_packet(spec, u92.l)


@pytest.fixture(scope="session")
def spin_down_packet(u92):
    return build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0), u92.l)


@pytest.fixture(scope="session")
def u92_energies(u92):
    return energy_table(u92, 70, 90)


@pytest.fixture(scope="session")
def u92_grid(u92):
    return make_grid(u92, 90)


@pytest.fixture(scope="session")
def u92_table(u92, u92_grid):
    return radial_table(u92, 70, 90, u92_grid.r)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
