"""Shared fixtures and extended-precision oracles."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt

from rwp.core import (FINE_STRUCTURE_CONST, PhysicalParams, energy_table,
                      time_scales)
from rwp.packet import PacketSpec, amplitudes_at, build_packet
from rwp.radial import make_grid, radial_table


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
    lo = packet.n_min - int(table.n_range[0])
    rows = table.values[lo:lo + len(packet.n)]
    r2 = table.r ** 2
    return (r2 * (np.abs(amps.c1 @ rows) ** 2 + np.abs(amps.d1 @ rows) ** 2),
            r2 * np.abs(amps.c2 @ rows) ** 2)


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
