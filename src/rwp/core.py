"""Dirac-Coulomb energy levels, fine-structure splittings and time scales:
T_cl and T_rev from the first and second derivatives of E in n, T_ls from
the exact splitting and its lowest-order estimate from T_cl.

Hartree atomic units throughout (hbar = m_e = e = 1, c = 1/alpha), so the
rest energy is m0*c^2 = alpha**-2 hartree.  All energies returned here are
*reduced*, eps = E - m0*c^2: the rest mass only contributes a global phase
to the evolved packet, and keeping it around would destroy the precision of
every phase at revival-scale times.

The bound-state energy on the branch j = l +/- 1/2 is

    E = m0*c^2 * [1 + (Z*alpha)^2 / D^2]^(-1/2),
    D = n - (j + 1/2) + sqrt((j + 1/2)^2 - (Z*alpha)^2).

eps and the splitting eps_plus - eps_minus are both tiny compared to
m0*c^2, so they are evaluated through algebraic rearrangements that never
subtract two O(alpha**-2) numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidQuantumNumbers, SupercriticalCharge

# CODATA 2018
FINE_STRUCTURE_CONST = 7.2973525693e-3
# one hartree atomic time unit in seconds
ATOMIC_TIME_SECONDS = 2.418884326e-17


@dataclass(frozen=True)
class PhysicalParams:
    """Nuclear charge, fine-structure constant and the packet's fixed l."""

    Z: int
    l: int = 1
    alpha: float = FINE_STRUCTURE_CONST

    def __post_init__(self):
        if self.Z < 1:
            raise InvalidQuantumNumbers(f"Z must be >= 1, got {self.Z}")
        if self.l < 1:
            raise InvalidQuantumNumbers(
                f"l must be >= 1 so both j = l +/- 1/2 exist, got {self.l}"
            )
        if self.Z >= 1.0 / self.alpha:  # Z * alpha overflows for a huge int
            raise SupercriticalCharge(
                f"Z = {self.Z} >= 1/alpha = {1.0 / self.alpha:.4f} (supercritical)")

    @property
    def z_alpha_sq(self) -> float:
        return (self.Z * self.alpha) ** 2


@dataclass(frozen=True)
class EnergyTable:
    """Fine-structure doublets for a contiguous n range at fixed (Z, l)."""

    params: PhysicalParams
    n: np.ndarray
    eps_plus: np.ndarray  # reduced energy of j = l+1/2, above eps_minus
    eps_minus: np.ndarray
    omega: np.ndarray  # (eps_plus - eps_minus) / hbar, inverse atomic time

    @property
    def n_min(self) -> int:
        return int(self.n[0])

    @property
    def n_max(self) -> int:
        return int(self.n[-1])


@dataclass(frozen=True)
class TimeScales:
    """Characteristic times of one packet, all in atomic time units."""

    t_cl: float
    t_rev: float
    t_ls: float
    t_ls2: float
    t_ls_approx: float


def reduced_energy(Z: int, n, j: float, alpha: float = FINE_STRUCTURE_CONST):
    """Reduced Dirac-Coulomb energy eps = E - m0*c^2 in hartree, any valid j,
    at one n or an array of n.

    With x = (Z alpha)^2 / D^2 and s = sqrt(1+x),

        eps = m0*c^2 * ((1+x)^(-1/2) - 1) = -m0*c^2 * x / (s * (1 + s)),

    which evaluates the small difference directly instead of subtracting
    two numbers of magnitude alpha**-2.
    """
    y = (Z * alpha) ** 2
    jp = j + 0.5
    disc = jp * jp - y
    if disc <= 0.0:
        raise SupercriticalCharge(f"(j+1/2)^2 = {jp * jp} <= (Z*alpha)^2 = {y}")
    d = n - jp + math.sqrt(disc)
    x = y / (d * d)
    s = np.sqrt(1.0 + x)
    return -x / (s * (1.0 + s)) / alpha ** 2


def energy_splitting(params: PhysicalParams, n):
    """eps_plus - eps_minus at n (or an array of n), without cancellation.

    Writing f(x) = x / (s (1+s)), s = sqrt(1+x), the splitting is
    m0*c^2 * (f(x_minus) - f(x_plus)).  The difference is reduced exactly to
    a product carrying the small factor x_minus - x_plus, which itself comes
    from the cancellation-free bracket difference

        D_plus - D_minus = [ y/(l+1+sqrt((l+1)^2-y)) + y/(l+sqrt(l^2-y)) ]
                            / [ sqrt((l+1)^2-y) + sqrt(l^2-y) ],   y = (Z alpha)^2.
    """
    l = params.l
    if np.min(n) < l + 1:
        raise InvalidQuantumNumbers(f"n = {n} < l+1 = {l + 1}")
    y = params.z_alpha_sq
    disc_hi = (l + 1) ** 2 - y
    disc_lo = l * l - y  # > 0: PhysicalParams holds l >= 1 > Z*alpha
    sq_hi = math.sqrt(disc_hi)
    sq_lo = math.sqrt(disc_lo)
    d_plus = n - (l + 1) + sq_hi
    d_minus = n - l + sq_lo
    # D_plus - D_minus > 0 for y > 0, computed without subtracting near-equal terms
    d_diff = (y / (l + 1 + sq_hi) + y / (l + sq_lo)) / (sq_hi + sq_lo)

    x_lo = y / (d_minus * d_minus)  # larger of the two (lower branch binds deeper)
    x_hi = y / (d_plus * d_plus)
    dx = y * d_diff * (d_plus + d_minus) / (d_plus * d_plus * d_minus * d_minus)
    s_lo = np.sqrt(1.0 + x_lo)
    s_hi = np.sqrt(1.0 + x_hi)
    # exact factorization of f(x_lo) - f(x_hi) with the small factor dx pulled out
    num = dx * (1.0 + s_hi - x_hi / (s_lo + s_hi))
    den = s_lo * (1.0 + s_lo) * s_hi * (1.0 + s_hi)
    return num / den / params.alpha ** 2


def energy_table(params: PhysicalParams, n_min: int, n_max: int) -> EnergyTable:
    """Tabulate the fine-structure doublet and splitting frequency per n."""
    if not (params.l + 1 <= n_min <= n_max):
        raise InvalidQuantumNumbers(
            f"need l+1 <= n_min <= n_max, got l={params.l}, n_min={n_min}, n_max={n_max}"
        )
    ns = np.arange(n_min, n_max + 1)
    return EnergyTable(params, ns,
                       reduced_energy(params.Z, ns, params.l + 0.5, params.alpha),
                       reduced_energy(params.Z, ns, params.l - 0.5, params.alpha),
                       energy_splitting(params, ns))


def energy_derivatives(params: PhysicalParams, n: float):
    """(dE/dn, d2E/dn2) treating n as continuous on the j = l+1/2 branch.

    n enters E only through D (dD/dn = 1), so with v = y/D^2:

        E = m0*c^2 (1+v)^(-1/2),
        v'  = -2 y / D^3,   v'' = 6 y / D^4,

    and the chain rule gives closed forms that need no cancellation care
    (each derivative is already O(alpha^0) or smaller).
    """
    jp = params.l + 1  # j + 1/2
    disc = jp * jp - params.z_alpha_sq  # > 0: PhysicalParams holds Z*alpha < 1
    d = n - jp + math.sqrt(disc)
    y = params.z_alpha_sq
    c = 1.0 / params.alpha ** 2
    u = 1.0 + y / (d * d)
    vp = -2.0 * y / d ** 3
    vpp = 6.0 * y / d ** 4
    e1 = -0.5 * c * u ** -1.5 * vp
    e2 = c * (0.75 * u ** -2.5 * vp * vp - 0.5 * u ** -1.5 * vpp)
    return e1, e2


def time_scales(params: PhysicalParams, n_av: int) -> TimeScales:
    """All characteristic times of a packet centered at n_av, in atomic units.

    T_k = 2*pi*hbar / |(1/k!) d^k E/dn^k| on the j = l+1/2 branch at n_av:
    k=1 is the classical Kepler period, k=2 the revival time.
    T_ls = 2*pi*hbar / |eps_plus - eps_minus| is the spin-orbit period and
    T_ls2 = (2/3) n_av T_ls the spin-revival scale; the spin revives near half
    of it.  T_ls_approx = 2 l (l+1) / (Z alpha)^2 * T_cl is the lowest-order
    estimate of T_ls; at large Z*alpha the two differ noticeably.
    """
    t_ls = 2.0 * math.pi / abs(energy_splitting(params, n_av))
    e1, e2 = energy_derivatives(params, float(n_av))
    t_cl = 2.0 * math.pi / abs(e1)
    t_rev = 2.0 * math.pi / (abs(e2) / 2.0)
    return TimeScales(
        t_cl=t_cl, t_rev=t_rev, t_ls=t_ls, t_ls2=(2.0 / 3.0) * n_av * t_ls,
        t_ls_approx=2.0 * params.l * (params.l + 1) / params.z_alpha_sq * t_cl)
