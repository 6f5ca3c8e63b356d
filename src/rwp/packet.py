"""Construction and exact time evolution of the spin-carrying radial packet.

The initial state is a Gaussian superposition over n of |n, l, l> states with
alternating signs (which parks the packet at the outer turning point),
multiplied by a two-component spinor (a, b).  Projected onto the fine-structure
eigenbasis and evolved, each n contributes three channels:

    c1: amplitude of |n, l, m=l>   in the upper spinor component,
    d1: amplitude of |n, l, m=l-1> in the upper spinor component,
    c2: amplitude of |n, l, m=l>   in the lower spinor component,

with

    c1 = w_n a e_+,
    d1 = w_n b sqrt(2l)/(2l+1) (e_+ - e_-),
    c2 = w_n b 1/(2l+1) (e_+ + 2l e_-),        e_+ = exp(-i eps_+ t / hbar),

and e_- = e_+ exp(i omega t) with the table's cancellation-free omega, never
exp(-i eps_- t).  |c1|^2 + |d1|^2 + |c2|^2 = w_n^2 (|a|^2 + |b|^2) holds per n
as an algebraic identity, so the evolution is exactly unitary at any time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import EnergyTable
from .errors import InvalidRange, NonNormalizedSpinor, RangeMismatch

SPINOR_NORM_TOL = 1e-9
# Largest n a run accepts, in packet bounds, n_av and time-scale scans.
# Every table holds one row per n and the radial recurrence runs n - l - 1
# steps per radius, so this bounds memory and time.  The tests hold the
# radial rows of n 960-1000 to Gram <= 1e-8, so every accepted n is checked;
# the limit sits far below sizes numpy or round(n_av + 5 sigma) cannot take.
N_LIMIT = 1000


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian weight profile over n plus the initial spinor direction."""

    n_av: int
    sigma: float
    a: complex = 0.0
    b: complex = 1.0
    n_min: Optional[int] = None
    n_max: Optional[int] = None


@dataclass(frozen=True)
class Packet:
    """Resolved packet: renormalized signed weights on a concrete n range."""

    spec: PacketSpec  # with truncation bounds filled in
    n: np.ndarray
    weights: np.ndarray

    @property
    def n_min(self) -> int:
        return int(self.n[0])

    @property
    def n_max(self) -> int:
        return int(self.n[-1])


@dataclass(frozen=True)
class SpinorAmplitudes:
    """Per-n channel amplitudes of the evolved packet.

    At one time ``t`` is a float and c1, d1, c2 have shape (N,); on a time
    axis ``t`` is the 1-D array of times and the channels have shape (T, N).
    """

    t: float | np.ndarray
    n: np.ndarray
    c1: np.ndarray
    d1: np.ndarray
    c2: np.ndarray
    l: int

    def per_n_norm(self) -> np.ndarray:
        return (np.abs(self.c1) ** 2 + np.abs(self.d1) ** 2
                + np.abs(self.c2) ** 2)


def truncation_bounds(spec: PacketSpec, l: int) -> tuple[int, int]:
    """(n_min, n_max) of the packet: the spec's bounds where given, else
    round(n_av -/+ 5 sigma), with n_min no lower than l+1.  InvalidRange if
    sigma is not > 0, 5 sigma is not finite or a bound exceeds N_LIMIT,
    before any table is allocated."""
    if not spec.sigma > 0:  # NaN fails too
        raise InvalidRange(f"sigma must be > 0, got {spec.sigma}")
    n_min, n_max = spec.n_min, spec.n_max
    spread = 5.0 * spec.sigma
    finite = math.isfinite(spread) or (n_min is not None and n_max is not None)
    if finite and n_min is None:
        n_min = max(l + 1, round(spec.n_av - spread))
    if finite and n_max is None:
        n_max = round(spec.n_av + spread)
    if not finite or max(n_min, n_max) > N_LIMIT:
        raise InvalidRange(
            f"packet bounds must be finite and <= N_LIMIT = {N_LIMIT}, got "
            f"n_av={spec.n_av}, sigma={spec.sigma:g}, n_min={spec.n_min}, "
            f"n_max={spec.n_max}"
        )
    return n_min, n_max


def build_packet(spec: PacketSpec, l: int) -> Packet:
    """Resolve the truncation bounds and build the alternating-sign Gaussian
    weights, renormalized so sum w^2 = 1."""
    # a huge |a| makes |a|*|a| inf (rejected below); |a|**2 raises OverflowError
    norm = abs(spec.a) * abs(spec.a) + abs(spec.b) * abs(spec.b)
    if not abs(norm - 1.0) <= SPINOR_NORM_TOL:  # NaN fails too
        raise NonNormalizedSpinor(f"|a|^2 + |b|^2 = {norm} != 1")
    n_min, n_max = truncation_bounds(spec, l)
    if not (l + 1 <= n_min <= spec.n_av <= n_max):
        raise InvalidRange(
            f"need l+1 <= n_min <= n_av <= n_max, got l={l}, "
            f"n_min={n_min}, n_av={spec.n_av}, n_max={n_max}"
        )
    n = np.arange(n_min, n_max + 1)
    # not (n - n_av)^2/(4 sigma^2), which is 0/0 at n = n_av once sigma^2
    # underflows; an overflowing square is inf, which exp sends to 0
    with np.errstate(over="ignore"):
        w = (-1.0) ** n * np.exp(-((n - spec.n_av) / (2.0 * spec.sigma)) ** 2)
    resolved = replace(spec, a=spec.a / math.sqrt(norm),
                       b=spec.b / math.sqrt(norm), n_min=n_min, n_max=n_max)
    return Packet(spec=resolved, n=n, weights=w / math.sqrt(np.sum(w ** 2)))


def _phases(packet: Packet, energies: EnergyTable, t):
    """(e_+, beat) = (exp(-i eps_+ t), exp(i omega t)) on t's shape plus the
    packet's n axis, with omega the table's splitting; e_- = e_+ beat."""
    if energies.n_min > packet.n_min or energies.n_max < packet.n_max:
        raise RangeMismatch(
            f"energy table covers [{energies.n_min}, {energies.n_max}], "
            f"packet needs [{packet.n_min}, {packet.n_max}]"
        )
    rows = slice(packet.n_min - energies.n_min, packet.n_max - energies.n_min + 1)
    tt = np.asarray(t, dtype=float)
    return (np.exp(-1j * np.multiply.outer(tt, energies.eps_plus[rows])),
            np.exp(1j * np.multiply.outer(tt, energies.omega[rows])))


def amplitudes_at(packet: Packet, energies: EnergyTable, t) -> SpinorAmplitudes:
    """Exact channel amplitudes at time t (atomic units), from reduced energies.

    ``t`` is a scalar or a 1-D array of times.  An array gives the channels a
    leading time axis, built from one (T x N) phase matrix per factor; row i
    equals the scalar call at t[i] bit for bit.
    """
    ph_p, beat = _phases(packet, energies, t)
    ph_m = ph_p * beat
    l, w = energies.params.l, packet.weights
    a, b = complex(packet.spec.a), complex(packet.spec.b)
    tt = np.asarray(t, dtype=float)
    c1 = w * a * ph_p
    d1 = w * b * (math.sqrt(2.0 * l) / (2 * l + 1)) * (ph_p - ph_m)
    c2 = w * b * (1.0 / (2 * l + 1)) * (ph_p + 2.0 * l * ph_m)
    return SpinorAmplitudes(t=float(tt) if tt.ndim == 0 else tt, n=packet.n,
                            c1=c1, d1=d1, c2=c2, l=l)
