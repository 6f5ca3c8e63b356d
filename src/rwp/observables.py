"""Measurable quantities of the evolving packet.

Component densities, the autocorrelation function, spin expectation values,
component norms and revival-peak detection.  Every observable is built from
the phase pair (e_+, beat) of ``packet._phases``: the scalar ones as closed
forms in w_n^2 and the spin beat (``observable_series``), the densities from
two phase sums over the radial table (``densities``).  The channel amplitudes
of ``amplitudes_at``, with ``spin_expectations`` on them, are their oracle in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnergyTable
from .errors import EmptyWindow, RangeMismatch
from .packet import Packet, SpinorAmplitudes, _phases
from .radial import RadialTable


@dataclass(frozen=True)
class ObservableSeries:
    """Time series of every scalar observable on a common time axis."""

    t: np.ndarray
    A: np.ndarray  # complex autocorrelation
    asq: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    slen: np.ndarray
    N1: np.ndarray
    N2: np.ndarray


def densities(packet: Packet, energies: EnergyTable, table: RadialTable,
              times):
    """(rho1, rho2): the radial densities of the upper and lower spinor
    component at the table's radii, each a T x R array for a 1-D array of T
    times in any order.

    With the phase sums P_+- = sum_n w_n e_+- R_n (e_- = e_+ beat), the
    channel sums of ``amplitudes_at`` are a P_+, b sqrt(2l)/(2l+1) (P_+ - P_-)
    and b (P_+ + 2l P_-)/(2l+1).  The two channels of the upper component
    carry orthogonal angular parts (m = l and m = l-1) and add incoherently:

        rho1 = r^2 (|a|^2 |P_+|^2 + |b|^2 2l/(2l+1)^2 |P_+ - P_-|^2),
        rho2 = r^2 |b|^2/(2l+1)^2 |P_+ + 2l P_-|^2.

    The sums over n run through einsum on the real and imaginary parts, not
    through BLAS, so no byte depends on the BLAS thread count or on which
    other times share the call.
    """
    lo, hi = int(table.n_range[0]), int(table.n_range[-1])
    if lo > packet.n_min or hi < packet.n_max:
        raise RangeMismatch(
            f"radial table covers [{lo}, {hi}], "
            f"packet needs [{packet.n_min}, {packet.n_max}]"
        )
    a, b, l = complex(packet.spec.a), complex(packet.spec.b), energies.params.l
    if table.l != l:
        raise RangeMismatch(f"radial table has l={table.l}, energies l={l}")
    if table.Z != energies.params.Z:
        raise RangeMismatch(
            f"radial table has Z={table.Z}, energies Z={energies.params.Z}")
    rows = table.values[packet.n_min - lo:packet.n_max - lo + 1]
    e_plus, beat = _phases(packet, energies, times)
    w_plus = e_plus * packet.weights  # on the T x N phases: rows stay uncopied
    w_minus = w_plus * beat
    flip = abs(b) ** 2 * 2 * l / (2 * l + 1) ** 2  # of |P_+ - P_-|^2
    rho1 = np.zeros(w_plus.shape[:-1] + table.r.shape)
    rho2 = np.zeros_like(rho1)
    for part in (np.real, np.imag):
        # in place, so that at most five T x R arrays are live at once
        p = np.einsum("...n,nr->...r", part(w_plus), rows)
        m = np.einsum("...n,nr->...r", part(w_minus), rows)
        s = 2 * l * m
        s += p
        s *= s
        rho2 += s  # |P_+ + 2l P_-|^2
        m -= p
        m *= m
        m *= flip
        rho1 += m
        p *= p
        p *= abs(a) ** 2
        rho1 += p
        del p, m, s
    r2 = table.r ** 2
    rho1 *= r2
    rho2 *= abs(b) ** 2 / (2 * l + 1) ** 2 * r2
    return rho1, rho2


def spin_expectations(amps: SpinorAmplitudes, l: int):
    """(<sigma_x>, <sigma_y>, <sigma_z>) from the channel amplitudes.

    Only the m = l channels of the two components overlap, so the transverse
    expectations reduce to 2 Re / 2 Im of sum_n conj(c1) c2; the sign
    convention makes the precession run in the +sin(omega t) sense for real
    positive a*b.  The sum runs over the last (n) axis, so amplitudes on a
    time axis give one array per component.
    """
    cross = np.sum(np.conj(amps.c1) * amps.c2, axis=-1)
    sx = 2.0 * cross.real
    sy = 2.0 * cross.imag
    sz = np.sum(np.abs(amps.c1) ** 2 + np.abs(amps.d1) ** 2
                - np.abs(amps.c2) ** 2, axis=-1)
    return sx, sy, sz


def observable_series(packet: Packet, energies: EnergyTable,
                      times) -> ObservableSeries:
    """Every scalar observable on ``times``' shape: a 1-D time axis, or 0-d
    fields at a scalar time.  With W = sum w_n^2 and S = sum w_n^2 beat, from
    the pair (e_+, beat) of ``_phases``:

        A = <Psi(0)|Psi(t)> = sum_n w_n^2 e_+ [|a|^2 + |b|^2 (1 + 2l beat)/(2l+1)],
        sum_n conj(c1) c2 = conj(a) b (W + 2l S)/(2l+1),
        N2 = |b|^2 (W (1 + 4l^2) + 4l Re S)/(2l+1)^2,

    then (sx, sy) = 2 (Re, Im) sum_n conj(c1) c2, sz = 1 - 2 N2 and N1 = 1 - N2
    (unitarity), summed over n by einsum, not BLAS, so no byte depends on its
    threads.
    """
    times = np.asarray(times, dtype=float)
    e_plus, beat = _phases(packet, energies, times)
    a, b, l = complex(packet.spec.a), complex(packet.spec.b), energies.params.l
    w2, b2 = packet.weights ** 2, abs(b) ** 2
    w_sum, s = np.sum(w2), np.einsum("...n,n->...", beat, w2)
    A = np.einsum("...n,...n->...", e_plus,
                  w2 * (abs(a) ** 2 + b2 / (2 * l + 1))
                  + (w2 * (b2 * 2 * l / (2 * l + 1))) * beat)
    cross = a.conjugate() * b * (w_sum + 2.0 * l * s) / (2 * l + 1)
    n2 = b2 * (w_sum * (1.0 + 4.0 * l * l) + 4.0 * l * s.real) / (2 * l + 1) ** 2
    sx, sy, sz = 2.0 * cross.real, 2.0 * cross.imag, 1.0 - 2.0 * n2
    slen = np.sqrt(sx ** 2 + sy ** 2 + sz ** 2)
    return ObservableSeries(t=times, A=A, asq=np.abs(A) ** 2, sx=sx, sy=sy,
                            sz=sz, slen=slen, N1=1.0 - n2, N2=n2)


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
    from scipy.signal import find_peaks  # slow import, kept off the CLI path
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
