"""Measurable quantities of the evolving packet.

Component densities, the autocorrelation function, spin expectation values
and component norms.  Every observable is built from the phase pair
(e_+, beat) of ``packet._phases``: the scalar ones as closed forms in w_n^2
and the spin beat (``observable_series``), the densities from two phase sums
over the radial table (``densities``).  The channel amplitudes of
``amplitudes_at``, with ``spin_expectations`` on them, are their oracle in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnergyTable
from .errors import RangeMismatch
from .packet import Packet, SpinorAmplitudes, _phases, _same_n
from .radial import RadialTable, _blocks


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
    component at the table's R radii, each of shape times.shape + (R,): T x R
    for a 1-D axis of T times in any order.  RangeMismatch, before any block
    runs, unless both tables span exactly the packet's n at one l and Z.

    With the phase sums P_+- = sum_n w_n e_+- R_n (e_- = e_+ beat), the
    channel sums of ``amplitudes_at`` are a P_+, b sqrt(2l)/(2l+1) (P_+ - P_-)
    and b (P_+ + 2l P_-)/(2l+1).  The two channels of the upper component
    carry orthogonal angular parts (m = l and m = l-1) and add incoherently:

        rho1 = r^2 (|a|^2 |P_+|^2 + |b|^2 2l/(2l+1)^2 |P_+ - P_-|^2),
        rho2 = r^2 |b|^2/(2l+1)^2 |P_+ + 2l P_-|^2.

    The sums over n run through einsum on the real and imaginary parts, not
    through BLAS, so no byte depends on the BLAS thread count or on which
    other times share the call.  The times run in the blocks of ``_blocks``,
    _BLOCK_ELEMENTS // R times each.  A block takes its phases, one einsum for
    q = (Re P_-, Re P_+, Im P_-, Im P_+) and in-place ufuncs, which never fuse
    a multiply and an add: rho2 = Re^2 + Im^2 of P_+ + 2l P_-, and rho1 =
    ((Re m + Re p) + Im m) + Im p of m = P_- - P_+ and p = P_+, squares scaled.
    Besides the two outputs only six block x R temporaries are live at once.
    """
    _same_n(packet, table.n_range, "radial table")
    _same_n(packet, energies.n, "energy table")
    a, b, l = complex(packet.spec.a), complex(packet.spec.b), energies.params.l
    if (table.l, table.Z) != (l, energies.params.Z):
        raise RangeMismatch(f"radial table has l={table.l}, Z={table.Z}; "
                            f"energies l={l}, Z={energies.params.Z}")
    times = np.asarray(times, dtype=float)
    flat = times.reshape(-1)
    flip = abs(b) ** 2 * 2 * l / (2 * l + 1) ** 2  # of |P_+ - P_-|^2
    coef = np.reshape([flip, abs(a) ** 2] * 2, (4, 1, 1))
    r2 = table.r ** 2
    scale2 = abs(b) ** 2 / (2 * l + 1) ** 2 * r2
    rho1 = np.empty((len(flat), len(table.r)))
    rho2 = np.empty_like(rho1)
    for block in _blocks(len(flat), len(table.r)):
        out1, out2 = rho1[block], rho2[block]
        e_plus, beat = _phases(packet, energies, flat[block])
        w_plus = e_plus * packet.weights  # on the phases: rows stay uncopied
        w_minus = w_plus * beat
        parts = [w_minus.real, w_plus.real, w_minus.imag, w_plus.imag]
        q = np.einsum("ktn,nr->ktr", np.array(parts), table.values)
        s = 2 * l * q[0::2] + q[1::2]  # P_+ + 2l P_-
        s *= s
        np.add(*s, out=out2)
        q[0::2] -= q[1::2]  # P_- - P_+
        q *= q
        q *= coef
        np.add(*q[:2], out=out1)
        out1 += q[2]
        out1 += q[3]
        out1 *= r2
        out2 *= scale2
    shape = times.shape + table.r.shape
    return rho1.reshape(shape), rho2.reshape(shape)


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
