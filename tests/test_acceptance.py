"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines on the terminal.
"""

import math

import numpy as np
import pytest

from rwp.core import (PhysicalParams, energy_splitting, energy_table,
                      time_scales)
from rwp.observables import (densities, detect_revivals, observable_series,
                             spin_expectations)
from rwp.packet import PacketSpec, amplitudes_at, build_packet
from rwp.radial import make_grid, radial_table


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fig4():
    """Packet, energies and dense observable series for the a=b preset."""
    params = PhysicalParams(Z=92, l=1)
    s = 1.0 / math.sqrt(2.0)
    packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=s, b=s), params.l)
    energies = energy_table(params, packet.n_min, packet.n_max)
    tls = time_scales(params, 80).t_ls
    series = observable_series(packet, energies,
                               np.linspace(0.0, 35.0 * tls, 7001))
    return params, packet, energies, tls, series


def test_criterion_1_definitional_spin_orbit_period():
    worst = 0.0
    for Z in (1, 47, 92):
        params = PhysicalParams(Z=Z, l=1)
        for n_av in (20, 80, 150):
            product = (time_scales(params, n_av).t_ls
                       * abs(energy_splitting(params, n_av)))
            worst = max(worst, abs(product / (2.0 * math.pi) - 1.0))
    report(1, worst < 1e-12,
           f"t_ls * |dE| = 2*pi, worst relative deviation {worst:.2e}")


def test_criterion_2_lowest_order_ratio():
    devs = {}
    for Z, tol in ((1, 1e-3), (92, 0.25)):
        params = PhysicalParams(Z=Z, l=1)
        scales = time_scales(params, 80)
        ratio = scales.t_ls / scales.t_cl
        expected = 4.0 / (Z * params.alpha) ** 2
        devs[Z] = abs(ratio / expected - 1.0)
    ok = devs[1] < 1e-3 and devs[92] < 0.25
    report(2, ok,
           f"T_ls/T_cl vs 2l(l+1)/(Z a)^2: Z=1 dev {devs[1]:.2e} (tol 1e-3), "
           f"Z=92 dev {devs[92]:.3f} (tol 0.25)")


def test_criterion_3_time_scale_ordering_scan():
    params = PhysicalParams(Z=92, l=1)
    n_values = np.arange(20, 151)
    scales = [time_scales(params, int(n)) for n in n_values]
    diff = np.array([s.t_ls - s.t_rev for s in scales])
    above_60_ok = bool(np.all(diff[n_values > 60] < 0.0))
    sign_change = np.nonzero(np.diff(np.sign(diff)))[0]
    crossover = (n_values[sign_change[0]] if len(sign_change) else None)
    crossover_ok = crossover is not None and 40 <= crossover <= 60
    report(3, above_60_ok and crossover_ok,
           f"T_ls < T_rev beyond n=60: {above_60_ok}; crossover in [40, 60]: "
           f"{crossover_ok} (T_ls/T_rev falls from "
           f"{scales[0].t_ls / scales[0].t_rev:.2f} at n=20 to "
           f"{scales[-1].t_ls / scales[-1].t_rev:.2f} at n=150, "
           f"so any crossover lies below the scan)")


def test_criterion_4_unitarity_on_the_grid(fig4):
    params, packet, energies, tls, _ = fig4
    grid = make_grid(params, packet.n_max)
    table = radial_table(params, packet.n_min, packet.n_max, grid.r)
    rng = np.random.default_rng(4)
    times = np.exp(rng.uniform(math.log(1e-2 * tls), math.log(30.0 * tls),
                               size=50))
    rho1, rho2 = densities(packet, energies, table, times)
    norm = np.sum(grid.quad_w * (rho1 + rho2), axis=-1)
    n2_quad = np.sum(grid.quad_w * rho2, axis=-1)
    worst_norm = float(np.abs(norm - 1.0).max())
    n2 = observable_series(packet, energies, times).N2
    worst_n2 = float(np.abs(n2_quad - n2).max())
    report(4, worst_norm < 1e-6 and worst_n2 < 1e-6,
           f"quadrature norm dev {worst_norm:.2e}, "
           f"analytic-vs-quadrature N2 dev {worst_n2:.2e} (tol 1e-6)")


def test_criterion_5_orthonormality_gate():
    params = PhysicalParams(Z=92, l=1)
    grid = make_grid(params, 90)
    table = radial_table(params, 70, 90, grid.r)
    weighted = table.values * grid.quad_w * grid.r ** 2
    gram = weighted @ table.values.T
    dev = float(np.abs(gram - np.eye(21)).max())
    report(5, dev < 1e-8, f"Gram deviation from identity {dev:.2e} (tol 1e-8)")


def test_criterion_6_spin_plateau(fig4):
    _, _, _, tls, series = fig4
    mask = (series.t > 5.0 * tls) & (series.t < 20.0 * tls)
    mean_len = float(series.slen[mask].mean())
    report(6, abs(mean_len - 0.55) < 0.05,
           f"mean Bloch length over (5, 20) T_ls = {mean_len:.3f} "
           f"(target 0.55 +/- 0.05)")


def test_criterion_7_spin_revival(fig4):
    _, _, _, tls, series = fig4
    slen_peaks = detect_revivals(series.t, series.slen,
                                 window=(20.0 * tls, 33.0 * tls),
                                 prominence=0.05)
    hit = [p for p in slen_peaks if abs(p[0] / tls - 26.7) <= 1.0]
    asq_peaks = detect_revivals(series.t, series.asq,
                                window=(25.7 * tls, 27.7 * tls),
                                prominence=0.1)
    ok = bool(hit) and bool(asq_peaks)
    best = max(hit, key=lambda p: p[1]) if hit else (float("nan"),) * 2
    report(7, ok,
           f"Bloch-length peak at {best[0] / tls:.2f} T_ls "
           f"(target 26.7 +/- 1), |A|^2 peaks in window: {len(asq_peaks)}")


def test_criterion_8_component_transfer():
    params = PhysicalParams(Z=92, l=1)
    packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0),
                          params.l)
    energies = energy_table(params, packet.n_min, packet.n_max)
    tls = time_scales(params, 80).t_ls
    t = np.linspace(0.0, 1.2 * tls, 4001)
    n2 = observable_series(packet, energies, t).N2
    minima = detect_revivals(t, -n2, prominence=0.1)
    assert minima
    t_min, neg_val = minima[0]
    n2_min = -neg_val
    time_ok = abs(t_min / (0.5 * tls) - 1.0) < 0.10
    floor_ok = (1.0 / 9.0 - 0.02) <= n2_min <= (1.0 / 9.0 + 0.15)
    report(8, time_ok and floor_ok,
           f"first N2 minimum at {t_min / tls:.3f} T_ls (target 0.5 +/- 10%), "
           f"value {n2_min:.4f} in [1/9 - 0.02, 1/9 + 0.15]")


def test_criterion_9_short_time_revival():
    params = PhysicalParams(Z=92, l=1)
    t_cl = time_scales(params, 80).t_cl
    peaks = {}
    for sigma in (1.0, 2.0):
        packet = build_packet(PacketSpec(n_av=80, sigma=sigma, a=0.0, b=1.0),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        t = np.linspace(0.0, 2.0 * t_cl, 2001)
        asq = observable_series(packet, energies, t).asq
        found = detect_revivals(t, asq, window=(0.5 * t_cl, 2.0 * t_cl),
                                prominence=0.1)
        assert found
        peaks[sigma] = found[0]
    time_ok = all(abs(peaks[s][0] / t_cl - 1.0) < 0.05 for s in (1.0, 2.0))
    order_ok = peaks[1.0][1] > peaks[2.0][1]
    report(9, time_ok and order_ok,
           f"first |A|^2 maxima at {peaks[1.0][0] / t_cl:.3f} and "
           f"{peaks[2.0][0] / t_cl:.3f} T_cl, heights "
           f"{peaks[1.0][1]:.3f} > {peaks[2.0][1]:.3f}: {order_ok}")


def test_criterion_10_property_suite():
    import dataclasses

    params = PhysicalParams(Z=92, l=1)
    packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8),
                          params.l)
    energies = energy_table(params, packet.n_min, packet.n_max)
    rng = np.random.default_rng(10)
    checks = []

    # per-n unitarity at 200 random times
    w2 = packet.weights ** 2
    dev = max(float(np.abs(amplitudes_at(packet, energies, t).per_n_norm()
                           - w2).max())
              for t in rng.uniform(0.0, 1e6, size=200))
    checks.append(("per-n unitarity", dev < 1e-13, dev))

    # phase-shift invariance of all moduli
    shifted = dataclasses.replace(energies,
                                  eps_plus=energies.eps_plus + 3.21,
                                  eps_minus=energies.eps_minus + 3.21)
    dev = 0.0
    for t in rng.uniform(0.0, 1e4, size=10):
        a0 = amplitudes_at(packet, energies, t)
        a1 = amplitudes_at(packet, shifted, t)
        dev = max(dev,
                  float(np.abs(np.abs(a0.c1) - np.abs(a1.c1)).max()),
                  float(np.abs(np.abs(a0.d1) - np.abs(a1.d1)).max()),
                  float(np.abs(np.abs(a0.c2) - np.abs(a1.c2)).max()),
                  abs(abs(observable_series(packet, energies, t).A)
                      - abs(observable_series(packet, shifted, t).A)))
    checks.append(("phase-shift invariance", dev < 1e-12, dev))

    # stationarity of the a=1, b=0 packet
    up = build_packet(PacketSpec(n_av=80, sigma=2.0, a=1.0, b=0.0), params.l)
    dev = 0.0
    for t in rng.uniform(0.0, 1e6, size=10):
        sx, sy, sz = spin_expectations(amplitudes_at(up, energies, t),
                                       params.l)
        series = observable_series(up, energies, t)
        dev = max(dev, abs(sx), abs(sy), abs(sz - 1.0), abs(series.N1 - 1.0),
                  abs(series.N2))
    checks.append(("spin-up stationarity", dev < 1e-13, dev))

    # t = 0 spinor expectations
    sx, sy, sz = spin_expectations(amplitudes_at(packet, energies, 0.0),
                                   params.l)
    dev = max(abs(sx - 2 * 0.6 * 0.8), abs(sy),
              abs(sz - (0.6 ** 2 - 0.8 ** 2)))
    checks.append(("t=0 spin expectations", dev < 1e-14, dev))

    # amplitude-based vs rederived closed-form spins at l=1
    lo = packet.n_min - energies.n_min
    omega = (energies.eps_plus - energies.eps_minus)[lo:lo + len(packet.n)]
    dev = 0.0
    for t in rng.uniform(0.0, 1e4, size=50):
        got = spin_expectations(amplitudes_at(packet, energies, t), params.l)
        cos, sin = np.cos(omega * t), np.sin(omega * t)
        a, b = 0.6, 0.8
        want = (a * b * np.sum(w2 * (2.0 / 3.0 + 4.0 / 3.0 * cos)),
                a * b * np.sum(w2 * 4.0 / 3.0 * sin),
                np.sum(w2 * (a * a - b * b / 9.0 - b * b * 8.0 / 9.0 * cos)))
        dev = max(dev, float(np.abs(np.array(got) - np.array(want)).max()))
    checks.append(("closed-form spin agreement", dev < 1e-12, dev))

    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name} dev {val:.1e} {'ok' if good else 'FAILED'}"
                       for name, good, val in checks)
    report(10, ok, detail)
